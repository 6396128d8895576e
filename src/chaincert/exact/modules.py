"""Finitely presented modules over Z and Z/m, and their morphisms.

A module is the cokernel of its relations matrix (generators x relations);
a morphism is a matrix on generators that carries relations into relations,
which is verified at construction time.  Kernels, cokernels, sums, tensor
and hom are all computed as new presentations together with the canonical
structure maps.
"""

from __future__ import annotations

from typing import Sequence

from .matrix import Matrix, _from_canonical
from .rings import RingSpec
from .snf import kernel_matrix, snf, solve


class PresentedModule:
    __slots__ = ("ring", "generators", "relations")

    def __init__(self, ring: RingSpec, generators: int, relations: Matrix | None = None):
        if relations is None:
            relations = Matrix.zero(ring, generators, 0)
        if relations.ring != ring:
            raise ValueError("relations ring mismatch")
        if relations.rows != generators:
            raise ValueError(f"relations must have {generators} rows, "
                             f"got {relations.rows}")
        self.ring = ring
        self.generators = generators
        self.relations = relations

    # -- constructors -------------------------------------------------

    @staticmethod
    def free(ring: RingSpec, n: int) -> "PresentedModule":
        return PresentedModule(ring, n)

    @staticmethod
    def zero(ring: RingSpec) -> "PresentedModule":
        return PresentedModule(ring, 0)

    @staticmethod
    def cyclic(ring: RingSpec, d: int) -> "PresentedModule":
        """The quotient R/(d)."""
        return PresentedModule(ring, 1, Matrix(ring, 1, 1, [[d]]))

    # -- structure ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, PresentedModule) and self.ring == other.ring
            and self.generators == other.generators
            and self.relations == other.relations)

    def __hash__(self) -> int:
        return hash((self.ring, self.generators, self.relations))

    def __repr__(self) -> str:
        return (f"PresentedModule({self.ring}, gens={self.generators}, "
                f"rels={self.relations.to_lists()})")

    def minimal_invariants(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, nontrivial invariant factors) - an isomorphism invariant."""
        if not self.relations.cols:
            return self.generators, ()
        diag = snf(self.relations).diagonal
        nonzero = [d for d in diag if d != 0]
        rank = self.generators - len(nonzero)
        factors = tuple(d for d in nonzero if not self.ring.is_unit(d))
        return rank, factors

    def is_zero_module(self) -> bool:
        rank, factors = self.minimal_invariants()
        return rank == 0 and not factors

    def to_json(self) -> dict:
        return {"generators": self.generators, "relations": self.relations.to_json()}


class ModuleMap:
    __slots__ = ("source", "target", "action")

    def __init__(self, source: PresentedModule, target: PresentedModule,
                 action: Matrix, *, check: bool = True):
        if source.ring != target.ring:
            raise ValueError("module ring mismatch")
        if action.rows != target.generators or action.cols != source.generators:
            raise ValueError(f"action must be {target.generators}x"
                             f"{source.generators}, got {action.rows}x{action.cols}")
        if check and source.relations.cols:
            image_of_relations = action @ source.relations
            if solve(target.relations, image_of_relations) is None:
                raise ValueError("map does not carry relations into relations")
        self.source = source
        self.target = target
        self.action = action

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(module: PresentedModule) -> "ModuleMap":
        return ModuleMap(module, module,
                         Matrix.identity(module.ring, module.generators), check=False)

    @staticmethod
    def zero_map(source: PresentedModule, target: PresentedModule) -> "ModuleMap":
        return ModuleMap(source, target,
                         Matrix.zero(source.ring, target.generators, source.generators),
                         check=False)

    # -- algebra ------------------------------------------------------

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self o other (apply other first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition endpoint mismatch")
        return ModuleMap(other.source, self.target, self.action @ other.action,
                         check=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        self._same_endpoints(other)
        return ModuleMap(self.source, self.target, self.action + other.action,
                         check=False)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        self._same_endpoints(other)
        return ModuleMap(self.source, self.target, self.action - other.action,
                         check=False)

    def __neg__(self) -> "ModuleMap":
        return ModuleMap(self.source, self.target, -self.action, check=False)

    def _same_endpoints(self, other: "ModuleMap") -> None:
        if self.source != other.source or self.target != other.target:
            raise ValueError("maps do not share endpoints")

    def is_zero(self) -> bool:
        return solve(self.target.relations, self.action) is not None

    def __repr__(self) -> str:
        return f"ModuleMap({self.action.to_lists()})"


def map_equal(f: ModuleMap, g: ModuleMap) -> bool:
    """Equality in Hom: f - g factors through the target relations."""
    f._same_endpoints(g)
    return (f - g).is_zero()


# -- submodules, kernels, cokernels -----------------------------------


def present_submodule(ambient: PresentedModule, gens: Matrix
                      ) -> tuple[PresentedModule, ModuleMap]:
    """Present the submodule of `ambient` generated by the columns of `gens`.

    Returns the module together with its inclusion.
    """
    ring = ambient.ring
    s = gens.cols
    combined = gens.hstack(ambient.relations)
    K = kernel_matrix(combined)
    relations = K.submatrix(range(s), range(K.cols))
    relations = _drop_zero_columns(relations)
    sub = PresentedModule(ring, s, relations)
    incl = ModuleMap(sub, ambient, gens, check=False)
    return sub, incl


def _drop_zero_columns(M: Matrix) -> Matrix:
    keep = [j for j, column in enumerate(zip(*M.data)) if any(column)]
    return M if len(keep) == M.cols else M.columns(keep)


def kernel(f: ModuleMap) -> tuple[PresentedModule, ModuleMap]:
    """Kernel submodule with its inclusion into the source."""
    ring = f.source.ring
    system = f.action.hstack(-f.target.relations)
    K = kernel_matrix(system)
    gens = K.submatrix(range(f.source.generators), range(K.cols))
    gens = _drop_zero_columns(gens)
    return present_submodule(f.source, gens)


def cokernel(f: ModuleMap) -> tuple[PresentedModule, ModuleMap]:
    """Cokernel with the canonical projection from the target."""
    relations = f.target.relations.hstack(f.action)
    coker = PresentedModule(f.source.ring, f.target.generators,
                            _drop_zero_columns(relations))
    proj = ModuleMap(f.target, coker,
                     Matrix.identity(f.source.ring, f.target.generators), check=False)
    return coker, proj


def factor_through(incl: ModuleMap, u: ModuleMap) -> ModuleMap | None:
    """Find w with incl o w = u, for a monomorphism ``incl``.

    Every caller factors through a kernel or submodule inclusion.  There
    incl o w = u forces w to be well defined: w carries a relation r of
    the source to an element whose image incl(w r) = u r is zero, so
    w r is zero because incl is injective.  So w is built unchecked.
    """
    from .equations import MapVariable, MatrixRelation, solve_map_relations

    if incl.target != u.target:
        raise ValueError("maps must share the ambient target")
    ring = incl.source.ring
    w = MapVariable("w", u.source, incl.source)
    rel = MatrixRelation(
        terms=[(1, incl.action, "w", Matrix.identity(ring, u.source.generators))],
        rhs=u.action,
        mod=incl.target.relations,
    )
    sol = solve_map_relations(ring, [w], [rel])
    if sol is None:
        return None
    return ModuleMap(u.source, incl.source, sol["w"], check=False)


# -- sums, tensor, hom -------------------------------------------------


def direct_sum_module(ring: RingSpec, modules: Sequence[PresentedModule]
                      ) -> PresentedModule:
    """The direct sum alone: block-diagonal relations, zero when empty."""
    if any(m.ring != ring for m in modules):
        raise ValueError("ring mismatch")
    return PresentedModule(ring, sum(m.generators for m in modules),
                           Matrix.block_diagonal(ring, [m.relations
                                                        for m in modules]))


def direct_sum(modules: Sequence[PresentedModule]
               ) -> tuple[PresentedModule, list[ModuleMap], list[ModuleMap]]:
    """Direct sum with injections and projections."""
    if not modules:
        raise ValueError("empty direct sum: pass the zero module explicitly")
    out = direct_sum_module(modules[0].ring, modules)
    injections, projections = summand_maps(out, modules)
    return out, injections, projections


def summand_maps(total: PresentedModule, modules: Sequence[PresentedModule]
                 ) -> tuple[list[ModuleMap], list[ModuleMap]]:
    """Injections and projections of ``total = direct_sum_module(modules)``."""
    ring = total.ring
    size = total.generators
    injections, projections = [], []
    offset = 0
    for m in modules:
        g = m.generators
        rows = []
        for i in range(offset, offset + g):
            row = [0] * size
            row[i] = 1
            rows.append(tuple(row))
        # entries 0 and 1 are canonical over every ring
        proj = _from_canonical(ring, g, size, tuple(rows))
        injections.append(ModuleMap(m, total, proj.transpose(), check=False))
        projections.append(ModuleMap(total, m, proj, check=False))
        offset += g
    return injections, projections


def tensor_sum_module(ring: RingSpec,
                      pairs: Sequence[tuple[PresentedModule, PresentedModule]]
                      ) -> PresentedModule:
    """The direct sum of M (x) N over ``pairs``, in their order; zero when
    there are none, and M (x) N alone for one pair.

    Within a summand the generator pair (a, b) sits at a * gens(N) + b.
    The relations are block diagonal, each summand's R_M (x) I then
    I (x) R_N, with zero columns dropped, all written by one
    `Matrix.kron_blocks`.
    """
    row_sizes: list[int] = []
    col_sizes: list[int] = []
    terms = []
    for p, (M, N) in enumerate(pairs):
        if M.ring != ring or N.ring != ring:
            raise ValueError("ring mismatch")
        gM, gN = M.generators, N.generators
        row_sizes.append(gM * gN)
        col_sizes += [M.relations.cols * gN, gM * N.relations.cols]
        terms += [(p, 2 * p, 1, M.relations, gN),
                  (p, 2 * p + 1, 1, gM, N.relations)]
    relations = Matrix.kron_blocks(ring, row_sizes, col_sizes, terms)
    return PresentedModule(ring, relations.rows,
                           _drop_zero_columns(relations))


class HomSpace:
    """Hom_R(M, N) as a presented module with explicit generator matrices.

    ``module`` has one generator per column of ``gens``; each generator is a
    well-defined map M -> N encoded by its action matrix.

    For a free source R^k every matrix is well defined and a map is zero
    in Hom exactly when each column lies in the span of N's relations, so
    Hom(R^k, N) is N^k in closed form: the generators are the unit
    matrices in the order of ``Matrix.vec`` and the relations are
    I_k (x) rel_N with its zero columns dropped, the presentation the
    kernel route below gives it.  Other sources take the kernel route.
    """

    __slots__ = ("source", "target", "module", "gens", "_gen_matrix", "_coord_system")

    def __init__(self, source: PresentedModule, target: PresentedModule):
        ring = source.ring
        if target.ring != ring:
            raise ValueError("ring mismatch")
        gS, gT = source.generators, target.generators
        rS, rT = source.relations.cols, target.relations.cols
        # maps that are zero in Hom: phi = relT @ Z columnwise
        zero_maps = Matrix.kron_blocks(ring, [gS * gT], [gS * rT],
                                       [(0, 0, 1, gS, target.relations)])
        if not rS:
            phi_part = Matrix.identity(ring, gT * gS)
            relations = _drop_zero_columns(zero_maps)
        else:
            # well-definedness: phi @ relS = relT @ Y for some Y, flattened
            # to [relS^T (x) I | -(I (x) relT)]
            K = kernel_matrix(Matrix.kron_blocks(
                ring, [rS * gT], [gT * gS, rS * rT],
                [(0, 0, 1, source.relations.transpose(), gT),
                 (0, 1, -1, rS, target.relations)]))
            phi_part = _drop_zero_columns(
                K.submatrix(range(gT * gS), range(K.cols)))
            relations = Matrix.zero(ring, phi_part.cols, 0)
            if phi_part.cols:
                Krel = kernel_matrix(phi_part.hstack(-zero_maps))
                relations = _drop_zero_columns(
                    Krel.submatrix(range(phi_part.cols), range(Krel.cols)))
        self.source = source
        self.target = target
        self.module = PresentedModule(ring, phi_part.cols, relations)
        self._gen_matrix = phi_part
        # [gens | zero maps], kept so that every coords call reuses the one
        # Smith form of it
        self._coord_system = phi_part.hstack(zero_maps)
        self.gens = [Matrix.unvec(ring, phi_part.column_at(j), gT, gS)
                     for j in range(phi_part.cols)]

    def coords(self, *actions: Matrix) -> Matrix:
        """Coefficient columns of hom elements in the chosen generators.

        One column per action, all from one `solve` against the kept Smith
        form; a single action gives one column, and none makes no solve.
        """
        ring = self.source.ring
        k = self._gen_matrix.cols
        if not actions:
            return Matrix.zero(ring, k, 0)
        vs = Matrix.hstack_all(ring, self._coord_system.rows,
                               [a.vec() for a in actions])
        sol = solve(self._coord_system, vs)
        if sol is None:
            raise ValueError("matrix is not a well-defined hom element")
        return sol.submatrix(range(k), range(len(actions)))

    def element(self, coords: Matrix) -> Matrix:
        ring = self.source.ring
        v = self._gen_matrix @ coords
        return Matrix.unvec(ring, v, self.target.generators, self.source.generators)

    # Induced maps are well defined by construction: a relation of the
    # source is a zero map, composing it with h gives a zero map again, and
    # the relations of the target encode every zero map.

    def postcompose(self, h: ModuleMap, target_space: "HomSpace") -> ModuleMap:
        """Induced map Hom(M, N) -> Hom(M, N') sending phi to h o phi."""
        action = target_space.coords(*[h.action @ g for g in self.gens])
        return ModuleMap(self.module, target_space.module, action, check=False)

    def precompose(self, h: ModuleMap, target_space: "HomSpace") -> ModuleMap:
        """Induced map Hom(M, N) -> Hom(M', N) sending phi to phi o h."""
        action = target_space.coords(*[g @ h.action for g in self.gens])
        return ModuleMap(self.module, target_space.module, action, check=False)


# -- pushouts of module maps ------------------------------------------


def pushout_modules(f: ModuleMap, g: ModuleMap
                    ) -> tuple[PresentedModule, ModuleMap, ModuleMap]:
    """Pushout of B <-f- A -g-> C: cokernel of (f, -g) into B + C."""
    if f.source != g.source:
        raise ValueError("pushout legs must share their source")
    total, (injB, injC), _ = direct_sum([f.target, g.target])
    diff = ModuleMap(f.source, total,
                     f.action.vstack(-g.action), check=False)
    # the projection onto the cokernel is the identity on generators
    P, _ = cokernel(diff)
    return (P, ModuleMap(f.target, P, injB.action, check=False),
            ModuleMap(g.target, P, injC.action, check=False))
