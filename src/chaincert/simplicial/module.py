"""Simplicial modules: the denormalization, normalization, and tensors.

The canonical representation of a simplicial module is its normalized
complex; levels are derived data.  Both normalizations, N(Gamma(C)) as
N(Gamma(C) (x) c(R)) and N(Gamma(C) (x) Gamma(D)), read the
non-degenerate coordinates off the per-shape plans of ``levels.py``,
whose compilation checks that the degenerate block is a subcomplex.
The tests check both against quotients of whole level matrices.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from ..chains.build import interval, unit_complex
from ..chains.complexes import ChainComplex, ChainMap
from ..errors import CertificateError
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, PresentedModule
from ..exact.rings import RingSpec
from .levels import (GammaLevels, TensorLevels, face_plan, pair_layout,
                     parts_plan, relation_plan, verify_simplicial_identities)


def _entries(M: Matrix) -> list[tuple[int, int, int]]:
    """(row, column, entry) of each nonzero entry of M."""
    return [(r, c, v) for r, row in enumerate(M.data)
            for c, v in enumerate(row) if v]


def _add_block(action: list[list[int]], c: int, left, right, row0: int,
               row_stride: int, col0: int, col_stride: int) -> None:
    """Add c * X (x) Y to ``action``, X and Y given by their `_entries`,
    entry (x, y) at row row0 + x_row * row_stride + y_row and column
    col0 + x_col * col_stride + y_col, as the plans of ``levels.py``
    place their blocks."""
    for x_row, x_col, x in left:
        x *= c
        rows = row0 + x_row * row_stride
        first = col0 + x_col * col_stride
        for y_row, y_col, y in right:
            action[rows + y_row][first + y_col] += x * y


def _planned_quotient(levels: TensorLevels, top: int) -> ChainComplex:
    """The normalized complex of Gamma(C) (x) Gamma(D) through ``top``.

    The per-shape plans of ``levels.py``, keyed by the factors' ``shape()``
    and the level, list the non-degenerate pairs of summands, the relation
    columns and the face blocks, and this fills them with the entries of
    C's and D's relations and differentials.  Their compilation cancels
    the face terms from degenerate pairs formally, which is the descent
    check for every C and D of the shape (see the ``levels.py``
    docstring).
    """
    ring = levels.ring
    shapes = levels.A.shape(), levels.B.shape()
    ranks_a, ranks_b = shapes[0][0], shapes[1][0]
    complexes = levels.A.C, levels.B.C
    columns: dict[tuple[int, int, int], tuple[int, ...]] = {}
    mods = []
    for n in range(top + 1):
        rank = pair_layout(ranks_a, ranks_b, n)[0]
        plan = relation_plan(*shapes, n)
        rel = [[0] * len(plan) for _ in range(rank)]
        for c, (side, k, j, row, step, count) in enumerate(plan):
            values = columns.get((side, k, j))
            if values is None:
                values = columns[side, k, j] = tuple(
                    r[j] for r in complexes[side].module(k).relations.data)
            for v in values:
                if v:
                    rel[row][c] = v
                row += step
        mods.append(PresentedModule(ring, rank,
                                    Matrix(ring, rank, len(plan), rel)))
    terms: dict[tuple[int, int, bool], list[tuple[int, int, int]]] = {}

    def term(side: int, k: int, via_d: bool) -> list[tuple[int, int, int]]:
        key = (side, k, via_d)
        if key not in terms:
            C = complexes[side]
            terms[key] = (_entries(C.differential(k).action) if via_d else
                          [(x, x, 1) for x in range(C.module(k).generators)])
        return terms[key]

    diffs: list[ModuleMap] = []
    for n in range(1, top + 1):
        cols = mods[n].generators
        action = [[0] * cols for _ in range(mods[n - 1].generators)]
        for c, k, via, k2, via2, *place in face_plan(ranks_a, ranks_b, n):
            _add_block(action, c, term(0, k, via), term(1, k2, via2), *place)
        diffs.append(ModuleMap(mods[n], mods[n - 1],
                               Matrix(ring, len(action), cols, action),
                               check=False))
    return ChainComplex(ring, mods, diffs, check=False)


class SimplicialModule:
    """A simplicial module, canonically its normalized complex plus levels."""

    def __init__(self, normalized: ChainComplex, levels, cap: int):
        self.normalized = normalized
        self.levels = levels
        self.cap = cap

    @property
    def ring(self) -> RingSpec:
        return self.normalized.ring

    @property
    def top(self) -> int:
        return self.normalized.top

    def level_rank(self, n: int) -> int:
        return self.levels.rank(n)

    def __repr__(self) -> str:
        return f"SimplicialModule(top={self.top}, cap={self.cap})"


# a cap past the default C.top + 1 is refused once level cap of Gamma(C)
# would have more generators than this
MAX_CAP_GENERATORS = 256

# and once checking the simplicial identities through cap would take more
# steps than this.  Level n counts n^2 * (n * (summands + 1) + generators),
# its nonzero summands and generators counted as in `cap_problem`: the
# check pairs about n^2 operators there, and each pairing costs about n
# to name the operators, about n per summand and about one per generator.
# S^1 through 48 ran 51 s; the largest caps accepted take 0.6 to 0.8 s
# for 0, S^0, S^1, D^1, D^2 and S^3 (38, 32, 18, 18, 12, 11), 0.19 s for
# ranks (1, 2, 3, 2) through 8, and 1.4 s for Z^16 -> Z^16 with every
# entry of d nonzero through 15 (one run each, two shared vCPUs,
# Python 3.11).
MAX_CAP_STEPS = 600_000

# plain ez-aw is refused once a degree of N(A (x) B) would have more
# generators than this; the largest pair of fixtures/, D3 x D3 of
# disks_spheres.json, reaches 50.  For A = B a complex with one generator
# in each degree 0..4 and d_4 = 1, the largest degree has 260 generators
# and `ez-aw` takes 1.1 s; ranks (2, 2, 2, 2, 1) reach 470 and take 2.9 s
# with a peak RSS of 54 MB, ranks (1, 1, 1, 1, 2) reach 700 and take
# 7.6 s with 93 MB, and degrees 0..5 reach 1302 (one run each, two shared
# vCPUs, Python 3.11).
MAX_TENSOR_GENERATORS = 512


def gamma_level_rank(C: ChainComplex, n: int) -> int:
    """Generators of level n of Gamma(C), counted without building it."""
    return sum(comb(n, k) * C.module(k).generators for k in range(C.top + 1))


def cap_problem(C: ChainComplex, cap: int) -> str | None:
    """Why Gamma(C) may not be built through ``cap``, or None.

    The cap is at least the top degree.  Level n of Gamma(C) has
    sum_k binom(n, k) * rank C_k generators (one copy of C_k per
    surjection [n] -> [k]), in sum_k binom(n, k) summands over the
    nonzero C_k, so this builds no level.  The steps are summed only until
    they pass the bound, which a level n >= 1 adds at least n^3 to, so
    any cap costs a few dozen levels of arithmetic.
    """
    if cap < C.top:
        return "cap must be an integer >= the top degree"
    if cap <= C.top + 1:
        return None
    rank = gamma_level_rank(C, cap)
    if rank > MAX_CAP_GENERATORS:
        return (f"level {cap} would have {rank} generators, more than "
                f"{MAX_CAP_GENERATORS}")
    nonzero = [k for k in range(C.top + 1) if C.module(k).generators]
    steps = 0
    for n in range(cap + 1):
        summands = sum(comb(n, k) for k in nonzero)
        steps += n * n * (n * (summands + 1) + gamma_level_rank(C, n))
        if steps > MAX_CAP_STEPS:
            return (f"checking the simplicial identities through level "
                    f"{cap} would take more than {MAX_CAP_STEPS} steps")
    return None


def tensor_problem(A: SimplicialModule, B: SimplicialModule) -> str | None:
    """Why N(A (x) B) may not be built, or None.

    The count is ``pair_layout``'s rank of each degree of N(A (x) B), so
    this builds no level.
    """
    ranks_a, ranks_b = A.levels.shape()[0], B.levels.shape()[0]
    rank, n = max((pair_layout(ranks_a, ranks_b, n)[0], n)
                  for n in range(A.top + B.top + 1))
    if rank <= MAX_TENSOR_GENERATORS:
        return None
    return (f"degree {n} of N(A (x) B) would have {rank} generators, more "
            f"than {MAX_TENSOR_GENERATORS}")


def gamma(C: ChainComplex, cap: int | None = None, *,
          verify: bool = True) -> SimplicialModule:
    """Denormalization, its levels read lazily from C.

    With ``verify``, the simplicial identities hold as exact matrix
    identities through cap, and `normalize` gives C back in its
    presentation without zero relation columns.
    """
    if cap is None:
        cap = C.top + 1
    levels = GammaLevels(C)
    A = SimplicialModule(C, levels, cap)
    if verify:
        verify_simplicial_identities(levels, cap)
        if normalize(A) != without_zero_relations(C):
            raise CertificateError("denormalization failed to normalize back")
    return A


def without_zero_relations(C: ChainComplex) -> ChainComplex:
    """C with every relation column that is zero (mod m) dropped.

    The same complex, in the presentation the round trip through the
    plans gives it, since `relation_plan` lists only nonzero columns.
    Unchecked: the modules and differentials are C's, each module with
    the same relation span.
    """
    mods = [PresentedModule(C.ring, M.generators, M.relations.columns(
        [j for j in range(M.relations.cols)
         if any(row[j] for row in M.relations.data)])) for M in C.mods]
    diffs = [ModuleMap(mods[n], mods[n - 1], C.differential(n).action,
                       check=False) for n in range(1, C.top + 1)]
    return ChainComplex(C.ring, mods, diffs, check=False)


def normalize(A: SimplicialModule) -> ChainComplex:
    """The normalized complex of a denormalization, recomputed from the
    plans as N(A (x) c(R)): every position of c(R) is degenerate, so the
    non-degenerate pairs are A's identity summand at coordinates a * 1 + 0,
    and the plans give C_n's nonzero relation columns and C's
    differential.  c(R) is built unverified, as its round trip would
    come back here.
    """
    unit = gamma(unit_complex(A.ring), verify=False)
    return degreewise_tensor(A, unit).normalized


def degreewise_tensor(A: SimplicialModule,
                      B: SimplicialModule) -> SimplicialModule:
    """(A (x) B)_n = A_n (x) B_n with diagonal faces and degeneracies.

    A and B must be denormalizations: the tensor of every monoidal check
    is Gamma(C) (x) Gamma(D), normalized from the plans of its shape.
    """
    if A.ring != B.ring:
        raise ValueError("ring mismatch")
    if not (isinstance(A.levels, GammaLevels)
            and isinstance(B.levels, GammaLevels)):
        raise NotImplementedError(
            "degreewise tensors are built on denormalizations")
    levels = TensorLevels(A.levels, B.levels)
    top = A.top + B.top
    normalized = _planned_quotient(levels, top)
    return SimplicialModule(normalized, levels, top + 1)


class SimplicialMap:
    """A map of simplicial modules, canonically its normalized chain map."""

    def __init__(self, source: SimplicialModule, target: SimplicialModule,
                 normalized_map: ChainMap):
        if (normalized_map.source != source.normalized
                or normalized_map.target != target.normalized):
            raise ValueError("normalized map endpoints mismatch")
        self.source = source
        self.target = target
        self.normalized_map = normalized_map

    def __repr__(self) -> str:
        return f"SimplicialMap({self.normalized_map!r})"


def gamma_map(f: ChainMap, source: SimplicialModule | None = None,
              target: SimplicialModule | None = None) -> SimplicialMap:
    if source is None:
        source = gamma(f.source, verify=False)
    if target is None:
        target = gamma(f.target, verify=False)
    return SimplicialMap(source, target, f)


def tensor_normalized_map(f: SimplicialMap | None, g: SimplicialMap | None,
                          srcT: SimplicialModule, tgtT: SimplicialModule
                          ) -> ChainMap:
    """N(f (x) g) between degreewise tensors, read off the level maps; a
    factor given as None is the identity of its simplicial module.

    A chain map by construction: f (x) g is a simplicial map, and
    `tensor_normalized_parts` reads its non-degenerate block.
    """
    return ChainMap(srcT.normalized, tgtT.normalized,
                    tensor_normalized_parts(
                        None if f is None else f.normalized_map.parts,
                        None if g is None else g.normalized_map.parts,
                        srcT, tgtT), check=False)


def tensor_normalized_parts(f: Sequence[ModuleMap] | None,
                            g: Sequence[ModuleMap] | None,
                            srcT: SimplicialModule, tgtT: SimplicialModule
                            ) -> list[ModuleMap]:
    """The non-degenerate block of Gamma(f) (x) Gamma(g), degree by degree.

    ``f`` and ``g`` are graded maps between the normalized complexes of the
    factors of ``srcT`` and ``tgtT``, which are denormalizations; they
    need not commute with the differentials.  Gamma(f) and Gamma(g) act
    within each summand, so their level tensor keeps each coordinate's
    degeneracy positions: it maps degenerate coordinates to degenerate
    ones and non-degenerate pairs to non-degenerate pairs, and the
    non-degenerate block is the induced map of the quotients, well
    defined because the level relations are block diagonal over the
    summand pairs as well.  The blocks f_p (x) g_q come from the per-shape
    ``parts_plan``.  A factor given as None is the identity, of a
    complex that ``srcT`` and ``tgtT`` share.
    """
    src, tgt = srcT.levels, tgtT.levels
    ring = srcT.ring
    ranks = (src.A.shape()[0], src.B.shape()[0], tgt.A.shape()[0],
             tgt.B.shape()[0])
    terms: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    def term(side: int, k: int) -> list[tuple[int, int, int]]:
        if (side, k) not in terms:
            maps = g if side else f
            terms[side, k] = ([(a, a, 1) for a in range(ranks[side][k])]
                              if maps is None else _entries(maps[k].action))
        return terms[side, k]

    comps = []
    for n in range(max(srcT.top, tgtT.top) + 1):
        source = srcT.normalized.module(n)
        target = tgtT.normalized.module(n)
        action = [[0] * source.generators for _ in range(target.generators)]
        if n <= srcT.top:
            for k, k2, *place in parts_plan(*ranks, n):
                _add_block(action, 1, term(0, k), term(1, k2), *place)
        comps.append(ModuleMap(source, target,
                               Matrix(ring, target.generators,
                                      source.generators, action),
                               check=False))
    return comps


def constant_module(ring: RingSpec) -> SimplicialModule:
    """c(R), the tensor unit: every level is R."""
    return gamma(unit_complex(ring))


def interval_object(ring: RingSpec) -> SimplicialModule:
    """The simplicial interval, i.e. the denormalization of N(Z Delta^1)."""
    return gamma(interval(ring))


def end_inclusion(A: SimplicialModule, T: SimplicialModule, end: int
                  ) -> SimplicialMap:
    """iota_end : A -> A (x) interval at the vertex e0 or e1.

    T must be degreewise_tensor(A, interval_object(ring)); at level n the
    inclusion is a (x) s_0^n(e_end), the constant degeneracy of the vertex.
    """
    ring = A.ring
    comps = []
    for n in range(A.top + 1):
        # the constant summand sits first in each level of the interval,
        # with generators (e0, e1)
        gI = T.levels.B.rank(n)
        index = {r: t for t, r in enumerate(T.levels.nondegenerate_coords(n))}
        cols = A.levels.nondegenerate_coords(n)
        action = [[0] * len(cols) for _ in index]
        for j, a in enumerate(cols):
            t = index.get(a * gI + end)
            if t is not None:
                action[t][j] = 1
        comps.append(ModuleMap(A.normalized.module(n), T.normalized.module(n),
                               Matrix(ring, len(index), len(cols), action),
                               check=False))
    return SimplicialMap(A, T, ChainMap(A.normalized, T.normalized, comps))
