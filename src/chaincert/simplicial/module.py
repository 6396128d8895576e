"""Simplicial modules: the denormalization, normalization, and tensors.

The canonical representation of a simplicial module is its normalized
complex; levels are derived data.  Normalization reads off the
non-degenerate coordinates, which is valid because levels decompose as
normalized part plus the degenerate coordinate block.  The tests check
it against the intersection of the kernels of the positive faces and
against the canonical projector.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from ..chains.complexes import ChainComplex, ChainMap
from ..errors import CertificateError
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, PresentedModule
from ..exact.rings import RingSpec
from ..exact.snf import solve
from . import surjections as sj
from .levels import (GammaLevels, SparseRow, TensorLevels, sparse_columns,
                     verify_simplicial_identities)


def normalized_quotient(levels, top: int) -> ChainComplex:
    """Normalized complex on the non-degenerate coordinates.

    The degenerate coordinates span a subcomplex of the Moore complex, so
    the alternating face sum descends to the coordinate quotient; the
    descent condition is verified exactly during construction, on the
    degenerate columns of the Moore rows that are nonzero (a zero column
    always solves).  Only the rows of the levels at non-degenerate
    coordinates are built, sparse: the relations there and the Moore rows
    into them.

    Given the descent, the result is a complex by construction: the
    Moore differential squares to zero by the simplicial identities, the
    faces carry level relations into level relations, and the quotient's
    relations are the level relations read on the kept coordinates.
    """
    ring = levels.ring
    coords = [levels.nondegenerate_coords(n) for n in range(top + 1)]
    mods = [PresentedModule(ring, len(full), levels.relations_on(n, full))
            for n, full in enumerate(coords)]
    diffs: list[ModuleMap] = []
    for n in range(1, top + 1):
        moore: list[dict[int, int]] = [{} for _ in coords[n - 1]]
        for i in range(n + 1):
            sign = -1 if i % 2 else 1
            for acc, row in zip(moore, levels.operator_rows(
                    n, sj.coface(n, i), coords[n - 1])):
                for j, v in row:
                    acc[j] = acc.get(j, 0) + sign * v
        kept = {c: j for j, c in enumerate(coords[n])}
        action = [[0] * len(kept) for _ in moore]
        degenerate: dict[int, SparseRow] = {}
        for t, acc in enumerate(moore):
            for c, v in acc.items():
                j = kept.get(c)
                if j is not None:
                    action[t][j] = v
                elif ring.canon(v):
                    degenerate.setdefault(c, []).append((t, v))
        if degenerate and solve(mods[n - 1].relations, sparse_columns(
                ring, len(moore), degenerate)) is None:
            raise ValueError(f"degenerate part is not a subcomplex "
                             f"at level {n}")
        diffs.append(ModuleMap(mods[n], mods[n - 1],
                               Matrix(ring, len(moore), len(kept), action),
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


def gamma_level_rank(C: ChainComplex, n: int) -> int:
    """Generators of level n of Gamma(C), counted without building it."""
    return sum(comb(n, k) * C.module(k).generators for k in range(C.top + 1))


def cap_problem(C: ChainComplex, cap: int) -> str | None:
    """Why Gamma(C) may not be built through ``cap``, or None.

    The cap is at least the top degree.  Level n of Gamma(C) has
    sum_k binom(n, k) * rank C_k generators (one copy of C_k per
    surjection [n] -> [k]), so this builds no level.
    """
    if cap < C.top:
        return "cap must be an integer >= the top degree"
    if cap <= C.top + 1:
        return None
    rank = gamma_level_rank(C, cap)
    if rank <= MAX_CAP_GENERATORS:
        return None
    return (f"level {cap} would have {rank} generators, more than "
            f"{MAX_CAP_GENERATORS}")


def gamma(C: ChainComplex, cap: int | None = None, *,
          verify: bool = True) -> SimplicialModule:
    """Denormalization with levels materialized and verified through cap."""
    if cap is None:
        cap = C.top + 1
    levels = GammaLevels(C)
    if verify:
        verify_simplicial_identities(levels, cap)
        roundtrip = normalized_quotient(levels, C.top)
        if roundtrip != without_zero_relations(C):
            raise CertificateError("denormalization failed to normalize back")
    return SimplicialModule(C, levels, cap)


def without_zero_relations(C: ChainComplex) -> ChainComplex:
    """C with every relation column that is zero (mod m) dropped.

    The same complex, in the presentation the round trip through the
    levels gives it, since `GammaLevels.relations_on` drops zero columns.
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
    """Recompute the normalized complex from the level data."""
    return normalized_quotient(A.levels, A.normalized.top)


def degreewise_tensor(A: SimplicialModule,
                      B: SimplicialModule) -> SimplicialModule:
    """(A (x) B)_n = A_n (x) B_n with diagonal faces and degeneracies."""
    if A.ring != B.ring:
        raise ValueError("ring mismatch")
    levels = TensorLevels(A.levels, B.levels)
    top = A.top + B.top
    normalized = normalized_quotient(levels, top)
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


def gamma_level_columns(f: Sequence[ModuleMap], src: GammaLevels,
                        tgt: GammaLevels, n: int, coords
                        ) -> dict[int, SparseRow]:
    """The columns ``coords`` of Gamma(f) on level n, sparse.

    ``f[k]`` maps C_k to D_k for the complexes of ``src`` and ``tgt``;
    Gamma(f) acts by f[k] on every summand eta : [n] ->> [k], block
    diagonal because both levels list their summands in the same order.
    For a chain map f it is the level map of the simplicial map Gamma(f).
    """
    if not isinstance(src, GammaLevels) or not isinstance(tgt, GammaLevels):
        raise NotImplementedError(
            "level maps are read on denormalization levels")
    surj = sj.surjections(n)
    out: dict[int, SparseRow] = {}
    for c in coords:
        s, b = src.locate(n, c)
        action = f[sj.degree_of(surj[s])].action
        r0 = tgt.offset(n, s)
        out[c] = [(r0 + a, row[b]) for a, row in enumerate(action.data)
                  if row[b]]
    return out


def tensor_normalized_map(f: SimplicialMap, g: SimplicialMap,
                          srcT: SimplicialModule, tgtT: SimplicialModule
                          ) -> ChainMap:
    """N(f (x) g) between degreewise tensors, read off the level maps.

    A chain map by construction: f (x) g is a simplicial map, and
    `tensor_normalized_parts` reads its non-degenerate block.
    """
    return ChainMap(srcT.normalized, tgtT.normalized,
                    tensor_normalized_parts(f.normalized_map.parts,
                                            g.normalized_map.parts,
                                            srcT, tgtT), check=False)


def tensor_normalized_parts(f: Sequence[ModuleMap], g: Sequence[ModuleMap],
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
    summand pairs as well.
    """
    ring = srcT.ring
    src, tgt = srcT.levels, tgtT.levels
    comps = []
    for n in range(max(srcT.top, tgtT.top) + 1):
        rows = tgt.nondegenerate_coords(n)
        cols = src.nondegenerate_coords(n) if n <= srcT.top else []
        index = {r: t for t, r in enumerate(rows)}
        gb_src, gb_tgt = src.B.rank(n), tgt.B.rank(n)
        pairs = [divmod(c, gb_src) for c in cols]
        f_cols = gamma_level_columns(f, src.A, tgt.A, n,
                                     {a for a, _ in pairs})
        g_cols = gamma_level_columns(g, src.B, tgt.B, n,
                                     {b for _, b in pairs})
        action = [[0] * len(cols) for _ in rows]
        for j, (a, b) in enumerate(pairs):
            for ra, va in f_cols[a]:
                for rb, vb in g_cols[b]:
                    action[index[ra * gb_tgt + rb]][j] += va * vb
        comps.append(ModuleMap(srcT.normalized.module(n),
                               tgtT.normalized.module(n),
                               Matrix(ring, len(rows), len(cols), action),
                               check=False))
    return comps


def constant_module(ring: RingSpec) -> SimplicialModule:
    """c(R), the tensor unit: every level is R."""
    from ..chains.build import unit_complex

    return gamma(unit_complex(ring))


def interval_object(ring: RingSpec) -> SimplicialModule:
    """The simplicial interval, i.e. the denormalization of N(Z Delta^1)."""
    from ..chains.build import interval

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
