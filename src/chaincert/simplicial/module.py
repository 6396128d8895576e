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
from .levels import (GammaLevels, SparseRow, TensorLevels, face_plan,
                     pair_layout, parts_plan, relation_plan, sparse_columns,
                     verify_simplicial_identities)


def normalized_quotient(levels: GammaLevels, top: int) -> ChainComplex:
    """Normalized complex of Gamma(C) on the non-degenerate coordinates.

    The degenerate coordinates span a subcomplex of the Moore complex, so
    the alternating face sum descends to the coordinate quotient; the
    descent condition is verified exactly during construction, on the
    degenerate columns of the Moore rows that are nonzero (a zero column
    always solves).  Only the rows of the levels at non-degenerate
    coordinates are built, sparse: the relations there and the Moore rows
    into them.  The tensor Gamma(C) (x) Gamma(D) is normalized from its
    plans instead (``degreewise_tensor``).

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
    summand pairs as well.  The blocks f_p (x) g_q come from the per-shape
    ``parts_plan``.
    """
    src, tgt = srcT.levels, tgtT.levels
    ring = srcT.ring
    ranks = (src.A.shape()[0], src.B.shape()[0], tgt.A.shape()[0],
             tgt.B.shape()[0])
    terms: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    def term(side: int, k: int) -> list[tuple[int, int, int]]:
        if (side, k) not in terms:
            terms[side, k] = _entries((g if side else f)[k].action)
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
