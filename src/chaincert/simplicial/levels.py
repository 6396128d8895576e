"""Level data for simplicial modules: structure maps as sparse rows.

Two level models cover every simplicial object in the package: the
denormalization Gamma(C) of a chain complex, and the levelwise tensor
Gamma(C) (x) Gamma(D) of two of them, the only tensor the package
builds.  A ``GammaLevels`` exposes, per level, the rows of a simplicial
operator and where a degeneracy sends a coordinate; EZ and AW are read
off that bookkeeping without building a whole level.  Both
normalizations are filled in from the per-shape plans below, N(Gamma(C))
as N(Gamma(C) (x) c(R)) (see ``simplicial/module.py``).

Level n of Gamma(C) is the direct sum, over the surjections
eta : [n] ->> [k], of C_k (Dold 1958; Goerss-Jardine, Simplicial
Homotopy Theory, III.2).  Such an eta is its jump set J, the k-subset of
{1..n} where its value goes up, so eta(x) counts the jumps <= x.  The
summands come in one order, k ascending and then J lexicographic, and
``nonzero_summands`` lists those whose C_k is nonzero; no other summand
holds a coordinate, and none is ever visited.

The combinatorics of Gamma(C) do not depend on C.  For alpha : [m] -> [n],
alpha^* sends the summand eta to the summand eta' of level m, where
eta o alpha = iota o eta' with iota injective: by the identity when iota
is onto, by the differential of C when iota misses exactly 0, and to
zero otherwise.  ``act`` reads that off J alone.  Let gap 0 be
{1..alpha(0)}, gap i be {alpha(i-1)+1..alpha(i)} for 1 <= i <= m, and
gap m+1 be {alpha(m)+1..n}.  Since eta o alpha(i) counts the jumps
<= alpha(i), it starts at the number of jumps in gap 0, goes up at i by
the number in gap i, and ends short of k by the number in gap m+1.  Its
image is all of [k] exactly when gaps 0 and m+1 hold no jump and no gap
holds two, and it is {1..k} exactly when instead gap 0 holds one jump.
Otherwise it misses a value other than 0: k when gap m+1 holds a jump,
or the value a gap of two or more jumps steps over.  In the two
surviving cases eta' goes up where eta o alpha does, so
J' = {i in 1..m : gap i holds a jump}.  A surjection sigma leaves gaps
0 and m+1 empty and no gap with two points, so sigma^* is an index map.

The degeneracy positions of a summand are the j with j + 1 not a jump,
where it lies in the image of s_j.  A pair of summands of the tensor is
non-degenerate when the two sets are disjoint (Eilenberg-Zilber).  Which
pairs those are, where each lands in the normalized basis and where each
face sends it depend only on the ranks of the C_k and D_k, so
``pair_layout``, ``face_plan``, ``relation_plan`` and ``parts_plan``
compile them once per shape into process-wide memos, and a case only
fills in the entries of its own differentials, relations and maps.  The
key is the factors' ``GammaLevels.shape()``: the rank of each C_k and
D_k, with the nonzero relation columns of each for ``relation_plan``
(zero columns are dropped), and the level n.

The descent check is part of compilation.  ``face_plan`` sums the face
terms sign * (X (x) Y), X the identity or d_p and Y the identity or d_q,
formally per pair of summands and per kind of term; a degenerate source
pair whose terms into a non-degenerate pair do not cancel to zero raises
``degenerate part is not a subcomplex at level n``.  When they cancel,
every degenerate column of the Moore rows into the non-degenerate pairs
is zero, whatever the entries of C and D, so the Moore differential
descends to the quotient for every C and D of that shape.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import lru_cache

from ..chains.complexes import ChainComplex
from . import surjections as sj

# a sparse matrix row: (column, entry) for each nonzero entry
SparseRow = list[tuple[int, int]]
# the shape of a Gamma(C): the rank of each C_k, and the nonzero columns
# of each C_k's relations
Shape = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]
# a summand of a level of Gamma(C): its jump set, ascending
Jumps = tuple[int, ...]


def act(alpha: tuple[int, ...], jumps: Jumps
        ) -> tuple[Jumps, bool] | None:
    """alpha^* on the summand with jump set ``jumps`` of any Gamma(C).

    ``alpha`` is the value tuple of an order-preserving map [m] -> [n].
    None when alpha^* kills the summand, else (jumps', via_d) when it
    sends it to the summand jumps' of level m by the differential (via_d)
    or by the identity; the module docstring proves the rule.
    """
    counts = [bisect_right(jumps, a) for a in alpha]
    # the jumps in gap 0, ..., gap m
    gaps = [b - a for a, b in zip([0] + counts, counts)]
    if counts[-1] < len(jumps) or max(gaps) > 1:
        return None
    return tuple(i for i in range(1, len(alpha)) if gaps[i]), gaps[0] == 1


class GammaLevels:
    """Levels of the denormalization of a bounded complex.

    Level n is the direct sum over the jump sets J of C_|J|, in the order
    of ``nonzero_summands``; the simplicial operators act as ``act``
    says.  That convention is the one for which degree n of the
    normalized complex is the identity summand and the face d_0 induces
    the differential.
    """

    def __init__(self, C: ChainComplex):
        self.C = C
        self.ring = C.ring
        # per level: the offset of each nonzero summand, and the summand
        # of each coordinate
        self._layouts: dict[int, tuple[dict[Jumps, int], list[Jumps]]] = {}
        self._rows: dict[tuple[int, tuple], list[SparseRow]] = {}
        self._shape: Shape | None = None

    def shape(self) -> Shape:
        """The key of the plans: the rank of each C_k, and the columns of
        each C_k's relations that are not zero."""
        if self._shape is None:
            mods = self.C.mods
            self._shape = (tuple(M.generators for M in mods),
                           tuple(tuple(j for j in range(M.relations.cols)
                                       if any(row[j]
                                              for row in M.relations.data))
                                 for M in mods))
        return self._shape

    def _layout(self, n: int) -> tuple[dict[Jumps, int], list[Jumps]]:
        if n not in self._layouts:
            ranks = self.shape()[0]
            offsets: dict[Jumps, int] = {}
            owner: list[Jumps] = []
            for jumps, k, _ in nonzero_summands(ranks, n):
                offsets[jumps] = len(owner)
                owner += [jumps] * ranks[k]
            self._layouts[n] = offsets, owner
        return self._layouts[n]

    def rank(self, n: int) -> int:
        return len(self._layout(n)[1])

    def operator_rows(self, n: int, alpha: tuple[int, ...],
                      rows) -> list[SparseRow]:
        """The rows ``rows`` of alpha^* : level n -> level m, sparse."""
        key = (n, alpha)
        if key not in self._rows:
            tgt_off, tgt_owner = self._layout(len(alpha) - 1)
            table: list[SparseRow] = [[] for _ in tgt_owner]
            for jumps, c0 in self._layout(n)[0].items():
                image = act(alpha, jumps)
                # d into a zero C_{k-1} holds no entry
                if image is None or image[0] not in tgt_off:
                    continue
                k, r0 = len(jumps), tgt_off[image[0]]
                if image[1]:
                    d = self.C.differential(k).action
                    for a, brow in enumerate(d.data):
                        table[r0 + a] += [(c0 + b, v)
                                          for b, v in enumerate(brow) if v]
                else:
                    for a in range(self.C.module(k).generators):
                        table[r0 + a].append((c0 + a, 1))
            self._rows[key] = table
        table = self._rows[key]
        return [table[r] for r in rows]

    def degenerate(self, n: int, sigma: tuple[int, ...], coords) -> list[int]:
        """Where sigma^* : level n -> level m sends the coordinates
        ``coords``, for a surjection sigma : [m] ->> [n]."""
        offsets, owner = self._layout(n)
        tgt_off = self._layout(len(sigma) - 1)[0]
        shift = {jumps: tgt_off[act(sigma, jumps)[0]] - offsets[jumps]
                 for jumps in {owner[c] for c in coords}}
        return [c + shift[owner[c]] for c in coords]

    def nondegenerate_coords(self, n: int) -> list[int]:
        """The identity summand, J = {1..n}, which comes last."""
        offsets, owner = self._layout(n)
        start = offsets.get(tuple(range(1, n + 1)), len(owner))
        return list(range(start, len(owner)))


class TensorLevels:
    """Levelwise tensor product Gamma(C)_n (x) Gamma(D)_n with diagonal
    structure maps.

    The coordinate (a, b) of level n is a * rank B_n + b, as in
    ``tensor_sum_module`` and ``Matrix.kron_blocks``.  Only
    ``degreewise_tensor`` builds one; its normalized complex and maps come
    from the plans below.
    """

    def __init__(self, A: GammaLevels, B: GammaLevels):
        self.A = A
        self.B = B
        self.ring = A.ring

    def rank(self, n: int) -> int:
        return self.A.rank(n) * self.B.rank(n)

    def nondegenerate_coords(self, n: int) -> list[int]:
        """The non-degenerate pairs of ``pair_layout``, ascending: the
        order of its normalized basis."""
        ranks_a, ranks_b = self.A.shape()[0], self.B.shape()[0]
        offsets_a, offsets_b = self.A._layout(n)[0], self.B._layout(n)[0]
        gb = self.B.rank(n)
        out: list[int] = []
        for s, k, _, _, partners in pair_layout(ranks_a, ranks_b, n)[1]:
            bs = [offsets_b[s2] + b for s2, k2, _ in partners
                  for b in range(ranks_b[k2])]
            for a in range(offsets_a[s], offsets_a[s] + ranks_a[k]):
                out += [a * gb + b for b in bs]
        return out


# -- plans for Gamma(C) (x) Gamma(D), one per shape and level --------------


@lru_cache(maxsize=None)
def nonzero_summands(ranks: tuple[int, ...], n: int
                     ) -> tuple[tuple[Jumps, int, int], ...]:
    """(jumps, k, mask) for each summand of level n of a Gamma(C) with
    ``ranks[k]`` = rank C_k > 0: jumps is its jump set, a k-subset of
    {1..n}, and bit j of mask is set when j + 1 is not a jump, its
    degeneracy positions.  In the order of the summands of a level; the
    summands of zero rank are never enumerated."""
    out = []
    for k in range(min(n + 1, len(ranks))):
        if ranks[k]:
            for jumps in itertools.combinations(range(1, n + 1), k):
                mask = (1 << n) - 1
                for x in jumps:
                    mask ^= 1 << (x - 1)
                out.append((jumps, k, mask))
    return tuple(out)


@lru_cache(maxsize=None)
def pair_layout(ranks_a: tuple[int, ...], ranks_b: tuple[int, ...], n: int
                ) -> tuple[int, tuple]:
    """The non-degenerate pairs of level n of Gamma(C) (x) Gamma(D).

    Returns (rank, groups): one group (jumps, k, start, stride, partners)
    per nonzero summand of Gamma(C) that has a partner, and partners holds
    (jumps2, k2, offset) for each nonzero summand of Gamma(D) whose
    degeneracy positions are disjoint from those of the first.  The pair
    of coordinate a of the one and b of the other is generator
    start + a * stride + offset + b of the normalized module, the order of
    a * rank B_n + b.
    """
    b_summands = nonzero_summands(ranks_b, n)
    groups = []
    start = 0
    for jumps, k, mask in nonzero_summands(ranks_a, n):
        partners = []
        stride = 0
        for jumps2, k2, mask2 in b_summands:
            if not mask & mask2:
                partners.append((jumps2, k2, stride))
                stride += ranks_b[k2]
        if stride:
            groups.append((jumps, k, start, stride, tuple(partners)))
            start += ranks_a[k] * stride
    return start, tuple(groups)


def _pair_index(groups: tuple) -> dict[tuple[Jumps, Jumps], tuple]:
    """(first generator, stride, k, k2) of each pair of summands."""
    return {(jumps, jumps2): (start + offset, stride, k, k2)
            for jumps, k, start, stride, partners in groups
            for jumps2, k2, offset in partners}


@lru_cache(maxsize=None)
def _face_preimages(ranks: tuple[int, ...], n: int
                    ) -> tuple[dict[Jumps, list[tuple[Jumps, bool]]], ...]:
    """Per face d_i of level n, the nonzero summands of level n it sends to
    each nonzero summand of level n - 1, with ``act``'s via_d.  Memoized
    like the plans: one Gamma(C) shape meets many partners."""
    targets = {jumps for jumps, _, _ in nonzero_summands(ranks, n - 1)}
    sources = nonzero_summands(ranks, n)
    out = []
    for i in range(n + 1):
        delta = sj.coface(n, i)
        preimages: dict[Jumps, list[tuple[Jumps, bool]]] = {}
        for jumps, _, _ in sources:
            image = act(delta, jumps)
            if image is not None and image[0] in targets:
                preimages.setdefault(image[0], []).append((jumps, image[1]))
        out.append(preimages)
    return tuple(out)


@lru_cache(maxsize=None)
def face_plan(ranks_a: tuple[int, ...], ranks_b: tuple[int, ...], n: int
              ) -> tuple[tuple, ...]:
    """The normalized differential from level n to n - 1 as blocks.

    Each block (c, k, via_d, k2, via_d2, row0, row_stride, col0,
    col_stride) is c times X (x) Y from a non-degenerate source pair to a
    non-degenerate target pair, X the differential d_k of C when via_d
    and the identity of C_k otherwise, Y likewise on D; entry (x, y) of
    X (x) Y sits at row row0 + x_row * row_stride + y_row and column
    col0 + x_col * col_stride + y_col.  c is the alternating sum over
    the faces that send the source pair to the target pair by that kind
    of term.  The terms from degenerate pairs must cancel, or this raises
    (see the module docstring).
    """
    source = _pair_index(pair_layout(ranks_a, ranks_b, n)[1])
    faces_a = _face_preimages(ranks_a, n)
    faces_b = _face_preimages(ranks_b, n)
    terms: dict[tuple, int] = {}
    for t, _, start, stride, partners in pair_layout(ranks_a, ranks_b,
                                                     n - 1)[1]:
        for t2, _, offset in partners:
            for i in range(n + 1):
                sign = -1 if i % 2 else 1
                for s, via in faces_a[i].get(t, ()):
                    for s2, via2 in faces_b[i].get(t2, ()):
                        key = (start + offset, stride, s, s2, via, via2)
                        terms[key] = terms.get(key, 0) + sign
    blocks = []
    for (row0, row_stride, s, s2, via, via2), c in terms.items():
        if not c:
            continue
        cell = source.get((s, s2))
        if cell is None:
            raise ValueError(f"degenerate part is not a subcomplex "
                             f"at level {n}")
        col0, col_stride, k, k2 = cell
        blocks.append((c, k, via, k2, via2, row0, row_stride, col0,
                       col_stride))
    return tuple(blocks)


@lru_cache(maxsize=None)
def relation_plan(shape_a: Shape, shape_b: Shape, n: int
                  ) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """The relation columns of level n of N(Gamma(C) (x) Gamma(D)).

    They are ``tensor_sum_module``'s relations of the level read on the
    non-degenerate pairs: first those of R_C (x) I, ordered by summand
    of Gamma(C), then column of its C_k's relations, then coordinate of
    Gamma(D); then those of I (x) R_D, ordered by coordinate of
    Gamma(C), then summand of Gamma(D), then column of its D_k's
    relations.  Each column (side, k, j, row, step, count) holds column
    j of the relations of C_k (side 0) or D_k (side 1): entry x of that
    column at row row + x * step, for x < count.  Only the nonzero
    columns of the factors' relations are listed, so no column of the
    result is zero.
    """
    (ranks_a, cols_a), (ranks_b, cols_b) = shape_a, shape_b
    left, right = [], []
    for _, k, start, stride, partners in pair_layout(ranks_a, ranks_b,
                                                     n)[1]:
        for j in cols_a[k]:
            for _, k2, offset in partners:
                for b in range(ranks_b[k2]):
                    left.append((0, k, j, start + offset + b, stride,
                                 ranks_a[k]))
        for a in range(ranks_a[k]):
            row = start + a * stride
            for _, k2, offset in partners:
                for j in cols_b[k2]:
                    right.append((1, k2, j, row + offset, 1, ranks_b[k2]))
    return tuple(left + right)


@lru_cache(maxsize=None)
def parts_plan(src_a: tuple[int, ...], src_b: tuple[int, ...],
               tgt_a: tuple[int, ...], tgt_b: tuple[int, ...], n: int
               ) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """Gamma(f) (x) Gamma(g) on the non-degenerate pairs of level n.

    Gamma(f) acts by f_k on every summand, so the pair of summands
    (s, s2) goes to the same pair, by f_k (x) g_k2.  One block (k, k2,
    row0, row_stride, col0, col_stride) per pair that is nonzero on both
    sides, placed as in ``face_plan``.
    """
    target = _pair_index(pair_layout(tgt_a, tgt_b, n)[1])
    blocks = []
    for s, k, start, stride, partners in pair_layout(src_a, src_b, n)[1]:
        for s2, k2, offset in partners:
            cell = target.get((s, s2))
            if cell is not None:
                blocks.append((k, k2, cell[0], cell[1], start + offset,
                               stride))
    return tuple(blocks)


def verify_simplicial_identities(levels, cap: int) -> None:
    """All simplicial identities as exact matrix identities through cap,
    each matrix a list of sparse rows."""
    ring = levels.ring

    def face(n: int, i: int) -> list[SparseRow]:
        return levels.operator_rows(n, sj.coface(n, i),
                                    range(levels.rank(n - 1)))

    def degeneracy(n: int, j: int) -> list[SparseRow]:
        rows: list[SparseRow] = [[] for _ in range(levels.rank(n + 1))]
        image = levels.degenerate(n, sj.codegeneracy(n, j),
                                  range(levels.rank(n)))
        for c, r in enumerate(image):
            rows[r].append((c, 1))
        return rows

    def product(left: list[SparseRow], right: list[SparseRow]
                ) -> list[dict[int, int]]:
        out = []
        for row in left:
            acc: dict[int, int] = {}
            for k, v in row:
                for j, w in right[k]:
                    acc[j] = acc.get(j, 0) + v * w
            out.append({j: x for j, x in
                        ((j, ring.canon(x)) for j, x in acc.items()) if x})
        return out

    for n in range(2, cap + 1):
        for i in range(n):
            for j in range(i + 1, n + 1):
                lhs = product(face(n - 1, i), face(n, j))
                rhs = product(face(n - 1, j - 1), face(n, i))
                if lhs != rhs:
                    raise ValueError(f"d_{i} d_{j} identity fails at level {n}")
    for n in range(cap - 1):
        for i in range(n + 2):
            for j in range(i, n + 1):
                lhs = product(degeneracy(n + 1, i), degeneracy(n, j))
                rhs = product(degeneracy(n + 1, j + 1), degeneracy(n, i))
                if lhs != rhs:
                    raise ValueError(f"s_{i} s_{j} identity fails at level {n}")
    for n in range(cap):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = product(face(n + 1, i), degeneracy(n, j))
                if i in (j, j + 1):
                    rhs = [{r: 1} for r in range(levels.rank(n))]
                elif i < j:
                    rhs = product(degeneracy(n - 1, j - 1), face(n, i))
                else:
                    rhs = product(degeneracy(n - 1, j), face(n, i - 1))
                if lhs != rhs:
                    raise ValueError(f"d_{i} s_{j} identity fails at level {n}")
