"""Level data for simplicial modules: structure maps as sparse rows.

Two level models cover every simplicial object in the package: the
denormalization of a chain complex (summands indexed by surjections) and
the levelwise tensor of two models.  Both expose, per level, which
generator coordinates are degenerate, the rows of a simplicial operator
and the relations on a chosen set of coordinates, and where a degeneracy
sends a coordinate; the normalized complex, EZ, AW and the tensor maps
are read off that bookkeeping without building a whole level.

The combinatorics of Gamma(C) do not depend on C.  ``operator_table``
lists, for a simplicial operator alpha : [m] -> [n], where alpha^* sends
each summand eta : [n] ->> [k] of level n: to the summand eta' of level
m, where eta o alpha = iota o eta', by the identity when iota is an
isomorphism, by the differential of C when iota misses exactly the bottom
element 0, and to zero otherwise.  It is one process-wide memo keyed on
(alpha, n), shared by every Gamma(C); a ``GammaLevels`` adds only C's own
blocks (the ranks of C_k, its differentials and relations) at the offsets
of the summands.  A degeneracy never meets the zero or differential case:
eta o sigma is onto, so sigma^* is an index map.

Coordinates are grouped by their degeneracy-position set, the positions
j at which they lie in the image of s_j.  In the denormalization a
coordinate of the eta summand has the non-jump positions of eta; in a
tensor the pair (a, b) has the intersection of the two sets, so the
non-degenerate pairs are those with disjoint sets (Eilenberg-Zilber).
"""

from __future__ import annotations

from functools import lru_cache

from ..chains.complexes import ChainComplex
from ..exact.matrix import Matrix
from ..exact.rings import RingSpec
from . import surjections as sj

# a sparse matrix row: (column, entry) for each nonzero entry
SparseRow = list[tuple[int, int]]


@lru_cache(maxsize=None)
def operator_table(alpha: tuple[int, ...], n: int
                   ) -> tuple[tuple[int, bool] | None, ...]:
    """alpha^* on the summands of level n of any Gamma(C).

    ``alpha`` is the value tuple of an order-preserving map [m] -> [n].
    Entry s is for the s-th surjection eta of ``surjections(n)``: None
    when alpha^* kills its summand, else (t, via_d) when alpha^* sends it
    to the t-th summand of level m by the differential (via_d) or by the
    identity.
    """
    index = {eta: t for t, eta in enumerate(sj.surjections(len(alpha) - 1))}
    out: list[tuple[int, bool] | None] = []
    for eta in sj.surjections(n):
        k = sj.degree_of(eta)
        eta2, image = sj.epi_mono_factor(sj.compose(eta, alpha))
        if len(image) == k + 1:
            out.append((index[eta2], False))
        elif image == tuple(range(1, k + 1)):
            out.append((index[eta2], True))
        else:
            out.append(None)
    return tuple(out)


def sparse_columns(ring: RingSpec, rows: int, columns: dict) -> Matrix:
    """The matrix with ``rows`` rows whose columns, in the order of their
    keys, hold the (row, entry) pairs of ``columns``."""
    order = sorted(columns)
    out = [[0] * len(order) for _ in range(rows)]
    for c, key in enumerate(order):
        for t, v in columns[key]:
            out[t][c] = v
    return Matrix(ring, rows, len(order), out)


class GammaLevels:
    """Levels of the denormalization of a bounded complex.

    Level n is the direct sum over surjections eta : [n] ->> [k] of C_k,
    in the order of ``surjections(n)``; the simplicial operators act as
    ``operator_table`` says.  That convention is the one for which degree
    n of the normalized complex is the identity summand and the face d_0
    induces the differential.
    """

    def __init__(self, C: ChainComplex):
        self.C = C
        self.ring = C.ring
        # per level: summand offsets, the summand of each coordinate, and
        # (degeneracy positions, coordinates) of each nonzero summand
        self._layouts: dict[int, tuple[list[int], list[int], list]] = {}
        self._rows: dict[tuple[int, tuple], list[SparseRow]] = {}

    def _layout(self, n: int) -> tuple[list[int], list[int], list]:
        if n not in self._layouts:
            offsets: list[int] = []
            owner: list[int] = []
            groups: list[tuple[frozenset[int], range]] = []
            for s, eta in enumerate(sj.surjections(n)):
                pos = len(owner)
                g = self.C.module(sj.degree_of(eta)).generators
                offsets.append(pos)
                owner += [s] * g
                if g:
                    groups.append((frozenset(j for j in range(n)
                                             if eta[j] == eta[j + 1]),
                                   range(pos, pos + g)))
            self._layouts[n] = offsets, owner, groups
        return self._layouts[n]

    def rank(self, n: int) -> int:
        return len(self._layout(n)[1])

    def locate(self, n: int, c: int) -> tuple[int, int]:
        """(summand index, coordinate within the summand) of coordinate c."""
        offsets, owner, _ = self._layout(n)
        s = owner[c]
        return s, c - offsets[s]

    def offset(self, n: int, s: int) -> int:
        return self._layout(n)[0][s]

    def operator_rows(self, n: int, alpha: tuple[int, ...],
                      rows) -> list[SparseRow]:
        """The rows ``rows`` of alpha^* : level n -> level m, sparse."""
        key = (n, alpha)
        if key not in self._rows:
            src_off = self._layout(n)[0]
            tgt_off, tgt_owner, _ = self._layout(len(alpha) - 1)
            table: list[SparseRow] = [[] for _ in tgt_owner]
            surj = sj.surjections(n)
            for s, entry in enumerate(operator_table(alpha, n)):
                if entry is None:
                    continue
                t, via_d = entry
                k = sj.degree_of(surj[s])
                c0, r0 = src_off[s], tgt_off[t]
                if via_d:
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
        table = operator_table(sigma, n)
        offsets, owner, _ = self._layout(n)
        tgt_off = self._layout(len(sigma) - 1)[0]
        return [tgt_off[table[owner[c]][0]] + c - offsets[owner[c]]
                for c in coords]

    def relations_on(self, n: int, rows: list[int]) -> Matrix:
        """Level n's relations on the coordinates ``rows``, zero columns
        dropped: those of each summand's C_k, summands in order."""
        offsets, owner, _ = self._layout(n)
        surj = sj.surjections(n)
        columns: dict[tuple, SparseRow] = {}
        for t, r in enumerate(rows):
            s = owner[r]
            rel = self.C.module(sj.degree_of(surj[s])).relations
            for j, v in enumerate(rel.data[r - offsets[s]]):
                if v:
                    columns.setdefault((s, j), []).append((t, v))
        return sparse_columns(self.ring, len(rows), columns)

    def degeneracy_groups(self, n: int
                          ) -> list[tuple[frozenset[int], range]]:
        """(degeneracy positions, coordinates) for each nonzero summand,
        in ascending coordinate order."""
        return self._layout(n)[2]

    def nondegenerate_coords(self, n: int) -> list[int]:
        """The identity summand, which ``surjections(n)`` lists last."""
        offsets, owner, _ = self._layout(n)
        return list(range(offsets[-1], len(owner)))


class TensorLevels:
    """Levelwise tensor product A_n (x) B_n with diagonal structure maps.

    The coordinate (a, b) of level n is a * rank B_n + b, as in
    ``tensor_module`` and ``Matrix.kron``.
    """

    def __init__(self, A, B):
        if A.ring != B.ring:
            raise ValueError("ring mismatch")
        self.A = A
        self.B = B
        self.ring = A.ring
        self._groups: dict[int, list[tuple[frozenset[int], list[int]]]] = {}
        self._nondegenerate: dict[int, list[int]] = {}

    def rank(self, n: int) -> int:
        return self.A.rank(n) * self.B.rank(n)

    def operator_rows(self, n: int, alpha: tuple[int, ...],
                      rows) -> list[SparseRow]:
        """Rows of alpha^* (x) alpha^*, each the product of two sparse
        rows."""
        gb_src, gb_tgt = self.B.rank(n), self.B.rank(len(alpha) - 1)
        pairs = [divmod(r, gb_tgt) for r in rows]
        a_idx = sorted({a for a, _ in pairs})
        b_idx = sorted({b for _, b in pairs})
        a_rows = dict(zip(a_idx, self.A.operator_rows(n, alpha, a_idx)))
        b_rows = dict(zip(b_idx, self.B.operator_rows(n, alpha, b_idx)))
        return [[(ca * gb_src + cb, va * vb)
                 for ca, va in a_rows[a] for cb, vb in b_rows[b]]
                for a, b in pairs]

    def degenerate(self, n: int, sigma: tuple[int, ...], coords) -> list[int]:
        """Where sigma^* (x) sigma^* sends the coordinates ``coords``."""
        gb_src, gb_tgt = self.B.rank(n), self.B.rank(len(sigma) - 1)
        pairs = [divmod(c, gb_src) for c in coords]
        a_img = self.A.degenerate(n, sigma, [a for a, _ in pairs])
        b_img = self.B.degenerate(n, sigma, [b for _, b in pairs])
        return [x * gb_tgt + y for x, y in zip(a_img, b_img)]

    def relations_on(self, n: int, rows: list[int]) -> Matrix:
        """``tensor_module``'s relations on the coordinates ``rows``.

        The columns keep its order, those of R_A (x) I before those of
        I (x) R_B, and the ones that vanish on ``rows`` are dropped.  A
        column of R_A (or R_B) that vanishes on every a (or b) of ``rows``
        only gives such columns, so the factors are restricted first.
        """
        gb = self.B.rank(n)
        pairs = [divmod(r, gb) for r in rows]
        a_idx = sorted({a for a, _ in pairs})
        b_idx = sorted({b for _, b in pairs})
        a_rel = dict(zip(a_idx, self.A.relations_on(n, a_idx).data))
        b_rel = dict(zip(b_idx, self.B.relations_on(n, b_idx).data))
        columns: dict[tuple, SparseRow] = {}
        for t, (a, b) in enumerate(pairs):
            for j, v in enumerate(a_rel[a]):
                if v:
                    columns.setdefault((0, j, b), []).append((t, v))
            for k, v in enumerate(b_rel[b]):
                if v:
                    columns.setdefault((1, a, k), []).append((t, v))
        return sparse_columns(self.ring, len(rows), columns)

    def degeneracy_groups(self, n: int
                          ) -> list[tuple[frozenset[int], list[int]]]:
        """The coordinates grouped by degeneracy positions, each group
        ascending; read when this tensor is a factor of another."""
        if n not in self._groups:
            gb = self.B.rank(n)
            merged: dict[frozenset[int], list[int]] = {}
            for sa, a_coords in self.A.degeneracy_groups(n):
                for sb, b_coords in self.B.degeneracy_groups(n):
                    merged.setdefault(sa & sb, []).extend(
                        a * gb + b for a in a_coords for b in b_coords)
            self._groups[n] = [(s, sorted(c)) for s, c in merged.items()]
        return self._groups[n]

    def nondegenerate_coords(self, n: int) -> list[int]:
        """The pairs with disjoint degeneracy positions, ascending.

        Cached per level; callers only read the list.
        """
        if n not in self._nondegenerate:
            gb = self.B.rank(n)
            b_groups = self.B.degeneracy_groups(n)
            out: list[int] = []
            for sa, a_coords in self.A.degeneracy_groups(n):
                bs = sorted(b for sb, b_coords in b_groups if not sa & sb
                            for b in b_coords)
                out += [a * gb + b for a in a_coords for b in bs]
            out.sort()
            self._nondegenerate[n] = out
        return self._nondegenerate[n]


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
