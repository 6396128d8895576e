"""Level data for simplicial modules: faces, degeneracies, coordinates.

Two level models cover every simplicial object in the package: the
denormalization of a chain complex (summands indexed by surjections) and
the levelwise tensor of two models.  Both expose, per level, which
generator coordinates are degenerate, and the rows of the faces and the
relations on a chosen set of coordinates; the normalized complex falls
out of that bookkeeping without building a whole tensor level.

Coordinates are grouped by their degeneracy-position set, the positions
j at which they lie in the image of s_j.  In the denormalization a
coordinate of the eta summand has the non-jump positions of eta; in a
tensor the pair (a, b) has the intersection of the two sets, so the
non-degenerate pairs are those with disjoint sets (Eilenberg-Zilber).
"""

from __future__ import annotations

from ..chains.complexes import ChainComplex
from ..exact.matrix import Matrix
from ..exact.modules import (PresentedModule, _drop_zero_columns,
                             direct_sum_module, tensor_module)
from . import surjections as sj

# a sparse matrix row: (column, entry) for each nonzero entry
SparseRow = list[tuple[int, int]]


class GammaLevels:
    """Levels of the denormalization of a bounded complex.

    Level n is the direct sum over surjections eta : [n] ->> [k] of C_k;
    the simplicial operator alpha sends the eta summand into the
    (eta o alpha = iota o eta') summand by the identity when iota is an
    isomorphism, by the differential when iota misses exactly the bottom
    element 0, and by zero otherwise.  That convention is the one for
    which degree n of the normalized complex is the identity summand and
    the face d_0 induces the differential.
    """

    def __init__(self, C: ChainComplex):
        self.C = C
        self.ring = C.ring
        self._mods: dict[int, PresentedModule] = {}
        self._offsets: dict[int, dict[tuple, int]] = {}
        self._positions: dict[int, list[frozenset[int]]] = {}
        self._groups: dict[int, list[tuple[frozenset[int], range]]] = {}
        self._ops: dict[tuple, Matrix] = {}
        self._face_rows: dict[tuple[int, int], list[SparseRow]] = {}

    def summands(self, n: int) -> tuple[tuple, ...]:
        return sj.surjections(n)

    def module(self, n: int) -> PresentedModule:
        """Level n, recording each coordinate's degeneracy positions."""
        if n not in self._mods:
            offsets: dict[tuple, int] = {}
            positions: list[frozenset[int]] = []
            groups: list[tuple[frozenset[int], range]] = []
            blocks = []
            for eta in self.summands(n):
                block = self.C.module(sj.degree_of(eta))
                at = frozenset(j for j in range(n) if eta[j] == eta[j + 1])
                pos = len(positions)
                offsets[eta] = pos
                if block.generators:
                    groups.append((at, range(pos, pos + block.generators)))
                positions += [at] * block.generators
                blocks.append(block)
            self._mods[n] = direct_sum_module(self.ring, blocks)
            self._offsets[n] = offsets
            self._positions[n] = positions
            self._groups[n] = groups
        return self._mods[n]

    def rank(self, n: int) -> int:
        return self.module(n).generators

    def offsets(self, n: int) -> dict[tuple, int]:
        self.module(n)
        return self._offsets[n]

    def _blocks(self, n: int, alpha: tuple[int, ...], m: int):
        """(row offset, column offset, block) of each nonzero summand
        block of alpha^* : level n -> level m."""
        src_off = self.offsets(n)
        tgt_off = self.offsets(m)
        for eta in self.summands(n):
            k = sj.degree_of(eta)
            g = self.C.module(k).generators
            if g == 0:
                continue
            eta2, image = sj.epi_mono_factor(sj.compose(eta, alpha))
            if len(image) == k + 1:
                block = Matrix.identity(self.ring, g)
            elif len(image) == k and image == tuple(range(1, k + 1)):
                block = self.C.differential(k).action
            else:
                continue
            yield tgt_off[eta2], src_off[eta], block

    def _structure_matrix(self, n: int, alpha: tuple[int, ...], m: int) -> Matrix:
        """alpha^* : level n -> level m for alpha : [m] -> [n]."""
        key = (n, alpha, m)
        if key in self._ops:
            return self._ops[key]
        rows = [[0] * self.rank(n) for _ in range(self.rank(m))]
        for r0, c0, block in self._blocks(n, alpha, m):
            for a, brow in enumerate(block.data):
                rows[r0 + a][c0:c0 + block.cols] = brow
        out = Matrix(self.ring, self.rank(m), self.rank(n), rows)
        self._ops[key] = out
        return out

    def face(self, n: int, i: int) -> Matrix:
        return self._structure_matrix(n, sj.coface(n, i), n - 1)

    def degeneracy(self, n: int, j: int) -> Matrix:
        return self._structure_matrix(n, sj.codegeneracy(n, j), n + 1)

    def face_rows(self, n: int, i: int, rows: list[int]) -> list[SparseRow]:
        """The rows ``rows`` of d_i : level n -> level n - 1, sparse."""
        key = (n, i)
        if key not in self._face_rows:
            table: list[SparseRow] = [[] for _ in range(self.rank(n - 1))]
            for r0, c0, block in self._blocks(n, sj.coface(n, i), n - 1):
                for a, brow in enumerate(block.data):
                    table[r0 + a] += [(c0 + b, v) for b, v in enumerate(brow)
                                      if v]
            self._face_rows[key] = table
        table = self._face_rows[key]
        return [table[r] for r in rows]

    def relations_on(self, n: int, rows: list[int]) -> Matrix:
        """Level n's relations on the coordinates ``rows``, zero columns
        dropped."""
        rel = self.module(n).relations
        return _drop_zero_columns(rel.submatrix(rows, range(rel.cols)))

    def degeneracy_positions(self, n: int, idx: int) -> frozenset[int]:
        self.module(n)
        return self._positions[n][idx]

    def degeneracy_groups(self, n: int
                          ) -> list[tuple[frozenset[int], range]]:
        """(degeneracy positions, coordinates) for each nonzero summand,
        in ascending coordinate order."""
        self.module(n)
        return self._groups[n]

    def nondegenerate_coords(self, n: int) -> list[int]:
        off = self.offsets(n)[sj.from_jumps(n, tuple(range(1, n + 1)))]
        return list(range(off, off + self.C.module(n).generators))


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
        self._mods: dict[int, PresentedModule] = {}
        self._groups: dict[int, list[tuple[frozenset[int], list[int]]]] = {}
        self._nondegenerate: dict[int, list[int]] = {}

    def module(self, n: int) -> PresentedModule:
        if n not in self._mods:
            self._mods[n] = tensor_module(self.A.module(n), self.B.module(n))
        return self._mods[n]

    def rank(self, n: int) -> int:
        return self.A.rank(n) * self.B.rank(n)

    def face(self, n: int, i: int) -> Matrix:
        return self.A.face(n, i).kron(self.B.face(n, i))

    def degeneracy(self, n: int, j: int) -> Matrix:
        return self.A.degeneracy(n, j).kron(self.B.degeneracy(n, j))

    def face_rows(self, n: int, i: int, rows: list[int]) -> list[SparseRow]:
        """Rows of d_i (x) d_i, each the product of two sparse rows."""
        gb_src, gb_tgt = self.B.rank(n), self.B.rank(n - 1)
        pairs = [divmod(r, gb_tgt) for r in rows]
        a_idx = sorted({a for a, _ in pairs})
        b_idx = sorted({b for _, b in pairs})
        a_rows = dict(zip(a_idx, self.A.face_rows(n, i, a_idx)))
        b_rows = dict(zip(b_idx, self.B.face_rows(n, i, b_idx)))
        return [[(ca * gb_src + cb, va * vb)
                 for ca, va in a_rows[a] for cb, vb in b_rows[b]]
                for a, b in pairs]

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
        columns: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
        for t, (a, b) in enumerate(pairs):
            for j, v in enumerate(a_rel[a]):
                if v:
                    columns.setdefault((0, j, b), []).append((t, v))
            for k, v in enumerate(b_rel[b]):
                if v:
                    columns.setdefault((1, a, k), []).append((t, v))
        order = sorted(columns)
        out = [[0] * len(order) for _ in rows]
        for c, key in enumerate(order):
            for t, v in columns[key]:
                out[t][c] = v
        return Matrix(self.ring, len(rows), len(order), out)

    def degeneracy_positions(self, n: int, idx: int) -> frozenset[int]:
        a, b = divmod(idx, self.B.rank(n))
        return (self.A.degeneracy_positions(n, a)
                & self.B.degeneracy_positions(n, b))

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


def moore_rows(levels, n: int, rows: list[int]) -> Matrix:
    """The rows ``rows`` of the alternating face sum at level n."""
    g = levels.rank(n)
    out = [[0] * g for _ in rows]
    for i in range(n + 1):
        sign = -1 if i % 2 else 1
        for acc, row in zip(out, levels.face_rows(n, i, rows)):
            for j, v in row:
                acc[j] += sign * v
    return Matrix(levels.ring, len(rows), g, out)


def verify_simplicial_identities(levels, cap: int) -> None:
    """All simplicial identities as exact matrix identities through cap."""
    for n in range(2, cap + 1):
        for i in range(n):
            for j in range(i + 1, n + 1):
                lhs = levels.face(n - 1, i) @ levels.face(n, j)
                rhs = levels.face(n - 1, j - 1) @ levels.face(n, i)
                if lhs != rhs:
                    raise ValueError(f"d_{i} d_{j} identity fails at level {n}")
    for n in range(cap - 1):
        for i in range(n + 2):
            for j in range(i, n + 1):
                lhs = levels.degeneracy(n + 1, i) @ levels.degeneracy(n, j)
                rhs = levels.degeneracy(n + 1, j + 1) @ levels.degeneracy(n, i)
                if lhs != rhs:
                    raise ValueError(f"s_{i} s_{j} identity fails at level {n}")
    for n in range(cap):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = levels.face(n + 1, i) @ levels.degeneracy(n, j)
                if i in (j, j + 1):
                    rhs = Matrix.identity(levels.ring,
                                          levels.module(n).generators)
                elif i < j:
                    rhs = levels.degeneracy(n - 1, j - 1) @ levels.face(n, i)
                else:
                    rhs = levels.degeneracy(n - 1, j) @ levels.face(n, i - 1)
                if lhs != rhs:
                    raise ValueError(f"d_{i} s_{j} identity fails at level {n}")
