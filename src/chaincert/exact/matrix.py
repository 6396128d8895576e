"""Dense exact matrices over a RingSpec.

Matrices are immutable after construction and carry their ring so that
entries stay canonical (reduced mod m for Z/m).  The one mutable slot,
``smith``, is a memo computed from the entries: ``snf`` stores the
matrix's Smith form there the first time it factors the matrix, and
equality and hashing ignore it.  Shapes with zero rows or columns are
first-class citizens: most of the graded constructions downstream
produce them constantly.

Canonical by construction.  ``Matrix(ring, rows, cols, entries)`` is the
constructor for data from outside: it checks the shape, copies every row
into a tuple and reduces every entry mod m.  Matrix's own operations and
the kernel in ``exact/`` produce entries that are canonical already, so
they wrap their finished tuples with ``_from_canonical``, which checks
nothing.  Over Z/m the rule is: an operation whose result can leave
[0, m) (``+``, ``-``, negation, ``scale``, ``@``, ``kron_blocks``) reduces
each entry once before it wraps, and an operation that only moves or copies
canonical entries (``transpose``, ``hstack``, ``vstack``, ``submatrix``,
``vec``, ``unvec``, ``block_diagonal``, ``assemble``, ``hstack_all``,
``vstack_all``, ``identity``, ``zero``) never reduces.
``kron_blocks`` is the one Kronecker product: it writes sums of
c (A kron B) into the blocks of one matrix, with identity factors given
by their size, and A kron B alone is its one-term case.
Over Z every integer is canonical.  Operations that combine matrices
require one ring; rings are interned (see ``rings.py``), so that check
is usually a pointer compare.
``_from_canonical`` is private to ``exact/``: code outside it builds
matrices with the public constructor or with these operations.  Each
row is built as a list and turned into a tuple from that list, which
sizes the tuple exactly.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Iterable, Sequence

from .rings import RingSpec

_new = object.__new__


class Matrix:
    __slots__ = ("ring", "rows", "cols", "data", "smith")

    def __init__(self, ring: RingSpec, rows: int, cols: int,
                 entries: Sequence[Sequence[int]] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        if entries is None:
            data = ((0,) * cols,) * rows
        else:
            if len(entries) != rows:
                raise ValueError(f"expected {rows} rows, got {len(entries)}")
            modulus = ring.modulus
            data = []
            for r in entries:
                if len(r) != cols:
                    raise ValueError(f"expected {cols} cols, got {len(r)}")
                if modulus is None:
                    data.append(tuple(r))
                else:
                    data.append(tuple([x % modulus for x in r]))
            data = tuple(data)
        self.data = data
        self.smith = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "Matrix":
        if n < 0:
            raise ValueError("negative matrix shape")
        zeros = [0] * n
        out = []
        for i in range(n):
            row = zeros.copy()
            row[i] = 1
            out.append(tuple(row))
        return _from_canonical(ring, n, n, tuple(out))

    @staticmethod
    def zero(ring: RingSpec, rows: int, cols: int) -> "Matrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        return _from_canonical(ring, rows, cols, ((0,) * cols,) * rows)

    # -- basic queries ------------------------------------------------

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.data[i][j]

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Matrix)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.rows == other.rows and self.cols == other.cols
            and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.ring, self.rows, self.cols, self.data))

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def is_identity(self) -> bool:
        return (self.rows == self.cols
                and all(self.data[i][j] == (1 if i == j else 0)
                        for i in range(self.rows) for j in range(self.cols)))

    def __repr__(self) -> str:
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {self.to_lists()})"

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    # -- arithmetic ---------------------------------------------------

    def _same_ring(self, other: "Matrix") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")

    def _same_shape(self, other: "Matrix") -> None:
        self._same_ring(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs "
                             f"{other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        m = self.ring.modulus
        if m is None:
            data = [tuple([a + b for a, b in zip(ra, rb)])
                    for ra, rb in zip(self.data, other.data)]
        else:
            data = [tuple([(a + b) % m for a, b in zip(ra, rb)])
                    for ra, rb in zip(self.data, other.data)]
        return _from_canonical(self.ring, self.rows, self.cols, tuple(data))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        m = self.ring.modulus
        if m is None:
            data = [tuple([a - b for a, b in zip(ra, rb)])
                    for ra, rb in zip(self.data, other.data)]
        else:
            data = [tuple([(a - b) % m for a, b in zip(ra, rb)])
                    for ra, rb in zip(self.data, other.data)]
        return _from_canonical(self.ring, self.rows, self.cols, tuple(data))

    def __neg__(self) -> "Matrix":
        m = self.ring.modulus
        if m is None:
            data = [tuple([-a for a in row]) for row in self.data]
        else:
            data = [tuple([-a % m for a in row]) for row in self.data]
        return _from_canonical(self.ring, self.rows, self.cols, tuple(data))

    def scale(self, c: int) -> "Matrix":
        m = self.ring.modulus
        if m is None:
            data = [tuple([c * a for a in row]) for row in self.data]
        else:
            data = [tuple([c * a % m for a in row]) for row in self.data]
        return _from_canonical(self.ring, self.rows, self.cols, tuple(data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._same_ring(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        m = self.ring.modulus
        ocols = other.cols
        odata = other.data
        out = []
        for row in self.data:
            acc = [0] * ocols
            for k, a in enumerate(row):
                if a == 0:
                    continue
                orow = odata[k]
                for j in range(ocols):
                    acc[j] += a * orow[j]
            out.append(tuple(acc) if m is None else tuple([x % m for x in acc]))
        return _from_canonical(self.ring, self.rows, ocols, tuple(out))

    def transpose(self) -> "Matrix":
        data = list(zip(*self.data)) if self.rows else [()] * self.cols
        return _from_canonical(self.ring, self.cols, self.rows, tuple(data))

    # -- block and slicing helpers -------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        self._same_ring(other)
        if self.rows != other.rows:
            raise ValueError("hstack shape mismatch")
        data = [a + b for a, b in zip(self.data, other.data)]
        return _from_canonical(self.ring, self.rows, self.cols + other.cols,
                               tuple(data))

    def vstack(self, other: "Matrix") -> "Matrix":
        self._same_ring(other)
        if self.cols != other.cols:
            raise ValueError("vstack shape mismatch")
        return _from_canonical(self.ring, self.rows + other.rows, self.cols,
                               self.data + other.data)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        ri = list(row_idx)
        ci = list(col_idx)
        data = self.data
        if len(ci) == self.cols and ci == list(range(self.cols)):
            out = [data[i] for i in ri]
        else:
            out = [tuple([row[j] for j in ci]) for row in [data[i] for i in ri]]
        return _from_canonical(self.ring, len(ri), len(ci), tuple(out))

    def columns(self, idx: Iterable[int]) -> "Matrix":
        return self.submatrix(range(self.rows), idx)

    def column_at(self, j: int) -> "Matrix":
        return self.columns([j])

    def vec(self) -> "Matrix":
        """Column-major vectorization (stack columns)."""
        data = self.data
        out = [(data[i][j],) for j in range(self.cols) for i in range(self.rows)]
        return _from_canonical(self.ring, self.rows * self.cols, 1, tuple(out))

    @staticmethod
    def unvec(ring: RingSpec, v: "Matrix", rows: int, cols: int) -> "Matrix":
        if v.ring is not ring and v.ring != ring:
            raise ValueError("ring mismatch")
        if v.cols != 1 or v.rows != rows * cols:
            raise ValueError("unvec shape mismatch")
        vd = v.data
        out = [tuple([vd[j * rows + i][0] for j in range(cols)])
               for i in range(rows)]
        return _from_canonical(ring, rows, cols, tuple(out))

    @staticmethod
    def block_diagonal(ring: RingSpec, blocks: Sequence["Matrix"]) -> "Matrix":
        if any(b.ring is not ring and b.ring != ring for b in blocks):
            raise ValueError("ring mismatch")
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = []
        c0 = 0
        for b in blocks:
            left = (0,) * c0
            right = (0,) * (cols - c0 - b.cols)
            out += [left + row + right for row in b.data]
            c0 += b.cols
        return _from_canonical(ring, rows, cols, tuple(out))

    @staticmethod
    def assemble(ring: RingSpec, row_sizes: Sequence[int], col_sizes: Sequence[int],
                 blocks: dict[tuple[int, int], "Matrix"]) -> "Matrix":
        """Assemble a block matrix from a sparse dict of blocks."""
        rows = sum(row_sizes)
        cols = sum(col_sizes)
        roff = [0]
        for s in row_sizes:
            roff.append(roff[-1] + s)
        coff = [0]
        for s in col_sizes:
            coff.append(coff[-1] + s)
        out = [[0] * cols for _ in range(rows)]
        for (bi, bj), blk in blocks.items():
            if blk.rows != row_sizes[bi] or blk.cols != col_sizes[bj]:
                raise ValueError(f"block ({bi},{bj}) has wrong shape")
            if blk.ring is not ring and blk.ring != ring:
                raise ValueError("ring mismatch")
            r0, c0 = roff[bi], coff[bj]
            c1 = c0 + blk.cols
            for i, brow in enumerate(blk.data):
                out[r0 + i][c0:c1] = brow
        return _from_canonical(ring, rows, cols,
                               tuple([tuple(row) for row in out]))

    @staticmethod
    def kron_blocks(ring: RingSpec, row_sizes: Sequence[int],
                    col_sizes: Sequence[int],
                    terms: Iterable[tuple[int, int, int, "Matrix | int",
                                          "Matrix | int"]]) -> "Matrix":
        """The block matrix whose block (bi, bj) is the sum of c (A kron B)
        over the terms (bi, bj, c, A, B); blocks no term names are zero.

        A or B may be an int n, which stands for the identity I_n, so no
        identity matrix is built.  Entry (i, j) of A and (k, l) of B meet
        at (i * B.rows + k, j * B.cols + l) of the block.  Only the nonzero
        entries of the factors are visited; the sums are reduced once at
        the end.  A kron B alone is the one-term case.
        """
        roff = [0, *accumulate(row_sizes)]
        coff = [0, *accumulate(col_sizes)]
        out = [[0] * coff[-1] for _ in range(roff[-1])]
        for bi, bj, c, A, B in terms:
            rows_a, cols_a, entries_a = _factor(ring, A)
            rows_b, cols_b, entries_b = _factor(ring, B)
            if (rows_a * rows_b != row_sizes[bi]
                    or cols_a * cols_b != col_sizes[bj]):
                raise ValueError(f"block ({bi},{bj}) has wrong shape")
            r0, c0 = roff[bi], coff[bj]
            for i, j, a in entries_a:
                ri, cj, ca = r0 + i * rows_b, c0 + j * cols_b, c * a
                for k, l, b in entries_b:
                    out[ri + k][cj + l] += ca * b
        m = ring.modulus
        if m is None:
            data = [tuple(row) for row in out]
        else:
            data = [tuple([x % m for x in row]) for row in out]
        return _from_canonical(ring, roff[-1], coff[-1], tuple(data))

    @staticmethod
    def hstack_all(ring: RingSpec, rows: int,
                   blocks: Sequence["Matrix"]) -> "Matrix":
        """The blocks side by side, each row the concatenation of the
        blocks' row tuples; ``rows`` x 0 when there are none."""
        for j, b in enumerate(blocks):
            if b.rows != rows:
                raise ValueError(f"block (0,{j}) has wrong shape")
            if b.ring is not ring and b.ring != ring:
                raise ValueError("ring mismatch")
        if not blocks:
            return _from_canonical(ring, rows, 0, ((),) * rows)
        data = [sum(parts, ()) for parts in zip(*[b.data for b in blocks])]
        return _from_canonical(ring, rows, sum(b.cols for b in blocks),
                               tuple(data))

    @staticmethod
    def vstack_all(ring: RingSpec, cols: int,
                   blocks: Sequence["Matrix"]) -> "Matrix":
        """The blocks one above the other, their row tuples concatenated;
        0 x ``cols`` when there are none."""
        for i, b in enumerate(blocks):
            if b.cols != cols:
                raise ValueError(f"block ({i},0) has wrong shape")
            if b.ring is not ring and b.ring != ring:
                raise ValueError("ring mismatch")
        return _from_canonical(ring, sum(b.rows for b in blocks), cols,
                               tuple(chain.from_iterable(b.data
                                                         for b in blocks)))

    def change_ring(self, ring: RingSpec) -> "Matrix":
        return Matrix(ring, self.rows, self.cols, self.data)

    def to_json(self) -> list[list[int]]:
        return self.to_lists()


def _factor(ring: RingSpec, F: Matrix | int
            ) -> tuple[int, int, list[tuple[int, int, int]]]:
    """(rows, cols, nonzero entries (i, j, a)) of a Kronecker factor; an
    int n is I_n, whose entries are its diagonal."""
    if isinstance(F, int):
        if F < 0:
            raise ValueError("negative matrix shape")
        return F, F, [(i, i, 1) for i in range(F)]
    if F.ring is not ring and F.ring != ring:
        raise ValueError("ring mismatch")
    return F.rows, F.cols, [(i, j, a) for i, row in enumerate(F.data)
                            if any(row) for j, a in enumerate(row) if a]


def _from_canonical(ring: RingSpec, rows: int, cols: int,
                    data: tuple[tuple[int, ...], ...]) -> Matrix:
    """Wrap ``rows`` row tuples of ``cols`` canonical entries; no checks.

    Private to ``exact/``; see the module docstring for the rule.
    """
    M = _new(Matrix)
    M.ring = ring
    M.rows = rows
    M.cols = cols
    M.data = data
    M.smith = None
    return M
