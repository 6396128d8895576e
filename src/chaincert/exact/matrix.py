"""Dense exact matrices over a RingSpec.

Matrices are immutable after construction and carry their ring so that
entries stay canonical (reduced mod m for Z/m).  The one mutable slot,
``smith``, is a memo computed from the entries: ``snf`` stores the
matrix's Smith form there the first time it factors the matrix, and
equality and hashing ignore it.  Shapes with zero rows or columns are
first-class citizens: most of the graded constructions downstream
produce them constantly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .rings import RingSpec


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
            modulus = ring.modulus if ring.kind == "Zmod" else None
            data = []
            for r in entries:
                if len(r) != cols:
                    raise ValueError(f"expected {cols} cols, got {len(r)}")
                if modulus is None:
                    data.append(tuple(r))
                else:
                    data.append(tuple(x % modulus for x in r))
            data = tuple(data)
        self.data = data
        self.smith = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "Matrix":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return Matrix(ring, n, n, rows)

    @staticmethod
    def zero(ring: RingSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, rows, cols)

    @staticmethod
    def from_rows(ring: RingSpec, entries: Sequence[Sequence[int]]) -> "Matrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return Matrix(ring, rows, cols, entries)

    @staticmethod
    def column(ring: RingSpec, entries: Sequence[int]) -> "Matrix":
        return Matrix(ring, len(entries), 1, [[x] for x in entries])

    @staticmethod
    def diagonal(ring: RingSpec, rows: int, cols: int, diag: Sequence[int]) -> "Matrix":
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            m[i][i] = d
        return Matrix(ring, rows, cols, m)

    # -- basic queries ------------------------------------------------

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.data[i][j]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.ring, self.rows, self.cols, self.data))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_identity(self) -> bool:
        return (self.rows == self.cols
                and all(self.data[i][j] == (1 if i == j else 0)
                        for i in range(self.rows) for j in range(self.cols)))

    def __repr__(self) -> str:
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {self.to_lists()})"

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    # -- arithmetic ---------------------------------------------------

    def _same_shape(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs "
                             f"{other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.ring, self.rows, self.cols,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.ring, self.rows, self.cols,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.ring, self.rows, self.cols,
                      [[-a for a in row] for row in self.data])

    def scale(self, c: int) -> "Matrix":
        return Matrix(self.ring, self.rows, self.cols,
                      [[c * a for a in row] for row in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
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
            out.append(acc)
        return Matrix(self.ring, self.rows, ocols, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; index (i,k),(j,l) -> i*other.rows+k etc."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        out = [[0] * cols for _ in range(rows)]
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if a == 0:
                    continue
                for k in range(other.rows):
                    orow = other.data[k]
                    trow = out[i * other.rows + k]
                    base = j * other.cols
                    for l in range(other.cols):
                        trow[base + l] = a * orow[l]
        return Matrix(self.ring, rows, cols, out)

    # -- block and slicing helpers -------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring or self.rows != other.rows:
            raise ValueError("hstack shape/ring mismatch")
        return Matrix(self.ring, self.rows, self.cols + other.cols,
                      [list(a) + list(b) for a, b in zip(self.data, other.data)])

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring or self.cols != other.cols:
            raise ValueError("vstack shape/ring mismatch")
        return Matrix(self.ring, self.rows + other.rows, self.cols,
                      list(self.data) + list(other.data))

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        ri = list(row_idx)
        ci = list(col_idx)
        return Matrix(self.ring, len(ri), len(ci),
                      [[self.data[i][j] for j in ci] for i in ri])

    def columns(self, idx: Iterable[int]) -> "Matrix":
        return self.submatrix(range(self.rows), idx)

    def column_at(self, j: int) -> "Matrix":
        return self.columns([j])

    def vec(self) -> "Matrix":
        """Column-major vectorization (stack columns)."""
        out = []
        for j in range(self.cols):
            for i in range(self.rows):
                out.append([self.data[i][j]])
        return Matrix(self.ring, self.rows * self.cols, 1, out)

    @staticmethod
    def unvec(ring: RingSpec, v: "Matrix", rows: int, cols: int) -> "Matrix":
        if v.cols != 1 or v.rows != rows * cols:
            raise ValueError("unvec shape mismatch")
        out = [[0] * cols for _ in range(rows)]
        for j in range(cols):
            for i in range(rows):
                out[i][j] = v.data[j * rows + i][0]
        return Matrix(ring, rows, cols, out)

    @staticmethod
    def block_diagonal(ring: RingSpec, blocks: Sequence["Matrix"]) -> "Matrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[0] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                row = out[r0 + i]
                for j in range(b.cols):
                    row[c0 + j] = b.data[i][j]
            r0 += b.rows
            c0 += b.cols
        return Matrix(ring, rows, cols, out)

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
            r0, c0 = roff[bi], coff[bj]
            for i in range(blk.rows):
                row = out[r0 + i]
                for j in range(blk.cols):
                    row[c0 + j] = blk.data[i][j]
        return Matrix(ring, rows, cols, out)

    def change_ring(self, ring: RingSpec) -> "Matrix":
        return Matrix(ring, self.rows, self.cols, self.data)

    def to_json(self) -> list[list[int]]:
        return self.to_lists()
