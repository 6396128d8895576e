"""Smith normal form and exact linear solving over Z and Z/m.

This is the decision kernel: every splitting, homotopy, contraction and
lifting question downstream reduces to calls of ``solve`` (or
``kernel_matrix``), each of which reduces to one Smith normal form.  A
matrix is factored at most once: ``snf`` keeps the ``SNFResult`` in the
matrix's ``smith`` slot and returns it on every later call, so repeated
solves against one relations matrix share one factorization.  Two
cases need no factorization: a matrix with no columns (the relations of
a free module), which ``solve`` and ``kernel_matrix`` answer directly,
and a right-hand side that is exactly zero, which ``solve`` answers with
the zero solution.

Determinism contract: the pivot is always the entry of smallest nonzero
absolute value in the remaining block, ties broken in row-major order,
so witnesses are reproducible byte for byte.  Over Z/m the elimination
runs on canonical representatives in [0, m): every row and column
combination of the pivoting loop is reduced mod m as it is made, so
entries never grow past m.  The divisibility-chain step that follows
works on those integers unreduced (an lcm may vanish mod m there, and a
zero would break the gcd/lcm steps after it); diagonal entries are then
normalized to divisors of m by unit row scalings.  The memo does not
change this contract: the stored result is the one a fresh factorization
of an equal matrix gives.

U, D and V, and the results of ``solve`` and ``kernel_matrix``, are
canonical by construction (see ``matrix.py``): over Z/m the factorization
reduces its lists once at the end, and no result is validated again.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .matrix import Matrix, _from_canonical


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


@dataclass(frozen=True)
class SNFResult:
    """Invertible U, V and diagonal D with U @ M @ V == D."""

    U: Matrix
    D: Matrix
    V: Matrix

    @property
    def diagonal(self) -> list[int]:
        n = min(self.D.rows, self.D.cols)
        return [self.D[i, i] for i in range(n)]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]


def _pivot(A: list[list[int]], t: int, rows: int, cols: int) -> tuple[int, int] | None:
    # a unit entry always wins, and the first one in row-major order is the
    # deterministic choice, so scan for +-1 at C speed before anything else
    for i in range(t, rows):
        row = A[i]
        j = None
        try:
            j = row.index(1, t)
        except ValueError:
            pass
        try:
            j2 = row.index(-1, t)
            if j is None or j2 < j:
                j = j2
        except ValueError:
            pass
        if j is not None:
            return (i, j)
    best = None
    best_abs = None
    for i in range(t, rows):
        row = A[i]
        for j in range(t, cols):
            a = row[j]
            if a != 0:
                aa = -a if a < 0 else a
                if best_abs is None or aa < best_abs:
                    best, best_abs = (i, j), aa
    return best


def _row_combine(A: list[list[int]], U: list[list[int]], i1: int, i2: int,
                 x: int, y: int, z: int, w: int, m: int | None = None) -> None:
    # rows (i1, i2) <- (x*r1 + y*r2, z*r1 + w*r2); same op applied to U;
    # entries reduced mod m when m is given
    for M in (A, U):
        r1, r2 = M[i1], M[i2]
        if x == 1 and y == 0 and w == 1:
            # the common shear r2 += z*r1
            if m is None:
                M[i2] = [b + z * a for a, b in zip(r1, r2)]
            else:
                M[i2] = [(b + z * a) % m for a, b in zip(r1, r2)]
        elif x == 0 and y == 1 and z == 1 and w == 0:
            M[i1], M[i2] = r2, r1
        elif m is None:
            M[i1] = [x * a + y * b for a, b in zip(r1, r2)]
            M[i2] = [z * a + w * b for a, b in zip(r1, r2)]
        else:
            M[i1] = [(x * a + y * b) % m for a, b in zip(r1, r2)]
            M[i2] = [(z * a + w * b) % m for a, b in zip(r1, r2)]


def _col_combine(A: list[list[int]], V: list[list[int]], j1: int, j2: int,
                 x: int, y: int, z: int, w: int, m: int | None = None) -> None:
    # cols (j1, j2) <- (x*c1 + y*c2, z*c1 + w*c2); same op applied to V;
    # entries reduced mod m when m is given
    for M in (A, V):
        if x == 1 and y == 0 and w == 1:
            if m is None:
                for row in M:
                    row[j2] += z * row[j1]
            else:
                for row in M:
                    row[j2] = (row[j2] + z * row[j1]) % m
        elif x == 0 and y == 1 and z == 1 and w == 0:
            for row in M:
                row[j1], row[j2] = row[j2], row[j1]
        else:
            for row in M:
                a, b = row[j1], row[j2]
                row[j1] = x * a + y * b
                row[j2] = z * a + w * b
                if m is not None:
                    row[j1] %= m
                    row[j2] %= m


def _snf_lists(M: list[list[int]], rows: int, cols: int, m: int | None = None
               ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    # m: reduce every combination of the pivoting loop mod m (see the
    # determinism contract above); None works over Z
    A = [row[:] for row in M]
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = _pivot(A, t, rows, cols)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            _row_combine(A, U, t, pi, 0, 1, 1, 0)
        if pj != t:
            _col_combine(A, V, t, pj, 0, 1, 1, 0)

        while True:
            # clear the pivot column with row operations
            for i in range(t + 1, rows):
                b = A[i][t]
                if b == 0:
                    continue
                a = A[t][t]
                if b % a == 0:
                    q = b // a
                    _row_combine(A, U, t, i, 1, 0, -q, 1, m)
                else:
                    g, x, y = _xgcd(a, b)
                    _row_combine(A, U, t, i, x, y, -(b // g), a // g, m)
            # clear the pivot row with column operations
            row_clear = True
            for j in range(t + 1, cols):
                b = A[t][j]
                if b == 0:
                    continue
                row_clear = False
                a = A[t][t]
                if b % a == 0:
                    q = b // a
                    _col_combine(A, V, t, j, 1, 0, -q, 1, m)
                else:
                    g, x, y = _xgcd(a, b)
                    _col_combine(A, V, t, j, x, y, -(b // g), a // g, m)
            if row_clear and all(A[i][t] == 0 for i in range(t + 1, rows)):
                break
        t += 1

    r = t
    # normalize signs
    for i in range(r):
        if A[i][i] < 0:
            for M in (A, U):
                M[i] = [-x for x in M[i]]
    # enforce the divisibility chain d_i | d_j for i < j, unreduced
    for i in range(r):
        for j in range(i + 1, r):
            a, b = A[i][i], A[j][j]
            if b % a == 0:
                continue
            # diag(a, b) -> diag(gcd, lcm) with three elementary operations
            _col_combine(A, V, i, j, 1, 1, 0, 1)          # col_i += col_j
            g, x, y = _xgcd(a, b)
            _row_combine(A, U, i, j, x, y, -(b // g), a // g)
            q = (y * b) // g
            _col_combine(A, V, j, i, 1, -q, 0, 1)         # col_j -= q*col_i
    return A, U, V


def snf(M: Matrix) -> SNFResult:
    """Smith normal form with transforms: U @ M @ V == D exactly.

    Computed on the first call for ``M`` and kept in ``M.smith``.
    """
    if M.smith is None:
        M.smith = _factor(M)
    return M.smith


def _factor(M: Matrix) -> SNFResult:
    ring = M.ring
    m = ring.modulus if ring.is_modular else None
    A, U, V = _snf_lists([list(r) for r in M.data], M.rows, M.cols, m)
    if m is not None:
        # normalize each diagonal entry to its canonical divisor gcd(d, m)
        for i in range(min(M.rows, M.cols)):
            d = A[i][i] % m
            if d == 0:
                A[i][i] = 0
                continue
            u, g = ring.unit_multiplier_to_divisor(d)
            if g != d:
                uinv = ring.inverse(u)
                U[i] = [uinv * x for x in U[i]]
                A[i] = [uinv * x for x in A[i]]
            A[i][i] = g
        # the divisibility step and the unit scalings work unreduced
        A, U, V = [[[x % m for x in row] for row in L] for L in (A, U, V)]
    return SNFResult(_wrap_rows(ring, M.rows, M.rows, U),
                     _wrap_rows(ring, M.rows, M.cols, A),
                     _wrap_rows(ring, M.cols, M.cols, V))


def _wrap_rows(ring, rows: int, cols: int, lists: list[list[int]]) -> Matrix:
    return _from_canonical(ring, rows, cols, tuple([tuple(r) for r in lists]))


def solve_congruence(d: int, c: int, n: int) -> int | None:
    """A solution y of d*y = c modulo n, or None; n == 0 asks it in Z.

    For n > 0 the solution is the smallest one in [0, n).
    """
    if n == 0:
        if d == 0:
            return 0 if c == 0 else None
        if c % d:
            return None
        return c // d
    g = gcd(d, n)  # gcd(0, n) == n
    if c % g:
        return None
    nn = n // g
    return (c // g) * pow(d // g, -1, nn) % nn if nn > 1 else 0


def solve(A: Matrix, B: Matrix) -> Matrix | None:
    """One solution X of A @ X = B, or None when none exists.

    B may have several columns; each is solved against a single Smith
    decomposition of A.
    """
    if A.ring != B.ring:
        raise ValueError("ring mismatch")
    if A.rows != B.rows:
        raise ValueError(f"incompatible shapes {A.rows}x{A.cols} and "
                         f"{B.rows}x{B.cols}")
    ring = A.ring
    if B.is_zero():
        return Matrix.zero(ring, A.cols, B.cols)
    if A.cols == 0:
        return None
    n = ring.modulus if ring.is_modular else 0
    dec = snf(A)
    C = dec.U @ B
    r = min(A.rows, A.cols)
    # entries are canonical, so a row past the diagonal must be exactly zero
    if any(any(row) for row in C.data[r:]):
        return None
    D = dec.D.data
    Y = []
    for i in range(r):
        d = D[i][i]
        if d == 1:
            Y.append(C.data[i])
            continue
        y = [solve_congruence(d, c, n) for c in C.data[i]]
        if None in y:
            return None
        Y.append(tuple(y))
    Y += [(0,) * B.cols] * (A.cols - r)
    # solve_congruence answers in [0, n) over Z/m, so Y is canonical
    return dec.V @ _from_canonical(ring, A.cols, B.cols, tuple(Y))


def kernel_matrix(A: Matrix) -> Matrix:
    """Matrix whose columns generate {x : A @ x = 0}."""
    ring = A.ring
    if A.cols == 0:
        return Matrix.zero(ring, 0, 0)
    dec = snf(A)
    r = min(A.rows, A.cols)
    keep: list[tuple[int, int]] = []  # (column of V, scale) per generator
    for i in range(A.cols):
        d = dec.D[i, i] if i < r else 0
        if not ring.is_modular:
            if d == 0:
                keep.append((i, 1))
        else:
            m = ring.modulus
            g = gcd(d, m)
            scale = m // g
            if scale % m != 0:
                keep.append((i, scale))
    m = ring.modulus
    if m is None:
        K = [[row[i] * scale for i, scale in keep] for row in dec.V.data]
    else:
        K = [[row[i] * scale % m for i, scale in keep] for row in dec.V.data]
    return _wrap_rows(ring, A.cols, len(keep), K)
