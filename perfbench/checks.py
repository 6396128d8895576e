"""Output checks that use none of the program's arithmetic.

Matrix products, determinants and the Smith-form comparisons below work on
plain lists of Python integers; the only outside helper is sympy, which
supplies reference invariant factors and a Smith decomposition for
membership tests modulo a relation matrix.
"""

from __future__ import annotations

from math import gcd


class CheckFailed(Exception):
    """An output of the program disagrees with an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def matmul(a: list[list[int]], b: list[list[int]], cols: int
           ) -> list[list[int]]:
    """Integer product of a and b, where b has `cols` columns (passed in,
    since a matrix with no rows does not show its width)."""
    bt = [[row[j] for row in b] for j in range(cols)]
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def reduce(a: list[list[int]], modulus: int | None) -> list[list[int]]:
    if modulus is None:
        return [list(row) for row in a]
    return [[x % modulus for x in row] for row in a]


def det(a: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant over Z."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def in_column_span(rel: list[list[int]], residual: list[list[int]],
                   modulus: int | None) -> bool:
    """Is every column of `residual` an integer (or Z/m) combination of
    the columns of `rel`?  Decided through sympy's Smith decomposition."""
    rows = len(residual)
    if rows == 0 or all(x == 0 for row in residual for x in row):
        return True
    gens = [list(row) for row in rel] if rel and rel[0] else [[] for _ in
                                                               range(rows)]
    if modulus is not None:
        gens = [row + [modulus if i == j else 0 for j in range(rows)]
                for i, row in enumerate(gens)]
    if not gens[0]:
        return False
    from sympy import Matrix as SMatrix
    from sympy.matrices.normalforms import smith_normal_decomp
    from sympy.polys.domains import ZZ as SZZ

    d, s, _ = smith_normal_decomp(SMatrix(gens), domain=SZZ)
    rhs = s * SMatrix(residual)
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for i in range(rhs.rows):
        di = diag[i] if i < len(diag) else 0
        for j in range(rhs.cols):
            c = int(rhs[i, j])
            if (di == 0 and c != 0) or (di != 0 and c % int(di)):
                return False
    return True


def check_map_identity(product: list[list[int]], n: int,
                       relations: list[list[int]], modulus: int | None,
                       what: str) -> None:
    """`product` equals the identity of a presented module with `n`
    generators, modulo its relation columns."""
    residual = [[(x - int(i == j)) for j, x in enumerate(row)]
                for i, row in enumerate(reduce(product, modulus))]
    require(len(product) == n and all(len(r) == n for r in product),
            f"{what}: composite has shape {len(product)}x"
            f"{len(product[0]) if product else 0}, expected {n}x{n}")
    require(in_column_span(relations, residual, modulus),
            f"{what}: composite is not the identity modulo the relations")


def check_snf(m: list[list[int]], u: list[list[int]], d: list[list[int]],
              v: list[list[int]], modulus: int | None,
              reference_factors: bool) -> None:
    """U M V = D, U and V invertible, D diagonal with a divisibility chain,
    and (optionally) the invariant factors agree with sympy's."""
    rows, cols = len(u), len(v)
    umv = matmul(matmul(u, m, cols), v, cols)
    require(reduce(umv, modulus) == reduce(d, modulus), "snf: U M V != D")
    for name, t in (("U", u), ("V", v)):
        dt = det(reduce(t, modulus))
        unit = abs(dt) == 1 if modulus is None else gcd(dt, modulus) == 1
        require(unit, f"snf: {name} is not invertible (det {dt})")
    k = min(rows, cols)
    require(all(d[i][j] == 0 for i in range(rows) for j in range(cols)
                if i != j), "snf: D has an off-diagonal entry")
    diag = [d[i][i] for i in range(k)]
    nonzero = [x for x in diag if x != 0]
    require(diag[:len(nonzero)] == nonzero, "snf: zero before a nonzero "
                                            "diagonal entry")
    require(all(x > 0 for x in nonzero), "snf: negative diagonal entry")
    require(all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])),
            "snf: diagonal is not a divisibility chain")
    if modulus is not None:
        require(all(modulus % x == 0 for x in nonzero),
                "snf: diagonal entry is not a divisor of the modulus")
    if reference_factors and rows and cols:
        from sympy import Matrix as SMatrix
        from sympy.matrices.normalforms import invariant_factors
        from sympy.polys.domains import ZZ as SZZ

        ref = [abs(int(x)) for x in invariant_factors(SMatrix(m), domain=SZZ)]
        ref = [x for x in ref if x != 0]
        if modulus is not None:
            ref = [gcd(x, modulus) for x in ref]
            ref = [x for x in ref if x != modulus]
        require(nonzero == ref, f"snf: invariant factors {nonzero} differ "
                                f"from sympy's {ref}")
