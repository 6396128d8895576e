"""Linear relations between unknown maps, solved by the shape they have.

Sections, retractions, homotopies, contractions and lifts all reduce to
relations of the form

    sum_k  c_k * L_k @ X_{v_k} @ R_k  =  rhs   (modulo columns of `mod`)

in unknown matrices X_v.  A relation is column-type when every R_k is
the identity, so that it never mixes the columns of X.
`solve_map_relations` takes one unknown by one of three routes, and
refuses any other shape:

  (c) source-decoupled: one unknown X : C -> B, and every relation is
      either column-type or has zero rhs and every R_k equal to one matrix
      P, typically the relations of C (X is well defined).  With
      U P V = D put X = X' U: a column-type relation reads
      L X' = rhs U^-1 modulo its `mod`, or (U L) X' = I modulo D when
      rhs = I and `mod` = P (a section), the other kind d_j L X'_j = 0
      modulo its `mod` for each column j, where d_j = 0 past the diagonal.
      Column j of X' is then one small system, and columns with equal d_j
      share it, so each group of columns takes one solve with a
      multi-column rhs (sections of a split epi).
      Case (a), every relation column-type, is (c) without P: U = I and
      every d_j = 0, so no Smith form is taken and the whole rhs is solved
      at once (factoring a map through a submodule).
  (b) row-decoupled: one unknown X, every L_k is the identity and every
      relation has the same `mod` Q (or none).  Stacked, this reads
      X M = C modulo colspan Q.  With U Q V = D, row i of Y = U X solves
      y M = (U C)_i modulo d_i, a diagonal congruence after one Smith
      form of M^T, and X = U^-1 Y (retractions of a split mono).

Lifts and nullhomotopies, in one unknown per degree, take
`solve_by_degree`, one sweep up the degrees of a system that is
block-bidiagonal by degree; the first degree without a solution falls out
of it.  Each degree is one flattened solve: each relation is vectorized
column-major (vec(L X R) = (R^T kron L) vec X, `_vectorized`) and the
modulo part I kron mod gets its own slack unknown.  A lift whose left leg
l is nonzero has h_n l_n = u_n, whose right factor is not the identity,
beside p_n h_n = v_n, whose left factor is not, and none of (a), (b) and
(c) accepts that mix.

Case (c) and the sweep share one builder, `_assemble`, of the row blocks
[blocks | -mod] @ [X; slack] = rhs, and one call of the exact solver.  `_solve_flattened` solves a whole
system in any number of unknowns that way; only the tests call it, as
the oracle of the routes and of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from .matrix import Matrix, _from_canonical
from .rings import RingSpec
from .snf import kernel_matrix, snf, solve, solve_congruence


@dataclass(frozen=True)
class MapVariable:
    """Unknown map between two presented modules (shape target x source)."""

    name: str
    source: object  # PresentedModule
    target: object  # PresentedModule

    @property
    def rows(self) -> int:
        return self.target.generators

    @property
    def cols(self) -> int:
        return self.source.generators


@dataclass
class MatrixRelation:
    """sum of (coeff, L, varname, R) terms = rhs, modulo colspan(mod)."""

    terms: list[tuple[int, Matrix, str, Matrix]]
    rhs: Matrix
    mod: Matrix | None = None


def well_definedness(var: MapVariable) -> MatrixRelation:
    """X P_source = 0 modulo P_target: X respects its source's relations."""
    src, tgt = var.source, var.target
    return MatrixRelation(
        terms=[(1, Matrix.identity(src.ring, tgt.generators), var.name,
                src.relations)],
        rhs=Matrix.zero(src.ring, tgt.generators, src.relations.cols),
        mod=tgt.relations,
    )


def _modulus(rel: MatrixRelation) -> Matrix | None:
    return rel.mod if rel.mod is not None and rel.mod.cols else None


def solve_map_relations(ring: RingSpec, variables: list[MapVariable],
                        relations: list[MatrixRelation],
                        ) -> dict[str, Matrix] | None:
    """Solve the relations in one unknown by route (a), (b) or (c); None
    when inconsistent, ValueError for any other shape."""
    if len(variables) != 1:
        raise ValueError("relations in one unknown map expected")
    var = variables[0]
    for rel in relations:
        if rel.rhs.ring is not ring and rel.rhs.ring != ring:
            raise ValueError("right-hand side ring mismatch")
        p, q = rel.rhs.rows, rel.rhs.cols
        for _, L, name, R in rel.terms:
            if name != var.name or L.cols != var.rows or R.rows != var.cols:
                raise ValueError(f"term shapes do not match variable {name}")
            if L.rows != p or R.cols != q:
                raise ValueError("term result shape does not match rhs")
        if _modulus(rel) is not None and rel.mod.rows != p:
            raise ValueError("mod matrix has wrong height")

    # a relation with an empty right-hand side states no equation
    relations = [rel for rel in relations if rel.rhs.rows and rel.rhs.cols]
    P = _source_relations(var, relations)
    if P is None:
        return _solve_source_columns(ring, var, relations, None)
    if all(rel.rhs.rows == var.rows
           and _modulus(rel) == _modulus(relations[0])
           and all(L.is_identity() for _, L, _, _ in rel.terms)
           for rel in relations):
        return _solve_rows(ring, var, relations)
    if P is False:
        raise ValueError("relations fit none of the routes (a), (b), (c)")
    return _solve_source_columns(ring, var, relations, P)


def _assemble(ring: RingSpec, sizes: list[int], q: int,
              parts: list[tuple[dict[int, Matrix], Matrix | None, Matrix]]
              ) -> tuple[Matrix, Matrix]:
    """The system [blocks | -mod] @ [X_0; ..; X_k; slack] = rhs, for X_v
    of sizes[v] x q, as its matrix and rhs; each part is one row block
    (blocks by unknown, its `mod` or None, its rhs) with a slack unknown
    of its own."""
    blocks: dict[tuple[int, int], Matrix] = {}
    slack_sizes = []
    for r, (row, mod, _) in enumerate(parts):
        blocks.update({(r, v): blk for v, blk in row.items()})
        slack_sizes.append(0 if mod is None else mod.cols)
        if mod is not None:
            blocks[(r, len(sizes) + r)] = -mod
    heights = [b.rows for _, _, b in parts]
    system = Matrix.assemble(ring, heights, sizes + slack_sizes, blocks)
    rhs = tuple([row for _, _, b in parts for row in b.data])
    return system, _from_canonical(ring, sum(heights), q, rhs)


def _solve_rows(ring: RingSpec, var: MapVariable,
                relations: list[MatrixRelation]) -> dict[str, Matrix] | None:
    """Case (b): X M = C modulo colspan Q, one row of U X at a time."""
    M = Matrix.zero(ring, var.cols, 0)
    C = Matrix.zero(ring, var.rows, 0)
    for rel in relations:
        part = Matrix.zero(ring, var.cols, rel.rhs.cols)
        for coeff, _, _, R in rel.terms:
            part = part + R.scale(coeff)
        M, C = M.hstack(part), C.hstack(rel.rhs)
    Q = _modulus(relations[0]) if relations else None
    if Q is None:
        sol = solve(M.transpose(), C.transpose())
        return None if sol is None else {var.name: sol.transpose()}

    # U Q V = D, so row i of U X M = (U C)_i modulo d_i: modulo
    # gcd(d_i, m) over Z/m, where d_i = 0 means modulo m, and exactly
    # over Z when d_i = 0.  With S M^T T = E each row is diagonal in T^-1 x.
    dq = snf(Q)
    dm = snf(M.transpose())
    rhs = dm.U @ (dq.U @ C).transpose()      # column i is S (U C)_i^T
    k = M.cols
    e = dm.diagonal + [0] * (k - len(dm.diagonal))
    d = dq.diagonal + [0] * (var.rows - len(dq.diagonal))
    Z = [[0] * var.rows for _ in range(var.cols)]
    for i, di in enumerate(d):
        n = gcd(di, ring.modulus) if ring.is_modular else di
        for j in range(k):
            z = solve_congruence(e[j], rhs[j, i], n)
            if z is None:
                return None
            if j < var.cols:
                Z[j][i] = z
    Y = (dm.V @ Matrix(ring, var.cols, var.rows, Z)).transpose()
    U_inv = solve(dq.U, Matrix.identity(ring, var.rows))
    return {var.name: U_inv @ Y}


def _source_relations(var: MapVariable, relations: list[MatrixRelation]
                      ) -> Matrix | bool | None:
    """The matrix P of case (c); None when every relation is column-type
    (case (a)), False when the system has another shape."""
    P = None
    for rel in relations:
        if _column_type(rel, var.cols):
            continue
        if not rel.terms or not rel.rhs.is_zero():
            return False
        if P is None:
            P = rel.terms[0][3]
        if any(R != P for _, _, _, R in rel.terms):
            return False
    return P


def _column_type(rel: MatrixRelation, n: int) -> bool:
    return rel.rhs.cols == n and all(R.is_identity()
                                     for _, _, _, R in rel.terms)


def _solve_source_columns(ring: RingSpec, var: MapVariable,
                          relations: list[MatrixRelation], P: Matrix | None
                          ) -> dict[str, Matrix] | None:
    """Case (c): X = X' U with U P V = D, one system per diagonal entry d_j;
    without P, case (a): X = X' in one system."""
    n = var.cols
    dec = snf(P) if P is not None else None
    d = dec.diagonal if dec is not None else []
    d = d + [0] * (n - len(d))
    U_inv = None
    # per relation: (sum of coeff * L, rhs U^-1 or None for the P kind, mod)
    parts = []
    for rel in relations:
        terms = [L_k.scale(coeff) for coeff, L_k, _, _ in rel.terms]
        L = (sum(terms[1:], terms[0]) if terms
             else Matrix.zero(ring, rel.rhs.rows, var.rows))
        mod = _modulus(rel)
        if dec is None:
            parts.append((L, rel.rhs, mod))
        elif not _column_type(rel, n):
            parts.append((L, None, mod))
        elif mod == P and rel.rhs.is_identity():
            # L X' = U^-1 modulo P reads (U L) X' = I modulo U P, whose
            # columns span what those of D = U P V span (a section)
            parts.append((dec.U @ L, rel.rhs, dec.D))
        else:
            if U_inv is None:
                U_inv = solve(dec.U, Matrix.identity(ring, n))
            parts.append((L, rel.rhs @ U_inv, mod))
    X = [[0] * n for _ in range(var.rows)]
    for dj in sorted(set(d)):
        cols = [j for j in range(n) if d[j] == dj]
        sol = solve(*_assemble(ring, [var.rows], len(cols), [
            ({0: L}, mod, target.columns(cols)) if target is not None
            else ({0: L.scale(dj)}, mod, Matrix.zero(ring, L.rows, len(cols)))
            for L, target, mod in parts]))
        if sol is None:
            return None
        sol = sol.submatrix(range(var.rows), range(len(cols)))
        if len(cols) == n:   # one group: its solution is X' itself
            return {var.name: sol if dec is None else sol @ dec.U}
        for i, row in enumerate(sol.data):
            for c, j in enumerate(cols):
                X[i][j] = row[c]
    X_prime = _from_canonical(ring, var.rows, n,
                              tuple([tuple(row) for row in X]))
    return {var.name: X_prime if dec is None else X_prime @ dec.U}


def _vectorized(ring: RingSpec, index: dict[str, int],
                relations: list[MatrixRelation]
                ) -> list[tuple[dict[int, Matrix], Matrix | None, Matrix]]:
    """The parts of `_assemble` for relations vectorized column-major,
    vec(L X R) = (R^T kron L) vec X, with unknown ``name`` at
    ``index[name]`` and I kron mod as the modulus; the terms on one
    unknown are summed by one `Matrix.kron_blocks`."""
    parts = []
    for rel in relations:
        p, q = rel.rhs.rows, rel.rhs.cols
        # per unknown: its size and the terms that name it
        terms: dict[int, tuple[int, list]] = {}
        for coeff, L, name, R in rel.terms:
            _, group = terms.setdefault(index[name], (L.cols * R.rows, []))
            group.append((0, 0, coeff, R.transpose(), L))
        row = {i: Matrix.kron_blocks(ring, [p * q], [size], group)
               for i, (size, group) in terms.items()}
        mod = _modulus(rel)
        parts.append((row, None if mod is None
                      else Matrix.kron_blocks(ring, [p * q], [q * mod.cols],
                                              [(0, 0, 1, q, mod)]),
                      rel.rhs.vec()))
    return parts


def _solve_flattened(ring: RingSpec, variables: list[MapVariable],
                     relations: list[MatrixRelation],
                     ) -> dict[str, Matrix] | None:
    """One Kronecker-flattened system in every unknown: the oracle that
    the tests hold the routes and the sweep against."""
    index = {v.name: i for i, v in enumerate(variables)}
    sizes = [v.rows * v.cols for v in variables]
    sol = solve(*_assemble(ring, sizes, 1,
                           _vectorized(ring, index, relations)))
    if sol is None:
        return None
    return {v.name: Matrix.unvec(ring, sol.submatrix(range(o - k, o), [0]),
                                 v.rows, v.cols)
            for v, k, o in zip(variables, sizes, accumulate(sizes))}


def solve_by_degree(ring: RingSpec,
                    steps: list[tuple[MapVariable, list[MatrixRelation]]]
                    ) -> tuple[list[Matrix] | None, int | None]:
    """Solve a system that is block-bidiagonal by degree, one degree at a
    time.  steps[n] is the unknown x_n with the relations of degree n,
    which name only x_n and x_{n-1}.  Returns (x_0..x_top, None), or
    (None, n) for the first degree n through which no solution extends.

    S_n, the values of vec x_n that extend through degree n, is a coset
    x0 + K u.  With vec x_{n-1} = x0' + K' u' the degree-n relations are
    one flattened system A [vec x_n; u'; slack] = b; a solution gives x0
    and u0', and the columns of ker A (from the Smith form `solve` took)
    that move x_n give K, with Ku' their u' rows.  From the top, u = 0;
    degree n reads x_n = x0 + K u and hands u' = u0' + Ku' u down.
    """
    cosets = []   # per degree: [x0; u0'; slack], [K; Ku'; slack], sizes
    x0, K = Matrix.zero(ring, 0, 1), Matrix.zero(ring, 0, 0)
    for n, (var, relations) in enumerate(steps):
        size = var.rows * var.cols
        index = {var.name: 0}
        if n:
            index[steps[n - 1][0].name] = 1
        parts = []
        for row, mod, rhs in _vectorized(ring, index, relations):
            if 1 in row:
                row[1], rhs = row[1] @ K, rhs - row[1] @ x0
            parts.append((row, mod, rhs))
        system, rhs = _assemble(ring, [size, K.cols], 1, parts)
        sol = solve(system, rhs)
        if sol is None:
            return None, n
        kernel = kernel_matrix(system)
        span = kernel.columns([j for j in range(kernel.cols)
                               if any(kernel.data[i][j] for i in range(size))])
        cosets.append((sol, span, size, K.cols))
        x0 = sol.submatrix(range(size), [0])
        K = span.submatrix(range(size), range(span.cols))
    u = Matrix.zero(ring, K.cols, 1)
    out = []
    for (var, _), (point, span, size, k) in zip(reversed(steps),
                                                reversed(cosets)):
        v = point + span @ u
        out.append(Matrix.unvec(ring, v.submatrix(range(size), [0]),
                                var.rows, var.cols))
        u = v.submatrix(range(size, size + k), [0])
    return out[::-1], None
