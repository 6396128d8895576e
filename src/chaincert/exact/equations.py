"""Linear relations between unknown maps, solved by the shape they have.

Sections, retractions, homotopies, contractions and lifts all reduce to
relations of the form

    sum_k  c_k * L_k @ X_{v_k} @ R_k  =  rhs   (modulo columns of `mod`)

in several unknown matrices X_v at once.  Three shapes decouple and are
solved with a few small Smith forms:

  (a) column-decoupled: every R_k is the identity, and every unknown and
      every rhs has the same q columns.  The columns never mix, so the
      block matrix [L-blocks | -mod-blocks] is solved once against the
      q-column right-hand side (factoring a map through a submodule).
  (b) row-decoupled: one unknown X, every L_k is the identity and every
      relation has the same `mod` Q (or none).  Stacked, this reads
      X M = C modulo colspan Q.  With U Q V = D, row i of Y = U X solves
      y M = (U C)_i modulo d_i, a diagonal congruence after one Smith
      form of M^T, and X = U^-1 Y (retractions of a split mono).
  (c) source-decoupled: one unknown X : C -> B, and every relation is
      either column-type (every R_k the identity) or has zero rhs and
      every R_k equal to one matrix P, typically the relations of C (X is
      well defined).  With U P V = D put X = X' U: a column-type
      relation reads L X' = rhs U^-1 modulo its `mod`, or (U L) X' = I
      modulo D when rhs = I and `mod` = P (a section), the other kind
      d_j L X'_j = 0 modulo its `mod` for each column j, where d_j = 0
      past the diagonal.  Column j of X' is then one small system, and
      columns with equal d_j share it, so each group of columns takes one
      solve with a multi-column rhs (sections of a split epi).

Every other system is coupled and solved whole: each relation is
vectorized column-major (vec(L X R) = (R^T kron L) vec X), the modulo
part gets its own slack unknown, and the block system goes to one call
of the exact solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .matrix import Matrix, _from_canonical
from .rings import RingSpec
from .snf import snf, solve, solve_congruence


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
    """Solve all relations simultaneously; None when inconsistent."""
    var_shape = {v.name: (v.rows, v.cols) for v in variables}
    for rel in relations:
        if rel.rhs.ring is not ring and rel.rhs.ring != ring:
            raise ValueError("right-hand side ring mismatch")
        p, q = rel.rhs.rows, rel.rhs.cols
        for _, L, name, R in rel.terms:
            vr, vc = var_shape[name]
            if L.cols != vr or R.rows != vc:
                raise ValueError(f"term shapes do not match variable {name}")
            if L.rows != p or R.cols != q:
                raise ValueError("term result shape does not match rhs")
        if _modulus(rel) is not None and rel.mod.rows != p:
            raise ValueError("mod matrix has wrong height")

    # a relation with an empty right-hand side states no equation
    relations = [rel for rel in relations if rel.rhs.rows and rel.rhs.cols]
    widths = {v.cols for v in variables} | {rel.rhs.cols for rel in relations}
    if len(widths) == 1 and all(R.is_identity() for rel in relations
                                for _, _, _, R in rel.terms):
        return _solve_columns(ring, variables, relations, widths.pop())
    if len(variables) == 1 and all(
            rel.rhs.rows == variables[0].rows
            and _modulus(rel) == _modulus(relations[0])
            and all(L.is_identity() for _, L, _, _ in rel.terms)
            for rel in relations):
        return _solve_rows(ring, variables[0], relations)
    P = _source_relations(variables, relations)
    if P is not None:
        return _solve_source_columns(ring, variables[0], relations, P)
    return _solve_flattened(ring, variables, relations)


def _solve_columns(ring: RingSpec, variables: list[MapVariable],
                   relations: list[MatrixRelation], q: int
                   ) -> dict[str, Matrix] | None:
    """Case (a): [L-blocks | -mod-blocks] @ [X; slack] = rhs, all q columns."""
    index = {v.name: j for j, v in enumerate(variables)}
    slack_sizes = []
    blocks: dict[tuple[int, int], Matrix] = {}
    for r, rel in enumerate(relations):
        for coeff, L, name, _ in rel.terms:
            key = (r, index[name])
            term = L.scale(coeff)
            blocks[key] = blocks[key] + term if key in blocks else term
        mod = _modulus(rel)
        slack_sizes.append(0 if mod is None else mod.cols)
        if mod is not None:
            blocks[(r, len(variables) + r)] = -mod
    system = Matrix.assemble(ring, [rel.rhs.rows for rel in relations],
                             [v.rows for v in variables] + slack_sizes, blocks)
    rhs = tuple([row for rel in relations for row in rel.rhs.data])
    sol = solve(system, _from_canonical(ring, len(rhs), q, rhs))
    if sol is None:
        return None
    out: dict[str, Matrix] = {}
    offset = 0
    for v in variables:
        out[v.name] = sol.submatrix(range(offset, offset + v.rows), range(q))
        offset += v.rows
    return out


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


def _source_relations(variables: list[MapVariable],
                      relations: list[MatrixRelation]) -> Matrix | None:
    """The matrix P of case (c), or None when the system has another shape."""
    if len(variables) != 1:
        return None
    P = None
    for rel in relations:
        if _column_type(rel, variables[0].cols):
            continue
        if not rel.terms or not rel.rhs.is_zero():
            return None
        if P is None:
            P = rel.terms[0][3]
        if any(R != P for _, _, _, R in rel.terms):
            return None
    return P


def _column_type(rel: MatrixRelation, n: int) -> bool:
    return rel.rhs.cols == n and all(R.is_identity()
                                     for _, _, _, R in rel.terms)


def _solve_source_columns(ring: RingSpec, var: MapVariable,
                          relations: list[MatrixRelation], P: Matrix
                          ) -> dict[str, Matrix] | None:
    """Case (c): X = X' U with U P V = D, one system per diagonal entry d_j."""
    dec = snf(P)
    n = var.cols
    d = dec.diagonal + [0] * (n - len(dec.diagonal))
    U_inv = None
    # per relation: (sum of coeff * L, rhs U^-1 or None for the P kind, mod)
    parts = []
    for rel in relations:
        L = Matrix.zero(ring, rel.rhs.rows, var.rows)
        for coeff, L_k, _, _ in rel.terms:
            L = L + L_k.scale(coeff)
        mod = _modulus(rel)
        if not _column_type(rel, n):
            parts.append((L, None, mod))
        elif mod == P and rel.rhs.is_identity():
            # L X' = U^-1 modulo P reads (U L) X' = I modulo U P, whose
            # columns span what those of D = U P V span (a section)
            parts.append((dec.U @ L, rel.rhs, dec.D))
        else:
            if U_inv is None:
                U_inv = solve(dec.U, Matrix.identity(ring, n))
            parts.append((L, rel.rhs @ U_inv, mod))
    slack_sizes = [0 if mod is None else mod.cols for _, _, mod in parts]
    X = [[0] * n for _ in range(var.rows)]
    for dj in sorted(set(d)):
        cols = [j for j in range(n) if d[j] == dj]
        blocks: dict[tuple[int, int], Matrix] = {}
        rhs: list[tuple[int, ...]] = []
        for r, (L, target, mod) in enumerate(parts):
            blocks[(r, 0)] = L if target is not None else L.scale(dj)
            if mod is not None:
                blocks[(r, 1 + r)] = -mod
            rhs += ([tuple([row[j] for j in cols]) for row in target.data]
                    if target is not None else [(0,) * len(cols)] * L.rows)
        system = Matrix.assemble(ring, [L.rows for L, _, _ in parts],
                                 [var.rows] + slack_sizes, blocks)
        sol = solve(system, _from_canonical(ring, len(rhs), len(cols),
                                            tuple(rhs)))
        if sol is None:
            return None
        for i in range(var.rows):
            for c, j in enumerate(cols):
                X[i][j] = sol[i, c]
    X_prime = _from_canonical(ring, var.rows, n,
                              tuple([tuple(row) for row in X]))
    return {var.name: X_prime @ dec.U}


def _solve_flattened(ring: RingSpec, variables: list[MapVariable],
                     relations: list[MatrixRelation],
                     ) -> dict[str, Matrix] | None:
    """The coupled route: one Kronecker-flattened system for everything."""
    var_offset: dict[str, int] = {}
    width = 0
    for v in variables:
        var_offset[v.name] = width
        width += v.rows * v.cols
    slack_offset: list[int] = []
    for rel in relations:
        slack_offset.append(width)
        if _modulus(rel) is not None:
            width += rel.mod.cols * rel.rhs.cols

    height = sum(rel.rhs.rows * rel.rhs.cols for rel in relations)
    rows: list[list[int]] = [[0] * width for _ in range(height)]
    rhs_col: list[list[int]] = [[0] for _ in range(height)]

    row0 = 0
    for ridx, rel in enumerate(relations):
        block_h = rel.rhs.rows * rel.rhs.cols
        for coeff, L, name, R in rel.terms:
            blk = R.transpose().kron(L)
            off = var_offset[name]
            for i in range(block_h):
                trow = rows[row0 + i]
                brow = blk.data[i]
                for j in range(blk.cols):
                    if brow[j]:
                        trow[off + j] += coeff * brow[j]
        if _modulus(rel) is not None:
            blk = Matrix.identity(ring, rel.rhs.cols).kron(rel.mod)
            off = slack_offset[ridx]
            for i in range(block_h):
                trow = rows[row0 + i]
                brow = blk.data[i]
                for j in range(blk.cols):
                    if brow[j]:
                        trow[off + j] -= brow[j]
        v = rel.rhs.vec()
        for i in range(block_h):
            rhs_col[row0 + i][0] = v[i, 0]
        row0 += block_h

    system = Matrix(ring, height, width, rows)
    target = Matrix(ring, height, 1, rhs_col)
    sol = solve(system, target)
    if sol is None:
        return None
    out: dict[str, Matrix] = {}
    for v in variables:
        off = var_offset[v.name]
        vec = sol.submatrix(range(off, off + v.rows * v.cols), [0])
        out[v.name] = Matrix.unvec(ring, vec, v.rows, v.cols)
    return out
