"""Smith normal form and solver tests against independent oracles."""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from chaincert.exact import snf as snf_module
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import PresentedModule, direct_sum
from chaincert.exact.rings import ZZ, Zmod
from chaincert.exact.snf import kernel_matrix, snf, solve

from oracles import det, is_invertible, kron, kron_blocks_by_loops


def from_rows(ring, entries) -> Matrix:
    """The matrix with rows ``entries``."""
    rows = len(entries)
    return Matrix(ring, rows, len(entries[0]) if rows else 0, entries)


def divides(ring, a: int, b: int) -> bool:
    """True iff b is a multiple of a in ``ring``."""
    a, b = ring.canon(a), ring.canon(b)
    if ring.modulus is None:
        return b == 0 if a == 0 else b % a == 0
    return b % gcd(a, ring.modulus) == 0


def minor_gcd_invariants(M: Matrix) -> list[int]:
    """Invariant factors via determinantal divisors: d_k = D_k / D_{k-1}.

    Brute-force oracle over Z: D_k is the gcd of all k x k minors.
    Independent of the elimination code path.
    """
    assert M.ring == ZZ
    out = []
    prev = 1
    for k in range(1, min(M.rows, M.cols) + 1):
        minors = []
        for ri in itertools.combinations(range(M.rows), k):
            for ci in itertools.combinations(range(M.cols), k):
                minors.append(abs(det(M.submatrix(ri, ci))))
        dk = 0
        for m in minors:
            dk = gcd(dk, m)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


def check_snf_contract(M: Matrix) -> None:
    res = snf(M)
    assert res.U @ M @ res.V == res.D
    assert is_invertible(res.U)
    assert is_invertible(res.V)
    diag = res.diagonal
    for i in range(min(M.rows, M.cols)):
        for j in range(M.cols):
            if i != j and i < res.D.rows and j < res.D.cols:
                assert res.D[i, j] == 0
    nonzero = [d for d in diag if d != 0]
    assert diag[: len(nonzero)] == nonzero, "zeros must trail"
    for a, b in zip(nonzero, nonzero[1:]):
        assert divides(M.ring, a, b)


def test_snf_diag_2_3_over_Z():
    M = from_rows(ZZ, [[2, 0], [0, 3]])
    assert minor_gcd_invariants(M) == [1, 6]
    res = snf(M)
    check_snf_contract(M)
    assert res.diagonal == [1, 6]


def test_snf_zero_matrix():
    M = Matrix.zero(ZZ, 2, 3)
    res = snf(M)
    assert res.D.is_zero()
    assert res.U.is_identity()
    assert res.V.is_identity()


def test_snf_identity():
    M = Matrix.identity(ZZ, 3)
    res = snf(M)
    assert res.D.is_identity()


def test_snf_matches_minor_oracle_on_samples():
    samples = [
        [[4, 6], [6, 4]],
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[1, 2], [3, 4], [5, 6]],
        [[0, 0], [0, 5]],
        [[6]],
    ]
    for rows in samples:
        M = from_rows(ZZ, rows)
        res = snf(M)
        check_snf_contract(M)
        assert res.invariant_factors() == minor_gcd_invariants(M)


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        M = Matrix.zero(ZZ, rows, cols)
        check_snf_contract(M)


def test_snf_zmod_canonical_divisors():
    M = from_rows(Zmod(6), [[4]])
    res = snf(M)
    check_snf_contract(M)
    # 4 = 5 * 2 mod 6 with 5 a unit, so the canonical invariant factor is 2
    assert res.diagonal == [2]


def test_snf_deterministic():
    M = from_rows(ZZ, [[3, 1, 4], [1, 5, 9], [2, 6, 5]])
    a, b = snf(M), snf(Matrix(M.ring, M.rows, M.cols, M.data))
    assert (a.U, a.D, a.V) == (b.U, b.D, b.V)


def test_matrix_is_factored_once(monkeypatch):
    calls = []
    original = snf_module._snf_lists

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(snf_module, "_snf_lists", counting)
    rel = from_rows(ZZ, [[2, 0], [0, 3], [4, 6]])
    module = PresentedModule(ZZ, 3, rel)
    for _ in range(3):
        assert solve(rel, from_rows(ZZ, [[2], [3], [10]])) is not None
        assert kernel_matrix(rel).cols == 0
        assert module.minimal_invariants() == (1, (6,))
    assert len(calls) == 1
    snf(Matrix(ZZ, 3, 2, rel.data))  # an equal matrix is a new object
    assert len(calls) == 2


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)])
def test_no_columns_needs_no_smith_form(monkeypatch, ring):
    def refuse(*args):
        raise RuntimeError("factored a matrix with no columns")

    monkeypatch.setattr(snf_module, "_snf_lists", refuse)
    A = Matrix.zero(ring, 3, 0)
    assert solve(A, Matrix.zero(ring, 3, 2)) == Matrix.zero(ring, 0, 2)
    assert solve(A, from_rows(ring, [[0], [1], [0]])) is None
    assert kernel_matrix(A) == Matrix(ring, 0, 0)
    assert PresentedModule(ring, 3).minimal_invariants() == (3, ())
    assert solve(Matrix.zero(ring, 0, 0), Matrix.zero(ring, 0, 1)) \
        == Matrix.zero(ring, 0, 1)


def test_factored_matrix_equals_fresh_copy():
    M = from_rows(ZZ, [[3, 1], [1, 5]])
    snf(M)
    fresh = Matrix(ZZ, 2, 2, M.data)
    assert M.smith is not None and fresh.smith is None
    assert M == fresh and hash(M) == hash(fresh)


def test_solve_trivial_examples():
    A = from_rows(ZZ, [[2]])
    X = solve(A, from_rows(ZZ, [[4]]))
    assert X == from_rows(ZZ, [[2]])
    assert solve(A, from_rows(ZZ, [[1]])) is None


def test_solve_mod3_brute_force_oracle():
    ring = Zmod(3)
    A = from_rows(ring, [[2]])
    b = from_rows(ring, [[1]])
    expected = [x for x in range(3) if (2 * x) % 3 == 1]
    assert expected == [2]
    X = solve(A, b)
    assert X is not None and X[0, 0] == 2


def test_solve_shape_mismatch():
    A = from_rows(ZZ, [[1, 2]])
    b = from_rows(ZZ, [[1], [2]])
    with pytest.raises(ValueError):
        solve(A, b)


def brute_force_has_solution(A: Matrix, b: Matrix, bound: int) -> bool:
    if A.ring.is_modular:
        space = range(A.ring.modulus)
    else:
        space = range(-bound, bound + 1)
    for combo in itertools.product(space, repeat=A.cols):
        X = Matrix(A.ring, A.cols, 1, [[c] for c in combo])
        if (A @ X) == b:
            return True
    return False


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def small_matrix(draw, ring, max_dim=3):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    entries = [[draw(small_entries) for _ in range(cols)] for _ in range(rows)]
    return Matrix(ring, rows, cols, entries)


@settings(max_examples=60, deadline=None)
@given(small_matrix(ZZ))
def test_snf_contract_random_Z(M):
    check_snf_contract(M)
    assert snf(M).invariant_factors() == minor_gcd_invariants(M)


@settings(max_examples=60, deadline=None)
@given(small_matrix(Zmod(6)))
def test_snf_contract_random_Zmod6(M):
    check_snf_contract(M)


@settings(max_examples=40, deadline=None)
@given(small_matrix(ZZ, max_dim=3), st.data())
def test_solve_agrees_with_brute_force_Z(A, data):
    b_entries = [[data.draw(small_entries)] for _ in range(A.rows)]
    b = Matrix(ZZ, A.rows, 1, b_entries)
    X = solve(A, b)
    if X is not None:
        assert A @ X == b
    else:
        # bounding box oracle on <= 3x3 systems
        assert not brute_force_has_solution(A, b, bound=8)


@settings(max_examples=40, deadline=None)
@given(small_matrix(Zmod(4), max_dim=2), st.data())
def test_solve_agrees_with_exhaustion_Zmod4(A, data):
    b_entries = [[data.draw(small_entries)] for _ in range(A.rows)]
    b = Matrix(Zmod(4), A.rows, 1, b_entries)
    X = solve(A, b)
    if X is not None:
        assert A @ X == b
    else:
        assert not brute_force_has_solution(A, b, bound=0)


@settings(max_examples=50, deadline=None)
@given(small_matrix(ZZ, max_dim=3))
def test_kernel_generates_null_space_Z(A):
    K = kernel_matrix(A)
    assert (A @ K).is_zero()
    # every small null vector must be an integer combination of the columns
    if A.cols and A.cols <= 2:
        for combo in itertools.product(range(-3, 4), repeat=A.cols):
            x = Matrix(ZZ, A.cols, 1, [[c] for c in combo])
            if (A @ x).is_zero():
                assert solve(K, x) is not None


@settings(max_examples=50, deadline=None)
@given(small_matrix(Zmod(6), max_dim=2))
def test_kernel_generates_null_space_Zmod6(A):
    K = kernel_matrix(A)
    assert (A @ K).is_zero()
    if A.cols and A.cols <= 2:
        for combo in itertools.product(range(6), repeat=A.cols):
            x = Matrix(Zmod(6), A.cols, 1, [[c] for c in combo])
            if (A @ x).is_zero():
                assert solve(K, x) is not None


# -- canonical by construction ------------------------------------------


def assert_canonical(M: Matrix) -> None:
    """M holds tuples of its stated shape, with entries the public
    constructor would not change."""
    assert type(M.data) is tuple and len(M.data) == M.rows
    assert all(type(row) is tuple and len(row) == M.cols for row in M.data)
    assert M.data == Matrix(M.ring, M.rows, M.cols, M.to_lists()).data


wide_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrix_of(draw, ring, rows, cols):
    return Matrix(ring, rows, cols,
                  [[draw(wide_entries) for _ in range(cols)]
                   for _ in range(rows)])


def indices(size):
    return st.lists(st.integers(0, size - 1), max_size=3) if size \
        else st.just([])


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_operations_build_canonical_matrices(ring, data):
    dim = st.integers(min_value=0, max_value=3)
    r, c, k = data.draw(dim), data.draw(dim), data.draw(dim)
    A, B = data.draw(matrix_of(ring, r, c)), data.draw(matrix_of(ring, r, c))
    C, E = data.draw(matrix_of(ring, c, k)), data.draw(matrix_of(ring, r, k))
    s = data.draw(wide_entries)
    results = [
        A + B, A - B, -A, A.scale(s), A @ C,
        Matrix.kron_blocks(ring, [r * c, k * r], [c * k, k * r],
                           [(0, 0, s, A, C), (0, 0, -1, A, C),
                            (1, 1, 1, k, r), (1, 1, s, k, r)]),
        A.transpose(),
        A.hstack(E), A.vstack(B),
        A.submatrix(data.draw(indices(r)), data.draw(indices(c))),
        A.submatrix(range(r), range(c)), A.vec(),
        Matrix.unvec(ring, A.vec(), r, c),
        Matrix.block_diagonal(ring, [A, C]),
        Matrix.assemble(ring, [r, c], [c, k], {(0, 0): A, (1, 1): C}),
        Matrix.identity(ring, k), Matrix.zero(ring, r, c), kernel_matrix(A)]
    dec = snf(A)
    results += [dec.U, dec.D, dec.V]
    X = solve(A, A @ C)
    assert X is not None and A @ X == A @ C
    results.append(X)
    Y = solve(A, E)
    if Y is not None:
        results.append(Y)
    _, injections, projections = direct_sum(
        [PresentedModule(ring, r, A), PresentedModule(ring, c, C)])
    results += [f.action for f in injections + projections]
    for M in results:
        assert_canonical(M)


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kron_blocks_matches_the_dense_loops(ring, data):
    # each row block factors as ra * rb and each column block as ca * cb,
    # so a term in block (bi, bj) is an ra x ca matrix times an rb x cb
    # one, either given by its size when it is square; sizes 0 give the
    # 0 x n and n x 0 blocks, and drawn blocks often take several terms
    dim = st.integers(min_value=0, max_value=2)
    row_f = data.draw(st.lists(st.tuples(dim, dim), min_size=1, max_size=3))
    col_f = data.draw(st.lists(st.tuples(dim, dim), min_size=1, max_size=3))

    def factor(rows, cols):
        if rows == cols and data.draw(st.booleans()):
            return rows
        return data.draw(matrix_of(ring, rows, cols))

    terms = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
        bi = data.draw(st.integers(0, len(row_f) - 1))
        bj = data.draw(st.integers(0, len(col_f) - 1))
        (ra, rb), (ca, cb) = row_f[bi], col_f[bj]
        terms.append((bi, bj, data.draw(wide_entries), factor(ra, ca),
                      factor(rb, cb)))
    row_sizes = [a * b for a, b in row_f]
    col_sizes = [a * b for a, b in col_f]
    M = Matrix.kron_blocks(ring, row_sizes, col_sizes, terms)
    assert_canonical(M)
    assert M == kron_blocks_by_loops(ring, row_sizes, col_sizes, terms)


def test_kron_blocks_by_hand():
    ring = Zmod(6)
    A = Matrix(ring, 1, 2, [[1, 5]])
    # -(A (x) I_2) in the top right block of a 2+0 by 0+4 matrix
    M = Matrix.kron_blocks(ring, [2, 0], [0, 4], [(0, 1, -1, A, 2)])
    assert M.data == ((5, 0, 1, 0), (0, 5, 0, 1))
    # two terms on one block: I_2 (x) A - A (x) I_2 over Z
    B = Matrix(ZZ, 1, 2, [[1, 2]])
    M = Matrix.kron_blocks(ZZ, [2], [4], [(0, 0, 1, 2, B), (0, 0, -1, B, 2)])
    assert M == kron(Matrix.identity(ZZ, 2), B) - kron(B, Matrix.identity(ZZ, 2))
    assert M.data == ((0, 2, -2, 0), (0, -1, 1, 0))
    assert Matrix.kron_blocks(ZZ, [0, 3], [2], []) == Matrix.zero(ZZ, 3, 2)
    # I_0 (x) a 2 x 2 matrix is the empty block
    M = Matrix.kron_blocks(ZZ, [0, 1], [0, 1], [(0, 0, 1, 0, B.vstack(B)),
                                                (1, 1, 7, 1, 1)])
    assert M == Matrix(ZZ, 1, 1, [[7]])
    with pytest.raises(ValueError, match="wrong shape"):
        Matrix.kron_blocks(ZZ, [2], [3], [(0, 0, 1, 2, B)])
    with pytest.raises(ValueError, match="negative"):
        Matrix.kron_blocks(ZZ, [1], [1], [(0, 0, 1, -1, -1)])


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacking_all_blocks_agrees_with_assemble(ring, data):
    dim = st.integers(min_value=0, max_value=3)
    n = data.draw(dim)
    sizes = data.draw(st.lists(dim, max_size=4))
    wide = [data.draw(matrix_of(ring, n, k)) for k in sizes]
    tall = [data.draw(matrix_of(ring, k, n)) for k in sizes]
    H = Matrix.hstack_all(ring, n, wide)
    V = Matrix.vstack_all(ring, n, tall)
    assert H == Matrix.assemble(ring, [n], sizes,
                                {(0, j): b for j, b in enumerate(wide)})
    assert V == Matrix.assemble(ring, sizes, [n],
                                {(i, 0): b for i, b in enumerate(tall)})
    assert (H.rows, H.cols, V.rows, V.cols) == (n, sum(sizes), sum(sizes), n)
    assert_canonical(H)
    assert_canonical(V)
    if sizes:
        with pytest.raises(ValueError):
            Matrix.hstack_all(ring, n + 1, wide)
        with pytest.raises(ValueError):
            Matrix.vstack_all(ring, n + 1, tall)


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_stacking_zero_shapes_agrees_with_assemble(ring):
    """Zero-row and zero-column blocks, and none at all: the row tuples
    concatenate to what assemble's zero fill gives."""
    def block(rows, cols):
        return Matrix(ring, rows, cols,
                      [[3 * i - 5 * j + 7 for j in range(cols)]
                       for i in range(rows)])

    for n, sizes in ((0, [2, 0, 3]), (2, [0, 0]), (0, []), (3, []),
                     (2, [0, 1, 0, 2]), (0, [0])):
        wide = [block(n, k) for k in sizes]
        tall = [block(k, n) for k in sizes]
        H = Matrix.hstack_all(ring, n, wide)
        V = Matrix.vstack_all(ring, n, tall)
        assert H == Matrix.assemble(ring, [n], sizes,
                                    {(0, j): b for j, b in enumerate(wide)})
        assert V == Matrix.assemble(ring, sizes, [n],
                                    {(i, 0): b for i, b in enumerate(tall)})
        assert (H.rows, H.cols, V.rows, V.cols) == \
            (n, sum(sizes), sum(sizes), n)
        assert all(len(row) == H.cols for row in H.data)
        assert all(len(row) == V.cols for row in V.data)
        assert_canonical(H)
        assert_canonical(V)


def test_public_constructor_checks_shape_and_reduces():
    with pytest.raises(ValueError):
        Matrix(ZZ, 2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(ZZ, 2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        Matrix(ZZ, -1, 0)
    assert Matrix(Zmod(6), 1, 3, [[7, -1, 12]]).data == ((1, 5, 0),)
    assert Matrix(ZZ, 1, 2, [[7, -1]]).data == ((7, -1),)


def test_combining_matrices_needs_one_ring():
    A, B = Matrix.identity(ZZ, 2), Matrix.identity(Zmod(6), 2)
    for op in (lambda: A + B, lambda: A @ B, lambda: A.hstack(B),
               lambda: A.vstack(B),
               lambda: Matrix.kron_blocks(ZZ, [4], [4], [(0, 0, 1, A, B)]),
               lambda: Matrix.block_diagonal(ZZ, [A, B]),
               lambda: Matrix.assemble(ZZ, [2], [2], {(0, 0): B}),
               lambda: Matrix.hstack_all(ZZ, 2, [A, B]),
               lambda: Matrix.vstack_all(ZZ, 2, [A, B]),
               lambda: Matrix.unvec(ZZ, B.vec(), 2, 2)):
        with pytest.raises(ValueError):
            op()


def test_rings_are_interned_and_compare_by_value():
    from chaincert.exact.rings import RingSpec

    assert Zmod(6) is Zmod(6)
    assert RingSpec.from_json({"kind": "Zmod", "modulus": 6}) is Zmod(6)
    assert RingSpec.from_json({"kind": "Z"}) is ZZ
    with pytest.raises(ValueError, match="no modulus"):
        RingSpec.from_json({"kind": "Z", "modulus": 3})
    direct = RingSpec("Zmod", 6)
    assert direct == Zmod(6) and hash(direct) == hash(Zmod(6))
    assert Zmod(4) != Zmod(6) and Zmod(6) != ZZ
    for bad in ("6", 6.5, 6.0, True, 1):
        with pytest.raises(ValueError):
            Zmod(bad)
