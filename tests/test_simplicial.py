"""Denormalization, normalization, degreewise tensor, EZ/AW identities."""

import importlib.util
import itertools
import json
import os
import random
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chaincert.chains.build import (concentrated, direct_sum_complexes, disk,
                                    interval, sphere)
from chaincert.certify import SUITES, CertifyConfig
from chaincert.chains.complexes import (ChainComplex, ChainHomotopy, ChainMap,
                                        Retractions, chain_map_equal)
from chaincert.chains.homotopy import (cokernel_contraction,
                                       is_chain_homotopy_equivalence)
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import map_equal, ModuleMap, PresentedModule
from chaincert.errors import CertificateError
from chaincert.exact.rings import ZZ, Zmod
from chaincert.io.document import parse_chain_complex
from chaincert.models.generators import random_chain_map, random_complex
from chaincert.simplicial import levels as levels_module
from chaincert.simplicial.levels import (GammaLevels, TensorLevels, act,
                                         face_plan, pair_layout, parts_plan,
                                         relation_plan,
                                         verify_simplicial_identities)
from chaincert.simplicial.module import (SimplicialMap, constant_module,
                                         degreewise_tensor, end_inclusion,
                                         gamma, gamma_map, interval_object,
                                         normalize, tensor_normalized_map,
                                         tensor_normalized_parts)
from chaincert.simplicial.ez_aw import aw, ez, find_ez_aw_homotopy
from chaincert.simplicial.surjections import codegeneracy, coface, shuffles

from oracles import (degeneracy_matrix, dense_aw, dense_ez,
                     dense_normalized_quotient, dense_tensor_normalized_map,
                     face_matrix, full_injection, level_matrix, level_module,
                     normalized_kernel, normalized_projector,
                     scanned_nondegenerate, structure_matrix, summand_image,
                     surjections)


PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_surjection_counts():
    for n in range(5):
        assert len(surjections(n)) == 2 ** n
        for k in range(n + 1):
            count = sum(1 for eta in surjections(n) if eta[-1] == k)
            assert count == comb(n, k)


def test_gamma_constant_module():
    c = constant_module(ZZ)
    for n in range(4):
        assert c.level_rank(n) == 1


def test_gamma_sphere_level_ranks():
    A = gamma(sphere(ZZ, 1), cap=4)
    assert [A.level_rank(n) for n in range(5)] == [0, 1, 2, 3, 4]


def test_gamma_disk_level_ranks():
    A = gamma(disk(ZZ, 1), cap=4)
    assert [A.level_rank(n) for n in range(5)] == [1, 2, 3, 4, 5]


def test_simplicial_identities_on_gamma():
    for C in (disk(ZZ, 1), sphere(ZZ, 2), interval(ZZ)):
        verify_simplicial_identities(GammaLevels(C), 4)


def test_roundtrip_exact_on_examples():
    for C in (disk(ZZ, 1), sphere(ZZ, 2), interval(ZZ)):
        A = gamma(C)
        assert normalize(A) == C


def test_roundtrip_exact_on_random_complexes():
    rng = random.Random(99)
    for ring in (ZZ, Zmod(6)):
        for _ in range(5):
            C = random_complex(ring, rng, max_top=3, max_rank=3)
            A = gamma(C)
            assert normalize(A) == C


def test_kernel_normalization_agrees_with_quotient():
    rng = random.Random(5)
    for _ in range(3):
        C = random_complex(ZZ, rng, max_top=2, max_rank=3)
        A = gamma(C)
        K, incls = normalized_kernel(A.levels, A.normalized.top)
        Q = normalize(A)
        assert K.top >= Q.top or all(
            K.module(n).is_zero_module() for n in range(Q.top + 1, K.top + 1))
        for n in range(Q.top + 1):
            assert K.module(n).minimal_invariants() == \
                Q.module(n).minimal_invariants()
        # the inclusions really land in every positive-face kernel
        for n in range(1, K.top + 1):
            for i in range(1, n + 1):
                img = face_matrix(A.levels, n, i) @ incls[n].action
                assert (ModuleMap(K.module(n), level_module(A.levels, n - 1),
                                  img, check=False)).is_zero()


def test_projector_properties():
    C = disk(ZZ, 1)
    lev = GammaLevels(C)
    for n in range(1, 4):
        P = normalized_projector(lev, n)
        assert P @ P == P
        # kills every degeneracy image
        for j in range(n):
            assert (P @ degeneracy_matrix(lev, n - 1, j)).is_zero()
        # restricts to the identity on the non-degenerate block
        inj = full_injection(lev, n)
        assert P @ inj == inj


def test_gamma_map_levels_commute_with_structure():
    C, D = disk(ZZ, 1), sphere(ZZ, 1)
    A, B = gamma(C, cap=3), gamma(D, cap=3)
    cms_map = ChainMap(C, D, [
        ModuleMap.zero_map(C.module(0), D.module(0)),
        ModuleMap(C.module(1), D.module(1), Matrix(ZZ, 1, 1, [[5]])),
    ])
    f = gamma_map(cms_map, A, B)
    for n in range(1, 3):
        for i in range(n + 1):
            lhs = level_matrix(f, n - 1) @ face_matrix(A.levels, n, i)
            rhs = face_matrix(B.levels, n, i) @ level_matrix(f, n)
            assert lhs == rhs
    for n in range(2):
        for j in range(n + 1):
            lhs = level_matrix(f, n + 1) @ degeneracy_matrix(A.levels, n, j)
            rhs = degeneracy_matrix(B.levels, n, j) @ level_matrix(f, n)
            assert lhs == rhs


def test_tensor_unit_law_is_literal():
    A = gamma(disk(ZZ, 1))
    T = degreewise_tensor(constant_module(ZZ), A)
    assert T.normalized == A.normalized


def test_tensor_sphere_sphere_ranks():
    S = gamma(sphere(ZZ, 1), cap=4)
    T = degreewise_tensor(S, S)
    assert T.level_rank(2) == 4
    ranks = [T.normalized.module(n).generators for n in range(T.top + 1)]
    assert ranks == [0, 1, 2]
    # rank transform: level ranks match binomial-weighted normalized ranks
    for n in range(4):
        expected = sum(comb(n, k) * T.normalized.module(k).generators
                       for k in range(n + 1))
        assert T.level_rank(n) == expected


def test_tensor_rank_transform_with_torsion():
    rng = random.Random(12)
    A = gamma(random_complex(Zmod(6), rng, max_top=1, max_rank=2))
    B = gamma(random_complex(Zmod(6), rng, max_top=1, max_rank=2))
    T = degreewise_tensor(A, B)
    for n in range(T.top + 2):
        lvl = level_module(T.levels, n).minimal_invariants()
        pieces = []
        for k in range(min(n, T.top) + 1):
            pieces += [T.normalized.module(k)] * comb(n, k)
        rank = sum(p.minimal_invariants()[0] for p in pieces)
        factors = sorted(f for p in pieces for f in p.minimal_invariants()[1])
        assert lvl == (rank, tuple(factors))


def test_ez_aw_degree_zero_identity():
    A = gamma(disk(ZZ, 1))
    B = gamma(disk(ZZ, 1))
    T = degreewise_tensor(A, B)
    E, W = ez(A, B, T), aw(A, B, T)
    assert E.component(0).action.is_identity()
    assert W.component(0).action.is_identity()


def test_ez_bidegree_1_0_single_shuffle():
    assert len(shuffles(1, 0)) == 1
    sh = shuffles(1, 0)[0]
    assert sh.mu == (0,) and sh.nu == () and sh.sign == 1
    A = gamma(sphere(ZZ, 1), cap=3)
    B = constant_module(ZZ)
    T = degreewise_tensor(A, B)
    E = ez(A, B, T)
    # x (x) y -> x (x) s_0 y, a single unsigned block
    assert E.component(1).action == Matrix(ZZ, 1, 1, [[1]])


def test_aw_ez_is_identity():
    pairs = [(disk(ZZ, 1), disk(ZZ, 1)), (sphere(ZZ, 1), sphere(ZZ, 1)),
             (disk(ZZ, 1), sphere(ZZ, 1))]
    for CA, CB in pairs:
        A, B = gamma(CA), gamma(CB)
        T = degreewise_tensor(A, B)
        E, W = ez(A, B, T), aw(A, B, T)
        composite = W.compose(E)
        assert chain_map_equal(composite, ChainMap.identity(E.source))


def test_ez_aw_homotopy_witness():
    A = gamma(disk(ZZ, 1))
    B = gamma(sphere(ZZ, 1))
    T = degreewise_tensor(A, B)
    # the constructor validates the relation
    H = find_ez_aw_homotopy(ez(A, B, T), aw(A, B, T))
    assert H is not None


def test_ez_aw_constant_pair_needs_no_homotopy():
    c = constant_module(ZZ)
    T = degreewise_tensor(c, c)
    E, W = ez(c, c, T), aw(c, c, T)
    assert chain_map_equal(E.compose(W), ChainMap.identity(T.normalized))
    H = find_ez_aw_homotopy(E, W)
    for part in H.parts:
        assert part.action.is_zero()


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_ez_decided_by_its_retraction_as_by_the_cone(ring):
    """On the pinned ez-aw suite inputs, EZ with its retraction AW is an
    equivalence by both routes, and `find_ez_aw_homotopy` returns the
    contraction of coker EZ as a homotopy from EZ o AW to the identity."""
    seed = 20260809  # tests/test_acceptance.py, criterion 2
    cfg = CertifyConfig("ez-aw", seed=seed, cases=1, ring=ring)
    for index in range(6):
        case = SUITES["ez-aw"].generate(
            random.Random(seed * 1_000_003 + index), cfg)
        A = gamma(parse_chain_complex(ring, case["a"], "a"), verify=False)
        B = gamma(parse_chain_complex(ring, case["b"], "b"), verify=False)
        T = degreewise_tensor(A, B)
        E, W = ez(A, B, T), aw(A, B, T)
        found = cokernel_contraction(
            Retractions(E, dict(enumerate(W.parts))))
        assert found is not None
        ChainHomotopy(E.compose(W), ChainMap.identity(T.normalized),
                      found.parts)  # the checked constructor
        assert is_chain_homotopy_equivalence(E) is not None
        H = find_ez_aw_homotopy(E, W)
        assert all(map_equal(a, b) for a, b in zip(H.parts, found.parts))


def test_ez_aw_homotopy_refuses_a_wrong_retraction():
    A, B = gamma(disk(ZZ, 1)), gamma(sphere(ZZ, 1))
    T = degreewise_tensor(A, B)
    E, W = ez(A, B, T), aw(A, B, T)
    with pytest.raises(CertificateError, match="AW o EZ failed"):
        find_ez_aw_homotopy(E, W + W)


def test_end_inclusions_and_ez_compatibility():
    A = gamma(disk(ZZ, 1))
    I_obj = interval_object(ZZ)
    T = degreewise_tensor(A, I_obj)
    i0 = end_inclusion(A, T, 0)
    i1 = end_inclusion(A, T, 1)
    # EZ composed with the chain-level end inclusion equals N(iota_end)
    from chaincert.chains.tensor import interval_cylinder

    lay, c0, c1, r = interval_cylinder(A.normalized, interval(ZZ))
    E = ez(A, I_obj, T)
    assert chain_map_equal(E.compose(c0), i0.normalized_map)
    assert chain_map_equal(E.compose(c1), i1.normalized_map)


def test_tensor_normalized_map_functorial():
    C, D = disk(ZZ, 1), sphere(ZZ, 1)
    A, B = gamma(C), gamma(D)
    f = gamma_map(ChainMap.identity(C), A, A)
    g = gamma_map(ChainMap.identity(D), B, B)
    T = degreewise_tensor(A, B)
    n_map = tensor_normalized_map(f, g, T, T)
    assert chain_map_equal(n_map, ChainMap.identity(T.normalized))


# -- whole level matrices as the oracle of the sparse reads ------------------


def _dense(ring, rows, width):
    """Sparse rows as a matrix with ``width`` columns."""
    out = [[0] * width for _ in rows]
    for acc, row in zip(out, rows):
        for j, v in row:
            acc[j] += v
    return Matrix(ring, len(rows), width, out)


def _torsion_complex(ring):
    """R/2 in degree 1 beside the disk D^1."""
    pieces = [concentrated(PresentedModule.cyclic(ring, 2), 1), disk(ring, 1)]
    return direct_sum_complexes(pieces)[0]


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_row_selected_levels_agree_with_full_matrices(ring):
    rng = random.Random(23)
    A = gamma(_torsion_complex(ring))
    B = gamma(random_complex(ring, rng, max_top=1, max_rank=2))
    AB = degreewise_tensor(A, B)
    for T in (A, AB):
        levels, top = T.levels, T.top
        assert any(level_module(levels, n).relations.cols
                   for n in range(top + 1))
        for n in range(top + 2):
            full = scanned_nondegenerate(levels, n)
            assert levels.rank(n) == level_module(levels, n).generators
            assert levels.nondegenerate_coords(n) == full
        assert T.normalized == dense_normalized_quotient(levels, top)
    # the sparse reads of Gamma(C), which EZ and AW use
    levels = A.levels
    for n in range(A.top + 2):
        if not n:
            continue
        rows = scanned_nondegenerate(levels, n - 1)
        for i in range(n + 1):
            F = face_matrix(levels, n, i)
            assert _dense(ring, levels.operator_rows(
                n, coface(n, i), rows), F.cols) == \
                F.submatrix(rows, range(F.cols))
        for p in range(n):
            for alpha in (tuple(range(p + 1)), tuple(range(n - p, n + 1))):
                M = structure_matrix(levels, n, alpha)
                assert _dense(ring, levels.operator_rows(
                    n, alpha, range(M.rows)), M.cols) == M
        for j in range(n):
            S = degeneracy_matrix(levels, n - 1, j)
            image = levels.degenerate(n - 1, codegeneracy(n - 1, j),
                                      range(S.cols))
            assert S == _dense(ring, [[(c, 1) for c, r in enumerate(image)
                                       if r == t] for t in range(S.rows)],
                               S.cols)
    assert normalize(A) == dense_normalized_quotient(levels, A.top)


def _drawn_complex(ring, rng):
    """A drawn complex with a torsion summand R/2 or R/3 in degree 0 or 1,
    whose relations carry a zero column half of the time."""
    d = rng.choice((2, 3))
    width = rng.randint(1, 2)
    torsion = concentrated(PresentedModule(ring, 1, Matrix(
        ring, 1, width, [[d] + [0] * (width - 1)])), rng.randint(0, 1))
    return direct_sum_complexes(
        [random_complex(ring, rng, max_top=1, max_rank=2), torsion])[0]


def _same_actions(f, g):
    top = max(f.source.top, f.target.top, g.source.top, g.target.top)
    return all(f.component(n).action == g.component(n).action
               for n in range(top + 1))


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_sparse_constructions_equal_the_dense_oracles(ring, seed):
    rng = random.Random(seed)
    X, Y = _drawn_complex(ring, rng), _drawn_complex(ring, rng)
    A, B = gamma(X, verify=False), gamma(Y, verify=False)
    for G in (A, B):
        assert normalize(G) == dense_normalized_quotient(G.levels, G.top)
    T = degreewise_tensor(A, B)
    for n in range(T.top + 2):
        assert T.levels.nondegenerate_coords(n) == \
            scanned_nondegenerate(T.levels, n)
    assert T.normalized == dense_normalized_quotient(T.levels, T.top)
    assert _same_actions(ez(A, B, T), dense_ez(A, B, T))
    assert _same_actions(aw(A, B, T), dense_aw(A, B, T))
    f = gamma_map(random_chain_map(X, X, rng), A, A)
    Y2 = random_complex(ring, rng, max_top=1, max_rank=2)
    g = gamma_map(random_chain_map(Y, Y2, rng), B)
    tgtT = degreewise_tensor(A, g.target)
    assert _same_actions(tensor_normalized_map(f, g, T, tgtT),
                         dense_tensor_normalized_map(f, g, T, tgtT))
    # None stands for the identity of the factor that T and tgtT share
    assert [p.action for p in tensor_normalized_parts(
        None, g.normalized_map.parts, T, tgtT)] == [
        p.action for p in dense_tensor_normalized_map(_identity(A), g, T,
                                                      tgtT).parts]
    # a disk up to D^5 beside a sphere, and a map on the disk
    C = gamma(sphere(ring, rng.randint(0, 1)), verify=False)
    D = disk(ring, rng.randint(1, 5))
    GD = gamma(D, verify=False)
    DC = degreewise_tensor(GD, C)
    for n in range(DC.top + 2):
        assert DC.levels.nondegenerate_coords(n) == \
            scanned_nondegenerate(DC.levels, n)
    assert DC.normalized == dense_normalized_quotient(DC.levels, DC.top)
    h = gamma_map(random_chain_map(D, D, rng), GD, GD)
    dense = dense_tensor_normalized_map(h, _identity(C), DC, DC)
    assert _same_actions(tensor_normalized_map(h, _identity(C), DC, DC),
                         dense)
    assert [p.action for p in tensor_normalized_parts(
        h.normalized_map.parts, None, DC, DC)] == [
        p.action for p in dense.parts]


def test_a_tensor_of_a_tensor_is_refused():
    A, B = gamma(disk(ZZ, 1)), gamma(sphere(ZZ, 1))
    with pytest.raises(NotImplementedError, match="denormalizations"):
        degreewise_tensor(degreewise_tensor(A, B), A)


def _identity(A):
    return SimplicialMap(A, A, ChainMap.identity(A.normalized))


class _CorruptedFace(GammaLevels):
    """Gamma levels whose face d_0 : level 1 -> level 0 also reads the
    degenerate coordinate s_0 of level 1."""

    def operator_rows(self, n, alpha, rows):
        out = super().operator_rows(n, alpha, rows)
        if (n, alpha) == (1, coface(1, 0)):
            out = [row + [(0, 1)] for row in out]
        return out


def test_a_corrupted_face_fails_the_descent_check():
    levels = _CorruptedFace(disk(ZZ, 1))
    assert levels.nondegenerate_coords(1) == [1]
    with pytest.raises(ValueError, match="identity fails"):
        verify_simplicial_identities(levels, 2)


def test_act_agrees_with_the_epi_mono_factorization():
    # every order-preserving alpha : [m] -> [n] with m, n <= 6 on every
    # summand of level n; none of it depends on C
    jump_sets = [{eta: tuple(x for x in range(1, n + 1) if eta[x] > eta[x - 1])
                  for eta in surjections(n)} for n in range(7)]
    entries = 0
    for n in range(7):
        for m in range(7):
            for alpha in itertools.combinations_with_replacement(
                    range(n + 1), m + 1):
                for eta, jumps in jump_sets[n].items():
                    expected = summand_image(eta, alpha)
                    if expected is not None:
                        expected = jump_sets[m][expected[0]], expected[1]
                    assert act(alpha, jumps) == expected
                    entries += 1
    assert entries == 290305


def test_operator_rows_visit_only_the_nonzero_summands(monkeypatch):
    # level 11 of Gamma(D^1) has binom(11, 0) + binom(11, 1) = 12 nonzero
    # summands among its 2^11 jump sets
    real = levels_module.act
    calls = []

    def counted(alpha, jumps):
        calls.append(jumps)
        return real(alpha, jumps)

    monkeypatch.setattr(levels_module, "act", counted)
    levels = GammaLevels(disk(ZZ, 1))
    for i in range(12):
        calls.clear()
        rows = levels.operator_rows(11, coface(11, i),
                                    range(levels.rank(10)))
        assert len(rows) == 11
        assert 0 < len(calls) <= comb(11, 0) + comb(11, 1)


PLANS = (levels_module.nonzero_summands, levels_module._face_preimages,
         pair_layout, face_plan, relation_plan, parts_plan)


@pytest.fixture
def cold_plans():
    """Empty plan caches before the test, and again after it, so that no
    plan it compiled outlives it."""
    for plan in PLANS:
        plan.cache_clear()
    yield
    for plan in PLANS:
        plan.cache_clear()


def test_a_corrupted_face_image_fails_the_plan(cold_plans, monkeypatch):
    # d_1 sends the degenerate summand J = () of level 1 to the vertex;
    # without that image the faces of the degenerate pair () x () of
    # Gamma(D^1) (x) c(R) no longer cancel
    A, B = gamma(disk(ZZ, 1)), constant_module(ZZ)
    # their round trips compiled the plans of this very pair
    for plan in PLANS:
        plan.cache_clear()
    real = levels_module.act
    assert real(coface(1, 1), ()) == ((), False)

    def corrupted(alpha, jumps):
        if (alpha, jumps) == (coface(1, 1), ()):
            return None
        return real(alpha, jumps)

    monkeypatch.setattr(levels_module, "act", corrupted)
    with pytest.raises(ValueError, match="degenerate part is not a "
                                         "subcomplex at level 1"):
        degreewise_tensor(A, B)


def test_the_plans_are_process_wide_caches(cold_plans, monkeypatch):
    for plan in PLANS:
        assert vars(levels_module)[plan.__name__] is plan
        assert plan.cache_info().currsize == 0
    D, S = gamma(disk(ZZ, 1)), gamma(sphere(ZZ, 1))
    T = degreewise_tensor(D, S)
    tensor_normalized_map(_identity(D), _identity(S), T, T)
    compiled = {plan: plan.cache_info() for plan in PLANS}
    assert all(info.currsize for info in compiled.values())
    # Z --2--> Z has the shape of D^1 and other entries: the same plans
    # serve it, and agree with the dense oracle
    free = PresentedModule.free(ZZ, 1)
    twice = gamma(ChainComplex(ZZ, [free, free], [
        ModuleMap(free, free, Matrix(ZZ, 1, 1, [[2]]))]))
    T2 = degreewise_tensor(twice, S)
    tensor_normalized_map(_identity(twice), _identity(S), T2, T2)
    for plan, info in compiled.items():
        assert plan.cache_info().currsize == info.currsize
    for plan in (face_plan, relation_plan, parts_plan):
        assert plan.cache_info().hits > compiled[plan].hits
    assert T2.normalized != T.normalized
    assert T2.normalized == dense_normalized_quotient(T2.levels, T2.top)
    # the benchmark's clear_caches starts every round with no plan
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    run.clear_caches()
    assert not any(plan.cache_info().currsize for plan in PLANS)


# the per-coordinate scan, whole levels and relations on chosen
# coordinates, which the level classes no longer have (tests/oracles.py
# builds them), and the coordinate route of a tensor, which normalizes by
# its plans; a stub in their place catches a construction that brings one
# back and reads it
NEVER_READ = (tuple((cls, name) for cls in (GammaLevels, TensorLevels)
                    for name in ("degeneracy_positions", "module", "face",
                                 "degeneracy", "degeneracy_groups",
                                 "relations_on"))
              + tuple((TensorLevels, name) for name in
                      ("operator_rows", "degenerate"))
              + ((SimplicialMap, "level_matrix"),))


@pytest.mark.parametrize("argv", [
    ["certify", "--suite", "monoidal-smod", "--seed", "7", "--cases", "5"],
    ["ez-aw", "--doc", "fixtures/simplicial.json", "--a", "sD1", "--b", "sS1"],
    ["ez-aw", "--doc", "fixtures/simplicial.json", "--a", "sD1", "--b", "sS1",
     "--dual"],
    ["normalize", "--doc", "fixtures/simplicial.json", "--object", "sD1"],
], ids=["monoidal-smod", "ez-aw", "ez-aw-dual", "normalize"])
def test_tensor_normalization_never_scans(monkeypatch, capsys, argv):
    from chaincert.cli import main

    reached = []

    def stub(cls, name):
        def scan(*args):
            reached.append((cls.__name__, name))
            raise RuntimeError(f"{cls.__name__}.{name} was read")
        return scan

    for cls, name in NEVER_READ:
        monkeypatch.setattr(cls, name, stub(cls, name), raising=False)
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out.get("ok", True) and out.get("aw_ez_identity", True)
    assert not reached
