"""Denormalization, normalization, degreewise tensor, EZ/AW identities."""

import json
import os
import random
from math import comb

import pytest

from chaincert.chains.build import (concentrated, direct_sum_complexes, disk,
                                    interval, sphere, unit_complex)
from chaincert.certify import SUITES, CertifyConfig
from chaincert.chains.complexes import ChainComplex, ChainMap, chain_map_equal
from chaincert.chains.homotopy import (homotopy_from_retraction,
                                       is_chain_homotopy_equivalence)
from chaincert.chains.tensor import TensorLayout
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import map_equal, ModuleMap, PresentedModule
from chaincert.errors import CertificateError
from chaincert.exact.rings import ZZ, Zmod
from chaincert.io.document import parse_chain_complex
from chaincert.models.generators import random_complex
from chaincert.simplicial.levels import (GammaLevels, TensorLevels,
                                         moore_rows,
                                         verify_simplicial_identities)
from chaincert.simplicial.module import (SimplicialMap, constant_module,
                                         degreewise_tensor, end_inclusion,
                                         gamma, gamma_map, interval_object,
                                         normalize, normalized_quotient,
                                         tensor_normalized_map)
from chaincert.simplicial.ez_aw import aw, ez, find_ez_aw_homotopy
from chaincert.simplicial.surjections import shuffles, surjections

from oracles import (full_injection, normalized_kernel,
                     normalized_projector)


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


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_simplicial_identities_on_tensor_levels(ring):
    for X, Y in ((disk(ring, 1), sphere(ring, 1)),
                 (interval(ring), disk(ring, 2))):
        verify_simplicial_identities(
            TensorLevels(GammaLevels(X), GammaLevels(Y)), 4)


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
                img = A.levels.face(n, i) @ incls[n].action
                assert (ModuleMap(K.module(n), A.levels.module(n - 1), img,
                                  check=False)).is_zero()


def test_projector_properties():
    C = disk(ZZ, 1)
    lev = GammaLevels(C)
    for n in range(1, 4):
        P = normalized_projector(lev, n)
        g = lev.module(n).generators
        assert P @ P == P
        # kills every degeneracy image
        for j in range(n):
            assert (P @ lev.degeneracy(n - 1, j)).is_zero()
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
            lhs = f.level_matrix(n - 1) @ A.face(n, i)
            rhs = B.face(n, i) @ f.level_matrix(n)
            assert lhs == rhs
    for n in range(2):
        for j in range(n + 1):
            lhs = f.level_matrix(n + 1) @ A.degeneracy(n, j)
            rhs = B.degeneracy(n, j) @ f.level_matrix(n)
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
        lvl = T.level_module(n).minimal_invariants()
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
    H = find_ez_aw_homotopy(A, B, T)  # constructor validates the relation
    assert H is not None


def test_ez_aw_constant_pair_needs_no_homotopy():
    c = constant_module(ZZ)
    T = degreewise_tensor(c, c)
    E, W = ez(c, c, T), aw(c, c, T)
    assert chain_map_equal(E.compose(W), ChainMap.identity(T.normalized))
    H = find_ez_aw_homotopy(c, c, T, E, W)
    for part in H.parts:
        assert part.action.is_zero()


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_ez_decided_by_its_retraction_as_by_the_cone(ring):
    """On the pinned ez-aw suite inputs, EZ with its retraction AW is an
    equivalence by both routes, and `find_ez_aw_homotopy` returns the
    retraction route's homotopy."""
    seed = 20260809  # tests/test_acceptance.py, criterion 2
    cfg = CertifyConfig("ez-aw", seed=seed, cases=1, ring=ring)
    for index in range(6):
        case = SUITES["ez-aw"].generate(
            random.Random(seed * 1_000_003 + index), cfg)
        A = gamma(parse_chain_complex(ring, case["a"], "a"), verify=False)
        B = gamma(parse_chain_complex(ring, case["b"], "b"), verify=False)
        T = degreewise_tensor(A, B)
        E, W = ez(A, B, T), aw(A, B, T)
        h = homotopy_from_retraction(E, W)
        assert h is not None and h.validate(strict=True)
        assert is_chain_homotopy_equivalence(E) is not None
        H = find_ez_aw_homotopy(A, B, T, E, W)
        assert all(map_equal(a, b) for a, b in zip(H.parts, h.parts))


def test_ez_aw_homotopy_refuses_a_wrong_retraction():
    A, B = gamma(disk(ZZ, 1)), gamma(sphere(ZZ, 1))
    T = degreewise_tensor(A, B)
    E, W = ez(A, B, T), aw(A, B, T)
    with pytest.raises(CertificateError, match="AW o EZ failed"):
        find_ez_aw_homotopy(A, B, T, E, W + W)


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


# -- the full-matrix route as the oracle of the row-selected one ------------


def _scanned_nondegenerate(levels, n):
    return [idx for idx in range(levels.module(n).generators)
            if not levels.degeneracy_positions(n, idx)]


def _full_moore_differential(levels, n):
    out = levels.face(n, 0)
    for i in range(1, n + 1):
        term = levels.face(n, i)
        out = out - term if i % 2 else out + term
    return out


def _full_restricted_relations(levels, n, full):
    rel = levels.module(n).relations
    restricted = rel.submatrix(full, range(rel.cols))
    keep = [j for j in range(restricted.cols)
            if any(restricted[i, j] != 0 for i in range(restricted.rows))]
    return restricted.columns(keep)


def _full_normalized_quotient(levels, top):
    ring = levels.ring
    coords = [_scanned_nondegenerate(levels, n) for n in range(top + 1)]
    mods = [PresentedModule(ring, len(full),
                            _full_restricted_relations(levels, n, full))
            for n, full in enumerate(coords)]
    diffs = [ModuleMap(mods[n], mods[n - 1],
                       _full_moore_differential(levels, n).submatrix(
                           coords[n - 1], coords[n]))
             for n in range(1, top + 1)]
    return ChainComplex(ring, mods, diffs)


def _torsion_complex(ring):
    """R/2 in degree 1 beside the disk D^1."""
    pieces = [concentrated(PresentedModule.cyclic(ring, 2), 1), disk(ring, 1)]
    return direct_sum_complexes(pieces)[0]


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_row_selected_levels_agree_with_full_matrices(ring):
    rng = random.Random(23)
    A = gamma(_torsion_complex(ring))
    B = gamma(random_complex(ring, rng, max_top=1, max_rank=2))
    C = gamma(sphere(ring, 1))
    AB = degreewise_tensor(A, B)
    for T in (AB, degreewise_tensor(AB, C)):
        levels, top = T.levels, T.top
        assert any(levels.module(n).relations.cols for n in range(top + 1))
        for n in range(top + 2):
            full = _scanned_nondegenerate(levels, n)
            assert levels.nondegenerate_coords(n) == full
            assert levels.relations_on(n, full) == \
                _full_restricted_relations(levels, n, full)
            if n:
                rows = _scanned_nondegenerate(levels, n - 1)
                M = _full_moore_differential(levels, n)
                assert moore_rows(levels, n, rows) == \
                    M.submatrix(rows, range(M.cols))
        assert T.normalized == normalized_quotient(levels, top) == \
            _full_normalized_quotient(levels, top)


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_kron_submatrix_agrees_with_kron(ring):
    rng = random.Random(3)
    F = Matrix(ring, 3, 2, [[rng.randint(-9, 9) for _ in range(2)]
                            for _ in range(3)])
    G = Matrix(ring, 2, 4, [[rng.randint(-9, 9) for _ in range(4)]
                            for _ in range(2)])
    rows, cols = [0, 3, 4, 5], [1, 2, 6, 7]
    assert F.kron_submatrix(G, rows, cols) == \
        F.kron(G).submatrix(rows, cols)
    assert F.kron_submatrix(G, [], cols).rows == 0


# the per-coordinate scan and whole tensor levels, which the normalization,
# the tensor maps and EZ/AW no longer read
NEVER_READ = ((GammaLevels, "degeneracy_positions"),
              (TensorLevels, "degeneracy_positions"),
              (TensorLevels, "module"), (TensorLevels, "face"),
              (TensorLevels, "degeneracy"))


@pytest.mark.parametrize("argv", [
    ["certify", "--suite", "monoidal-smod", "--seed", "7", "--cases", "5"],
    ["ez-aw", "--doc", "fixtures/simplicial.json", "--a", "sD1", "--b", "sS1"],
    ["ez-aw", "--doc", "fixtures/simplicial.json", "--a", "sD1", "--b", "sS1",
     "--dual"],
], ids=["monoidal-smod", "ez-aw", "ez-aw-dual"])
def test_tensor_normalization_never_scans(monkeypatch, capsys, argv):
    from chaincert.cli import main

    reached = []

    def stub(cls, name):
        def scan(*args):
            reached.append((cls.__name__, name))
            raise RuntimeError(f"{cls.__name__}.{name} was read")
        return scan

    for cls, name in NEVER_READ:
        monkeypatch.setattr(cls, name, stub(cls, name))
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out.get("ok", True) and out.get("aw_ez_identity", True)
    assert not reached
