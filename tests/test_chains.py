"""Chain complex layer: constructors, tensor, hom, truncation, homotopy."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chaincert.chains.build import (change_ring, concentrated,
                                    direct_sum_complexes, disk, interval,
                                    sphere, unit_complex, zero_complex)
from chaincert.chains.cochain import dualize_map
from chaincert.chains.complexes import (ChainComplex, ChainHomotopy, ChainMap,
                                        Retractions, chain_map_equal)
from chaincert.chains.cones import (cocylinder_complex, cylinder_complex,
                                    mapping_cocylinder, mapping_cone,
                                    mapping_cylinder, pushout_complexes)
from chaincert.chains import homcx
from chaincert.chains.homcx import (ChainMapsSpace, HomWindow, hom_complex,
                                    hom_truncation)
from chaincert.chains.homology import first_homology, first_inexact_degree
from chaincert.chains.homotopy import (chain_homotopic, cokernel_contraction,
                                       contract_image, find_contraction,
                                       is_chain_homotopy_equivalence,
                                       is_homotopy_equivalence, quasi_iso)
from chaincert.chains.tensor import (TensorLayout, interval_cylinder,
                                     tensor_complex, tensor_module_maps)
from chaincert.chains.truncate import WindowComplex, good_truncation, \
    window_of_complex
from chaincert.certify import SUITES, CertifyConfig
from chaincert.errors import CertificateError
from chaincert.exact import equations
from chaincert.exact.equations import (MapVariable, MatrixRelation,
                                       well_definedness)
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import (ModuleMap, PresentedModule, factor_through,
                                     kernel, map_equal)
from chaincert.exact.rings import ZZ, Zmod
from chaincert.exact.snf import solve
from chaincert.io.document import (chain_map_from_json, chain_map_to_json,
                                   cochain_map_from_json,
                                   complex_to_json, parse_chain_complex,
                                   parse_cochain_complex)
from chaincert.models.classify import (bit_degrees, degreewise_retractions,
                                       homotopy_equivalence_bit)
from chaincert.models.generators import (random_chain_map, random_complex,
                                         random_map_for_agreement,
                                         random_q_cofibration,
                                         random_split_mono,
                                         twist_complex_with_iso)
from chaincert.simplicial.ez_aw import aw, ez
from chaincert.simplicial.module import degreewise_tensor, gamma

from oracles import (braiding, first_homology_by_scan, homology,
                     homology_iso_all_degrees, kron_layout_differential,
                     kron_layout_module, kron_tensor_module_maps)


def complex_from_data(ring, modules, diff_matrices):
    """The complex on ``modules`` with checked differentials."""
    diffs = [ModuleMap(modules[n + 1], modules[n], diff_matrices[n])
             for n in range(len(modules) - 1)]
    return ChainComplex(ring, modules, diffs)


def two_step(ring, a, b):
    """ring -> ring -> ring with multiplications a then b (degrees 2, 1, 0)."""
    free = PresentedModule.free(ring, 1)
    try:
        return ChainComplex(ring, [free, free, free], [
            ModuleMap(free, free, Matrix(ring, 1, 1, [[b]])),
            ModuleMap(free, free, Matrix(ring, 1, 1, [[a]])),
        ])
    except ValueError:
        return None


def test_validate_examples():
    assert disk(ZZ, 1).validate()
    assert two_step(ZZ, 2, 2) is None          # d o d = x4 is nonzero over Z
    assert two_step(Zmod(4), 2, 2) is not None  # but 4 = 0 mod 4


def test_disk_and_sphere_shapes():
    d1 = disk(ZZ, 1)
    assert [m.generators for m in d1.mods] == [1, 1]
    assert d1.differential(1).action == Matrix.identity(ZZ, 1)
    assert sphere(ZZ, 0) == unit_complex(ZZ)


def test_interval_homology():
    I = interval(ZZ)
    assert homology(I, 0).minimal_invariants() == (1, ())
    assert homology(I, 1).is_zero_module()


def test_tensor_unit_law():
    X = two_step(Zmod(4), 2, 2)
    T = tensor_complex(unit_complex(Zmod(4)), X)
    for n in range(X.top + 1):
        assert T.module(n).minimal_invariants() == X.module(n).minimal_invariants()


def test_tensor_disk_disk():
    T = tensor_complex(disk(ZZ, 1), disk(ZZ, 1))
    assert [m.generators for m in T.mods] == [1, 2, 1]
    # summands in degree 1 are ordered (0,1) then (1,0): (b x e, e x b)
    assert T.differential(2).action == Matrix(ZZ, 2, 1, [[1], [-1]])
    assert T.differential(1).action == Matrix(ZZ, 1, 2, [[1, 1]])


def test_tensor_spheres():
    T = tensor_complex(sphere(ZZ, 1), sphere(ZZ, 1))
    assert [m.generators for m in T.mods] == [0, 0, 1]
    assert homology(T, 2).minimal_invariants() == (1, ())


def test_braiding_is_chain_iso():
    X, Y = disk(ZZ, 1), sphere(ZZ, 1)
    b = braiding(X, Y)          # the constructor checks the chain condition
    c = braiding(Y, X)
    assert chain_map_equal(c.compose(b), ChainMap.identity(b.source))


def drawn_complex(data, ring):
    """A small complex, one time in eight the zero complex; random_complex
    leaves zero modules below and between its pieces.  The choices come
    from a drawn seed, not from draws of their own, which hypothesis
    would pull towards the zero complex and top 0."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    if rng.randrange(8) == 0:
        return zero_complex(ring)
    return random_complex(ring, rng, max_top=rng.randint(0, 3), max_rank=3)


RINGS = [ZZ, Zmod(4), Zmod(6)]


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tensor_layout_matches_the_kron_construction(ring, data):
    X, Y = drawn_complex(data, ring), drawn_complex(data, ring)
    lay = TensorLayout(X, Y)
    for n in range(-1, lay.top + 3):
        assert lay.module(n) == kron_layout_module(X, Y, n)
        assert lay.differential(n).action == kron_layout_differential(X, Y, n)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_tensor_maps_match_the_kron_construction(ring, data):
    # the sources and targets have tops of their own, so some degrees lie
    # past a factor's top on one side only
    X, X2, Y, Y2 = (drawn_complex(data, ring) for _ in range(4))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    f, g = random_chain_map(X, X2, rng), random_chain_map(Y, Y2, rng)
    parts = tensor_module_maps(f.parts, g.parts, TensorLayout(X, Y),
                               TensorLayout(X2, Y2))
    assert [p.action for p in parts] == kron_tensor_module_maps(f, g)
    # None stands for the identity of the factor that both layouts share
    for left, right, lay in ((None, g, TensorLayout(X, Y2)),
                             (f, None, TensorLayout(X2, Y))):
        expect = kron_tensor_module_maps(
            left or ChainMap.identity(X), right or ChainMap.identity(Y))
        parts = tensor_module_maps(left and left.parts,
                                   right and right.parts,
                                   TensorLayout(X, Y), lay)
        assert [p.action for p in parts] == expect


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_braiding_is_natural(ring, data):
    # tau' o (f (x) g) = (g (x) f) o tau on the nose, which pins the
    # Koszul signs of the differentials and of f (x) g
    X, X2, Y, Y2 = (drawn_complex(data, ring) for _ in range(4))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    f, g = random_chain_map(X, X2, rng), random_chain_map(Y, Y2, rng)
    tau, tau2 = braiding(X, Y), braiding(X2, Y2)    # both checked
    # the constructor checks that f (x) g and g (x) f are chain maps
    fg = ChainMap(tau.source, tau2.source, tensor_module_maps(
        f.parts, g.parts, TensorLayout(X, Y), TensorLayout(X2, Y2)))
    gf = ChainMap(tau.target, tau2.target, tensor_module_maps(
        g.parts, f.parts, TensorLayout(Y, X), TensorLayout(Y2, X2)))
    for n in range(max(tau.source.top, tau2.source.top) + 1):
        assert (tau2.component(n).action @ fg.component(n).action
                == gf.component(n).action @ tau.component(n).action)


def test_associator_is_chain_map():
    X, Y, Z = disk(ZZ, 1), sphere(ZZ, 1), disk(ZZ, 2)
    left_in = TensorLayout(tensor_complex(X, Y), Z)    # (X x Y) x Z
    right_in = TensorLayout(X, tensor_complex(Y, Z))   # X x (Y x Z)
    lay_xy = TensorLayout(X, Y)
    lay_yz = TensorLayout(Y, Z)
    comps = []
    for n in range(left_in.top + 1):
        rows = right_in.module(n).generators
        cols = left_in.module(n).generators
        out = [[0] * cols for _ in range(rows)]
        for (ij, k) in left_in.pairs(n):
            for (i, j) in lay_xy.pairs(ij):
                gx, gy, gz = (X.module(i).generators, Y.module(j).generators,
                              Z.module(k).generators)
                for a in range(gx):
                    for b in range(gy):
                        for c in range(gz):
                            src = left_in.address(
                                n, ij, lay_xy.address(ij, i, a, b), c)
                            tgt = right_in.address(
                                n, i, a, lay_yz.address(j + k, j, b, c))
                            out[tgt][src] = 1
        comps.append(ModuleMap(left_in.module(n), right_in.module(n),
                               Matrix(ZZ, rows, cols, out), check=False))
    alpha = ChainMap(left_in.complex(), right_in.complex(), comps)  # validates
    for n in range(left_in.top + 1):
        assert left_in.module(n).minimal_invariants() == \
            right_in.module(n).minimal_invariants()


def test_hom_complex_unit_law():
    Y = two_step(Zmod(4), 2, 2)
    H = hom_complex(unit_complex(Zmod(4)), Y)
    for n in range(Y.top + 1):
        assert H.module(n).minimal_invariants() == Y.module(n).minimal_invariants()


def test_hom_complex_sphere_to_unit():
    H = hom_complex(sphere(ZZ, 1), unit_complex(ZZ))
    assert H.module(0).is_zero_module()


def test_chain_maps_space_contains_identity():
    X = disk(ZZ, 1)
    cms = ChainMapsSpace(X, X)
    c = cms.coords(ChainMap.identity(X))
    back = cms.chain_map(c)
    assert chain_map_equal(back, ChainMap.identity(X))


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_chain_maps_coords_encodes_many_as_each(ring, seed):
    """coords(*fs) is the column-by-column coords, and the cached
    generators decode what chain_map decodes."""
    rng = random.Random(seed)
    X = random_complex(ring, rng, max_top=1, max_rank=2)
    Y = random_complex(ring, rng, max_top=2, max_rank=2)
    cms = ChainMapsSpace(X, Y)
    fs = [random_chain_map(X, Y, rng) for _ in range(rng.randint(0, 3))]
    batch = cms.coords(*fs)
    assert (batch.rows, batch.cols) == (cms.module.generators, len(fs))
    for j, f in enumerate(fs):
        assert batch.column_at(j) == cms.coords(f)
        assert chain_map_equal(cms.chain_map(batch.column_at(j)), f)
    g = cms.module.generators
    assert len(cms.gens) == g
    for j, F in enumerate(cms.gens):
        unit = Matrix(ring, g, 1, [[int(i == j)] for i in range(g)])
        assert chain_map_equal(F, cms.chain_map(unit))


def test_chain_maps_coords_of_nothing_makes_no_solve(monkeypatch):
    X = disk(ZZ, 1)
    cms = ChainMapsSpace(X, X)

    def refuse(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr(homcx, "solve", refuse)
    empty = cms.coords()
    assert (empty.rows, empty.cols) == (cms.module.generators, 0)


def test_tensor_hom_adjunction_counts_over_F2():
    ring = Zmod(2)
    X, Y, Z = disk(ring, 1), sphere(ring, 1), disk(ring, 2)
    lhs = ChainMapsSpace(tensor_complex(X, Y), Z).module.minimal_invariants()
    rhs = ChainMapsSpace(X, hom_complex(Y, Z)).module.minimal_invariants()
    assert lhs == rhs  # finite enumeration: |M| = 2^rank over Z/2


def test_good_truncation_examples():
    # already non-negative: degree zero is ker(0) = everything
    C = disk(ZZ, 1)
    T = good_truncation(window_of_complex(C))
    for n in range(C.top + 1):
        assert T.complex.module(n).minimal_invariants() == \
            C.module(n).minimal_invariants()

    # window Z --id--> Z in degrees 0, -1 truncates to 0
    free = PresentedModule.free(ZZ, 1)
    W = WindowComplex(ZZ, {-1: free, 0: free},
                      {0: ModuleMap(free, free, Matrix.identity(ZZ, 1))})
    T = good_truncation(W)
    assert T.complex.module(0).is_zero_module()


def test_homology_examples():
    assert homology(sphere(ZZ, 2), 2).minimal_invariants() == (1, ())
    D = disk(ZZ, 3)
    for n in range(D.top + 1):
        assert homology(D, n).is_zero_module()
    free = PresentedModule.free(ZZ, 1)
    C = ChainComplex(ZZ, [free, free],
                     [ModuleMap(free, free, Matrix(ZZ, 1, 1, [[2]]))])
    assert homology(C, 0).minimal_invariants() == (0, (2,))


def test_contraction_examples():
    for n in (1, 2):
        s = find_contraction(disk(ZZ, n))
        assert s is not None  # constructor re-verifies d s + s d = id
    assert find_contraction(sphere(ZZ, 1)) is None
    cone = mapping_cone(ChainMap.identity(sphere(ZZ, 1)))
    assert find_contraction(cone) is not None


def _forbid_flattening(monkeypatch):
    def flattened(*args):
        raise RuntimeError("contraction sent to the flattened solver")

    monkeypatch.setattr(equations, "_solve_flattened", flattened)


def whole_nullhomotopy(f):
    """H with d H + H d = f, all components solved at once by the flattened
    oracle.  It shares the vectorizer and the exact solver with the degree
    sweep, not the sweep's cosets; its "no" answers are checked apart from
    both, on hand-built complexes and by homology."""
    X, Y = f.source, f.target
    ring = X.ring
    variables, relations = [], []
    for n in range(max(X.top, Y.top) + 1):
        H = MapVariable(f"H{n}", X.module(n), Y.module(n + 1))
        terms = [(1, Y.differential(n + 1).action, H.name,
                  Matrix.identity(ring, X.module(n).generators))]
        if n:
            terms.append((1, Matrix.identity(ring, Y.module(n).generators),
                          f"H{n - 1}", X.differential(n).action))
        variables.append(H)
        relations += [MatrixRelation(terms, f.component(n).action,
                                     Y.module(n).relations),
                      well_definedness(H)]
    sol = equations._solve_flattened(ring, variables, relations)
    if sol is None:
        return None
    return ChainHomotopy(ChainMap.zero(X, Y), f, [
        ModuleMap(X.module(n), Y.module(n + 1), sol[H.name], check=False)
        for n, H in enumerate(variables)])


def _complex(ring, mods, diffs):
    """Degrees 0..top from (generators, relations) and differential rows."""
    mods = [PresentedModule(ring, g, Matrix(ring, g, len(rel[0]), rel))
            if rel else PresentedModule.free(ring, g) for g, rel in mods]
    return ChainComplex(ring, mods, [
        ModuleMap(mods[n], mods[n - 1],
                  Matrix(ring, mods[n - 1].generators, mods[n].generators, d))
        for n, d in enumerate(diffs, start=1)])


@pytest.mark.parametrize("ring,mods,diffs", [
    # Z -2-> Z -> Z/2
    (ZZ, [(1, [[2]]), (1, []), (1, [])], [[[1]], [[2]]]),
    # Z/2 -2-> Z/4 -> Z/2
    (Zmod(4), [(1, [[2]]), (1, []), (1, [[2]])], [[[1]], [[2]]]),
], ids=["z", "z/4"])
def test_exact_complex_without_contraction(monkeypatch, ring, mods, diffs):
    C = _complex(ring, mods, diffs)
    assert all(homology(C, n).is_zero_module() for n in range(C.top + 1))
    assert whole_nullhomotopy(ChainMap.identity(C)) is None
    _forbid_flattening(monkeypatch)
    assert find_contraction(C) is None
    assert chain_homotopic(ChainMap.zero(C, C), ChainMap.identity(C)) is None


def test_twisted_torsion_complex_contracts(monkeypatch):
    # (Z/2 -1-> Z/2) + (Z -1-> Z) in degrees 1, 0 and 2, 1, with degree 1
    # twisted so that 2(e1 + e2) = 0: the lift s_0 = -e1 of d_1 s_0 = 1 is
    # not well defined, s_0 = -e1 - e2 is
    C = _complex(ZZ, [(1, [[2]]), (2, [[-2], [-2]]), (1, [])],
                 [[[-1, 0]], [[0], [1]]])
    _forbid_flattening(monkeypatch)
    s = find_contraction(C)  # the constructor re-verifies d s + s d = id
    assert s is not None
    assert s.component(0).action == Matrix(ZZ, 2, 1, [[-1], [-1]])


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_contraction_agrees_with_flattened_oracle(monkeypatch, ring):
    # at this seed one contractible cone per ring has a degree whose
    # unconstrained lift d s_n = phi_n is not well defined
    rng = random.Random(15)
    cones = []
    for _ in range(24):
        X = random_complex(ring, rng, max_top=2, max_rank=2)
        Y = random_complex(ring, rng, max_top=2, max_rank=2)
        if rng.random() < 0.5:
            f = random_chain_map(X, Y, rng)
        else:  # X -> X + cone(id_Y), twisted: a homotopy equivalence
            total, injs, _ = direct_sum_complexes(
                [X, mapping_cone(ChainMap.identity(Y))])
            f = twist_complex_with_iso(total, rng)[1].compose(injs[0])
        cones.append(mapping_cone(f))
    expected = [whole_nullhomotopy(ChainMap.identity(C)) is not None
                for C in cones]
    assert True in expected and False in expected
    # a complex with homology is not contractible: "no" without any solve
    acyclic = [all(homology(C, n).is_zero_module() for n in range(C.top + 1))
               for C in cones]
    assert False in acyclic
    assert all(acyclic[i] for i, e in enumerate(expected) if e)
    _forbid_flattening(monkeypatch)
    assert [find_contraction(C) is not None for C in cones] == expected
    assert [chain_homotopic(ChainMap.zero(C, C), ChainMap.identity(C))
            is not None for C in cones] == expected


def _summand_idempotent(ring, rng):
    """iota o pi of one summand of X + Y, conjugated by a random iso.

    The image is X or Y; X is contractible about half the time."""
    f, r = _summand_retract(ring, rng)
    return f.compose(r)


def _summand_retract(ring, rng):
    """iota : X -> X + Y or Y -> X + Y with its projection, conjugated by a
    random iso of X + Y; X is contractible about half the time."""
    Y = random_complex(ring, rng, max_top=2, max_rank=2)
    if rng.random() < 0.5:
        X = mapping_cone(ChainMap.identity(
            random_complex(ring, rng, max_top=1, max_rank=2)))
    else:
        X = random_complex(ring, rng, max_top=2, max_rank=2)
    total, injs, projs = direct_sum_complexes([X, Y])
    k = rng.randrange(2)
    twisted, iso = twist_complex_with_iso(total, rng)
    inverse = ChainMap(twisted, total, [
        ModuleMap(twisted.module(n), total.module(n),
                  solve(iso.component(n).action,
                        Matrix.identity(ring, total.module(n).generators)))
        for n in range(total.top + 1)])
    return iso.compose(injs[k]), projs[k].compose(inverse)


def _ez_aw_idempotent(ring, index):
    """id - EZ o AW on the case ``index`` of the pinned ez-aw suite."""
    seed = 20260809  # tests/test_acceptance.py, criterion 2
    cfg = CertifyConfig("ez-aw", seed=seed, cases=1, ring=ring)
    case = SUITES["ez-aw"].generate(
        random.Random(seed * 1_000_003 + index), cfg)
    A = gamma(parse_chain_complex(ring, case["a"], "a"), verify=False)
    B = gamma(parse_chain_complex(ring, case["b"], "b"), verify=False)
    T = degreewise_tensor(A, B)
    return (ChainMap.identity(T.normalized)
            - ez(A, B, T).compose(aw(A, B, T)))


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_image_contraction_agrees_with_nullhomotopy_oracle(monkeypatch,
                                                           ring):
    rng = random.Random(11)
    summands = [_summand_idempotent(ring, rng) for _ in range(24)]
    idempotents = summands + [_ez_aw_idempotent(ring, i) for i in range(6)]
    for p in idempotents:
        assert chain_map_equal(p.compose(p), p)
    oracle = [whole_nullhomotopy(p) for p in idempotents]
    decided = [h is not None for h in oracle[:len(summands)]]
    assert True in decided and False in decided
    assert None not in oracle[len(summands):]
    _forbid_flattening(monkeypatch)
    for p, h in zip(idempotents, oracle):
        s = contract_image(p)
        assert (s is None) == (h is None)
        if s is not None:  # both witnesses verify, and s lands in im p
            assert s.validate() and h.validate()
            assert all(map_equal(p.component(n + 1).compose(part), part)
                       for n, part in enumerate(s.parts))


def test_homotopy_equivalence_examples():
    X = disk(ZZ, 1)
    he = is_chain_homotopy_equivalence(ChainMap.identity(X))
    assert he is not None
    to_zero = ChainMap.zero(X, zero_complex(ZZ))
    assert is_chain_homotopy_equivalence(to_zero) is not None
    s_to_zero = ChainMap.zero(sphere(ZZ, 1), zero_complex(ZZ))
    assert is_chain_homotopy_equivalence(s_to_zero) is None


def test_homotopy_equivalence_witnesses_verify():
    # a non-identity equivalence: disk(1) -> disk(1) negating both degrees
    X = disk(ZZ, 1)
    f = ChainMap(X, X, [ModuleMap(X.module(0), X.module(0),
                                  Matrix(ZZ, 1, 1, [[-1]])),
                        ModuleMap(X.module(1), X.module(1),
                                  Matrix(ZZ, 1, 1, [[-1]]))])
    he = is_chain_homotopy_equivalence(f)
    assert he is not None
    he.source_homotopy.validate()
    he.target_homotopy.validate()


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_plain_decision_agrees_with_the_witnessed_one(ring):
    """On the maps the hlp-hep and bousfield-dual suites draw, equivalences
    and others alike, the decision answers as the witness search does."""
    answers = []
    for suite, seed in (("hlp-hep", 3), ("bousfield-dual", 4)):
        cfg = CertifyConfig(suite, seed=seed, cases=1, ring=ring)
        for index in range(25):
            case = SUITES[suite].generate(
                random.Random(seed * 1_000_003 + index), cfg)
            f = chain_map_from_json(ring, case["map"], "map")
            holds = is_homotopy_equivalence(f)
            assert holds == (is_chain_homotopy_equivalence(f) is not None)
            answers.append(holds)
    assert True in answers and False in answers


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_retraction_route_agrees_with_the_cone(ring):
    """For a chain retraction r of f, coker f contracts exactly when the
    cone of f does, and the contraction T is a homotopy from f o r to id
    on the target of f itself."""
    rng = random.Random(5)
    pairs = [_summand_retract(ring, rng) for _ in range(16)]
    answers = []
    for f, r in pairs:
        T = cokernel_contraction(Retractions(f, dict(enumerate(r.parts))))
        assert (T is not None) == (is_chain_homotopy_equivalence(f)
                                   is not None)
        if T is not None:  # the checked constructor re-verifies it
            ChainHomotopy(f.compose(r), ChainMap.identity(f.target), T.parts)
        answers.append(T is not None)
    assert True in answers and False in answers


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_cokernel_contraction_answers_as_the_cone(ring):
    """On acyclic q-cofibrations and drawn split monos, with graded
    retractions r, coker f contracts exactly when the cone of f does, and
    each contraction T gives the strong deformation retraction
    r' = r - r d T of f, with T a homotopy from f r' to id."""
    rng = random.Random(25)
    answers = []
    for index in range(20):
        f = (random_q_cofibration(ring, rng, acyclic=True, max_rank=2)
             if index % 2 else random_split_mono(ring, rng, max_rank=2))
        r, missing = degreewise_retractions(
            f, bit_degrees(f, "h", "cofibration"))
        assert missing is None
        T = cokernel_contraction(r)
        assert (T is not None) == is_homotopy_equivalence(f)
        answers.append(T is not None)
        if T is None:
            continue
        A, B = f.source, f.target
        # checked constructors: relations go to relations, d r' = r' d and
        # d T + T d = id - f r'
        r_prime = ChainMap(B, A, [ModuleMap(
            B.module(n), A.module(n),
            (r.parts[n] - r.parts[n].compose(B.differential(n + 1))
             .compose(T.component(n))).action) for n in range(B.top + 1)])
        assert chain_map_equal(r_prime.compose(f), ChainMap.identity(A))
        ChainHomotopy(f.compose(r_prime), ChainMap.identity(B), [
            ModuleMap(part.source, part.target, part.action)
            for part in T.parts])
    assert True in answers and False in answers


def test_cokernel_contraction_refuses_a_wrong_retraction():
    """A wrong retraction is refused where the retractions are built,
    before any contraction is sought."""
    # S^0 -> D^1 + S^0 is an equivalence, D^1 -> D^1 + S^0 is not
    total, injs, projs = direct_sum_complexes([disk(ZZ, 1), sphere(ZZ, 0)])

    def retractions(f, r):
        return Retractions(f, dict(enumerate(r.parts)))

    assert cokernel_contraction(retractions(injs[1], projs[1])) is not None
    assert cokernel_contraction(retractions(injs[0], projs[0])) is None
    doubled = projs[1] + projs[1]  # r o f = 2 id
    for wrong in (doubled, projs[0]):  # and r o f = 0
        with pytest.raises(CertificateError, match="r_0 o f_0"):
            retractions(injs[1], wrong)


def test_quasi_iso_examples():
    assert quasi_iso(ChainMap.identity(sphere(ZZ, 1)))
    U = unit_complex(ZZ)
    two = ChainMap(U, U, [ModuleMap(U.module(0), U.module(0),
                                    Matrix(ZZ, 1, 1, [[2]]))])
    assert not quasi_iso(two)
    d_to_zero = ChainMap.zero(disk(ZZ, 1), zero_complex(ZZ))
    assert quasi_iso(d_to_zero)
    assert homology_iso_all_degrees(d_to_zero)  # independent oracle


def test_quasi_iso_agrees_with_homology_oracle():
    U = unit_complex(ZZ)
    two = ChainMap(U, U, [ModuleMap(U.module(0), U.module(0),
                                    Matrix(ZZ, 1, 1, [[2]]))])
    assert homology_iso_all_degrees(two) == quasi_iso(two)


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_exactness_sweep_agrees_with_the_homology_scan(ring):
    """On drawn complexes, torsion included, and on the cones of drawn
    maps, the sweep names the degree where the per-degree scan first finds
    homology, and `first_homology` presents the scan's H_n there.  The
    first complex, R --(2,-1)--> R^2 --(1 2)--> R/2, has H_1 = R: its
    cycle (0, 1) is one only modulo the relations of R/2."""
    rng = random.Random(29)
    free = PresentedModule.free(ring, 1)
    complexes = [complex_from_data(
        ring, [PresentedModule.cyclic(ring, 2),
               PresentedModule.free(ring, 2), free],
        [Matrix(ring, 1, 2, [[1, 2]]), Matrix(ring, 2, 1, [[2], [-1]])])]
    for _ in range(15):
        X = random_complex(ring, rng, max_top=3, max_rank=4)
        Y = random_complex(ring, rng, max_top=3, max_rank=4)
        complexes += [X, mapping_cone(random_chain_map(X, Y, rng)),
                      mapping_cone(random_map_for_agreement(ring, rng)),
                      mapping_cone(twist_complex_with_iso(X, rng)[1])]
    degrees = []
    for C in complexes:
        expected = first_homology_by_scan(C)
        n = first_inexact_degree(C)
        degrees.append(n)
        found = first_homology(C)
        if expected is None:
            assert n is None and found is None
        else:
            assert n == expected[0] and found[0] == n
            assert found[1] == expected[1]
    assert None in degrees
    assert {0, 1, 2} <= set(degrees)


def test_an_exact_complex_need_not_contract():
    """Z --2--> Z --> Z/2 is exact but not contractible (Z/2 is not
    projective), so 0 -> C passes the sweep and fails the contraction."""
    free = PresentedModule.free(ZZ, 1)
    C = complex_from_data(ZZ, [PresentedModule.cyclic(ZZ, 2), free, free],
                          [Matrix(ZZ, 1, 1, [[1]]), Matrix(ZZ, 1, 1, [[2]])])
    assert first_inexact_degree(C) is None and find_contraction(C) is None
    f = ChainMap.zero(zero_complex(ZZ), C)
    assert quasi_iso(f) and not is_homotopy_equivalence(f)
    assert is_chain_homotopy_equivalence(f) is None
    bit = homotopy_equivalence_bit(f)
    assert not bit.holds
    assert bit.to_json()["obstruction"] == {
        "reason": "mapping cone is acyclic but not contractible"}


def test_cone_of_map_from_zero():
    X = disk(ZZ, 2)
    cone = mapping_cone(ChainMap.zero(zero_complex(ZZ), X))
    for n in range(X.top + 1):
        assert cone.module(n) == X.module(n)
        if n >= 1:
            assert cone.differential(n).action == X.differential(n).action


def test_cylinder_of_unit_identity():
    U = unit_complex(ZZ)
    cyl = mapping_cylinder(ChainMap.identity(U))
    assert chain_map_equal(cyl.projection.compose(cyl.cofibration),
                           ChainMap.identity(U))
    assert cyl.complex.module(0).minimal_invariants() == (2, ())
    assert cyl.complex.module(1).minimal_invariants() == (1, ())


def test_cocylinder_path_space_ranks():
    # (E^I)_n = E_n + E_n + E_{n+1} in positive degrees
    E = disk(ZZ, 2)
    T, hw = hom_truncation(interval(ZZ), E)
    for n in range(1, E.top + 1):
        expected = 2 * E.module(n).generators + E.module(n + 1).generators
        assert T.complex.module(n).generators == expected


def test_cocylinder_of_unit_identity():
    U = unit_complex(ZZ)
    cocyl = mapping_cocylinder(ChainMap.identity(U))
    assert cocyl.complex.module(0).minimal_invariants() == (1, ())
    assert chain_map_equal(cocyl.fibration_leg.compose(cocyl.section_leg),
                           ChainMap.identity(U))


def test_cocylinder_factorization_general():
    # (Z --2--> Z) --> Z/2[0], the canonical quotient in degree 0
    free = PresentedModule.free(ZZ, 1)
    C = ChainComplex(ZZ, [free, free],
                     [ModuleMap(free, free, Matrix(ZZ, 1, 1, [[2]]))])
    Q = concentrated(PresentedModule.cyclic(ZZ, 2), 0)
    f = ChainMap(C, Q, [ModuleMap(free, Q.module(0), Matrix(ZZ, 1, 1, [[1]]))])
    cocyl = mapping_cocylinder(f)
    assert chain_map_equal(cocyl.fibration_leg.compose(cocyl.section_leg), f)


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_cocylinder_matches_the_hom_window_oracle(ring):
    # B^I is Hom(I, B) entry for entry in degrees >= 1; in degree 0 the pair
    # (a, h) is the cycle (a, a + d h, h), which spans the oracle's ker d_0;
    # the cocylinder of any p factors p on the nose
    rng = random.Random(14)
    for draw in range(200):
        B = random_complex(ring, rng)
        closed = cocylinder_complex(ChainMap.identity(B))
        oracle = HomWindow(interval(ring), B).window()
        assert closed.top == oracle.top == B.top
        for n in range(1, B.top + 1):
            assert closed.module(n) == oracle.module(n), (draw, n)
        for n in range(2, B.top + 1):
            assert closed.differential(n).action \
                == oracle.differential(n).action, (draw, n)
        g0, g1 = B.module(0).generators, B.module(1).generators
        iota = ModuleMap(closed.module(0), oracle.module(0), Matrix.assemble(
            ring, [g0, g0, g1], [g0, g1],
            {(0, 0): Matrix.identity(ring, g0),
             (1, 0): Matrix.identity(ring, g0),
             (1, 1): B.differential(1).action,
             (2, 1): Matrix.identity(ring, g1)}))
        _, cycles = kernel(oracle.differential(0))
        assert factor_through(iota, cycles) is not None, draw
        assert factor_through(cycles, iota) is not None, draw
        if B.top >= 1:
            assert map_equal(iota.compose(closed.differential(1)),
                             oracle.differential(1)), draw
        p = random_chain_map(random_complex(ring, rng), B, rng)
        cocyl = mapping_cocylinder(p)
        assert chain_map_equal(
            cocyl.fibration_leg.compose(cocyl.section_leg), p), draw


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_cylinder_matches_the_tensor_oracle(ring):
    # (a, h, b) = a (x) e0 + h (x) e + b (x) e1 is X (x) I in the tensor
    # layout's basis; the legs of the cylinder of id_X are the e0 end and
    # the collapse
    rng = random.Random(15)
    for draw in range(200):
        X = random_complex(ring, rng)
        closed = cylinder_complex(ChainMap.identity(X))
        lay, i0, _, r = interval_cylinder(X, interval(ring))
        oracle = lay.complex()
        assert closed.top == oracle.top == X.top + 1
        cyl = mapping_cylinder(ChainMap.identity(X))
        perms = []
        for n in range(closed.top + 1):
            order = ([lay.address(n, n, k, 0)
                      for k in range(X.module(n).generators)]
                     + [lay.address(n, n - 1, k, 0)
                        for k in range(X.module(n - 1).generators)]
                     + [lay.address(n, n, k, 1)
                        for k in range(X.module(n).generators)])
            P = Matrix(ring, len(order), len(order),
                       [[int(order[j] == i) for j in range(len(order))]
                        for i in range(len(order))])
            perms.append(P)
            moved = P @ closed.module(n).relations
            want = oracle.module(n).relations
            assert sorted(map(tuple, moved.transpose().to_lists())) \
                == sorted(map(tuple, want.transpose().to_lists())), (draw, n)
            assert P @ cyl.cofibration.component(n).action \
                == i0.component(n).action, (draw, n)
            assert cyl.projection.component(n).action \
                == r.component(n).action @ P, (draw, n)
        for n in range(1, closed.top + 1):
            assert perms[n - 1] @ closed.differential(n).action \
                == oracle.differential(n).action @ perms[n], (draw, n)


def test_nullhomotopy_witness():
    X = disk(ZZ, 1)
    h = chain_homotopic(ChainMap.zero(X, X), ChainMap.identity(X))
    assert h is not None
    h.validate()
    g = chain_homotopic(ChainMap.identity(X), ChainMap.zero(X, X))
    assert g is not None


def test_dualize_involution_and_disk():
    # the codec reads a cochain complex as the chain complex reversed at its
    # top, and writes it back unchanged
    data = complex_to_json(disk(ZZ, 1), cochain=True)
    assert data["type"] == "cochain_complex"
    C = parse_cochain_complex(ZZ, data, "X")
    assert C == disk(ZZ, 1)
    assert complex_to_json(C, cochain=True) == data
    # the reversed disk's d^0 is the identity, stored as d_{top - 0}
    assert C.differential(C.top).action == Matrix.identity(ZZ, 1)


def test_dualize_homology_match():
    # X^0 -2-> X^1 -0-> X^2 has H^0 = 0, H^1 = Z/2 and H^2 = Z, and
    # H^k(X) = H_{top-k} of the reversed chain complex
    free = {"generators": 1, "relations": []}
    C = parse_cochain_complex(ZZ, {"degrees": [free] * 3,
                                   "differentials": [[[2]], [[0]]]}, "X")
    expected = [(0, ()), (0, (2,)), (1, ())]
    for k, invariants in enumerate(expected):
        assert homology(C, C.top - k).minimal_invariants() == invariants


def test_dualize_map_roundtrip():
    # e0 : R -> I has ends of tops 0 and 1; both are reversed at top 1
    R, I = unit_complex(ZZ), interval(ZZ)
    f = ChainMap(R, I, [ModuleMap(R.module(0), I.module(0),
                                  Matrix(ZZ, 2, 1, [[1], [0]]))])
    g = dualize_map(f)
    assert g.top == 1 and g.chain.source.top == 1
    assert map_equal(g.component(1), f.component(0))
    data = chain_map_to_json(g)
    back = cochain_map_from_json(ZZ, data)
    assert chain_map_equal(back.chain, g.chain)
    assert chain_map_to_json(back) == data


def test_pushout_complexes_sum_case():
    Z0 = zero_complex(ZZ)
    X, Y = disk(ZZ, 1), sphere(ZZ, 1)
    P, iX, iY = pushout_complexes(ChainMap.zero(Z0, X), ChainMap.zero(Z0, Y))
    for n in range(P.top + 1):
        want = X.module(n).generators + Y.module(n).generators
        assert P.module(n).generators == want


def test_change_ring():
    C = two_step(Zmod(4), 2, 2)
    D = disk(ZZ, 1)
    R = change_ring(D, Zmod(4))
    assert R.ring == Zmod(4)
    assert R.validate()


def test_interval_cylinder_maps():
    X = disk(ZZ, 1)
    lay, i0, i1, r = interval_cylinder(X, interval(ZZ))
    assert chain_map_equal(r.compose(i0), ChainMap.identity(X))
    assert chain_map_equal(r.compose(i1), ChainMap.identity(X))
    # i0 and i1 are homotopic via the cylinder structure
    assert chain_homotopic(i0, i1) is not None
