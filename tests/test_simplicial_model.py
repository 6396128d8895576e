"""Transferred model structure on simplicial modules: classify, lift, products."""

import json
import random
import sys

import pytest

from chaincert.chains.build import disk, interval, sphere, zero_complex
from chaincert.certify import SUITES, CertifyConfig
from chaincert.chains.complexes import (ChainMap, LiftingProblem,
                                        chain_map_equal)
from chaincert.chains.homotopy import is_homotopy_equivalence
from chaincert.cli import main
from chaincert.errors import CertificateError
from chaincert.io.document import chain_map_from_json, parse_chain_complex
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import HomSpace, ModuleMap, PresentedModule
from chaincert.exact.rings import ZZ, Zmod
from chaincert.models.classify import classify
from chaincert.models.generators import (random_complex, random_q_cofibration,
                                         random_split_epi, random_split_mono)
from chaincert.models.lifting import solve_lifting
from chaincert.simplicial import classify as sclassify
from chaincert.simplicial.classify import (interval_cotensor,
                                           pushout_product_simplicial,
                                           simplicial_homotopic,
                                           solve_hep_simplicial,
                                           solve_hlp_simplicial)
from chaincert.simplicial import cotensor as cotensor_module
from chaincert.simplicial.cotensor import (HomDiskBridge, disk_inclusion,
                                           ez_aw_dual_ops)
from chaincert.simplicial.ez_aw import aw, ez
from chaincert.simplicial.module import (SimplicialMap, constant_module,
                                         degreewise_tensor, end_inclusion,
                                         gamma, gamma_map, interval_object,
                                         tensor_normalized_map)


def simplicial_zero(ring):
    return gamma(zero_complex(ring), verify=False)


def to_zero_map(A):
    Z = simplicial_zero(A.ring)
    return SimplicialMap(A, Z, ChainMap.zero(A.normalized, Z.normalized))


def from_zero_map(A):
    Z = simplicial_zero(A.ring)
    return SimplicialMap(Z, A, ChainMap.zero(Z.normalized, A.normalized))


def test_every_object_fibrant_and_cofibrant():
    rng = random.Random(13)
    for _ in range(3):
        A = gamma(random_complex(ZZ, rng, max_top=2, max_rank=2), verify=False)
        assert classify(to_zero_map(A).normalized_map, "h").fibration.holds
        assert classify(from_zero_map(A).normalized_map,
                        "h").cofibration.holds


def test_identity_all_three():
    A = gamma(disk(ZZ, 1))
    ident = SimplicialMap(A, A, ChainMap.identity(A.normalized))
    v = classify(ident.normalized_map, "h")
    assert v.cofibration.holds and v.fibration.holds and v.weak_equivalence.holds


def test_gamma_of_brutal_truncation_is_fibration():
    from chaincert.chains.build import brutal_truncation

    C = disk(ZZ, 1)
    quotient, q = brutal_truncation(C)
    f = gamma_map(q)
    assert classify(f.normalized_map, "h").fibration.holds


def test_simplicial_homotopic_examples():
    D = gamma(disk(ZZ, 1))
    ident = SimplicialMap(D, D, ChainMap.identity(D.normalized))
    res = simplicial_homotopic(ident, ident)
    assert res is not None
    H, transport = res
    for part in H.parts:
        assert part.action.is_zero()

    zero = SimplicialMap(D, D, ChainMap.zero(D.normalized, D.normalized))
    res = simplicial_homotopic(ident, zero)
    assert res is not None  # disk is contractible

    S = gamma(sphere(ZZ, 1))
    ident_s = SimplicialMap(S, S, ChainMap.identity(S.normalized))
    zero_s = SimplicialMap(S, S, ChainMap.zero(S.normalized, S.normalized))
    assert simplicial_homotopic(ident_s, zero_s) is None


def test_solve_hlp_simplicial_on_fibration():
    rng = random.Random(2)
    p_chain = random_split_epi(ZZ, rng, max_top=1, max_rank=2)
    E, B = gamma(p_chain.source, verify=False), gamma(p_chain.target,
                                                      verify=False)
    p = SimplicialMap(E, B, p_chain)
    A = gamma(disk(ZZ, 1))
    T = degreewise_tensor(A, interval_object(ZZ))
    from chaincert.models.generators import random_chain_map

    f_chain = random_chain_map(A.normalized, E.normalized, rng, bound=1)
    f = SimplicialMap(A, E, f_chain)
    i0 = end_inclusion(A, T, 0)
    g_chain = p_chain.compose(f_chain)  # homotopy constant at p o f
    # bottom: T -> B via the cylinder collapse then g
    from chaincert.chains.tensor import interval_cylinder
    from chaincert.simplicial.ez_aw import aw

    lay, c0, c1, r = interval_cylinder(A.normalized, interval(ZZ))
    aw_map = aw(A, interval_object(ZZ), T)
    bottom_chain = g_chain.compose(r).compose(aw_map)
    bottom = SimplicialMap(T, B, bottom_chain)
    report = solve_hlp_simplicial(p, f, bottom)
    assert report.found


def test_solve_hlp_simplicial_obstruction():
    # p not a fibration: Z --mod2--> Z/2 in degree 1
    free = PresentedModule.free(ZZ, 1)
    from chaincert.chains.complexes import ChainComplex
    from chaincert.chains.build import concentrated

    E = ChainComplex(ZZ, [PresentedModule.zero(ZZ), free],
                     [ModuleMap.zero_map(free, PresentedModule.zero(ZZ))])
    B = concentrated(PresentedModule.cyclic(ZZ, 2), 1)
    p_chain = ChainMap(E, B, [ModuleMap.zero_map(E.module(0), B.module(0)),
                              ModuleMap(free, B.module(1),
                                        Matrix(ZZ, 1, 1, [[1]]))])
    p = gamma_map(p_chain)
    A = gamma(sphere(ZZ, 1))
    T = degreewise_tensor(A, interval_object(ZZ))
    # bottom: a homotopy into B that cannot lift: use EZ to map T -> B
    from chaincert.simplicial.ez_aw import aw

    aw_map = aw(A, interval_object(ZZ), T)
    from chaincert.chains.tensor import interval_cylinder

    lay, c0, c1, r = interval_cylinder(A.normalized, interval(ZZ))
    # top: the only map S1 -> E hitting degree 1 by identity
    f_chain = ChainMap(A.normalized, E,
                       [ModuleMap.zero_map(A.normalized.module(0), E.module(0)),
                        ModuleMap(A.normalized.module(1), E.module(1),
                                  Matrix(ZZ, 1, 1, [[1]]))])
    f = SimplicialMap(A, gamma(E, verify=False), f_chain)
    bottom_chain = p_chain.compose(f_chain).compose(r).compose(aw_map)
    bottom = SimplicialMap(T, gamma(B, verify=False), bottom_chain)
    report = solve_hlp_simplicial(SimplicialMap(gamma(E, verify=False),
                                                gamma(B, verify=False),
                                                p_chain), f, bottom)
    # the square is solvable or not, but p is not a fibration so the
    # designated pipeline either finds nothing or flags the degree
    assert not report.found
    assert report.obstruction_degree == 1


def test_trivial_hlp_square():
    Z = simplicial_zero(ZZ)
    p = SimplicialMap(Z, Z, ChainMap.identity(Z.normalized))
    T = degreewise_tensor(Z, interval_object(ZZ))
    f = SimplicialMap(Z, Z, ChainMap.identity(Z.normalized))
    bottom = SimplicialMap(T, Z, ChainMap.zero(T.normalized, Z.normalized))
    report = solve_hlp_simplicial(p, f, bottom)
    assert report.found


def test_interval_cotensor_and_hep():
    B = gamma(disk(ZZ, 1))
    cot = interval_cotensor(B)
    # ev0 and ev1 are fibrations (sections exist degreewise)
    v0 = classify(cot.ev0.normalized_map, "h")
    assert v0.fibration.holds
    assert v0.weak_equivalence.holds

    # HEP along the cofibration 0 -> A with constant-path top leg:
    A = simplicial_zero(ZZ)
    i = from_zero_map(gamma(sphere(ZZ, 0)))
    X = i.target
    g_chain = ChainMap(X.normalized, B.normalized,
                       [ModuleMap(X.normalized.module(0), B.normalized.module(0),
                                  Matrix(ZZ, 1, 1, [[1]]))])
    bottom = SimplicialMap(X, B, g_chain)
    top = SimplicialMap(i.source, cot.object,
                        ChainMap.zero(i.source.normalized,
                                      cot.object.normalized))
    report = solve_hep_simplicial(i, top, bottom, cot)
    assert report.found
    # the lift's evaluation at e0 recovers the bottom leg
    ev_lift = cot.ev0.normalized_map.compose(report.lift.normalized_map)
    assert chain_map_equal(ev_lift, g_chain)


def test_pushout_product_simplicial_units():
    c = constant_module(ZZ)
    i = from_zero_map(c)
    report = pushout_product_simplicial(i, i)
    assert report.cofibration.holds
    # i [] i = i for the unit inclusion
    assert report.product.map.target.module(0).generators == 1


def h_cofibration_pairs(ring):
    """(i, k, whether i is acyclic) for D^1 and S^1 under 0, the pinned
    criterion-7 cases and drawn pairs of h-cofibrations, as chain maps."""
    zero = zero_complex(ring)
    yield (ChainMap.zero(zero, disk(ring, 1)),
           ChainMap.zero(zero, sphere(ring, 1)), True)
    seed = 20260809  # tests/test_acceptance.py, criterion 7
    cfg = CertifyConfig("monoidal-smod-acyclic", seed=seed, cases=1,
                        ring=ring)
    for index in range(4):
        case = SUITES["monoidal-smod-acyclic"].generate(
            random.Random(seed * 1_000_003 + index), cfg)
        yield (*(chain_map_from_json(ring, case[key], key)
                 for key in ("i", "k")), True)
    rng = random.Random(22)
    for index in range(8):
        acyclic = index % 2 == 1
        i = (random_q_cofibration(ring, rng, acyclic=True, max_rank=2)
             if acyclic else random_split_mono(ring, rng, max_rank=2))
        yield i, random_split_mono(ring, rng, max_rank=2), acyclic


def test_pushout_product_simplicial_acyclic_leg():
    """On pairs of h-cofibrations over Z, Z/4 and Z/6, the contraction of
    the cokernel decides N(i [] k) as the oracle, a contraction of its
    cone, does, for both answers; an acyclic leg gives an acyclic
    product."""
    for ring in (ZZ, Zmod(4), Zmod(6)):
        answers = []
        for i, k, leg_acyclic in h_cofibration_pairs(ring):
            report = pushout_product_simplicial(gamma_map(i), gamma_map(k),
                                                expect_acyclic=True)
            assert report.cofibration.holds
            assert report.acyclic == is_homotopy_equivalence(
                report.product.map)
            assert report.acyclic or not leg_acyclic
            answers.append(report.acyclic)
        assert True in answers and False in answers


def test_no_cone_of_the_simplicial_product_is_contracted(monkeypatch,
                                                          tmp_path):
    """Acyclicity of N(i [] k) goes through its cokernel only: no
    homotopy-equivalence decision is made on a map out of the simplicial
    corner, in the function or in the certify suite.  That no such
    decision is made at all is `test_acyclic_suites_never_decide_by_the_cone`
    in tests/test_certify.py."""
    decided, corners = [], []

    def wrap(name, wrapper):
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("chaincert")
                    and hasattr(module, name)):
                monkeypatch.setattr(module, name,
                                    wrapper(getattr(module, name)))

    def record_decision(real):
        def decide(f):
            decided.append(f.source)
            return real(f)
        return decide

    def record_corner(real):
        def product(*args, **kwargs):
            report = real(*args, **kwargs)
            corners.append(report.product.map.source)
            return report
        return product

    wrap("is_homotopy_equivalence", record_decision)
    wrap("pushout_product_simplicial", record_corner)
    i = from_zero_map(gamma(disk(ZZ, 1)))
    k = from_zero_map(gamma(sphere(ZZ, 1)))
    assert sclassify.pushout_product_simplicial(
        i, k, expect_acyclic=True).acyclic
    out = tmp_path / "report.json"
    assert main(["certify", "--suite", "monoidal-smod-acyclic", "--seed",
                 "7", "--cases", "10", "--out", str(out)]) == 0
    assert all(r["ok"] for r in json.loads(out.read_text())["results"])
    assert len(corners) > 1
    assert not [P for P in corners if any(P is Q for Q in decided)]


def test_simplicial_suites_build_no_chain_level_product(monkeypatch,
                                                        tmp_path):
    """Both simplicial suites decide N(i [] k) on the simplicial product
    alone, so neither builds the chain-level product N(i) [] N(k): the
    one builder runs, but never in the tensor model of chain complexes,
    whose objects are `TensorLayout`s."""
    def refuse(*args):
        raise RuntimeError("chain-level pushout-product built")

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("chaincert")
                and hasattr(module, "TensorLayout")):
            monkeypatch.setattr(module, "TensorLayout", refuse)
    for suite in ("monoidal-smod", "monoidal-smod-acyclic"):
        out = tmp_path / f"{suite}.json"
        assert main(["certify", "--suite", suite, "--seed", "7",
                     "--cases", "5", "--out", str(out)]) == 0
        assert all(r["ok"] for r in json.loads(out.read_text())["results"])


def test_acyclic_checks_build_no_equivalence_witness(monkeypatch, tmp_path):
    """The monoidal suites and the lifting prechecks read only whether a
    map is an equivalence, so they never extract a homotopy inverse, and a
    pushout-product check never evaluates the fibration bit."""
    def refuse(*args):
        raise RuntimeError("witness built")

    def forbid(name):
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("chaincert")
                    and hasattr(module, name)):
                monkeypatch.setattr(module, name, refuse)

    forbid("is_chain_homotopy_equivalence")
    # the h fibration precheck is split_epi_bit itself, so that one is
    # forbidden only after the lifts
    D2 = ChainMap.identity(disk(ZZ, 2))
    S0 = ChainMap.identity(sphere(ZZ, 0))
    into = ChainMap.zero(zero_complex(ZZ), sphere(ZZ, 0))
    for problem, leg, acyclic in (
            (LiftingProblem(D2, D2, D2, D2), "left", "yes"),
            (LiftingProblem(into, S0, into, S0), "left", "no"),
            (LiftingProblem(into, S0, into, S0), "right", "yes")):
        outcome = solve_lifting(problem, "h", leg)
        assert outcome.found
        assert outcome.prechecks == {
            "left_cofibration": "yes", "right_fibration": "yes",
            "acyclic_leg": leg, "acyclic": acyclic}
    forbid("split_epi_bit")
    for suite in ("monoidal-h", "monoidal-h-acyclic",
                  "monoidal-smod-acyclic"):
        out = tmp_path / f"{suite}.json"
        assert main(["certify", "--suite", suite, "--seed", "7",
                     "--cases", "10", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert len(results) == 10 and all(r["ok"] for r in results)


def test_pushout_product_simplicial_enriched_over_sAb():
    # k over Z tensored against a Z/4 module object
    ring = Zmod(4)
    i = from_zero_map(gamma(disk(ring, 1)))
    k = from_zero_map(gamma(sphere(ZZ, 0)))
    report = pushout_product_simplicial(i, k)
    assert report.cofibration.holds


def test_dual_ops_identities_small():
    A = gamma(disk(ZZ, 1))
    B = gamma(interval(ZZ))
    dual = ez_aw_dual_ops(A, B, through=3)  # raises on any identity failure
    assert dual.aw_star.source.top == dual.ez_star.target.top


def unit_column(ring, size, j):
    return Matrix(ring, size, 1, [[int(i == j)] for i in range(size)])


def columnwise(ring, rows, size, column):
    """The matrix whose column j is ``column(unit j)``, one at a time."""
    return Matrix.hstack_all(ring, rows, [column(unit_column(ring, size, j))
                                          for j in range(size)])


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_dual_maps_equal_the_column_at_a_time_construction(ring):
    """On the pinned ez-aw-dual inputs, the cotensor differential, AW* and
    EZ* equal the construction that decodes one unit column, composes and
    encodes it again."""
    seed = 20260809  # tests/test_acceptance.py, criterion 3
    cfg = CertifyConfig("ez-aw-dual", seed=seed, cases=1, ring=ring)
    for index in range(5):
        case = SUITES["ez-aw-dual"].generate(
            random.Random(seed * 1_000_003 + index), cfg)
        A, B = (gamma(parse_chain_complex(ring, case[key], key), verify=False)
                for key in ("a", "b"))
        dual = ez_aw_dual_ops(A, B, through=3)
        cot = dual.cotensor
        bridge = HomDiskBridge(A, B)
        ident = SimplicialMap(A, A, ChainMap.identity(A.normalized))
        for n in range(cot.complex.top + 1):
            space, cot_mod = cot.spaces[n], cot.complex.module(n)
            hom_mod = dual.hom_side.complex.module(n)
            if n:
                u = tensor_normalized_map(
                    ident, gamma_map(disk_inclusion(ring, n), cot.disks[n - 1],
                                     cot.disks[n]),
                    cot.tensors[n - 1], cot.tensors[n])
                assert cot.complex.differential(n).action == columnwise(
                    ring, cot.complex.module(n - 1).generators,
                    cot_mod.generators,
                    lambda e: cot.spaces[n - 1].coords(
                        space.chain_map(e).compose(u)))
            aw_n = aw(A, cot.disks[n], cot.tensors[n])
            phi = bridge.disk_maps(n)
            assert dual.aw_star.component(n).action == Matrix.hstack_all(
                ring, cot_mod.generators,
                [space.coords(F.compose(aw_n)) for F in phi])
            ez_n = ez(A, cot.disks[n], cot.tensors[n])
            assert dual.ez_star.component(n).action == columnwise(
                ring, hom_mod.generators, cot_mod.generators,
                lambda e: bridge.from_disk_maps(
                    n, [space.chain_map(e).compose(ez_n)]))


def test_disk_maps_reuse_the_window_differential(monkeypatch):
    """Phi of a degree reads the hom-window differential that the good
    truncation already built; it composes no hom element again."""
    bridge = HomDiskBridge(gamma(disk(ZZ, 1)), gamma(disk(ZZ, 2)))

    def refuse(*args):
        raise RuntimeError("window differential built again")

    monkeypatch.setattr(HomSpace, "precompose", refuse)
    monkeypatch.setattr(HomSpace, "postcompose", refuse)
    assert bridge.window.top >= 2
    for n in range(1, bridge.window.top + 1):
        assert bridge.disk_maps(n)


def test_dual_ops_refuse_a_broken_aw(monkeypatch):
    """EZ* o AW* = id is checked where `homotopy_to_identity` builds the
    `Retractions`; its failure is a CertificateError, not a ValueError."""
    def zero_aw(A, D, T):
        W = aw(A, D, T)
        return W - W

    monkeypatch.setattr(cotensor_module, "aw", zero_aw)
    with pytest.raises(CertificateError, match="EZ\\* o AW\\* failed"):
        ez_aw_dual_ops(gamma(disk(ZZ, 1)), gamma(interval(ZZ)), through=1)
