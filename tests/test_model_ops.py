"""Lifting, pushout-products, HLP/HEP, the Yoneda oracle, factorizations."""

import os
import random
import subprocess
import sys

import pytest

from chaincert.chains.build import (brutal_truncation, concentrated, disk,
                                    interval, sphere, unit_complex, zero_complex)
from chaincert.chains.complexes import ChainComplex, ChainMap, LiftingProblem
from chaincert.chains.cones import (mapping_cocylinder, mapping_cylinder,
                                    pushout_complexes,
                                    pushout_induced_chain_map)
from chaincert.chains.tensor import interval_cylinder, tensor_module_maps
from chaincert.chains.truncate import WindowComplex, good_truncation
from chaincert.exact.matrix import Matrix
from chaincert.certify import SUITES, CertifyConfig
from chaincert.exact import snf
from chaincert.exact.modules import (HomSpace, ModuleMap, PresentedModule,
                                     direct_sum_module, factor_through)
from chaincert.exact.rings import ZZ, Zmod
from chaincert.io.document import chain_map_from_json
from chaincert.exact.splitting import is_split_epi
from chaincert.models.classify import classify
from chaincert.models.factorize import factorize_h
from chaincert.models.hlp_hep import (cylinder_comparison, hep_check,
                                      hlp_check, path_space_comparison)
from chaincert.models.lifting import chain_retraction, chain_section, solve_lifting
from chaincert.models.pushout import check_pushout_product_axiom, pushout_product
from chaincert.models.generators import (random_complex, random_map_for_agreement,
                                         random_split_epi, random_split_mono)
from chaincert.models.yoneda import p_epic_check, split_epi_via_yoneda


def from_zero(X):
    return ChainMap.zero(zero_complex(X.ring), X)


def to_zero(X):
    return ChainMap.zero(X, zero_complex(X.ring))


def test_lift_cylinder_end_vs_fibration():
    # i0 : A -> A (x) I is an acyclic h-cofibration; lift against a fibration
    rng = random.Random(3)
    A = random_complex(ZZ, rng, max_rank=2)
    lay, i0, i1, r = interval_cylinder(A, interval(ZZ))
    p = random_split_epi(ZZ, rng, max_rank=2)
    # square: top = arbitrary map A -> E, bottom = p o top o r
    from chaincert.models.generators import random_chain_map
    top = random_chain_map(A, p.source, rng, bound=1)
    bottom = p.compose(top).compose(r)
    problem = LiftingProblem(i0, p, top, bottom)
    outcome = solve_lifting(problem, "h", "left")
    assert outcome.found


def test_lift_cofibrant_object_vs_acyclic_fibration():
    X = disk(ZZ, 1)
    q = to_zero(X)  # acyclic h-fibration: X contractible
    v = classify(q, "h")
    assert v.fibration.holds and v.weak_equivalence.holds
    left = from_zero(sphere(ZZ, 1))
    problem = LiftingProblem(left, q,
                             ChainMap.zero(left.source, X),
                             ChainMap.zero(left.target, q.target))
    assert solve_lifting(problem, "h", "right").found


def test_lift_failure_reports_obstruction_degree():
    # no diagonal h with 2h = id: parity obstruction at degree 0
    U = unit_complex(ZZ)
    two = ChainMap(U, U, [ModuleMap(U.module(0), U.module(0),
                                    Matrix(ZZ, 1, 1, [[2]]))])
    problem = LiftingProblem(from_zero(U), two,
                             ChainMap.zero(zero_complex(ZZ), U),
                             ChainMap.identity(U))
    outcome = solve_lifting(problem, "h", "left")
    assert not outcome.found
    assert outcome.obstruction_degree == 0


@pytest.mark.parametrize("flavor", ["h", "q", "m"])
@pytest.mark.parametrize("acyclic_leg", ["left", "right"])
def test_lifting_prechecks_match_full_classification(flavor, acyclic_leg):
    # solve_lifting decides only three bits; each must read as in classify
    rng = random.Random(17)
    U = unit_complex(ZZ)
    two = ChainMap(U, U, [ModuleMap(U.module(0), U.module(0),
                                    Matrix(ZZ, 1, 1, [[2]]))])
    D = ChainMap.identity(disk(ZZ, 1))
    problems = [LiftingProblem(two, two, ChainMap.identity(U),
                               ChainMap.identity(U)),
                LiftingProblem(D, D, D, D)]
    for _ in range(3):
        left = random_map_for_agreement(ZZ, rng, max_rank=2)
        right = random_map_for_agreement(ZZ, rng, max_rank=2)
        problems.append(LiftingProblem(
            left, right, ChainMap.zero(left.source, right.source),
            ChainMap.zero(left.target, right.target)))
    for problem in problems:
        left_v = classify(problem.left, flavor)
        right_v = classify(problem.right, flavor)
        acyclic_v = left_v if acyclic_leg == "left" else right_v
        assert solve_lifting(problem, flavor, acyclic_leg).prechecks == {
            "left_cofibration": left_v.cofibration.status,
            "right_fibration": right_v.fibration.status,
            "acyclic_leg": acyclic_leg,
            "acyclic": acyclic_v.weak_equivalence.status,
        }


def test_brutal_truncation_lifted_homotopy():
    """The lifted homotopy forces H~ = H and g~_0 = f~_0 + d H_0."""
    C = disk(ZZ, 1)
    quotient, q = brutal_truncation(C)
    A = sphere(ZZ, 0)
    # f = g = 0 : A -> C/C_0 with the nonzero homotopy H_0 = [1]
    lay, i0, i1, r = interval_cylinder(A, interval(ZZ))
    f_tilde = ChainMap.zero(A, C)
    H0 = Matrix(ZZ, 1, 1, [[1]])
    # homotopy as a map A (x) I -> C/C_0: e0, e1 -> 0; the middle -> H
    parts = []
    for n in range(lay.top + 1):
        rows = quotient.module(n).generators
        cols = lay.module(n).generators
        out = [[0] * cols for _ in range(rows)]
        if n == 1:
            # x (x) e with |x| = 0 carries H_0
            out[0][lay.address(1, 0, 0, 0)] = 1
        parts.append(ModuleMap(lay.module(n), quotient.module(n),
                               Matrix(ZZ, rows, cols, out), check=False))
    G = ChainMap(lay.complex(), quotient, parts)
    problem = LiftingProblem(i0, q, f_tilde, G)
    outcome = solve_lifting(problem, "h", "left")
    assert outcome.found
    lift = outcome.lift
    # H~_0 is the middle component of the lift; it must equal H_0 exactly
    h_tilde = lift.component(1).action.columns([lay.address(1, 0, 0, 0)])
    assert h_tilde == H0
    # g~_0 = lift o i1 at degree 0 must equal f~_0 + d(H_0) = 0 + [1]
    g_tilde0 = lift.compose(i1).component(0).action
    d1 = C.differential(1).action
    assert g_tilde0 == (f_tilde.component(0).action + d1 @ H0)


def test_pushout_product_of_unit_with_L_is_L():
    # i : 0 -> R[0], k : 0 -> L[0]  gives  i [] k = k
    L = concentrated(PresentedModule.cyclic(ZZ, 2), 0)
    i = from_zero(unit_complex(ZZ))
    k = from_zero(L)
    pp = pushout_product(i, k)
    assert pp.source.module(0).is_zero_module()
    assert pp.target.module(0).minimal_invariants() == (0, (2,))
    v_h = classify(pp.map, "h")
    v_q = classify(pp.map, "q")
    assert v_h.cofibration.holds
    assert not v_q.cofibration.holds


def test_pushout_product_disk_disk():
    i = from_zero(disk(ZZ, 1))
    report = check_pushout_product_axiom(i, i, expect_acyclic=True)
    assert report.cofibration.holds
    assert report.acyclic
    pp = report.product
    assert pp.target.module(1).generators == 2  # disk (x) disk degree 1


def test_pushout_product_random_split_monos():
    rng = random.Random(17)
    for _ in range(3):
        i = random_split_mono(ZZ, rng, max_rank=2)
        k = random_split_mono(ZZ, rng, max_rank=2)
        report = check_pushout_product_axiom(i, k)
        assert report.cofibration.holds


def test_hlp_examples():
    assert hlp_check(to_zero(disk(ZZ, 1)))
    C = disk(ZZ, 1)
    _, q = brutal_truncation(C)
    assert hlp_check(q)
    # Z --mod 2--> Z/2 concentrated in degree 1: epi but not split
    free = PresentedModule.free(ZZ, 1)
    E = ChainComplex(ZZ, [PresentedModule.zero(ZZ), free],
                     [ModuleMap.zero_map(free, PresentedModule.zero(ZZ))])
    B = concentrated(PresentedModule.cyclic(ZZ, 2), 1)
    p = ChainMap(E, B, [ModuleMap.zero_map(E.module(0), B.module(0)),
                        ModuleMap(free, B.module(1), Matrix(ZZ, 1, 1, [[1]]))])
    assert not hlp_check(p)


def test_hep_examples():
    assert hep_check(from_zero(disk(ZZ, 1)))
    # Z --x2--> Z in degree 0 is not split mono, so no HEP
    U = unit_complex(ZZ)
    two = ChainMap(U, U, [ModuleMap(U.module(0), U.module(0),
                                    Matrix(ZZ, 1, 1, [[2]]))])
    assert not hep_check(two)


def test_hlp_hep_match_classifier_bits():
    rng = random.Random(29)
    for _ in range(6):
        f = random_map_for_agreement(ZZ, rng, max_top=1, max_rank=2)
        v = classify(f, "h")
        assert hlp_check(f) == v.fibration.holds
        assert hep_check(f) == v.cofibration.holds


def hlp_hep_suite_maps(ring, cases):
    """The maps of the hlp-hep suite at seed 7; generating them builds the
    chain-maps module and takes Smith forms."""
    cfg = CertifyConfig("hlp-hep", seed=7, cases=cases, ring=ring)
    maps = []
    for index in range(cfg.cases):
        rng = random.Random(cfg.seed * 1_000_003 + index)
        case = SUITES["hlp-hep"].generate(rng, cfg)
        maps.append(chain_map_from_json(cfg.ring, case["map"], "map"))
    return maps


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_path_objects_never_build_hom_spaces(monkeypatch, ring):
    # the path objects and both comparisons are block matrices: building
    # them takes no Smith form, and deciding HLP/HEP builds no HomSpace
    maps = hlp_hep_suite_maps(ring, 200)

    def no_smith_form(M):
        raise RuntimeError("a universal object took a Smith form")

    def forbidden(self, *args):
        raise RuntimeError("path object built on the general hom machinery")

    with monkeypatch.context() as stubbed:
        stubbed.setattr(snf, "_factor", no_smith_form)
        for f in maps:
            mapping_cylinder(f)
            mapping_cocylinder(f)
            cylinder_comparison(f)
            path_space_comparison(f)
    monkeypatch.setattr(HomSpace, "__init__", forbidden)
    for f in maps[:20]:
        v = classify(f, "h")
        assert hlp_check(f) == v.fibration.holds
        assert hep_check(f) == v.cofibration.holds
        rep = factorize_h(f)
        assert rep.cocylinder.composes_to(f)
        assert rep.cocylinder.second_verdict.fibration.holds


def pushout_path_space_window(p):
    """E x_B Hom(I, B) on degrees -1..top as E_n + B_n + B_{n+1}, with
    d(e, b, h) = (d e, d b, d h + (-1)^{n+1}(b - p e)): the window whose
    good truncation is the cocylinder."""
    E, B = p.source, p.target
    ring = E.ring

    def summands(n):
        return [E.module(n), B.module(n), B.module(n + 1)]

    top = max(E.top, B.top)
    mods = {n: direct_sum_module(ring, summands(n)) for n in range(-1, top + 1)}
    diffs = {}
    for n in range(top + 1):
        s = -1 if n % 2 == 0 else 1
        action = Matrix.assemble(
            ring, [m.generators for m in summands(n - 1)],
            [m.generators for m in summands(n)],
            {(0, 0): E.differential(n).action,
             (1, 1): B.differential(n).action,
             (2, 0): p.component(n).action.scale(-s),
             (2, 1): Matrix.identity(ring, B.module(n).generators).scale(s),
             (2, 2): B.differential(n + 1).action})
        diffs[n] = ModuleMap(mods[n], mods[n - 1], action)
    return WindowComplex(ring, mods, diffs)


def truncated_path_space_comparison(p):
    """(ev_0, p_*) between the good truncations, degree 0 factored through
    the kernel inclusions."""
    E = p.source
    ring = E.ring
    source = good_truncation(pushout_path_space_window(ChainMap.identity(E)))
    target = good_truncation(pushout_path_space_window(p))
    comps = [ModuleMap(source.window_module(n), target.window_module(n),
                       Matrix.block_diagonal(ring, [
                           Matrix.identity(ring, E.module(n).generators),
                           p.component(n).action, p.component(n + 1).action]))
             for n in range(E.top + 1)]
    comps[0] = factor_through(target.kernel_inclusion,
                              comps[0].compose(source.kernel_inclusion))
    return ChainMap(source.complex, target.complex, comps)


def pushout_cylinder_comparison(i):
    """Mi -> X (x) I with Mi the pushout of X <- A -> A (x) I at e1."""
    A, X = i.source, i.target
    I = interval(A.ring)
    layA, _, a_i1, _ = interval_cylinder(A, I)
    layX, _, x_i1, _ = interval_cylinder(X, I)
    Mi, _, _ = pushout_complexes(i, a_i1)
    i_tensor = ChainMap(layA.complex(), layX.complex(),
                        tensor_module_maps(i.parts, None, layA, layX))
    return pushout_induced_chain_map(Mi, x_i1, i_tensor)


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_closed_forms_decide_like_the_pushout_and_truncation(ring):
    # the good truncation and the pushout presentation of the universal
    # objects give the same sections and retractions as the closed forms
    verdicts = set()
    for f in hlp_hep_suite_maps(ring, 40):
        hlp = chain_section(truncated_path_space_comparison(f)) is not None
        hep = chain_retraction(pushout_cylinder_comparison(f)) is not None
        assert hlp_check(f) == hlp
        assert hep_check(f) == hep
        verdicts.add((hlp, hep))
    assert {hlp for hlp, _ in verdicts} == {hep for _, hep in verdicts} \
        == {False, True}


def test_p_epic_examples():
    free = PresentedModule.free(ZZ, 1)
    Z2 = PresentedModule.cyclic(ZZ, 2)
    quotient = ModuleMap(free, Z2, Matrix(ZZ, 1, 1, [[1]]))
    assert p_epic_check(free, quotient)       # R detects nothing
    assert not p_epic_check(Z2, quotient)     # id_{Z/2} does not lift


def test_yoneda_agrees_with_split_epi():
    rng = random.Random(41)
    for _ in range(5):
        f = random_map_for_agreement(ZZ, rng, max_top=1, max_rank=2)
        ora = split_epi_via_yoneda(f)
        for n, expected in ora.items():
            assert (is_split_epi(f.component(n)) is not None) == expected


def test_factorize_h_identity():
    U = unit_complex(ZZ)
    rep = factorize_h(ChainMap.identity(U))
    assert rep.cylinder.composes_to(ChainMap.identity(U))
    assert rep.cylinder.first_verdict.cofibration.holds
    assert rep.cylinder.second_verdict.fibration.holds
    assert rep.cylinder.second_verdict.weak_equivalence.holds
    assert rep.cocylinder.first_verdict.cofibration.holds
    assert rep.cocylinder.first_verdict.weak_equivalence.holds
    assert rep.cocylinder.second_verdict.fibration.holds


def test_factorize_h_sphere_to_zero():
    f = to_zero(sphere(ZZ, 1))
    rep = factorize_h(f)
    assert rep.cylinder.composes_to(f)
    assert rep.cocylinder.composes_to(f)
    assert rep.cylinder.first_verdict.cofibration.holds
    assert rep.cocylinder.second_verdict.fibration.holds


def test_chain_section_retraction_helpers():
    U = unit_complex(ZZ)
    cylf = factorize_h(ChainMap.identity(U))
    assert chain_section(cylf.cylinder.second) is not None
    assert chain_retraction(cylf.cocylinder.first) is not None


# Under python -O every witness re-check must still raise.  `verify` first
# refuses three forged reports: a tampered homotopy-equivalence inverse, a
# degreewise "no" at a degree that splits, and "found": false on a square
# that lifts.  The simplicial pipelines run next, with the lifts stubbed to
# fail and the cylinder ends swapped; the EZ/AW predicates run with no
# contraction found (both reach it through `cokernel_contraction`), and
# the EZ/AW homotopies, both built by `homotopy_to_identity`, must refuse
# a zero contraction of the cokernel, which is no homotopy on
# N(D^1 (x) D^1) nor on the D^2 cotensor; then
# the memo of split answers is emptied and the solver is stubbed to answer
# zero for every unknown, a wrong answer for each call, and a contraction
# of a cokernel must refuse it; a
# retraction r with r o f = 0 must be refused where `Retractions` is
# built.  Last,
# the exactness sweep is stubbed to name degree 0 of D^1, where the
# homology is zero, and `first_homology` must refuse that degree.
CERTIFICATE_GUARDS = """
import json
import sys
from chaincert import certify
from chaincert.chains import homology, homotopy
from chaincert.chains.build import (direct_sum_complex, disk, sphere,
                                    unit_complex, zero_complex)
from chaincert.chains.complexes import (ChainHomotopy, ChainMap,
                                        LiftingProblem, Retractions)
from chaincert.errors import CertificateError
from chaincert.exact import splitting
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import ModuleMap
from chaincert.exact.rings import ZZ
from chaincert.io.document import complex_to_json
from chaincert.io.reports import (classification_report, dump, lift_report,
                                  verify_report)
from chaincert.models import classify, lifting
from chaincert.simplicial import classify as sclassify, cotensor, ez_aw
from chaincert.simplicial.module import (SimplicialMap, degreewise_tensor,
                                         end_inclusion, gamma, interval_object)

def report(calls):
    for name, call in calls.items():
        try:
            call()
            print(name, "accepted a wrong witness")
        except CertificateError:
            print(name, "raised")

print("optimize", sys.flags.optimize)

def refuse(name, report, damage):
    report = json.loads(dump(report))
    damage(report)
    ok, problems = verify_report(report)
    print(name, "accepted a forged report" if ok or not problems
          else "refused")

D1 = ChainMap.identity(disk(ZZ, 1))
def tamper_inverse(r):
    inverse = r["verdict"]["weak_equivalence"]["witness"]["inverse"]
    inverse["components"][0][0][0] += 1
refuse("he_inverse", classification_report(D1, "h", classify.classify(D1, "h")),
       tamper_inverse)
C = direct_sum_complex([sphere(ZZ, 0), sphere(ZZ, 1)])
f = ChainMap(C, C, [ModuleMap(C.module(n), C.module(n),
                              Matrix(ZZ, 1, 1, [[n + 1]])) for n in range(2)])
def wrong_degree(r):
    r["verdict"]["cofibration"]["obstruction"]["degree"] = 0
refuse("no_degree", classification_report(f, "h", classify.classify(f, "h")),
       wrong_degree)
D2 = ChainMap.identity(disk(ZZ, 2))
square = LiftingProblem(D2, D2, D2, D2)
def no_lift(r):
    r["found"] = False
    del r["lift"]
    r["obstruction_degree"] = 0
refuse("no_lift", lift_report(square, lifting.solve_lifting(square), "h"),
       no_lift)
D = gamma(disk(ZZ, 1))
DD = degreewise_tensor(D, D)
Zs = gamma(zero_complex(ZZ), verify=False)
T = degreewise_tensor(Zs, interval_object(ZZ))
cot = sclassify.interval_cotensor(D)
S0 = gamma(sphere(ZZ, 0))
i = SimplicialMap(Zs, S0, ChainMap.zero(Zs.normalized, S0.normalized))
g0 = ModuleMap(S0.normalized.module(0), D.normalized.module(0),
               Matrix(ZZ, 1, 1, [[1]]))
sclassify.find_lift = lambda problem: lifting.LiftOutcome(None)
sclassify.end_inclusion = lambda A, T, end: end_inclusion(A, T, 1 - end)
report({
    "simplicial_homotopic": lambda: sclassify.simplicial_homotopic(
        SimplicialMap(D, D, ChainMap.identity(D.normalized)),
        SimplicialMap(D, D, ChainMap.zero(D.normalized, D.normalized))),
    "solve_hlp_simplicial": lambda: sclassify.solve_hlp_simplicial(
        SimplicialMap(Zs, Zs, ChainMap.identity(Zs.normalized)),
        SimplicialMap(Zs, Zs, ChainMap.identity(Zs.normalized)),
        SimplicialMap(T, Zs, ChainMap.zero(T.normalized, Zs.normalized))),
    "solve_hep_simplicial": lambda: sclassify.solve_hep_simplicial(
        i, SimplicialMap(Zs, cot.object,
                         ChainMap.zero(Zs.normalized, cot.object.normalized)),
        SimplicialMap(S0, D, ChainMap(S0.normalized, D.normalized, [g0])),
        cot),
})

contract_image = homotopy.contract_image
homotopy.contract_image = lambda p: None
case = {"a": complex_to_json(disk(ZZ, 1)), "b": complex_to_json(sphere(ZZ, 0))}
for suite in ("ez-aw", "ez-aw-dual"):
    print(suite, certify.SUITES[suite].predicate(
        case, certify.CertifyConfig(suite, 0, 1)))
homotopy.contract_image = contract_image

def zero_contraction(retractions):
    B = retractions.map.target
    return ChainHomotopy(ChainMap.zero(B, B), ChainMap.zero(B, B), [],
                         check=False)

cokernel_contraction = homotopy.cokernel_contraction
homotopy.cokernel_contraction = zero_contraction
sD2 = gamma(disk(ZZ, 2))
report({
    "find_ez_aw_homotopy": lambda: ez_aw.find_ez_aw_homotopy(
        ez_aw.ez(D, D, DD), ez_aw.aw(D, D, DD)),
    "ez_aw_dual_ops": lambda: cotensor.ez_aw_dual_ops(sD2, sD2, through=2),
})
homotopy.cokernel_contraction = cokernel_contraction

def zero_solution(ring, variables, relations):
    return {v.name: Matrix.zero(ring, v.target.generators, v.source.generators)
            for v in variables}

def zero_sweep(ring, steps):
    return [Matrix.zero(ring, v.rows, v.cols) for v, _ in steps], None

U = unit_complex(ZZ)
ident = ChainMap.identity(U)
from_zero = ChainMap.zero(zero_complex(ZZ), U)
calls = {
    "q_cofibration_bit": lambda: classify.q_cofibration_bit(ident),
    "is_split_mono": lambda: splitting.is_split_mono(ident.component(0)),
    "is_split_epi": lambda: splitting.is_split_epi(ident.component(0)),
    "find_lift": lambda: lifting.find_lift(
        LiftingProblem(from_zero, ident, from_zero, ident)),
    "chain_section": lambda: lifting.chain_section(ident),
    "chain_retraction": lambda: lifting.chain_retraction(ident),
    "cokernel_contraction": lambda: homotopy.cokernel_contraction(
        Retractions(ChainMap.zero(zero_complex(ZZ), D1.source), dict(
            enumerate(ChainMap.zero(D1.source, zero_complex(ZZ)).parts)))),
    "Retractions": lambda: Retractions(
        ident, {0: ModuleMap.zero_map(U.module(0), U.module(0))}),
    "first_homology": lambda: homology.first_homology(disk(ZZ, 1)),
}
classify.is_split_mono = lambda fn: None
homology.first_inexact_degree = lambda C: 0
# forget the answers found above, so the stubbed solver is asked again
splitting._answer.cache_clear()
splitting.solve_map_relations = zero_solution
homotopy.solve_map_relations = zero_solution
lifting.solve_by_degree = zero_sweep
report(calls)
"""


def test_witness_guards_survive_python_O():
    import chaincert

    src = os.path.dirname(os.path.dirname(chaincert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", CERTIFICATE_GUARDS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1:4] == [f"{name} refused" for name in (
        "he_inverse", "no_degree", "no_lift")]
    assert lines[4:7] == [f"{name} raised" for name in (
        "simplicial_homotopic", "solve_hlp_simplicial", "solve_hep_simplicial")]
    assert lines[7:9] == ["ez-aw fail", "ez-aw-dual fail"]
    assert lines[9:11] == [f"{name} raised" for name in (
        "find_ez_aw_homotopy", "ez_aw_dual_ops")]
    assert lines[11:] == [f"{name} raised" for name in (
        "q_cofibration_bit", "is_split_mono", "is_split_epi", "find_lift",
        "chain_section", "chain_retraction", "cokernel_contraction",
        "Retractions", "first_homology")]
