"""Acceptance gate: every criterion at its stated size, exact arithmetic.

Each test runs one acceptance criterion with its pinned case count, seed
and time budget, and prints a single pass/fail line.  All comparisons are
exact (integer arithmetic, zero tolerance).
"""

import time

from chaincert.certify import CertifyConfig, run_suite
from chaincert.chains.build import (brutal_truncation, concentrated, disk,
                                    interval, sphere, unit_complex,
                                    zero_complex)
from chaincert.chains.cochain import dualize_map
from chaincert.chains.complexes import ChainMap, LiftingProblem
from chaincert.chains.tensor import interval_cylinder
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import ModuleMap, PresentedModule
from chaincert.exact.rings import ZZ, Zmod
from chaincert.models.classify import (bousfield_classify, classify,
                                       h_cofibration_bit, h_fibration_bit)
from chaincert.models.lifting import find_lift
from chaincert.models.pushout import pushout_product

SEED = 20260809


def _criterion(number: int, name: str, budget: float, started: float,
               ok: bool) -> None:
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} ({name}): {status} "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed <= budget, \
        f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"


def _suite_ok(suite: str, cases: int, ring=ZZ, max_rank: int = 3) -> bool:
    report = run_suite(CertifyConfig(suite, seed=SEED, cases=cases,
                                     max_rank=max_rank, ring=ring,
                                     shrink=False))
    return report["ok"]


def test_criterion_01_dold_kan_roundtrip():
    t0 = time.time()
    ok = (_suite_ok("dold-kan", 100, ring=ZZ)
          and _suite_ok("dold-kan", 100, ring=Zmod(6)))
    _criterion(1, "Dold-Kan roundtrip, 200 cases over Z and Z/6", 30, t0, ok)


def test_criterion_02_ez_aw_identities():
    t0 = time.time()
    ok = _suite_ok("ez-aw", 50)
    _criterion(2, "AW o EZ = id and homotopy witness, 50 pairs", 60, t0, ok)


def test_criterion_03_dual_identities():
    t0 = time.time()
    ok = _suite_ok("ez-aw-dual", 20)
    _criterion(3, "EZ* o AW* = id through degree 3, 20 pairs", 60, t0, ok)


def test_criterion_04_hlp_hep_agreement():
    t0 = time.time()
    ok = _suite_ok("hlp-hep", 200)
    _criterion(4, "HLP/HEP vs classifier on 200 maps", 60, t0, ok)


def test_criterion_05_brutal_truncation_lift():
    t0 = time.time()
    # the fixture: A = S^0, C = D^1, homotopy H_0 = [1] under C -> C/C_0
    C = disk(ZZ, 1)
    quotient, q = brutal_truncation(C)
    A = sphere(ZZ, 0)
    f_tilde = ChainMap.zero(A, C)
    lay, i0, i1, r = interval_cylinder(A, interval(ZZ))
    H0 = Matrix(ZZ, 1, 1, [[1]])
    parts = []
    for m in range(lay.top + 1):
        rows = quotient.module(m).generators
        cols = lay.module(m).generators
        out = [[0] * cols for _ in range(rows)]
        if m == 1:
            out[0][lay.address(1, 0, 0, 0)] = 1
        parts.append(ModuleMap(lay.module(m), quotient.module(m),
                               Matrix(ZZ, rows, cols, out), check=False))
    G = ChainMap(lay.complex(), quotient, parts)
    lift = find_lift(LiftingProblem(i0, q, f_tilde, G)).lift
    ok = lift is not None
    if ok:
        # H~_n = H_n for all n (here n = 0 is the only nonzero component)
        h_tilde = lift.component(1).action.columns([lay.address(1, 0, 0, 0)])
        ok = ok and h_tilde == H0
        # g~_0 = f~_0 + d H_0 exactly
        g_tilde0 = lift.compose(i1).component(0).action
        ok = ok and g_tilde0 == (f_tilde.component(0).action
                                 + C.differential(1).action @ H0)
        # and the suite variant over random complexes
        ok = ok and _suite_ok("brutal-truncation", 5)
    _criterion(5, "brutal truncation lifted homotopy identities", 1 + 10,
               t0, ok)


def test_criterion_06_pushout_product_axiom_h():
    t0 = time.time()
    ok = (_suite_ok("monoidal-h", 200)
          and _suite_ok("monoidal-h-acyclic", 50))
    _criterion(6, "h pushout-product axiom, 200 + 50 acyclic", 120, t0, ok)


def test_criterion_07_simplicial_monoidality():
    t0 = time.time()
    ok = (_suite_ok("monoidal-smod", 35)
          and _suite_ok("monoidal-smod-acyclic", 15))
    _criterion(7, "simplicial pushout-product axiom, 50 pairs", 120, t0, ok)


def test_criterion_08_q2h_weak_equivalences():
    t0 = time.time()
    ok = _suite_ok("q2h-we", 50)
    _criterion(8, "acyclic q-cofibrations are homotopy equivalences", 60,
               t0, ok)


def test_criterion_09_nonqhm_counterexample():
    t0 = time.time()
    ok = True
    for d in (2, 4, 9):
        L = concentrated(PresentedModule.cyclic(ZZ, d), 0)
        i = ChainMap.zero(zero_complex(ZZ), unit_complex(ZZ))
        j = ChainMap.zero(zero_complex(ZZ), L)
        pp = pushout_product(i, j)
        ok = ok and h_cofibration_bit(pp.map).holds
        ok = ok and not classify(pp.map, "q").cofibration.holds
    _criterion(9, "non-enrichment counterexamples Z/2, Z/4, Z/9", 1, t0, ok)


def test_criterion_10_yoneda_oracle():
    t0 = time.time()
    ok = _suite_ok("yoneda", 200)
    _criterion(10, "representable oracle vs split epi on 200 maps", 30,
               t0, ok)


def test_criterion_11_bousfield_dual():
    t0 = time.time()
    ok = _suite_ok("bousfield-dual", 100)
    _criterion(11, "dual classifier under the degree-zero swap, 100 maps",
               30, t0, ok)


def test_criterion_12_everything_fibrant_cofibrant():
    t0 = time.time()
    # canonical corpus objects ...
    corpus = [disk(ZZ, 1), disk(ZZ, 2), sphere(ZZ, 0), sphere(ZZ, 2),
              interval(ZZ), brutal_truncation(disk(ZZ, 2))[0],
              concentrated(PresentedModule.cyclic(ZZ, 2), 0),
              disk(Zmod(6), 1),
              concentrated(PresentedModule(Zmod(6), 1,
                                           Matrix(Zmod(6), 1, 1, [[2]])), 0)]
    ok = True
    for X in corpus:
        z = zero_complex(X.ring)
        to0, from0 = ChainMap.zero(X, z), ChainMap.zero(z, X)
        ok = ok and h_fibration_bit(to0).holds
        ok = ok and h_cofibration_bit(from0).holds
        ok = ok and classify(to0, "q").fibration.holds
        ok = ok and classify(to0, "m").fibration.holds
        ok = ok and bousfield_classify(dualize_map(to0)).fibration.holds
        ok = ok and bousfield_classify(dualize_map(from0)).cofibration.holds
    # ... plus the seeded generated corpus across all flavors
    ok = ok and _suite_ok("fibrant-cofibrant", 10)
    _criterion(12, "every object fibrant and cofibrant, all flavors", 10,
               t0, ok)
