"""Suite engine: determinism, hypothesis-respecting shrinking, smoke runs."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from chaincert.certify import (FAIL, INVALID, PASS, CertifyConfig, SUITES,
                               _decodes, run_suite, shrink_case)
from chaincert.chains.build import concentrated, disk
from chaincert.chains.complexes import ChainMap
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import PresentedModule
from chaincert.exact.rings import ZZ, Zmod
from chaincert.io.document import chain_map_to_json, complex_to_json
from chaincert.io.reports import dump
from chaincert.models.generators import unimodular
from chaincert.simplicial.module import gamma, normalize

# sha256 of what the suites draw and decide at seed 7.  A change to what
# a generator draws changes these on purpose, and says so in CHANGES.md.
DRAWN_CASES_SHA256 = {
    "Z": "f00a8bd9f7584d2945506b9b3a604d2462e5e4954491aef6e9cdd08a479afdd3",
    "Z/6": "39f168ebc764839602e943906857f9c186af1ed899513edb7eca0fa4d211912a",
}
REPORTS_SHA256 = {
    "Z": "cff79edd4ae3ab98d036db2a9746f01049642b5793054806e6dba6037df6b30f",
    "Z/6": "bee1715433953473692e7e8d8e55d685888126bf3483947551eb09d6dbd8fb9d",
}


def test_all_suites_smoke():
    for name in sorted(SUITES):
        report = run_suite(CertifyConfig(name, seed=3, cases=2))
        assert report["ok"], f"{name}: {report['failures']}"


def test_reports_are_byte_identical():
    a = run_suite(CertifyConfig("dold-kan", seed=11, cases=6))
    b = run_suite(CertifyConfig("dold-kan", seed=11, cases=6))
    assert dump(a) == dump(b)
    c = run_suite(CertifyConfig("dold-kan", seed=12, cases=6))
    assert dump(a) != dump(c)


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_drawn_cases_are_pinned(ring):
    """The first 20 cases of every suite, generated as run_suite seeds
    them, serialized with sorted keys, suites in name order."""
    digest = hashlib.sha256()
    for name in sorted(SUITES):
        config = CertifyConfig(name, seed=7, cases=20, ring=ring)
        for index in range(20):
            rng = random.Random(7 * 1_000_003 + index)
            case = SUITES[name].generate(rng, config)
            digest.update(json.dumps(case, sort_keys=True).encode())
    assert digest.hexdigest() == DRAWN_CASES_SHA256[str(ring)]


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_report_bytes_are_pinned(ring):
    digest = hashlib.sha256()
    for name in ("hlp-hep", "monoidal-h-acyclic", "q2h-we",
                 "enrich-m-over-q"):
        config = CertifyConfig(name, seed=7, cases=5, ring=ring)
        digest.update(dump(run_suite(config)).encode())
    assert digest.hexdigest() == REPORTS_SHA256[str(ring)]


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_unimodular_returns_the_exact_inverse(ring):
    """The drawn generators take U^-1 from `unimodular` and never solve
    for it, so U U^-1 = I must hold on every draw."""
    rng = random.Random(11)
    for n in range(6):
        for _ in range(40):
            U, Uinv = unimodular(ring, n, rng, ops=rng.randint(0, 6))
            assert (U @ Uinv).is_identity() and (Uinv @ U).is_identity()


def test_zmod_elimination_keeps_entries_small():
    # Case 3 of this call eliminates a 169x160 system over Z/6.  Unless the
    # Smith form reduces mod 6 as it eliminates, its entries grow past
    # 200,000 bits and the call does not finish within the timeout.
    import chaincert

    src = os.path.dirname(os.path.dirname(chaincert.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "chaincert.cli", "certify", "--suite", "ez-aw",
         "--ring", "z/6", "--seed", "20260809", "--cases", "4"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"]


def test_dold_kan_over_zmod6():
    report = run_suite(CertifyConfig("dold-kan", seed=5, cases=6,
                                     ring=Zmod(6)))
    assert report["ok"]


def test_dold_kan_over_zmod4_with_zero_relation_columns():
    """Cases 5, 9 and 11 at this seed draw a C_k with a zero relation
    column ([[0]] over Z/4); the round trip drops it and still gives C."""
    report = run_suite(CertifyConfig("dold-kan", seed=7, cases=12,
                                     ring=Zmod(4)))
    assert report["ok"], report["failures"]
    zero_column = PresentedModule(Zmod(4), 1, Matrix(Zmod(4), 1, 1, [[4]]))
    C = concentrated(zero_column, 0)
    A = gamma(C)   # the verified round trip accepts it too
    assert A.normalized is C
    assert normalize(A).module(0).relations.cols == 0


def test_config_guards():
    with pytest.raises(ValueError):
        CertifyConfig("dold-kan", seed=1, cases=0)
    with pytest.raises(ValueError):
        CertifyConfig("dold-kan", seed=1, cases=1, max_rank=9)
    with pytest.raises(ValueError):
        run_suite(CertifyConfig("no-such-suite", seed=1, cases=1))


def test_decoding_is_invalid_only_where_the_chain_data_breaks():
    @_decodes(c="complex", f="map")
    def claim(case, config, C, f):
        if case["fault"]:
            raise ValueError("a fault in the claim")
        return PASS if f.source == C else FAIL

    config = CertifyConfig("dold-kan", seed=0, cases=1)
    D1 = disk(ZZ, 1)
    case = {"c": complex_to_json(D1), "fault": False,
            "f": chain_map_to_json(ChainMap.identity(D1))}
    assert claim(case, config) == PASS
    assert claim(dict(case, c=complex_to_json(disk(ZZ, 2))), config) == FAIL
    not_a_chain_map = dict(case["f"], components=[[[1]], [[0]]])
    assert claim(dict(case, f=not_a_chain_map), config) == INVALID
    d_squared = {"degrees": [{"generators": 1, "relations": []}] * 3,
                 "differentials": [[[1]], [[1]]]}
    assert claim(dict(case, c=d_squared), config) == INVALID
    with pytest.raises(ValueError, match="a fault in the claim"):
        claim(dict(case, fault=True), config)


def test_shrinking_moves_entries_toward_zero():
    # a fake predicate that fails whenever some entry exceeds 4
    case = {"complex": {"degrees": [{"generators": 1, "relations": []},
                                    {"generators": 1, "relations": []}],
                        "differentials": [[[40]]]}}

    def predicate(c):
        entries = c["complex"]["differentials"]
        if not entries:
            return INVALID
        return FAIL if abs(entries[0][0][0]) > 4 else PASS

    shrunk = shrink_case(case, predicate)
    value = shrunk["complex"]["differentials"][0][0][0]
    assert 4 < abs(value) <= 5  # halving stops at the smallest failing value


def test_shrinking_drops_degrees():
    case = {"complex": {"degrees": [{"generators": 1, "relations": []}] * 4,
                        "differentials": [[[0]], [[0]], [[0]]]}}

    def predicate(c):
        return FAIL if len(c["complex"]["degrees"]) >= 2 else PASS

    shrunk = shrink_case(case, predicate)
    assert len(shrunk["complex"]["degrees"]) == 2


def test_shrinking_respects_invalid():
    case = {"value": 8}

    def predicate(c):
        if c["value"] % 2:
            return INVALID
        return FAIL if c["value"] > 2 else PASS

    shrunk = shrink_case(case, predicate)
    assert shrunk["value"] == 4  # 8 -> 4; 4 -> 2 passes, 4 -> 0 passes


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_acyclic_suites_never_decide_by_the_cone(monkeypatch, ring):
    """When both legs split, the acyclic monoidal suites decide the leg and
    the product by contractions of their cokernels, with the retractions
    in hand; none reaches `is_homotopy_equivalence`."""
    def refuse(f):
        raise RuntimeError("is_homotopy_equivalence called")

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("chaincert")
                and hasattr(module, "is_homotopy_equivalence")):
            monkeypatch.setattr(module, "is_homotopy_equivalence", refuse)
    for suite in ("monoidal-h-acyclic", "monoidal-smod-acyclic",
                  "enrich-h-over-q"):
        report = run_suite(CertifyConfig(suite, seed=7, cases=10, ring=ring))
        assert report["ok"], f"{suite}: {report['failures']}"
