"""Classifier verdicts against the examples fixed by the structure tables."""

import random

import pytest

from chaincert.certify import SUITES, CertifyConfig
from chaincert.chains.build import (brutal_truncation, concentrated, disk,
                                    unit_complex, zero_complex)
from chaincert.chains.cochain import dualize_map
from chaincert.chains.complexes import ChainComplex, ChainMap
from chaincert.chains.cones import mapping_cone
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import ModuleMap, PresentedModule
from chaincert.exact.rings import ZZ, Zmod
from chaincert.io.document import chain_map_from_json
from chaincert.models.classify import (MCofibrationWitness, bousfield_classify,
                                       classify, model_bit,
                                       verify_m_cofibration,
                                       weak_equivalence_holds)
from chaincert.models.generators import (random_complex, random_q_cofibration,
                                         random_split_epi, random_split_mono)


def from_zero(X):
    return ChainMap.zero(zero_complex(X.ring), X)


def to_zero(X):
    return ChainMap.zero(X, zero_complex(X.ring))


def test_every_complex_fibrant_and_cofibrant_h():
    rng = random.Random(11)
    for _ in range(5):
        X = random_complex(ZZ, rng)
        assert classify(to_zero(X), "h").fibration.holds
        assert classify(from_zero(X), "h").cofibration.holds


def test_nonqhm_seed_example():
    L = concentrated(PresentedModule.cyclic(ZZ, 2), 0)
    v_h = classify(from_zero(L), "h")
    v_q = classify(from_zero(L), "q")
    assert v_h.cofibration.holds
    assert not v_q.cofibration.holds
    assert v_q.cofibration.obstruction["degree"] == 0


def test_brutal_truncation_is_h_fibration():
    C = disk(ZZ, 1)
    quotient, q = brutal_truncation(C)
    v = classify(q, "h")
    assert v.fibration.holds
    # degree 0 is never tested for fibrations: witness only covers degree 1
    assert set(v.fibration.witness["degrees"]) == {"1"}


def test_fibration_degree_zero_convention():
    # Z[0] --x2--> Z[0] is not split epi in degree 0, yet it is an h-fibration
    U = unit_complex(ZZ)
    two = ChainMap(U, U, [ModuleMap(U.module(0), U.module(0),
                                    Matrix(ZZ, 1, 1, [[2]]))])
    assert classify(two, "h").fibration.holds
    assert not classify(two, "h").cofibration.holds


def test_q_flavor_examples():
    # disk(1) -> 0 is a quasi-iso but not surjective in degree 0: still q-fib
    f = to_zero(disk(ZZ, 1))
    v = classify(f, "q")
    assert v.weak_equivalence.holds
    assert v.fibration.holds
    # 0 -> disk(1) is an acyclic q-cofibration
    g = from_zero(disk(ZZ, 1))
    vg = classify(g, "q")
    assert vg.cofibration.holds and vg.weak_equivalence.holds


def test_q_nonfibration_detected():
    # Z --mod 2--> Z/2 concentrated in degree 1: epi but not split there
    free = PresentedModule.free(ZZ, 1)
    E = ChainComplex(ZZ, [PresentedModule.zero(ZZ), free],
                     [ModuleMap.zero_map(free, PresentedModule.zero(ZZ))])
    B = concentrated(PresentedModule.cyclic(ZZ, 2), 1)
    p = ChainMap(E, B, [ModuleMap.zero_map(E.module(0), B.module(0)),
                        ModuleMap(free, B.module(1), Matrix(ZZ, 1, 1, [[1]]))])
    assert classify(p, "q").fibration.holds        # surjective in degree 1
    assert not classify(p, "h").fibration.holds    # but not split


def test_m_flavor_reports_unknown_cofibration():
    f = from_zero(disk(ZZ, 1))
    v = classify(f, "m")
    assert v.cofibration.status == "unknown"
    assert v.fibration.status in ("yes", "no")
    assert v.weak_equivalence.holds


def test_class_containments_on_corpus():
    """W_h <= W_q, C_q <= C_h, F_h <= F_q on generated maps."""
    rng = random.Random(23)
    maps = [random_split_mono(ZZ, rng), random_split_epi(ZZ, rng),
            random_q_cofibration(ZZ, rng), random_q_cofibration(ZZ, rng,
                                                                acyclic=True)]
    for f in maps:
        h = classify(f, "h")
        q = classify(f, "q")
        if h.weak_equivalence.holds:
            assert q.weak_equivalence.holds
        if q.cofibration.holds:
            assert h.cofibration.holds
        if h.fibration.holds:
            assert q.fibration.holds


def test_verify_m_cofibration_examples():
    # a q-cofibration with the trivial witness (itself, identity)
    j = random_q_cofibration(ZZ, random.Random(5))
    w = MCofibrationWitness(j.target, j, ChainMap.identity(j.target))
    assert verify_m_cofibration(j, w)

    # 0 -> Z/2[0] admits no verifying witness; a wrong witness must fail
    L = concentrated(PresentedModule.cyclic(ZZ, 2), 0)
    jbad = from_zero(L)
    wbad = MCofibrationWitness(L, jbad, ChainMap.identity(L))
    assert not verify_m_cofibration(jbad, wbad)

    # disk inclusion followed by an explicit homotopy equivalence
    D = disk(ZZ, 1)
    i = from_zero(D)
    neg = ChainMap(D, D, [ModuleMap(D.module(0), D.module(0),
                                    Matrix(ZZ, 1, 1, [[-1]])),
                          ModuleMap(D.module(1), D.module(1),
                                    Matrix(ZZ, 1, 1, [[-1]]))])
    composite = neg.compose(i)
    assert verify_m_cofibration(composite, MCofibrationWitness(D, i, neg))


def test_bousfield_identity_and_duality():
    X = disk(ZZ, 1)
    ident = dualize_map(ChainMap.identity(X))
    v = bousfield_classify(ident)
    assert v.cofibration.holds and v.fibration.holds and v.weak_equivalence.holds


def test_bousfield_every_object_fibrant_cofibrant():
    rng = random.Random(31)
    for _ in range(4):
        X = random_complex(ZZ, rng)
        to0 = dualize_map(to_zero(X))
        from0 = dualize_map(from_zero(X))
        assert bousfield_classify(to0).fibration.holds
        assert bousfield_classify(from0).cofibration.holds


def test_bousfield_tests_degree_zero_for_fibrations():
    # chain side: x2 in degree 0 is an h-fibration (degree 0 skipped);
    # the dual cochain map has that failure at its top degree, which the
    # Bousfield classifier does test.
    U = unit_complex(ZZ)
    two = ChainMap(U, U, [ModuleMap(U.module(0), U.module(0),
                                    Matrix(ZZ, 1, 1, [[2]]))])
    assert classify(two, "h").fibration.holds
    dual = dualize_map(two)
    assert not bousfield_classify(dual).fibration.holds


def test_bousfield_flavor_guard():
    with pytest.raises(TypeError):
        bousfield_classify(ChainMap.identity(disk(ZZ, 1)))
    with pytest.raises(ValueError):
        classify(ChainMap.identity(disk(ZZ, 1)), "bousfield")
    # cochain data belongs to the Bousfield structure alone
    with pytest.raises(ValueError, match="flavor h needs chain data"):
        classify(dualize_map(ChainMap.identity(disk(ZZ, 1))), "h")


def test_witnesses_reverify_exactly():
    rng = random.Random(7)
    f = random_split_mono(ZZ, rng)
    v = classify(f, "h")
    assert v.cofibration.holds
    for n_str, r in v.cofibration.witness["degrees"].items():
        n = int(n_str)
        fn = f.component(n)
        r_map = ModuleMap(fn.target, fn.source,
                          Matrix(ZZ, fn.source.generators, fn.target.generators, r))
        from chaincert.exact.modules import map_equal
        assert map_equal(r_map.compose(fn), ModuleMap.identity(fn.source))


def test_homotopy_equivalence_no_builds_one_cone(monkeypatch):
    from chaincert.chains import homotopy
    from chaincert.models import classify as classify_module

    built = []

    def counting_cone(f):
        built.append(f)
        return mapping_cone(f)

    monkeypatch.setattr(homotopy, "mapping_cone", counting_cone)
    monkeypatch.setattr(classify_module, "mapping_cone", counting_cone)
    # Z -> 0 in degree 0: the cone has homology Z in degree 1
    bit = classify_module.homotopy_equivalence_bit(
        to_zero(concentrated(PresentedModule.free(ZZ, 1), 0)))
    assert not bit.holds
    assert bit.obstruction["degree"] == 1
    assert len(built) == 1


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_weak_equivalence_holds_answers_as_the_witnessed_bit(ring):
    """In every flavor, on the hlp-hep maps and the acyclic q-cofibrations
    of q2h-we, so on equivalences and others."""
    answers = set()
    for suite, key in (("hlp-hep", "map"), ("q2h-we", "j")):
        cfg = CertifyConfig(suite, seed=5, cases=1, ring=ring)
        for index in range(12):
            case = SUITES[suite].generate(
                random.Random(5 * 1_000_003 + index), cfg)
            f = chain_map_from_json(ring, case[key], key)
            for flavor, g in (("h", f), ("q", f), ("m", f),
                              ("bousfield", dualize_map(f))):
                holds = weak_equivalence_holds(g, flavor)
                assert holds == model_bit(g, flavor,
                                          "weak_equivalence").holds
                answers.add((flavor, holds))
    assert answers == {(flavor, holds) for flavor in ("h", "q", "m",
                                                      "bousfield")
                       for holds in (True, False)}
