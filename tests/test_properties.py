"""Property-based tests for the algebraic laws the spec fixes."""

import random

from hypothesis import given, settings, strategies as st

from chaincert.chains.build import unit_complex
from chaincert.chains.complexes import ChainMap, chain_map_equal
from chaincert.chains.homcx import ChainMapsSpace, hom_complex
from chaincert.chains.homotopy import quasi_iso
from chaincert.chains.tensor import tensor_complex
from chaincert.exact.rings import ZZ, Zmod
from chaincert.io.reports import classification_report, verify_classification
from chaincert.models.classify import classify
from chaincert.models.generators import (random_complex,
                                         random_map_for_agreement,
                                         random_q_cofibration,
                                         random_split_mono)

from oracles import braiding, homology_iso_all_degrees

seeds = st.integers(min_value=0, max_value=10 ** 6)


def small_complex(ring, seed, max_top=2, max_rank=2):
    return random_complex(ring, random.Random(seed), max_top=max_top,
                          max_rank=max_rank)


@settings(max_examples=15, deadline=None)
@given(seeds, seeds, seeds)
def test_tensor_associative_up_to_invariants(s1, s2, s3):
    X = small_complex(ZZ, s1, max_rank=2)
    Y = small_complex(ZZ, s2, max_rank=2)
    Z = small_complex(ZZ, s3, max_rank=2)
    left = tensor_complex(tensor_complex(X, Y), Z)
    right = tensor_complex(X, tensor_complex(Y, Z))
    assert left.top == right.top
    for n in range(left.top + 1):
        assert left.module(n).minimal_invariants() == \
            right.module(n).minimal_invariants()


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_tensor_unit_laws(seed):
    X = small_complex(Zmod(6), seed)
    U = unit_complex(Zmod(6))
    for T in (tensor_complex(U, X), tensor_complex(X, U)):
        for n in range(X.top + 1):
            assert T.module(n).minimal_invariants() == \
                X.module(n).minimal_invariants()


@settings(max_examples=10, deadline=None)
@given(seeds, seeds)
def test_braiding_is_involutive_chain_iso(s1, s2):
    X = small_complex(ZZ, s1)
    Y = small_complex(ZZ, s2)
    b = braiding(X, Y)       # constructor checks the chain condition
    c = braiding(Y, X)
    assert chain_map_equal(c.compose(b), ChainMap.identity(b.source))


@settings(max_examples=8, deadline=None)
@given(seeds, seeds, seeds)
def test_tensor_hom_adjunction_counts_over_F2(s1, s2, s3):
    ring = Zmod(2)
    X = small_complex(ring, s1, max_top=1)
    Y = small_complex(ring, s2, max_top=1)
    Z = small_complex(ring, s3, max_top=2)
    lhs = ChainMapsSpace(tensor_complex(X, Y), Z).module
    rhs = ChainMapsSpace(X, hom_complex(Y, Z)).module
    # all modules over Z/2 are free, so sizes are 2^rank: compare invariants
    assert lhs.minimal_invariants() == rhs.minimal_invariants()


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_quasi_iso_matches_induced_homology_oracle(seed):
    f = random_map_for_agreement(ZZ, random.Random(seed), max_top=2,
                                 max_rank=2)
    assert quasi_iso(f) == homology_iso_all_degrees(f)


@settings(max_examples=8, deadline=None)
@given(seeds)
def test_every_positive_witness_reverifies(seed):
    rng = random.Random(seed)
    f = random_split_mono(ZZ, rng, max_rank=2)
    for flavor in ("h", "q", "m"):
        verdict = classify(f, flavor)
        report = classification_report(f, flavor, verdict)
        assert verify_classification(report) == []


@settings(max_examples=8, deadline=None)
@given(seeds)
def test_class_containments(seed):
    rng = random.Random(seed)
    maps = [random_split_mono(ZZ, rng, max_rank=2),
            random_q_cofibration(ZZ, rng, max_rank=2)]
    for f in maps:
        h, q = classify(f, "h"), classify(f, "q")
        m = classify(f, "m")
        if h.weak_equivalence.holds:
            assert q.weak_equivalence.holds
            assert m.weak_equivalence.holds
        if q.cofibration.holds:
            assert h.cofibration.holds
        if h.fibration.holds:
            assert q.fibration.holds
            assert m.fibration.holds


@settings(max_examples=6, deadline=None)
@given(seeds)
def test_q2h_on_generated_acyclic_q_cofibrations(seed):
    """The drawn acyclic q-cofibrations are quasi-isomorphisms, which
    their generator does not check, and homotopy equivalences."""
    from chaincert.chains.homotopy import is_chain_homotopy_equivalence

    for ring in (ZZ, Zmod(4), Zmod(6)):
        j = random_q_cofibration(ring, random.Random(seed), acyclic=True,
                                 max_rank=2)
        assert quasi_iso(j)
        assert is_chain_homotopy_equivalence(j) is not None


@settings(max_examples=6, deadline=None)
@given(seeds, seeds)
def test_dold_kan_roundtrip_property(s1, s2):
    from chaincert.simplicial.module import gamma, normalize

    for ring, seed in ((ZZ, s1), (Zmod(6), s2)):
        C = small_complex(ring, seed, max_top=3, max_rank=3)
        assert normalize(gamma(C, verify=False)) == C
