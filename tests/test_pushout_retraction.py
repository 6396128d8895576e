"""The pushout-product's retraction built from its legs' retractions.

`decide_pushout_product` offers r = inj_xw (rho (x) 1) + inj_yv ((1 - i
rho) (x) sigma) as the candidate of every degree and keeps it when
r o (i [] k) = id holds modulo the relations; `is_split_mono` decides a
degree only when a leg does not split or that check fails.  These tests
hold the closed form to the search, on drawn pairs and in the certify
suites, exercise both ways into the search, and check that each
retraction is multiplied out once.
"""

import json
import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chaincert.certify import SUITES, CertifyConfig
from chaincert.chains.build import disk, sphere, unit_complex, zero_complex
from chaincert.chains.complexes import ChainMap
from chaincert.cli import main
from chaincert.exact.matrix import Matrix
from chaincert.exact import splitting
from chaincert.exact.modules import ModuleMap, map_equal
from chaincert.exact.rings import ZZ, Zmod
from chaincert.models.classify import (bit_degrees, degreewise_retractions,
                                       retractions_bit, split_mono_bit)
from chaincert.models.generators import random_q_cofibration, random_split_mono
from chaincert.models.pushout import (check_pushout_product_axiom,
                                      pushout_product)
from chaincert.simplicial.classify import pushout_product_simplicial
from chaincert.simplicial.module import gamma_map

RINGS = {"Z": (ZZ, ZZ), "Z/4": (Zmod(4), Zmod(4)), "Z/6": (Zmod(6), Zmod(6)),
         # the enriched case: k over Z tensored against a Z/m leg i
         "Z/4 over Z": (Zmod(4), ZZ), "Z/6 over Z": (Zmod(6), ZZ)}


def _wrap_everywhere(monkeypatch, name, wrapper):
    """Rebind ``name`` in every loaded chaincert module that imports it."""
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("chaincert")
                and hasattr(module, name)):
            monkeypatch.setattr(module, name, wrapper(getattr(module, name)))


@contextmanager
def searches_recorded():
    """The source of every map `is_split_mono` decides while open."""
    sources = []
    with pytest.MonkeyPatch.context() as mp:
        def record(real):
            def decide(f):
                sources.append(f.source)
                return real(f)
            return decide
        _wrap_everywhere(mp, "is_split_mono", record)
        yield sources


def _corner_searched(sources, f: ChainMap) -> bool:
    return any(M is f.source.module(n) for M in sources
               for n in range(f.source.top + 1))


def _retractions_check(bit, f: ChainMap) -> bool:
    """Every retraction of a "yes" witness, read back from its JSON,
    satisfies r o f_n = id modulo the relations."""
    ring = f.source.ring
    for key, rows in bit.witness["degrees"].items():
        fn = f.component(int(key))
        r = ModuleMap(fn.target, fn.source,
                      Matrix(ring, fn.source.generators,
                             fn.target.generators, rows))
        if not map_equal(r.compose(fn), ModuleMap.identity(fn.source)):
            return False
    return True


def _legs(rng, ring, k_ring, acyclic):
    i = (random_q_cofibration(ring, rng, acyclic=True, max_rank=2)
         if acyclic else random_split_mono(ring, rng, max_rank=2))
    return i, random_split_mono(k_ring, rng, max_rank=2)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rings=st.sampled_from(sorted(RINGS)), seed=st.integers(0, 10 ** 6),
       acyclic=st.booleans())
def test_closed_form_splits_both_products_as_the_search_does(rings, seed,
                                                             acyclic):
    """On drawn h-cofibration pairs, both the chain-level product and
    N(i [] k) are h-cofibrations by the closed form alone, every
    retraction of the witness checks, and the search agrees."""
    ring, k_ring = RINGS[rings]
    i, k = _legs(random.Random(seed), ring, k_ring, acyclic)
    with searches_recorded() as sources:
        chain = check_pushout_product_axiom(i, k)
        simplicial = pushout_product_simplicial(gamma_map(i), gamma_map(k))
    for legs, bit, f in (
            (chain.legs, chain.cofibration, chain.product.map),
            (simplicial.legs, simplicial.cofibration,
             simplicial.product.map)):
        assert None not in legs
        assert bit.holds
        assert not _corner_searched(sources, f)
        assert _retractions_check(bit, f)
        assert split_mono_bit(f, bit_degrees(f, "h", "cofibration")).holds


@pytest.mark.parametrize("ring", [ZZ, Zmod(4), Zmod(6)], ids=str)
def test_the_two_tensor_models_agree_in_degree_0(ring):
    """N(Gamma(C) (x) Gamma(D))_0 = C_0 (x) D_0 = (C (x) D)_0 in the same
    coordinates, so N(Gamma i [] Gamma k) and i [] k have the same
    degree-0 component, relations included.  The legs are drawn with
    several generators in degree 0, so a tensor model that swaps or
    misorders its factors fails here."""
    rng = random.Random(34)
    wide = 0
    for index in range(25):
        i = (random_q_cofibration(ring, rng, acyclic=True, max_top=1,
                                  max_rank=4) if index % 2
             else random_split_mono(ring, rng, max_top=1, max_rank=4))
        k = random_split_mono(ring, rng, max_top=1, max_rank=4)
        # Y_0 (x) W_0 reads differently once both have two generators
        wide += min(i.target.module(0).generators,
                    k.target.module(0).generators) >= 2
        chain = pushout_product(i, k).map.component(0)
        simplicial = pushout_product_simplicial(
            gamma_map(i), gamma_map(k)).product.map.component(0)
        assert simplicial.action == chain.action
        assert simplicial.source.relations == chain.source.relations
        assert simplicial.target.relations == chain.target.relations
    assert wide >= 5


def test_monoidal_suites_never_search_a_corner(monkeypatch, tmp_path):
    """With `is_split_mono` refusing every map out of a pushout corner,
    the monoidal suites still pass: the products split by the closed
    form."""
    corners = []

    def record_corner(real):
        def build(*args, **kwargs):
            out = real(*args, **kwargs)
            corners.append(out[0])
            return out
        return build

    def refuse_corner(real):
        def decide(f):
            if any(f.source is P.module(n) for P in corners
                   for n in range(P.top + 1)):
                raise RuntimeError("split-mono search on a pushout corner")
            return real(f)
        return decide

    _wrap_everywhere(monkeypatch, "pushout_complexes", record_corner)
    _wrap_everywhere(monkeypatch, "is_split_mono", refuse_corner)
    for suite in ("monoidal-h", "monoidal-smod", "monoidal-smod-acyclic"):
        for ring in ("z", "z/4"):
            out = tmp_path / "report.json"
            assert main(["certify", "--suite", suite, "--ring", ring,
                         "--seed", "7", "--cases", "6",
                         "--out", str(out)]) == 0
            results = json.loads(out.read_text())["results"]
            assert len(results) == 6 and all(r["ok"] for r in results)
    assert corners


def _times(d: int) -> ChainMap:
    R = unit_complex(ZZ)
    return ChainMap(R, R, [ModuleMap(R.module(0), R.module(0),
                                     Matrix(ZZ, 1, 1, [[d]]))])


@pytest.mark.parametrize("k, holds", [
    (ChainMap.identity(disk(ZZ, 1)), True),
    (ChainMap.zero(zero_complex(ZZ), sphere(ZZ, 1)), False),
], ids=["iso", "from-zero"])
def test_a_leg_that_does_not_split_falls_back_to_the_search(k, holds):
    """i = 2 : R -> R does not split.  With k an isomorphism, i [] k is
    one, so the answer is "yes" although the closed form has no rho; with
    k = 0 -> S^1, i [] k is 2 in degree 1 and the "no" names the degree
    the search names."""
    i = _times(2)
    chain = check_pushout_product_axiom(i, k)
    simplicial = pushout_product_simplicial(gamma_map(i), gamma_map(k))
    assert chain.legs[0] is None and simplicial.legs[0] is None
    for bit, f in ((chain.cofibration, chain.product.map),
                   (simplicial.cofibration, simplicial.product.map)):
        search = split_mono_bit(f, bit_degrees(f, "h", "cofibration"))
        assert bit.holds == search.holds == holds
        assert bit.to_json() == search.to_json()
        if not holds:
            assert bit.obstruction["degree"] == 1


def test_a_wrong_proposal_is_searched_again():
    """A candidate that fails r o f_n = id never changes the answer."""
    rng = random.Random(5)
    for f in (random_split_mono(ZZ, rng, max_rank=3), _times(3)):
        degrees = bit_degrees(f, "h", "cofibration")
        zero = {n: ModuleMap.zero_map(f.component(n).target,
                                      f.component(n).source)
                for n in degrees}
        with searches_recorded() as sources:
            offered = retractions_bit(
                *degreewise_retractions(f, degrees, zero))
        assert offered.to_json() == split_mono_bit(f, degrees).to_json()
        assert sources


def test_leg_decisions_are_made_once_per_product(monkeypatch):
    """The legs are searched once per product, also when acyclicity is
    expected and N(i [] k) is decided with the retractions built from
    them."""
    rng = random.Random(9)
    i = random_q_cofibration(ZZ, rng, acyclic=True, max_rank=2)
    k = random_split_mono(ZZ, rng, max_rank=2)
    calls = []

    def count(real):
        def decide(f, *args):
            calls.append(f)
            return real(f, *args)
        return decide

    _wrap_everywhere(monkeypatch, "degreewise_retractions", count)
    report = pushout_product_simplicial(gamma_map(i), gamma_map(k),
                                        expect_acyclic=True)
    assert report.cofibration.holds and report.acyclic
    legs = [f for f in calls if f is i or f is k]
    assert len(legs) == 2


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
@pytest.mark.parametrize("suite", ["monoidal-h-acyclic",
                                   "monoidal-smod-acyclic"])
def test_each_retraction_is_multiplied_out_once(monkeypatch, suite, ring):
    """Each r_n of i [] k that reaches `cokernel_contraction` was multiplied
    against f_n once, where it was found or checked, and never again by the
    contraction.  A leg's r_n is an answer of `is_split_mono`, which hands
    every question with the content of f_n the one matrix it found and
    checked first; so the leg's are counted per distinct content over the
    whole run: that matrix was multiplied against f_n once, whatever the
    number of cases that asked."""
    splitting._answer.cache_clear()
    products = []
    compose = ModuleMap.compose

    def recording(self, other):
        products.append((self, other))
        return compose(self, other)

    contracted = []

    def record(real):
        def contract(retractions):
            contracted.append(retractions)
            return real(retractions)
        return contract

    monkeypatch.setattr(ModuleMap, "compose", recording)
    _wrap_everywhere(monkeypatch, "cokernel_contraction", record)
    cfg = CertifyConfig(suite, seed=7, cases=4, ring=ring)
    verdicts = [SUITES[suite].predicate(SUITES[suite].generate(
        random.Random(cfg.seed * 1_000_003 + index), cfg), cfg)
        for index in range(cfg.cases)]
    assert verdicts.count("pass") == cfg.cases
    # the product's retractions, then the leg's, in every case
    assert len(contracted) == 2 * cfg.cases
    for retractions in contracted[0::2]:
        f = retractions.map
        for n, r in retractions.parts.items():
            fn = f.component(n)
            assert sum(a is r and b is fn for a, b in products) == 1, n

    def content(g):
        return g.source, g.target, g.action

    answers = {}
    for retractions in contracted[1::2]:
        for n, r in retractions.parts.items():
            fn = retractions.map.component(n)
            assert answers.setdefault(content(fn), r.action) is r.action, n
    assert answers
    for question, action in answers.items():
        assert sum(a.action is action and content(b) == question
                   for a, b in products) == 1, question
