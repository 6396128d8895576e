"""Randomized certification suites with seeds and shrinking.

Each suite pairs a deterministic seeded generator with a predicate over
the serialized case data.  Predicates return "pass", "fail" or "invalid"
(hypothesis broken); failing cases are shrunk by dropping top degrees and
pulling matrix entries toward zero before being reported, and identical
seed and configuration give byte-identical reports.

A predicate names the chain data it reads with `_decodes`, which decodes
those case fields with the document codec before the claim runs.  A case
whose chain data does not decode, as a shrinking step can leave it, is
"invalid"; a fault raised while the claim runs is never turned into
"invalid", because the claim runs outside the decoding `try`.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

from .chains.build import brutal_truncation, concentrated, interval, \
    unit_complex, zero_complex
from .chains.cochain import dualize_map
from .chains.complexes import ChainMap, LiftingProblem
from .chains.cones import mapping_cone
from .chains.homology import first_inexact_degree
from .chains.homotopy import (cokernel_contraction, find_contraction,
                              is_homotopy_equivalence, quasi_iso)
from .chains.tensor import cylinder_map, interval_cylinder
from .errors import CertificateError
from .exact.modules import ModuleMap, PresentedModule, map_equal
from .exact.rings import RingSpec, ZZ
from .exact.splitting import is_split_epi, is_split_mono
from .io.document import (chain_map_from_json, chain_map_to_json,
                          complex_to_json, parse_chain_complex,
                          parse_components, DocumentError)
from .models.classify import (MCofibrationWitness, bousfield_classify,
                              h_cofibration_bit, h_fibration_bit, model_bit,
                              q_cofibration_bit, verify_m_cofibration)
from .models.generators import (random_chain_map, random_complex,
                                random_map_for_agreement, random_q_cofibration,
                                random_split_mono, twist_complex_with_iso)
from .models.hlp_hep import hep_check, hlp_check
from .models.lifting import find_lift
from .models.pushout import check_pushout_product_axiom, pushout_product
from .models.yoneda import split_epi_via_yoneda
from .simplicial.classify import pushout_product_simplicial
from .simplicial.cotensor import ez_aw_dual_ops
from .simplicial.ez_aw import aw, ez, find_ez_aw_homotopy
from .simplicial.module import (degreewise_tensor, gamma, gamma_map,
                                normalize, without_zero_relations)

PASS, FAIL, INVALID = "pass", "fail", "invalid"

# the top degree of the complexes most generators draw
_MAX_TOP = 2


@dataclass
class CertifyConfig:
    suite: str
    seed: int
    cases: int
    max_rank: int = 3
    ring: RingSpec = ZZ
    shrink: bool = True

    def __post_init__(self) -> None:
        if self.cases < 1:
            raise ValueError("cases must be >= 1")
        if not 1 <= self.max_rank <= 8:
            raise ValueError("max_rank must stay within the desk-scale "
                             "guard 1..8")


@dataclass
class Suite:
    name: str
    generate: Callable[[random.Random, CertifyConfig], dict]
    predicate: Callable[[dict, CertifyConfig], str]
    description: str = ""


def _decodes(**fields: str):
    """Decode the named case fields before the claim runs.

    ``fields`` maps each case key to "complex" or "map"; the claim is called
    as ``claim(case, config, *decoded)`` with the values in that order, and
    the decorated predicate keeps the ``(case, config)`` signature.  A field
    that does not decode makes the case INVALID.
    """
    def wrap(claim):
        @functools.wraps(claim)
        def predicate(case: dict, config: CertifyConfig) -> str:
            ring = config.ring
            try:
                values = [parse_chain_complex(ring, case[key], key)
                          if kind == "complex"
                          else chain_map_from_json(ring, case[key], key)
                          for key, kind in fields.items()]
            except ValueError:  # DocumentError among them
                return INVALID
            return claim(case, config, *values)
        return predicate
    return wrap


def _from_zero(X):
    return ChainMap.zero(zero_complex(X.ring), X)


def _to_zero(X):
    return ChainMap.zero(X, zero_complex(X.ring))


# -- suite definitions ---------------------------------------------------


def _gen_dold_kan(rng, cfg):
    C = random_complex(cfg.ring, rng, max_top=3, max_rank=cfg.max_rank)
    return {"complex": complex_to_json(C)}


@_decodes(complex="complex")
def _pred_dold_kan(case, cfg, C):
    """The round trip gives C back in its canonical presentation, which
    has no zero relation column (one drawn over Z/m may have one)."""
    A = gamma(C, verify=False)
    return PASS if normalize(A) == without_zero_relations(C) else FAIL


def _gen_ez_aw(rng, cfg):
    ta = rng.randint(0, 2)
    tb = rng.randint(0, min(2, 4 - ta))
    A = random_complex(cfg.ring, rng, max_top=ta, max_rank=cfg.max_rank)
    B = random_complex(cfg.ring, rng, max_top=tb, max_rank=cfg.max_rank)
    return {"a": complex_to_json(A), "b": complex_to_json(B)}


@_decodes(a="complex", b="complex")
def _pred_ez_aw(case, cfg, CA, CB):
    A, B = gamma(CA, verify=False), gamma(CB, verify=False)
    T = degreewise_tensor(A, B)
    E = ez(A, B, T)
    W = aw(A, B, T)
    if not (E.validate() and W.validate()):
        return FAIL  # not even chain maps
    try:
        find_ez_aw_homotopy(A, B, T, E, W)  # checks AW o EZ = id first
    except CertificateError:
        return FAIL
    return PASS


def _gen_ez_aw_dual(rng, cfg):
    A = random_complex(cfg.ring, rng, max_top=1, max_rank=2)
    B = random_complex(cfg.ring, rng, max_top=2, max_rank=2)
    return {"a": complex_to_json(A), "b": complex_to_json(B)}


@_decodes(a="complex", b="complex")
def _pred_ez_aw_dual(case, cfg, CA, CB):
    try:
        ez_aw_dual_ops(gamma(CA, verify=False), gamma(CB, verify=False),
                       through=3)
    except CertificateError:
        return FAIL
    return PASS


def _gen_agreement_map(rng, cfg):
    f = random_map_for_agreement(cfg.ring, rng, max_top=_MAX_TOP,
                                 max_rank=min(cfg.max_rank, 2))
    return {"map": chain_map_to_json(f)}


@_decodes(map="map")
def _pred_hlp_hep(case, cfg, f):
    if hlp_check(f) != h_fibration_bit(f).holds:
        return FAIL
    if hep_check(f) != h_cofibration_bit(f).holds:
        return FAIL
    return PASS


def _gen_monoidal_h(rng, cfg):
    i = random_split_mono(cfg.ring, rng, max_top=_MAX_TOP,
                          max_rank=cfg.max_rank)
    k = random_split_mono(cfg.ring, rng, max_top=_MAX_TOP,
                          max_rank=cfg.max_rank)
    return {"i": chain_map_to_json(i), "k": chain_map_to_json(k)}


def _gen_monoidal_h_acyclic(rng, cfg):
    i = random_q_cofibration(cfg.ring, rng, acyclic=True,
                             max_top=_MAX_TOP, max_rank=cfg.max_rank)
    k = random_split_mono(cfg.ring, rng, max_top=_MAX_TOP,
                          max_rank=min(cfg.max_rank, 2))
    return {"i": chain_map_to_json(i), "k": chain_map_to_json(k)}


# The four monoidal suites assume that both legs are h-cofibrations and, in
# the acyclic ones, that i is an h-equivalence.  The legs' bits are read on
# the product, which decides them once for its own cofibration bit; i is
# then decided with its retractions.


def _monoidal_verdict(report) -> str:
    """PASS when the product is an h-cofibration and, if its acyclicity was
    decided, an h-equivalence; INVALID unless both legs split and i is."""
    if None in report.legs:
        return INVALID
    if report.acyclic is None:
        return PASS if report.cofibration.holds else FAIL
    if cokernel_contraction(report.legs[0]) is None:
        return INVALID
    return PASS if report.cofibration.holds and report.acyclic else FAIL


@_decodes(i="map", k="map")
def _pred_monoidal_h(case, cfg, i, k):
    return _monoidal_verdict(check_pushout_product_axiom(i, k))


@_decodes(i="map", k="map")
def _pred_monoidal_h_acyclic(case, cfg, i, k):
    return _monoidal_verdict(
        check_pushout_product_axiom(i, k, expect_acyclic=True))


@_decodes(i="map", k="map")
def _pred_monoidal_smod(case, cfg, i, k):
    return _monoidal_verdict(
        pushout_product_simplicial(gamma_map(i), gamma_map(k)))


@_decodes(i="map", k="map")
def _pred_monoidal_smod_acyclic(case, cfg, i, k):
    return _monoidal_verdict(pushout_product_simplicial(
        gamma_map(i), gamma_map(k), expect_acyclic=True))


def _gen_q2h(rng, cfg):
    j = random_q_cofibration(cfg.ring, rng, acyclic=True,
                             max_top=_MAX_TOP, max_rank=cfg.max_rank)
    return {"j": chain_map_to_json(j)}


@_decodes(j="map")
def _pred_q2h(case, cfg, j):
    # one cone serves both: j is a quasi-isomorphism iff it is exact, and
    # then a homotopy equivalence iff it contracts
    if not q_cofibration_bit(j).holds:
        return INVALID
    cone = mapping_cone(j)
    if first_inexact_degree(cone) is not None:
        return INVALID
    return PASS if find_contraction(cone) is not None else FAIL


def _gen_nonqhm(rng, cfg):
    return {"modulus": rng.choice((2, 3, 4, 5, 8, 9))}


def _pred_nonqhm(case, cfg):
    d = case["modulus"]
    if not isinstance(d, int) or d < 2:
        return INVALID
    L = concentrated(PresentedModule.cyclic(ZZ, d), 0)
    i = _from_zero(unit_complex(ZZ))
    j = _from_zero(L)
    pp = pushout_product(i, j)
    h_ok = h_cofibration_bit(pp.map).holds
    q_bad = not q_cofibration_bit(pp.map).holds
    return PASS if (h_ok and q_bad) else FAIL


@_decodes(map="map")
def _pred_yoneda(case, cfg, f):
    oracle = split_epi_via_yoneda(f)
    for n, expected in oracle.items():
        if (is_split_epi(f.component(n)) is not None) != expected:
            return FAIL
    return PASS


@_decodes(map="map")
def _pred_bousfield(case, cfg, f):
    T = max(f.source.top, f.target.top)
    v = bousfield_classify(dualize_map(f))
    fib_expected = all(is_split_epi(f.component(n)) is not None
                       for n in range(T + 1))
    cof_expected = all(is_split_mono(f.component(n)) is not None
                       for n in range(T))
    we_expected = is_homotopy_equivalence(f)
    if v.fibration.holds != fib_expected:
        return FAIL
    if v.cofibration.holds != cof_expected:
        return FAIL
    if v.weak_equivalence.holds != we_expected:
        return FAIL
    return PASS


def _gen_fibrant(rng, cfg):
    X = random_complex(cfg.ring, rng, max_top=_MAX_TOP,
                       max_rank=cfg.max_rank)
    return {"complex": complex_to_json(X)}


@_decodes(complex="complex")
def _pred_fibrant(case, cfg, X):
    to0, from0 = _to_zero(X), _from_zero(X)
    checks = [
        h_fibration_bit(to0).holds,
        h_cofibration_bit(from0).holds,
        model_bit(to0, "q", "fibration").holds,
        model_bit(dualize_map(to0), "bousfield", "fibration").holds,
        model_bit(dualize_map(from0), "bousfield", "cofibration").holds,
        h_fibration_bit(gamma_map(to0).normalized_map).holds,
        h_cofibration_bit(gamma_map(from0).normalized_map).holds,
    ]
    return PASS if all(checks) else FAIL


def _gen_brutal(rng, cfg):
    C = random_complex(cfg.ring, rng, max_top=_MAX_TOP, max_rank=cfg.max_rank)
    while C.top < 1:
        C = random_complex(cfg.ring, rng, max_top=_MAX_TOP,
                           max_rank=cfg.max_rank)
    A = random_complex(cfg.ring, rng, max_top=_MAX_TOP,
                       max_rank=min(cfg.max_rank, 2))
    f = random_chain_map(A, C, rng, bound=1)
    quotient, _ = brutal_truncation(C)
    h_parts = [[[rng.randint(-2, 2)
                 for _ in range(A.module(n).generators)]
                for _ in range(quotient.module(n + 1).generators)]
               for n in range(max(A.top, quotient.top) + 1)]
    return {"c": complex_to_json(C), "a": complex_to_json(A),
            "f": chain_map_to_json(f), "h": h_parts}


@_decodes(c="complex", f="map")
def _pred_brutal(case, cfg, C, f_tilde):
    A = f_tilde.source
    if f_tilde.target != C or C.top < 1:
        return INVALID
    quotient, q = brutal_truncation(C)
    ring = cfg.ring
    try:
        H_parts = parse_components(case["h"], A, quotient, "h", shift=1)
    except DocumentError:
        return INVALID
    fbar = q.compose(f_tilde)
    # define g := fbar + dH + Hd, a genuine homotopy endpoint by construction
    g_parts = []
    for n in range(max(A.top, quotient.top) + 1):
        gn = fbar.component(n) + quotient.differential(n + 1).compose(H_parts[n])
        if n >= 1:
            gn = gn + H_parts[n - 1].compose(A.differential(n))
        g_parts.append(gn)
    gbar = ChainMap(A, quotient, g_parts)
    lay, i0, i1, r = interval_cylinder(A, interval(ring))
    G = cylinder_map(fbar, gbar, H_parts)
    problem = LiftingProblem(i0, q, f_tilde, G)
    lift = find_lift(problem).lift
    if lift is None:
        return FAIL
    # the lifted homotopy is forced to agree with H in every degree
    for n in range(max(A.top, quotient.top) + 1):
        blk = lift.component(n + 1).action
        cols = [lay.address(n + 1, n, b, 0)
                for b in range(A.module(n).generators)] if n <= A.top else []
        if not cols:
            continue
        sign = -1 if n % 2 else 1
        h_tilde = ModuleMap(A.module(n), C.module(n + 1),
                            blk.columns(cols).scale(sign), check=False)
        lifted_vs_H = h_tilde - ModuleMap(
            A.module(n), C.module(n + 1), H_parts[n].action, check=False)
        if not lifted_vs_H.is_zero():
            return FAIL
    # and the e1 end satisfies g~_0 = f~_0 + d H_0
    g_tilde = lift.compose(i1)
    want = f_tilde.component(0) + C.differential(1).compose(
        ModuleMap(A.module(0), C.module(1), H_parts[0].action, check=False))
    if not map_equal(g_tilde.component(0), want):
        return FAIL
    return PASS


def _gen_enrich_h_over_q(rng, cfg):
    i = random_split_mono(cfg.ring, rng, max_top=_MAX_TOP,
                          max_rank=min(cfg.max_rank, 2))
    acyclic = rng.random() < 0.5
    k = random_q_cofibration(cfg.ring, rng, acyclic=acyclic,
                             max_top=_MAX_TOP, max_rank=min(cfg.max_rank, 2))
    return {"i": chain_map_to_json(i), "k": chain_map_to_json(k),
            "acyclic": acyclic}


@_decodes(i="map", k="map")
def _pred_enrich_h_over_q(case, cfg, i, k):
    # the product searches k's retractions for its own; k's q-cofibration
    # bit reads them, so k is searched once (a q-cofibration is split)
    report = check_pushout_product_axiom(i, k,
                                         expect_acyclic=bool(case["acyclic"]))
    sigma = report.legs[1]
    if sigma is None or not q_cofibration_bit(sigma.map,
                                              retractions=sigma).holds:
        return INVALID
    if case["acyclic"] and not quasi_iso(k):
        return INVALID
    if report.legs[0] is None:   # i is not an h-cofibration
        return INVALID
    if not report.cofibration.holds:
        return FAIL
    if case["acyclic"] and not report.acyclic:
        return FAIL
    return PASS


def _gen_enrich_m_over_q(rng, cfg):
    base = random_q_cofibration(cfg.ring, rng, max_top=_MAX_TOP,
                                max_rank=min(cfg.max_rank, 2))
    _, iso = twist_complex_with_iso(base.target, rng)
    acyclic = rng.random() < 0.5
    k = random_q_cofibration(cfg.ring, rng, acyclic=acyclic,
                             max_top=_MAX_TOP, max_rank=min(cfg.max_rank, 2))
    return {"i_base": chain_map_to_json(base),
            "equivalence": chain_map_to_json(iso),
            "k": chain_map_to_json(k), "acyclic": acyclic}


@_decodes(i_base="map", equivalence="map", k="map")
def _pred_enrich_m_over_q(case, cfg, base, equiv, k):
    if equiv.source != base.target:
        return INVALID
    j = equiv.compose(base)
    witness = MCofibrationWitness(base.target, base, equiv)
    if not verify_m_cofibration(j, witness):
        return INVALID
    # as in enrich-h-over-q: k's q-cofibration bit reads the retractions
    # the product found for k, so k is searched once
    report = check_pushout_product_axiom(j, k)
    sigma = report.legs[1]
    if sigma is None or not q_cofibration_bit(sigma.map,
                                              retractions=sigma).holds:
        return INVALID
    if case["acyclic"] and not quasi_iso(k):
        return INVALID
    if not report.cofibration.holds:
        return FAIL
    if case["acyclic"] and not quasi_iso(report.product.map):
        return FAIL
    return PASS


SUITES: dict[str, Suite] = {
    "dold-kan": Suite("dold-kan", _gen_dold_kan, _pred_dold_kan,
                      "normalize(gamma(C)) reproduces C exactly"),
    "ez-aw": Suite("ez-aw", _gen_ez_aw, _pred_ez_aw,
                   "AW o EZ = id and EZ o AW is homotopic to id"),
    "ez-aw-dual": Suite("ez-aw-dual", _gen_ez_aw_dual, _pred_ez_aw_dual,
                        "EZ* o AW* = id and AW* o EZ* is homotopic to id"),
    "hlp-hep": Suite("hlp-hep", _gen_agreement_map, _pred_hlp_hep,
                     "HLP/HEP solvers match the split classifier bits"),
    "monoidal-h": Suite("monoidal-h", _gen_monoidal_h, _pred_monoidal_h,
                        "pushout-products of h-cofibrations are split mono"),
    "monoidal-h-acyclic": Suite("monoidal-h-acyclic", _gen_monoidal_h_acyclic,
                                _pred_monoidal_h_acyclic,
                                "an acyclic leg gives an acyclic product"),
    "monoidal-smod": Suite("monoidal-smod", _gen_monoidal_h,
                           _pred_monoidal_smod,
                           "the simplicial transport of monoidal-h"),
    "monoidal-smod-acyclic": Suite("monoidal-smod-acyclic",
                                   _gen_monoidal_h_acyclic,
                                   _pred_monoidal_smod_acyclic,
                                   "simplicial acyclic products, decided by "
                                   "a contraction of the cokernel"),
    "q2h-we": Suite("q2h-we", _gen_q2h, _pred_q2h,
                    "acyclic q-cofibrations are homotopy equivalences"),
    "nonqhm": Suite("nonqhm", _gen_nonqhm, _pred_nonqhm,
                    "the counterexample family refutes q-enrichment"),
    "yoneda": Suite("yoneda", _gen_agreement_map, _pred_yoneda,
                    "representable surjectivity matches split epi checks"),
    "bousfield-dual": Suite("bousfield-dual", _gen_agreement_map,
                            _pred_bousfield,
                            "the dual classifier matches under the "
                            "degree-zero asymmetry swap"),
    "fibrant-cofibrant": Suite("fibrant-cofibrant", _gen_fibrant,
                               _pred_fibrant,
                               "every object is fibrant and cofibrant"),
    "brutal-truncation": Suite("brutal-truncation", _gen_brutal, _pred_brutal,
                               "lifted homotopies agree with the homotopy "
                               "and shift the e1 end by the boundary"),
    "enrich-h-over-q": Suite("enrich-h-over-q", _gen_enrich_h_over_q,
                             _pred_enrich_h_over_q,
                             "h-cofibration against q-cofibration products"),
    "enrich-m-over-q": Suite("enrich-m-over-q", _gen_enrich_m_over_q,
                             _pred_enrich_m_over_q,
                             "witnessed m-cofibrations against "
                             "q-cofibrations"),
}


# -- shrinking -----------------------------------------------------------


def _drop_top(case: dict) -> dict | None:
    import copy

    def complexes(node):
        if isinstance(node, dict):
            if "degrees" in node and "differentials" in node:
                yield node
            for v in node.values():
                yield from complexes(v)
        elif isinstance(node, list):
            for v in node:
                yield from complexes(v)

    out = copy.deepcopy(case)
    found = list(complexes(out))
    if not found or any(len(c["degrees"]) < 2 for c in found):
        return None
    for c in found:
        c["degrees"] = c["degrees"][:-1]
        c["differentials"] = c["differentials"][:-1]

    def trim_components(node):
        if isinstance(node, dict):
            if "components" in node and isinstance(node["components"], list):
                if len(node["components"]) > 1:
                    node["components"] = node["components"][:-1]
            for v in node.values():
                trim_components(v)
        elif isinstance(node, list):
            for v in node:
                trim_components(v)

    trim_components(out)
    return out


def _entry_paths(node, path=()):
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _entry_paths(node[k], path + (k,))
    elif isinstance(node, list):
        for idx, v in enumerate(node):
            yield from _entry_paths(v, path + (idx,))
    elif isinstance(node, int) and not isinstance(node, bool) and node != 0:
        yield path, node


def _with_entry(case, path, value):
    import copy

    out = copy.deepcopy(case)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def shrink_case(case: dict, predicate: Callable[[dict], str],
                max_rounds: int = 25) -> dict:
    """Greedy structural shrinking while the predicate still fails."""
    current = case
    for _ in range(max_rounds):
        improved = False
        smaller = _drop_top(current)
        if smaller is not None and predicate(smaller) == FAIL:
            current = smaller
            continue
        for path, value in list(_entry_paths(current))[:400]:
            for candidate_value in (0, value // 2):
                if candidate_value == value:
                    continue
                candidate = _with_entry(current, path, candidate_value)
                if predicate(candidate) == FAIL:
                    current = candidate
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return current


# -- the runner ----------------------------------------------------------


def run_suite(config: CertifyConfig) -> dict:
    if config.suite not in SUITES:
        raise ValueError(f"unknown suite {config.suite!r}; known: "
                         f"{', '.join(sorted(SUITES))}")
    suite = SUITES[config.suite]
    results = []
    failures = []
    for index in range(config.cases):
        rng = random.Random(config.seed * 1_000_003 + index)
        case = suite.generate(rng, config)
        status = suite.predicate(case, config)
        attempts = 0
        while status == INVALID and attempts < 20:
            attempts += 1
            case = suite.generate(rng, config)
            status = suite.predicate(case, config)
        ok = status == PASS
        results.append({"index": index, "ok": ok})
        if not ok:
            entry = {"index": index, "case": case}
            if config.shrink:
                entry["shrunk"] = shrink_case(
                    case, lambda c: suite.predicate(c, config))
            failures.append(entry)
    return {
        "kind": "certify",
        "suite": config.suite,
        "seed": config.seed,
        "cases": config.cases,
        "max_rank": config.max_rank,
        "ring": config.ring.to_json(),
        "results": results,
        "failures": failures,
        "ok": not failures,
    }
