"""Self-contained witness reports and their re-verification.

A report embeds the inputs it talks about, so `verify` can re-check every
certificate by direct arithmetic (sections, retractions, homotopy data)
or by honest recomputation (kernel and homology vanishing claims) without
any other file.
"""

from __future__ import annotations

import json

from ..chains.cochain import CochainMap, undualize_map
from ..chains.complexes import ChainHomotopy, ChainMap, chain_map_equal
from ..chains.homotopy import quasi_iso
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, map_equal
from ..models.classify import bousfield_classify, classify
from ..models.verdict import Verdict
from .document import (chain_map_from_json, chain_map_to_json,
                       cochain_map_from_json, components_to_json, get_field,
                       parse_components, parse_matrix, parse_module,
                       parse_module_map, parse_ring)


def classification_report(f: ChainMap, flavor: str, verdict: Verdict) -> dict:
    return {
        "kind": "classification",
        "flavor": flavor,
        "ring": f.source.ring.to_json(),
        "data": "chain",
        "map": chain_map_to_json(f),
        "verdict": verdict.to_json(),
    }


def bousfield_report(g: CochainMap, verdict: Verdict) -> dict:
    return {
        "kind": "classification",
        "flavor": "bousfield",
        "ring": g.source.ring.to_json(),
        "data": "cochain",
        "map": chain_map_to_json(g),
        "verdict": verdict.to_json(),
    }


def lift_report(problem, outcome, flavor: str) -> dict:
    ring = problem.left.source.ring
    data = {
        "kind": "lift",
        "flavor": flavor,
        "ring": ring.to_json(),
        "left": chain_map_to_json(problem.left),
        "right": chain_map_to_json(problem.right),
        "top": chain_map_to_json(problem.top),
        "bottom": chain_map_to_json(problem.bottom),
        "found": outcome.found,
        "prechecks": outcome.prechecks,
    }
    if outcome.found:
        data["lift"] = components_to_json(outcome.lift.parts)
    else:
        data["obstruction_degree"] = outcome.obstruction_degree
    return data


def dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


# -- verification -------------------------------------------------------


def _check_one_sided_inverses(degrees_data: dict, expected: set[int],
                              problems: list[str], location: str, *,
                              component, retraction: bool) -> None:
    """Retractions r f_n = id, or sections f_n s = id, degree by degree."""
    name = "retraction" if retraction else "section"
    stored = {int(k) for k in degrees_data}
    if stored != expected:
        problems.append(f"{name} degrees {sorted(stored)} do not match "
                        f"the convention {sorted(expected)}")
    for key, mat in degrees_data.items():
        n = int(key)
        fn = component(n)
        inv = parse_module_map(mat, fn.target, fn.source, f"{location}.{key}")
        if retraction:
            holds = map_equal(inv.compose(fn), ModuleMap.identity(fn.source))
        else:
            holds = map_equal(fn.compose(inv), ModuleMap.identity(fn.target))
        if not holds:
            problems.append(f"{name} at degree {n} fails")


def _check_homotopy_equivalence(f: ChainMap, witness: dict,
                                problems: list[str], location: str) -> None:
    X, Y = f.source, f.target

    def components(key, source, target, shift=0):
        loc = f"{location}.{key}"
        return parse_components(
            get_field(get_field(witness, key, location), "components", loc),
            source, target, f"{loc}.components", shift=shift)

    inverse = components("inverse", Y, X)
    h_parts = components("homotopy_source", X, X, shift=1)
    k_parts = components("homotopy_target", Y, Y, shift=1)
    try:
        g = ChainMap(Y, X, inverse)
        ChainHomotopy(g.compose(f), ChainMap.identity(X), h_parts)
        ChainHomotopy(f.compose(g), ChainMap.identity(Y), k_parts)
    except ValueError as exc:
        problems.append(f"homotopy equivalence witness fails: {exc}")


def _check_surjectivity(f, degrees_data: dict, expected: set[int],
                        problems: list[str], location: str) -> None:
    stored = {int(k) for k in degrees_data}
    if stored != expected:
        problems.append(f"surjectivity degrees {sorted(stored)} do not match "
                        f"{sorted(expected)}")
    for key, cert in degrees_data.items():
        n = int(key)
        loc = f"{location}.{key}"
        fn = f.component(n)
        ring = fn.source.ring
        gY, gX = fn.target.generators, fn.source.generators
        X = parse_matrix(ring, get_field(cert, "preimages", loc), gX, gY,
                         f"{loc}.preimages")
        Z = parse_matrix(ring, get_field(cert, "relation_part", loc),
                         fn.target.relations.cols, gY, f"{loc}.relation_part")
        got = fn.action @ X + fn.target.relations @ Z
        if got != Matrix.identity(ring, gY):
            problems.append(f"surjectivity certificate at degree {n} fails")


def _check_q_cofibration(f, degrees_data: dict, problems: list[str],
                         location: str) -> None:
    from ..exact.modules import PresentedModule, cokernel, kernel

    for key, cert in degrees_data.items():
        n = int(key)
        loc = f"{location}.{key}"
        fn = f.component(n)
        ring = fn.source.ring
        ker, incl = kernel(fn)
        if not ker.is_zero_module():
            problems.append(f"kernel is nonzero at degree {n}")
            continue
        gens = incl.action
        if gens.cols:
            fact = parse_matrix(ring,
                                get_field(cert, "kernel_factorization", loc),
                                fn.source.relations.cols, gens.cols,
                                f"{loc}.kernel_factorization")
            if fn.source.relations @ fact != gens:
                problems.append(f"kernel factorization fails at degree {n}")
        coker = parse_module(ring, get_field(cert, "cokernel", loc),
                             f"{loc}.cokernel")
        recomputed, _ = cokernel(fn)
        if not recomputed.is_isomorphic(coker):
            problems.append(f"stored cokernel mismatches at degree {n}")
        free = PresentedModule.free(ring, coker.generators)
        section = parse_module_map(get_field(cert, "cokernel_section", loc),
                                   coker, free, f"{loc}.cokernel_section")
        projection = ModuleMap(free, coker,
                               Matrix.identity(ring, coker.generators),
                               check=False)
        if not map_equal(projection.compose(section),
                         ModuleMap.identity(coker)):
            problems.append(f"cokernel section fails at degree {n}")
        r = parse_module_map(get_field(cert, "retraction", loc), fn.target,
                             fn.source, f"{loc}.retraction")
        if not map_equal(r.compose(fn), ModuleMap.identity(fn.source)):
            problems.append(f"q-cofibration retraction fails at degree {n}")


def verify_classification(data: dict) -> list[str]:
    problems: list[str] = []
    ring = parse_ring(get_field(data, "ring"))
    flavor = get_field(data, "flavor")
    if data.get("data") == "cochain":
        g = cochain_map_from_json(ring, get_field(data, "map"))
        recomputed = bousfield_classify(g)
        top = max(g.source.top, g.target.top)
        conventions = {"fibration": set(range(top + 1)),
                       "cofibration": set(range(1, top + 1))}
        f_for_bits = g
        he_map = undualize_map(g)
    else:
        f = chain_map_from_json(ring, get_field(data, "map"))
        recomputed = classify(f, flavor)
        top = max(f.source.top, f.target.top)
        conventions = {"fibration": set(range(1, top + 1)),
                       "cofibration": set(range(top + 1))}
        f_for_bits = f
        he_map = f

    verdict = get_field(data, "verdict")
    for bit_name in ("cofibration", "fibration", "weak_equivalence"):
        bit = get_field(verdict, bit_name, "verdict")
        status = get_field(bit, "status", f"verdict.{bit_name}")
        fresh = getattr(recomputed, bit_name)
        if status != fresh.status:
            problems.append(f"{bit_name} status {status!r} disagrees with "
                            f"recomputation {fresh.status!r}")
        witness = bit.get("witness")
        if status != "yes" or witness is None:
            continue
        loc = f"verdict.{bit_name}.witness"
        wtype = get_field(witness, "type", loc)
        if wtype in ("degreewise_retractions", "degreewise_sections"):
            retraction = wtype == "degreewise_retractions"
            _check_one_sided_inverses(
                get_field(witness, "degrees", loc),
                conventions["cofibration" if retraction else "fibration"],
                problems, f"{loc}.degrees", component=f_for_bits.component,
                retraction=retraction)
        elif wtype in ("homotopy_equivalence", "cochain_homotopy_equivalence"):
            _check_homotopy_equivalence(he_map, witness, problems, loc)
        elif wtype == "degreewise_surjectivity":
            _check_surjectivity(f_for_bits,
                                get_field(witness, "degrees", loc),
                                conventions["fibration"], problems,
                                f"{loc}.degrees")
        elif wtype == "q_cofibration":
            _check_q_cofibration(f_for_bits,
                                 get_field(witness, "degrees", loc),
                                 problems, f"{loc}.degrees")
        elif wtype == "cone_exactness":
            if not quasi_iso(he_map):
                problems.append("cone exactness claim fails recomputation")
        else:
            problems.append(f"unknown witness type {wtype!r}")
    return problems


def verify_lift(data: dict) -> list[str]:
    problems: list[str] = []
    ring = parse_ring(get_field(data, "ring"))
    left, right, top, bottom = (chain_map_from_json(ring, get_field(data, leg),
                                                    leg)
                                for leg in ("left", "right", "top", "bottom"))
    if not chain_map_equal(right.compose(top), bottom.compose(left)):
        problems.append("stored square does not commute")
    if not data.get("found"):
        return problems
    X, E = left.target, right.source
    comps = parse_components(get_field(data, "lift"), X, E, "lift")
    try:
        lift = ChainMap(X, E, comps)
    except ValueError as exc:
        problems.append(f"stored lift is not a chain map: {exc}")
        return problems
    if not chain_map_equal(lift.compose(left), top):
        problems.append("lift does not restrict to the top leg")
    if not chain_map_equal(right.compose(lift), bottom):
        problems.append("lift does not project to the bottom leg")
    return problems


def verify_report(data: dict) -> tuple[bool, list[str]]:
    kind = get_field(data, "kind")
    if kind == "classification":
        problems = verify_classification(data)
    elif kind == "lift":
        problems = verify_lift(data)
    elif kind == "certify":
        problems = [] if data.get("ok") else ["suite reported failures"]
    else:
        problems = [f"unknown report kind {kind!r}"]
    return (not problems, problems)
