"""Self-contained witness reports and their re-verification.

A report embeds the inputs it talks about, so `verify` can re-check every
certificate without any other file.

- Checked by multiplication: a classification "yes" whose witness is
  degreewise retractions, sections or surjectivity preimages, a
  q-cofibration's retractions and cokernel sections (the cokernel is the
  closed form [rel | f] of the map), or a (cochain) homotopy equivalence;
  and a found lift.  The witness type a bit must carry comes from
  `WITNESS_TYPES`, not from a recomputation.
- Checked by honest recomputation: a cone_exactness witness, which is
  compared with the recomputed one.
- Refused with a location: a classification bit whose status is not
  "yes", "no" or "unknown".
- Decided again: a classification "no" or "unknown", one bit alone: a
  weak equivalence by `weak_equivalence_holds`, which builds no witness
  and presents no homology, any other bit by `model_bit` (a degreewise
  "no" at one of the convention's degrees, at that degree alone); a lift
  report's prechecks; and its "no lift" and obstruction degree, by one
  sweep of `lift_steps` (`solve_by_degree`).
"""

from __future__ import annotations

import json
import re

from ..chains.cochain import CochainMap
from ..chains.complexes import (ChainHomotopy, ChainMap, LiftingProblem,
                                chain_map_equal)
from ..exact.equations import solve_by_degree
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, PresentedModule, cokernel, map_equal
from ..models.classify import (BITS, WITNESS_TYPES, bit_degrees, check_data,
                               flavor_data, model_bit, weak_equivalence_holds)
from ..models.lifting import lift_prechecks, lift_steps
from ..models.verdict import NO, UNKNOWN, YES, Verdict
from .document import (DocumentError, chain_map_from_json, chain_map_to_json,
                       chain_maps_from_json, cochain_map_from_json,
                       components_to_json, get_field, is_json_int,
                       parse_components, parse_matrix, parse_module_map,
                       parse_ring)


def _chain(f: ChainMap | CochainMap) -> ChainMap:
    """The chain map itself, or the grading-reversed chain map of a cochain
    map, on which its homotopy equivalences live."""
    return f.chain if isinstance(f, CochainMap) else f


def classification_report(f: ChainMap | CochainMap, flavor: str,
                          verdict: Verdict) -> dict:
    return {
        "kind": "classification",
        "flavor": flavor,
        "ring": _chain(f).source.ring.to_json(),
        "data": flavor_data(flavor),
        "map": chain_map_to_json(f),
        "verdict": verdict.to_json(),
    }


def bousfield_report(g: CochainMap, verdict: Verdict) -> dict:
    return classification_report(g, "bousfield", verdict)


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


def _degree_entries(witness: dict, name: str, expected: range,
                    problems: list[str], location: str) -> list[tuple]:
    """``(n, location, entry)`` for each degree a witness stores.

    The stored degrees must be exactly ``expected``, the degrees the
    convention tests for this bit.
    """
    loc = f"{location}.degrees"
    degrees = get_field(witness, "degrees", location)
    if not isinstance(degrees, dict):
        raise DocumentError(loc, "expected an object keyed by degree")
    entries = []
    for key, entry in degrees.items():
        if not re.fullmatch("0|[1-9][0-9]*", key):
            raise DocumentError(f"{loc}.{key}",
                                "a degree key must be a natural number")
        entries.append((int(key), f"{loc}.{key}", entry))
    stored = sorted(n for n, _, _ in entries)
    if stored != list(expected):
        problems.append(f"{name} degrees {stored} do not match "
                        f"the convention {list(expected)}")
    return entries


def _check_retraction(fn: ModuleMap, cert, n: int, location: str,
                      problems: list[str]) -> None:
    r = parse_module_map(cert, fn.target, fn.source, location)
    if not map_equal(r.compose(fn), ModuleMap.identity(fn.source)):
        problems.append(f"retraction at degree {n} fails")


def _check_section(fn: ModuleMap, cert, n: int, location: str,
                   problems: list[str]) -> None:
    s = parse_module_map(cert, fn.target, fn.source, location)
    if not map_equal(fn.compose(s), ModuleMap.identity(fn.target)):
        problems.append(f"section at degree {n} fails")


def _check_surjectivity(fn: ModuleMap, cert, n: int, location: str,
                        problems: list[str]) -> None:
    ring = fn.source.ring
    gY, gX = fn.target.generators, fn.source.generators
    X = parse_matrix(ring, get_field(cert, "preimages", location), gX, gY,
                     f"{location}.preimages")
    Z = parse_matrix(ring, get_field(cert, "relation_part", location),
                     fn.target.relations.cols, gY, f"{location}.relation_part")
    if fn.action @ X + fn.target.relations @ Z != Matrix.identity(ring, gY):
        problems.append(f"surjectivity certificate at degree {n} fails")


def _check_q_cofibration(fn: ModuleMap, cert, n: int, loc: str,
                         problems: list[str]) -> None:
    """A section of R^g -> coker f, with coker f = [rel | f] built here from
    the map, proves the cokernel projective, and r o f = id proves f
    injective."""
    ring = fn.source.ring
    coker, _ = cokernel(fn)
    free = PresentedModule.free(ring, coker.generators)
    section = parse_module_map(get_field(cert, "cokernel_section", loc),
                               coker, free, f"{loc}.cokernel_section")
    projection = ModuleMap(free, coker, Matrix.identity(ring, coker.generators),
                           check=False)
    if not map_equal(projection.compose(section), ModuleMap.identity(coker)):
        problems.append(f"cokernel section fails at degree {n}")
    r = parse_module_map(get_field(cert, "retraction", loc), fn.target,
                         fn.source, f"{loc}.retraction")
    if not map_equal(r.compose(fn), ModuleMap.identity(fn.source)):
        problems.append(f"q-cofibration retraction fails at degree {n}")


# witness type -> (name in problems, check of one degree's entry)
_DEGREEWISE_CHECKS = {
    "degreewise_retractions": ("retraction", _check_retraction),
    "degreewise_sections": ("section", _check_section),
    "degreewise_surjectivity": ("surjectivity", _check_surjectivity),
    "q_cofibration": ("q-cofibration", _check_q_cofibration),
}


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


def _redecide(f: ChainMap | CochainMap, flavor: str, bit_name: str,
              bit: dict, status, problems: list[str]) -> None:
    """Decide a bit again and compare its status with the stated one.

    A degreewise "no" must name one of the convention's degrees in its
    obstruction, and is decided at that degree alone, where it must fail.
    A weak-equivalence status is compared with `weak_equivalence_holds`.
    """
    degreewise = WITNESS_TYPES.get((flavor, bit_name)) in _DEGREEWISE_CHECKS
    if status == NO and degreewise:
        obstruction = bit.get("obstruction")
        n = (obstruction.get("degree") if isinstance(obstruction, dict)
             else None)
        degrees = bit_degrees(f, flavor, bit_name)
        if not (is_json_int(n) and n in degrees):
            problems.append(f"{bit_name} status {status!r} names no degree "
                            f"in {degrees.start}..{degrees.stop - 1}")
            return
        fresh = model_bit(f, flavor, bit_name, range(n, n + 1))
        if fresh.status != NO:
            problems.append(f"{bit_name} status {status!r} at degree {n} "
                            f"disagrees with recomputation {fresh.status!r}")
        return
    if bit_name == "weak_equivalence":
        fresh = YES if weak_equivalence_holds(f, flavor) else NO
    else:
        fresh = model_bit(f, flavor, bit_name).status
    if status != fresh:
        problems.append(f"{bit_name} status {status!r} disagrees with "
                        f"recomputation {fresh!r}")


def verify_classification(data: dict) -> list[str]:
    problems: list[str] = []
    ring = parse_ring(get_field(data, "ring"))
    flavor = get_field(data, "flavor")
    decode = (cochain_map_from_json if data.get("data") == "cochain"
              else chain_map_from_json)
    f = decode(ring, get_field(data, "map"))
    try:
        check_data(f, flavor)
    except ValueError as exc:
        raise DocumentError("flavor", str(exc))

    verdict = get_field(data, "verdict")
    for bit_name in BITS:
        bit = get_field(verdict, bit_name, "verdict")
        status = get_field(bit, "status", f"verdict.{bit_name}")
        if status not in (YES, NO, UNKNOWN):
            raise DocumentError(f"verdict.{bit_name}.status",
                                f"expected {YES!r}, {NO!r} or {UNKNOWN!r}")
        convention = WITNESS_TYPES.get((flavor, bit_name))
        if status != YES or convention is None:
            _redecide(f, flavor, bit_name, bit, status, problems)
            continue
        witness = bit.get("witness")
        if witness is None:
            problems.append(f"{bit_name} is {YES!r} but carries no witness")
            continue
        loc = f"verdict.{bit_name}.witness"
        wtype = get_field(witness, "type", loc)
        if wtype != convention:
            problems.append(f"{bit_name} witness type {wtype!r} is not the "
                            f"convention's {convention!r}")
        elif wtype in _DEGREEWISE_CHECKS:
            name, check = _DEGREEWISE_CHECKS[wtype]
            for n, where, cert in _degree_entries(
                    witness, name, bit_degrees(f, flavor, bit_name),
                    problems, loc):
                check(f.component(n), cert, n, where, problems)
        elif wtype == "cone_exactness":
            # the cone's homology is recomputed in every degree
            if witness != model_bit(f, flavor, bit_name).witness:
                problems.append("cone exactness witness differs from the "
                                "recomputed one")
        else:  # a homotopy equivalence, of chain or cochain maps
            _check_homotopy_equivalence(_chain(f), witness, problems, loc)
    return problems


def _check_prechecks(stored, left: ChainMap, right: ChainMap, flavor: str,
                     problems: list[str]) -> None:
    """Recompute the prechecks of a lift report and compare them."""
    leg = get_field(stored, "acyclic_leg", "prechecks")
    if leg not in ("left", "right"):
        raise DocumentError("prechecks.acyclic_leg",
                            'expected "left" or "right"')
    for key, status in stored.items():
        if key != "acyclic_leg" and status not in (YES, NO, UNKNOWN):
            raise DocumentError(f"prechecks.{key}",
                                f"expected {YES!r}, {NO!r} or {UNKNOWN!r}")
    fresh = lift_prechecks(left, right, flavor, leg)
    extra = sorted(stored.keys() - fresh.keys())
    if extra:
        raise DocumentError(f"prechecks.{extra[0]}", "not a precheck")
    for key, status in fresh.items():
        claimed = get_field(stored, key, "prechecks")
        if claimed != status:
            problems.append(f"precheck {key} {claimed!r} disagrees with "
                            f"recomputation {status!r}")


# each corner of a lift square is stored by two legs: (leg, end) must
# match (first, first_end)
_SHARED_CORNERS = (("top", "source", "left", "source"),
                   ("bottom", "source", "left", "target"),
                   ("top", "target", "right", "source"),
                   ("bottom", "target", "right", "target"))


def verify_lift(data: dict) -> list[str]:
    problems: list[str] = []
    ring = parse_ring(get_field(data, "ring"))
    legs = chain_maps_from_json(ring, data, ("left", "right", "top", "bottom"))
    for leg, end, first, first_end in _SHARED_CORNERS:
        if getattr(legs[leg], end) != getattr(legs[first], first_end):
            raise DocumentError(f"{leg}.{end}",
                                f"does not match {first}.{first_end}")
    left, right, top, bottom = legs.values()
    flavor = get_field(data, "flavor")
    try:
        check_data(left, flavor)
    except ValueError as exc:
        raise DocumentError("flavor", str(exc))
    found = get_field(data, "found")
    if not isinstance(found, bool):
        raise DocumentError("found", "expected true or false")
    if not chain_map_equal(right.compose(top), bottom.compose(left)):
        problems.append("stored square does not commute")
    _check_prechecks(get_field(data, "prechecks"), left, right, flavor,
                     problems)
    if not found:
        # whether the square commutes was checked above
        problem = LiftingProblem(left, right, top, bottom, check=False)
        _check_no_lift(data, problem, problems)
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


def _check_no_lift(data: dict, problem: LiftingProblem,
                   problems: list[str]) -> None:
    """Decide the square again in one sweep: no lift, and the stated
    obstruction degree."""
    stated = get_field(data, "obstruction_degree")
    if not is_json_int(stated) or stated < 0:
        raise DocumentError("obstruction_degree",
                            "expected a natural number")
    _, degree = solve_by_degree(problem.left.source.ring, lift_steps(problem))
    if degree is None:
        problems.append("the report says no lift exists, but one does")
    elif stated != degree:
        problems.append(f"obstruction degree {stated} disagrees with "
                        f"recomputation {degree}")


def verify_report(data: dict) -> tuple[bool, list[str]]:
    kind = get_field(data, "kind")
    if kind == "classification":
        problems = verify_classification(data)
    elif kind == "lift":
        problems = verify_lift(data)
    elif kind == "certify":
        problems = [] if data.get("ok") else ["suite reported failures"]
    else:
        # not a failed witness: a kind that verify does not check
        raise DocumentError("kind", f"verify checks classification, lift "
                                    f"and certify reports, not {kind!r}")
    return (not problems, problems)
