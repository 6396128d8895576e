"""Document format, positioned errors, CLI plumbing, witness roundtrips."""

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import pytest

from chaincert import cli as cli_module
from chaincert.chains import homcx as homcx_module
from chaincert.chains import homology as homology_module
from chaincert.chains import tensor as tensor_module
from chaincert.chains.build import (concentrated, direct_sum_complex, disk,
                                    sphere, unit_complex, zero_complex)
from chaincert.chains.cochain import dualize_map
from chaincert.chains.complexes import ChainMap, LiftingProblem
from chaincert.chains.cones import mapping_cone
from chaincert.chains.homcx import hom_size_problem
from chaincert.chains.tensor import tensor_size_problem
from chaincert.cli import COMMANDS, build_parser, main
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import ModuleMap, PresentedModule, cokernel
from chaincert.exact.rings import ZZ, RingSpec, Zmod
from chaincert.io import reports as reports_module
from chaincert.io.document import (DocumentError, chain_map_from_json,
                                   chain_map_to_json, cochain_map_from_json,
                                   complex_to_json, components_to_json,
                                   graded_to_json, parse_chain_complex,
                                   parse_components, parse_document,
                                   parse_matrix, parse_module_map)
from chaincert.io.reports import (classification_report, dump, lift_report,
                                  verify_report)
from chaincert.models import classify as classify_module
from chaincert.models import lifting as lifting_module
from chaincert.models.classify import classify
from chaincert.models.generators import random_complex, twist_complex_with_iso
from chaincert.models.lifting import solve_lifting
from chaincert.simplicial import cotensor as cotensor_module
from chaincert.simplicial.cotensor import (MAX_COTENSOR_GENERATORS, cotensor,
                                          through_problem)
from chaincert.simplicial import module as module_module
from chaincert.simplicial.module import (MAX_CAP_GENERATORS, MAX_CAP_STEPS,
                                         MAX_TENSOR_GENERATORS, cap_problem,
                                         gamma, gamma_level_rank,
                                         tensor_problem)

from oracles import document_to_json

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def minimal_doc(**overrides):
    doc = {
        "version": "1",
        "ring": {"kind": "Z"},
        "objects": {
            "C": {"type": "chain_complex",
                  "degrees": [{"generators": 1, "relations": []},
                              {"generators": 1, "relations": []}],
                  "differentials": [[[2]]]},
        },
        "maps": {},
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_document():
    doc = parse_document(minimal_doc())
    assert doc.chain_complex("C").top == 1


def test_parse_all_fixtures():
    for name in sorted(os.listdir(FIXTURES)):
        with open(fixture(name)) as fh:
            parse_document(json.load(fh))


def test_dsquared_error_names_the_degree():
    bad = minimal_doc()
    bad["objects"]["C"] = {
        "type": "chain_complex",
        "degrees": [{"generators": 1, "relations": []}] * 3,
        "differentials": [[[2]], [[2]]],
    }
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert "objects.C" in str(err.value)
    assert "degree" in str(err.value)


def test_dangling_reference_error():
    bad = minimal_doc(maps={"f": {"source": "C", "target": "missing",
                                  "components": []}})
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert "maps.f" in str(err.value)
    assert "missing" in str(err.value)


@pytest.mark.parametrize("overrides, location", [
    ({"objects": []}, "objects"),
    ({"maps": []}, "maps"),
    ({"objects": {"A": {"type": ["x"]}}}, "objects.A.type"),
], ids=["objects-list", "maps-list", "type-list"])
def test_cli_malformed_document_fails_with_a_location(tmp_path, capsys,
                                                      overrides, location):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(minimal_doc(**overrides)))
    with pytest.raises(DocumentError) as err:
        parse_document(minimal_doc(**overrides))
    assert err.value.location == location
    with pytest.raises(SystemExit) as exit_:
        main(["validate", str(doc)])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: {location}: ")


def test_cli_out_into_a_missing_directory_fails_before_any_output(
        tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exit_:
        main(["validate", fixture("interval.json"), "--out", str(out)])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: cannot write ")
    assert not out.exists()


@pytest.mark.parametrize("key", ["source", "target"])
def test_map_endpoint_must_be_a_name(key):
    bad = minimal_doc(maps={"f": {"source": "C", "target": "C",
                                  "components": []}})
    bad["maps"]["f"][key] = ["C"]
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert err.value.location == f"maps.f.{key}"


def test_non_chain_map_error_names_component():
    bad = minimal_doc()
    bad["maps"] = {"f": {"source": "C", "target": "C",
                         "components": [[[1]], [[2]]]}}
    # f0 d = 2, d f1 = 4: the square fails
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert "maps.f" in str(err.value)


def test_well_definedness_is_checked():
    bad = {
        "version": "1",
        "ring": {"kind": "Z"},
        "objects": {
            "T": {"type": "chain_complex",
                  "degrees": [{"generators": 1, "relations": [[2]]}],
                  "differentials": []},
            "F": {"type": "chain_complex",
                  "degrees": [{"generators": 1, "relations": []}],
                  "differentials": []},
        },
        "maps": {"f": {"source": "T", "target": "F", "components": [[[1]]]}},
    }
    with pytest.raises(DocumentError):
        parse_document(bad)
    # the mirror-image map is fine
    bad["maps"] = {"f": {"source": "F", "target": "T", "components": [[[1]]]}}
    parse_document(bad)


def test_document_roundtrip_is_identity():
    with open(fixture("brutal_truncation.json")) as fh:
        raw = json.load(fh)
    doc = parse_document(raw)
    again = document_to_json(doc)
    assert parse_document(again).objects.keys() == doc.objects.keys()
    assert again == document_to_json(parse_document(again))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_classify_brutal_truncation(capsys):
    code, out = run_cli(["classify", "--doc", fixture("brutal_truncation.json"),
                         "--map", "q", "--flavor", "h"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["fibration"]["status"] == "yes"


def test_cli_classify_zmod6(capsys):
    code, out = run_cli(["classify", "--doc", fixture("zmod6_projective.json"),
                         "--map", "p", "--flavor", "h"], capsys)
    assert code == 0
    data = json.loads(out)
    # the canonical surjection onto Z/2 splits over Z/6 (section 1 -> 3)
    assert data["verdict"]["cofibration"]["status"] == "no"
    # degree-0 fibration convention: no degrees tested, trivially yes
    assert data["verdict"]["fibration"]["status"] == "yes"


# the interval's end inclusions are homotopy equivalences, so their h and
# Bousfield reports carry an inverse and two homotopies
ROUNDTRIP_COMMANDS = {
    "brutal-q": ["classify", "--doc", fixture("brutal_truncation.json"),
                 "--map", "q", "--flavor", "q"],
    "interval-h": ["classify", "--doc", fixture("interval.json"),
                   "--map", "e0", "--flavor", "h"],
    "interval-bousfield": ["bousfield", "--doc", fixture("interval.json"),
                           "--map", "e0"],
}


@pytest.mark.parametrize("command", sorted(ROUNDTRIP_COMMANDS))
def test_cli_witness_verify_roundtrip(tmp_path, capsys, command):
    witness = tmp_path / "w.json"
    code, _ = run_cli(ROUNDTRIP_COMMANDS[command] + ["--out", str(witness)],
                      capsys)
    assert code == 0
    code, out = run_cli(["verify", str(witness)], capsys)
    assert code == 0
    assert json.loads(out)["ok"]


def test_verify_reads_its_witness_from_one_required_argument(tmp_path,
                                                            capsys):
    witness = tmp_path / "w.json"
    run_cli(ROUNDTRIP_COMMANDS["interval-h"] + ["--out", str(witness)],
            capsys)
    assert run_cli(["verify", str(witness)], capsys)[0] == 0
    for argv, message in (
            (["verify"], "the following arguments are required: witness"),
            (["verify", "--verify", str(witness)],
             "unrecognized arguments: --verify")):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_verify_rejects_tampered_inverse(tmp_path, capsys):
    witness = tmp_path / "w.json"
    run_cli(ROUNDTRIP_COMMANDS["interval-h"] + ["--out", str(witness)],
            capsys)
    data = json.loads(witness.read_text())
    inverse = data["verdict"]["weak_equivalence"]["witness"]["inverse"]
    inverse["components"][0][0][0] += 1
    witness.write_text(json.dumps(data))
    code, out = run_cli(["verify", str(witness)], capsys)
    assert code == 1
    assert not json.loads(out)["ok"]


def interval_lift_report(against_identity=False):
    """e0 : R -> I against I -> 0, or against the identity of I, with e0 on
    top and that map below: the identity of I lifts."""
    with open(fixture("interval.json")) as fh:
        doc = parse_document(json.load(fh))
    e0 = doc.map("e0").value
    I = e0.target
    right = (ChainMap.identity(I) if against_identity
             else ChainMap.zero(I, zero_complex(doc.ring)))
    problem = LiftingProblem(e0, right, e0, right)
    report = json.loads(dump(lift_report(problem, solve_lifting(problem, "h"),
                                         "h")))
    assert report["found"]
    return report


def _drop_lift(report):
    del report["lift"]


def _drop_left_source(report):
    del report["left"]["source"]


def _string_entry(report):
    report["lift"][0][0][0] = "1"


def _short_matrix(report):
    report["lift"][0] = report["lift"][0][:1]


def _mismatched_corner(report):
    # top ends at the interval with the opposite differential, a valid
    # complex that is not the source of right
    report["top"]["target"]["differentials"] = [[[1], [-1]]]


def interval_report(flavor):
    with open(fixture("interval.json")) as fh:
        e0 = parse_document(json.load(fh)).map("e0").value
    if flavor == "bousfield":
        e0 = dualize_map(e0)
    return json.loads(dump(classification_report(e0, flavor,
                                                 classify(e0, flavor))))


def interval_h_report():
    return interval_report("h")


def interval_bousfield_report():
    return interval_report("bousfield")


def _drop_status(report):
    del report["verdict"]["fibration"]["status"]


def _set_status(name, value):
    """A damage that stores ``value``, which is no bit status, as the
    fibration bit's status."""
    def damage(report):
        report["verdict"]["fibration"]["status"] = value
    damage.__name__ = f"_status_{name}"
    return damage


def _letter_degree_key(report):
    degrees = report["verdict"]["cofibration"]["witness"]["degrees"]
    degrees["x"] = degrees.pop("0")


def _list_of_degrees(report):
    witness = report["verdict"]["cofibration"]["witness"]
    witness["degrees"] = [[1, 0]]


def _chain_flavor(report):
    report["flavor"] = "h"


def _unknown_lift_flavor(report):
    report["flavor"] = "zzz"


def _unknown_precheck_status(report):
    report["prechecks"]["acyclic"] = "zzz"


def _drop_precheck(report):
    del report["prechecks"]["right_fibration"]


def _unknown_acyclic_leg(report):
    report["prechecks"]["acyclic_leg"] = "middle"


def _extra_precheck(report):
    report["prechecks"]["left_fibration"] = "yes"


def no_lift_report():
    """0 -> R against multiplication by 2 on R, with the identity below: a
    lift would be an inverse of 2, so there is none, from degree 0 on."""
    R, z = unit_complex(ZZ), zero_complex(ZZ)
    two = ChainMap(R, R, [ModuleMap(R.module(0), R.module(0),
                                    Matrix(ZZ, 1, 1, [[2]]))])
    problem = LiftingProblem(ChainMap.zero(z, R), two, ChainMap.zero(z, R),
                             ChainMap.identity(R))
    report = json.loads(dump(lift_report(problem, solve_lifting(problem, "h"),
                                         "h")))
    assert not report["found"] and report["obstruction_degree"] == 0
    return report


def _drop_obstruction_degree(report):
    del report["obstruction_degree"]


def _negative_obstruction_degree(report):
    report["obstruction_degree"] = -1


def _boolean_obstruction_degree(report):
    report["obstruction_degree"] = False


def _drop_found(report):
    del report["found"]


def _set_found(name, value):
    """A damage that stores ``value``, which is no JSON boolean, as found."""
    def damage(report):
        report["found"] = value
    damage.__name__ = f"_found_{name}"
    return damage


@pytest.mark.parametrize("make, damage, location", [
    (interval_lift_report, _drop_lift, "lift"),
    (interval_lift_report, _drop_left_source, "left.source"),
    (interval_lift_report, _string_entry, "lift[0][0]"),
    (interval_lift_report, _short_matrix, "lift[0]"),
    (interval_lift_report, _mismatched_corner, "top.target"),
    (interval_h_report, _drop_status, "verdict.fibration.status"),
    *[(interval_h_report, _set_status(name, value),
       "verdict.fibration.status")
      for name, value in (("maybe", "maybe"), ("list", []), ("object", {}))],
    (interval_h_report, _letter_degree_key,
     "verdict.cofibration.witness.degrees.x"),
    (interval_h_report, _list_of_degrees,
     "verdict.cofibration.witness.degrees"),
    (interval_bousfield_report, _chain_flavor, "flavor"),
    (interval_lift_report, _unknown_lift_flavor, "flavor"),
    (interval_lift_report, _unknown_precheck_status, "prechecks.acyclic"),
    (interval_lift_report, _drop_precheck, "prechecks.right_fibration"),
    (interval_lift_report, _unknown_acyclic_leg, "prechecks.acyclic_leg"),
    (interval_lift_report, _extra_precheck, "prechecks.left_fibration"),
    (no_lift_report, _drop_obstruction_degree, "obstruction_degree"),
    (no_lift_report, _negative_obstruction_degree, "obstruction_degree"),
    (no_lift_report, _boolean_obstruction_degree, "obstruction_degree"),
    (no_lift_report, _drop_found, "found"),
    *[(no_lift_report, _set_found(name, value), "found")
      for name, value in (("null", None), ("zero", 0), ("list", []),
                          ("string", ""), ("object", {}))],
    (interval_lift_report, _set_found("one", 1), "found")])
def test_cli_verify_malformed_report_names_location(tmp_path, capsys, make,
                                                    damage, location):
    report = make()
    damage(report)
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(report))
    assert main(["verify", str(path)]) == 2
    assert f"error: {location}: " in capsys.readouterr().err


def reencode_witness(ring, f, he_map, witness):
    """Decode every chain-data field of a witness and encode it again."""
    kind = witness["type"]
    out = dict(witness)
    if kind in ("degreewise_retractions", "degreewise_sections"):
        out["degrees"] = {}
        for key, mat in witness["degrees"].items():
            fn = f.component(int(key))
            out["degrees"][key] = parse_module_map(
                mat, fn.target, fn.source, key).action.to_json()
    elif kind in ("homotopy_equivalence", "cochain_homotopy_equivalence"):
        X, Y = he_map.source, he_map.target
        for key, source, target, shift in (("inverse", Y, X, 0),
                                           ("homotopy_source", X, X, 1),
                                           ("homotopy_target", Y, Y, 1)):
            parts = parse_components(witness[key]["components"], source,
                                     target, key, shift=shift)
            out[key] = {"components": components_to_json(parts)}
    elif kind == "degreewise_surjectivity":
        out["degrees"] = {}
        for key, cert in witness["degrees"].items():
            fn = f.component(int(key))
            gY, gX = fn.target.generators, fn.source.generators
            out["degrees"][key] = {
                "preimages": parse_matrix(ring, cert["preimages"], gX, gY,
                                          key).to_json(),
                "relation_part": parse_matrix(
                    ring, cert["relation_part"], fn.target.relations.cols,
                    gY, key).to_json()}
    elif kind == "q_cofibration":
        out["degrees"] = {}
        for key, cert in witness["degrees"].items():
            fn = f.component(int(key))
            coker, _ = cokernel(fn)
            free = PresentedModule.free(ring, coker.generators)
            out["degrees"][key] = {
                "cokernel_section": parse_module_map(
                    cert["cokernel_section"], coker, free, key
                ).action.to_json(),
                "retraction": parse_module_map(
                    cert["retraction"], fn.target, fn.source, key
                ).action.to_json()}
    elif kind == "cone_exactness":
        out["cone"] = graded_to_json(parse_chain_complex(ring, witness["cone"],
                                                         "cone"))
    return out


# one report of each kind on the fixtures, covering every witness type
CODEC_REPORTS = {
    "h": ["classify", "--doc", fixture("interval.json"), "--map", "e0",
          "--flavor", "h"],
    "q": ["classify", "--doc", fixture("nonqhm.json"), "--map", "i",
          "--flavor", "q"],
    "q-cone": ["classify", "--doc", fixture("interval.json"), "--map", "e0",
               "--flavor", "q"],
    "m": ["classify", "--doc", fixture("nonqhm.json"), "--map", "i",
          "--flavor", "m"],
    "bousfield": ROUNDTRIP_COMMANDS["interval-bousfield"],
}


@pytest.mark.parametrize("kind", sorted(CODEC_REPORTS) + ["lift"])
def test_codec_reencodes_reports_exactly(kind, capsys):
    if kind == "lift":
        report = interval_lift_report()
    else:
        code, out = run_cli(CODEC_REPORTS[kind], capsys)
        assert code == 0
        report = json.loads(out)
    ring = RingSpec.from_json(report["ring"])
    if kind == "lift":
        legs = {leg: chain_map_from_json(ring, report[leg], leg)
                for leg in ("left", "right", "top", "bottom")}
        assert {leg: chain_map_to_json(f) for leg, f in legs.items()} == \
            {leg: report[leg] for leg in legs}
        lift = parse_components(report["lift"], legs["left"].target,
                                legs["right"].source, "lift")
        assert components_to_json(lift) == report["lift"]
        return
    if report["data"] == "cochain":
        f = cochain_map_from_json(ring, report["map"])
        he_map = f.chain
    else:
        f = he_map = chain_map_from_json(ring, report["map"])
    assert chain_map_to_json(f) == report["map"]
    witnesses = 0
    for bit in report["verdict"].values():
        if isinstance(bit, dict) and "witness" in bit:
            witnesses += 1
            assert reencode_witness(ring, f, he_map, bit["witness"]) == \
                bit["witness"]
    assert witnesses


def test_cli_verify_q_cofibration_witness_covers_every_degree(tmp_path,
                                                             capsys):
    report = interval_report("q")
    degrees = report["verdict"]["cofibration"]["witness"]["degrees"]
    assert sorted(degrees) == ["0", "1"]
    del degrees["1"]
    path = tmp_path / "q.json"
    path.write_text(json.dumps(report))
    code, out = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["problems"] == [
        "q-cofibration degrees [0] do not match the convention [0, 1]"]


def test_cli_verify_rejects_tampered_witness(tmp_path, capsys):
    witness = tmp_path / "w.json"
    run_cli(["classify", "--doc", fixture("brutal_truncation.json"),
             "--map", "q", "--flavor", "h", "--out", str(witness)], capsys)
    data = json.loads(witness.read_text())
    bit = data["verdict"]["fibration"]
    for key, mat in bit["witness"]["degrees"].items():
        mat[0][0] += 1
    witness.write_text(json.dumps(data))
    code, out = run_cli(["verify", str(witness)], capsys)
    assert code == 1
    assert not json.loads(out)["ok"]


def test_cli_verify_rejects_yes_without_witness(tmp_path, capsys):
    report = interval_h_report()
    for bit in report["verdict"].values():
        if isinstance(bit, dict):
            bit.pop("witness", None)
    path = tmp_path / "h.json"
    path.write_text(json.dumps(report))
    code, out = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["problems"] == [
        "cofibration is 'yes' but carries no witness",
        "weak_equivalence is 'yes' but carries no witness"]


def test_cli_verify_rejects_tampered_cone(tmp_path, capsys):
    report = interval_report("q")
    witness = report["verdict"]["weak_equivalence"]["witness"]
    assert witness["type"] == "cone_exactness"
    witness["degrees"]["0"]["free_rank"] = 1
    path = tmp_path / "q.json"
    path.write_text(json.dumps(report))
    code, out = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["problems"] == [
        "cone exactness witness differs from the recomputed one"]


def test_cli_verify_recomputes_lift_prechecks(tmp_path, capsys):
    report = interval_lift_report()
    for key in ("left_cofibration", "right_fibration", "acyclic"):
        report["prechecks"][key] = "no"
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(report))
    code, out = run_cli(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["problems"] == [
        f"precheck {key} 'no' disagrees with recomputation 'yes'"
        for key in ("left_cofibration", "right_fibration", "acyclic")]


def verify_file(report, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out = run_cli(["verify", str(path)], capsys)
    return code, json.loads(out)["problems"]


def _top_through_e1(report):
    # I has v0, v1 in degree 0 and e in degree 1 with d e = v1 - v0, and e0
    # and e1 pick out v0 and v1.  e1 on top against the identity: the
    # square no longer commutes, so no lift exists, from degree 0 on
    report["top"]["components"] = [[[0], [1]]]
    report["found"] = False
    del report["lift"]
    report["obstruction_degree"] = 0


def _lift_drops_degree_1(report):
    report["lift"][1] = [[0]]


def _zero_lift(report):
    report["lift"] = [[[0, 0], [0, 0]], [[0]]]


def _lift_onto_v0(report):
    # v0, v1 -> v0 and e -> 0 fixes v0 but is not the identity below
    report["lift"] = [[[1, 1], [0, 0]], [[0]]]


@pytest.mark.parametrize("against_identity, damage, problem", [
    (True, _top_through_e1, "stored square does not commute"),
    (True, _lift_drops_degree_1,
     "stored lift is not a chain map: square at degree 1 does not commute"),
    (False, _zero_lift, "lift does not restrict to the top leg"),
    (True, _lift_onto_v0, "lift does not project to the bottom leg")])
def test_cli_verify_refuses_a_forged_lift(tmp_path, capsys, against_identity,
                                          damage, problem):
    report = interval_lift_report(against_identity)
    assert verify_file(report, tmp_path, capsys) == (0, [])
    damage(report)
    assert verify_file(report, tmp_path, capsys) == (1, [problem])


def test_cli_verify_decides_no_lift_again(tmp_path, capsys):
    report = no_lift_report()
    assert verify_file(report, tmp_path, capsys) == (0, [])
    report["obstruction_degree"] = 1
    assert verify_file(report, tmp_path, capsys) == (1, [
        "obstruction degree 1 disagrees with recomputation 0"])
    # the identity square on D^2 lifts by the identity
    ident = ChainMap.identity(disk(ZZ, 2))
    problem = LiftingProblem(ident, ident, ident, ident)
    forged = json.loads(dump(lift_report(problem, solve_lifting(problem, "h"),
                                         "h")))
    assert forged["found"]
    forged["found"] = False
    del forged["lift"]
    forged["obstruction_degree"] = 0
    assert verify_file(forged, tmp_path, capsys) == (1, [
        "the report says no lift exists, but one does"])


def test_cli_lift_solves_squares_and_verify_accepts_both(tmp_path, capsys):
    # the document is written here, not in fixtures/, whose every file the
    # benchmark parses
    R, D = unit_complex(ZZ), disk(ZZ, 2)
    two = ChainMap(R, R, [ModuleMap(R.module(0), R.module(0),
                                    Matrix(ZZ, 1, 1, [[2]]))])
    maps = {"idD": ChainMap.identity(D), "idR": ChainMap.identity(R),
            "two": two, "zR": ChainMap.zero(zero_complex(ZZ), R)}
    names = {"D": D, "R": R, "zero": zero_complex(ZZ)}
    doc = {"version": "1", "ring": {"kind": "Z"},
           "objects": {name: complex_to_json(C) for name, C in names.items()},
           "maps": {name: {
               "source": next(k for k, C in names.items() if C == f.source),
               "target": next(k for k, C in names.items() if C == f.target),
               "components": components_to_json(f.parts)}
               for name, f in maps.items()}}
    path = tmp_path / "squares.json"
    path.write_text(json.dumps(doc))
    # the identity square on D^2 lifts; 0 -> R against x2 on R with the
    # identity below would need an inverse of 2
    for legs, code, key, value in (
            (("idD", "idD", "idD", "idD"), 0, "found", True),
            (("zR", "two", "zR", "idR"), 1, "obstruction_degree", 0)):
        out = tmp_path / f"{legs[1]}.json"
        argv = ["lift", "--doc", str(path), "--out", str(out)]
        for leg, name in zip(("left", "right", "top", "bottom"), legs):
            argv += [f"--{leg}", name]
        assert main(argv) == code
        report = json.loads(out.read_text())
        assert report["found"] == (code == 0)
        assert report[key] == value
        capsys.readouterr()
        assert run_cli(["verify", str(out)], capsys)[0] == 0


def test_cli_verify_refuses_unreadable_files(tmp_path, capsys):
    missing, garbage = tmp_path / "missing.json", tmp_path / "garbage.json"
    garbage.write_text("not json")
    for path, message in (
            (missing, f"cannot read {missing}: [Errno 2] No such file or "
                      f"directory: '{missing}'"),
            (garbage, f"{garbage}: invalid JSON: Expecting value: line 1 "
                      "column 1 (char 0)")):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", str(path)])
        assert exit_.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_decides_no_lift_with_the_obstruction_search_alone(
        monkeypatch):
    """The degree sweep decides the square and its obstruction degree at
    once, so verifying "no lift" needs no separate `find_lift`."""
    report = no_lift_report()

    def refuse(problem):
        raise RuntimeError("find_lift called while verifying no lift")

    monkeypatch.setattr(lifting_module, "find_lift", refuse)
    monkeypatch.setattr(reports_module, "find_lift", refuse, raising=False)
    assert verify_report(report) == (True, [])


def test_cli_verify_decides_a_degreewise_no_at_its_degree(tmp_path, capsys):
    # f = id in degree 0 and 2 in degree 1 on Z (+) Z[1] with d = 0: a split
    # mono in degree 0 and not in degree 1
    C = direct_sum_complex([sphere(ZZ, 0), sphere(ZZ, 1)])
    f = ChainMap(C, C, [ModuleMap(C.module(n), C.module(n),
                                  Matrix(ZZ, 1, 1, [[n + 1]]))
                        for n in range(2)])
    report = json.loads(dump(classification_report(f, "h", classify(f, "h"))))
    cofibration = report["verdict"]["cofibration"]
    assert cofibration["status"] == "no"
    assert cofibration["obstruction"]["degree"] == 1
    assert verify_file(report, tmp_path, capsys) == (0, [])
    cofibration["obstruction"]["degree"] = 0
    assert verify_file(report, tmp_path, capsys) == (1, [
        "cofibration status 'no' at degree 0 disagrees with "
        "recomputation 'yes'"])
    # the bit tests degrees 0..1, and a "no" must name one of them
    for forged in ({"degree": "x"}, {"degree": 7}, {"degree": -1},
                   {"degree": None}, "garbage"):
        cofibration["obstruction"] = forged
        assert verify_file(report, tmp_path, capsys) == (1, [
            "cofibration status 'no' names no degree in 0..1"])


def test_cli_verify_refuses_forged_q_cofibration_witnesses(tmp_path, capsys):
    S = sphere(ZZ, 0)
    F2 = concentrated(PresentedModule.free(ZZ, 2), 0)
    # x2 : Z -> Z is injective with cokernel Z/2, and (1 1) : Z^2 -> Z is
    # not injective; each forged witness is the best that type-checks
    for f, forged, problems in (
            (ChainMap(S, S, [ModuleMap(S.module(0), S.module(0),
                                       Matrix(ZZ, 1, 1, [[2]]))]),
             {"cokernel_section": [[0]], "retraction": [[1]]},
             ["cokernel section fails at degree 0",
              "q-cofibration retraction fails at degree 0"]),
            (ChainMap(F2, S, [ModuleMap(F2.module(0), S.module(0),
                                        Matrix(ZZ, 1, 2, [[1, 1]]))]),
             {"cokernel_section": [[0]], "retraction": [[1], [0]]},
             ["q-cofibration retraction fails at degree 0"])):
        report = json.loads(dump(classification_report(f, "q",
                                                       classify(f, "q"))))
        assert report["verdict"]["cofibration"]["status"] == "no"
        report["verdict"]["cofibration"] = {"status": "yes", "witness": {
            "type": "q_cofibration", "degrees": {"0": forged}}}
        assert verify_file(report, tmp_path, capsys) == (1, problems)


def test_cli_verify_refuses_a_forged_weak_equivalence_status(
        tmp_path, capsys, monkeypatch):
    """A "no" on a homotopy equivalence and a "yes" on a map that is not a
    quasi-isomorphism are both refused.  A true "no" verifies without a
    presentation of the cone's homology."""
    ident = ChainMap.identity(disk(ZZ, 1))
    report = json.loads(dump(classification_report(ident, "h",
                                                   classify(ident, "h"))))
    assert report["verdict"]["weak_equivalence"]["status"] == "yes"
    report["verdict"]["weak_equivalence"] = {"status": "no", "obstruction": {
        "reason": "mapping cone is acyclic but not contractible"}}
    assert verify_file(report, tmp_path, capsys) == (1, [
        "weak_equivalence status 'no' disagrees with recomputation 'yes'"])

    def refuse(C, n):
        raise RuntimeError("verify presented homology to check a 'no'")

    U = unit_complex(ZZ)
    two = ChainMap(U, U, [ModuleMap(U.module(0), U.module(0),
                                    Matrix(ZZ, 1, 1, [[2]]))])
    cone = mapping_cone(two)
    for flavor in ("q", "m"):
        report = json.loads(dump(classification_report(two, flavor,
                                                       classify(two, flavor))))
        bit = report["verdict"]["weak_equivalence"]
        assert bit["status"] == "no" and bit["obstruction"]["degree"] == 0
        with monkeypatch.context() as patch:
            patch.setattr(homology_module, "homology_data", refuse)
            assert verify_report(report) == (True, [])
        report["verdict"]["weak_equivalence"] = {"status": "yes", "witness": {
            "type": "cone_exactness", "cone": graded_to_json(cone),
            "degrees": {str(n): {"free_rank": 0, "factors": []}
                        for n in range(cone.top + 1)}}}
        assert verify_file(report, tmp_path, capsys) == (1, [
            "cone exactness witness differs from the recomputed one"])


def test_verify_accepts_q_cofibration_witnesses_with_the_older_fields():
    with open(fixture("interval.json")) as fh:
        f = parse_document(json.load(fh)).map("e0").value
    report = json.loads(dump(classification_report(f, "q", classify(f, "q"))))
    for key, cert in report["verdict"]["cofibration"]["witness"][
            "degrees"].items():
        assert sorted(cert) == ["cokernel_section", "retraction"]
        cert.update(cokernel=cokernel(f.component(int(key)))[0].to_json(),
                    kernel_generators=[], kernel_factorization=[])
    assert verify_report(report) == (True, [])


def _refuse(*args, **kwargs):
    raise RuntimeError("verify decided a bit that its witness proves")


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_verify_accepts_a_yes_on_its_witness_alone(ring, monkeypatch):
    """With `classify` and the homotopy-equivalence search patched to
    raise, every h and Bousfield report whose weak equivalence is "yes"
    verifies as before: isomorphisms, yes in every bit, and over Z the
    interval's end inclusions, whose "no" bits are split mono or epi."""
    rng = random.Random(16)
    maps = [twist_complex_with_iso(random_complex(ring, rng, max_top=2,
                                                  max_rank=3), rng)[1]
            for _ in range(20)]
    if ring == ZZ:
        with open(fixture("interval.json")) as fh:
            doc = parse_document(json.load(fh))
        maps += [doc.map("e0").value, doc.map("e1").value]
    reports = []
    for f in maps:
        for flavor in ("h", "bousfield"):
            g = dualize_map(f) if flavor == "bousfield" else f
            reports.append(json.loads(dump(classification_report(
                g, flavor, classify(g, flavor)))))
    statuses = [[r["verdict"][bit]["status"] for bit in
                 ("cofibration", "fibration", "weak_equivalence")]
                for r in reports]
    assert all(s == ["yes"] * 3 for s in statuses[:40])
    assert all(s[2] == "yes" for s in statuses)
    results = [verify_report(r) for r in reports]
    assert results == [(True, [])] * len(reports)
    monkeypatch.setattr(classify_module, "classify", _refuse)
    monkeypatch.setattr(classify_module, "is_chain_homotopy_equivalence",
                        _refuse)
    monkeypatch.setattr(classify_module, "find_contraction", _refuse)
    monkeypatch.setattr(reports_module, "classify", _refuse, raising=False)
    assert [verify_report(r) for r in reports] == results


def test_cli_certify_deterministic(capsys):
    code, out1 = run_cli(["certify", "--suite", "nonqhm", "--seed", "7",
                          "--cases", "5"], capsys)
    assert code == 0
    code, out2 = run_cli(["certify", "--suite", "nonqhm", "--seed", "7",
                          "--cases", "5"], capsys)
    assert out1 == out2


@pytest.mark.parametrize("flag, ring", [
    ("z", {"kind": "Z"}), ("Z", {"kind": "Z"}),
    ("z/6", {"kind": "Zmod", "modulus": 6}),
    ("Z/6", {"kind": "Zmod", "modulus": 6}),
    ("Z/2", {"kind": "Zmod", "modulus": 2})])
def test_cli_ring_flag_takes_either_case(flag, ring, capsys):
    code, out = run_cli(["certify", "--suite", "nonqhm", "--seed", "7",
                         "--cases", "2", "--ring", flag], capsys)
    assert code == 0
    assert json.loads(out)["ring"] == ring


@pytest.mark.parametrize("flag", ["z/x", "z/1", "z/0", "z/-3", "z/",
                                  "Z/6/2", "q", "zz", ""])
def test_cli_ring_flag_refusals_name_the_flag(flag, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["certify", "--suite", "nonqhm", "--cases", "1",
              "--ring", flag])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == (
        f"error: --ring: unknown ring {flag!r}; use 'z' or 'z/<m>' "
        "with m >= 2\n")


def test_cli_normalize_denormalize(capsys):
    code, out = run_cli(["denormalize", "--doc", fixture("disks_spheres.json"),
                         "--complex", "S1", "--cap", "4"], capsys)
    assert code == 0
    assert json.loads(out)["level_ranks"] == [0, 1, 2, 3, 4]
    code, out = run_cli(["normalize", "--doc", fixture("simplicial.json"),
                         "--object", "sD1"], capsys)
    assert code == 0
    degrees = json.loads(out)["result"]["degrees"]
    assert [d["generators"] for d in degrees] == [1, 1]


def test_cli_tensor_and_hom(capsys):
    code, out = run_cli(["tensor", "--doc", fixture("disks_spheres.json"),
                         "--x", "D1", "--y", "D1"], capsys)
    assert code == 0
    degrees = json.loads(out)["result"]["degrees"]
    assert [d["generators"] for d in degrees] == [1, 2, 1]
    code, out = run_cli(["hom", "--doc", fixture("disks_spheres.json"),
                         "--x", "S1", "--y", "S1"], capsys)
    assert code == 0


def test_cli_ez_aw(capsys):
    code, out = run_cli(["ez-aw", "--doc", fixture("simplicial.json"),
                         "--a", "sS1", "--b", "sS1"], capsys)
    assert code == 0
    assert json.loads(out)["aw_ez_identity"]


def test_cli_verify_refuses_a_kind_it_does_not_check(tmp_path, capsys):
    # an ez-aw report is no failed witness: verify does not check its kind
    report = tmp_path / "ez_aw.json"
    code, _ = run_cli(["ez-aw", "--doc", fixture("simplicial.json"),
                       "--a", "sD1", "--b", "sS1", "--out", str(report)],
                      capsys)
    assert code == 0
    assert main(["verify", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: kind: verify checks classification, lift and certify " \
           "reports, not 'ez_aw'" in captured.err


def test_cli_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "chaincert.cli", "classify",
         "--doc", "/nonexistent.json", "--map", "q"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(minimal_doc(version="99")))
    proc = subprocess.run(
        [sys.executable, "-m", "chaincert.cli", "validate", str(bad)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "version" in proc.stderr


def outcome(call, argv):
    """(result or exit code, stdout, stderr) of ``call(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_command_parser_matches_the_full_parser(name):
    for argv in ([name, "--help"], [name, "--no-such-option"]):
        assert outcome(build_parser(name).parse_args, argv) == \
            outcome(build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", [[], ["--help"], ["nope"], ["classify"]],
                         ids=str)
def test_cli_main_answers_as_the_full_parser(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out, captured.err) == \
        outcome(build_parser().parse_args, argv)


def test_a_reused_parser_answers_as_a_fresh_one(tmp_path):
    # main keeps one parser per command for the process; a call after a
    # usage error, a --help and another command must answer as a call
    # that builds its parser anew
    assert build_parser("classify") is build_parser("classify")
    report = str(tmp_path / "w.json")
    first = ["classify", "--doc", fixture("interval.json"), "--map", "e0",
             "--flavor", "h", "--out", report]
    calls = [first, first + ["--no-such-option"], ["classify", "--help"],
             ["verify", report], first]
    reused = [outcome(main, argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(outcome(main, argv))
    assert [code for code, _, _ in reused] == [0, 2, 0, 0, 0]
    assert reused == fresh


# -- cochain documents ----------------------------------------------------


def free_module():
    return {"generators": 1, "relations": []}


def unequal_tops_doc():
    """S = (Z -1-> Z) of top 1 mapped to T = Z of top 0 by g^0 = 1."""
    return minimal_doc(
        objects={"S": {"type": "cochain_complex",
                       "degrees": [free_module(), free_module()],
                       "differentials": [[[1]]]},
                 "T": {"type": "cochain_complex",
                       "degrees": [free_module()]}},
        maps={"g": {"source": "S", "target": "T", "components": [[[1]]]}})


@pytest.mark.parametrize("command", [
    ["classify", "--map", "g", "--flavor", "bousfield"],
    ["bousfield", "--map", "g"]])
def test_cochain_map_with_unequal_tops_classifies(tmp_path, capsys, command):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(unequal_tops_doc()))
    report = tmp_path / "r.json"
    code, out = run_cli(command + ["--doc", str(doc), "--out", str(report)],
                        capsys)
    assert code == 0
    verdict = json.loads(out)["verdict"]
    # g^1 : Z -> 0 is no split mono; every g^k is split epi; the source is
    # contractible and the target is not
    assert verdict["cofibration"]["status"] == "no"
    assert verdict["cofibration"]["obstruction"]["degree"] == 1
    assert verdict["fibration"]["status"] == "yes"
    assert verdict["weak_equivalence"]["status"] == "no"
    code, out = run_cli(["verify", str(report)], capsys)
    assert code == 0
    assert json.loads(out)["ok"]


@pytest.mark.parametrize("command", [
    ["tensor", "--x", "S", "--y", "S"],
    ["normalize", "--object", "S"]])
def test_cochain_object_is_refused_by_chain_commands(tmp_path, capsys,
                                                     command):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(unequal_tops_doc()))
    assert main(command + ["--doc", str(doc)]) == 2
    assert "error: objects.S: not a " in capsys.readouterr().err


def test_tampered_cochain_component_names_cochain_degree():
    # both maps are reversed at top 1, so g^k is chain degree 1 - k
    doc = unequal_tops_doc()
    doc["maps"]["g"]["components"] = [[[1], [0]]]  # T^0 has one generator
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert err.value.location == "maps.g.components[0]"
    doc["objects"]["T"] = {"type": "cochain_complex",
                           "degrees": [free_module(), free_module()],
                           "differentials": [[[0]]]}
    doc["maps"]["g"]["components"] = [[[1]], [[1, 2]]]  # S^1 has one
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert err.value.location == "maps.g.components[1][0]"


def test_component_into_a_zero_module_has_no_entries(tmp_path, capsys):
    # both ends are reversed at top 1: g^1 maps S^1 = Z into T^1 = 0
    doc = unequal_tops_doc()
    doc["maps"]["g"]["components"] = [[[1]], [[1]]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_:
        main(["validate", str(path)])
    assert exit_.value.code == 2
    assert "error: maps.g.components[1]: " in capsys.readouterr().err


@pytest.mark.parametrize("relations", [[5], {"a": 1}])
def test_relations_that_are_not_rows_name_their_location(tmp_path, capsys,
                                                         relations):
    doc = minimal_doc()
    doc["objects"]["C"]["degrees"][0]["relations"] = relations
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_:
        main(["validate", str(path)])
    assert exit_.value.code == 2
    assert ("error: objects.C.degrees[0].relations: "
            in capsys.readouterr().err)


@pytest.mark.parametrize("rows,cols,data,ok", [
    (0, 2, [], True), (2, 0, [], True), (2, 0, [[], []], True),
    (0, 1, [[1]], False), (0, 1, [[]], False), (2, 0, [[], [1]], False),
    (2, 0, [[]], False)])
def test_empty_shape_matrix_holds_no_entries(rows, cols, data, ok):
    if ok:
        assert parse_matrix(ZZ, data, rows, cols, "m").is_zero()
    else:
        with pytest.raises(DocumentError) as err:
            parse_matrix(ZZ, data, rows, cols, "m")
        assert err.value.location == "m"


def test_non_cochain_map_error_names_cochain_square():
    doc = unequal_tops_doc()
    # T = (Z -0-> Z); g^1 d^0 = 2 but d^0 g^0 = 0
    doc["objects"]["T"] = {"type": "cochain_complex",
                           "degrees": [free_module(), free_module()],
                           "differentials": [[[0]]]}
    doc["maps"]["g"]["components"] = [[[1]], [[2]]]
    with pytest.raises(DocumentError, match="cochain square at degree 0"):
        parse_document(doc)


# -- the cap guard of the denormalization ----------------------------------


def ranks_complex(ranks):
    """Free modules of the given ranks with zero differentials."""
    return {"type": "chain_complex",
            "degrees": [{"generators": r, "relations": []} for r in ranks],
            "differentials": [[[0] * a for _ in range(b)]
                              for a, b in zip(ranks[1:], ranks)]}


def test_cap_bound_counts_generators_at_the_cap_level():
    # level n of Gamma(C) has sum_k binom(n, k) rank C_k generators
    ranks = [1, 2, 3, 2]
    C = parse_chain_complex(ZZ, ranks_complex(ranks), "C")
    assert cap_problem(C, 8) is None           # 213 generators
    assert "295 generators" in cap_problem(C, 9)
    assert cap_problem(C, C.top + 1) is None   # the default is never refused
    at_bound = parse_chain_complex(ZZ, ranks_complex([MAX_CAP_GENERATORS]),
                                   "C")
    over = parse_chain_complex(ZZ, ranks_complex([MAX_CAP_GENERATORS + 1]),
                               "C")
    assert cap_problem(at_bound, 2) is None
    assert cap_problem(over, 2) is not None


def test_cap_bound_counts_the_steps_of_the_identity_check():
    # level n counts n^2 * (n * (summands + 1) + generators), by value:
    # nothing is built, so a cap far past any run is decided at once
    S0 = sphere(ZZ, 0)
    assert sum(n * n * (2 * n + 1) for n in range(33)) <= MAX_CAP_STEPS
    assert sum(n * n * (2 * n + 1) for n in range(34)) > MAX_CAP_STEPS
    assert cap_problem(S0, 32) is None
    assert cap_problem(S0, 33) == (
        f"checking the simplicial identities through level 33 would take "
        f"more than {MAX_CAP_STEPS} steps")
    assert "through level 1000000 " in cap_problem(S0, 10 ** 6)
    for C in (sphere(ZZ, 1), disk(ZZ, 1)):
        assert cap_problem(C, 18) is None
        assert "steps" in cap_problem(C, 19)
        assert "steps" in cap_problem(C, 48)
    # the refusal by generators comes first and is unchanged
    ranks = parse_chain_complex(ZZ, ranks_complex([1, 2, 3, 2]), "C")
    assert cap_problem(ranks, 8) is None
    assert "295 generators" in cap_problem(ranks, 9)


def test_document_cap_past_the_steps_bound_is_refused():
    doc = minimal_doc(objects={"A": {
        "type": "simplicial_module", "cap": 1000000,
        "normalized": ranks_complex([1])}})
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert err.value.location == "objects.A.cap"
    assert "steps" in str(err.value)


def test_cli_denormalize_cap_past_the_steps_bound_is_refused(capsys):
    for name in ("S1", "D1"):
        with pytest.raises(SystemExit) as exit_:
            main(["denormalize", "--doc", fixture("disks_spheres.json"),
                  "--complex", name, "--cap", "48"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: --cap: checking the simplicial identities through "
            "level 48")


def test_document_cap_over_the_bound_is_refused():
    doc = minimal_doc(objects={"A": {
        "type": "simplicial_module", "cap": 9,
        "normalized": ranks_complex([1, 2, 3, 2])}})
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert err.value.location == "objects.A.cap"


def test_cli_denormalize_cap_over_the_bound_is_refused(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(minimal_doc(
        objects={"C": ranks_complex([1, 2, 3, 2])})))
    with pytest.raises(SystemExit) as exit_:
        main(["denormalize", "--doc", str(doc), "--complex", "C",
              "--cap", "9"])
    assert exit_.value.code == 2
    assert "error: --cap: level 9 would have 295 generators" in \
        capsys.readouterr().err


def test_cli_denormalize_cap_below_the_top_is_refused(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["denormalize", "--doc", fixture("disks_spheres.json"),
              "--complex", "D2", "--cap", "-3"])
    assert exit_.value.code == 2
    assert "error: --cap: cap must be an integer >= the top degree" in \
        capsys.readouterr().err


# -- JSON integers at the document boundary --------------------------------


def _load_fixture(name):
    with open(fixture(name)) as fh:
        return json.load(fh)


def _bool_components(doc):
    doc["maps"]["e0"]["components"] = [[[True], [False]]]


def _bool_generators(doc):
    doc["objects"]["I"]["degrees"][0]["generators"] = True


def _string_modulus(doc):
    doc["ring"] = {"kind": "Zmod", "modulus": "6"}


def _float_modulus(doc):
    doc["ring"] = {"kind": "Zmod", "modulus": 6.5}


def _bool_modulus(doc):
    doc["ring"] = {"kind": "Zmod", "modulus": True}


def _bool_cap(doc):
    doc["objects"]["sD1"]["cap"] = True


# JSON true and false are not integers, although Python's bool is an int
@pytest.mark.parametrize("name, damage, location", [
    ("interval.json", _bool_components, "maps.e0.components[0][0]"),
    ("interval.json", _bool_generators, "objects.I.degrees[0]"),
    ("interval.json", _string_modulus, "ring"),
    ("interval.json", _float_modulus, "ring"),
    ("interval.json", _bool_modulus, "ring"),
    ("simplicial.json", _bool_cap, "objects.sD1.cap")])
def test_cli_validate_refuses_non_integers(tmp_path, capsys, name, damage,
                                           location):
    doc = _load_fixture(name)
    damage(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_:
        main(["validate", str(path)])
    assert exit_.value.code == 2
    assert f"error: {location}: " in capsys.readouterr().err


@pytest.mark.parametrize("ring, location", [
    ("z/4", "ring"),                  # the command line's spelling
    ({"kind": "Zmod"}, "ring.modulus"),
    ({"kind": "Z", "modulus": 3}, "ring.modulus")])
def test_cli_validate_says_what_a_ring_looks_like(tmp_path, capsys, ring,
                                                  location):
    doc = _load_fixture("interval.json")
    doc["ring"] = ring
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_:
        main(["validate", str(path)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {location}: " in err
    assert '{"kind": "Zmod", "modulus": m}' in err
    assert "attribute" not in err


def test_cli_verify_refuses_boolean_entries(tmp_path, capsys):
    report = interval_h_report()
    report["map"]["components"] = [[[True], [False]]]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["verify", str(path)]) == 2
    assert "error: map.components[0][0]: " in capsys.readouterr().err


# -- the size guard of plain ez-aw -----------------------------------------


def staircase(k):
    """Gamma of Z in each degree 0..k, with d_k = 1 and the other
    differentials zero."""
    doc = ranks_complex([1] * (k + 1))
    doc["differentials"][-1] = [[1]]
    return gamma(parse_chain_complex(ZZ, doc, "C"), verify=False)


def test_tensor_bound_counts_the_largest_normalized_degree(monkeypatch):
    # counted from the plans, so no case here builds N(A (x) B)
    assert tensor_problem(staircase(3), staircase(3)) is None   # 50
    assert tensor_problem(staircase(4), staircase(4)) is None   # 260
    assert "degree 8 of N(A (x) B) would have 1302 generators" in \
        tensor_problem(staircase(5), staircase(5))
    assert 260 < MAX_TENSOR_GENERATORS < 1302
    with open(fixture("disks_spheres.json")) as fh:
        D3 = parse_document(json.load(fh)).simplicial("D3")
    assert tensor_problem(D3, D3) is None
    with monkeypatch.context() as m:
        m.setattr(module_module, "MAX_TENSOR_GENERATORS", 49)
        assert tensor_problem(D3, D3) == (
            "degree 5 of N(A (x) B) would have 50 generators, more than 49")
        m.setattr(module_module, "MAX_TENSOR_GENERATORS", 50)
        assert tensor_problem(D3, D3) is None


def test_cli_ez_aw_over_the_tensor_bound_is_refused(monkeypatch, capsys):
    # D3 x D3 of disks_spheres.json, the largest fixture pair at 50
    # generators, against a bound lowered to 49
    monkeypatch.setattr(module_module, "MAX_TENSOR_GENERATORS", 49)
    for extra in ([], ["--dual"]):
        with pytest.raises(SystemExit) as exit_:
            main(["ez-aw", "--doc", fixture("disks_spheres.json"), "--a",
                  "D3", "--b", "D3", *extra])
        assert exit_.value.code == 2
        assert "error: --a/--b: degree 5 of N(A (x) B) would have 50 " \
               "generators, more than 49" in capsys.readouterr().err


# -- the size guards of tensor and hom --------------------------------------


def test_tensor_and_hom_bounds_count_each_degree(monkeypatch):
    # tensor degree n: sum_i gens X_i * gens Y_{n-i}, here 4, 13, 22, 15;
    # hom degree n: sum_i gens X_i * gens Y_{i+n}, here 23, 14, 5
    X = parse_chain_complex(ZZ, ranks_complex([1, 2, 3]), "X")
    Y = parse_chain_complex(ZZ, ranks_complex([4, 5]), "Y")
    assert tensor_size_problem(X, Y) is None
    assert hom_size_problem(X, Y) is None
    monkeypatch.setattr(tensor_module, "MAX_CHAIN_TENSOR_GENERATORS", 21)
    monkeypatch.setattr(homcx_module, "MAX_HOM_UNKNOWNS", 22)
    assert tensor_size_problem(X, Y) == (
        "degree 2 of X (x) Y would have 22 generators, more than 21")
    assert hom_size_problem(X, Y) == (
        "degree -1 of Hom(X, Y) would have 23 unknowns, more than 22")
    monkeypatch.setattr(tensor_module, "MAX_CHAIN_TENSOR_GENERATORS", 22)
    monkeypatch.setattr(homcx_module, "MAX_HOM_UNKNOWNS", 23)
    assert tensor_size_problem(X, Y) is None
    assert hom_size_problem(X, Y) is None


def test_fixture_pairs_are_within_the_tensor_and_hom_bounds():
    for name in sorted(os.listdir(FIXTURES)):
        doc = parse_document(_load_fixture(name))
        complexes = [doc.chain_complex(key) for key, kind in
                     doc.object_kinds.items()
                     if kind in ("chain_complex", "simplicial_module")]
        for X in complexes:
            for Y in complexes:
                assert tensor_size_problem(X, Y) is None, name
                assert hom_size_problem(X, Y) is None, name


@pytest.mark.parametrize("command, x, message", [
    ("tensor", [23], "degree 0 of X (x) Y would have 529 generators, more "
                     "than 512"),
    ("hom", [0, 23], "degree -1 of Hom(X, Y) would have 529 unknowns, more "
                     "than 512")])
def test_cli_tensor_and_hom_over_the_bound_are_refused(
        command, x, message, tmp_path, monkeypatch, capsys):
    # refused from the ranks alone: nothing is built
    def build(X, Y):
        raise RuntimeError(f"{command} built over the bound")

    monkeypatch.setattr(cli_module, f"{command}_complex", build)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(minimal_doc(objects={
        "X": ranks_complex(x), "Y": ranks_complex([23])})))
    with pytest.raises(SystemExit) as exit_:
        main([command, "--doc", str(doc), "--x", "X", "--y", "Y"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == f"error: --x/--y: {message}\n"


# -- the size guard of ez-aw --dual -----------------------------------------


def simplicial_fixture():
    with open(fixture("simplicial.json")) as fh:
        return parse_document(json.load(fh))


def test_through_bound_counts_the_largest_cotensor_level(monkeypatch):
    doc = simplicial_fixture()
    A, B = doc.simplicial("sD1"), doc.simplicial("sS1")
    # level 3 of sD1 (x) Gamma(D^2): 1 + 3 generators times binom(4, 2),
    # counted as cotensor builds it
    assert cotensor(A, B, 2).tensors[2].level_rank(3) == 24
    with monkeypatch.context() as m:
        m.setattr(cotensor_module, "MAX_COTENSOR_GENERATORS", 23)
        assert "level 3 of A (x) Gamma(D^2) would have 24 generators" in \
            through_problem(A, B, 2)
    assert through_problem(A, B, 11) is None        # 1014 generators
    assert "1274 generators" in through_problem(A, B, 12)
    assert MAX_COTENSOR_GENERATORS < 1274


def test_default_through_passes_on_every_fixture_pair():
    # every object ez-aw accepts: simplicial modules, and chain complexes
    # through Gamma; D3 of disks_spheres.json is the largest at 1225
    largest = 0
    for name in sorted(os.listdir(FIXTURES)):
        with open(fixture(name)) as fh:
            doc = parse_document(json.load(fh))
        accepted = []
        for obj in doc.objects:
            try:
                accepted.append(doc.simplicial(obj))
            except DocumentError:
                pass
        for A in accepted:
            for B in accepted:
                assert through_problem(A, B, 3) is None
                top = max(3, B.top)
                level = A.top + top
                largest = max(largest, gamma_level_rank(A.normalized, level)
                              * comb(level + 1, top))
    assert largest == 1225 <= MAX_COTENSOR_GENERATORS


def test_cli_plain_ez_aw_runs_on_every_fixture_pair(capsys):
    # every ordered pair of objects ez-aw accepts, 95 in all; D3 x D3 of
    # disks_spheres.json is the largest, with N(D3 (x) D3) of rank 126
    started = time.perf_counter()
    pairs = 0
    for name in sorted(os.listdir(FIXTURES)):
        with open(fixture(name)) as fh:
            doc = parse_document(json.load(fh))
        accepted = []
        for obj in doc.objects:
            try:
                doc.simplicial(obj)
            except DocumentError:
                continue
            accepted.append(obj)
        for a in accepted:
            for b in accepted:
                code, out = run_cli(["ez-aw", "--doc", fixture(name),
                                     "--a", a, "--b", b], capsys)
                assert code == 0, (name, a, b)
                assert json.loads(out)["aw_ez_identity"] is True
                pairs += 1
    assert pairs == 95
    assert time.perf_counter() - started <= 30


def test_cli_ez_aw_dual_builds_the_largest_fixture_level(capsys):
    # D3 (a chain complex, read through Gamma) reaches 1225 generators at
    # the default through 3; D3 is also the largest B, which sizes the
    # chain-map systems N(A (x) Gamma(D^n)) -> N(B)
    code, out = run_cli(["ez-aw", "--doc", fixture("disks_spheres.json"),
                         "--a", "D3", "--b", "D3", "--dual"], capsys)
    assert code == 0
    assert set(json.loads(out)["dual"]) == {"aw_star", "ez_star", "homotopy"}


def test_cli_ez_aw_dual_through_over_the_bound_is_refused(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["ez-aw", "--doc", fixture("simplicial.json"), "--a", "sD1",
              "--b", "sS1", "--dual", "--through", "12"])
    assert exit_.value.code == 2
    assert "error: --through: level 13 of A (x) Gamma(D^12) would have " \
           "1274 generators" in capsys.readouterr().err


def test_cli_ez_aw_dual_negative_through_is_refused(capsys):
    doc = simplicial_fixture()
    A, B = doc.simplicial("sD1"), doc.simplicial("sS1")
    assert through_problem(A, B, -1) == "through must be an integer >= 0"
    assert through_problem(A, B, 0) is None
    with pytest.raises(SystemExit) as exit_:
        main(["ez-aw", "--doc", fixture("simplicial.json"), "--a", "sD1",
              "--b", "sS1", "--dual", "--through", "-1"])
    assert exit_.value.code == 2
    assert "error: --through: through must be an integer >= 0" in \
        capsys.readouterr().err
