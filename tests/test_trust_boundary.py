"""What is trusted without a check stays trusted for a reason.

Two rules keep validation at the boundary.  ``exact/matrix.py`` lets its
own operations and the rest of ``exact/`` wrap canonical tuples without
validation; everything else, tests and the benchmark included, builds
matrices through the public constructor, so the first test fails if the
private name appears outside ``src/chaincert/exact/``.  Internal
constructions build complexes, chain maps and module maps that are right
by construction, and retractions that their caller has just checked,
with ``check=False`` (see ``chains/complexes.py``); the second test makes
every such constructor check anyway and reruns the suites, the fixtures
and the h-factorizations of the hlp-hep suite's maps, so a false "by
construction" claim fails there.
"""

import json
import os
import random
import re
from pathlib import Path

from chaincert.certify import SUITES, CertifyConfig
from chaincert.chains.complexes import ChainComplex, ChainMap, Retractions
from chaincert.chains.truncate import WindowComplex
from chaincert.cli import main
from chaincert.exact.modules import ModuleMap
from chaincert.exact.rings import ZZ, Zmod
from chaincert.io.document import chain_map_from_json, parse_document
from chaincert.models.factorize import factorize_h

ROOT = Path(__file__).resolve().parent.parent
KERNEL = ROOT / "src" / "chaincert" / "exact"
FIXTURES = ROOT / "fixtures"
PRIVATE = re.compile(r"\b_from_canonical\b")


def test_private_constructor_is_used_only_in_the_kernel():
    assert any(PRIVATE.search(p.read_text())
               for p in KERNEL.glob("*.py")), "the guard lost its target"
    offenders = []
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if KERNEL in path.parents or path == Path(__file__).resolve():
                continue
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if PRIVATE.search(line):
                    offenders.append(f"{path.relative_to(ROOT)}:{n}")
    assert not offenders, offenders


def _cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def _reports(capsys, tmp_path):
    """(argv, exit code, stdout) of every certify suite at seed 7 over Z
    and Z/6, and of classify and verify on every fixture map."""
    runs = []
    for ring in ("z", "z/6"):
        for suite in sorted(SUITES):
            argv = ["certify", "--suite", suite, "--ring", ring,
                    "--seed", "7", "--cases", "5"]
            code, out = _cli(argv, capsys)
            assert code == 0 and json.loads(out)["ok"], (suite, ring)
            runs.append((argv, code, out))
    witness = tmp_path / "report.json"
    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse_document(json.loads(path.read_text()))
        for name in sorted(doc.maps):
            calls = [["classify", "--doc", str(path), "--map", name,
                      "--flavor", flavor] for flavor in ("h", "q", "m")]
            calls.append(["bousfield", "--doc", str(path), "--map", name])
            for argv in calls:
                code, out = _cli(argv, capsys)
                runs.append((argv, code, out))
                if code:   # a chain flavor on cochain data
                    continue
                witness.write_text(out)
                verified = _cli(["verify", str(witness)], capsys)
                assert verified[0] == 0, (argv, verified[1])
                runs.append((argv + ["verify"], *verified))
    return runs


def _factorizations():
    """The verdicts of both h-factorizations of the hlp-hep suite's maps
    at seed 7 over Z and Z/6; no suite or command reaches their legs."""
    verdicts = []
    for ring in (ZZ, Zmod(6)):
        cfg = CertifyConfig("hlp-hep", seed=7, cases=10, ring=ring)
        for index in range(cfg.cases):
            rng = random.Random(cfg.seed * 1_000_003 + index)
            case = SUITES["hlp-hep"].generate(rng, cfg)
            f = chain_map_from_json(ring, case["map"], "map")
            rep = factorize_h(f)
            for fact in (rep.cylinder, rep.cocylinder):
                assert fact.composes_to(f)
                verdicts.append((fact.first_verdict.to_json(),
                                 fact.second_verdict.to_json()))
    return verdicts


def _always_check(init):
    def checked_init(self, *args, check=True, **kwargs):
        init(self, *args, check=True, **kwargs)
    return checked_init


def test_unchecked_constructions_pass_when_forced_to_check(
        monkeypatch, capsys, tmp_path):
    plain = _reports(capsys, tmp_path)
    assert len(plain) > 2 * len(SUITES)
    factorizations = _factorizations()
    for cls in (ChainComplex, ChainMap, ModuleMap, Retractions,
                WindowComplex):
        monkeypatch.setattr(cls, "__init__", _always_check(cls.__init__))
    assert _factorizations() == factorizations
    forced = _reports(capsys, tmp_path)
    assert [run[0] for run in forced] == [run[0] for run in plain]
    for (argv, *want), (_, *got) in zip(plain, forced):
        assert got == want, " ".join(map(os.path.basename, argv))
