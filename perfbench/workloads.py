"""The benchmark's three workloads: seeded inputs, operations and checks.

Every workload is a fixed list of operations (one round).  An operation
has a timed `decide` half that returns report bytes, a timed `verify`
half that reads the bytes back and verifies them, and an untimed `check`
that compares the outcome with an answer known independently of the
program.  Inputs come from the seed alone; the program sees only them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from chaincert import cli
from chaincert.certify import SUITES, CertifyConfig, Suite, run_suite
from chaincert.chains.build import (concentrated, direct_sum_complexes, disk,
                                    sphere, unit_complex, zero_complex)
from chaincert.chains.cochain import dualize_map
from chaincert.chains.complexes import ChainComplex, ChainMap, LiftingProblem
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import ModuleMap, PresentedModule
from chaincert.exact.rings import RingSpec, ZZ, Zmod
from chaincert.io.document import (chain_map_from_json, chain_map_to_json,
                                   complex_to_json, parse_chain_complex,
                                   parse_document)
from chaincert.io.reports import (bousfield_report, classification_report,
                                  dump, lift_report, verify_report)
from chaincert.models.classify import bousfield_classify, classify
from chaincert.models.generators import (random_chain_map, random_complex,
                                         random_split_mono,
                                         twist_complex_with_iso)
from chaincert.models.lifting import solve_lifting
from chaincert.models.pushout import pushout_product

from checks import check_map_identity, in_column_span, matmul, require

# the seed of the acceptance tests; inputs built from it do not depend on
# the benchmark's --seed
PINNED_SEED = 20260809

# the known fault kept in witness-roundtrip: verify rejects every
# homotopy-equivalence witness because the stored inverse lacks its
# source and target
HE_FAULT = "homotopy equivalence witness fails: 'source'"


@dataclass
class Op:
    name: str
    decide: Callable[[], bytes]
    verify: Callable[[bytes], tuple[bool, list[str]]]
    check: Callable[[bytes, bool, list[str]], None]
    may_hit_fault: bool = False   # the input is seed-independent and may
                                  # produce a homotopy-equivalence witness
    stage: Callable[[bytes], None] | None = None   # untimed, between the
                                                   # decide and verify halves


@dataclass
class Workload:
    name: str
    ops: list[Op]
    input_bytes: int
    # untraced runs time each verify half this many times and count the
    # median; a certify report reads back in about ten microseconds, and
    # smod-pushout has only 117 of them per round
    verify_reps: int = 3
    cleanup: list[Callable[[], None]] = field(default_factory=list)

    def close(self) -> None:
        for undo in reversed(self.cleanup):
            undo()
        self.cleanup.clear()


def read_fixtures(root: str) -> None:
    """Parse every fixture document, as each CLI call parses its own."""
    folder = os.path.join(root, "fixtures")
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as fh:
            parse_document(json.loads(fh.read()))


# -- certify workloads ---------------------------------------------------

def _certify_check(data: bytes, ok: bool, problems: list[str]) -> None:
    report = json.loads(data)
    # every suite certifies a theorem of the paper or its counterexample,
    # so a failing case is a wrong answer, not an expected outcome
    require(report["kind"] == "certify" and report["ok"]
            and all(r["ok"] for r in report["results"]),
            f"{report['suite']} seed {report['seed']} did not pass")
    require(ok and not problems, f"verify rejected a passing certify "
                                 f"report: {problems}")


def _certify_op(name: str, config: CertifyConfig) -> Op:
    def decide() -> bytes:
        return dump(run_suite(config)).encode()

    def verify(data: bytes) -> tuple[bool, list[str]]:
        return verify_report(json.loads(data))

    return Op(name, decide, verify, _certify_check)


def _signed_permutation(n: int, rng: random.Random) -> list[list[int]]:
    order = list(range(n))
    rng.shuffle(order)
    out = [[0] * n for _ in range(n)]
    for i, j in enumerate(order):
        out[i][j] = rng.choice((1, -1))
    return out


def _relabel(C: ChainComplex, rng: random.Random
             ) -> tuple[ChainMap, ChainMap]:
    """C -> C' and back, by a signed permutation of each degree's basis."""
    ring = C.ring
    perms = [_signed_permutation(C.module(n).generators, rng)
             for n in range(C.top + 1)]
    fwd = [Matrix(ring, len(p), len(p), p) for p in perms]
    back = [m.transpose() for m in fwd]
    mods = [PresentedModule(ring, C.module(n).generators,
                            fwd[n] @ C.module(n).relations)
            for n in range(C.top + 1)]
    diffs = [ModuleMap(mods[n], mods[n - 1],
                       fwd[n - 1] @ C.differential(n).action @ back[n],
                       check=False) for n in range(1, C.top + 1)]
    D = ChainComplex(ring, mods, diffs)
    to = ChainMap(C, D, [ModuleMap(C.module(n), mods[n], fwd[n], check=False)
                         for n in range(C.top + 1)])
    fro = ChainMap(D, C, [ModuleMap(mods[n], C.module(n), back[n],
                                    check=False) for n in range(C.top + 1)])
    return to, fro


def _relabel_map(f: ChainMap, rng: random.Random) -> ChainMap:
    _, from_source = _relabel(f.source, rng)
    to_target, _ = _relabel(f.target, rng)
    return to_target.compose(f).compose(from_source)


def _pinned_case(suite: str, ring: RingSpec, index: int) -> dict:
    """Case `index` of `suite` as run_suite draws it at the pinned seed."""
    config = CertifyConfig(suite, seed=PINNED_SEED, cases=index + 1,
                           ring=ring, shrink=False)
    return SUITES[suite].generate(
        random.Random(PINNED_SEED * 1_000_003 + index), config)


def _replay_ops(workload: Workload, suite: str, ring: RingSpec,
                cases: list[dict]) -> list[Op]:
    """Operations that certify prepared cases through run_suite.

    run_suite draws its cases from the suite registry, so the cases are
    replayed through a registered copy of the suite whose generator returns
    case j for seed j; each operation is a one-case certify report.
    """
    key = f"{suite}@replay/{ring}"
    SUITES[key] = Suite(key, lambda rng, cfg: cases[cfg.seed],
                        SUITES[suite].predicate)
    workload.cleanup.append(lambda: SUITES.pop(key, None))
    return [_certify_op(f"{suite}[{j}]/{ring}",
                        CertifyConfig(key, seed=j, cases=1, ring=ring,
                                      shrink=False))
            for j in range(len(cases))]


# The criterion-7 cases at the pinned seed that make up one round of
# smod-pushout.  Index 3 of monoidal-smod flattens to the largest system of
# the pinned set (882 x 2016) and dominates the round, as it dominates
# criterion 7; indices 1, 2, 6, 18 and 20 and the acyclic indices 1, 2 and
# 6 take from 0.4 to 2.5 s; the rest take 8 to 240 ms each.  Omitted for
# run length: monoidal-smod 8 and 12, monoidal-smod-acyclic 3, 4 and 12.
SMOD_PINNED = (
    ("monoidal-smod", tuple(i for i in range(35) if i not in (8, 12))),
    ("monoidal-smod-acyclic", tuple(i for i in range(15)
                                    if i not in (3, 4, 12))),
)
# The quick cases run in SMOD_QUICK_BASES bases each, so that a round holds
# over a hundred operations for the median and the 90th percentile while
# they add only about 4 s to the 30 s the others take.
SMOD_QUICK_BASES = 3
SMOD_SLOW = {"monoidal-smod": (1, 2, 3, 6, 18, 20),
             "monoidal-smod-acyclic": (1, 2, 6)}


def smod_pushout(seed: int) -> Workload:
    """The pinned criterion-7 cases, each in seed-chosen bases.

    A signed permutation of every basis keeps each flattened system's shape
    and sparsity, so the kernel does about the same work on every seed
    while the entries it sees change.
    """
    pinned = {(suite, index): _pinned_case(suite, ZZ, index)
              for suite, indices in SMOD_PINNED for index in indices}
    cases: dict[str, list[dict]] = {}
    for basis in range(SMOD_QUICK_BASES):
        for suite, indices in SMOD_PINNED:
            for index in indices:
                if basis and index in SMOD_SLOW[suite]:
                    continue
                case = pinned[suite, index]
                rng = random.Random(f"{seed}/{suite}/{index}/{basis}")
                cases.setdefault(suite, []).append(
                    {key: chain_map_to_json(_relabel_map(
                        chain_map_from_json(ZZ, case[key], key), rng))
                     for key in ("i", "k")})
    text = json.dumps(cases, sort_keys=True).encode()
    workload = Workload("smod-pushout", [], len(text), verify_reps=100)
    for suite, replayed in json.loads(text).items():
        workload.ops += _replay_ops(workload, suite, ZZ, replayed)
    return workload


# acceptance sizes (tests/test_acceptance.py); nonqhm and the two enrichment
# suites have no criterion of their own and run 20 cases
SUITE_SIZES = (
    ("dold-kan", 100), ("ez-aw", 50), ("ez-aw-dual", 20), ("hlp-hep", 200),
    ("brutal-truncation", 5), ("monoidal-h", 200), ("monoidal-h-acyclic", 50),
    ("q2h-we", 50), ("nonqhm", 20), ("yoneda", 200), ("bousfield-dual", 100),
    ("fibrant-cofibrant", 10), ("enrich-h-over-q", 20),
    ("enrich-m-over-q", 20),
)
# ez-aw over Z/6 does not finish in reasonable time on some seeds, so the
# Z/6 half leaves it out
SKIP_ZMOD = ("ez-aw",)
# the two Gamma-level suites have heavy-tailed case costs (level n has 2^n
# summands), so they replay the pinned acceptance cases in seeded bases
# instead of drawing new cases, which keeps the round's work fixed
REPLAYED = ("ez-aw", "ez-aw-dual")


def suites(seed: int) -> Workload:
    """The other fourteen suites over Z and Z/6, one case per operation."""
    plan = []
    for ring in (ZZ, Zmod(6)):
        for suite, size in SUITE_SIZES:
            if ring.is_modular and suite in SKIP_ZMOD:
                continue
            if suite in REPLAYED:
                cases = []
                for index in range(size):
                    rng = random.Random(f"{seed}/{suite}/{ring}/{index}")
                    cases.append({
                        key: complex_to_json(_relabel(parse_chain_complex(
                            ring, data, key), rng)[0].target)
                        for key, data in _pinned_case(suite, ring,
                                                      index).items()})
                plan.append((suite, ring.to_json(), cases))
            else:
                plan.append((suite, ring.to_json(),
                             [seed * 100_003 + len(plan) * 1000 + j
                              for j in range(size)]))
    text = json.dumps(plan).encode()
    workload = Workload("suites", [], len(text), verify_reps=25)
    for suite, ring, cases in json.loads(text):
        ring = RingSpec.from_json(ring)
        if suite in REPLAYED:
            workload.ops += _replay_ops(workload, suite, ring, cases)
        else:
            workload.ops += [_certify_op(
                f"{suite}[{j}]/{ring}",
                CertifyConfig(suite, seed=case_seed, cases=1, ring=ring,
                              shrink=False))
                for j, case_seed in enumerate(cases)]
    return workload


def determinism_check(seed: int) -> None:
    """One certify report, produced twice, must be identical byte for byte."""
    config = CertifyConfig("monoidal-h", seed=seed, cases=8, ring=Zmod(6))
    first = dump(run_suite(config))
    require(first == dump(run_suite(config)),
            "two certify reports from the same seed differ")


# -- witness-roundtrip ---------------------------------------------------

def _module(complex_data: dict, n: int) -> tuple[int, list[list[int]]]:
    degrees = complex_data["degrees"]
    if n >= len(degrees):
        return 0, []
    return degrees[n]["generators"], degrees[n]["relations"]


def _component(map_data: dict, n: int, rows: int, cols: int):
    comps = map_data["components"]
    raw = comps[n] if n < len(comps) else []
    return raw if rows and cols else [[0] * cols for _ in range(rows)]


def _modulus(ring: dict) -> int | None:
    return ring["modulus"] if ring["kind"] != "Z" else None


def check_witnesses(report: dict) -> None:
    """Re-check every "yes" retraction, section and surjectivity witness of
    a classification report with the benchmark's own integer product."""
    modulus = _modulus(report["ring"])
    f = report["map"]
    for bit_name in ("cofibration", "fibration", "weak_equivalence"):
        bit = report["verdict"][bit_name]
        witness = bit.get("witness") or {}
        kind = witness.get("type")
        if bit["status"] != "yes" or kind not in (
                "degreewise_retractions", "degreewise_sections",
                "q_cofibration", "degreewise_surjectivity"):
            continue
        for key, entry in witness["degrees"].items():
            n = int(key)
            gs, rel_s = _module(f["source"], n)
            gt, rel_t = _module(f["target"], n)
            fn = _component(f, n, gt, gs)
            what = f"{report['flavor']} {bit_name} witness at degree {n}"
            if kind in ("degreewise_retractions", "q_cofibration"):
                raw = entry if kind == "degreewise_retractions" \
                    else entry["retraction"]
                r = raw if gs and gt else [[0] * gt for _ in range(gs)]
                check_map_identity(matmul(r, fn, gs), gs, rel_s, modulus,
                                   what)
            elif kind == "degreewise_sections":
                s = entry if gs and gt else [[0] * gt for _ in range(gs)]
                check_map_identity(matmul(fn, s, gt), gt, rel_t, modulus,
                                   what)
            else:
                pre = entry["preimages"] if gs and gt else \
                    [[0] * gt for _ in range(gs)]
                part = matmul(fn, pre, gt)
                if rel_t and rel_t[0]:
                    part = [[a + b for a, b in zip(x, y)] for x, y in zip(
                        part, matmul(rel_t, entry["relation_part"], gt))]
                check_map_identity(part, gt, [], modulus, what)


def check_lift(report: dict) -> None:
    """lift o left = top and right o lift = bottom, degree by degree."""
    modulus = _modulus(report["ring"])
    left, right = report["left"], report["right"]
    top, bottom = report["top"], report["bottom"]
    X, E = left["target"], right["source"]
    for n in range(len(report["lift"])):
        ga, _ = _module(left["source"], n)
        gx, _ = _module(X, n)
        ge, rel_e = _module(E, n)
        gb, rel_b = _module(right["target"], n)
        h = _component({"components": report["lift"]}, n, ge, gx)
        for got, want, rows, rel, what in (
                (matmul(h, _component(left, n, gx, ga), ga),
                 _component(top, n, ge, ga), ge, rel_e, "top"),
                (matmul(_component(right, n, gb, ge), h, gx),
                 _component(bottom, n, gb, gx), gb, rel_b, "bottom")):
            diff = [[a - b for a, b in zip(x, y)] for x, y in zip(got, want)]
            require(in_column_span(rel, diff, modulus),
                    f"lift does not match the {what} leg at degree {n}")


def _expect_check(expect: dict, he_fault_possible: bool):
    """The check of one witness-roundtrip operation against the answer
    known by construction."""
    def check(data: bytes, ok: bool, problems: list[str]) -> None:
        report = json.loads(data)
        if report["kind"] == "classification":
            for bit_name, status in expect.items():
                got = report["verdict"][bit_name]["status"]
                require(got == status, f"{report['flavor']} {bit_name} is "
                                       f"{got}, expected {status}")
            check_witnesses(report)
        elif report["kind"] == "lift":
            require(report["found"] == expect["found"],
                    f"lift found={report['found']}, expected "
                    f"{expect['found']}")
            if report["found"]:
                check_lift(report)
        if not ok:
            require(he_fault_possible and problems == [HE_FAULT],
                    f"verify rejected a correct report: {problems}")
    return check


def _verify_bytes(data: bytes) -> tuple[bool, list[str]]:
    return verify_report(json.loads(data))


def _classify_op(name: str, flavor: str, map_json: dict, expect: dict,
                 *, pinned: bool = False) -> Op:
    def decide() -> bytes:
        f = chain_map_from_json(ZZ, map_json, "map")
        if flavor == "bousfield":
            g = dualize_map(f)
            return dump(bousfield_report(g, bousfield_classify(g))).encode()
        return dump(classification_report(f, flavor,
                                          classify(f, flavor))).encode()

    return Op(name, decide, _verify_bytes, _expect_check(expect, pinned),
              may_hit_fault=pinned)


def _lift_op(name: str, legs: dict, found: bool) -> Op:
    def decide() -> bytes:
        maps = {k: chain_map_from_json(ZZ, v, k) for k, v in legs.items()}
        problem = LiftingProblem(maps["left"], maps["right"], maps["top"],
                                 maps["bottom"])
        return dump(lift_report(problem, solve_lifting(problem, "h"),
                                "h")).encode()

    return Op(name, decide, _verify_bytes,
              _expect_check({"found": found}, False))


def _run_cli(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def _cli_op(name: str, argv: list[str], expect: dict, out_dir: str) -> Op:
    path = os.path.join(out_dir, name.replace("/", "_") + ".json")

    def decide() -> bytes:
        code, data = _run_cli(argv)
        require(code == 0, f"{' '.join(argv)} exited {code}")
        return data

    def stage(data: bytes) -> None:
        with open(path, "wb") as fh:
            fh.write(data)

    def verify(data: bytes) -> tuple[bool, list[str]]:
        code, out = _run_cli(["verify", path])
        result = json.loads(out)
        return code == 0 and result["ok"], result["problems"]

    return Op(name, decide, verify, _expect_check(expect, True),
              may_hit_fault=True, stage=stage)


def _split_mono_no_he(rng: random.Random) -> ChainMap:
    """A split mono A -> X (+) S^0: an h-cofibration that is never a
    homotopy equivalence, since the extra S^0 is not hit in homology."""
    i = random_split_mono(ZZ, rng, max_top=2, max_rank=3)
    _, injs, _ = direct_sum_complexes([i.target, sphere(ZZ, 0)])
    return injs[0].compose(i)


def _multiplication(d: int) -> ChainMap:
    R = unit_complex(ZZ)
    return ChainMap(R, R, [ModuleMap(R.module(0), R.module(0),
                                     Matrix(ZZ, 1, 1, [[d]]))])


def _nonqhm_product(d: int) -> ChainMap:
    z = zero_complex(ZZ)
    i = ChainMap.zero(z, unit_complex(ZZ))
    j = ChainMap.zero(z, concentrated(PresentedModule.cyclic(ZZ, d), 0))
    return pushout_product(i, j).map


def _lift_yes(rng: random.Random) -> dict:
    """left = A -> A (+) Q, right = B (+) D -> B with D contractible, so an
    h-cofibration against an acyclic h-fibration: a lift always exists."""
    A = random_complex(ZZ, rng, max_top=2, max_rank=2)
    Q = random_complex(ZZ, rng, max_top=2, max_rank=2)
    _, injs, projs = direct_sum_complexes([A, Q])
    B = random_complex(ZZ, rng, max_top=2, max_rank=2)
    E, _, eprojs = direct_sum_complexes([B, disk(ZZ, rng.randint(1, 2))])
    top = random_chain_map(A, E, rng, bound=1)
    bottom = eprojs[0].compose(top).compose(projs[0])
    return {"left": injs[0], "right": eprojs[0], "top": top,
            "bottom": bottom}


def _lift_no(d: int) -> dict:
    """0 -> R against multiplication by d on R with the identity below:
    a lift would be an inverse of d."""
    R, z = unit_complex(ZZ), zero_complex(ZZ)
    return {"left": ChainMap.zero(z, R), "right": _multiplication(d),
            "top": ChainMap.zero(z, R), "bottom": ChainMap.identity(R)}


def _iso(rng: random.Random) -> ChainMap:
    X = random_complex(ZZ, rng, max_top=2, max_rank=3)
    return twist_complex_with_iso(X, rng)[1]


# fixture maps run through the CLI, with the verdict bits known from the
# paper: the counterexample maps 0 -> Z/d are h- but not q-cofibrations,
# and the interval's end inclusions are homotopy equivalences
FIXTURE_MAPS = (
    ("interval.json", "e0", {"h": {"weak_equivalence": "yes"}}),
    ("interval.json", "e1", {"h": {"weak_equivalence": "yes"}}),
    ("nonqhm.json", "i", {}),
    ("nonqhm.json", "j2", {"h": {"cofibration": "yes"},
                           "q": {"cofibration": "no"}}),
    ("nonqhm.json", "j4", {"h": {"cofibration": "yes"},
                           "q": {"cofibration": "no"}}),
    ("nonqhm.json", "j9", {"h": {"cofibration": "yes"},
                           "q": {"cofibration": "no"}}),
    ("zmod6_projective.json", "p", {}),
    ("brutal_truncation.json", "q", {}),
)


def witness_roundtrip(seed: int, root: str, out_dir: str) -> Workload:
    """Decide, dump, read back and verify: classification reports in every
    flavor and lift reports, on inputs whose answers are known."""
    rng = random.Random(seed)
    pinned = random.Random(PINNED_SEED)
    J = chain_map_to_json
    specs: list[tuple] = []
    # the random-complex families are drawn three dozen times each, so that
    # a round's mix of input sizes, and with it the median, varies little
    # from seed to seed
    for n in range(36):
        f = J(_split_mono_no_he(rng))
        specs.append(("classify", f"split-mono[{n}]/h", "h", f,
                      {"cofibration": "yes", "weak_equivalence": "no"}))
        if n < 24:
            specs.append(("classify", f"split-mono[{n}]/bousfield",
                          "bousfield", f, {"cofibration": "yes",
                                           "weak_equivalence": "no"}))
    for n in range(36):
        f = J(_iso(rng))
        specs.append(("classify", f"iso[{n}]/q", "q", f,
                      {"cofibration": "yes", "fibration": "yes",
                       "weak_equivalence": "yes"}))
        specs.append(("classify", f"iso[{n}]/m", "m", f,
                      {"fibration": "yes", "weak_equivalence": "yes"}))
    for n in range(8):
        f = J(_multiplication(rng.randint(2, 9)))
        specs.append(("classify", f"times-d[{n}]/h", "h", f,
                      {"cofibration": "no", "weak_equivalence": "no"}))
        specs.append(("classify", f"times-d[{n}]/q", "q", f,
                      {"cofibration": "no"}))
    for n in range(6):
        f = J(_nonqhm_product(rng.choice((2, 3, 4, 5, 8, 9))))
        specs.append(("classify", f"nonqhm[{n}]/h", "h", f,
                      {"cofibration": "yes", "weak_equivalence": "no"}))
        specs.append(("classify", f"nonqhm[{n}]/q", "q", f,
                      {"cofibration": "no"}))
    for n in range(18):
        specs.append(("lift", f"lift-yes[{n}]",
                      {k: J(v) for k, v in _lift_yes(rng).items()}, True))
    for n in range(4):
        legs = _lift_no(rng.randint(2, 9))
        specs.append(("lift", f"lift-no[{n}]",
                      {k: J(v) for k, v in legs.items()}, False))
    # seed-independent isomorphisms in the flavors whose weak-equivalence
    # witness is a homotopy equivalence: verify rejects these (HE_FAULT)
    for n in range(2):
        f = J(_iso(pinned))
        for flavor in ("h", "bousfield"):
            specs.append(("pinned", f"pinned-iso[{n}]/{flavor}", flavor, f,
                          {"weak_equivalence": "yes"}))
    text = json.dumps(specs).encode()
    ops: list[Op] = []
    for spec in json.loads(text):
        if spec[0] == "lift":
            ops.append(_lift_op(spec[1], spec[2], spec[3]))
        else:
            ops.append(_classify_op(spec[1], spec[2], spec[3], spec[4],
                                    pinned=spec[0] == "pinned"))
    os.makedirs(out_dir, exist_ok=True)
    fixtures = os.path.join(root, "fixtures")
    for doc, name, known in FIXTURE_MAPS:
        path = os.path.join(fixtures, doc)
        for flavor in ("h", "q", "m"):
            ops.append(_cli_op(f"cli/{doc}/{name}/{flavor}",
                               ["classify", "--doc", path, "--map", name,
                                "--flavor", flavor], known.get(flavor, {}),
                               out_dir))
        ops.append(_cli_op(f"cli/{doc}/{name}/bousfield",
                           ["bousfield", "--doc", path, "--map", name],
                           {}, out_dir))
    return Workload("witness-roundtrip", ops, len(text))


WORKLOADS = ("smod-pushout", "suites", "witness-roundtrip")


def prepare(name: str, seed: int, root: str, out_dir: str) -> Workload:
    """Set up one of WORKLOADS from its seed."""
    read_fixtures(root)
    if name == "smod-pushout":
        return smod_pushout(seed)
    if name == "suites":
        return suites(seed)
    return witness_roundtrip(seed, root, out_dir)
