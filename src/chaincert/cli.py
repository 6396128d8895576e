"""Command-line front end: run operations on fixture documents.

Every command emits a machine-readable JSON report on stdout.  Exit codes:
0 = the operation ran and any claim it makes is certified, 1 = a claim was
refuted (with a counterexample in the report), 2 = usage or parse error.

Each call uses the argument parser of the command it names and no
other; without a known command name first (no arguments, ``--help``, a
misspelt command) it uses the parser of every command, so the overview
and the error list them all.  Both come from the one table `COMMANDS`.
A parser is built on first use and kept for the life of the process, so
repeated in-process calls of `main` (tests, library callers) build each
parser once; a one-shot ``python -m chaincert.cli`` builds one either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .certify import CertifyConfig, SUITES, run_suite
from .chains.cochain import dualize_map
from .chains.complexes import LiftingProblem
from .chains.homcx import hom_complex, hom_size_problem
from .chains.tensor import tensor_complex, tensor_size_problem
from .chains.truncate import good_truncation, window_of_complex
from .exact.rings import RingSpec, ZZ, Zmod
from .io.document import (DocumentError, complex_to_json, map_to_json,
                          parse_document, simplicial_to_json)
from .io.reports import (classification_report, dump, lift_report,
                         verify_report)
from .models.classify import check_data, classify
from .models.lifting import solve_lifting
from .simplicial.cotensor import ez_aw_dual_ops, through_problem
from .simplicial.ez_aw import aw, ez, find_ez_aw_homotopy
from .simplicial.module import (cap_problem, degreewise_tensor, gamma,
                                normalize, tensor_problem)

USAGE_ERROR = 2


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"{path}: invalid JSON: {exc}")


def _load_document(path: str):
    try:
        return parse_document(_read_json(path))
    except DocumentError as exc:
        _fail(str(exc))


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _emit(report: dict, out: str | None) -> None:
    text = dump(report)
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def _ring_from_flag(value: str) -> RingSpec:
    """The ring ``--ring`` names: 'z' or 'z/<m>' with m >= 2, in either
    case."""
    text = value.lower()
    if text == "z":
        return ZZ
    modulus = text[2:]
    if text.startswith("z/") and modulus.isdecimal() and int(modulus) >= 2:
        return Zmod(int(modulus))
    _fail(f"--ring: unknown ring {value!r}; use 'z' or 'z/<m>' with m >= 2")


def cmd_validate(args) -> int:
    doc = _load_document(args.document)
    report = {"kind": "validate", "ok": True,
              "objects": sorted(doc.objects), "maps": sorted(doc.maps)}
    _emit(report, args.out)
    return 0


def cmd_classify(args) -> int:
    doc = _load_document(args.document)
    f = doc.map(args.map).value
    try:
        check_data(f, args.flavor)
    except ValueError as exc:
        _fail(f"maps.{args.map}: {exc}")
    _emit(classification_report(f, args.flavor, classify(f, args.flavor)),
          args.out)
    return 0


def cmd_lift(args) -> int:
    doc = _load_document(args.document)
    legs = {}
    for leg in ("left", "right", "top", "bottom"):
        entry = doc.map(getattr(args, leg))
        if entry.kind == "cochain":
            _fail(f"maps.{entry.name}: lifting needs chain data")
        legs[leg] = entry.value
    try:
        problem = LiftingProblem(legs["left"], legs["right"],
                                 legs["top"], legs["bottom"])
    except ValueError as exc:
        _fail(str(exc))
    outcome = solve_lifting(problem, args.flavor, args.acyclic_leg)
    _emit(lift_report(problem, outcome, args.flavor), args.out)
    return 0 if outcome.found else 1


def cmd_tensor(args) -> int:
    doc = _load_document(args.document)
    X = doc.chain_complex(args.x)
    Y = doc.chain_complex(args.y)
    problem = tensor_size_problem(X, Y)
    if problem:
        _fail(f"--x/--y: {problem}")
    T = tensor_complex(X, Y)
    _emit({"kind": "tensor", "ring": doc.ring.to_json(),
           "result": complex_to_json(T)}, args.out)
    return 0


def cmd_hom(args) -> int:
    doc = _load_document(args.document)
    X = doc.chain_complex(args.x)
    Y = doc.chain_complex(args.y)
    problem = hom_size_problem(X, Y)
    if problem:
        _fail(f"--x/--y: {problem}")
    H = hom_complex(X, Y)
    _emit({"kind": "hom", "ring": doc.ring.to_json(),
           "result": complex_to_json(H)}, args.out)
    return 0


def cmd_truncate(args) -> int:
    doc = _load_document(args.document)
    obj = doc.objects.get(args.object)
    if obj is None:
        _fail(f"objects.{args.object}: no such object")
    kind = doc.object_kinds[args.object]
    if kind == "window_complex":
        window = obj
    elif kind == "chain_complex":
        window = window_of_complex(obj)
    else:
        _fail(f"objects.{args.object}: cannot truncate a {kind}")
    trunc = good_truncation(window)
    _emit({"kind": "truncate", "ring": doc.ring.to_json(),
           "result": complex_to_json(trunc.complex)}, args.out)
    return 0


def cmd_normalize(args) -> int:
    doc = _load_document(args.document)
    A = doc.simplicial(args.object)
    N = normalize(A)
    _emit({"kind": "normalize", "ring": doc.ring.to_json(),
           "result": complex_to_json(N)}, args.out)
    return 0


def cmd_denormalize(args) -> int:
    doc = _load_document(args.document)
    C = doc.chain_complex(args.complex)
    problem = None if args.cap is None else cap_problem(C, args.cap)
    if problem:
        _fail(f"--cap: {problem}")
    A = gamma(C, cap=args.cap)
    level_ranks = [A.level_rank(n) for n in range(A.cap + 1)]
    _emit({"kind": "denormalize", "ring": doc.ring.to_json(),
           "result": simplicial_to_json(A), "level_ranks": level_ranks},
          args.out)
    return 0


def cmd_ez_aw(args) -> int:
    doc = _load_document(args.document)
    A = doc.simplicial(args.a)
    B = doc.simplicial(args.b)
    problem = tensor_problem(A, B)
    if problem:
        _fail(f"--a/--b: {problem}")
    problem = through_problem(A, B, args.through) if args.dual else None
    if problem:
        _fail(f"--through: {problem}")
    T = degreewise_tensor(A, B)
    E = ez(A, B, T)
    W = aw(A, B, T)
    # raises CertificateError unless AW o EZ = id
    homotopy = find_ez_aw_homotopy(A, B, T, E, W)
    report = {
        "kind": "ez_aw",
        "ring": doc.ring.to_json(),
        "aw_ez_identity": True,
        "ez": map_to_json(E),
        "aw": map_to_json(W),
        "homotopy": map_to_json(homotopy),
        "homotopy_degrees": list(range(T.normalized.top + 1)),
    }
    if args.dual:
        dual = ez_aw_dual_ops(A, B, through=args.through)
        report["dual"] = {
            "ez_star": map_to_json(dual.ez_star),
            "aw_star": map_to_json(dual.aw_star),
            "homotopy": map_to_json(dual.homotopy),
        }
    _emit(report, args.out)
    return 0


def cmd_bousfield(args) -> int:
    doc = _load_document(args.document)
    entry = doc.map(args.map)
    g = entry.value if entry.kind == "cochain" else dualize_map(entry.value)
    _emit(classification_report(g, "bousfield", classify(g, "bousfield")),
          args.out)
    return 0


def cmd_certify(args) -> int:
    config = CertifyConfig(args.suite, seed=args.seed, cases=args.cases,
                           max_rank=args.max_rank,
                           ring=_ring_from_flag(args.ring),
                           shrink=not args.no_shrink)
    report = run_suite(config)
    _emit(report, args.out)
    return 0 if report["ok"] else 1


def cmd_verify(args) -> int:
    ok, problems = verify_report(_read_json(args.witness))
    _emit({"kind": "verify", "ok": ok, "problems": problems}, args.out)
    return 0 if ok else 1


def _doc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--doc", dest="document", required=True,
                   help="fixture document (JSON)")
    p.add_argument("--out", help="also write the report to this file")


def _validate_args(p):
    p.add_argument("document")
    p.add_argument("--out")


def _map_args(p):
    _doc_args(p)
    p.add_argument("--map", required=True)


def _classify_args(p):
    _map_args(p)
    p.add_argument("--flavor", choices=["h", "q", "m", "bousfield"],
                   default="h")


def _lift_args(p):
    _doc_args(p)
    for leg in ("left", "right", "top", "bottom"):
        p.add_argument(f"--{leg}", required=True)
    p.add_argument("--flavor", choices=["h", "q", "m"], default="h")
    p.add_argument("--acyclic-leg", choices=["left", "right"], default="left")


def _pair_args(p):
    _doc_args(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)


def _object_args(p):
    _doc_args(p)
    p.add_argument("--object", required=True)


def _denormalize_args(p):
    _doc_args(p)
    p.add_argument("--complex", required=True)
    p.add_argument("--cap", type=int, default=None)


def _ez_aw_args(p):
    _doc_args(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--dual", action="store_true",
                   help="also compute the cotensor-side comparison")
    p.add_argument("--through", type=int, default=3,
                   help="degree bound for the dual comparison")


def _certify_args(p):
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--ring", default="z", help="'z' or 'z/<m>'")
    p.add_argument("--no-shrink", action="store_true")
    p.add_argument("--out")


def _verify_args(p):
    p.add_argument("witness", help="witness report (JSON)")
    p.add_argument("--out")


# name -> (handler, help, adds the command's arguments), in help order
COMMANDS = {
    "validate": (cmd_validate, "parse and validate a document",
                 _validate_args),
    "classify": (cmd_classify, "classify a map in a model structure",
                 _classify_args),
    "lift": (cmd_lift, "solve a lifting square", _lift_args),
    "tensor": (cmd_tensor, "tensor product of two complexes", _pair_args),
    "hom": (cmd_hom, "the enriching hom complex", _pair_args),
    "truncate": (cmd_truncate, "good truncation of a window complex",
                 _object_args),
    "normalize": (cmd_normalize, "normalized complex from level data",
                  _object_args),
    "denormalize": (cmd_denormalize, "levels of the denormalization",
                    _denormalize_args),
    "ez-aw": (cmd_ez_aw, "shuffle and front-back comparison maps",
              _ez_aw_args),
    "bousfield": (cmd_bousfield, "classify in the dual structure",
                  _map_args),
    "certify": (cmd_certify, "run a randomized certification suite",
                _certify_args),
    "verify": (cmd_verify, "re-verify an emitted witness file", _verify_args),
}


@functools.lru_cache(maxsize=None)
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for every command, or for ``command`` alone.

    One parser per ``command`` is built and kept for the process: every
    caller gets the same object, so callers must not mutate it (add
    arguments, change defaults or prog).
    """
    parser = argparse.ArgumentParser(
        prog="chaincert",
        description="exact-arithmetic model-structure certification "
                    "for chain complexes and simplicial modules")
    # a parser for one command still names every command in the usage
    # line that its errors print
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(COMMANDS) if command else None)
    for name in [command] if command else COMMANDS:
        func, help_text, add_arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the parser of the named command alone, built once per process:
    # building every command's parser costs about as much as running a
    # quick command
    named = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(named).parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
