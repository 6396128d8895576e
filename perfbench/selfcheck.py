"""Quick self-check of the benchmark at a tiny size (about ten seconds).

    python3 perfbench/selfcheck.py [--seed N]

For every workload it runs a small slice of one round untraced and then
traced, runs the output checks and the Smith-form checks on the captured
calls, and confirms that the only failed operations are the known
homotopy-equivalence verify rejections.  It then counts the traced calls
once more under cProfile, to show that the wrappers see every call of
every traced function, and finally runs the benchmark in a directory that
holds only BENCHMARK.json and perfbench/, where it must fail without
printing a result.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import shutil
import subprocess
import sys

import run

# a slice of each round: two light replayed cases of each criterion-7
# suite, every 40th suites case, all of witness-roundtrip
TINY_SMOD = ("monoidal-smod[0]/Z", "monoidal-smod[4]/Z",
             "monoidal-smod-acyclic[0]/Z", "monoidal-smod-acyclic[3]/Z")
TINY = {
    "smod-pushout": lambda ops: [op for op in ops if op.name in TINY_SMOD],
    "suites": lambda ops: ops[::40],
    "witness-roundtrip": lambda ops: ops,
}


def check_workload(name: str, seed: int) -> list[str]:
    from layertrace import Tracer
    from workloads import HE_FAULT, prepare

    workload = prepare(name, seed, run.ROOT, run.OUT)
    try:
        workload.ops = TINY[name](workload.ops)
        sampler = run.speed.Sampler()
        record = run.Record(sampler)
        sampler.start()
        try:
            record.run_round(workload.ops, keep_outputs=True,
                             verify_reps=workload.verify_reps)
        finally:
            sampler.stop()
        run.timing_metrics(*record.scaled(), record.round_ends)
        tracer = Tracer()
        tracer.install()
        try:
            record.run_round(workload.ops, keep_outputs=False,
                             span=tracer.op_span, verify_reps=1)
        finally:
            tracer.uninstall()
        problems = run.check_outputs(workload, record, seed)
        checked, snf_problems = run.check_snf_samples(tracer.snf_samples)
        problems += snf_problems
        # every per-layer figure BENCHMARK.json declares can be computed
        tracer.metrics(list(run.declared_metrics(1)), 1, len(workload.ops),
                       1.0, 1.0)
        rejected = [op.name for op, (_, ok, p) in zip(workload.ops,
                                                      record.outputs)
                    if not ok and not (op.may_hit_fault and p == [HE_FAULT])]
        problems += [f"{op}: unexpected verify rejection" for op in rejected]
        if not checked:
            problems.append("no snf call was captured for checking")
        print(f"{name}: {len(workload.ops)} operations, {record.failed} "
              f"failed, {checked} snf calls checked, "
              f"{len(problems)} problems")
        return problems
    finally:
        workload.close()


def check_call_counts(seed: int) -> list[str]:
    """Wrapper call counts must equal cProfile's for the same functions."""
    from layertrace import LAYERS, Tracer
    from workloads import prepare

    problems = []
    for name in ("suites", "witness-roundtrip"):
        workload = prepare(name, seed, run.ROOT, run.OUT)
        try:
            workload.ops = TINY[name](workload.ops)[:30]
            tracer = Tracer()
            tracer.install()
            profile = cProfile.Profile()
            try:
                profile.enable()
                run.Record().run_round(workload.ops, keep_outputs=True,
                                       span=tracer.op_span, verify_reps=1)
                profile.disable()
            finally:
                tracer.uninstall()
        finally:
            workload.close()
        stats = pstats.Stats(profile).stats
        by_code = {}
        for (filename, line, func), (_, calls, *_rest) in stats.items():
            by_code[(os.path.abspath(filename), line, func)] = calls
        originals = tracer.originals
        for layer, targets in LAYERS.items():
            expected = 0
            for target in targets:
                code = originals[target].__code__
                expected += by_code.get((os.path.abspath(code.co_filename),
                                         code.co_firstlineno, code.co_name),
                                        0)
            seen = tracer.calls[tracer.layer_id[layer]]
            if seen != expected:
                problems.append(f"{name}: {layer} wrappers saw {seen} calls, "
                                f"cProfile counted {expected}")
        print(f"{name}: wrapper call counts match cProfile on "
              f"{len(LAYERS)} layers" if not problems else
              f"{name}: call counts differ")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail cleanly."""
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(run.HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(run.HERE, name),
                        os.path.join(bare, "perfbench"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    ok = result.returncode != 0 and b'"metrics"' not in result.stdout
    print(f"bare directory: exit {result.returncode}, "
          f"{'no result printed' if ok else 'UNEXPECTED OUTPUT'}")
    return [] if ok else ["benchmark did not fail in a bare directory"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    run._import_program()
    from workloads import WORKLOADS

    problems = []
    for name in WORKLOADS:
        problems += check_workload(name, args.seed)
    problems += check_call_counts(args.seed)
    problems += check_bare_directory()
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-check passed" if not problems else "self-check FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
