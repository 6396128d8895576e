"""Benchmark of chaincert: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a closed loop: one
caller in one process and thread issues the next operation when the
previous one returns, in whole rounds of a fixed operation list, until
`--seconds` have passed.  With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics, timings scaled to a
reference machine speed (speed.py); with `--trace 1`
untraced and traced rounds alternate until the untraced ones add up to half
of `--seconds`, and the object holds the per-layer metrics and the tracing
overhead.  Metric names and units come from BENCHMARK.json.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPS = 9


def _import_program() -> None:
    """Put the checkout's sources first on the path, or stop."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chaincert", "__init__.py")):
        sys.exit(f"perfbench: no chaincert sources under {src}")
    if not os.path.isdir(os.path.join(ROOT, "fixtures")):
        sys.exit(f"perfbench: no fixtures under {ROOT}")
    sys.path[:0] = [src, HERE]
    import chaincert

    if not os.path.abspath(chaincert.__file__).startswith(src):
        sys.exit(f"perfbench: imported chaincert from {chaincert.__file__}")


def clear_caches() -> None:
    """Empty the package's process-wide memo caches, so every round starts
    in the state a fresh CLI call starts in."""
    for name, module in list(sys.modules.items()):
        if name.startswith("chaincert") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Record:
    """Timings and outcomes of the operations of one or more rounds.

    `attempted` and `failed` count the first round: every later round runs
    the same operations and must reproduce its outputs, so the counts are
    fixed by the seed whatever the number of rounds that fit in a run.
    """

    def __init__(self, sampler=None) -> None:
        self.sampler = sampler
        self.decide_s: list[float] = []
        self.verify_s: list[float] = []
        # (start, end) of each decide half and of each verify half's runs
        self.decide_spans: list[tuple[float, float]] = []
        self.verify_spans: list[tuple[float, float]] = []
        self.round_ends: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.outputs: list[tuple[bytes, bool, list[str]]] = []
        self.mismatched: list[str] = []

    def _paused(self) -> float:
        return self.sampler.paused_s if self.sampler is not None else 0.0

    def run_round(self, ops, keep_outputs: bool, span=None,
                  verify_reps: int = 1) -> float:
        """Run every operation once; returns the round's wall time."""
        clear_caches()
        started = time.perf_counter()
        for index, op in enumerate(ops):
            with span() if span is not None else contextlib.nullcontext():
                p0 = self._paused()
                t0 = time.perf_counter()
                data = op.decide()
                t1 = time.perf_counter()
                decided = t1 - t0 - (self._paused() - p0)
                if op.stage is not None:
                    op.stage(data)
                # the verify half runs verify_reps times and its median
                # counts: a single read-back of a small report takes
                # microseconds, and one sample of that moves with the cache
                # state the decide half left behind
                verified = []
                t2 = time.perf_counter()
                for _ in range(verify_reps):
                    p1 = self._paused()
                    t3 = time.perf_counter()
                    ok, problems = op.verify(data)
                    verified.append(time.perf_counter() - t3
                                    - (self._paused() - p1))
            self.decide_s.append(decided)
            self.verify_s.append(statistics.median(verified))
            self.decide_spans.append((t0, t1))
            self.verify_spans.append((t2, time.perf_counter()))
            if keep_outputs:
                self.attempted += 1
                self.failed += not ok
                self.outputs.append((data, ok, problems))
            elif self.outputs and self.outputs[index] != (data, ok, problems):
                self.mismatched.append(op.name)
        self.round_ends.append(len(self.decide_s))
        return time.perf_counter() - started

    def scaled(self) -> tuple[list[float], list[float]]:
        """Decide and verify times at the reference speed (speed.py), each
        half scaled by the speed around it: a verify half of microseconds
        may follow a decide half of seconds."""
        scale = self.sampler.scale
        return ([t * scale(*span)
                 for t, span in zip(self.decide_s, self.decide_spans)],
                [t * scale(*span)
                 for t, span in zip(self.verify_s, self.verify_spans)])


def check_outputs(workload, record: Record, seed: int) -> list[str]:
    """Independent checks of the first round's outputs; returns problems."""
    from checks import CheckFailed
    from workloads import determinism_check

    problems = [f"{name}: output differs between rounds"
                for name in record.mismatched]
    for op, (data, ok, verify_problems) in zip(workload.ops, record.outputs):
        try:
            op.check(data, ok, verify_problems)
        except CheckFailed as exc:
            problems.append(f"{op.name}: {exc}")
    try:
        determinism_check(seed)
    except CheckFailed as exc:
        problems.append(str(exc))
    return problems


def check_snf_samples(samples) -> tuple[int, list[str]]:
    from checks import CheckFailed, check_snf

    problems = []
    for m, result in samples:
        modulus = m.ring.modulus if m.ring.is_modular else None
        try:
            check_snf(*([list(r) for r in x.data]
                        for x in (m, result.U, result.D, result.V)),
                      modulus, reference_factors=max(m.rows, m.cols) <= 12)
        except CheckFailed as exc:
            problems.append(f"snf {m.rows}x{m.cols}: {exc}")
    return len(samples), problems


def measure_setup(workload: str, seed: int, reps: int) -> list[float]:
    """Times from a fresh interpreter's start to the point where it could
    issue its first operation, one per interpreter, unscaled and at the
    reference speed; each child samples the speed while it sets up."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.abspath(__file__),
                               "--setup-only", "--workload", workload,
                               "--seed", str(seed)],
                              stdout=subprocess.PIPE, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=60)
        word, _, numbers = line.partition(b" ")
        if word != b"ready" or code != 0:
            sys.exit(f"perfbench: set-up of {workload} failed (exit {code})")
        paused_s, probe_s = map(float, numbers.split())
        samples.append((elapsed,
                        (elapsed - paused_s) * speed.REFERENCE_S / probe_s))
    return samples


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(decide_s: list[float], verify_s: list[float],
                   round_ends: list[int]) -> dict[str, float]:
    # cases_per_s is the median over rounds, so that a slow spell in one
    # round does not move it
    rates = [(end - begin) / sum(decide_s[begin:end] + verify_s[begin:end])
             for begin, end in zip([0] + round_ends, round_ends)]
    return {
        "cases_per_s": statistics.median(rates),
        "case_p50_ms": statistics.median(decide_s) * 1e3,
        "case_p90_ms": percentile(decide_s, 90) * 1e3,
        "verify_p50_ms": statistics.median(verify_s) * 1e3,
    }


def run_untraced(workload, seed: int, seconds: float
                 ) -> tuple[dict, dict, Record, list[str]]:
    """Whole rounds until `seconds` have passed; returns the metrics at the
    reference speed and the same figures unscaled."""
    sampler = speed.Sampler()
    record = Record(sampler)
    gc.collect()
    sampler.start()
    try:
        started = time.perf_counter()
        peak_rss_mb = 0.0
        while time.perf_counter() - started < seconds:
            record.run_round(workload.ops, keep_outputs=not record.outputs,
                             verify_reps=workload.verify_reps)
            if not peak_rss_mb:
                # after the first round: later rounds repeat the same work,
                # but the first round's kept outputs raise their baseline
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        sampler.stop()
    problems = check_outputs(workload, record, seed)
    metrics = {**timing_metrics(*record.scaled(), record.round_ends),
               "peak_rss_mb": peak_rss_mb}
    raw = timing_metrics(record.decide_s, record.verify_s, record.round_ends)
    raw["probe_p50_ms"] = statistics.median(sampler.probe_s) * 1e3
    return metrics, raw, record, problems


def run_traced(workload, seed: int, seconds: float, names: list[str]
               ) -> tuple[dict, dict, Record, list[str]]:
    """Untraced and traced rounds in turn, until the untraced ones add up to
    half of `seconds` (at least one pair); the per-layer figures are per
    round.  Taking the rounds in turn keeps a drift of the machine's speed
    out of the overhead."""
    from layertrace import Tracer

    record = Record()
    tracer = Tracer()
    gc.collect()
    # one verify per operation in both kinds of round, so that the spans
    # cover exactly the work the two wall times compare
    untraced_wall = traced_wall = 0.0
    rounds = 0
    while not rounds or untraced_wall < seconds / 2:
        untraced_wall += record.run_round(workload.ops,
                                          keep_outputs=not rounds,
                                          verify_reps=1)
        tracer.install()
        try:
            traced_wall += record.run_round(workload.ops, keep_outputs=False,
                                            span=tracer.op_span,
                                            verify_reps=1)
        finally:
            tracer.uninstall()
        rounds += 1
    tracer.report_bytes = sum(len(data) for data, _, _ in record.outputs)
    problems = check_outputs(workload, record, seed)
    checked, snf_problems = check_snf_samples(tracer.snf_samples)
    problems += snf_problems
    print(f"{rounds} untraced and {rounds} traced rounds; checked {checked} "
          f"captured snf calls")
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(
        OUT, f"{workload.name}-seed{seed}.spans.tsv.gz"))
    metrics = tracer.metrics(names, rounds, len(workload.ops),
                             untraced_wall, traced_wall)
    return metrics, {}, record, problems


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        sampler = speed.Sampler()
        sampler.start()
    _import_program()
    from workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    if args.setup_only:
        prepare(args.workload, args.seed, ROOT, OUT).close()
        sampler.stop()
        print(f"ready {sampler.paused_s} {sampler.mean_probe_s()}",
              flush=True)
        return 0
    units = declared_metrics(args.trace)

    # set-up samples are taken before and after the timed phase, so that a
    # slow spell of the machine at either end does not decide the median
    setup = [] if args.trace else measure_setup(args.workload, args.seed,
                                                SETUP_REPS // 2 + 1)
    workload = prepare(args.workload, args.seed, ROOT, OUT)
    try:
        if args.trace:
            metrics, raw, record, problems = run_traced(
                workload, args.seed, args.seconds, list(units))
        else:
            metrics, raw, record, problems = run_untraced(
                workload, args.seed, args.seconds)
    finally:
        workload.close()
    if not args.trace:
        setup += measure_setup(args.workload, args.seed, SETUP_REPS // 2)
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setup)
        raw["setup_s"] = statistics.median(elapsed for elapsed, _ in setup)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: computed metrics {sorted(metrics)} differ "
                 f"from those BENCHMARK.json declares {sorted(units)}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    print(f"workload {workload.name}: {len(workload.ops)} operations per "
          f"round, {workload.input_bytes} input bytes, "
          f"{len(record.decide_s)} operations timed, one round: "
          f"{record.attempted} attempted, {record.failed} failed")
    for name, unit in units.items():
        unscaled = (f"  (unscaled {raw[name]:.6f})" if name in raw else "")
        print(f"{name:32s} {metrics[name]:14.6f} {unit}{unscaled}")
    if "probe_p50_ms" in raw:
        print(f"{'probe median (ms)':32s} {raw['probe_p50_ms']:14.6f} "
              f"reference {speed.REFERENCE_S * 1e3:.6f}")
    print(json.dumps({
        "correct": not problems,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
