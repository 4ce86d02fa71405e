"""memarray benchmark: drives the ``memarray`` CLI in-process and measures it.

    python3 perfbench/run.py --workload storage-60mode --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One process, no worker pool: every CLI call runs through
``memarray.cli.main(argv)`` with its output captured.  Each workload is a
closed loop of passes that ends on a whole cycle once ``--seconds`` have
passed; the passes' own seeds are derived from ``--seed``.

Host times are taken with ``time.perf_counter`` and then scaled to a quiet
host: the speed of a shared sandbox drifts by a third within seconds, so a
fixed calibration mix of interpreter and small-numpy work runs before and
after every timed pass, and the pass's seconds are multiplied by
``CALIBRATION_S`` over the mean of the two calibration times.  On a host
running the calibration mix in ``CALIBRATION_S`` the figures are plain host
seconds; the raw host median is printed beside them.

``--trace 0`` reports the end-to-end metrics (tracing off).
``--trace 1`` measures the same passes untraced and then traced, and reports
per-layer self times and counts from the spans.  Either way every call's
outputs are checked, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
# Host seconds of one ``calibrate()`` on a quiet 2-vCPU Xeon sandbox
# (Python 3.11, numpy 2.4), between the fastest and the 10th percentile of
# 150 calls.
CALIBRATION_S = 0.0090


def _calibration_mix() -> None:
    import numpy as np
    table = {}
    acc = 0.0
    for i in range(30000):
        table[i & 1023] = acc
        acc += (i * 0.5) % 7.0
    lam = np.full(64, 1e-3)
    for i in range(120):
        np.random.default_rng([7, i]).poisson(lam)


def calibrate() -> float:
    """Mean host seconds of the calibration mix over eight runs."""
    start = time.perf_counter()
    for _ in range(8):
        _calibration_mix()
    return (time.perf_counter() - start) / 8


def scaled(measure):
    """Run ``measure()`` between two calibrations: (its result, the factor
    that scales host seconds measured meanwhile to a quiet host)."""
    before = calibrate()
    result = measure()
    return result, CALIBRATION_S / ((before + calibrate()) / 2)


def load_program():
    """Import the checkout's ``memarray``; None when the checkout has none."""
    if not (SRC / "memarray" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import memarray.cli
    import memarray.defaults
    import memarray.io
    import memarray.simulate
    if not Path(memarray.__file__).resolve().is_relative_to(SRC):
        return None
    return memarray


def call(cli, argv, tracer=None):
    """One CLI call: (exit code, captured output, host seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
        except Exception:  # a traceback is a failed op, not a dead benchmark
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


class Runner:
    def __init__(self, memarray, workload):
        self.m = memarray
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]

    def run_pass(self, p: int, tracer=None) -> dict:
        """Run pass ``p``, then check it.  Only the CLI calls are timed."""
        shutil.rmtree(self.workload.out, ignore_errors=True)
        ops = self.workload.ops(p)
        with (tracer.recording(p, self.modules()) if tracer
              else contextlib.nullcontext()):
            results = [call(self.m.cli, op.argv, tracer) for op in ops]
        for op, (code, out, _) in zip(ops, results):
            if code != op.exit_code:
                self.record(op.name, [f"exit {code}, expected {op.exit_code}: "
                                      f"{out.strip()[-300:]}"])
                continue
            try:
                problems = op.check(out) if op.check else []
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            self.record(op.name, problems)
        return {"seconds": sum(r[2] for r in results),
                "mode_trials": sum(op.mode_trials for op in ops)}

    def loop(self, seconds: float = 0.0, passes: int | None = None,
             tracer=None) -> list[dict]:
        """Closed loop: ``passes`` passes, or whole cycles (at least one)
        until ``seconds`` have passed.  An untraced loop starts with one
        unrecorded warm-up pass."""
        if tracer is None:
            self.run_pass(0)
        records = []
        start = time.perf_counter()
        cycle = self.workload.cycle
        while (len(records) < passes if passes is not None else
               (time.perf_counter() - start < seconds
                or len(records) % cycle or not records)):
            record, scale = scaled(lambda: self.run_pass(len(records), tracer))
            record["host_seconds"] = record["seconds"]
            record["seconds"] *= scale
            record["scale"] = scale
            records.append(record)
        return records

    def modules(self) -> dict:
        return {"memarray.cli": self.m.cli, "memarray.io": self.m.io,
                "memarray.simulate": self.m.simulate}

    def final_checks(self) -> None:
        """Byte-identical rerun of the first checked run, then every kind's
        window totals pooled over its first ``pooled_runs`` passes."""
        from checks import poisson_check
        w = self.workload
        if w.reference is not None:
            argv, name, reference = w.reference
            rerun = w.work / "rerun"
            argv = argv[:argv.index("--out-dir")] + ["--out-dir", str(rerun)]
            code, out, _ = call(self.m.cli, argv)
            same = (code == 0 and (rerun / name).is_file()
                    and (rerun / name).read_bytes() == reference)
            self.record("rerun", [] if same else [f"rerun of {name} differs"])
        for kind, pool in sorted(w.pools.items()):
            observed, expected = {}, {}
            for p, (obs, exp) in pool.items():
                observed.update({(p, k): v for k, v in obs.items()})
                expected.update({(p, k): v for k, v in exp.items()})
            groups = {(p, k): (p, k[0]) for (p, k) in expected}
            self.record(f"pooled-{kind}",
                        poisson_check(observed, expected, groups))


# --------------------------------------------------------------------------
# metrics


def median_setup_seconds(args) -> float:
    """Median time, scaled to a quiet host, of fresh interpreters that
    import ``memarray.cli`` and generate the workload's inputs, then exit."""
    def spawn() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only"], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    times = []
    for _ in range(SETUP_REPEATS):
        seconds, scale = scaled(spawn)
        times.append(seconds * scale)
    return statistics.median(times)


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(records, setup_s, cycle) -> dict:
    """Throughput is taken per whole cycle of passes, so that every rate
    covers the same mix of inputs, and reported as the median cycle."""
    cycles = [records[i:i + cycle] for i in range(0, len(records), cycle)]
    rates = [sum(r["mode_trials"] for r in c) / sum(r["seconds"] for r in c)
             for c in cycles]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s_p50": (statistics.median(r["seconds"] for r in records), "s"),
        "mode_trials_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


LAYER_TIMES = ["simulate.draw", "simulate.expectations", "sequence.validate",
               "sequence.compile", "io.load", "io.counts_write",
               "io.counts_read", "io.stats_write", "io.manifest",
               "analysis.stats", "cli.main"]


def per_layer(tracer, untraced, traced, baseline) -> dict:
    n = len(traced)
    passes = range(n)
    selfs = tracer.self_times()

    def per_pass(name):
        return sum(selfs.get((p, name), 0.0) * traced[p]["scale"]
                   for p in passes) / n

    def counter(name):
        return sum(tracer.counters.get((p, name), 0) for p in passes)

    metrics = {}
    for layer in LAYER_TIMES:
        key = "cli.self_s" if layer == "cli.main" else f"{layer}_s"
        metrics[key] = (per_pass(layer), "s")
    mode_trials = sum(r["mode_trials"] for r in traced)
    draw_total = per_pass("simulate.draw") * n
    plans = counter("sequence.plans")
    traced_p50 = statistics.median(r["seconds"] for r in traced)
    metrics.update({
        "simulate.draw_ns_per_mode_trial": (draw_total / mode_trials * 1e9, "ns"),
        "simulate.mode_trials": (mode_trials / n, "count"),
        "sequence.events": (counter("sequence.events") / n, "count"),
        "sequence.violations": (counter("sequence.violations") / n, "count"),
        "sequence.compiles_per_plan": (
            counter("sequence.compiles") / plans if plans else 0.0, "ratio"),
        "io.bytes_written": (counter("io.bytes_written") / n, "B"),
        "trace.pass_s_p50": (traced_p50, "s"),
        "trace.overhead_s": (
            traced_p50 - statistics.median(r["seconds"] for r in untraced), "s"),
        "trace.unattributed_s": (
            sum(r["seconds"] for r in traced) / n
            - sum(per_pass(layer) for layer in LAYER_TIMES), "s"),
    })
    metrics.update(baseline)
    return metrics


BASELINE_PLANS = (("60mode", 141), ("250mode", 521))
BASELINE_REPEATS = 3
BASELINE_TRIALS = 2000


def baseline_probe(runner, tracer) -> dict:
    """Re-measure the ROADMAP re-anchor figures from spans: engine self time
    per trial and ``validate_timeline`` self time on the shipped plans."""
    cli = runner.m.cli
    out = {}
    for plan, events in BASELINE_PLANS:
        engine, validate = [], []
        for r in range(BASELINE_REPEATS):
            for kind, argv in (
                    ("validate", ["validate", "--plan", plan]),
                    ("run", ["run", "--plan", plan, "--noise", "storage",
                             "--trials", str(BASELINE_TRIALS), "--seed", str(r),
                             "--out-dir", str(runner.workload.work / "baseline")])):
                pass_id = f"baseline/{plan}/{kind}/{r}"
                with tracer.recording(pass_id, runner.modules()):
                    (code, text, _), scale = scaled(
                        lambda: call(cli, argv, tracer))
                runner.record(f"baseline-{kind}", [] if code == 0 else
                              [f"exit {code}: {text.strip()[-300:]}"])
                selfs = tracer.self_times()
                if kind == "run":
                    engine.append(selfs.get((pass_id, "simulate.draw"), 0.0)
                                  * scale / BASELINE_TRIALS * 1e6)
                else:
                    validate.append(selfs.get((pass_id, "sequence.validate"), 0.0)
                                    * scale)
        out[f"baseline.engine_us_per_trial_{plan}"] = (
            statistics.median(engine), "us")
        out[f"baseline.validate_s_{events}ev"] = (statistics.median(validate), "s")
    return out


def context(memarray, args) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "memarray": memarray.__version__}


# --------------------------------------------------------------------------


def parse_args(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    memarray = load_program()
    if memarray is None:
        print(f"error: no memarray sources under {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS, Model

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work, Model(memarray))
    try:
        workload.setup()
        if args.setup_only:
            return 0
        runner = Runner(memarray, workload)
        if args.trace == 0:
            setup_s = median_setup_seconds(args)
            records = runner.loop(seconds=args.seconds)
            metrics = end_to_end(records, setup_s, workload.cycle)
            samples = records
        else:
            tracer = Tracer()
            untraced = runner.loop(seconds=args.seconds / 2)
            traced = runner.loop(passes=len(untraced), tracer=tracer)
            metrics = per_layer(tracer, untraced, traced,
                                baseline_probe(runner, tracer))
            samples = traced
            tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
            if tracer.skipped:
                print(f"not traced (absent): {', '.join(tracer.skipped)}")
        runner.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "context": context(memarray, args), "passes": len(samples),
        "host_pass_s_p50": statistics.median(r["host_seconds"] for r in samples),
        "calibration_scale_p50": statistics.median(r["scale"] for r in samples),
        "problems": runner.problems[:20]}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:34s} {value:14.6g} {unit:6s} "
              f"(n={len(samples)} passes)")
    print(f"{args.workload:15s} ops attempted {runner.attempted}, "
          f"failed {runner.failed}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
