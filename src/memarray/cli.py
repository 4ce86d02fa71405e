"""Command-line entry point.

Three subcommands cover the full workflow:

  validate  check a storage plan's timing rules against a device and report
            each broken rule (optionally writing the compiled timeline);
  run       simulate a counting run (signal, noise floor, or cross-talk
            scan) and write a counts CSV plus a reproducibility manifest;
  analyze   turn counts CSVs into per-mode statistics, cumulative series,
            network projections, or the cross-talk matrix.

Exit codes: 0 success, 1 domain violation (a plan that breaks a timing
rule, mismatched mode sets), 2 usage, configuration-file or output-path
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from itertools import accumulate
from pathlib import Path

from . import __version__
from .analysis import (
    SNR_DEFINITIONS,
    crosstalk_matrix,
    per_mode_stats,
    project_cells,
)
from .defaults import (
    NOISE_MODELS,
    PLANS,
    default_device_path,
    default_noise_path,
    default_plan_path,
)
from .device import check_calibration_span
from .errors import CompilationError, ConfigError, ModeSetMismatch
from .io import (
    file_sha256,
    load_device,
    load_noise,
    load_plan,
    read_counts_csv,
    write_counts_csv,
    write_crosstalk_csvs,
    write_cumulative_csv,
    write_manifest,
    write_mode_stats_csv,
    write_projections_csv,
    write_timeline_csv,
)
from .sequence import check_plan, compile_plan, trial_duration
from .simulate import ENGINE, RunKind, run_crosstalk_scan, run_trials


def _int_at_least(low: int):
    """An argument type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _resolve_plan(value: str) -> Path:
    return default_plan_path(value) if value in PLANS else Path(value)


def _resolve_noise(value: str) -> Path:
    return default_noise_path(value) if value in NOISE_MODELS else Path(value)


def _resolve_device(value: str) -> Path:
    return default_device_path() if value == "10cell" else Path(value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then kept:
    building one costs more than the work of a short call.  Parsing leaves
    no state in it; every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="memarray",
        description="Multiplexed quantum-memory array: timing validation, "
                    "counting simulation, and statistics.")
    parser.add_argument("--version", action="version",
                        version=f"memarray {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--plan", required=True, type=_resolve_plan,
                        help=f"plan file, or one of {'/'.join(PLANS)}")
    common.add_argument("--device", default="10cell", type=_resolve_device,
                        help="device file (default: the shipped ten-cell array)")

    p_val = sub.add_parser("validate", parents=[common],
                           help="compile a plan and check every timing rule")
    p_val.add_argument("--timeline", type=Path, default=None,
                       help="also write the compiled timeline CSV here")
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", parents=[common],
                           help="simulate a counting run and write counts + manifest")
    p_run.add_argument("--noise", required=True, type=_resolve_noise,
                       help=f"noise file, or one of {'/'.join(NOISE_MODELS)}")
    p_run.add_argument("--trials", required=True, type=_int_at_least(1),
                       help="number of storage trials")
    p_run.add_argument("--seed", default=0, type=_int_at_least(0),
                       help="random seed (default 0)")
    p_run.add_argument("--mode", default="signal",
                       choices=["signal", "noise", "crosstalk"],
                       help="run kind (default signal)")
    p_run.add_argument("--out-dir", default=Path("."), type=Path,
                       help="output directory (default .)")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze",
                          help="derive statistics CSVs from counts CSVs")
    p_an.add_argument("--signal", required=True, type=Path,
                      help="counts CSV of the signal run or cross-talk scan")
    p_an.add_argument("--noise", required=True, type=Path,
                      help="counts CSV of the matching no-input run")
    p_an.add_argument("--plan", type=_resolve_plan, default=None,
                      help="plan file (required unless the input is a scan)")
    p_an.add_argument("--device", type=_resolve_device, default=None,
                      help="device file (required unless the input is a scan)")
    p_an.add_argument("--snr-definition", default="ratio",
                      choices=list(SNR_DEFINITIONS),
                      help="ratio: counts over noise; excess: subtract one")
    p_an.add_argument("--out-dir", default=Path("."), type=Path,
                      help="output directory (default .)")
    p_an.set_defaults(func=cmd_analyze)
    return parser


# --------------------------------------------------------------------------
# subcommands


def _load_plan_and_device(args):
    """Load ``--plan`` and ``--device``, refusing a plan that names a cell
    the device does not have."""
    plan = load_plan(args.plan)
    device = load_device(args.device)
    missing = [c for c in plan.cell_order if c not in device.cell_ids]
    if missing:
        raise ConfigError(f"plan names cells {missing} that the device "
                          f"does not have", path=args.plan)
    return plan, device


def cmd_validate(args) -> int:
    plan, _ = _load_plan_and_device(args)
    # compile_plan raises CompilationError for every plan that check_plan
    # refuses, and lays out the ones it accepts without a timing violation.
    events = compile_plan(plan)
    if args.timeline is not None:
        write_timeline_csv(args.timeline, events)
        print(f"timeline written to {args.timeline}")
    print(f"plan OK: {len(events)} events, "
          f"{trial_duration(events):.3f} us per trial, 0 violations")
    return 0


def cmd_run(args) -> int:
    started = time.monotonic()
    plan, device = _load_plan_and_device(args)
    noise, leak = load_noise(args.noise,
                             default_dark_rate=device.dark_count_rate)

    if args.mode == "crosstalk":
        if leak is None:
            raise ConfigError("cross-talk runs need a [leakage] matrix in "
                              "the noise file", path=args.noise)
        # The scan covers the plan's cells, one input pulse each.
        if plan.n_temporal != 1:
            raise ConfigError(f"cross-talk scans use a single input pulse "
                              f"per trial; got n_temporal={plan.n_temporal}",
                              path=args.plan)
        missing = [c for c in plan.cell_order if c not in leak.cell_ids]
        if missing:
            raise ConfigError(f"[leakage] has no row for plan cells "
                              f"{missing}", path=args.noise)
    check_plan(plan)  # timing violations first, as validate reports them
    for cell in plan.cell_order:
        try:
            check_calibration_span(device.cell(cell), plan.tau)
        except ConfigError as exc:
            raise ConfigError(f"{exc} of {args.device}",
                              path=args.plan) from None

    if args.mode == "crosstalk":
        result = run_crosstalk_scan(device, leak, noise, plan,
                                    n_trials=args.trials, seed=args.seed)
    else:
        result = run_trials(plan, device, noise, n_trials=args.trials,
                            seed=args.seed,
                            with_input=(args.mode == "signal"))

    args.out_dir.mkdir(parents=True, exist_ok=True)
    counts_path = write_counts_csv(args.out_dir / f"counts_{args.mode}.csv",
                                   result)
    manifest_path = args.out_dir / f"manifest_{args.mode}.json"
    write_manifest(manifest_path, {
        "tool": "memarray",
        "version": __version__,
        "command": "run",
        "mode": args.mode,
        "seed": args.seed,
        "trials": args.trials,
        "engine": ENGINE,
        "inputs": {
            "plan": {"path": args.plan, "sha256": file_sha256(args.plan)},
            "device": {"path": args.device,
                       "sha256": file_sha256(args.device)},
            "noise": {"path": args.noise, "sha256": file_sha256(args.noise)},
        },
        "resolved": {"plan": plan, "device": device, "noise": noise,
                     "leakage": leak},
        "outputs": {counts_path.name: file_sha256(counts_path)},
        "duration_seconds": round(time.monotonic() - started, 3),
    })
    print(f"wrote {counts_path} ({len(result.counts)} rows) and "
          f"{manifest_path}")
    return 0


def _read_noise_run(path: Path):
    """Read the counts CSV given as ``--noise``: it must be a no-input run."""
    counts = read_counts_csv(path)
    if counts.kind is not RunKind.NOISE:
        raise ConfigError(f"--noise needs a noise (no-input) run, but this "
                          f"file holds a {counts.kind.value} run", path=path)
    return counts


def _analyze_scan(args, scan) -> int:
    try:
        matrix = crosstalk_matrix(scan, _read_noise_run(args.noise))
    except ModeSetMismatch as exc:
        # crosstalk_matrix checks the scan for every pair of its cells, then
        # the noise run for one window per scan cell: name the file at fault.
        exc.path = args.signal if exc.sides[1] == "scan" else args.noise
        raise
    args.out_dir.mkdir(parents=True, exist_ok=True)
    paths = write_crosstalk_csvs(args.out_dir / "crosstalk_matrix.csv",
                                 args.out_dir / "crosstalk_matrix_err.csv",
                                 args.out_dir / "crosstalk_summary.csv",
                                 matrix)
    print(f"mean off-diagonal cross talk: {matrix.mean_offdiagonal:.4f}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_analyze(args) -> int:
    signal = read_counts_csv(args.signal)
    if signal.kind is RunKind.CROSSTALK:
        return _analyze_scan(args, signal)
    if signal.kind is not RunKind.SIGNAL:
        raise ConfigError(f"--signal needs a signal or crosstalk run, but "
                          f"this file holds a {signal.kind.value} run",
                          path=args.signal)

    if args.plan is None or args.device is None:
        raise ConfigError("signal/noise analysis needs --plan and --device "
                          "for mode ordering and network projections")
    plan, device = _load_plan_and_device(args)
    noise = _read_noise_run(args.noise)
    modes = plan.modes
    for run, path in ((signal, args.signal), (noise, args.noise)):
        ModeSetMismatch.check(modes, run.counts, sides=("plan", "counts"),
                              path=path)

    stats = per_mode_stats(signal, noise, args.snr_definition)

    # Running sums over the plan's mode order.  Poisson errors add in
    # quadrature, so the error series are running sums of variances.
    cum_s, cum_b, var_s, var_b = (list(accumulate(series)) for series in (
        [stats[m].c_signal for m in modes], [stats[m].c_noise for m in modes],
        [stats[m].err_signal ** 2 for m in modes],
        [stats[m].err_noise ** 2 for m in modes]))
    cum_s_err = [v ** 0.5 for v in var_s]
    cum_b_err = [v ** 0.5 for v in var_b]
    projections = project_cells(signal, noise, device, plan)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    paths = [
        write_mode_stats_csv(args.out_dir / "mode_stats.csv", stats),
        write_cumulative_csv(args.out_dir / "cumulative.csv", modes,
                             cum_s, cum_s_err, cum_b, cum_b_err),
        write_projections_csv(args.out_dir / "projections.csv", projections),
    ]
    finite = [s.snr for s in stats.values() if math.isfinite(s.snr)]
    mean_snr = sum(finite) / len(finite) if finite else float("inf")
    print(f"{len(modes)} modes: cumulative signal {cum_s[-1]:.4g}, "
          f"cumulative noise {cum_b[-1]:.4g}, mean SNR {mean_snr:.3g}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CompilationError as exc:
        for violation in exc.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 1
    except ModeSetMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # inputs fail as ConfigError: this is an output
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
