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
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import (PlanRuns, crosstalk_matrix, cumulative_counts,
                       per_mode_stats, project_cells)
from .defaults import (
    NOISE_MODELS,
    PLANS,
    default_device_path,
    default_noise_path,
    default_plan_path,
)
from .errors import CompilationError, ConfigError, ModeSetMismatch
from .io import (
    file_digests,
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
from .sequence import compile_plan, event_count, trial_duration
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


def _path(text: str) -> Path:
    """An argument type: a path.  An empty value is refused, as ``Path``
    would read it as the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return Path(text)


def _resolve_plan(value: str) -> Path:
    return default_plan_path(value) if value in PLANS else _path(value)


def _resolve_noise(value: str) -> Path:
    return default_noise_path(value) if value in NOISE_MODELS else _path(value)


def _resolve_device(value: str) -> Path:
    return default_device_path() if value == "10cell" else _path(value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: the source of every help text, usage line
    and refusal of an argument.  Built on the first call and then kept:
    building one costs more than the work of a short call.  Parsing leaves
    no state in it; every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="memarray",
        description="Multiplexed quantum-memory array: timing validation, "
                    "counting simulation, and statistics.")
    parser.add_argument("--version", action="version",
                        version=f"memarray {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's parser, by name

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--plan", required=True, type=_resolve_plan,
                        help=f"plan file, or one of {'/'.join(PLANS)}")
    common.add_argument("--device", default="10cell", type=_resolve_device,
                        help="device file (default: the shipped ten-cell array)")

    p_val = sub.add_parser("validate", parents=[common],
                           help="check a plan's timing rules (--timeline also "
                                "writes the compiled timeline)")
    p_val.add_argument("--timeline", type=_path, default=None,
                       help="also write the compiled timeline CSV here")
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", parents=[common],
                           help="simulate a counting run and write counts + manifest")
    p_run.add_argument("--noise", required=True, type=_resolve_noise,
                       metavar="NOISE_MODEL",
                       help=f"noise file, or one of {'/'.join(NOISE_MODELS)}")
    p_run.add_argument("--trials", required=True, type=_int_at_least(1),
                       help="number of storage trials")
    p_run.add_argument("--seed", default=0, type=_int_at_least(0),
                       help="random seed (default 0)")
    p_run.add_argument("--mode", default="signal",
                       choices=[kind.value for kind in RunKind],
                       help="run kind (default signal)")
    p_run.add_argument("--out-dir", default=Path("."), type=_path,
                       help="output directory (default .)")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser(
        "analyze", help="derive statistics CSVs from counts CSVs",
        description="Derive statistics CSVs from counts CSVs.  Unlike run, "
                    "analyze has no default --device: a counts file does "
                    "not name the device that drew it, and the projections "
                    "rescale each cell by that device's eta_mux.")
    p_an.add_argument("--signal", required=True, type=_path,
                      help="counts CSV of the signal run or cross-talk scan")
    p_an.add_argument("--noise", required=True, type=_path,
                      help="counts CSV of the matching no-input run")
    p_an.add_argument("--plan", type=_resolve_plan, default=None,
                      help="plan file (required unless the input is a scan)")
    p_an.add_argument("--device", type=_resolve_device, default=None,
                      help="device file (required unless the input is a scan)")
    p_an.add_argument("--out-dir", default=Path("."), type=_path,
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
    if not {*plan.cell_order} <= {*device.cell_ids}:
        missing = [c for c in plan.cell_order if c not in device.cell_ids]
        raise ConfigError(f"plan names cells {missing} that the device "
                          f"does not have", source="plan")
    return plan, device


def cmd_validate(args) -> int:
    plan, _ = _load_plan_and_device(args)
    if args.timeline is not None:  # the one output that needs the events
        write_timeline_csv(args.timeline, compile_plan(plan))
        print(f"timeline written to {args.timeline}")
    print(f"plan OK: {event_count(plan)} events, "
          f"{trial_duration(plan):.3f} us per trial, 0 violations")
    return 0


def cmd_run(args) -> int:
    started = time.monotonic()
    # Hashes of the bytes each loader parsed and each writer wrote.
    with file_digests() as digests:
        plan, device = _load_plan_and_device(args)
        noise, leak = load_noise(args.noise,
                                 default_dark_rate=device.dark_count_rate)
        inputs = {name: {"path": str(path.absolute()),
                         "sha256": digests[path]}
                  for name, path in (("plan", args.plan),
                                     ("device", args.device),
                                     ("noise", args.noise))}

        # Each run checks the plan's timing rules, as validate reports
        # them, and its calibration span before it draws.
        if args.mode == "crosstalk":
            result = run_crosstalk_scan(device, leak, noise, plan,
                                        n_trials=args.trials, seed=args.seed)
        else:
            result = run_trials(plan, device, noise, n_trials=args.trials,
                                seed=args.seed,
                                with_input=(args.mode == "signal"))

        args.out_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = args.out_dir / f"manifest_{args.mode}.json"
        # A counts file without its manifest traces to nothing: if the
        # manifest write fails, the block removes the counts file too.
        counts_path = write_counts_csv(
            args.out_dir / f"counts_{args.mode}.csv", result)
        write_manifest(manifest_path, {
            "tool": "memarray",
            "version": __version__,
            "command": "run",
            "mode": args.mode,
            "seed": args.seed,
            "trials": args.trials,
            "engine": ENGINE,
            "inputs": inputs,
            "outputs": {counts_path.name: digests[counts_path]},
            "duration_seconds": round(time.monotonic() - started, 3),
        })
    print(f"wrote {counts_path} ({len(result.keys)} rows) and "
          f"{manifest_path}")
    return 0


def _analyze_scan(args, scan) -> int:
    for option in ("plan", "device"):
        if getattr(args, option) is not None:
            raise ConfigError(f"--signal holds a cross-talk scan, whose "
                              f"analysis takes no --{option}", source=option)
    matrix = crosstalk_matrix(scan, read_counts_csv(args.noise))
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
                          source="signal")

    if args.plan is None or args.device is None:
        raise ConfigError("signal/noise analysis needs --plan and --device "
                          "for mode ordering and network projections")
    plan, device = _load_plan_and_device(args)
    runs = PlanRuns(signal, read_counts_csv(args.noise), plan)
    stats = per_mode_stats(runs)
    cum_s, cum_s_err, cum_b, cum_b_err = cumulative_counts(runs)
    projections = project_cells(runs, device)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    paths = (write_mode_stats_csv(args.out_dir / "mode_stats.csv", stats),
             write_cumulative_csv(args.out_dir / "cumulative.csv", plan.modes,
                                  cum_s, cum_s_err, cum_b, cum_b_err),
             write_projections_csv(args.out_dir / "projections.csv",
                                   projections))
    snr = cum_s[-1] / cum_b[-1] if cum_b[-1] else float("inf")
    print(f"{len(plan.modes)} modes: cumulative signal {cum_s[-1]:.4g}, "
          f"cumulative noise {cum_b[-1]:.4g}, pooled SNR {snr:.3g}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def main(argv=None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code.

    An argv that starts with a command's name is parsed by that command's
    parser alone, with ``command`` set first: the top-level parser would
    classify every option string and then hand them all to that parser,
    which classifies them again.  Arguments it leaves over are refused by
    the top-level parser, as a full parse refuses them.  Any other argv
    (help, ``--version``, none, an unknown or abbreviated command) goes to
    the top-level parser.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in parser.commands:
            args, extra = parser.commands[argv[0]].parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0]))
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        # One record for the call: if it fails, every file it wrote goes.
        with file_digests():
            return args.func(args)
    except ConfigError as exc:
        if exc.path is None and exc.source:  # the option names the file
            exc.path = getattr(args, exc.source)
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ModeSetMismatch) else 2
    except CompilationError as exc:
        for violation in exc.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 1
    except OSError as exc:  # inputs fail as ConfigError: this is an output
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
