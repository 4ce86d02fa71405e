"""Argument parsing: argparse alone reads argv.

Help texts are pinned byte for byte, at a width of 80 columns, one set of
bytes for every supported Python.  argparse before 3.13 may break a usage
line between a required option and its metavar, and from 3.13 it may not,
so no break falls there: ``run``'s ``--noise NOISE_MODEL`` is long enough
that ``--trials TRIALS`` starts the second line whole.  An option
abbreviated or joined to its value as ``--opt=value`` reads as its full
spelling does; and an empty value for an option that names a file or a
directory is refused as a usage error before anything is read or written.
An argv that starts with a command is parsed by that command's parser
alone, and gives the namespace, output and exit code of a full parse.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest

import memarray.cli
from memarray.cli import build_parser, main


def outcome(argv, call=main):
    """``call(argv)``'s (exit code, stdout, stderr), run in an empty
    directory at a terminal width of 80."""
    with tempfile.TemporaryDirectory() as work, \
            mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            code = call(argv)
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


TOP_HELP = """\
usage: memarray [-h] [--version] {validate,run,analyze} ...

Multiplexed quantum-memory array: timing validation, counting simulation, and
statistics.

positional arguments:
  {validate,run,analyze}
    validate            check a plan's timing rules (--timeline also writes
                        the compiled timeline)
    run                 simulate a counting run and write counts + manifest
    analyze             derive statistics CSVs from counts CSVs

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

VALIDATE_HELP = """\
usage: memarray validate [-h] --plan PLAN [--device DEVICE]
                         [--timeline TIMELINE]

options:
  -h, --help           show this help message and exit
  --plan PLAN          plan file, or one of 60mode/250mode/crosstalk
  --device DEVICE      device file (default: the shipped ten-cell array)
  --timeline TIMELINE  also write the compiled timeline CSV here
"""

RUN_HELP = """\
usage: memarray run [-h] --plan PLAN [--device DEVICE] --noise NOISE_MODEL
                    --trials TRIALS [--seed SEED]
                    [--mode {signal,noise,crosstalk}] [--out-dir OUT_DIR]

options:
  -h, --help            show this help message and exit
  --plan PLAN           plan file, or one of 60mode/250mode/crosstalk
  --device DEVICE       device file (default: the shipped ten-cell array)
  --noise NOISE_MODEL   noise file, or one of storage/crosstalk
  --trials TRIALS       number of storage trials
  --seed SEED           random seed (default 0)
  --mode {signal,noise,crosstalk}
                        run kind (default signal)
  --out-dir OUT_DIR     output directory (default .)
"""

ANALYZE_HELP = """\
usage: memarray analyze [-h] --signal SIGNAL --noise NOISE [--plan PLAN]
                        [--device DEVICE] [--out-dir OUT_DIR]

Derive statistics CSVs from counts CSVs. Unlike run, analyze has no default
--device: a counts file does not name the device that drew it, and the
projections rescale each cell by that device's eta_mux.

options:
  -h, --help         show this help message and exit
  --signal SIGNAL    counts CSV of the signal run or cross-talk scan
  --noise NOISE      counts CSV of the matching no-input run
  --plan PLAN        plan file (required unless the input is a scan)
  --device DEVICE    device file (required unless the input is a scan)
  --out-dir OUT_DIR  output directory (default .)
"""


@pytest.mark.parametrize("argv, text", [
    (["--help"], TOP_HELP),
    (["validate", "--help"], VALIDATE_HELP),
    (["run", "-h"], RUN_HELP),
    (["analyze", "--help"], ANALYZE_HELP),
])
def test_help_bytes(argv, text):
    assert outcome(argv) == (0, text, "")


def test_prefix_and_equals_forms_stay_accepted():
    full = outcome(["run", "--plan", "60mode", "--noise", "storage",
                    "--trials", "100", "--out-dir", "out"])
    assert full[0] == 0
    assert outcome(["run", "--pl=60mode", "--noise=storage", "--tri", "100",
                    "--out-dir", "out"]) == full


# Per subcommand, an argv that succeeds in a directory holding a signal and
# a noise run's counts files.  Every option but --trials names a path.
RUNS = {
    "validate": ["--plan", "60mode", "--device", "10cell",
                 "--timeline", "t.csv"],
    "run": ["--plan", "60mode", "--device", "10cell", "--noise", "storage",
            "--trials", "3", "--out-dir", "out"],
    "analyze": ["--signal", "counts_signal.csv", "--noise", "counts_noise.csv",
                "--plan", "60mode", "--device", "10cell", "--out-dir", "out"],
}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, argv in RUNS.items()
    for option in argv[::2] if option != "--trials"])
def test_empty_path_value_is_a_usage_error(command, option, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for mode in ("signal", "noise"):
        assert main(["run", "--plan", "60mode", "--noise", "storage",
                     "--trials", "3", "--mode", mode]) == 0
    files = sorted(tmp_path.rglob("*"))
    argv = [command, *RUNS[command]]
    argv[argv.index(option) + 1] = ""
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: memarray {command} ")
    assert f"error: argument {option}: expected a path, got ''" in err
    assert sorted(tmp_path.rglob("*")) == files


def full_parse(argv):
    """The exit code of ``build_parser().parse_args(argv)``, for an argv it
    refuses or answers itself."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    raise AssertionError(f"{argv} parsed")


@pytest.mark.parametrize("argv, line", [
    (["validate", "--plan", "60mode", "--bogus", "1"],
     "memarray: error: unrecognized arguments: --bogus 1\n"),
    (["run", *RUNS["run"], "extra", "--x"],
     "memarray: error: unrecognized arguments: extra --x\n"),
    (["run", *RUNS["run"], "--version"],
     "memarray: error: unrecognized arguments: --version\n"),
    (["run", "--version"], "memarray run: error: the following arguments "
                           "are required: --plan, --noise, --trials\n"),
    ([], "memarray: error: the following arguments are required: command\n"),
    (["ru", *RUNS["run"]],
     "memarray: error: argument command: invalid choice: 'ru'"),
    (["analyze", *RUNS["analyze"], "--signal"],
     "memarray analyze: error: argument --signal: expected one argument\n"),
])
def test_refusal_is_the_full_parse(argv, line):
    code, out, err = outcome(argv)
    assert (code, out, err) == outcome(argv, full_parse)
    assert code == 2 and out == "" and line in err


# The argv of each call the benchmark makes (perfbench/workloads.py), then
# a repeated option, whose last value stands, and prefix and equals forms.
PARSED = [
    ["validate", "--plan", "60mode"],
    ["validate", "--plan", "work/candidate_00.ini"],
    ["run", "--plan", "crosstalk", "--noise", "crosstalk", "--trials",
     "20000", "--seed", "12345", "--mode", "crosstalk", "--out-dir",
     "work/pass"],
    ["run", "--plan", "work/candidate_02.ini", "--noise", "storage",
     "--trials", "200", "--seed", "7", "--mode", "noise", "--out-dir",
     "work/pass"],
    ["analyze", "--signal", "work/pass/counts_crosstalk.csv", "--noise",
     "work/pass/counts_noise.csv", "--out-dir", "work/pass/stats"],
    ["analyze", "--signal", "work/pass/counts_signal.csv", "--noise",
     "work/pass/counts_noise.csv", "--out-dir", "work/pass/stats", "--plan",
     "60mode", "--device", "10cell"],
    ["validate", "--plan", "60mode", "--plan", "250mode"],
    ["run", "--pl=60mode", "--noise=storage", "--tri", "3", "--seed", "1",
     "--seed", "2"],
]


@pytest.mark.parametrize("argv", PARSED)
def test_namespace_is_the_full_parse(argv, monkeypatch):
    calls = []
    parser = build_parser.__wrapped__()  # a fresh parser, free to change
    for command in parser.commands.values():
        command.set_defaults(func=calls.append)
    monkeypatch.setattr(memarray.cli, "build_parser", lambda: parser)
    assert main(argv) is None
    assert calls == [parser.parse_args(argv)]
    assert calls[0].command == argv[0]
