"""Argument parsing: the plain reading of argv against argparse.

``main`` reads argv of the shape ``<command> (--option value)*`` straight
from the declared options and hands every other argv to argparse.  For any
argv, the plain reading gives nothing or the namespace that argparse gives,
and ``main``'s exit code, stdout and stderr are those of argparse alone.
Help texts are pinned byte for byte, at a width of 80 columns.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import memarray.cli
from memarray.cli import _read_plain, build_parser, main

# Per subcommand, each option and values that argparse accepts for it,
# and for --mode one that is not among its choices.
OPTIONS = {
    "validate": {"--plan": ["60mode", "crosstalk"], "--device": ["10cell"],
                 "--timeline": ["t.csv"]},
    "run": {"--plan": ["60mode", "crosstalk"], "--device": ["10cell"],
            "--noise": ["storage", "crosstalk"], "--trials": ["1", "3"],
            "--seed": ["0", "7"],
            "--mode": ["signal", "noise", "crosstalk", "bogus"],
            "--out-dir": ["out"]},
    "analyze": {"--signal": ["s.csv"], "--noise": ["n.csv"],
                "--plan": ["60mode"], "--device": ["10cell"],
                "--out-dir": ["out"]},
}
# Values that argparse refuses for some options, or that the plain reading
# leaves to argparse: a negative number, an empty string, an option string,
# a float, an "=" sign.
HARD_VALUES = ["-1", "", "--plan", "1e3", "x=y"]
# Tokens that argparse reads on its own: help, version, an option of no
# subcommand, an option of another subcommand, the end-of-options marker.
LOOSE_TOKENS = ["-h", "--help", "--version", "--bogus", "-x", "--timeline",
                "--signal", "--"]


@st.composite
def argvs(draw):
    """A subcommand and its options, each given once, twice or not at all,
    in any order, each spelt in full with a value of its own; or the same
    options after a missing or unknown command.  Then up to three edits,
    each of which abbreviates an option, joins one to its value as
    ``--opt=value``, gives one a hard value or puts in a loose token."""
    command = draw(st.sampled_from(
        [*OPTIONS] * 4 + ["frobnicate", "", "-h", "--version", None]))
    options = OPTIONS.get(command, OPTIONS["run"])
    pieces = [[string, draw(st.sampled_from(values))]
              for string, values in options.items()
              for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2])))]
    pieces = draw(st.permutations(pieces))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["abbreviate", "join", "hard", "loose"]))
        at = draw(st.integers(0, len(pieces)))
        if edit == "loose":
            pieces.insert(at, [draw(st.sampled_from(LOOSE_TOKENS))])
        elif at < len(pieces) and len(pieces[at]) == 2:
            string, value = pieces[at]
            if edit == "abbreviate":
                pieces[at] = [draw(st.sampled_from([string[:3],
                                                    string[:-1]])), value]
            elif edit == "join":
                pieces[at] = [f"{string}={value}"]
            else:
                pieces[at] = [string, draw(st.sampled_from(HARD_VALUES))]
    head = [] if command is None else [command]
    return head + [token for piece in pieces for token in piece]


def parse(argv):
    """argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def outcome(argv):
    """``main(argv)``'s (exit code, stdout, stderr), run in an empty
    directory at a terminal width of 80."""
    with tempfile.TemporaryDirectory() as work, \
            mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            code = main(argv)
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argvs())
@example(["run", "--plan", "60mode", "--noise", "storage", "--trials", "1",
          "--mode", "bogus"])  # not a choice
@example(["validate", "--plan", "--plan"])  # an option as the value
@example(["validate", "--plan", "60mode", "--timeline"])  # no value
@example(["run", "--plan", "60mode", "--noise", "storage"])  # no --trials
def test_plain_reading_is_argparse(argv):
    plain = _read_plain(argv)
    assert plain is None or plain == parse(argv)
    with mock.patch.object(memarray.cli, "_read_plain", lambda argv: None):
        by_argparse = outcome(argv)
    assert outcome(argv) == by_argparse


@pytest.mark.parametrize("argv", [
    ["validate", "--plan", "60mode"],
    ["validate", "--timeline", "t.csv", "--device", "10cell",
     "--plan", "crosstalk"],
    ["run", "--plan", "60mode", "--noise", "storage", "--trials", "14227",
     "--seed", "2718", "--mode", "noise", "--out-dir", "out"],
    ["run", "--trials", "3", "--noise", "storage", "--plan", "60mode",
     "--trials", "5", "--mode", "crosstalk", "--mode", "signal"],
    ["analyze", "--signal", "s.csv", "--noise", "n.csv", "--plan", "60mode",
     "--device", "10cell", "--out-dir", "out"],
    ["analyze", "--signal", "x=y", "--noise", ""],
])
def test_plain_argv_is_read_without_argparse(argv):
    plain = _read_plain(argv)
    assert plain is not None and plain == parse(argv)
    assert list(vars(plain)) == list(vars(parse(argv)))


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
usage: memarray run [-h] --plan PLAN [--device DEVICE] --noise NOISE --trials
                    TRIALS [--seed SEED] [--mode {signal,noise,crosstalk}]
                    [--out-dir OUT_DIR]

options:
  -h, --help            show this help message and exit
  --plan PLAN           plan file, or one of 60mode/250mode/crosstalk
  --device DEVICE       device file (default: the shipped ten-cell array)
  --noise NOISE         noise file, or one of storage/crosstalk
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
