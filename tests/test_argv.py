"""Argument parsing: argparse alone reads argv.

Help texts are pinned byte for byte, at a width of 80 columns; an option
abbreviated or joined to its value as ``--opt=value`` reads as its full
spelling does; and an empty value for an option that names a file or a
directory is refused as a usage error before anything is read or written.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest

from memarray.cli import main


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
