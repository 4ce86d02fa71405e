"""CLI and import checks that need a fresh interpreter.

``import memarray`` loads none of its submodules, and each submodule loads
only the ones it uses.  numpy is loaded only by the Poisson draw of
``memarray run``, and config files are parsed without ``configparser``.
The cold-path check first sets ``sys.modules["numpy"]`` and
``sys.modules["configparser"]`` to None, which makes every import of either
raise, so it fails as soon as ``import memarray``, ``validate`` or
``analyze`` needs one of them again.
Diagnostics must not depend on the interpreter's string-hash seed, and an
output path that cannot be written is a one-line error, not a traceback.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import memarray
from memarray.cli import main
from memarray.io import read_counts_csv

SRC = Path(memarray.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

COLD_PATH = """\
import sys
sys.modules["numpy"] = None
sys.modules["configparser"] = None
sys.path.insert(0, sys.argv[1])  # the tests directory
from pathlib import Path

import memarray
from memarray.cli import main
import test_analyze_bytes as pinned

for plan in ("60mode", "250mode", "crosstalk"):
    assert main(["validate", "--plan", plan]) == 0, plan
out = Path(sys.argv[2])
for name, test in (("storage", pinned.test_storage_analyze_bytes),
                   ("scan", pinned.test_scan_analyze_bytes)):
    (out / name).mkdir()
    test(out / name)  # analyze, then assert the pinned output hashes
try:
    main(["run", "--plan", "60mode", "--noise", "storage", "--trials", "10",
          "--out-dir", str(out / "run")])
except ImportError:
    pass  # the draw needs numpy: proof that the block holds
else:
    raise AssertionError("run drew its counts with numpy blocked")
"""


def run_python(*args, **env):
    """Run ``python *args`` on this checkout's memarray, with extra
    environment variables ``env``."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_validate_and_analyze_run_without_numpy(tmp_path):
    proc = run_python("-c", COLD_PATH, TESTS, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("plan OK") == 3


def test_run_draws_in_a_fresh_process(tmp_path):
    proc = run_python("-m", "memarray.cli", "run", "--plan", "60mode",
                      "--noise", "storage", "--trials", "100", "--seed", "1",
                      "--out-dir", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len(read_counts_csv(tmp_path / "counts_signal.csv").counts) == 60


def test_missing_key_diagnostic_ignores_hash_seed(tmp_path):
    # Seven required keys are missing; the first in sorted order is named.
    plan = tmp_path / "two.ini"
    plan.write_text("[plan]\ntau_us = 10.0\n")
    procs = [run_python("-m", "memarray.cli", "validate", "--plan", plan,
                        PYTHONHASHSEED=seed) for seed in ("1", "2", "3")]
    assert [p.returncode for p in procs] == [2, 2, 2]
    assert {p.stderr for p in procs} == {
        f"error: {plan}, key 'cell_order': [plan] is missing required key "
        f"'cell_order'\n"}


def loaded_submodules(module):
    """The memarray submodules in ``sys.modules`` after a fresh interpreter
    imports ``module``."""
    proc = run_python("-c", f"import sys, {module}; print(*sorted(m for m in "
                            f"sys.modules if m.startswith('memarray.')))")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_loads_no_submodule():
    assert loaded_submodules("memarray") == []


def test_sequence_import_loads_only_what_it_uses():
    assert loaded_submodules("memarray.sequence") == [
        "memarray.device", "memarray.errors", "memarray.sequence"]


@pytest.mark.parametrize("argv, target", [
    (["run", "--plan", "60mode", "--noise", "storage", "--trials", "10",
      "--out-dir", "{F}"], "{F}"),
    (["run", "--plan", "60mode", "--noise", "storage", "--trials", "10",
      "--out-dir", "{F}/sub"], "{F}/sub"),
    (["validate", "--plan", "60mode", "--timeline", "{tmp}/nodir/t.csv"],
     "{tmp}/nodir/t.csv"),
    (["analyze", "--signal", "{tmp}/counts_signal.csv",
      "--noise", "{tmp}/counts_noise.csv", "--plan", "60mode",
      "--device", "10cell", "--out-dir", "{F}"], "{F}"),
], ids=["run-into-file", "run-under-file", "validate-no-dir", "analyze"])
def test_unwritable_output_exits_two(tmp_path, argv, target):
    for mode in ("signal", "noise"):
        assert main(["run", "--plan", "60mode", "--noise", "storage",
                     "--mode", mode, "--trials", "10",
                     "--out-dir", str(tmp_path)]) == 0
    (tmp_path / "F").write_text("")
    names = {"tmp": tmp_path, "F": tmp_path / "F"}
    before = sorted(tmp_path.rglob("*"))
    proc = run_python("-m", "memarray.cli",
                      *(a.format(**names) for a in argv))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {target.format(**names)}: ")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
