"""End-to-end command-line tests: exit codes, artifacts, reproducibility."""

import csv
import hashlib
import inspect
import json
import math
import shutil
import sys
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import memarray.cli
import memarray.defaults
import memarray.io
import memarray.sequence
from memarray.cli import main
from memarray.defaults import (
    default_device_path,
    default_noise_path,
    default_plan_path,
)
from memarray.errors import ModeSetMismatch
from memarray.io import (
    COUNTS_HEADER,
    load_device,
    load_noise,
    load_plan,
    read_counts_csv,
    write_counts_csv,
)
from memarray.sequence import check_plan
from memarray.simulate import RunKind, TrialCounts, run_trials


def run_cli(*argv):
    return main(list(argv))


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


HIGH_NOISE = """\
[noise]
base_noise_per_window = 0.5
fluorescence_amplitude = 0.1
fluorescence_decay_us = 2.0
dark_rate_hz = 15.0
"""


SMALL_PLAN = """\
[plan]
tau_us = 10.0
t_spin_us = 15.5
n_temporal = 2
cell_order = 1, 2
mean_photon_number = 1.03
detection_window_ns = 351
input_shape = gaussian
input_fwhm_ns = 351
"""


@pytest.fixture
def small_plan(tmp_path):
    """Two cells, two temporal modes: fast to simulate."""
    p = tmp_path / "small_plan.ini"
    p.write_text(SMALL_PLAN)
    return p


class TestValidate:
    SHIPPED = {
        "60mode": "plan OK: 141 events, 223.468 us per trial, 0 violations\n",
        "250mode": "plan OK: 521 events, 298.691 us per trial, 0 violations\n",
        "crosstalk": "plan OK: 41 events, 143.051 us per trial, 0 violations\n",
    }

    def test_shipped_plan_passes(self, capsys):
        for plan, stdout in self.SHIPPED.items():
            assert run_cli("validate", "--plan", plan) == 0
            assert capsys.readouterr() == (stdout, "")

    def test_capacity_violation_exits_one(self, tmp_path, capsys):
        p = tmp_path / "over.ini"
        p.write_text(default_plan_path("60mode").read_text().replace(
            "n_temporal = 6", "n_temporal = 7\nmode_period_us = 1.0833"))
        assert run_cli("validate", "--plan", str(p)) == 1
        err = capsys.readouterr().err
        assert "capacity" in err

    def test_empty_plan_file_exits_two(self, tmp_path, capsys):
        p = tmp_path / "empty.ini"
        p.write_text("")
        assert run_cli("validate", "--plan", str(p)) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_cell_exits_two(self, tmp_path, capsys):
        p = tmp_path / "plan.ini"
        p.write_text(default_plan_path("60mode").read_text().replace(
            "cell_order = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10",
            "cell_order = 1, 2, 11"))
        assert run_cli("validate", "--plan", str(p)) == 2
        assert "11" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("[array]", "cell_spacing_um"),
                                              ("[cell 4]", "position_um")])
    def test_geometry_key_refused(self, tmp_path, capsys, section, key):
        # Device files used to carry the array geometry; no model read it.
        lines = default_device_path().read_text().splitlines()
        i = lines.index(section) + 1
        lines.insert(i, f"{key} = 200.0")  # right below the section header
        p = tmp_path / "old.ini"
        p.write_text("\n".join(lines) + "\n")
        assert run_cli("validate", "--plan", "60mode", "--device", str(p)) == 2
        err = capsys.readouterr().err
        assert f"{p}, line {i + 1}, key '{key}': unknown key" in err

    def test_calibration_tau_below_zero_exits_two(self, tmp_path, capsys):
        # A tau at or below zero made afc_efficiency_at refuse storage times
        # inside the span; the device file is now refused as it loads.
        text = default_device_path().read_text()
        p = tmp_path / "device.ini"
        p.write_text(text.replace("afc_calibration = 10:0.150, 25:0.0538",
                                  "afc_calibration = -4:0.2, 10:0.1"))
        assert p.read_text() != text
        assert run_cli("validate", "--plan", "60mode", "--device", str(p)) == 2
        assert capsys.readouterr() == (
            "", f"error: {p}: cell 1: calibration tau must be positive, "
                f"got -4.0\n")

    def test_timeline_export(self, tmp_path, capsys):
        out = tmp_path / "timeline.csv"
        assert run_cli("validate", "--plan", "250mode",
                       "--timeline", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 1 + 250 + 20 + 250  # header+prep+io+cps

    TIMELINE_SHA256 = {
        "60mode":
            "cfd3907034b29a4354deafb4688c6c2ae5844df26dc9f65c42dd8aa537490696",
        "250mode":
            "e94c36ef84b810173234038db02000a2429e9e717607e81407ca272f0345e1d6",
        "crosstalk":
            "b5efa9ee73d02e6b96fa06be08c26314ff8ac751831115115ce34250ff54745b",
    }

    @pytest.mark.parametrize("plan", list(TIMELINE_SHA256))
    def test_timeline_bytes_pinned(self, tmp_path, capsys, plan):
        # The layout of every shipped plan is a constant of the code.
        out = tmp_path / "timeline.csv"
        assert run_cli("validate", "--plan", plan, "--timeline", str(out)) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.TIMELINE_SHA256[plan]

    @pytest.mark.parametrize("plan", list(SHIPPED))
    def test_plain_validate_lays_out_no_timeline(self, tmp_path, capsys,
                                                 monkeypatch, plan):
        out = tmp_path / "timeline.csv"
        assert run_cli("validate", "--plan", plan, "--timeline", str(out)) == 0
        plan_ok = capsys.readouterr().out.splitlines()[-1]

        def lay_out(*args, **kwargs):
            raise AssertionError("validate laid out a timeline")

        monkeypatch.setattr(memarray.cli, "compile_plan", lay_out)
        monkeypatch.setattr(memarray.sequence, "TimelineEvent", lay_out)
        assert run_cli("validate", "--plan", plan) == 0
        assert capsys.readouterr() == (plan_ok + "\n", "")


class TestRun:
    @pytest.mark.parametrize("trials, message", [
        ("0", "must be >= 1, got 0"),
        ("abc", "expected an integer, got 'abc'"),
    ], ids=["0", "abc"])
    def test_bad_trials_is_usage_error(self, tmp_path, capsys, trials,
                                       message):
        code = run_cli("run", "--plan", "60mode", "--noise", "storage",
                       "--trials", trials, "--out-dir", str(tmp_path))
        assert code == 2
        assert (f"memarray run: error: argument --trials: {message}\n"
                in capsys.readouterr().err)

    def test_sixty_mode_run_row_count(self, tmp_path):
        assert run_cli("run", "--plan", "60mode", "--noise", "storage",
                       "--trials", "50", "--seed", "9",
                       "--out-dir", str(tmp_path)) == 0
        csv_path = tmp_path / "counts_signal.csv"
        assert len(csv_path.read_text().splitlines()) == 61  # header + 60
        run = read_counts_csv(csv_path)
        assert run.n_trials == 50

    def test_manifest_inventory(self, tmp_path):
        for plan, noise, mode in (("60mode", "storage", "signal"),
                                  ("60mode", "storage", "noise"),
                                  ("crosstalk", "crosstalk", "crosstalk")):
            assert run_cli("run", "--plan", plan, "--noise", noise,
                           "--mode", mode, "--trials", "20", "--seed", "4",
                           "--out-dir", str(tmp_path)) == 0
            text = (tmp_path / f"manifest_{mode}.json").read_text()
            manifest = json.loads(text)
            # Inputs by path and hash: no copy of the parsed configuration.
            assert set(manifest) == {
                "tool", "version", "command", "mode", "seed", "trials",
                "engine", "inputs", "outputs", "duration_seconds"}, mode
            assert text == json.dumps(manifest, indent=2,
                                      sort_keys=True) + "\n"
            counts = tmp_path / f"counts_{mode}.csv"
            assert manifest["outputs"] == {counts.name: file_sha256(counts)}
            assert set(manifest["inputs"]) == {"plan", "device", "noise"}
            assert manifest["mode"] == mode and manifest["seed"] == 4
            assert manifest["trials"] == 20
            assert manifest["engine"] == "poisson-total-stdlib"

    # Counts of every shipped plan and run kind at --trials 14227 --seed
    # 2718: constants of the engine, the same on every supported Python.
    COUNTS_SHA256 = {
        ("60mode", "storage", "signal"):
            "598cfd1df03647df254cd9d1a70f14e8cda5ce7a043520b722a4af7d6834055b",
        ("60mode", "storage", "noise"):
            "64baf4a2ef706f97abd94b20410d1bdae835fa96fb5c9dc3b27c7d88d7311512",
        ("250mode", "storage", "signal"):
            "0fcb243518998a7febfa1c56597ba78043f5efca38d6d809eed1e33f80e07d5f",
        ("250mode", "storage", "noise"):
            "5436a05d76ce42f05d80360ace969590995e2769a146aeb62136ce22235331b8",
        ("crosstalk", "crosstalk", "crosstalk"):
            "a7db980bc64fc4d92a465dce06f907620c956a114072af3a272b86dce89b0207",
        ("crosstalk", "crosstalk", "noise"):
            "1dac6f0c3f1156b18f73e909401de7c283dc62481282338ea918b2900aa6d868",
    }

    @pytest.mark.parametrize("plan, noise, mode", list(COUNTS_SHA256))
    def test_counts_bytes_pinned(self, tmp_path, plan, noise, mode):
        assert run_cli("run", "--plan", plan, "--noise", noise, "--mode", mode,
                       "--trials", "14227", "--seed", "2718",
                       "--out-dir", str(tmp_path)) == 0
        digest = file_sha256(tmp_path / f"counts_{mode}.csv")
        assert digest == self.COUNTS_SHA256[plan, noise, mode]

    def test_reruns_are_byte_identical(self, tmp_path, small_plan):
        noise = tmp_path / "noise.ini"
        noise.write_text(HIGH_NOISE)
        shas = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("run", "--plan", str(small_plan), "--noise",
                           str(noise), "--trials", "400", "--seed", "77",
                           "--out-dir", str(out)) == 0
            shas.append(file_sha256(out / "counts_signal.csv"))
        assert shas[0] == shas[1]

    def test_oversized_trials_exits_two(self, tmp_path, capsys):
        # 1e25 trials at ~1e-3 counts per window passes the Poisson
        # sampler's 2**30 (~1.1e9) limit on a window's mean.
        code = run_cli("run", "--plan", "60mode", "--noise", "storage",
                       "--trials", str(10 ** 25), "--out-dir", str(tmp_path))
        assert code == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "counts_signal.csv").exists()

    @pytest.mark.parametrize("mode, plan, noise", [
        ("signal", "60mode", "storage"), ("noise", "60mode", "storage"),
        ("crosstalk", "crosstalk", "crosstalk")])
    def test_tau_beyond_calibration_span_names_the_plan(self, tmp_path, capsys,
                                                        mode, plan, noise):
        # The shipped device is calibrated over 10-25 us, so 60 us lies more
        # than twice beyond it.  The timing rules still hold, and validate,
        # which reads no calibration, passes the plan.
        p = tmp_path / "far.ini"
        p.write_text(default_plan_path(plan).read_text().replace(
            "tau_us = 10.0", "tau_us = 60.0"))
        assert run_cli("validate", "--plan", str(p)) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        code = run_cli("run", "--plan", str(p), "--noise", noise,
                       "--mode", mode, "--trials", "10", "--out-dir", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {p}: cell 1: tau=60.0 us is more than 2.0x outside the "
            f"calibration span [10.0, 25.0] us\n")
        assert not out.exists()

    def test_seed_changes_bytes(self, tmp_path, small_plan):
        noise = tmp_path / "noise.ini"
        noise.write_text(HIGH_NOISE)
        shas = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}"
            run_cli("run", "--plan", str(small_plan), "--noise", str(noise),
                    "--trials", "400", "--seed", seed, "--out-dir", str(out))
            shas.append(file_sha256(out / "counts_signal.csv"))
        assert shas[0] != shas[1]

    def test_infeasible_plan_exits_one(self, tmp_path, capsys):
        p = tmp_path / "over.ini"
        p.write_text(default_plan_path("60mode").read_text().replace(
            "n_temporal = 6", "n_temporal = 7\nmode_period_us = 1.0833"))
        code = run_cli("run", "--plan", str(p), "--noise", "storage",
                       "--trials", "10", "--out-dir", str(tmp_path))
        assert code == 1
        assert "violation" in capsys.readouterr().err

    # (shipped plan, noise file, edits that break its timing rules,
    # violation count)
    INFEASIBLE = {
        "storage": ("60mode", "storage",
                    {"n_temporal = 6": "n_temporal = 40\nmode_period_us = 0.2",
                     "t_spin_us = 15.5": "t_spin_us = 1.0"}, 5),
        "crosstalk": ("crosstalk", "crosstalk",
                      {"t_spin_us = 8.0": "t_spin_us = 1.0",
                       "n_temporal = 1": "n_temporal = 1\nmode_period_us = 0.2",
                       "input_fwhm_ns = 130": "input_fwhm_ns = 7000"}, 4),
        # tau holds no 3.5 us control pulse, so the default period has no
        # room to exist: that rule is the only line.
        "short-tau": ("60mode", "storage", {"tau_us = 10.0": "tau_us = 3.0"},
                      1),
    }

    @pytest.mark.parametrize("mode, case", [
        ("signal", "storage"), ("noise", "storage"),
        ("crosstalk", "crosstalk"), ("signal", "short-tau")])
    def test_infeasible_plan_same_violations_as_validate(
            self, tmp_path, capsys, mode, case):
        plan_name, noise, edits, n_lines = self.INFEASIBLE[case]
        text = default_plan_path(plan_name).read_text()
        for old, new in edits.items():
            text = text.replace(old, new)
        p = tmp_path / "infeasible.ini"
        p.write_text(text)
        assert run_cli("validate", "--plan", str(p)) == 1
        validated = capsys.readouterr().err
        assert run_cli("run", "--plan", str(p), "--noise", noise,
                       "--mode", mode, "--trials", "10",
                       "--out-dir", str(tmp_path / "out")) == 1
        lines = validated.splitlines()
        assert len(lines) == n_lines
        assert all(line.startswith("violation: ") for line in lines)
        assert capsys.readouterr().err == validated

    @pytest.mark.parametrize("mode, plan, noise", [
        ("signal", "60mode", "storage"), ("noise", "60mode", "storage"),
        ("crosstalk", "crosstalk", "crosstalk")])
    def test_run_checks_the_plan_once(self, tmp_path, monkeypatch, mode, plan,
                                      noise):
        # Count the calls through every memarray name bound to check_plan:
        # simulate's, which mode_expectations looks up, and any other.
        calls = []

        def counted(p):
            calls.append(p)
            return check_plan(p)
        for module in [m for name, m in sys.modules.items()
                       if name.startswith("memarray.")]:
            if getattr(module, "check_plan", None) is check_plan:
                monkeypatch.setattr(module, "check_plan", counted)
        assert memarray.simulate.check_plan is counted
        assert run_cli("run", "--plan", plan, "--noise", noise, "--mode", mode,
                       "--trials", "10", "--out-dir", str(tmp_path)) == 0
        assert len(calls) == 1

    def test_value_error_is_not_an_exit_code(self, tmp_path, monkeypatch):
        # Exit 1 is for domain errors the library names; any other
        # ValueError is a bug and must surface as a traceback.
        def broken(*args, **kwargs):
            raise ValueError("bug")
        monkeypatch.setattr("memarray.cli.run_trials", broken)
        with pytest.raises(ValueError, match="bug"):
            main(["run", "--plan", "60mode", "--noise", "storage",
                  "--trials", "10", "--out-dir", str(tmp_path)])

    def test_plan_filling_tau_exactly_runs(self, tmp_path, capsys):
        # Ten 0.65 us inputs and the control pulse fill tau = 10 us exactly;
        # rounding leaves the first window's control gap at -9e-16 us, within
        # the timing slack of check_plan, so validate and run both accept it.
        p = tmp_path / "full.ini"
        p.write_text(default_plan_path("60mode").read_text()
                     .replace("n_temporal = 6", "n_temporal = 10")
                     .replace("input_fwhm_ns = 351", "input_fwhm_ns = 650"))
        assert run_cli("validate", "--plan", str(p)) == 0
        assert run_cli("run", "--plan", str(p), "--noise", "storage",
                       "--trials", "10", "--out-dir", str(tmp_path)) == 0
        assert capsys.readouterr().err == ""

    def test_failed_run_leaves_no_out_dir(self, tmp_path, capsys):
        p = tmp_path / "over.ini"
        p.write_text(default_plan_path("60mode").read_text().replace(
            "n_temporal = 6", "n_temporal = 7\nmode_period_us = 1.0833"))
        out = tmp_path / "runout"
        assert run_cli("run", "--plan", str(p), "--noise", "storage",
                       "--trials", "10", "--out-dir", str(out)) == 1
        assert not out.exists()

    def test_unwritable_manifest_leaves_no_counts_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "manifest_signal.json").mkdir(parents=True)
        assert run_cli("run", "--plan", "60mode", "--noise", "storage",
                       "--trials", "10", "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "manifest_signal.json" in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["manifest_signal.json"]

    def test_crosstalk_needs_leakage(self, tmp_path, capsys):
        code = run_cli("run", "--plan", "crosstalk", "--noise", "storage",
                       "--mode", "crosstalk", "--trials", "10",
                       "--out-dir", str(tmp_path))
        assert code == 2
        assert "leakage" in capsys.readouterr().err

    def test_crosstalk_run_covers_all_pairs(self, tmp_path):
        assert run_cli("run", "--plan", "crosstalk", "--noise", "crosstalk",
                       "--mode", "crosstalk", "--trials", "30",
                       "--out-dir", str(tmp_path)) == 0
        scan = read_counts_csv(tmp_path / "counts_crosstalk.csv")
        assert scan.kind is RunKind.CROSSTALK
        assert len(scan.keys) == 100


    def test_crosstalk_run_scans_the_plan_cells(self, tmp_path, capsys):
        # A two-cell plan against the shipped ten-cell leakage matrix: the
        # scan and its floor cover the same two cells, so analyze accepts.
        p = tmp_path / "two.ini"
        p.write_text(default_plan_path("crosstalk").read_text().replace(
            "cell_order = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10", "cell_order = 2, 1"))
        for mode in ("crosstalk", "noise"):
            assert run_cli("run", "--plan", str(p), "--noise", "crosstalk",
                           "--mode", mode, "--trials", "20000",
                           "--out-dir", str(tmp_path)) == 0
        scan = read_counts_csv(tmp_path / "counts_crosstalk.csv")
        assert scan.keys == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert read_counts_csv(tmp_path / "counts_noise.csv").keys == (
            (1, 1), (2, 1))
        assert run_cli("analyze",
                       "--signal", str(tmp_path / "counts_crosstalk.csv"),
                       "--noise", str(tmp_path / "counts_noise.csv"),
                       "--out-dir", str(tmp_path / "xt")) == 0

    def test_crosstalk_leakage_without_a_plan_cell_exits_two(self, tmp_path,
                                                            capsys):
        noise = tmp_path / "noise.ini"
        noise.write_text(HIGH_NOISE + "[leakage]\nrow_1 = 1, 0\n"
                         "row_11 = 0, 1\n")
        code = run_cli("run", "--plan", "crosstalk", "--noise", str(noise),
                       "--mode", "crosstalk", "--trials", "10",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {noise}: [leakage] has no row for plan cells "
            f"[2, 3, 4, 5, 6, 7, 8, 9, 10]\n")
        assert not (tmp_path / "out").exists()

    def test_crosstalk_of_a_multimode_plan_exits_two(self, tmp_path, capsys):
        code = run_cli("run", "--plan", "60mode", "--noise", "crosstalk",
                       "--mode", "crosstalk", "--trials", "10",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {default_plan_path('60mode')}: cross-talk scans use a "
            f"single input pulse per trial; got n_temporal=6\n")


class TestManifestHashes:
    """A run manifest records the sha256 of each input file as the run
    parsed it, and of the counts file it wrote."""

    def _check(self, out, mode, inputs):
        manifest = json.loads((out / f"manifest_{mode}.json").read_text())
        assert {k: v["path"] for k, v in manifest["inputs"].items()} == {
            k: str(Path(p).absolute()) for k, p in inputs.items()}
        for name, entry in manifest["inputs"].items():
            assert entry["sha256"] == file_sha256(inputs[name]), name
        counts = (out / f"counts_{mode}.csv").read_bytes()
        assert manifest["outputs"] == {
            f"counts_{mode}.csv": hashlib.sha256(counts).hexdigest()}

    @pytest.mark.parametrize("plan, noise, mode", [
        ("60mode", "storage", "signal"), ("60mode", "storage", "noise"),
        ("250mode", "storage", "signal"), ("250mode", "storage", "noise"),
        ("crosstalk", "crosstalk", "signal"),
        ("crosstalk", "crosstalk", "noise"),
        ("crosstalk", "crosstalk", "crosstalk")])
    def test_every_shipped_plan_and_run_kind(self, tmp_path, plan, noise,
                                             mode):
        # At 10**6 trials each window is still one Poisson draw.
        assert run_cli("run", "--plan", plan, "--noise", noise, "--mode", mode,
                       "--trials", "1000000", "--seed", "2718",
                       "--out-dir", str(tmp_path)) == 0
        self._check(tmp_path, mode, {
            "plan": default_plan_path(plan),
            "device": default_device_path(),
            "noise": default_noise_path(noise)})

    def test_explicit_paths(self, tmp_path, small_plan):
        noise = tmp_path / "noise.ini"
        noise.write_text(HIGH_NOISE)
        device = shutil.copy(default_device_path(), tmp_path / "device.ini")
        assert run_cli("run", "--plan", str(small_plan), "--noise", str(noise),
                       "--device", str(device), "--mode", "noise",
                       "--trials", "10", "--out-dir", str(tmp_path)) == 0
        self._check(tmp_path, "noise", {"plan": small_plan, "device": device,
                                        "noise": noise})

    def test_relative_path_is_recorded_absolute(self, tmp_path, small_plan,
                                                monkeypatch):
        (tmp_path / "cfg").mkdir()
        shutil.move(small_plan, tmp_path / "cfg" / "plan.ini")
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--plan", "cfg/plan.ini", "--noise", "storage",
                       "--trials", "10", "--out-dir", "out") == 0
        manifest = json.loads((tmp_path / "out" / "manifest_signal.json")
                              .read_text())
        recorded = Path(manifest["inputs"]["plan"]["path"])
        assert recorded.is_absolute()
        assert recorded.samefile(tmp_path / "cfg" / "plan.ini")
        assert manifest["inputs"]["plan"]["sha256"] == file_sha256(recorded)

    def test_file_changed_after_parse_keeps_the_parsed_hash(
            self, tmp_path, small_plan, monkeypatch):
        noise = tmp_path / "noise.ini"
        noise.write_text(HIGH_NOISE)
        parsed = file_sha256(noise)
        load_noise_once = memarray.cli.load_noise

        def load_then_edit(path, **kwargs):
            result = load_noise_once(path, **kwargs)
            with open(path, "a") as fh:
                fh.write("# edited after the run read it\n")
            return result

        monkeypatch.setattr(memarray.cli, "load_noise", load_then_edit)
        assert run_cli("run", "--plan", str(small_plan), "--noise", str(noise),
                       "--trials", "10", "--out-dir", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest_signal.json").read_text())
        assert manifest["inputs"]["noise"]["sha256"] == parsed
        assert file_sha256(noise) != parsed


class TestRepeatedCalls:
    """Scripts, tests and benchmarks call ``main(argv)`` many times in one
    process; no call may see the arguments or the outcome of another."""

    def test_seed_default_not_carried_over(self, tmp_path, small_plan):
        noise = tmp_path / "noise.ini"
        noise.write_text(HIGH_NOISE)
        common = ("run", "--plan", str(small_plan), "--noise", str(noise),
                  "--trials", "20")
        assert run_cli(*common, "--seed", "7",
                       "--out-dir", str(tmp_path / "a")) == 0
        assert run_cli(*common, "--out-dir", str(tmp_path / "b")) == 0
        seeds = [json.loads((tmp_path / d / "manifest_signal.json")
                            .read_text())["seed"] for d in ("a", "b")]
        assert seeds == [7, 0]

    def test_no_digest_recording_outlives_a_call(self, tmp_path, capsys):
        assert run_cli("run", "--plan", "60mode", "--noise", "storage",
                       "--trials", "10", "--out-dir", str(tmp_path)) == 0
        assert memarray.io._DIGESTS.get() is None
        assert run_cli("run", "--plan", "60mode", "--noise",
                       str(tmp_path / "missing.ini"), "--trials", "10",
                       "--out-dir", str(tmp_path)) == 2
        assert memarray.io._DIGESTS.get() is None
        # A call that fails after writing its counts file.
        (tmp_path / "fail" / "manifest_signal.json").mkdir(parents=True)
        assert run_cli("run", "--plan", "60mode", "--noise", "storage",
                       "--trials", "10", "--out-dir",
                       str(tmp_path / "fail")) == 2
        assert memarray.io._DIGESTS.get() is None
        # Calls that write outside any run.
        assert run_cli("validate", "--plan", "60mode", "--timeline",
                       str(tmp_path / "timeline.csv")) == 0
        assert run_cli("analyze", "--signal",
                       str(tmp_path / "counts_signal.csv"), "--noise",
                       str(tmp_path / "counts_signal.csv"),
                       "--out-dir", str(tmp_path / "stats")) == 2
        assert memarray.io._DIGESTS.get() is None
        assert not (tmp_path / "fail" / "counts_signal.csv").exists()

    def test_usage_error_then_valid_call(self, capsys):
        assert run_cli("validate") == 2  # --plan is required
        assert run_cli("validate", "--plan", "60mode") == 0
        assert "0 violations" in capsys.readouterr().out


class TestAnalyze:
    def make_runs(self, tmp_path, small_plan, trials="600"):
        noise = tmp_path / "noise.ini"
        noise.write_text(HIGH_NOISE)
        for mode in ("signal", "noise"):
            assert run_cli("run", "--plan", str(small_plan), "--noise",
                           str(noise), "--trials", trials, "--seed", "21",
                           "--mode", mode, "--out-dir", str(tmp_path)) == 0
        return (tmp_path / "counts_signal.csv", tmp_path / "counts_noise.csv")

    def test_snr_definition_is_unrecognized(self, tmp_path, capsys):
        # The SNR column is always c_S/c_B; there is no option to choose.
        code = run_cli("analyze", "--signal", str(tmp_path / "s.csv"),
                       "--noise", str(tmp_path / "n.csv"),
                       "--snr-definition", "ratio")
        assert code == 2
        assert ("memarray: error: unrecognized arguments: --snr-definition "
                "ratio\n") in capsys.readouterr().err

    def test_full_statistics_pipeline(self, tmp_path, small_plan, capsys):
        sig, bkg = self.make_runs(tmp_path, small_plan)
        assert run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "stats")) == 0
        stats_dir = tmp_path / "stats"
        assert len((stats_dir / "mode_stats.csv").read_text().splitlines()) == 5
        assert len((stats_dir / "cumulative.csv").read_text().splitlines()) == 5
        assert len((stats_dir / "projections.csv").read_text().splitlines()) == 3

    def test_mode_order_follows_plan(self, tmp_path, small_plan):
        # With cell_order 2, 1 the cumulative series runs in plan order,
        # while a run's keys, like the counts CSV, are in sorted order.
        small_plan.write_text(small_plan.read_text().replace(
            "cell_order = 1, 2", "cell_order = 2, 1"))
        sig, bkg = self.make_runs(tmp_path, small_plan)
        plan = load_plan(small_plan)
        assert plan.modes == ((2, 1), (2, 2), (1, 1), (1, 2))
        device = load_device(default_device_path())
        noise, _ = load_noise(tmp_path / "noise.ini",
                              default_dark_rate=device.dark_count_rate)
        run = run_trials(plan, device, noise, n_trials=50, seed=3)
        assert run.keys == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "stats")) == 0
        rows = (tmp_path / "stats" / "cumulative.csv").read_text().splitlines()
        assert [tuple(int(f) for f in row.split(",")[1:3])
                for row in rows[1:]] == list(plan.modes)

    @settings(max_examples=30, deadline=None)
    @given(totals=st.lists(st.integers(0, 10 ** 12), min_size=8, max_size=8),
           trials=st.lists(st.integers(1, 10 ** 10), min_size=2, max_size=2))
    def test_cumulative_rows_pool_integer_totals(self, tmp_path_factory,
                                                 totals, trials):
        # Each row is the running count total over the plan's mode order
        # as a Poisson rate: total / n_trials and sqrt(total) / n_trials.
        # The counts files list the modes in sorted order, not plan order.
        tmp = tmp_path_factory.getbasetemp()
        plan = tmp / "plan_2_1.ini"
        plan.write_text(SMALL_PLAN.replace("cell_order = 1, 2",
                                           "cell_order = 2, 1"))
        modes = [(2, 1), (2, 2), (1, 1), (1, 2)]
        pooled = []
        for kind, run_totals, n in (("signal", totals[:4], trials[0]),
                                    ("noise", totals[4:], trials[1])):
            (tmp / f"{kind}.csv").write_text("".join(
                [",".join(COUNTS_HEADER) + "\n"]
                + [f"{kind},{c},{c},{k},{t},{n}\n"
                   for (c, k), t in sorted(zip(modes, run_totals))]))
            pooled.append(["%.10g,%.10g" % (t / n, math.sqrt(t) / n)
                           for t in accumulate(run_totals)])
        assert run_cli("analyze", "--signal", str(tmp / "signal.csv"),
                       "--noise", str(tmp / "noise.csv"), "--plan", str(plan),
                       "--device", "10cell", "--out-dir", str(tmp / "cum")) == 0
        rows = (tmp / "cum" / "cumulative.csv").read_text().splitlines()
        assert rows[1:] == [f"{i},{c},{k},{s},{b}" for i, ((c, k), s, b)
                            in enumerate(zip(modes, *pooled), start=1)]

    @pytest.mark.parametrize("plan, reverse", [
        ("60mode", False), ("250mode", False), ("250mode", True)])
    def test_last_cumulative_row_is_the_pooled_rate(self, tmp_path, plan,
                                                    reverse):
        # cumulative.csv pools integer count totals over the plan's modes,
        # whatever their order, so its last row is sum(total) / n and
        # sqrt(sum(total)) / n of the counts files.  At 10**6 trials each
        # window is still one Poisson draw.
        text = default_plan_path(plan).read_text()
        if reverse:
            text = text.replace("cell_order = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10",
                                "cell_order = 10, 9, 8, 7, 6, 5, 4, 3, 2, 1")
            assert "cell_order = 10," in text
        plan_path = tmp_path / "plan.ini"
        plan_path.write_text(text)
        pooled = []
        for mode, seed in (("signal", "2718"), ("noise", "2719")):
            assert run_cli("run", "--plan", str(plan_path), "--noise",
                           "storage", "--mode", mode, "--trials", "1000000",
                           "--seed", seed, "--out-dir", str(tmp_path)) == 0
            with open(tmp_path / f"counts_{mode}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            total = sum(int(row["total_counts"]) for row in rows)
            n = int(rows[0]["n_trials"])
            pooled += ["%.10g" % (total / n), "%.10g" % (math.sqrt(total) / n)]
        assert run_cli("analyze", "--signal",
                       str(tmp_path / "counts_signal.csv"), "--noise",
                       str(tmp_path / "counts_noise.csv"), "--plan",
                       str(plan_path), "--device", "10cell",
                       "--out-dir", str(tmp_path / "stats")) == 0
        with open(tmp_path / "stats" / "cumulative.csv", newline="") as fh:
            last = list(csv.reader(fh))[-1]
        assert last[0] == str(len(load_plan(plan_path).modes))
        assert last[3:] == pooled

    def test_identical_inputs_give_unit_snr(self, tmp_path, small_plan):
        # A signal run whose counts equal the noise run's, line for line.
        _, bkg = self.make_runs(tmp_path, small_plan)
        same = tmp_path / "same_as_noise.csv"
        same.write_text(bkg.read_text().replace("\nnoise,", "\nsignal,"))
        assert run_cli("analyze", "--signal", str(same), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "unit")) == 0
        rows = (tmp_path / "unit" / "mode_stats.csv").read_text().splitlines()
        header = rows[0].split(",")
        snr_col = header.index("snr")
        for row in rows[1:]:
            assert float(row.split(",")[snr_col]) == 1.0

    def test_swapped_signal_and_noise_exit_two(self, tmp_path, small_plan,
                                               capsys):
        sig, bkg = self.make_runs(tmp_path, small_plan)
        code = run_cli("analyze", "--signal", str(bkg), "--noise", str(sig),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "swapped"))
        assert code == 2
        err = capsys.readouterr().err
        assert str(bkg) in err and "--signal" in err
        assert not (tmp_path / "swapped" / "mode_stats.csv").exists()

    @pytest.mark.parametrize("kind,rejected_by", [("signal", "--noise"),
                                                  ("noise", "--signal")],
                             ids=["signal", "noise"])
    def test_same_file_twice_exits_two(self, tmp_path, small_plan, capsys,
                                       kind, rejected_by):
        self.make_runs(tmp_path, small_plan)
        path = tmp_path / f"counts_{kind}.csv"
        code = run_cli("analyze", "--signal", str(path), "--noise", str(path),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "twice"))
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and rejected_by in err

    def test_failed_analyze_leaves_no_out_dir(self, tmp_path, small_plan):
        _, bkg = self.make_runs(tmp_path, small_plan)
        out = tmp_path / "stats_out"
        assert run_cli("analyze", "--signal", str(bkg), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("blocker", ["directory", "full device"])
    def test_failed_write_leaves_no_stats_files(self, tmp_path, small_plan,
                                                capsys, blocker):
        sig, bkg = self.make_runs(tmp_path, small_plan)
        capsys.readouterr()
        out = tmp_path / "stats"
        out.mkdir()
        last = out / "projections.csv"  # the last of the three
        if blocker == "directory":  # refused at open
            last.mkdir()
        elif Path("/dev/full").exists():  # opens, then fails to write
            last.symlink_to("/dev/full")
        else:
            pytest.skip("needs a device that refuses every write")
        assert run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {last}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == (
            ["projections.csv"] if blocker == "directory" else [])

    def test_failed_scan_write_leaves_no_matrix_files(self, tmp_path, capsys):
        for mode, seed in (("crosstalk", "6"), ("noise", "7")):
            assert run_cli("run", "--plan", "crosstalk", "--noise",
                           "crosstalk", "--mode", mode, "--trials", "2000",
                           "--seed", seed, "--out-dir", str(tmp_path)) == 0
        capsys.readouterr()
        out = tmp_path / "xt"
        (out / "crosstalk_summary.csv").mkdir(parents=True)  # the last one
        assert run_cli("analyze",
                       "--signal", str(tmp_path / "counts_crosstalk.csv"),
                       "--noise", str(tmp_path / "counts_noise.csv"),
                       "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "crosstalk_summary.csv" in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["crosstalk_summary.csv"]

    def test_mode_set_mismatch_exits_one(self, tmp_path, small_plan, capsys):
        sig, _ = self.make_runs(tmp_path, small_plan)
        noise_ini = tmp_path / "noise.ini"
        other_plan = tmp_path / "other_plan.ini"
        other_plan.write_text(small_plan.read_text().replace(
            "cell_order = 1, 2", "cell_order = 1, 3"))
        run_cli("run", "--plan", str(other_plan), "--noise", str(noise_ini),
                "--trials", "600", "--seed", "21", "--mode", "noise",
                "--out-dir", str(tmp_path / "other"))
        code = run_cli("analyze", "--signal", str(sig),
                       "--noise", str(tmp_path / "other" / "counts_noise.csv"),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "bad"))
        assert code == 1
        assert "(3, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("signal_plan, noise_plan, plan, at_fault, missing", [
        ("250mode", "250mode", "60mode", "signal",
         "missing in plan: 190 modes, first 10: [(1, 7), "),
        ("60mode", "60mode", "250mode", "signal",
         "missing in signal run: 190 modes, first 10: [(1, 7), "),
        ("60mode", "250mode", "60mode", "noise",
         "missing in plan: 190 modes, first 10: [(1, 7), (1, 8), (1, 9), "
         "(1, 10), (1, 11), (1, 12), (1, 13), (1, 14), (1, 15), (1, 16)]\n"),
    ], ids=["more-modes", "fewer-modes", "mixed-sizes"])
    def test_plan_of_another_size_exits_one(self, tmp_path, capsys,
                                            signal_plan, noise_plan, plan,
                                            at_fault, missing):
        # Both runs must cover exactly the plan's modes (10 cells x 6 or
        # x 25 temporal modes here), not only a subset or a superset.  Each
        # run is checked against the plan, the signal run first; the error
        # names the file at fault and cuts the list of 190 modes short.
        for mode, run_plan in (("signal", signal_plan), ("noise", noise_plan)):
            assert run_cli("run", "--plan", run_plan, "--noise", "storage",
                           "--trials", "50", "--mode", mode,
                           "--out-dir", str(tmp_path)) == 0
        capsys.readouterr()
        out = tmp_path / "stats"
        code = run_cli("analyze", "--signal", str(tmp_path / "counts_signal.csv"),
                       "--noise", str(tmp_path / "counts_noise.csv"),
                       "--plan", plan, "--device", "10cell",
                       "--out-dir", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / f'counts_{at_fault}.csv'}: "
                              f"mode sets differ: {missing}")
        assert err.count("missing in") == 1
        assert len(err.encode()) < 300
        assert not out.exists()

    def test_one_coverage_check_per_run(self, tmp_path, monkeypatch):
        # One signal/noise analyze checks each run against the plan's modes
        # once, when it pairs them, the signal run first: no later step
        # checks again.
        for mode in ("signal", "noise"):
            assert run_cli("run", "--plan", "250mode", "--noise", "storage",
                           "--trials", "50", "--mode", mode,
                           "--out-dir", str(tmp_path)) == 0
        check, sources = ModeSetMismatch.check, []

        def counted(cls, *args, **kwargs):
            call = inspect.signature(check).bind(*args, **kwargs)
            call.apply_defaults()
            sources.append(call.arguments["source"])
            return check(*args, **kwargs)

        monkeypatch.setattr(ModeSetMismatch, "check", classmethod(counted))
        assert run_cli("analyze",
                       "--signal", str(tmp_path / "counts_signal.csv"),
                       "--noise", str(tmp_path / "counts_noise.csv"),
                       "--plan", "250mode", "--device", "10cell",
                       "--out-dir", str(tmp_path / "stats")) == 0
        assert sources == ["signal", "noise"]

    def test_signal_analysis_requires_plan(self, tmp_path, small_plan, capsys):
        sig, bkg = self.make_runs(tmp_path, small_plan)
        code = run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "--plan" in capsys.readouterr().err

    def test_crosstalk_pipeline(self, tmp_path, capsys):
        run_cli("run", "--plan", "crosstalk", "--noise", "crosstalk",
                "--mode", "crosstalk", "--trials", "2000", "--seed", "6",
                "--out-dir", str(tmp_path))
        run_cli("run", "--plan", "crosstalk", "--noise", "crosstalk",
                "--mode", "noise", "--trials", "2000", "--seed", "7",
                "--out-dir", str(tmp_path))
        assert run_cli("analyze",
                       "--signal", str(tmp_path / "counts_crosstalk.csv"),
                       "--noise", str(tmp_path / "counts_noise.csv"),
                       "--out-dir", str(tmp_path / "xt")) == 0
        matrix = (tmp_path / "xt" / "crosstalk_matrix.csv").read_text().splitlines()
        assert len(matrix) == 11  # header + 10 rows
        # unit diagonal for valid rows
        for k, row in enumerate(matrix[1:], start=1):
            cells = row.split(",")
            assert cells[0] == str(k)
            assert cells[k] in ("1", "nan")

    def test_scan_noise_kind_checked(self, tmp_path, capsys):
        run_cli("run", "--plan", "crosstalk", "--noise", "crosstalk",
                "--mode", "crosstalk", "--trials", "50", "--seed", "6",
                "--out-dir", str(tmp_path))
        scan_csv = tmp_path / "counts_crosstalk.csv"
        code = run_cli("analyze", "--signal", str(scan_csv),
                       "--noise", str(scan_csv),
                       "--out-dir", str(tmp_path / "xt"))
        assert code == 2
        assert "no-input" in capsys.readouterr().err

    @pytest.mark.parametrize("plan", ["60mode", "crosstalk"])
    def test_scan_against_noise_of_another_plan_exits_one(self, tmp_path,
                                                          capsys, plan):
        run_cli("run", "--plan", "crosstalk", "--noise", "crosstalk",
                "--mode", "crosstalk", "--trials", "50", "--seed", "6",
                "--out-dir", str(tmp_path))
        run_cli("run", "--plan", plan, "--noise", "crosstalk",
                "--mode", "noise", "--trials", "50", "--seed", "7",
                "--out-dir", str(tmp_path))
        noise_csv = tmp_path / "counts_noise.csv"
        if plan == "crosstalk":  # a noise run that lacks cell 3
            noise_csv.write_text("".join(
                line for line in noise_csv.read_text().splitlines(True)
                if not line.startswith("noise,3,")))
        out = tmp_path / "xt"
        code = run_cli("analyze",
                       "--signal", str(tmp_path / "counts_crosstalk.csv"),
                       "--noise", str(noise_csv), "--out-dir", str(out))
        assert code == 1
        err = capsys.readouterr().err
        if plan == "60mode":  # six windows per cell instead of one
            assert err.startswith(f"error: {noise_csv}: mode sets differ: "
                                  f"missing in scan cells: 50 modes, first "
                                  f"10: [(1, 2), ")
        else:
            assert err == (f"error: {noise_csv}: mode sets differ: "
                           f"missing in noise run: [(3, 1)]\n")
        assert not out.exists()

    def test_scan_missing_a_pair_exits_one(self, tmp_path, capsys):
        for mode, seed in (("crosstalk", "6"), ("noise", "7")):
            assert run_cli("run", "--plan", "crosstalk", "--noise",
                           "crosstalk", "--mode", mode, "--trials", "50",
                           "--seed", seed, "--out-dir", str(tmp_path)) == 0
        scan_csv = tmp_path / "counts_crosstalk.csv"
        scan_csv.write_text("".join(
            line for line in scan_csv.read_text().splitlines(True)
            if not line.startswith("crosstalk,1,5,")))
        capsys.readouterr()
        out = tmp_path / "xt"
        code = run_cli("analyze", "--signal", str(scan_csv),
                       "--noise", str(tmp_path / "counts_noise.csv"),
                       "--out-dir", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {scan_csv}: mode sets differ: missing in scan: "
            f"[(1, 5)]\n")
        assert not out.exists()

    def test_scan_with_every_diagonal_zero_names_the_scan(self, tmp_path,
                                                          capsys):
        # A one-trial scan often sees no echo in any cell.
        cells = (1, 2)
        pairs = [(i, j) for i in cells for j in cells]
        scan = TrialCounts(RunKind.CROSSTALK, n_trials=1, keys=pairs,
                           totals=[int(i != j) for i, j in pairs])
        noise = TrialCounts(RunKind.NOISE, n_trials=1,
                            keys=[(i, 1) for i in cells], totals=[0, 0])
        scan_csv = write_counts_csv(tmp_path / "counts_crosstalk.csv", scan)
        noise_csv = write_counts_csv(tmp_path / "counts_noise.csv", noise)
        out = tmp_path / "xt"
        code = run_cli("analyze", "--signal", str(scan_csv),
                       "--noise", str(noise_csv), "--out-dir", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {scan_csv}: every scan row has a zero diagonal; "
            f"nothing to normalize\n")
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [
        ("plan", "60mode"), ("device", "/nonexistent/device.ini")])
    def test_scan_refuses_plan_and_device(self, tmp_path, capsys, option,
                                          value):
        for mode, seed in (("crosstalk", "6"), ("noise", "7")):
            assert run_cli("run", "--plan", "crosstalk", "--noise",
                           "crosstalk", "--mode", mode, "--trials", "50",
                           "--seed", seed, "--out-dir", str(tmp_path)) == 0
        capsys.readouterr()
        out = tmp_path / "xt"
        code = run_cli("analyze",
                       "--signal", str(tmp_path / "counts_crosstalk.csv"),
                       "--noise", str(tmp_path / "counts_noise.csv"),
                       f"--{option}", value, "--out-dir", str(out))
        assert code == 2
        named = default_plan_path(value) if option == "plan" else value
        assert capsys.readouterr() == ("", (
            f"error: {named}: --signal holds a cross-talk scan, whose "
            f"analysis takes no --{option}\n"))
        assert not out.exists()

    def test_help_says_why_device_has_no_default(self, capsys):
        assert run_cli("analyze", "--help") == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("analyze has no default --device: a counts file does not "
                "name the device that drew it") in text

    def test_duplicated_row_exits_two(self, tmp_path, small_plan, capsys):
        sig, bkg = self.make_runs(tmp_path, small_plan)
        lines = sig.read_text().splitlines()
        sig.write_text("\n".join(lines + [lines[2]]) + "\n")
        code = run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "dup"))
        assert code == 2
        err = capsys.readouterr().err
        assert "duplicate row" in err
        assert f"lines 3 and {len(lines) + 1}" in err

    def test_scan_pair_n_trials_mismatch_exits_two(self, tmp_path, capsys):
        for mode, seed in (("crosstalk", "6"), ("noise", "7")):
            run_cli("run", "--plan", "crosstalk", "--noise", "crosstalk",
                    "--mode", mode, "--trials", "50", "--seed", seed,
                    "--out-dir", str(tmp_path))
        scan_csv = tmp_path / "counts_crosstalk.csv"
        with scan_csv.open("a") as fh:
            fh.write("crosstalk,1,2,2,0,51\n")
        code = run_cli("analyze", "--signal", str(scan_csv),
                       "--noise", str(tmp_path / "counts_noise.csv"),
                       "--out-dir", str(tmp_path / "xt"))
        assert code == 2
        assert "inconsistent n_trials" in capsys.readouterr().err

    def test_scan_row_off_temporal_index_one_exits_two(self, tmp_path,
                                                        capsys):
        # Without the rule, analyze would add this row to pair (1, 2).
        for mode, seed in (("crosstalk", "6"), ("noise", "7")):
            run_cli("run", "--plan", "crosstalk", "--noise", "crosstalk",
                    "--mode", mode, "--trials", "2000", "--seed", seed,
                    "--out-dir", str(tmp_path))
        scan_csv = tmp_path / "counts_crosstalk.csv"
        with scan_csv.open("a") as fh:
            fh.write("crosstalk,1,2,2,0,2000\n")
        code = run_cli("analyze", "--signal", str(scan_csv),
                       "--noise", str(tmp_path / "counts_noise.csv"),
                       "--out-dir", str(tmp_path / "xt"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{scan_csv}, line 102" in err and "temporal_index 1" in err
        assert not (tmp_path / "xt").exists()

    def test_signal_row_across_cells_exits_two(self, tmp_path, small_plan,
                                               capsys):
        sig, bkg = self.make_runs(tmp_path, small_plan)
        lines = sig.read_text().splitlines()
        lines[3] = lines[3].replace("signal,2,2,", "signal,2,1,")
        sig.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "cross"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sig}, line 4" in err and "input_cell == output_cell" in err

    def test_row_with_extra_field_exits_two(self, tmp_path, small_plan,
                                            capsys):
        sig, bkg = self.make_runs(tmp_path, small_plan)
        lines = sig.read_text().splitlines()
        lines[2] += ",junk"
        sig.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "extra"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sig}, line 3" in err and "expected 6 fields, got 7" in err

    def test_overlong_field_exits_two(self, tmp_path, small_plan, capsys):
        sig, bkg = self.make_runs(tmp_path, small_plan)
        lines = sig.read_text().splitlines()
        lines[2] = lines[2].replace("signal,", "signal," + "9" * 140_000, 1)
        sig.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "long"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {sig}, line 3: bad CSV: field larger than field limit "
            f"(131072)\n")
        assert not (tmp_path / "long").exists()

    def test_nul_byte_exits_two(self, tmp_path, small_plan, capsys):
        # Python 3.10's csv reader refuses the byte; 3.11's reads it into
        # a field that is no count.  Either way the file is named.
        sig, bkg = self.make_runs(tmp_path, small_plan)
        lines = sig.read_text().splitlines()
        lines[2] = lines[2].replace("signal,", "signal,\0", 1)
        sig.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "nul"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sig}, line 3: ") and err.count("\n") == 1
        assert not (tmp_path / "nul").exists()


class TestUnreadableFiles:
    """A file that cannot be opened or is not UTF-8 exits 2 and is named."""

    @pytest.fixture(params=["directory", "latin-1"])
    def unreadable(self, request, tmp_path):
        def make(name, text):
            path = tmp_path / name
            if request.param == "directory":
                path.mkdir()
                return path, "cannot read file"
            path.write_bytes(text.encode() + "# café\n".encode("latin-1"))
            return path, "not UTF-8 text"
        return make

    def test_plan_file(self, unreadable, capsys):
        plan, reason = unreadable(
            "plan.ini", default_plan_path("60mode").read_text())
        assert run_cli("validate", "--plan", str(plan)) == 2
        assert capsys.readouterr().err.startswith(f"error: {plan}: {reason}")

    def test_missing_packaged_file(self, tmp_path, monkeypatch, capsys):
        # A packaged name whose file is gone is refused by its loader, as a
        # missing file given by its path is.
        monkeypatch.setattr(memarray.defaults, "_DATA", tmp_path)
        assert run_cli("validate", "--plan", "60mode") == 2
        assert capsys.readouterr() == (
            "", f"error: {tmp_path / 'plan_60mode.ini'}: file not found\n")

    def test_counts_file(self, unreadable, tmp_path, capsys):
        assert run_cli("run", "--plan", "60mode", "--noise", "storage",
                       "--mode", "noise", "--trials", "10",
                       "--out-dir", str(tmp_path)) == 0
        bkg = tmp_path / "counts_noise.csv"
        sig, reason = unreadable("counts_signal.csv",
                                 bkg.read_text().replace("noise,", "signal,"))
        capsys.readouterr()
        assert run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--plan", "60mode", "--device", "10cell",
                       "--out-dir", str(tmp_path / "stats")) == 2
        assert capsys.readouterr().err.startswith(f"error: {sig}: {reason}")


class TestConfigChecks:
    """Config files that parse but cannot be used exit 2 naming the file."""

    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_plan_cell_missing_from_device(self, tmp_path, capsys, command):
        plan = tmp_path / "plan.ini"
        plan.write_text(default_plan_path("60mode").read_text().replace(
            "cell_order = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10",
            "cell_order = 1, 2, 11"))
        if command == "run":
            argv = ["run", "--noise", "storage", "--trials", "10"]
        else:
            for mode in ("signal", "noise"):
                assert run_cli("run", "--plan", "60mode", "--noise", "storage",
                               "--mode", mode, "--trials", "10",
                               "--out-dir", str(tmp_path)) == 0
            argv = ["analyze", "--signal", str(tmp_path / "counts_signal.csv"),
                    "--noise", str(tmp_path / "counts_noise.csv"),
                    "--device", "10cell"]
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli(*argv, "--plan", str(plan), "--out-dir", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {plan}: plan names cells [11] that the device does not "
            f"have\n")
        assert not out.exists()

    SHIPPED = {"plan": default_plan_path("60mode"),
               "device": default_device_path(),
               "noise": default_noise_path("storage"),
               "crosstalk": default_noise_path("crosstalk")}

    def run_edited(self, tmp_path, kind, text):
        """``run`` the shipped 60mode files with the ``kind`` file replaced
        by ``text``; return the exit code and the replacement file."""
        path = tmp_path / f"{kind}.ini"
        path.write_text(text)
        files = {"plan": "60mode", "device": "10cell", "noise": "storage"}
        files["noise" if kind == "crosstalk" else kind] = str(path)
        code = run_cli("run", "--plan", files["plan"], "--device",
                       files["device"], "--noise", files["noise"],
                       "--trials", "10", "--out-dir", str(tmp_path / "out"))
        return code, path

    @pytest.mark.parametrize("kind, header", [
        ("plan", "[DEFAULT]\neta_herald = 0.7\n"),
        ("device", "[DEFAULT]\n"),
        ("noise", "[DEFAULT]\ndark_rate_hz = 15.0\n"),
    ], ids=["plan", "device", "noise"])
    def test_default_section_refused(self, tmp_path, capsys, kind, header):
        # [DEFAULT] is an ordinary section name, not keys merged into
        # every other section.
        code, path = self.run_edited(tmp_path, kind,
                                     header + self.SHIPPED[kind].read_text())
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: unexpected section")
        assert "DEFAULT" in err

    @pytest.mark.parametrize("kind, old, new, key, expected", [
        ("noise", "base_noise_per_window = 4.3e-5",
         "base_noise_per_window = nan", "base_noise_per_window",
         "expected a number, got 'nan'"),
        ("plan", "tau_us = 10.0", "tau_us = inf", "tau_us",
         "expected a number, got 'inf'"),
        ("noise", "fluorescence_amplitude = 8.0e-5",
         "fluorescence_amplitude = -inf", "fluorescence_amplitude",
         "expected a number, got '-inf'"),
        ("noise", "dark_rate_hz = 15.0", "dark_rate_hz = 1e400",
         "dark_rate_hz", "expected a number, got '1e400'"),
        ("crosstalk", "row_10 = 2.9e-05,", "row_10 = NaN,", "row_10",
         "expected comma-separated numbers, got 'NaN,"),
        ("device", "afc_calibration = 10:0.150, 25:0.0538",
         "afc_calibration = 10:0.150, 25:1e400", "afc_calibration",
         "expected 'tau:eta' pairs, got '10:0.150, 25:1e400'"),
    ], ids=["nan", "inf", "-inf", "1e400", "offresonant", "pair"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, kind, old,
                                         new, key, expected):
        text = self.SHIPPED[kind].read_text()
        assert old in text
        text = text.replace(old, new, 1)
        line = next(n for n, row in enumerate(text.splitlines(), start=1)
                    if row.startswith(new))
        code, path = self.run_edited(tmp_path, kind, text)
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}, line {line}, key '{key}': {expected}")


class TestUsage:
    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0
        assert "memarray" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        assert run_cli() == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 2

    def test_validate_help_names_the_timeline_option(self, capsys):
        # A plain validate compiles nothing, and its help says so.
        assert run_cli("--help") == 0
        out = " ".join(capsys.readouterr().out.split())
        assert ("validate check a plan's timing rules (--timeline also "
                "writes the compiled timeline)") in out
