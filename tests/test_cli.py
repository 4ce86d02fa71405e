"""End-to-end command-line tests: exit codes, artifacts, reproducibility."""

import json

import pytest

from memarray.cli import main
from memarray.defaults import (
    default_device_path,
    default_noise_path,
    default_plan_path,
)
from memarray.io import (
    file_sha256,
    load_device,
    load_noise,
    load_plan,
    read_counts_csv,
)
from memarray.simulate import RunKind, run_trials


def run_cli(*argv):
    return main(list(argv))


HIGH_NOISE = """\
[noise]
base_noise_per_window = 0.5
fluorescence_amplitude = 0.1
fluorescence_decay_us = 2.0
dark_rate_hz = 15.0
"""


@pytest.fixture
def small_plan(tmp_path):
    """Two cells, two temporal modes: fast to simulate."""
    p = tmp_path / "small_plan.ini"
    p.write_text("""\
[plan]
tau_us = 10.0
t_spin_us = 15.5
n_temporal = 2
cell_order = 1, 2
mean_photon_number = 1.03
detection_window_ns = 351
input_shape = gaussian
input_fwhm_ns = 351
""")
    return p


class TestValidate:
    def test_shipped_plan_passes(self, capsys):
        assert run_cli("validate", "--plan", "60mode") == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        assert "141 events" in out

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

    def test_timeline_export(self, tmp_path, capsys):
        out = tmp_path / "timeline.csv"
        assert run_cli("validate", "--plan", "250mode",
                       "--timeline", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 1 + 250 + 20 + 250  # header+prep+io+cps


class TestRun:
    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        code = run_cli("run", "--plan", "60mode", "--noise", "storage",
                       "--trials", "0", "--out-dir", str(tmp_path))
        assert code == 2

    def test_sixty_mode_run_row_count(self, tmp_path):
        assert run_cli("run", "--plan", "60mode", "--noise", "storage",
                       "--trials", "50", "--seed", "9",
                       "--out-dir", str(tmp_path)) == 0
        csv_path = tmp_path / "counts_signal.csv"
        assert len(csv_path.read_text().splitlines()) == 61  # header + 60
        run = read_counts_csv(csv_path)
        assert run.n_trials == 50

    def test_manifest_inventory(self, tmp_path):
        run_cli("run", "--plan", "60mode", "--noise", "storage",
                "--trials", "20", "--seed", "4", "--out-dir", str(tmp_path))
        manifest = json.loads((tmp_path / "manifest_signal.json").read_text())
        counts = tmp_path / "counts_signal.csv"
        assert manifest["outputs"]["counts_signal.csv"] == file_sha256(counts)
        assert manifest["seed"] == 4 and manifest["trials"] == 20
        assert manifest["engine"] == "poisson-total"
        assert manifest["resolved"]["plan"]["storage"]["tau"] == 10.0
        assert "duration_seconds" in manifest

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
        # sampler's ~9.2e18 limit on a window's mean.
        code = run_cli("run", "--plan", "60mode", "--noise", "storage",
                       "--trials", str(10 ** 25), "--out-dir", str(tmp_path))
        assert code == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "counts_signal.csv").exists()

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

    def test_failed_run_leaves_no_out_dir(self, tmp_path, capsys):
        p = tmp_path / "over.ini"
        p.write_text(default_plan_path("60mode").read_text().replace(
            "n_temporal = 6", "n_temporal = 7\nmode_period_us = 1.0833"))
        out = tmp_path / "runout"
        assert run_cli("run", "--plan", str(p), "--noise", "storage",
                       "--trials", "10", "--out-dir", str(out)) == 1
        assert not out.exists()

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
        assert len(scan.counts) == 100


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
        # With cell_order 2, 1 the run's keys and the cumulative series run
        # in plan order, not in the sorted order of the counts CSV.
        small_plan.write_text(small_plan.read_text().replace(
            "cell_order = 1, 2", "cell_order = 2, 1"))
        sig, bkg = self.make_runs(tmp_path, small_plan)
        plan = load_plan(small_plan)
        assert plan.modes == ((2, 1), (2, 2), (1, 1), (1, 2))
        device = load_device(default_device_path())
        noise, _ = load_noise(tmp_path / "noise.ini",
                              default_dark_rate=device.dark_count_rate)
        run = run_trials(plan, device, noise, n_trials=50, seed=3)
        assert list(run.counts) == list(plan.modes)
        assert run_cli("analyze", "--signal", str(sig), "--noise", str(bkg),
                       "--plan", str(small_plan), "--device", "10cell",
                       "--out-dir", str(tmp_path / "stats")) == 0
        rows = (tmp_path / "stats" / "cumulative.csv").read_text().splitlines()
        assert [tuple(int(f) for f in row.split(",")[1:3])
                for row in rows[1:]] == list(plan.modes)

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

    @pytest.mark.parametrize("run_plan, plan, missing", [
        ("250mode", "60mode", "missing in plan {}: [(1, 7), "),
        ("60mode", "250mode", "missing in counts: [(1, 7), "),
    ], ids=["more-modes", "fewer-modes"])
    def test_plan_of_another_size_exits_one(self, tmp_path, capsys, run_plan,
                                            plan, missing):
        # Both runs must cover exactly the plan's modes (10 cells x 6 or
        # x 25 temporal modes here), not only a subset or a superset.
        for mode in ("signal", "noise"):
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
        assert err.startswith("error: mode sets differ: " + missing.format(
            default_plan_path(plan)))
        assert err.count("missing in") == 1
        assert not out.exists()

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
            assert "missing in signal run: [(1, 2)," in err
        else:
            assert "missing in noise run: [(3, 1)]" in err
        assert not out.exists()

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
