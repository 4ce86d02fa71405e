"""Config parsing, CSV round-trip and manifest tests."""

import csv
import dataclasses
import hashlib
import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import csv_oracle
import ini_oracle
import memarray.io
from memarray.analysis import CrossTalkMatrix, ModeStats, NetworkProjection
from memarray.cli import main
from memarray.defaults import (
    NOISE_MODELS,
    PLANS,
    data_path,
    default_device_path,
    default_noise_path,
    default_plan_path,
)
from memarray.device import ArrayDevice, CellParams
from memarray.errors import ConfigError
from memarray.io import (
    COUNTS_HEADER,
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
from memarray.sequence import (
    EventKind,
    PulseKind,
    SequencePlan,
    TimelineEvent,
    compile_plan,
)
from memarray.simulate import NoiseParams, RunKind, TrialCounts


def _run(kind, table: dict, n_trials: int) -> TrialCounts:
    """The run of ``table``'s totals by key."""
    return TrialCounts(kind=kind, keys=tuple(table),
                       totals=tuple(table.values()), n_trials=n_trials)


DEVICE_SNIPPET = """\
[array]
eta_detection_path = 0.14
dark_count_rate_hz = 15.0

[cell 1]
cell_id = 1
eta_mux = 0.9
eta_demux = 0.8
eta_fiber = 0.5
eta_transfer = 0.25
afc_calibration = 10:0.15, 25:0.05
"""


class TestDataPath:
    NAMES = (["device_10cell.ini"] + [f"plan_{p}.ini" for p in PLANS]
             + ["noise_storage.ini", "noise_crosstalk.ini"])

    @pytest.mark.parametrize("name", NAMES)
    def test_same_path_as_the_package_resource(self, name):
        resource = resources.files("memarray").joinpath("data", name)
        assert data_path(name) == Path(str(resource))

    @pytest.mark.parametrize("lookup, message", [
        (default_plan_path, "unknown plan 'plan_60mode'; choose from "
                            "('60mode', '250mode', 'crosstalk')"),
        (default_noise_path, "unknown noise model 'plan_60mode'; choose "
                             "from ('storage', 'crosstalk')"),
    ])
    def test_unknown_name_refused(self, lookup, message):
        with pytest.raises(ValueError) as err:
            lookup("plan_60mode")
        assert str(err.value) == message


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestFileDigests:
    def test_each_parsed_file_recorded(self, tmp_path):
        paths = [default_plan_path("crosstalk"), default_device_path(),
                 default_noise_path("crosstalk"), tmp_path / "counts.csv"]
        paths[3].write_text(",".join(COUNTS_HEADER) + "\nnoise,1,1,1,3,5\n")
        with file_digests() as digests:
            load_plan(paths[0])
            load_device(str(paths[1]))  # keyed by Path either way
            load_noise(paths[2])
            read_counts_csv(str(paths[3]))
        assert digests == {p: _sha256(p) for p in paths}

    @pytest.mark.parametrize("read", [load_plan, load_device, load_noise,
                                      read_counts_csv])
    def test_str_and_path_alike(self, tmp_path, read):
        good = {load_plan: default_plan_path("60mode"),
                load_device: default_device_path(),
                load_noise: default_noise_path("storage")}.get(read)
        if good is None:
            good = write_counts_csv(tmp_path / "counts.csv",
                                    _run(RunKind.NOISE, {(1, 1): 3}, 5))
        bad = tmp_path / "bad"
        bad.write_text("oops\n")
        keys, at_fault = [], []
        for given in (str, Path):
            with file_digests() as digests:
                read(given(good))
            keys.append([*digests])
            with pytest.raises(ConfigError) as err:
                read(given(bad))
            at_fault.append(err.value.path)
        assert keys == [[good], [good]]
        assert at_fault == [bad, bad]

    def test_writer_returns_a_path_for_str_or_path(self, tmp_path):
        p = tmp_path / "manifest.json"
        with file_digests() as digests:
            got = [write_manifest(given(p), {"a": 1}) for given in (str, Path)]
        assert got == [p, p]
        assert [*digests] == [p]

    def test_digest_is_of_the_parsed_bytes(self, tmp_path):
        p = tmp_path / "device.ini"
        p.write_bytes(DEVICE_SNIPPET.replace("\n", "\r\n").encode())
        with file_digests() as digests:
            device = load_device(p)
        assert device.eta_detection_path == 0.14  # CRLF parses as LF
        assert digests[p] == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_each_written_file_recorded(self, tmp_path):
        run = _run(RunKind.NOISE, {(1, 1): 3}, 5)
        with file_digests() as digests:
            counts = write_counts_csv(str(tmp_path / "counts.csv"), run)
            manifest = write_manifest(tmp_path / "manifest.json", {"a": 1})
            counts.write_text("edited after the write\n")
        assert digests == {
            counts: hashlib.sha256(csv_oracle.counts_bytes(run)).hexdigest(),
            manifest: _sha256(manifest)}

    def test_nothing_recorded_outside_the_block(self, tmp_path):
        p = tmp_path / "device.ini"
        p.write_text(DEVICE_SNIPPET)
        with file_digests() as digests:
            pass
        load_device(p)
        write_manifest(tmp_path / "manifest.json", {})
        assert digests == {}

    def test_unreadable_file_not_recorded(self, tmp_path):
        with file_digests() as digests, pytest.raises(ConfigError):
            load_plan(tmp_path / "missing.ini")
        assert digests == {}

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs a device that refuses every write")
    def test_failed_write_not_recorded(self, tmp_path):
        full = tmp_path / "manifest.json"
        full.symlink_to("/dev/full")  # opens, then fails to write
        with file_digests() as digests, pytest.raises(OSError):
            written = write_manifest(tmp_path / "first.json", {})
            write_manifest(full, {"text": "x" * 100_000})
        assert digests == {written: _sha256(written)}

    def test_block_that_raises_records_until_the_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(COUNTS_HEADER) + "\nbogus,1,1,1,5,10\n")
        with pytest.raises(ConfigError):
            with file_digests() as digests:
                load_device(default_device_path())
                read_counts_csv(bad)  # parsed bytes, refused rows
        assert memarray.io._DIGESTS.get() is None
        assert digests == {default_device_path(): _sha256(
            default_device_path()), bad: _sha256(bad)}

    def test_block_that_raises_removes_what_it_wrote(self, tmp_path):
        run = _run(RunKind.NOISE, {(1, 1): 3}, 5)
        with pytest.raises(RuntimeError):
            with file_digests() as digests:
                written = [write_counts_csv(tmp_path / "counts.csv", run),
                           write_manifest(tmp_path / "manifest.json", {})]
                raise RuntimeError("not an OSError")
        assert set(digests) == set(written)
        assert list(tmp_path.iterdir()) == []

    def test_block_that_raises_leaves_what_it_did_not_write(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text(",".join(COUNTS_HEADER) + "\nnoise,1,1,1,3,5\n")
        with file_digests():
            earlier = write_manifest(tmp_path / "earlier.json", {"a": 1})
            with pytest.raises(RuntimeError):
                with file_digests() as digests:
                    read_counts_csv(counts)
                    load_device(default_device_path())
                    write_manifest(tmp_path / "manifest.json", {})
                    raise RuntimeError
            assert len(digests) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "counts.csv", "earlier.json"]
        assert earlier.read_text() == '{\n  "a": 1\n}\n'

    def test_nested_block_records_into_the_enclosing_one(self, tmp_path):
        with pytest.raises(RuntimeError):
            with file_digests() as outer:
                with file_digests() as inner:
                    load_device(default_device_path())
                    written = write_manifest(tmp_path / "manifest.json", {})
                assert outer == inner == {
                    default_device_path(): _sha256(default_device_path()),
                    written: _sha256(written)}
                raise RuntimeError
        assert not written.exists()

    def test_failed_crosstalk_write_leaves_none_of_the_three(self, tmp_path):
        xtalk = CrossTalkMatrix(
            cell_ids=(1, 2), c=((1.0, 0.1), (0.2, 1.0)),
            c_err=((0.0, 0.01), (0.02, 0.0)), mean_offdiagonal=0.15,
            noise_contribution={1: 0.0, 2: 0.0}, invalid_rows=())
        (tmp_path / "summary.csv").mkdir()  # the last of the three fails
        with pytest.raises(OSError):
            write_crosstalk_csvs(tmp_path / "matrix.csv", tmp_path / "err.csv",
                                 tmp_path / "summary.csv", xtalk)
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]


class TestLoadDevice:
    def test_shipped_default(self):
        device = load_device(default_device_path())
        assert [c.cell_id for c in device.cells] == list(range(1, 11))
        assert device.eta_detection_path == 0.14
        assert device.dark_count_rate == 15.0

    def test_minimal_file(self, tmp_path):
        p = tmp_path / "dev.ini"
        p.write_text(DEVICE_SNIPPET)
        device = load_device(p)
        assert device.cell(1).afc_calibration == ((10.0, 0.15), (25.0, 0.05))

    def test_unknown_key_names_line(self, tmp_path):
        p = tmp_path / "dev.ini"
        p.write_text(DEVICE_SNIPPET + "frobnicate = 1\n")
        with pytest.raises(ConfigError) as err:
            load_device(p)
        assert err.value.key == "frobnicate"
        assert err.value.line == len(DEVICE_SNIPPET.splitlines()) + 1

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "dev.ini"
        p.write_text(DEVICE_SNIPPET.replace("eta_fiber = 0.5\n", ""))
        with pytest.raises(ConfigError, match="eta_fiber"):
            load_device(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_device(tmp_path / "nope.ini")

    def test_comment_only_file(self, tmp_path):
        p = tmp_path / "dev.ini"
        p.write_text("# nothing here\n")
        with pytest.raises(ConfigError, match="no sections"):
            load_device(p)

    def test_bad_number_names_line(self, tmp_path):
        p = tmp_path / "dev.ini"
        p.write_text(DEVICE_SNIPPET.replace("eta_mux = 0.9", "eta_mux = wat"))
        with pytest.raises(ConfigError) as err:
            load_device(p)
        assert err.value.key == "eta_mux"
        assert err.value.line is not None


class TestLoadPlan:
    def test_shipped_sixty_mode(self):
        plan = load_plan(default_plan_path("60mode"))
        assert plan.tau == 10.0 and plan.t_spin == 15.5
        assert plan.n_temporal == 6
        assert plan.cell_order == tuple(range(1, 11))
        assert plan.input_shape is PulseKind.GAUSSIAN
        assert plan.input_fwhm == 351.0
        assert plan.eta_herald == 0.7 and plan.g2_source == 100.0
        assert plan.mode_period is None  # compiler fills the comb window

    def test_optional_keys_take_the_plan_defaults(self, tmp_path):
        p = tmp_path / "plan.ini"
        p.write_text("".join(
            line for line in default_plan_path("60mode").read_text()
            .splitlines(keepends=True)
            if not line.startswith(("eta_herald", "g2_source"))))
        plan = load_plan(p)
        defaults = {f.name: f.default for f in dataclasses.fields(SequencePlan)}
        assert plan.eta_herald == defaults["eta_herald"]
        assert plan.g2_source == defaults["g2_source"]

    def test_shipped_crosstalk_plan_overrides_capture(self):
        plan = load_plan(default_plan_path("crosstalk"))
        assert plan.n_temporal == 1
        assert plan.capture_override == 0.57
        assert plan.mean_photon_number == 0.95

    def test_bad_shape_rejected(self, tmp_path):
        p = tmp_path / "plan.ini"
        p.write_text(default_plan_path("60mode").read_text().replace(
            "input_shape = gaussian", "input_shape = triangle"))
        with pytest.raises(ConfigError) as err:
            load_plan(p)
        assert err.value.key == "input_shape"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "plan.ini"
        p.write_text(default_plan_path("60mode").read_text()
                     + "wibble = 3\n")
        with pytest.raises(ConfigError) as err:
            load_plan(p)
        assert err.value.key == "wibble"

    def test_needs_plan_section(self, tmp_path):
        p = tmp_path / "plan.ini"
        p.write_text("[storage]\ntau_us = 10\n")
        with pytest.raises(ConfigError, match=r"\[plan\]"):
            load_plan(p)


class TestLoadNoise:
    def test_storage_noise_has_no_leakage(self):
        noise, leak = load_noise(default_noise_path("storage"))
        assert leak is None
        assert noise.base_noise_per_window == 4.3e-5
        assert noise.fluorescence_amplitude == 8.0e-5
        assert noise.fluorescence_decay == 2.0
        assert noise.dark_rate == 15.0
        assert noise.offresonant_echo_leak == {}

    def test_crosstalk_noise_matrices(self):
        noise, leak = load_noise(default_noise_path("crosstalk"))
        assert leak is not None
        assert leak.cell_ids == tuple(range(1, 11))
        assert all(leak.leak(i, i) == 1.0 for i in range(1, 11))
        # distant pairs ride on the off-resonant table, not the leakage
        assert leak.leak(10, 1) == 0.0
        assert noise.offresonant_echo_leak[(10, 1)] == 2.9e-5
        assert (1, 1) not in noise.offresonant_echo_leak  # zero diagonal

    def test_dark_rate_falls_back_to_device(self, tmp_path):
        p = tmp_path / "noise.ini"
        p.write_text("[noise]\nbase_noise_per_window = 1e-5\n"
                     "fluorescence_amplitude = 0\n"
                     "fluorescence_decay_us = 2.0\n")
        noise, _ = load_noise(p, default_dark_rate=42.0)
        assert noise.dark_rate == 42.0
        with pytest.raises(ConfigError, match="dark_rate_hz"):
            load_noise(p)

    def test_ragged_matrix_rejected(self, tmp_path):
        p = tmp_path / "noise.ini"
        p.write_text("[noise]\nbase_noise_per_window = 0\n"
                     "fluorescence_amplitude = 0\n"
                     "fluorescence_decay_us = 2.0\ndark_rate_hz = 0\n"
                     "[leakage]\nrow_1 = 1, 0\nrow_2 = 0.1, 1, 0.3\n")
        with pytest.raises(ConfigError) as err:
            load_noise(p)
        assert err.value.key == "row_2"

    @pytest.mark.parametrize("section, rows", [
        ("offresonant", "row_1 = 0, 0.001\nrow_2 = 0.002, 0\nrow_01 = 0.5, 0\n"),
        ("leakage", "row_1 = 1, 0.01\nrow_2 = 0.02, 1\nrow_01 = 1, 0.5\n"),
    ], ids=["offresonant", "leakage"])
    def test_repeated_matrix_row_refused(self, tmp_path, section, rows):
        # row_1 and row_01 both name cell 1.
        p = tmp_path / "noise.ini"
        text = _SMALL_NOISE.split("[leakage]")[0] + f"[{section}]\n" + rows
        p.write_text(text)
        lines = text.splitlines()
        first, second = lines.index(rows.split("\n")[0]) + 1, len(lines)
        with pytest.raises(ConfigError) as err:
            load_noise(p)
        assert (err.value.path, err.value.key, err.value.line) == (
            p, "row_01", second)
        assert (f"two rows for cell 1: row_1 on line {first} and row_01 on "
                f"line {second}") in str(err.value)

    def test_leakage_value_error_names_file(self, tmp_path):
        p = tmp_path / "noise.ini"
        p.write_text(default_noise_path("crosstalk").read_text().replace(
            "row_3 = 0.00493, 0.0329, 1,", "row_3 = 0.00493, 0.0329, 0.9,"))
        with pytest.raises(ConfigError, match="cell 3 has 0.9") as err:
            load_noise(p)
        assert err.value.path == p

    def test_offresonant_table_is_read_only(self):
        noise, _ = load_noise(default_noise_path("crosstalk"))
        with pytest.raises(TypeError):
            noise.offresonant_echo_leak[(1, 1)] = 5.0
        assert (1, 1) not in load_noise(
            default_noise_path("crosstalk"))[0].offresonant_echo_leak


_PLAN_60 = default_plan_path("60mode").read_text()


class TestParsedOncePerText:
    """A loader reads and hashes its file on every call and parses each
    distinct text once per process; it never keeps a refusal."""

    def test_a_second_load_of_one_text_parses_nothing(self, tmp_path,
                                                      monkeypatch):
        memarray.io._parsed.cache_clear()
        scans = []
        scan = memarray.io._load_ini
        monkeypatch.setattr(memarray.io, "_load_ini",
                            lambda text: scans.append(text) or scan(text))
        text = _PLAN_60.replace("tau_us = 10.0", "tau_us = 10.5")
        paths = [tmp_path / "a.ini", tmp_path / "b.ini"]
        for path in paths:
            path.write_text(text)
        plans = [load_plan(p) for p in paths + paths]
        assert scans == [text]
        assert all(plan is plans[0] for plan in plans)

    def test_edited_file_loads_to_the_new_record(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text(_PLAN_60)
        assert load_plan(path).tau == 10.0
        path.write_text(_PLAN_60.replace("tau_us = 10.0", "tau_us = 10.5"))
        assert load_plan(path).tau == 10.5

    def test_bad_file_is_refused_on_every_call(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text(_PLAN_60.replace("tau_us = 10.0", "tau_us = -1"))
        messages = []
        for _ in range(2):
            with pytest.raises(ConfigError) as err:
                load_plan(path)
            messages.append(str(err.value))
        assert messages == [f"{path}: tau must be finite and positive, "
                            f"got -1.0"] * 2

    @pytest.mark.parametrize("bad", [
        _PLAN_60.replace("tau_us = 10.0", "tau_us = ten"), "oops\n"],
        ids=["value", "syntax"])
    def test_same_bad_bytes_refused_under_each_path(self, tmp_path, bad):
        paths = [tmp_path / "a.ini", tmp_path / "b.ini"]
        for path in paths:
            path.write_text(bad)
        at_fault, messages = [], []
        for path in paths:
            with pytest.raises(ConfigError) as err:
                load_plan(path)
            at_fault.append(err.value.path)
            messages.append(str(err.value))
        assert at_fault == paths
        assert messages[0].startswith(f"{paths[0]}, line ")
        assert messages[1] == messages[0].replace(str(paths[0]), str(paths[1]))

    def test_same_good_bytes_load_to_equal_records(self, tmp_path):
        text = default_noise_path("crosstalk").read_text()
        paths = [tmp_path / "a.ini", tmp_path / "b.ini"]
        for path in paths:
            path.write_text(text)
        first, second = (load_noise(p) for p in paths)
        assert first == second == load_noise(default_noise_path("crosstalk"))

    def test_default_dark_rate_is_part_of_the_key(self, tmp_path):
        path = tmp_path / "noise.ini"
        path.write_text("[noise]\nbase_noise_per_window = 1e-5\n"
                        "fluorescence_amplitude = 0\n"
                        "fluorescence_decay_us = 2.0\n")
        rates = [load_noise(path, default_dark_rate=r)[0].dark_rate
                 for r in (42.0, 7.0, 42.0, 7)]
        assert rates == [42.0, 7.0, 42.0, 7]
        assert type(rates[3]) is int

    def test_a_second_load_records_the_digest(self, tmp_path):
        path = tmp_path / "device.ini"
        path.write_text(default_device_path().read_text())
        load_device(path)
        with file_digests() as digests:
            load_device(path)
        assert digests == {path: _sha256(path)}

    def test_two_same_seed_runs_in_one_process(self, tmp_path):
        names = {"plan": default_plan_path("crosstalk"),
                 "device": default_device_path(),
                 "noise": default_noise_path("crosstalk")}
        argv = ["run", "--mode", "crosstalk", "--trials", "300", "--seed",
                "5"]
        for name, shipped in names.items():
            copy = tmp_path / f"{name}.ini"
            copy.write_text(shipped.read_text())
            argv += [f"--{name}", str(copy)]
        counts, manifests = [], []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(argv + ["--out-dir", str(out)]) == 0
            counts.append((out / "counts_crosstalk.csv").read_bytes())
            manifest = json.loads((out / "manifest_crosstalk.json").read_text())
            del manifest["duration_seconds"]
            manifests.append(manifest)
        assert counts[0] == counts[1]
        assert manifests[0] == manifests[1]


@pytest.mark.parametrize("schema, record, unread", [
    (memarray.io._PLAN, SequencePlan, set()),
    (memarray.io._CELL, CellParams, set()),
    (memarray.io._ARRAY, ArrayDevice, {"cells"}),
    (memarray.io._NOISE, NoiseParams, {"offresonant_echo_leak"}),
], ids=["plan", "cell", "array", "noise"])
def test_each_key_fills_one_field_of_one_record(schema, record, unread):
    # The cells are the [cell N] sections, and the off-resonant leak the
    # [offresonant] matrix; every other field has exactly one key.
    keys, _ = schema
    assert sorted(spec.field for spec in keys.values()) == sorted(
        f.name for f in dataclasses.fields(record)
        if f.init and f.name not in unread)


_SMALL_NOISE = ("[noise]\nbase_noise_per_window = 0\n"
                "fluorescence_amplitude = 0\nfluorescence_decay_us = 2.0\n"
                "dark_rate_hz = 0\n[leakage]\nrow_1 = 1, 0\nrow_2 = 0.1, 1\n")
_LOADERS = {"device": (load_device, default_device_path),
            "plan": (load_plan, lambda: default_plan_path("60mode")),
            "noise": (load_noise, None)}


def _edited(tmp_path, kind, old, new):
    """Write a config file with one line replaced; return the loader,
    the file and the number of the replaced line."""
    loader, default = _LOADERS[kind]
    text = _SMALL_NOISE if default is None else default().read_text()
    assert old in text
    text = text.replace(old, new, 1)
    path = tmp_path / f"{kind}.ini"
    path.write_text(text)
    line = text.splitlines().index(new) + 1
    return loader, path, line


# (kind, old line, new line, ConfigError key, message): each file parses
# but holds a value its loader refuses.
_VALUE_ERRORS = [
    ("device", "eta_mux = 0.862", "eta_mux = 1.5", None,
     "device.ini: cell 1: eta_mux must be a fraction in [0, 1], got 1.5"),
    ("device", "eta_detection_path = 0.14", "eta_detection_path = 2",
     None, "eta_detection_path must be a fraction in [0, 1], got 2.0"),
    ("plan", "tau_us = 10.0", "tau_us = -1", None,
     "tau must be finite and positive, got -1.0"),
    ("plan", "eta_herald = 0.7", "eta_herald = 1.5", None,
     "eta_herald must be a fraction in [0, 1], got 1.5"),
    ("noise", "base_noise_per_window = 0", "base_noise_per_window = -1",
     None, "base_noise_per_window must be finite and >= 0, got -1.0"),
    # No main section.  [offresonant] is a known section of a noise
    # file, so only the missing [noise] refuses it.
    ("device", "[array]", "[arrays]", None,
     "device file needs an [array] section"),
    ("noise", "[noise]", "[offresonant]", None,
     "noise file needs a [noise] section"),
    # Cells 1 and 2 both read cell_id = 1.
    ("device", "cell_id = 2", "cell_id = 1", "cell_id",
     "device.ini, line 29, key 'cell_id': two sections for cell 1: "
     "[cell 1] on line 21 and [cell 2] on line 29"),
    ("device", "cell_id = 1", "cell_id = 0", None,
     "device.ini: cell_id must be >= 1, got 0"),
    ("device", "afc_calibration = 10:0.150, 25:0.0538",
     "afc_calibration = 10:0.150, 10:0.1", None,
     "device.ini: cell 1: duplicate calibration tau"),
    ("device", "afc_calibration = 10:0.150, 25:0.0538",
     "afc_calibration = 10:1.5, 25:0.0538", None,
     "device.ini: cell 1: AFC efficiencies must be in (0, 1]"),
    # g2_source has a default, so its line can make room for the key.
    ("plan", "g2_source = 100.0", "capture_override = 0.5", None,
     "capture_override is only meaningful for lorentzian pulses"),
    ("plan", "cell_order = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10",
     "cell_order = 0, 2, 3, 4, 5, 6, 7, 8, 9, 10", None,
     "cell ids must be >= 1"),
]


_SHIPPED = ([(load_device, default_device_path())]
            + [(load_plan, default_plan_path(p)) for p in PLANS]
            + [(load_noise, default_noise_path(n)) for n in NOISE_MODELS])
# The keys a file may leave out: their record fields have defaults.
_OPTIONAL_KEYS = {"mode_period_us", "capture_override", "eta_herald",
                  "g2_source"}
_KEY_LINE = re.compile(r"^(\w+)\s*[=:]")


def _mutations(text):
    """Every one-fault edit of a config file's text, as (fault, key, line,
    edited text): each key line given a value no key accepts ("value"),
    removed ("drop") or repeated on the next line ("repeat"), and an
    unknown key on the line after each section header ("unknown").  The
    line is the one a diagnostic should name; None for a dropped key."""
    lines = text.splitlines(keepends=True)
    for i, row in enumerate(lines):
        before, after = "".join(lines[:i]), "".join(lines[i + 1:])
        if row.startswith("["):
            yield ("unknown", "frobnicate", i + 2,
                   before + row + "frobnicate = 1\n" + after)
        elif m := _KEY_LINE.match(row):
            key = m.group(1)
            yield "value", key, i + 1, before + f"{key} = wat\n" + after
            yield "drop", key, None, before + after
            yield "repeat", key, i + 2, before + row + row + after


_UNKNOWN, _MISSING = "unknown key", "missing required key"
# (kind, (old, new) edits, key reported, fault): files with several faults
# in one section.  An unknown key, the first in file order, comes before a
# missing key, the first in sorted order, and that before a value that does
# not parse.
_PRECEDENCE = [
    ("plan", [("tau_us = 10.0\n", ""),
              ("g2_source = 100.0", "g2_source = 100.0\nwibble = 1\nwobble = 2")],
     "wibble", _UNKNOWN),
    ("plan", [("tau_us = 10.0", "tau_us = wat"), ("n_temporal = 6\n", "")],
     "n_temporal", _MISSING),
    ("plan", [("tau_us = 10.0\n", ""),
              ("cell_order = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10\n", "")],
     "cell_order", _MISSING),
    ("device", [("eta_fiber = 0.26\n", ""),
                ("25:0.0538\n", "25:0.0538\nfrobnicate = 1\nwobble = 2\n")],
     "frobnicate", _UNKNOWN),
    ("device", [("eta_mux = 0.862", "eta_mux = wat"),
                ("afc_calibration = 10:0.150, 25:0.0538\n", "")],
     "afc_calibration", _MISSING),
    ("device", [("eta_mux = 0.862\n", ""),
                ("afc_calibration = 10:0.150, 25:0.0538\n", "")],
     "afc_calibration", _MISSING),
    ("noise", [("fluorescence_decay_us = 2.0\n", ""),
               ("dark_rate_hz = 15.0", "dark_rate_hz = 15.0\nfrobnicate = 1\n"
                                       "wobble = 2")],
     "frobnicate", _UNKNOWN),
    ("noise", [("base_noise_per_window = 4.3e-5", "base_noise_per_window = wat"),
               ("fluorescence_decay_us = 2.0\n", "")],
     "fluorescence_decay_us", _MISSING),
    ("noise", [("fluorescence_decay_us = 2.0\n", ""),
               ("fluorescence_amplitude = 8.0e-5\n", "")],
     "fluorescence_amplitude", _MISSING),
]


class TestDiagnostics:
    """Every parse and value error names the file; parse errors also name
    the key and the line and say what was expected."""

    @pytest.mark.parametrize("kind, old, new, key, expected", [
        ("device", "eta_mux = 0.862", "eta_mux = wat", "eta_mux",
         "expected a number, got 'wat'"),
        ("plan", "n_temporal = 6", "n_temporal = 2.5", "n_temporal",
         "expected an integer, got '2.5'"),
        ("plan", "cell_order = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10",
         "cell_order = 1, x", "cell_order",
         "expected comma-separated integers, got '1, x'"),
        ("noise", "row_2 = 0.1, 1", "row_2 = 1, y", "row_2",
         "expected comma-separated numbers, got '1, y'"),
        ("device", "afc_calibration = 10:0.150, 25:0.0538",
         "afc_calibration = 10-0.1, 25:0.05", "afc_calibration",
         "expected 'tau:eta' pairs, got '10-0.1, 25:0.05'"),
        ("plan", "input_shape = gaussian", "input_shape = triangle",
         "input_shape", None),
        ("noise", "row_2 = 0.1, 1", "col_2 = 0.1, 1", "col_2",
         "expected row_<cell_id> keys in [leakage]"),
    ])
    def test_parse_error_names_key_and_line(self, tmp_path, kind, old, new,
                                            key, expected):
        loader, path, line = _edited(tmp_path, kind, old, new)
        with pytest.raises(ConfigError) as err:
            loader(path)
        assert err.value.path == path
        assert err.value.key == key
        assert err.value.line == line
        if expected is not None:
            assert expected in str(err.value)

    @pytest.mark.parametrize(
        "kind, old, new, key, message", _VALUE_ERRORS,
        ids=["-".join(map(str, row[:4])) for row in _VALUE_ERRORS])
    def test_value_error_names_file(self, tmp_path, kind, old, new, key,
                                    message):
        loader, path, _ = _edited(tmp_path, kind, old, new)
        with pytest.raises(ConfigError) as err:
            loader(path)
        assert err.value.path == path
        assert err.value.key == key
        assert message in str(err.value)

    @pytest.mark.parametrize("loader, text, message", [
        (load_device, "[array]\neta_detection_path = 0.14\n"
                      "dark_count_rate_hz = 15.0\n",
         "a device needs at least one cell"),
        (load_noise, _SMALL_NOISE.split("[leakage]")[0] + "[leakage]\n",
         "leakage matrix needs at least one cell"),
    ], ids=["device-no-cell", "noise-empty-leakage"])
    def test_empty_section_refused(self, tmp_path, loader, text, message):
        path = tmp_path / "config.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message) as err:
            loader(path)
        assert err.value.path == path

    @pytest.mark.parametrize("loader, shipped", _SHIPPED,
                             ids=[path.stem for _, path in _SHIPPED])
    def test_every_one_line_fault_is_refused(self, tmp_path, loader, shipped):
        # Each key line of a shipped file given a bad value, removed or
        # repeated, and an unknown key opening each section: the loader
        # raises a ConfigError naming the file, and for a fault on a line
        # the key and the line too, or, for an optional key removed, loads.
        path = tmp_path / shipped.name
        for fault, key, line, text in _mutations(shipped.read_text()):
            path.write_text(text)
            try:
                loader(path)
                got = None
            except ConfigError as exc:
                got = (exc.path, exc.key, exc.line)
            case = (fault, key, line, got)
            if fault != "drop":
                assert got == (path, key, line), case
            elif key in _OPTIONAL_KEYS:
                assert got is None, case
            elif key.startswith("row_"):  # a row too long for the rest
                assert got[0] == path and got[1].startswith("row_"), case
                assert got[2] is not None, case
            else:
                assert got == (path, key, None), case

    @pytest.mark.parametrize(
        "kind, edits, key, fault", _PRECEDENCE,
        ids=[f"{row[0]}-{rule}" for row, rule in zip(_PRECEDENCE, [
            "unknown-first", "missing-before-value", "sorted-missing"] * 3)])
    def test_first_fault_reported(self, tmp_path, kind, edits, key, fault):
        loader, default = _LOADERS[kind]
        text = (default_noise_path("storage") if default is None
                else default()).read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        path = tmp_path / f"{kind}.ini"
        path.write_text(text)
        keys = [row.split("=")[0].strip() for row in text.splitlines()]
        with pytest.raises(ConfigError, match=fault) as err:
            loader(path)
        assert (err.value.path, err.value.key, err.value.line) == (
            path, key, keys.index(key) + 1 if fault == _UNKNOWN else None)


class TestGrammar:
    """The config file syntax every loader accepts or refuses."""

    def write(self, tmp_path, old, new):
        text = default_plan_path("60mode").read_text()
        assert old in text
        path = tmp_path / "plan.ini"
        path.write_text(text.replace(old, new, 1))
        return path

    def test_colon_delimiter(self, tmp_path):
        plan = load_plan(self.write(tmp_path, "tau_us = 10.0", "tau_us: 25.0"))
        assert plan.tau == 25.0

    def test_inline_comment(self, tmp_path):
        plan = load_plan(self.write(tmp_path, "n_temporal = 6",
                                    "n_temporal = 4  # four per cell"))
        assert plan.n_temporal == 4

    def test_upper_case_key(self, tmp_path):
        plan = load_plan(self.write(tmp_path, "t_spin_us", "T_Spin_US"))
        assert plan.t_spin == 15.5

    def test_continuation_line(self, tmp_path):
        path = self.write(tmp_path, "cell_order = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10",
                          "cell_order = 3, 1,\n    2")
        assert load_plan(path).cell_order == (3, 1, 2)
        # The key after the continuation keeps its own line number.
        text = path.read_text().replace("mean_photon_number = 1.03",
                                        "mean_photon_number = lots")
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_plan(path)
        assert err.value.key == "mean_photon_number"
        assert err.value.line == text.splitlines().index(
            "mean_photon_number = lots") + 1

    def test_comment_and_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "n_temporal = 6",
                          "\n# a comment\n   ; another\n\nn_temporal = 3")
        assert load_plan(path).n_temporal == 3

    def test_text_before_first_section(self, tmp_path):
        path = tmp_path / "plan.ini"
        path.write_text("tau_us = 10.0\n"
                        + default_plan_path("60mode").read_text())
        with pytest.raises(ConfigError) as err:
            load_plan(path)
        assert err.value.path == path
        assert err.value.line == 1

    def test_key_without_delimiter(self, tmp_path):
        path = self.write(tmp_path, "eta_herald = 0.7", "eta_herald 0.7")
        with pytest.raises(ConfigError) as err:
            load_plan(path)
        assert err.value.path == path
        assert err.value.line == path.read_text().splitlines().index(
            "eta_herald 0.7") + 1

    @pytest.mark.parametrize("old, new", [
        ("g2_source = 100.0", "g2_source = 100.0\ntau_us = 12.0"),
        ("g2_source = 100.0", "g2_source = 100.0\n[plan]\ntau_us = 12.0"),
    ], ids=["key", "section"])
    def test_duplicate_refused(self, tmp_path, old, new):
        path = self.write(tmp_path, old, new)
        with pytest.raises(ConfigError) as err:
            load_plan(path)
        assert err.value.path == path

    @pytest.mark.parametrize("repeat", ["tau_us = 12.0", "[plan]"])
    def test_duplicate_names_line(self, tmp_path, repeat):
        path = self.write(tmp_path, "g2_source = 100.0",
                          f"g2_source = 100.0\n{repeat}")
        with pytest.raises(ConfigError) as err:
            load_plan(path)
        lines = path.read_text().splitlines()
        assert err.value.line == lines.index("g2_source = 100.0") + 2


# Every line break str.splitlines knows, and spaces that str.strip removes.
_INI_BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
                              "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
_INI_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\xa0", "\u3000",
                              " \t"])
_INI_WORD = st.text(alphabet="aB1=:#;[] \t\xa0\u3000", max_size=6)
_INI_KEY = st.sampled_from(["k", "K", "k2", "", " ", "a=b", "a:b", "a#b",
                            "a;b", "x y", "[k]"]) | _INI_WORD
_INI_VALUE = st.sampled_from(["1", "", "v=w", "v:w", "a#b", "a;b", "x # y",
                              "x ;y", "x\t#y", "x\xa0;y", "[s]"]) | _INI_WORD


@st.composite
def _ini_line(draw) -> str:
    space = draw(_INI_SPACE)
    kind = draw(st.sampled_from(["header", "entry", "entry", "entry",
                                 "comment", "blank", "text"]))
    if kind == "header":
        name = draw(st.sampled_from(["a", "b", "cell 1", "A", ""]) | _INI_WORD)
        line = f"[{name}]"
    elif kind == "entry":
        line = (draw(_INI_KEY) + draw(_INI_SPACE) + draw(st.sampled_from("=:"))
                + draw(_INI_SPACE) + draw(_INI_VALUE))
    elif kind == "comment":
        line = draw(st.sampled_from("#;")) + draw(_INI_WORD)
    elif kind == "blank":
        line = ""
    else:
        line = draw(_INI_WORD)
    if draw(st.booleans()):
        line += draw(_INI_SPACE) + draw(st.sampled_from(["", " #c", " ;c",
                                                         "\t# c", "#c"]))
    return space + line + draw(_INI_SPACE)


@st.composite
def _ini_text(draw) -> str:
    """Section headers, entries, comments, blank and stray lines, indented
    or not, joined by any line break."""
    lines = draw(st.lists(_ini_line(), max_size=10))
    if draw(st.integers(0, 4)):  # most texts start with a header
        lines.insert(0, "[" + draw(st.sampled_from(["a", "b"])) + "]")
    ends = draw(st.lists(_INI_BREAK, min_size=len(lines),
                         max_size=len(lines)))
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no final line end
    return "".join(map(str.__add__, lines, ends))


def _ini_outcome(read, path):
    try:
        return read()
    except ConfigError as exc:
        return str(exc), exc.path, exc.key, exc.line


@settings(max_examples=150, deadline=None)
@given(text=_ini_text())
@example(text="")
@example(text="# only\n ; comments\n")
@example(text="[a]\nk = 1\n  more\n\tand # not this\n")
@example(text="[a]\n  k = 1\nj = 2\n   cont\n")
@example(text="[a]\n  indented = right after the header\n")
@example(text="[a]\nk=1\n[b]\nk=2\n[a]\n")
@example(text="[a]\nK = 1\nk: 2\n")
@example(text="[a]\na#b = c;d\nx;y: 1 #z\n")
@example(text="[a]\n= 1\n")
@example(text="[a]\n: 1\n")
@example(text="[a]\nk\n")
@example(text="k = 1\n[a]\n")
@example(text="[]\n")
@example(text="[a]\nk:v=w\nj=v:w\n")
@example(text="[a]\x0bk = 1\x0c\u3000c\x1cj = 2\x1d\x1e[b]\x85"
              "k = 3\u2028\xa0c2\u2029x = 4\r\ny = 5\rz = 6")
@example(text="[a]\nk = 1\n\xa0;c\n\u3000#c\n\t x\n")
def test_ini_scanner_matches_the_line_loop(text):
    path = Path("scan.ini")  # the loaders name the file through _in_file

    def new():
        with memarray.io._in_file(path):
            sections = memarray.io._load_ini(text)
        return {name: sec.entries for name, sec in sections.items()}

    assert (_ini_outcome(new, path)
            == _ini_outcome(lambda: ini_oracle.scan(text, path), path))


class TestCountsRoundTrip:
    def test_single_run(self, tmp_path):
        run = _run(RunKind.SIGNAL, {(1, 2): 7, (1, 1): 11, (2, 1): 0}, 500)
        path = write_counts_csv(tmp_path / "counts.csv", run)
        back = read_counts_csv(path)
        assert back.kind is RunKind.SIGNAL
        assert (back.keys, back.totals) == (run.keys, run.totals)
        assert back.n_trials == 500

    def test_shuffled_rows_read_back_as_the_sorted_file(self, tmp_path):
        run = _run(RunKind.SIGNAL, {(c, k): 10 * c + k for c in (2, 10, 1)
                                    for k in (1, 2)}, 50)
        path = write_counts_csv(tmp_path / "sorted.csv", run)
        header, *rows = path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header] + [rows[i] for i in
                                                  (3, 0, 5, 1, 4, 2)]) + "\n")
        assert read_counts_csv(shuffled) == read_counts_csv(path) == run

    def test_scan_round_trip(self, tmp_path):
        scan = _run(RunKind.CROSSTALK, {(i, j): 10 * i + j
                                        for i in (1, 2) for j in (1, 2)}, 99)
        path = write_counts_csv(tmp_path / "scan.csv", scan)
        assert path.read_text().splitlines()[1:3] == [
            "crosstalk,1,1,1,11,99", "crosstalk,1,2,1,12,99"]
        assert read_counts_csv(path) == scan

    def test_write_is_byte_stable(self, tmp_path):
        run = _run(RunKind.NOISE, {(3, 1): 4, (1, 1): 2}, 10)
        a = write_counts_csv(tmp_path / "a.csv", run)
        b = write_counts_csv(tmp_path / "b.csv", run)
        assert a.read_bytes() == b.read_bytes()

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError) as err:
            read_counts_csv(p)
        assert err.value.line == 1

    def test_scan_file_reads_back_pair_keyed(self, tmp_path):
        # A scan row (input 1, output 2) is keyed (1, 2), never by the
        # (cell, temporal_index) of a single run.
        p = tmp_path / "scan.csv"
        p.write_text(",".join(COUNTS_HEADER) + "\ncrosstalk,1,2,1,3,5\n")
        back = read_counts_csv(p)
        assert back.kind is RunKind.CROSSTALK
        assert (back.keys, back.totals) == (((1, 2),), (3,))
        assert back.n_trials == 5

    def test_bad_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(",".join(COUNTS_HEADER) + "\nsignal,1,1,1,many,10\n")
        with pytest.raises(ConfigError) as err:
            read_counts_csv(p)
        assert err.value.line == 2

    @pytest.mark.parametrize("rows, line, message", [
        (["bogus,1,1,1,5,10"], 2,
         "bad counts row: ['bogus', '1', '1', '1', '5', '10']"),
        (["signal,1,1,1,5,10", "noise,1,1,2,5,10"], 3,
         "mixed run kinds in one file: signal and noise"),
        (["noise,1,1,1,-1,10"], 2, "bad counts row: ['noise', '1', '1', "
         "'1', '-1', '10'] (total_counts must be >= 0 and n_trials >= 1)"),
        (["signal,1,1,1,5,0"], 2, "bad counts row: ['signal', '1', '1', "
         "'1', '5', '0'] (total_counts must be >= 0 and n_trials >= 1)"),
    ])
    def test_row_diagnostic(self, tmp_path, rows, line, message):
        p = tmp_path / "bad.csv"
        p.write_text("\n".join([",".join(COUNTS_HEADER), *rows]) + "\n")
        with pytest.raises(ConfigError) as err:
            read_counts_csv(p)
        assert str(err.value) == f"{p}, line {line}: {message}"

    @pytest.mark.parametrize("text, message", [
        ("", "empty counts file"),
        (",".join(COUNTS_HEADER) + "\n", "counts file has no data rows"),
    ])
    def test_file_without_rows(self, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ConfigError) as err:
            read_counts_csv(p)
        assert str(err.value) == f"{p}: {message}"

    def test_quoted_field_reads_as_plain(self, tmp_path):
        p = tmp_path / "quoted.csv"
        p.write_text(",".join(COUNTS_HEADER) + '\n"signal",1,1,1,5,10\n')
        assert read_counts_csv(p) == _run(RunKind.SIGNAL, {(1, 1): 5}, 10)

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs a device that refuses every write")
    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.symlink_to("/dev/full")  # opens, then fails to write
        run = _run(RunKind.NOISE, {(1, k): 3 for k in range(1, 5000)}, 10)
        with pytest.raises(OSError) as err:
            write_counts_csv(path, run)
        assert err.value.filename == str(path)
        assert not path.is_symlink() and not path.exists()


def _counting_parses(monkeypatch) -> list:
    """The list to which every later counts parse appends its text."""
    parses = []
    parse = memarray.io._parse_counts
    monkeypatch.setattr(memarray.io, "_parse_counts",
                        lambda text: parses.append(text) or parse(text))
    return parses


class TestCountsParsedOncePerText:
    """A counts table written or read in a process is parsed at most once
    per distinct text; the file is read and hashed on every call, and a
    refused text is refused every time and never kept."""

    def test_a_written_run_reads_back_without_a_parse(self, tmp_path,
                                                      monkeypatch):
        parses = _counting_parses(monkeypatch)
        run = _run(RunKind.SIGNAL, {(c, k): 7 * c + k for c in (1, 2, 10)
                                    for k in (1, 2)}, 500)
        path = write_counts_csv(tmp_path / "counts.csv", run)
        copy = tmp_path / "copy.csv"
        copy.write_bytes(path.read_bytes())
        assert [read_counts_csv(p) for p in (path, copy, path)] == [run] * 3
        assert parses == []

    def test_a_read_text_is_parsed_once(self, tmp_path, monkeypatch):
        memarray.io._COUNTS_MEMO.clear()
        parses = _counting_parses(monkeypatch)
        path = tmp_path / "counts.csv"
        path.write_text(",".join(COUNTS_HEADER) + "\nnoise,2,2,1,4,9\n")
        first, second = read_counts_csv(path), read_counts_csv(path)
        assert first == second == _run(RunKind.NOISE, {(2, 1): 4}, 9)
        assert parses == [path.read_text()]

    def test_an_edited_total_reads_as_edited(self, tmp_path):
        run = _run(RunKind.NOISE, {(1, 1): 3, (1, 2): 5}, 10)
        path = write_counts_csv(tmp_path / "counts.csv", run)
        assert read_counts_csv(path) == run
        path.write_text(path.read_text().replace("noise,1,1,2,5,10",
                                                 "noise,1,1,2,6,10"))
        assert read_counts_csv(path) == _run(RunKind.NOISE,
                                             {(1, 1): 3, (1, 2): 6}, 10)

    @pytest.mark.parametrize("rows, message", [
        ([], "{path}: counts file has no data rows"),
        (["noise,1,1,1,3,10", "noise,1,1,1,4,10"],
         "{path}, line 3: duplicate row for (input_cell, output_cell, "
         "temporal_index) = (1, 1, 1): lines 2 and 3"),
    ], ids=["no-rows", "duplicate-row"])
    def test_a_refused_text_is_refused_every_time(self, tmp_path, rows,
                                                  message):
        memarray.io._COUNTS_MEMO.clear()
        text = "\n".join([",".join(COUNTS_HEADER), *rows]) + "\n"
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            path.write_text(text)
        messages = []
        for path in paths + paths:
            with pytest.raises(ConfigError) as err:
                read_counts_csv(path)
            messages.append(str(err.value))
        assert messages == [message.format(path=path) for path in paths + paths]
        assert memarray.io._COUNTS_MEMO == {}

    def test_a_hit_records_the_digest(self, tmp_path):
        run = _run(RunKind.CROSSTALK, {(1, 1): 9, (1, 2): 0}, 4)
        path = write_counts_csv(tmp_path / "scan.csv", run)
        with file_digests() as digests:
            assert read_counts_csv(path) == run
        assert digests == {path: _sha256(path)}

    def test_the_bound_holds_on_both_fill_paths(self, tmp_path):
        memo, kept = memarray.io._COUNTS_MEMO, memarray.io._COUNTS_KEPT
        memo.clear()
        runs = [_run(RunKind.NOISE, {(1, 1): total}, 10)
                for total in range(kept + 3)]
        texts = [write_counts_csv(tmp_path / f"w{i}.csv", run).read_text()
                 for i, run in enumerate(runs)]
        assert list(memo) == texts[-kept:]
        assert list(memo.values()) == runs[-kept:]
        texts = []
        for i in range(kept + 3):
            path = tmp_path / f"r{i}.csv"
            path.write_text(",".join(COUNTS_HEADER) + f"\nsignal,1,1,1,{i},7\n")
            read_counts_csv(path)
            texts.append(path.read_text())
        assert list(memo) == texts[-kept:]

    def test_a_rewritten_text_evicts_nothing(self, tmp_path):
        # Writing a kept text again moves it to the newest end of a full
        # memo and drops no other text.
        memo = memarray.io._COUNTS_MEMO
        memo.clear()
        runs = [_run(RunKind.NOISE, {(1, 1): total}, 10)
                for total in range(memarray.io._COUNTS_KEPT)]
        for i, run in enumerate(runs + runs[1:2]):
            write_counts_csv(tmp_path / f"{i}.csv", run)
        assert list(memo.values()) == runs[:1] + runs[2:] + runs[1:2]

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs a device that refuses every write")
    def test_a_failed_write_keeps_nothing(self, tmp_path):
        memarray.io._COUNTS_MEMO.clear()
        path = tmp_path / "counts.csv"
        path.symlink_to("/dev/full")
        with pytest.raises(OSError):
            write_counts_csv(path, _run(RunKind.NOISE, {(1, 1): 3}, 10))
        assert memarray.io._COUNTS_MEMO == {}

    @pytest.mark.parametrize("plan, noise, kinds, analyze", [
        ("60mode", "storage", ("signal", "noise"),
         ["--plan", "60mode", "--device", "10cell"]),
        ("crosstalk", "crosstalk", ("crosstalk", "noise"), []),
    ], ids=["storage", "scan"])
    def test_run_run_analyze_matches_a_cold_analyze(self, tmp_path,
                                                    monkeypatch, plan, noise,
                                                    kinds, analyze):
        # The in-process analyze reads both runs from the memo; the cold
        # one, with the memo emptied, parses both files.
        runs = tmp_path / "runs"
        for seed, kind in enumerate(kinds, start=2718):
            assert main(["run", "--plan", plan, "--noise", noise, "--mode",
                         kind, "--trials", "14227", "--seed", str(seed),
                         "--out-dir", str(runs)]) == 0
        argv = ["analyze", "--signal", str(runs / f"counts_{kinds[0]}.csv"),
                "--noise", str(runs / "counts_noise.csv"), *analyze]
        parses = _counting_parses(monkeypatch)
        outputs = {}
        for side in ("warm", "cold"):
            if side == "cold":
                memarray.io._COUNTS_MEMO.clear()
            assert main(argv + ["--out-dir", str(tmp_path / side)]) == 0
            outputs[side] = {p.name: p.read_bytes()
                             for p in (tmp_path / side).iterdir()}
            if side == "warm":
                assert parses == []
        assert len(parses) == 2
        assert len(outputs["warm"]) == 3
        assert outputs["warm"] == outputs["cold"]


class TestTimelineCsv:
    def test_event_rows(self, tmp_path):
        plan = load_plan(default_plan_path("crosstalk"))
        single = dataclasses.replace(plan, cell_order=(1,))
        tl = compile_plan(single)
        path = write_timeline_csv(tmp_path / "timeline.csv", tl)
        lines = path.read_text().splitlines()
        # header + prepare + input + two control pulses + echo window
        assert len(lines) == 6
        assert lines[0] == "channel,kind,cell_id,temporal_index,start_us,duration_us"
        assert any(line.startswith("DemuxAOD,EchoWindow,1,1,") for line in lines)


MANIFEST_SHA256 = "9a9c36b891b8c5f2312715900ead43f160f05242edafc00b5034c77d79d59cbe"


class TestManifest:
    def test_manifest_is_byte_stable(self, tmp_path):
        payload = {"b": 1, "a": {"z": [3, 2], "y": "noise"}}
        p1 = write_manifest(tmp_path / "m1.json", payload)
        p2 = write_manifest(tmp_path / "m2.json", payload)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_bytes_pinned(self, tmp_path):
        # A run manifest: each input by path and sha256, each output by sha256.
        payload = {
            "tool": "memarray",
            "version": "0.0.0",
            "command": "run",
            "mode": "crosstalk",
            "seed": 7,
            "trials": 2000,
            "engine": "poisson-total-stdlib",
            "inputs": {name: {"path": f"{name}_crosstalk.ini",
                              "sha256": digit * 64}
                       for name, digit in (("plan", "1"), ("device", "2"),
                                           ("noise", "3"))},
            "outputs": {"counts_crosstalk.csv": "0" * 64},
            "duration_seconds": 0.125,
        }
        data = write_manifest(tmp_path / "manifest.json", payload).read_bytes()
        assert data == (json.dumps(payload, indent=2, sort_keys=True)
                        + "\n").encode()
        assert hashlib.sha256(data).hexdigest() == MANIFEST_SHA256

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs a device that refuses every write")
    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.symlink_to("/dev/full")  # opens, then fails to write
        with pytest.raises(OSError):
            write_manifest(path, {"text": "x" * 100_000})
        assert not path.is_symlink() and not path.exists()


# ------------------------------------------------------------------------
# the CSV writers against csv.writer with format(x, ".10g")


_CSV_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300, 1e16,
               0.1 + 0.2]
_FLOAT = st.floats() | st.sampled_from(_CSV_FLOATS)
_POSITIVE = (st.floats(min_value=0.0, exclude_min=True)
             | st.sampled_from([x for x in _CSV_FLOATS if x > 0]))
_NON_NEGATIVE = st.just(0.0) | st.just(-0.0) | _POSITIVE
_ID = st.integers(-3, 2 ** 64) | st.just(0)
_COUNT = st.integers(0, 2 ** 70) | st.sampled_from([0, 2 ** 53 + 1])
_COUNTS = st.builds(
    _run, st.sampled_from(RunKind),
    st.dictionaries(st.tuples(_ID, _ID), _COUNT, min_size=1, max_size=8),
    st.integers(1, 2 ** 70))
_EVENTS = st.lists(st.builds(
    TimelineEvent, kind=st.sampled_from(EventKind), cell_id=_ID,
    start=_NON_NEGATIVE, duration=_POSITIVE,
    temporal_index=st.none() | st.integers(1, 2 ** 60)), max_size=6)
_PROJECTIONS = st.lists(st.builds(
    NetworkProjection, _ID, *[_FLOAT] * 8), max_size=6)


@st.composite
def _stats(draw):
    modes = sorted(draw(st.sets(st.tuples(_ID, _ID), max_size=6)))

    def column(values):
        return tuple(draw(st.lists(values, min_size=len(modes),
                                   max_size=len(modes))))
    return ModeStats(
        modes=tuple(modes), c_signal=column(_NON_NEGATIVE | st.just(math.nan)),
        err_signal=column(_NON_NEGATIVE), c_noise=column(_NON_NEGATIVE),
        err_noise=column(_NON_NEGATIVE), snr=column(_FLOAT),
        snr_err=column(_FLOAT))


@st.composite
def _cumulative(draw):
    n = draw(st.integers(0, 6))
    series = [st.lists(_FLOAT, min_size=n, max_size=n) for _ in range(4)]
    return (draw(st.lists(st.tuples(_ID, _ID), min_size=n, max_size=n)),
            *[draw(s) for s in series])


@st.composite
def _crosstalk(draw):
    ids = draw(st.lists(_ID, min_size=1, max_size=5, unique=True))
    matrix = st.lists(st.lists(_FLOAT, min_size=len(ids), max_size=len(ids))
                      .map(tuple), min_size=len(ids),
                      max_size=len(ids)).map(tuple)
    invalid = draw(st.lists(st.sampled_from(ids), unique=True))
    return CrossTalkMatrix(
        cell_ids=tuple(ids), c=draw(matrix), c_err=draw(matrix),
        mean_offdiagonal=draw(_FLOAT),
        noise_contribution={cid: draw(_FLOAT) for cid in ids
                            if cid not in invalid},
        invalid_rows=tuple(invalid))


def _written(tmp_path_factory, write, *args) -> bytes:
    return write(tmp_path_factory.getbasetemp() / "table.csv",
                 *args).read_bytes()


@settings(max_examples=30, deadline=None)
@given(run=_COUNTS)
@example(run=_run(RunKind.SIGNAL, {(2, 1): 0, (1, 2): 2 ** 53 + 1, (1, 1): 7},
                  2 ** 53 + 1))
@example(run=_run(RunKind.CROSSTALK, {(2, 1): 4, (1, 2): 0, (1, 1): 5}, 3))
def test_counts_csv_matches_oracle(tmp_path_factory, run):
    assert (_written(tmp_path_factory, write_counts_csv, run)
            == csv_oracle.counts_bytes(run))


# Integers of every type that TrialCounts takes, a few below its bounds.
_INTEGER = (st.integers(-1, 2 ** 64) | st.booleans()
            | st.integers(-1, 2 ** 62).map(np.int64))


@st.composite
def _columns(draw):
    """TrialCounts arguments, some of which it refuses."""
    keys = draw(st.lists(st.tuples(_INTEGER, _INTEGER)
                         | st.lists(_INTEGER, min_size=2, max_size=2),
                         max_size=8))
    totals = draw(st.lists(_INTEGER, min_size=len(keys), max_size=len(keys)))
    return draw(st.sampled_from(RunKind)), keys, totals, draw(_INTEGER)


@settings(max_examples=60, deadline=None)
@given(args=_columns())
@example(args=(RunKind.SIGNAL, [[np.int64(2), True], (1, 2)],
               [np.int64(3), False], np.int64(7)))
@example(args=(RunKind.CROSSTALK, [(True, 1)], [True], True))
def test_every_accepted_run_reads_back_equal_when_parsed(tmp_path_factory,
                                                        args):
    # A read that hits the counts memo returns the written run, so every
    # run that TrialCounts accepts must read back equal from a cold parse.
    try:
        run = TrialCounts(*args)
    except (ConfigError, ValueError):
        return
    path = write_counts_csv(tmp_path_factory.getbasetemp() / "run.csv", run)
    memarray.io._COUNTS_MEMO.clear()
    back = read_counts_csv(path)
    assert back == run
    for record in (run, back):
        assert {type(x) for key in record.keys for x in key} == {int}
        assert {type(t) for t in record.totals} == {type(record.n_trials)} == {int}


@settings(max_examples=30, deadline=None)
@given(events=_EVENTS)
@example(events=[TimelineEvent(EventKind.PREPARE, 0, 0.0, 1e16),
                 TimelineEvent(EventKind.INPUT, 3, 0.1 + 0.2, 5e-324, 2)])
def test_timeline_csv_matches_oracle(tmp_path_factory, events):
    assert (_written(tmp_path_factory, write_timeline_csv, events)
            == csv_oracle.timeline_bytes(events))


@settings(max_examples=30, deadline=None)
@given(stats=_stats())
@example(stats=ModeStats(modes=((1, 2), (2, 1)),
                         c_signal=(0.1 + 0.2, math.nan),
                         err_signal=(1e16, -0.0), c_noise=(5e-324, 0.0),
                         err_noise=(0.0, 1e-300), snr=(-0.0, math.inf),
                         snr_err=(math.nan, -math.inf)))
def test_mode_stats_csv_matches_oracle(tmp_path_factory, stats):
    assert (_written(tmp_path_factory, write_mode_stats_csv, stats)
            == csv_oracle.mode_stats_bytes(stats))


def test_mode_stats_csv_refuses_a_short_column(tmp_path):
    stats = ModeStats(modes=((1, 1), (1, 2)), c_signal=(0.1, 0.2),
                      err_signal=(0.01, 0.02), c_noise=(0.01,),
                      err_noise=(0.001, 0.002), snr=(10.0, 20.0),
                      snr_err=(1.0, 2.0))
    with pytest.raises(ValueError):
        write_mode_stats_csv(tmp_path / "mode_stats.csv", stats)
    assert not (tmp_path / "mode_stats.csv").exists()


@settings(max_examples=30, deadline=None)
@given(series=_cumulative())
@example(series=([(1, 1), (1, 2)], [math.nan, -0.0], [math.inf, 5e-324],
                 [-math.inf, 1e-300], [1e16, 0.1 + 0.2]))
def test_cumulative_csv_matches_oracle(tmp_path_factory, series):
    assert (_written(tmp_path_factory, write_cumulative_csv, *series)
            == csv_oracle.cumulative_bytes(*series))


@settings(max_examples=30, deadline=None)
@given(projections=_PROJECTIONS)
@example(projections=[NetworkProjection(2 ** 53 + 1, *_CSV_FLOATS)])
def test_projections_csv_matches_oracle(tmp_path_factory, projections):
    assert (_written(tmp_path_factory, write_projections_csv, projections)
            == csv_oracle.projections_bytes(projections))


@settings(max_examples=30, deadline=None)
@given(xtalk=_crosstalk())
@example(xtalk=CrossTalkMatrix(  # a scan whose every row is invalid
    cell_ids=(1, 2), c=((math.nan, math.nan),) * 2,
    c_err=((math.inf, -0.0),) * 2, mean_offdiagonal=math.nan,
    noise_contribution={}, invalid_rows=(2, 1)))
def test_crosstalk_csvs_match_oracle(tmp_path_factory, xtalk):
    base = tmp_path_factory.getbasetemp()
    paths = write_crosstalk_csvs(base / "matrix.csv", base / "err.csv",
                                 base / "summary.csv", xtalk)
    assert [p.name for p in paths] == ["matrix.csv", "err.csv", "summary.csv"]
    assert ([p.read_bytes() for p in paths]
            == csv_oracle.crosstalk_bytes(xtalk))


# ------------------------------------------------------------------------
# read_counts_csv against the reader of the open file


# Fields that a row may hold: str.splitlines, unlike the csv module, ends a
# line at "\x0b", "\x0c", "\x1c" and "\x85", and int() strips them.
_COUNTS_FIELD = st.one_of(
    st.sampled_from(["signal", "noise", "crosstalk", "bogus", "", "0", "1",
                     "-1", " 2", "1\x0b", "\x0c2", "3\x1c", "\x851", "7\x85",
                     " ", "\x00", "café", "1.0"]),
    st.integers(-2, 12).map(str),
    st.text(alphabet='01,"\r\n\x0b\x0c\x1c\x85 a', max_size=4))
_LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
_BAD_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82",
                             b"\xed\xa0\x80", b"\xc0\xaf"])


def _one_in(n: int):
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def _counts_file(draw) -> bytes:
    """The bytes of a counts file: mostly well-formed rows of one kind,
    with blank lines, repeated, quoted and altered fields, mixed line ends,
    a BOM and invalid UTF-8 now and then."""
    kind = draw(st.sampled_from([k.value for k in RunKind]))
    keys = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                         max_size=12, unique=True))
    n_trials = draw(st.sampled_from(["10", "7"]))
    lines = [draw(st.lists(_COUNTS_FIELD, max_size=7)) if draw(_one_in(8))
             else COUNTS_HEADER]
    for a, b in keys:
        i, j, k = (a, b, 1) if kind == "crosstalk" else (a, a, b)
        row = [kind, str(i), str(j), str(k), str(draw(st.integers(0, 99))),
               n_trials]
        if draw(_one_in(6)):
            row[draw(st.integers(0, 5))] = draw(_COUNTS_FIELD)
        lines.append(row)
        if draw(_one_in(6)):
            lines.append(draw(st.sampled_from(
                [[], row, [], draw(st.lists(_COUNTS_FIELD, max_size=7))])))
    text = ""
    for row in lines:
        fields = [f'"{f.replace(chr(34), 2 * chr(34))}"'
                  if draw(_one_in(8)) else f for f in row]
        text += ",".join(fields) + draw(_LINE_END)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    data = text.encode()
    if draw(_one_in(8)):
        data = b"\xef\xbb\xbf" + data
    if draw(_one_in(6)):
        at = draw(st.just(len(data)) | st.integers(0, len(data)))
        data = data[:at] + draw(_BAD_UTF8) + data[at:]
    return data


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the text a caller sees, by error type
        return type(exc).__name__, str(exc)


_HEADER_LINE = ",".join(COUNTS_HEADER).encode()


@settings(max_examples=100, deadline=None)
@given(data=_counts_file())
@example(data=b"")
@example(data=_HEADER_LINE)
@example(data=_HEADER_LINE + b"\r\n")
@example(data=_HEADER_LINE + b"\rnoise,1,1,1,3,5\r\rnoise,1,1,2,4,5")
@example(data=_HEADER_LINE + b"\r\nsignal,1,1,1,\x853\x0b,5\x1c\r\n")
@example(data=_HEADER_LINE + b'\n"signal","1\x0c",1,1,"2",5\n')
@example(data=b"\xef\xbb\xbf" + _HEADER_LINE + b"\nnoise,1,1,1,3,5\n")
@example(data=_HEADER_LINE + b"\nnoise,1,1,1,3,5\n\xff")
@example(data=_HEADER_LINE + b"\nbogus,1,1,1,3,5\n\xe2\x82")
def test_counts_reader_matches_the_file_reader(tmp_path_factory, data):
    assert len(data) < 8192  # one read of the file reader's text stream
    path = tmp_path_factory.getbasetemp() / "counts.csv"
    path.write_bytes(data)
    _check_against_the_file_reader(path, data)


def _csv_error_line(path) -> int:
    """The line at which a csv.reader over the open file raises csv.Error."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        with pytest.raises(csv.Error):
            for _ in reader:
                pass
    return reader.line_num


def _check_against_the_file_reader(path, data: bytes):
    new = _outcome(read_counts_csv, path)
    old = _outcome(csv_oracle.read_counts_csv, path)
    if isinstance(old, tuple) and old[0] == "Error":
        # The file reader lets csv.Error escape (Python 3.10 raises it for a
        # NUL byte); it is a ConfigError naming the file and the line now.
        old = ("ConfigError",
               f"{path}, line {_csv_error_line(path)}: bad CSV: {old[1]}")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        truncated = exc.reason == "unexpected end of data"
    else:
        truncated = False
    if truncated and new != old:
        # The file reader holds back an incomplete UTF-8 sequence at the
        # end and parses the lines before it, so a bad row there came
        # first; the whole text is decoded before any row is parsed now.
        assert old[0] == "ConfigError" and "not UTF-8" not in old[1]
        assert new == ("ConfigError",
                       f"{path}: not UTF-8 text (unexpected end of data)")
    else:
        assert new == old


# With the field limit below a 20-digit count, csv.Error stands for any error
# of the csv module; a row error on an earlier line must still come first.
@pytest.mark.parametrize("rows", [
    [b"noise,1,1,1,3,5", b"noise,1,1,2," + b"9" * 20 + b",5"],
    [b"noise,1,1,1,3,5", b"noise,1,1,1,3,5", b"noise,1,1,2," + b"9" * 20],
    [b"noise,1,1,1,3,5", b"signal,1,1,2,3,5", b"\r", b'"9' + b"9" * 20],
    [b"noise,1,1,1,3,5", b"noise,1,1,2,3," + b"9" * 20, b"\xff"],
])
def test_csv_errors_come_in_line_order(tmp_path, rows):
    data = b"\n".join([_HEADER_LINE, *rows]) + b"\n"
    path = tmp_path / "counts.csv"
    path.write_bytes(data)
    limit = csv.field_size_limit(16)  # "temporal_index" has 14 characters
    try:
        _check_against_the_file_reader(path, data)
    finally:
        csv.field_size_limit(limit)


def _one_row_edits(lines):
    """Each edit of one data row (or the row order) of a written counts
    file, as (name, edited lines)."""
    last = lines[-1].split(",")

    def with_last(field, value):
        row = list(last)
        row[field] = value
        return lines[:-1] + [",".join(row)]

    return [
        ("as-written", lines),
        ("first-row-repeated", lines + [lines[1]]),
        ("last-row-repeated", lines + [lines[-1]]),
        ("rows-swapped", [lines[0], lines[2], lines[1], *lines[3:]]),
        ("blank-line", [lines[0], lines[1], "", *lines[2:]]),
        ("kind", with_last(0, "noise" if last[0] != "noise" else "signal")),
        ("input-cell", with_last(1, "9")),
        ("leading-zero", with_last(1, "0" + last[1])),
        ("temporal-index", with_last(3, "2")),
        ("negative-total", with_last(4, "-1")),
        ("n-trials", with_last(5, "7")),
        ("n-trials-spelled-differently", with_last(5, "+" + last[5])),
        ("no-trials-on-any-row",
         [lines[0]] + [line.rsplit(",", 1)[0] + ",0" for line in lines[1:]]),
        ("seven-fields", with_last(5, last[5] + ",1")),
    ]


@pytest.mark.parametrize("kind", list(RunKind))
def test_counts_reader_on_one_row_edits(tmp_path, kind):
    # Every edit of a written file reads as the file reader reads it: the
    # same run, or the same refusal on the same line.
    scan = kind is RunKind.CROSSTALK
    keys = ([(i, j) for i in (1, 2, 3) for j in (1, 2, 3)] if scan
            else [(c, k) for c in (1, 2, 3) for k in (1, 2)])
    run = TrialCounts(kind, keys, [3 * a + b for a, b in keys], 11)
    lines = write_counts_csv(tmp_path / "written.csv", run).read_text(
        ).splitlines()
    for name, edited in _one_row_edits(lines):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(edited) + "\n")
        assert (_outcome(read_counts_csv, path)
                == _outcome(csv_oracle.read_counts_csv, path)), name
