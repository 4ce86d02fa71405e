"""Config parsing, CSV round-trip and manifest tests."""

import dataclasses
import hashlib
import math
from pathlib import Path

import pytest

from memarray.defaults import (
    default_device_path,
    default_noise_path,
    default_plan_path,
)
from memarray.device import PulseKind
from memarray.errors import ConfigError
from memarray.io import (
    COUNTS_HEADER,
    file_sha256,
    load_device,
    load_noise,
    load_plan,
    read_counts_csv,
    read_manifest,
    write_counts_csv,
    write_manifest,
    write_timeline_csv,
)
from memarray.sequence import SequencePlan, compile_plan
from memarray.simulate import NoiseParams, RunKind, TrialCounts


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
        assert plan.input_shape.kind is PulseKind.GAUSSIAN
        assert plan.input_shape.fwhm == 351.0
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
        assert plan.input_shape.capture_override == 0.57
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

    @pytest.mark.parametrize("kind, old, new, key", [
        ("device", "eta_mux = 0.862", "eta_mux = 1.5", "cell 1"),
        ("device", "eta_detection_path = 0.14", "eta_detection_path = 2",
         None),
        ("plan", "tau_us = 10.0", "tau_us = -1", None),
        ("noise", "base_noise_per_window = 0", "base_noise_per_window = -1",
         None),
    ])
    def test_value_error_names_file(self, tmp_path, kind, old, new, key):
        loader, path, _ = _edited(tmp_path, kind, old, new)
        with pytest.raises(ConfigError) as err:
            loader(path)
        assert err.value.path == path
        if key is not None:
            assert err.value.key == key


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


class TestCountsRoundTrip:
    def test_single_run(self, tmp_path):
        run = TrialCounts(kind=RunKind.SIGNAL,
                          counts={(1, 2): 7, (1, 1): 11, (2, 1): 0},
                          n_trials=500)
        path = write_counts_csv(tmp_path / "counts.csv", run)
        back = read_counts_csv(path)
        assert back.kind is RunKind.SIGNAL
        assert back.counts == run.counts
        assert back.n_trials == 500

    def test_scan_round_trip(self, tmp_path):
        scan = TrialCounts(kind=RunKind.CROSSTALK,
                           counts={(i, j): 10 * i + j
                                   for i in (1, 2) for j in (1, 2)},
                           n_trials=99)
        path = write_counts_csv(tmp_path / "scan.csv", scan)
        assert path.read_text().splitlines()[1:3] == [
            "crosstalk,1,1,1,11,99", "crosstalk,1,2,1,12,99"]
        assert read_counts_csv(path) == scan

    def test_write_is_byte_stable(self, tmp_path):
        run = TrialCounts(kind=RunKind.NOISE, counts={(3, 1): 4, (1, 1): 2},
                          n_trials=10)
        a = write_counts_csv(tmp_path / "a.csv", run)
        b = write_counts_csv(tmp_path / "b.csv", run)
        assert a.read_bytes() == b.read_bytes()
        assert file_sha256(a) == file_sha256(b)

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
        assert back.counts == {(1, 2): 3}
        assert back.n_trials == 5

    def test_bad_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(",".join(COUNTS_HEADER) + "\nsignal,1,1,1,many,10\n")
        with pytest.raises(ConfigError) as err:
            read_counts_csv(p)
        assert err.value.line == 2


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


MANIFEST_SHA256 = "4ed1d0155bf6f50d0ffcfa8f9ee76291e1d9751475b45e042fde361f1196c468"


class TestManifest:
    def test_round_trip_with_rich_types(self, tmp_path):
        noise = NoiseParams(base_noise_per_window=1e-5,
                            fluorescence_amplitude=0.0,
                            fluorescence_decay=2.0, dark_rate=15.0)
        payload = {
            "seed": 42,
            "kind": RunKind.SIGNAL,
            "noise": noise,
            "outputs": [tmp_path / "counts.csv"],
            "nan_guard": math.pi,
        }
        path = write_manifest(tmp_path / "manifest.json", payload)
        back = read_manifest(path)
        assert back["seed"] == 42
        assert back["kind"] == "signal"
        assert back["noise"]["fluorescence_decay"] == 2.0
        assert back["outputs"] == [str(tmp_path / "counts.csv")]

    def test_manifest_is_byte_stable(self, tmp_path):
        payload = {"b": 1, "a": {"z": [3, 2], "y": RunKind.NOISE}}
        p1 = write_manifest(tmp_path / "m1.json", payload)
        p2 = write_manifest(tmp_path / "m2.json", payload)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_bytes_pinned(self, tmp_path):
        # A run manifest of the shipped cross-talk inputs: dataclasses,
        # enums, tuple-keyed dicts, nested tuples, paths and None.
        device = load_device(default_device_path())
        noise, leak = load_noise(default_noise_path("crosstalk"))
        payload = {
            "tool": "memarray",
            "command": "run",
            "mode": RunKind.CROSSTALK,
            "seed": 7,
            "trials": 2000,
            "inputs": {"plan": {"path": Path("plan_crosstalk.ini"),
                                "sha256": None}},
            "resolved": {"plan": load_plan(default_plan_path("crosstalk")),
                         "device": device, "noise": noise, "leakage": leak},
            "outputs": {"counts_crosstalk.csv": "0" * 64},
            "duration_seconds": 0.125,
        }
        data = write_manifest(tmp_path / "manifest.json", payload).read_bytes()
        assert data.endswith(b"}\n")
        assert hashlib.sha256(data).hexdigest() == MANIFEST_SHA256

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            read_manifest(p)
