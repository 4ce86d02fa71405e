"""Configuration-file parsing, CSV emission/ingestion and run manifests.

Config files are INI-style structured text.  Parsing is strict: unknown keys
are rejected, and diagnostics carry the file, key and line number so the CLI
can point at the offending entry.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import enum
import hashlib
import json
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Mapping

from .device import ArrayDevice, CellParams, PulseKind, PulseShape, StorageConfig
from .errors import ConfigError
from .sequence import SequencePlan, Timeline
from .simulate import LeakageMatrix, NoiseParams, RunKind, TrialCounts

_SECTION_RE = re.compile(r"^\s*\[(?P<name>[^]]+)\]")
_KEY_RE = re.compile(r"^\s*(?P<key>[^\s;#=:][^=:]*?)\s*[=:]")


# --------------------------------------------------------------------------
# low-level INI handling


def _key_lines(path: Path) -> dict[tuple[str, str], int]:
    """Map (section, key) -> 1-based line number, for diagnostics."""
    lines: dict[tuple[str, str], int] = {}
    section = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        m = _SECTION_RE.match(raw)
        if m:
            section = m.group("name").strip()
            continue
        if raw.lstrip().startswith(("#", ";")) or not raw.strip():
            continue
        m = _KEY_RE.match(raw)
        if m and section is not None:
            lines[(section, m.group("key").strip().lower())] = lineno
    return lines


def _load_ini(path) -> tuple[dict[str, _Section], Path]:
    path = Path(path)
    if not path.exists():
        raise ConfigError("file not found", path=path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with path.open() as fh:
            parser.read_file(fh)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"missing section header: {exc.line!r}",
                          path=path, line=exc.lineno) from exc
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0] if getattr(exc, "errors", None) else None
        raise ConfigError(f"cannot parse file: {exc}", path=path, line=lineno) from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse file: {exc}", path=path) from exc
    if not parser.sections():
        raise ConfigError("no sections found (empty or comment-only file)", path=path)
    lines = _key_lines(path)
    return {name: _Section(name, parser[name], lines)
            for name in parser.sections()}, path


@contextmanager
def _in_file(path: Path, key: str | None = None):
    """Give a ConfigError raised in the block that names no file this
    file's path, and ``key`` if it names no key either."""
    try:
        yield
    except ConfigError as exc:
        if exc.path is None:
            exc.path = path
            if exc.key is None:
                exc.key = key
        raise


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _pairs(text: str) -> list[tuple[float, float]]:
    """Parse 'a:b, c:d' pairs (calibration tables)."""
    pairs = []
    for tok in text.split(","):
        a, b = tok.split(":")
        pairs.append((float(a), float(b)))
    return pairs


class _Section:
    """One INI section with strict key checking and a typed accessor.

    Errors carry the key and line but no path: the loaders raise them
    inside ``_in_file``.
    """

    def __init__(self, name: str, items: Mapping[str, str],
                 lines: Mapping[tuple[str, str], int]):
        self.name = name
        self.items = dict(items)
        self.lines = lines

    def line(self, key: str) -> int | None:
        return self.lines.get((self.name, key))

    def check_keys(self, allowed: set[str], required: set[str]) -> None:
        for key in self.items:
            if key not in allowed:
                raise ConfigError(f"unknown key in [{self.name}]",
                                  key=key, line=self.line(key))
        for key in required:
            if key not in self.items:
                raise ConfigError(f"[{self.name}] is missing required key '{key}'",
                                  key=key)

    def value(self, key: str, parse: Callable, expected: str, default=None):
        """``parse`` the key's text, or return ``default`` if it is absent;
        a ValueError from ``parse`` means the text is not ``expected``."""
        if key not in self.items:
            return default
        v = self.items[key]
        try:
            return parse(v)
        except ValueError as exc:
            raise ConfigError(f"expected {expected}, got {v!r}",
                              key=key, line=self.line(key)) from exc

    def float(self, key: str, default=None) -> float:
        return self.value(key, float, "a number", default)

    def int(self, key: str, default=None) -> int:
        return self.value(key, int, "an integer", default)


# --------------------------------------------------------------------------
# device file


_CELL_KEYS = {"cell_id", "eta_mux", "eta_demux", "eta_fiber", "eta_transfer",
              "afc_calibration"}
_ARRAY_KEYS = {"eta_detection_path", "dark_count_rate_hz"}


def load_device(path) -> ArrayDevice:
    """Read an array device file ([array] section plus one [cell N] each)."""
    sections, path = _load_ini(path)
    with _in_file(path):
        if "array" not in sections:
            raise ConfigError("device file needs an [array] section")
        array = sections.pop("array")
        array.check_keys(_ARRAY_KEYS, _ARRAY_KEYS)
        cells = []
        for name, sec in sections.items():
            if not name.lower().startswith("cell"):
                raise ConfigError(f"unexpected section [{name}] in device file")
            sec.check_keys(_CELL_KEYS, _CELL_KEYS)
            with _in_file(path, key=name):
                cells.append(CellParams(
                    cell_id=sec.int("cell_id"),
                    eta_mux=sec.float("eta_mux"),
                    eta_demux=sec.float("eta_demux"),
                    eta_fiber=sec.float("eta_fiber"),
                    eta_transfer=sec.float("eta_transfer"),
                    afc_calibration=tuple(sec.value(
                        "afc_calibration", _pairs, "'tau:eta' pairs")),
                ))
        cells.sort(key=lambda c: c.cell_id)
        return ArrayDevice(
            cells=tuple(cells),
            eta_detection_path=array.float("eta_detection_path"),
            dark_count_rate=array.float("dark_count_rate_hz"),
        )


# --------------------------------------------------------------------------
# plan file


_PLAN_KEYS = {"tau_us", "t_spin_us", "n_temporal", "mode_period_us",
              "cell_order", "mean_photon_number", "detection_window_ns",
              "input_shape", "input_fwhm_ns", "capture_override",
              "eta_herald", "g2_source"}


def load_plan(path) -> SequencePlan:
    """Read a storage plan file (single [plan] section)."""
    sections, path = _load_ini(path)
    with _in_file(path):
        if "plan" not in sections:
            raise ConfigError("plan file needs a [plan] section")
        sec = sections["plan"]
        extra = set(sections) - {"plan"}
        if extra:
            raise ConfigError(f"unexpected sections in plan file: {sorted(extra)}")
        sec.check_keys(_PLAN_KEYS, {"tau_us", "t_spin_us", "n_temporal",
                                    "cell_order", "mean_photon_number",
                                    "detection_window_ns", "input_shape",
                                    "input_fwhm_ns"})
        shape = PulseShape(
            sec.value("input_shape", lambda v: PulseKind(v.strip().lower()),
                      f"one of {[k.value for k in PulseKind]}"),
            fwhm=sec.float("input_fwhm_ns"),
            capture_override=sec.float("capture_override"))
        storage = StorageConfig(
            tau=sec.float("tau_us"),
            t_spin=sec.float("t_spin_us"),
            n_temporal=sec.int("n_temporal"),
            mean_photon_number=sec.float("mean_photon_number"),
            input_shape=shape,
            detection_window=sec.float("detection_window_ns"),
            eta_herald=sec.float("eta_herald", 0.7),
            g2_source=sec.float("g2_source", 100.0),
        )
        return SequencePlan(
            storage=storage,
            cell_order=tuple(sec.value("cell_order", _ints,
                                       "comma-separated integers")),
            mode_period=sec.float("mode_period_us"))


# --------------------------------------------------------------------------
# noise file


_NOISE_KEYS = {"base_noise_per_window", "fluorescence_amplitude",
               "fluorescence_decay_us", "dark_rate_hz"}
_ROW_RE = re.compile(r"^row_(\d+)$")


def _matrix_rows(sec: _Section) -> tuple[tuple[int, ...], list[list[float]]]:
    ids = []
    for key in sec.items:
        m = _ROW_RE.match(key)
        if not m:
            raise ConfigError(f"expected row_<cell_id> keys in [{sec.name}]",
                              key=key, line=sec.line(key))
        ids.append(int(m.group(1)))
    order = sorted(ids)
    rows = []
    for cid in order:
        key = f"row_{cid}"
        row = sec.value(key, _floats, "comma-separated numbers")
        if len(row) != len(order):
            raise ConfigError(
                f"[{sec.name}] {key} has {len(row)} entries, expected "
                f"{len(order)} (one per cell)", key=key, line=sec.line(key))
        rows.append(row)
    return tuple(order), rows


def load_noise(path, default_dark_rate: float | None = None,
               ) -> tuple[NoiseParams, LeakageMatrix | None]:
    """Read a noise file: [noise] scalars plus optional [leakage] and
    [offresonant] matrices.

    dark_rate_hz may be omitted when the device file already supplies a
    detector dark-count rate; pass it as ``default_dark_rate``.
    """
    sections, path = _load_ini(path)
    with _in_file(path):
        if "noise" not in sections:
            raise ConfigError("noise file needs a [noise] section")
        extra = set(sections) - {"noise", "leakage", "offresonant"}
        if extra:
            raise ConfigError(f"unexpected sections in noise file: {sorted(extra)}")
        sec = sections["noise"]
        sec.check_keys(_NOISE_KEYS, {"base_noise_per_window",
                                     "fluorescence_amplitude",
                                     "fluorescence_decay_us"})
        dark = sec.float("dark_rate_hz", default_dark_rate)
        if dark is None:
            raise ConfigError("dark_rate_hz missing and no device fallback given",
                              key="dark_rate_hz")

        leak = None
        if "leakage" in sections:
            ids, rows = _matrix_rows(sections["leakage"])
            leak = LeakageMatrix(cell_ids=ids,
                                 values=tuple(tuple(r) for r in rows))

        offres: dict[tuple[int, int], float] = {}
        if "offresonant" in sections:
            ids, rows = _matrix_rows(sections["offresonant"])
            for i, cid in enumerate(ids):
                for j, cjd in enumerate(ids):
                    if rows[i][j] != 0.0:
                        offres[(cid, cjd)] = rows[i][j]

        noise = NoiseParams(
            base_noise_per_window=sec.float("base_noise_per_window"),
            fluorescence_amplitude=sec.float("fluorescence_amplitude"),
            fluorescence_decay=sec.float("fluorescence_decay_us"),
            dark_rate=dark,
            offresonant_echo_leak=offres,
        )
    return noise, leak


# --------------------------------------------------------------------------
# CSV emission (all writers pin the line terminator so output bytes are
# platform-independent and reproducible)


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _fmt(x: float) -> str:
    if x != x:  # NaN
        return "nan"
    if x in (float("inf"), float("-inf")):
        return "inf" if x > 0 else "-inf"
    return format(x, ".10g")


COUNTS_HEADER = ["run_kind", "input_cell", "output_cell", "temporal_index",
                 "total_counts", "n_trials"]


def write_counts_csv(path, result: TrialCounts) -> Path:
    """Write a counts table, one row per window in sorted key order, so
    identical runs produce byte-identical files.

    A signal or noise run's (cell, k) key becomes input = output = cell at
    temporal index k; a scan's (input, output) key is written at temporal
    index 1.
    """
    path = Path(path)
    scan = result.kind is RunKind.CROSSTALK
    with path.open("w", newline="") as fh:
        w = _writer(fh)
        w.writerow(COUNTS_HEADER)
        for a, b in sorted(result.counts):
            i, j, k = (a, b, 1) if scan else (a, a, b)
            w.writerow([result.kind.value, i, j, k, result.counts[(a, b)],
                        result.n_trials])
    return path


def read_counts_csv(path) -> TrialCounts:
    """Read a counts CSV back into the TrialCounts that wrote it.

    Every row must share one run kind and one n_trials.  Signal and noise
    rows need input_cell == output_cell; scan rows need temporal_index 1.
    A duplicated (input_cell, output_cell, temporal_index) key is refused.
    Row errors name the file and the line.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError("file not found", path=path)
    kind = n_trials = None
    counts: dict[tuple[int, int], int] = {}
    key_lines: dict[tuple[int, int], int] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("empty counts file", path=path) from None
        if header != COUNTS_HEADER:
            raise ConfigError(f"unexpected counts header {header}", path=path, line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                i, j, k, total, n = map(int, row[1:6])
                row_kind = RunKind(row[0])
            except ValueError as exc:
                raise ConfigError(f"bad counts row: {row}", path=path,
                                  line=lineno) from exc
            if kind is None:
                kind, n_trials = row_kind, n
            scan = kind is RunKind.CROSSTALK
            key = (i, j) if scan else (i, k)
            if total < 0 or n < 1:
                msg = (f"bad counts row: {row} (total_counts must be >= 0 "
                       f"and n_trials >= 1)")
            elif row_kind is not kind:
                msg = (f"mixed run kinds in one file: {kind.value} and "
                       f"{row_kind.value}")
            elif n != n_trials:
                msg = (f"inconsistent n_trials across rows: {n} here, "
                       f"{n_trials} on the first row")
            elif scan and k != 1:
                msg = f"scan rows must have temporal_index 1, got {k}"
            elif not scan and i != j:
                msg = (f"{kind.value} rows must have input_cell == "
                       f"output_cell, got ({i}, {j})")
            elif key in key_lines:
                msg = (f"duplicate row for (input_cell, output_cell, "
                       f"temporal_index) = {(i, j, k)}: lines "
                       f"{key_lines[key]} and {lineno}")
            else:
                key_lines[key] = lineno
                counts[key] = total
                continue
            raise ConfigError(msg, path=path, line=lineno)
    if kind is None:
        raise ConfigError("counts file has no data rows", path=path)
    return TrialCounts(kind=kind, counts=counts, n_trials=n_trials)


def write_timeline_csv(path, timeline: Timeline) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["channel", "kind", "cell_id", "temporal_index",
                    "start_us", "duration_us"])
        for ev in timeline.events:
            w.writerow([ev.channel.value, ev.kind.value, ev.cell_id,
                        "" if ev.temporal_index is None else ev.temporal_index,
                        _fmt(ev.start), _fmt(ev.duration)])
    return path


def write_mode_stats_csv(path, stats) -> Path:
    """stats: mapping (spatial_mode, temporal_index) -> ModeStats."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["spatial_mode", "temporal_index", "c_signal", "c_signal_err",
                    "c_noise", "c_noise_err", "snr", "snr_err"])
        for (cell, k) in sorted(stats):
            s = stats[(cell, k)]
            w.writerow([cell, k, _fmt(s.c_signal), _fmt(s.err_signal),
                        _fmt(s.c_noise), _fmt(s.err_noise),
                        _fmt(s.snr), _fmt(s.snr_err)])
    return path


def write_cumulative_csv(path, modes, cum_signal, cum_signal_err,
                         cum_noise, cum_noise_err) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["mode_number", "spatial_mode", "temporal_index",
                    "c_signal_cum", "c_signal_cum_err",
                    "c_noise_cum", "c_noise_cum_err"])
        for n, ((cell, k), cs, cse, cb, cbe) in enumerate(
                zip(modes, cum_signal, cum_signal_err, cum_noise, cum_noise_err),
                start=1):
            w.writerow([n, cell, k, _fmt(cs), _fmt(cse), _fmt(cb), _fmt(cbe)])
    return path


def write_projections_csv(path, projections) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["spatial_mode", "c_signal_rescaled", "c_signal_rescaled_err",
                    "snr_adjusted", "snr_adjusted_err", "g2", "g2_err",
                    "fidelity", "fidelity_err"])
        for p in projections:
            w.writerow([p.cell_id, _fmt(p.c_signal_rescaled), _fmt(p.err_rescaled),
                        _fmt(p.snr_adjusted), _fmt(p.snr_adjusted_err),
                        _fmt(p.g2_inferred), _fmt(p.g2_err),
                        _fmt(p.fidelity), _fmt(p.fidelity_err)])
    return path


def write_crosstalk_csvs(matrix_path, err_path, summary_path, xtalk) -> list[Path]:
    """Write the cross-talk ratio matrix, its error matrix and a summary."""
    matrix_path, err_path, summary_path = map(Path, (matrix_path, err_path,
                                                     summary_path))
    ids = list(xtalk.cell_ids)
    header = ["input_cell"] + [str(j) for j in ids]
    for path, table in ((matrix_path, xtalk.c), (err_path, xtalk.c_err)):
        with path.open("w", newline="") as fh:
            w = _writer(fh)
            w.writerow(header)
            for i, cid in enumerate(ids):
                w.writerow([cid] + [_fmt(table[i][j]) for j in range(len(ids))])
    with summary_path.open("w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["quantity", "cell", "value"])
        w.writerow(["mean_offdiagonal", "", _fmt(xtalk.mean_offdiagonal)])
        for cid in ids:
            if cid in xtalk.noise_contribution:  # absent for invalid rows
                w.writerow(["noise_contribution", cid,
                            _fmt(xtalk.noise_contribution[cid])])
        for cid in xtalk.invalid_rows:
            w.writerow(["invalid_row", cid, ""])
    return [matrix_path, err_path, summary_path]


# --------------------------------------------------------------------------
# manifests


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def write_manifest(path, payload: dict) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_manifest(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError("manifest not found", path=path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest is not valid JSON: {exc}", path=path,
                          line=exc.lineno) from exc
