"""Configuration-file parsing, CSV emission/ingestion and run manifests.

Config files are INI-style structured text.  Parsing is strict: unknown keys
are rejected, and diagnostics carry the file, key and line number so the CLI
can point at the offending entry.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import hashlib
import json
import math
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from .device import ArrayDevice, CellParams, PulseKind, PulseShape
from .errors import ConfigError
from .sequence import SequencePlan
from .simulate import LeakageMatrix, NoiseParams, RunKind, TrialCounts

_COMMENT_RE = re.compile(r"(?:^|\s)[#;]")


# --------------------------------------------------------------------------
# low-level INI handling


@contextmanager
def _reading(path: Path):
    """Turn a failure to open or decode ``path`` in the block into a
    ConfigError that names the file."""
    try:
        yield
    except FileNotFoundError as exc:
        raise ConfigError("file not found", path=path) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text ({exc.reason})", path=path) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read file: {exc.strerror or exc}",
                          path=path) from exc


def _load_ini(path) -> tuple[dict[str, _Section], Path]:
    """Parse an INI file in one pass: ``[name]`` headers, ``key = value`` or
    ``key: value`` lines, ``#``/``;`` comments and indented lines that
    continue a value.  Syntax errors name the file and the line."""
    path = Path(path)
    with _reading(path):
        text = path.read_text(encoding="utf-8")
    sections: dict[str, _Section] = {}
    sec = key = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (_COMMENT_RE.split(raw, 1)[0] if "#" in raw or ";" in raw else raw).strip()
        indent = len(raw) - len(raw.lstrip())
        if not line:
            continue
        if key is not None and indent > key_indent:
            sec.entries[key][0] += "\n" + line
            continue
        if line[0] == "[" and line[-1] == "]" and len(line) > 2:
            if line[1:-1] in sections:
                raise ConfigError(f"duplicate section {line}", path=path, line=lineno)
            sec = sections[line[1:-1]] = _Section(line[1:-1])
            key = None
            continue
        if sec is None:
            raise ConfigError(f"text before the first section: {line!r}",
                              path=path, line=lineno)
        eq, colon = line.find("="), line.find(":")
        cut = eq if colon < 0 or 0 <= eq < colon else colon
        if cut < 1:
            raise ConfigError(f"expected 'key = value' or a [section] header, "
                              f"got {line!r}", path=path, line=lineno)
        key, key_indent = line[:cut].rstrip().lower(), indent
        if key in sec.entries:
            raise ConfigError(f"duplicate key in [{sec.name}]", path=path,
                              key=key, line=lineno)
        sec.entries[key] = [line[cut + 1:].lstrip(), lineno]
    if not sections:
        raise ConfigError("no sections found (empty or comment-only file)", path=path)
    return sections, path


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


def _finite(text: str) -> float:
    """``float(text)``, refusing nan and infinities (``1e400`` too)."""
    if not math.isfinite(x := float(text)):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _floats(text: str) -> list[float]:
    return [_finite(tok) for tok in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _pairs(text: str) -> list[tuple[float, float]]:
    """Parse 'a:b, c:d' pairs (calibration tables)."""
    pairs = []
    for tok in text.split(","):
        a, b = tok.split(":")
        pairs.append((_finite(a), _finite(b)))
    return pairs


class _Section:
    """One INI section: ``entries`` maps each key to [its text, its line].

    Errors carry the key and line but no path: the loaders raise them
    inside ``_in_file``.
    """

    def __init__(self, name: str):
        self.name = name
        self.entries: dict[str, list] = {}

    def check_keys(self, allowed: set[str], required: set[str]) -> None:
        for key, (_, line) in self.entries.items():
            if key not in allowed:
                raise ConfigError(f"unknown key in [{self.name}]",
                                  key=key, line=line)
        for key in sorted(required):
            if key not in self.entries:
                raise ConfigError(f"[{self.name}] is missing required key '{key}'",
                                  key=key)

    def value(self, key: str, parse: Callable, expected: str, default=None):
        """``parse`` the key's text, or return ``default`` if it is absent;
        a ValueError from ``parse`` means the text is not ``expected``."""
        if key not in self.entries:
            return default
        text, line = self.entries[key]
        try:
            return parse(text)
        except ValueError as exc:
            raise ConfigError(f"expected {expected}, got {text!r}",
                              key=key, line=line) from exc

    def float(self, key: str, default=None) -> float:
        return self.value(key, _finite, "a number", default)

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
        sec.check_keys(_PLAN_KEYS, _PLAN_KEYS - {
            "mode_period_us", "capture_override", "eta_herald", "g2_source"})
        shape = PulseShape(
            sec.value("input_shape", lambda v: PulseKind(v.strip().lower()),
                      f"one of {[k.value for k in PulseKind]}"),
            fwhm=sec.float("input_fwhm_ns"),
            capture_override=sec.float("capture_override"))
        return SequencePlan(
            tau=sec.float("tau_us"),
            t_spin=sec.float("t_spin_us"),
            n_temporal=sec.int("n_temporal"),
            mean_photon_number=sec.float("mean_photon_number"),
            input_shape=shape,
            detection_window=sec.float("detection_window_ns"),
            eta_herald=sec.float("eta_herald", SequencePlan.eta_herald),
            g2_source=sec.float("g2_source", SequencePlan.g2_source),
            cell_order=tuple(sec.value("cell_order", _ints,
                                       "comma-separated integers")),
            mode_period=sec.float("mode_period_us"))


# --------------------------------------------------------------------------
# noise file


_NOISE_KEYS = {"base_noise_per_window", "fluorescence_amplitude",
               "fluorescence_decay_us", "dark_rate_hz"}
_ROW_RE = re.compile(r"^row_(\d+)$")


def _matrix_rows(sec: _Section) -> tuple[tuple[int, ...], list[list[float]]]:
    keys: dict[int, str] = {}  # cell id -> its row key
    for key, (_, line) in sec.entries.items():
        m = _ROW_RE.match(key)
        if not m:
            raise ConfigError(f"expected row_<cell_id> keys in [{sec.name}]",
                              key=key, line=line)
        cid = int(m.group(1))
        if cid in keys:  # row_1 and row_01, say
            first = keys[cid]
            raise ConfigError(f"[{sec.name}] has two rows for cell {cid}: "
                              f"{first} on line {sec.entries[first][1]} and "
                              f"{key} on line {line}", key=key, line=line)
        keys[cid] = key
    order = sorted(keys)
    rows = []
    for cid in order:
        key = keys[cid]
        row = sec.value(key, _floats, "comma-separated numbers")
        if len(row) != len(order):
            raise ConfigError(f"[{sec.name}] {key} has {len(row)} entries, "
                              f"expected {len(order)} (one per cell)",
                              key=key, line=sec.entries[key][1])
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


def _write_csv(path, header, rows) -> Path:
    """Write ``header`` and then each of ``rows`` to ``path`` as CSV."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path


def _fmt(x: float) -> str:
    return format(x, ".10g")  # also writes nan, inf and -inf


COUNTS_HEADER = ["run_kind", "input_cell", "output_cell", "temporal_index",
                 "total_counts", "n_trials"]


def write_counts_csv(path, result: TrialCounts) -> Path:
    """Write a counts table, one row per window in sorted key order, so
    identical runs produce byte-identical files.

    A signal or noise run's (cell, k) key becomes input = output = cell at
    temporal index k; a scan's (input, output) key is written at temporal
    index 1.
    """
    scan = result.kind is RunKind.CROSSTALK
    rows = []
    for a, b in sorted(result.counts):
        i, j, k = (a, b, 1) if scan else (a, a, b)
        rows.append([result.kind.value, i, j, k, result.counts[(a, b)],
                     result.n_trials])
    return _write_csv(path, COUNTS_HEADER, rows)


def read_counts_csv(path) -> TrialCounts:
    """Read a counts CSV back into the TrialCounts that wrote it.

    Every row must share one run kind and one n_trials.  Signal and noise
    rows need input_cell == output_cell; scan rows need temporal_index 1.
    A duplicated (input_cell, output_cell, temporal_index) key is refused,
    and so is a row without exactly one field per header column.  Row
    errors name the file and the line.
    """
    path = Path(path)
    kind = n_trials = None
    counts: dict[tuple[int, int], int] = {}
    key_lines: dict[tuple[int, int], int] = {}
    with _reading(path), path.open(newline="", encoding="utf-8") as fh:
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
            if len(row) != len(COUNTS_HEADER):
                raise ConfigError(f"bad counts row: {row} (expected "
                                  f"{len(COUNTS_HEADER)} fields, got "
                                  f"{len(row)})", path=path, line=lineno)
            try:
                i, j, k, total, n = map(int, row[1:])
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


def write_timeline_csv(path, events) -> Path:
    return _write_csv(
        path, ["channel", "kind", "cell_id", "temporal_index", "start_us",
               "duration_us"],
        ([ev.channel.value, ev.kind.value, ev.cell_id,
          "" if ev.temporal_index is None else ev.temporal_index,
          _fmt(ev.start), _fmt(ev.duration)] for ev in events))


def write_mode_stats_csv(path, stats) -> Path:
    """stats: mapping (spatial_mode, temporal_index) -> ModeStats."""
    return _write_csv(
        path, ["spatial_mode", "temporal_index", "c_signal", "c_signal_err",
               "c_noise", "c_noise_err", "snr", "snr_err"],
        ([cell, k, _fmt(s.c_signal), _fmt(s.err_signal), _fmt(s.c_noise),
          _fmt(s.err_noise), _fmt(s.snr), _fmt(s.snr_err)]
         for (cell, k), s in sorted(stats.items())))


def write_cumulative_csv(path, modes, cum_signal, cum_signal_err,
                         cum_noise, cum_noise_err) -> Path:
    return _write_csv(
        path, ["mode_number", "spatial_mode", "temporal_index",
               "c_signal_cum", "c_signal_cum_err",
               "c_noise_cum", "c_noise_cum_err"],
        ([n, cell, k, _fmt(cs), _fmt(cse), _fmt(cb), _fmt(cbe)]
         for n, ((cell, k), cs, cse, cb, cbe) in enumerate(
             zip(modes, cum_signal, cum_signal_err, cum_noise, cum_noise_err),
             start=1)))


def write_projections_csv(path, projections) -> Path:
    return _write_csv(
        path, ["spatial_mode", "c_signal_rescaled", "c_signal_rescaled_err",
               "snr_adjusted", "snr_adjusted_err", "g2", "g2_err",
               "fidelity", "fidelity_err"],
        ([p.cell_id, _fmt(p.c_signal_rescaled), _fmt(p.err_rescaled),
          _fmt(p.snr_adjusted), _fmt(p.snr_adjusted_err),
          _fmt(p.g2_inferred), _fmt(p.g2_err),
          _fmt(p.fidelity), _fmt(p.fidelity_err)] for p in projections))


def write_crosstalk_csvs(matrix_path, err_path, summary_path, xtalk) -> list[Path]:
    """Write the cross-talk ratio matrix, its error matrix and a summary."""
    ids = xtalk.cell_ids
    header = ["input_cell"] + [str(j) for j in ids]
    paths = [_write_csv(path, header, ([cid] + [_fmt(v) for v in row]
                                       for cid, row in zip(ids, table)))
             for path, table in ((matrix_path, xtalk.c),
                                 (err_path, xtalk.c_err))]
    summary = [["mean_offdiagonal", "", _fmt(xtalk.mean_offdiagonal)]]
    summary += [["noise_contribution", cid, _fmt(xtalk.noise_contribution[cid])]
                for cid in ids
                if cid in xtalk.noise_contribution]  # absent for invalid rows
    summary += [["invalid_row", cid, ""] for cid in xtalk.invalid_rows]
    paths.append(_write_csv(summary_path, ["quantity", "cell", "value"],
                            summary))
    return paths


# --------------------------------------------------------------------------
# manifests


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _jsonable(obj):
    # Most nodes of a manifest are numbers and strings: return them before
    # any other test.  An exact type check, so that enum members that are
    # also str or int still become their values.
    if type(obj) in (str, int, float) or obj is None:
        return obj
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
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True)
                    + "\n")
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
