"""Configuration-file parsing, CSV emission/ingestion and run manifests.

Config files are INI-style structured text.  One schema per section maps
each key to its record field and its parser; a key is optional when its
field has a default.  Parsing is strict: unknown keys are rejected, and
diagnostics carry the file, key and line number so the CLI can point at
the offending entry.

Every input is read by ``_read_text`` and every output written by
``_write_text``.  Inside a ``file_digests()`` block each of them records the
sha256 of the bytes it parsed or wrote, so a run manifest hashes what the
run read and what it wrote, not a second read of a file that may have
changed since.  A manifest names each input by its path and that sha256
and holds no copy of the parsed configuration: the file whose bytes match
the hash loads again to the same records.  A loader reads and hashes its
file on every call, but parses and checks each distinct text only once per
process and hands every later call the same frozen records; a refused file
is parsed and refused again on every call.  Counts tables go the same way:
``read_counts_csv`` reads and hashes its file on every call, and a counts
text written or read in the process (one of the last few) is parsed at
most once, so ``analyze`` takes back the runs that a ``run`` of the same
process just wrote without parsing them.  A table or manifest whose write
fails leaves no partial file behind, and a ``file_digests()`` block that
raises removes every file written in it: a command runs in one such block.
A path argument may be a ``str`` or a ``Path``, and a ``Path`` is used as
given.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import MISSING, fields
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

from .device import ArrayDevice, CellParams
from .errors import ConfigError
from .sequence import PulseKind, SequencePlan
from .simulate import LeakageMatrix, NoiseParams, RunKind, TrialCounts

_COMMENT_RE = re.compile(r"(?:^|\s)[#;]")
# The record of the innermost ``file_digests()`` block, if any: the dict it
# yields and the list of the files written in it.
_DIGESTS: ContextVar[tuple | None] = ContextVar("file_digests", default=None)


@contextmanager
def file_digests():
    """Record the sha256 of each file read or written in the block.

    Yields a dict that maps the ``Path`` of every file that a loader or
    reader parses, or a writer writes, in the block to the hex digest of
    the bytes it parsed or wrote.  If the block raises, the files written
    in it, never one it only read, are removed before it re-raises; if it
    ends normally, its record joins that of the enclosing block, if any.
    """
    digests: dict[Path, str] = {}
    written: list[Path] = []
    outer = _DIGESTS.get()
    token = _DIGESTS.set((digests, written))
    try:
        yield digests
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    finally:
        _DIGESTS.reset(token)
    if outer is not None:
        outer[0].update(digests)
        outer[1].extend(written)


def _record(path: Path, data: bytes, wrote: bool = False) -> None:
    if (record := _DIGESTS.get()) is not None:
        digests, written = record
        digests[path] = hashlib.sha256(data).hexdigest()
        if wrote:
            written.append(path)


def _read_text(path: Path) -> str:
    """The UTF-8 text of the file at ``path``, read once, with the sha256 of
    its bytes recorded; a file that cannot be read or decoded raises a
    ConfigError that names it."""
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except FileNotFoundError as exc:
        raise ConfigError("file not found", path=path) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text ({exc.reason})", path=path) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read file: {exc.strerror or exc}",
                          path=path) from exc
    _record(path, data)
    return text


# --------------------------------------------------------------------------
# low-level INI handling


def _load_ini(text: str) -> dict[str, _Section]:
    """Parse INI text in one pass: ``[name]`` headers, ``key = value`` or
    ``key: value`` lines, ``#``/``;`` comments and indented lines that
    continue a value.  Syntax errors name the line; the loader, which
    parses inside ``_in_file``, names the file.

    Every line is stripped in one ``map``; a blank or whole-comment line is
    skipped on its first character, a comment inside a line is cut only if
    the line holds ``#`` or ``;``, the key is split from its value with
    ``str.partition``, and indentation is measured only for a line that
    starts with whitespace."""
    lines = text.splitlines()
    sections: dict[str, _Section] = {}
    sec = key = None
    for lineno, raw, line in zip(range(1, len(lines) + 1), lines,
                                 map(str.strip, lines)):
        if not line or line[0] in "#;":
            continue
        if "#" in line or ";" in line:
            line = _COMMENT_RE.split(line, 1)[0].rstrip()
        if raw[0] == line[0]:
            indent = 0
        else:
            indent = len(raw) - len(raw.lstrip())
            if key is not None and indent > key_indent:
                entries[key][0] += "\n" + line
                continue
        if line[0] == "[" and line[-1] == "]" and len(line) > 2:
            if line[1:-1] in sections:
                raise ConfigError(f"duplicate section {line}", line=lineno)
            sec = sections[line[1:-1]] = _Section(line[1:-1])
            entries, key = sec.entries, None
            continue
        if sec is None:
            raise ConfigError(f"text before the first section: {line!r}",
                              line=lineno)
        key, eq, value = line.partition("=")
        if ":" in key:  # the first delimiter splits
            key, eq, value = line.partition(":")
        if not key or not eq:
            raise ConfigError(f"expected 'key = value' or a [section] header, "
                              f"got {line!r}", line=lineno)
        key, key_indent = key.rstrip().lower(), indent
        if key in entries:
            raise ConfigError(f"duplicate key in [{sec.name}]", key=key,
                              line=lineno)
        entries[key] = [value.lstrip(), lineno]
    if not sections:
        raise ConfigError("no sections found (empty or comment-only file)")
    return sections


@contextmanager
def _in_file(path: Path):
    """Give a ConfigError raised in the block that names no file this
    file's path."""
    try:
        yield
    except ConfigError as exc:
        if exc.path is None:
            exc.path = path
        raise


def _load(path, parse, *args):
    """``parse(sections, *args)`` of the INI file at ``path``.  The file is
    read, and its sha256 recorded, on every call; its text is parsed and
    checked only when ``_parsed`` has not seen it, and a refusal, never
    kept, names the file."""
    path = path if isinstance(path, Path) else Path(path)
    text = _read_text(path)
    with _in_file(path):
        return _parsed(parse, text, *args)


@lru_cache(maxsize=64, typed=True)
def _parsed(parse, text: str, *args):
    """The frozen records of one config text, kept for the last 64 distinct
    (parse, text, args) keys; an argument's type is part of its key."""
    return parse(_load_ini(text), *args)


def _finite(text: str) -> float:
    """``float(text)``, refusing nan and infinities (``1e400`` too)."""
    if not math.isfinite(x := float(text)):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _pairs(text: str) -> list[tuple[float, float]]:
    """Parse 'a:b, c:d' pairs (calibration tables)."""
    pairs = []
    for tok in text.split(","):
        a, b = tok.split(":")
        pairs.append((_finite(a), _finite(b)))
    return pairs


class _Key(NamedTuple):
    """How a config key's text becomes the value of a record field, the
    one named like the key if ``field`` is None (``_schema`` fills it in):
    a ValueError from ``parse`` refuses the text as not ``expected``, by
    default a number."""

    field: str | None = None
    parse: Callable = _finite
    expected: str = "a number"


def _schema(record, keys: dict[str, _Key], optional=()):
    """A config section's keys, each mapped to the _Key that fills a field
    of ``record``, and the keys it requires, sorted: all but those of
    ``optional`` and those whose field has a default, which applies when
    the key is absent."""
    defaults = {f.name for f in fields(record)
                if f.default is not MISSING or f.default_factory is not MISSING}
    keys = {key: spec._replace(field=spec.field or key)
            for key, spec in keys.items()}
    return keys, sorted(key for key, spec in keys.items()
                        if key not in optional and spec.field not in defaults)


class _Section:
    """One INI section: ``entries`` maps each key to [its text, its line].

    Errors carry the key and line but no path: the loaders raise them
    inside ``_in_file``.
    """

    def __init__(self, name: str):
        self.name = name
        self.entries: dict[str, list] = {}

    def read(self, schema) -> dict:
        """The section as record keyword arguments.  Refuses an unknown key,
        the first in file order, then a missing required key, the first in
        sorted order; then parses the keys present in schema order.

        Each rule is one walk: the entries for an unknown key, the required
        keys for a missing one, and the schema to parse the values, where a
        ValueError is worded for the key it was parsing."""
        keys, required = schema
        entries = self.entries
        for key, (_, line) in entries.items():
            if key not in keys:
                raise ConfigError(f"unknown key in [{self.name}]",
                                  key=key, line=line)
        for key in required:
            if key not in entries:
                raise ConfigError(f"[{self.name}] is missing required "
                                  f"key '{key}'", key=key)
        values = {}
        try:
            for key, (field, parse, _) in keys.items():
                if key in entries:
                    values[field] = parse(entries[key][0])
        except ValueError as exc:
            raise self.refusal(key, keys[key].expected) from exc
        return values

    def refusal(self, key: str, expected: str) -> ConfigError:
        """The error that refuses the key's text as not ``expected``."""
        text, line = self.entries[key]
        return ConfigError(f"expected {expected}, got {text!r}", key=key,
                           line=line)


# --------------------------------------------------------------------------
# device file


_CELL_ID = "cell_id"  # named again when two cells share an id
_CELL = _schema(CellParams, {
    _CELL_ID: _Key(None, int, "an integer"), "eta_mux": _Key(),
    "eta_demux": _Key(), "eta_fiber": _Key(), "eta_transfer": _Key(),
    "afc_calibration": _Key(None, _pairs, "'tau:eta' pairs")})
_ARRAY = _schema(ArrayDevice, {
    "eta_detection_path": _Key(),
    "dark_count_rate_hz": _Key("dark_count_rate")})


def load_device(path) -> ArrayDevice:
    """Read an array device file: an [array] section (schema ``_ARRAY``)
    and one [cell N] section (``_CELL``) per cell, no two with one id."""
    return _load(path, _parse_device)


def _parse_device(sections) -> ArrayDevice:
    if "array" not in sections:
        raise ConfigError("device file needs an [array] section")
    array = sections.pop("array").read(_ARRAY)
    cells = {}  # cell id -> (the cell, the name of its section)
    for name, sec in sections.items():
        if not name.lower().startswith("cell"):
            raise ConfigError(f"unexpected section [{name}] in device file")
        cell = CellParams(**sec.read(_CELL))
        if cell.cell_id in cells:
            first = cells[cell.cell_id][1]
            line = sec.entries[_CELL_ID][1]
            raise ConfigError(f"two sections for cell {cell.cell_id}: "
                              f"[{first}] on line "
                              f"{sections[first].entries[_CELL_ID][1]} and "
                              f"[{name}] on line {line}", key=_CELL_ID,
                              line=line)
        cells[cell.cell_id] = cell, name
    return ArrayDevice(cells=tuple(cells[i][0] for i in sorted(cells)),
                       **array)


# --------------------------------------------------------------------------
# plan file


_PLAN = _schema(SequencePlan, {
    "input_shape": _Key(None, lambda text: PulseKind(text.strip().lower()),
                        f"one of {[k.value for k in PulseKind]}"),
    "input_fwhm_ns": _Key("input_fwhm"), "capture_override": _Key(),
    "tau_us": _Key("tau"), "t_spin_us": _Key("t_spin"),
    "n_temporal": _Key(None, int, "an integer"), "mean_photon_number": _Key(),
    "detection_window_ns": _Key("detection_window"),
    "eta_herald": _Key(), "g2_source": _Key(),
    "cell_order": _Key(None, lambda text: [int(t) for t in text.split(",")],
                       "comma-separated integers"),
    "mode_period_us": _Key("mode_period")})


def load_plan(path) -> SequencePlan:
    """Read a storage plan file: a single [plan] section, read with the
    ``_PLAN`` schema."""
    return _load(path, _parse_plan)


def _parse_plan(sections) -> SequencePlan:
    if "plan" not in sections:
        raise ConfigError("plan file needs a [plan] section")
    extra = set(sections) - {"plan"}
    if extra:
        raise ConfigError(f"unexpected sections in plan file: {sorted(extra)}")
    return SequencePlan(**sections["plan"].read(_PLAN))


# --------------------------------------------------------------------------
# noise file


_DARK_RATE = "dark_rate_hz"  # optional: the device's rate can stand in
_NOISE = _schema(NoiseParams, {
    _DARK_RATE: _Key("dark_rate"), "base_noise_per_window": _Key(),
    "fluorescence_amplitude": _Key(),
    "fluorescence_decay_us": _Key("fluorescence_decay"),
}, optional={_DARK_RATE})
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
        try:
            row = list(map(_finite, sec.entries[key][0].split(",")))
        except ValueError as exc:
            raise sec.refusal(key, "comma-separated numbers") from exc
        if len(row) != len(order):
            raise ConfigError(f"[{sec.name}] {key} has {len(row)} entries, "
                              f"expected {len(order)} (one per cell)",
                              key=key, line=sec.entries[key][1])
        rows.append(row)
    return tuple(order), rows


def load_noise(path, default_dark_rate: float | None = None,
               ) -> tuple[NoiseParams, LeakageMatrix | None]:
    """Read a noise file: a [noise] section, read with the ``_NOISE``
    schema, plus optional [leakage] and [offresonant] matrices, one
    ``row_<cell_id>`` key per cell.

    dark_rate_hz may be omitted when the device file already supplies a
    detector dark-count rate; pass it as ``default_dark_rate``.
    """
    return _load(path, _parse_noise, default_dark_rate)


def _parse_noise(sections, default_dark_rate):
    if "noise" not in sections:
        raise ConfigError("noise file needs a [noise] section")
    extra = set(sections) - {"noise", "leakage", "offresonant"}
    if extra:
        raise ConfigError(f"unexpected sections in noise file: {sorted(extra)}")
    noise = sections["noise"].read(_NOISE)
    if noise.setdefault("dark_rate", default_dark_rate) is None:
        raise ConfigError(f"{_DARK_RATE} missing and no device fallback "
                          f"given", key=_DARK_RATE)

    leak = None
    if "leakage" in sections:
        ids, rows = _matrix_rows(sections["leakage"])
        leak = LeakageMatrix(cell_ids=ids, values=tuple(map(tuple, rows)))

    offres: dict[tuple[int, int], float] = {}
    if "offresonant" in sections:
        ids, rows = _matrix_rows(sections["offresonant"])
        offres = {(cid, cjd): v for cid, row in zip(ids, rows)
                  for cjd, v in zip(ids, row) if v != 0.0}

    return NoiseParams(offresonant_echo_leak=offres, **noise), leak


# --------------------------------------------------------------------------
# CSV emission.  Each writer declares a ``%`` row format: ``%.10g`` for a
# float, which spells every float, nan, inf, -inf and -0.0 included, as
# ``format(x, ".10g")`` does, and ``%s`` for a value written as
# ``str(value)``.  Every field is a number, an empty string or a fixed name
# without commas, quotes or newlines, so none needs CSV quoting.  Lines end
# in "\n" on every platform and each file is written in one call, so
# identical tables give identical bytes.


def _write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 in one call, its newlines
    untranslated, and record the sha256 of the bytes written; a write that
    fails once the file is open removes the file before re-raising, with
    the path as the error's filename."""
    path = path if isinstance(path, Path) else Path(path)
    data = text.encode("utf-8")
    fh = path.open("wb")
    try:
        with fh:
            fh.write(data)
    except OSError as exc:
        path.unlink(missing_ok=True)
        if exc.filename is None:  # a failed write or flush names no file
            exc.filename = str(path)
        raise
    _record(path, data, wrote=True)
    return path


def _table(columns, row_format: str, rows) -> str:
    """The ``columns`` header and then one line of ``row_format % row`` for
    each tuple of ``rows``."""
    return (",".join(columns) + "\n"
            + "".join(map((row_format + "\n").__mod__, rows)))


def _write_table(path, columns, row_format: str, rows) -> Path:
    return _write_text(path, _table(columns, row_format, rows))


COUNTS_HEADER = ["run_kind", "input_cell", "output_cell", "temporal_index",
                 "total_counts", "n_trials"]


def write_counts_csv(path, result: TrialCounts) -> Path:
    """Write a counts table, one row per window in the run's sorted key
    order, so identical runs produce byte-identical files.

    A signal or noise run's (cell, k) key becomes input = output = cell at
    temporal index k; a scan's (input, output) key is written at temporal
    index 1.  The run kind and n_trials, the same on every row, are part
    of the row format.  Once the file is written, ``_COUNTS_MEMO`` keeps
    its text with ``result``, so a read of it in this process parses
    nothing.
    """
    kind, n = result.kind.value, result.n_trials
    a, b = zip(*result.keys)  # the key columns
    if result.kind is RunKind.CROSSTALK:
        text = _table(COUNTS_HEADER, f"{kind},%s,%s,1,%s,{n}",
                      zip(a, b, result.totals))
    else:
        text = _table(COUNTS_HEADER, f"{kind},%s,%s,%s,%s,{n}",
                      zip(a, a, b, result.totals))
    path = _write_text(path, text)
    _COUNTS_MEMO[text] = result
    return path


_RUN_KINDS = {kind.value: kind for kind in RunKind}


def _csv_rows(text: str):
    """The rows of ``text`` as a file opened with newline="" gives them."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:  # a NUL byte before Python 3.11, a long field
        raise ConfigError(f"bad CSV: {exc}", line=reader.line_num) from exc


def read_counts_csv(path) -> TrialCounts:
    """Read a counts CSV, its rows in any order, back into the TrialCounts
    that wrote it.

    Every row must share one run kind and one n_trials.  Signal and noise
    rows need input_cell == output_cell; scan rows need temporal_index 1.
    A duplicated (input_cell, output_cell, temporal_index) key is refused,
    and so is a row without exactly one field per header column or a line
    the CSV reader cannot split.  Each refusal names the file and the line.

    The file is read, and its sha256 recorded, on every call; its text is
    parsed only when ``_COUNTS_MEMO`` holds no run for it.
    """
    path = path if isinstance(path, Path) else Path(path)
    with _in_file(path):
        return _COUNTS_MEMO[_read_text(path)]


class _CountsMemo(dict):
    """The run of each of the last ``_COUNTS_KEPT`` distinct counts texts
    written or read, oldest first; a text written again becomes the newest.

    It is kept apart from ``_parsed``: ``write_counts_csv`` fills it with
    the run it was given, which an ``lru_cache`` cannot take, and a table
    is 10-100 times the size of a config text, so it gets a bound of its
    own.  Only a text that parses is kept; a refusal is raised again on
    every read.  A kept run equals what a cold parse of its text gives,
    because ``TrialCounts`` holds only runs whose written file reads back
    equal.
    """

    def __missing__(self, text: str) -> TrialCounts:
        run = self[text] = _parse_counts(text)
        return run

    def __setitem__(self, text: str, run: TrialCounts) -> None:
        self.pop(text, None)
        if len(self) >= _COUNTS_KEPT:
            del self[next(iter(self))]
        super().__setitem__(text, run)


# An analyze reads back the signal and noise runs that the process has just
# written: 8 texts are four such pairs.  A 250-mode entry, its text and its
# run, takes about 47 kB.
_COUNTS_KEPT = 8
_COUNTS_MEMO = _CountsMemo()


def _parse_counts(text: str) -> TrialCounts:
    """The run of a counts text, parsed a row at a time; each refusal names
    its line, and ``read_counts_csv`` names the file."""
    kind, n_trials = None, None
    key_lines: dict[tuple[int, int], int] = {}  # each key's line, file order
    totals: list[int] = []
    rows = _csv_rows(text)
    if (header := next(rows, None)) is None:
        raise ConfigError("empty counts file")
    if header != COUNTS_HEADER:
        raise ConfigError(f"unexpected counts header {header}", line=1)
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(COUNTS_HEADER):
            raise ConfigError(f"bad counts row: {row} (expected "
                              f"{len(COUNTS_HEADER)} fields, got "
                              f"{len(row)})", line=lineno)
        try:
            kind_text, i, j, k, total, n = row
            i, j, k, total, n = int(i), int(j), int(k), int(total), int(n)
            row_kind = _RUN_KINDS[kind_text]
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad counts row: {row}",
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
            totals.append(total)
            continue
        raise ConfigError(msg, line=lineno)
    if kind is None:
        raise ConfigError("counts file has no data rows")
    return TrialCounts(kind, tuple(key_lines), totals, n_trials)


def write_timeline_csv(path, events) -> Path:
    return _write_table(
        path, ["channel", "kind", "cell_id", "temporal_index", "start_us",
               "duration_us"], "%s,%s,%s,%s,%.10g,%.10g",
        [(ev.channel.value, ev.kind.value, ev.cell_id,
          "" if ev.temporal_index is None else ev.temporal_index,
          ev.start, ev.duration) for ev in events])


def write_mode_stats_csv(path, stats) -> Path:
    """Write a ModeStats column record, one row per mode in its order; a
    column of another length than ``stats.modes`` raises, writing nothing."""
    return _write_table(
        path, ["spatial_mode", "temporal_index", "c_signal", "c_signal_err",
               "c_noise", "c_noise_err", "snr", "snr_err"],
        "%s,%s" + ",%.10g" * 6,
        zip(*zip(*stats.modes),  # the cell column, then the index column
            stats.c_signal, stats.err_signal, stats.c_noise, stats.err_noise,
            stats.snr, stats.snr_err, strict=True))


def write_cumulative_csv(path, modes, cum_signal, cum_signal_err,
                         cum_noise, cum_noise_err) -> Path:
    return _write_table(
        path, ["mode_number", "spatial_mode", "temporal_index",
               "c_signal_cum", "c_signal_cum_err",
               "c_noise_cum", "c_noise_cum_err"],
        "%s,%s,%s" + ",%.10g" * 4,
        [(n, cell, k, cs, cse, cb, cbe)
         for n, ((cell, k), cs, cse, cb, cbe) in enumerate(
             zip(modes, cum_signal, cum_signal_err, cum_noise, cum_noise_err),
             start=1)])


def write_projections_csv(path, projections) -> Path:
    return _write_table(
        path, ["spatial_mode", "c_signal_rescaled", "c_signal_rescaled_err",
               "snr_adjusted", "snr_adjusted_err", "g2", "g2_err",
               "fidelity", "fidelity_err"],
        "%s" + ",%.10g" * 8,
        [(p.cell_id, p.c_signal_rescaled, p.err_rescaled, p.snr_adjusted,
          p.snr_adjusted_err, p.g2_inferred, p.g2_err, p.fidelity,
          p.fidelity_err) for p in projections])


def write_crosstalk_csvs(matrix_path, err_path, summary_path, xtalk) -> list[Path]:
    """Write the cross-talk ratio matrix, its error matrix and a summary;
    if a write fails, none of the three files is left behind."""
    ids = xtalk.cell_ids
    header = ["input_cell"] + [str(j) for j in ids]
    row_format = "%s" + ",%.10g" * len(ids)
    summary = [("mean_offdiagonal", "", "%.10g" % xtalk.mean_offdiagonal)]
    summary += [("noise_contribution", cid,
                 "%.10g" % xtalk.noise_contribution[cid])
                for cid in ids
                if cid in xtalk.noise_contribution]  # absent for invalid rows
    summary += [("invalid_row", cid, "") for cid in xtalk.invalid_rows]
    rows = [[(cid, *row) for cid, row in zip(ids, table)]
            for table in (xtalk.c, xtalk.c_err)]
    with file_digests():  # all three files or none
        return [_write_table(matrix_path, header, row_format, rows[0]),
                _write_table(err_path, header, row_format, rows[1]),
                _write_table(summary_path, ["quantity", "cell", "value"],
                             "%s,%s,%s", summary)]


# --------------------------------------------------------------------------
# manifests


def write_manifest(path, payload: dict) -> Path:
    """Write ``payload``, a dict of JSON values, as indented JSON with
    sorted keys; a write that fails once the file is open removes the file
    before re-raising."""
    return _write_text(path, json.dumps(payload, indent=2, sort_keys=True)
                       + "\n")
