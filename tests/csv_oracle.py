"""The CSV tables as ``csv.writer`` writes them, and a counts file as a
``csv.reader`` over the open file reads it.

``memarray.io`` writes each table as one string built from a ``%`` row
format per writer.  The functions here build the same rows field by field,
floats through ``format(x, ".10g")`` and every row through ``csv.writer``
with "\\n" line ends; each writer must give the same bytes for every input.

``memarray.io.read_counts_csv`` parses the text of bytes it read in one
call.  ``read_counts_csv`` here reads the file through a text stream
opened with ``newline=""``, row by row, and must return an equal
TrialCounts or raise an error with the same text for every file.
"""

import csv
import io
from contextlib import contextmanager
from pathlib import Path

from memarray.errors import ConfigError
from memarray.simulate import RunKind, TrialCounts


def _fmt(x: float) -> str:
    return format(x, ".10g")  # also writes nan, inf and -inf


def _csv(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def counts_bytes(result) -> bytes:
    scan = result.kind is RunKind.CROSSTALK
    rows = []
    for (a, b), total in sorted(zip(result.keys, result.totals)):
        i, j, k = (a, b, 1) if scan else (a, a, b)
        rows.append([result.kind.value, i, j, k, total, result.n_trials])
    return _csv(["run_kind", "input_cell", "output_cell", "temporal_index",
                 "total_counts", "n_trials"], rows)


def timeline_bytes(events) -> bytes:
    return _csv(
        ["channel", "kind", "cell_id", "temporal_index", "start_us",
         "duration_us"],
        ([ev.channel.value, ev.kind.value, ev.cell_id,
          "" if ev.temporal_index is None else ev.temporal_index,
          _fmt(ev.start), _fmt(ev.duration)] for ev in events))


def mode_stats_bytes(stats) -> bytes:
    return _csv(
        ["spatial_mode", "temporal_index", "c_signal", "c_signal_err",
         "c_noise", "c_noise_err", "snr", "snr_err"],
        ([cell, k, *map(_fmt, values)] for (cell, k), *values in sorted(zip(
            stats.modes, stats.c_signal, stats.err_signal, stats.c_noise,
            stats.err_noise, stats.snr, stats.snr_err))))


def cumulative_bytes(modes, cum_signal, cum_signal_err, cum_noise,
                     cum_noise_err) -> bytes:
    return _csv(
        ["mode_number", "spatial_mode", "temporal_index",
         "c_signal_cum", "c_signal_cum_err", "c_noise_cum", "c_noise_cum_err"],
        ([n, cell, k, _fmt(cs), _fmt(cse), _fmt(cb), _fmt(cbe)]
         for n, ((cell, k), cs, cse, cb, cbe) in enumerate(
             zip(modes, cum_signal, cum_signal_err, cum_noise, cum_noise_err),
             start=1)))


def projections_bytes(projections) -> bytes:
    return _csv(
        ["spatial_mode", "c_signal_rescaled", "c_signal_rescaled_err",
         "snr_adjusted", "snr_adjusted_err", "g2", "g2_err",
         "fidelity", "fidelity_err"],
        ([p.cell_id, _fmt(p.c_signal_rescaled), _fmt(p.err_rescaled),
          _fmt(p.snr_adjusted), _fmt(p.snr_adjusted_err),
          _fmt(p.g2_inferred), _fmt(p.g2_err),
          _fmt(p.fidelity), _fmt(p.fidelity_err)] for p in projections))


def crosstalk_bytes(xtalk) -> list[bytes]:
    """The matrix, error-matrix and summary files, in that order."""
    ids = xtalk.cell_ids
    header = ["input_cell"] + [str(j) for j in ids]
    files = [_csv(header, ([cid] + [_fmt(v) for v in row]
                           for cid, row in zip(ids, table)))
             for table in (xtalk.c, xtalk.c_err)]
    summary = [["mean_offdiagonal", "", _fmt(xtalk.mean_offdiagonal)]]
    summary += [["noise_contribution", cid, _fmt(xtalk.noise_contribution[cid])]
                for cid in ids if cid in xtalk.noise_contribution]
    summary += [["invalid_row", cid, ""] for cid in xtalk.invalid_rows]
    files.append(_csv(["quantity", "cell", "value"], summary))
    return files


COUNTS_HEADER = ["run_kind", "input_cell", "output_cell", "temporal_index",
                 "total_counts", "n_trials"]
_RUN_KINDS = {kind.value: kind for kind in RunKind}


@contextmanager
def _reading(path: Path):
    try:
        yield
    except FileNotFoundError as exc:
        raise ConfigError("file not found", path=path) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text ({exc.reason})", path=path) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read file: {exc.strerror or exc}",
                          path=path) from exc


def read_counts_csv(path) -> TrialCounts:
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
            raise ConfigError(f"unexpected counts header {header}", path=path,
                              line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(COUNTS_HEADER):
                raise ConfigError(f"bad counts row: {row} (expected "
                                  f"{len(COUNTS_HEADER)} fields, got "
                                  f"{len(row)})", path=path, line=lineno)
            try:
                i, j, k, total, n = map(int, row[1:])
                row_kind = _RUN_KINDS[row[0]]
            except (ValueError, KeyError) as exc:
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
    return TrialCounts(kind=kind, keys=tuple(counts),
                       totals=tuple(counts.values()), n_trials=n_trials)
