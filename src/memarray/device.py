"""Physical parameterization of the memory array and the deterministic
efficiency arithmetic built on top of it.  The input pulse is part of the
plan: ``PulseKind`` and ``window_capture_fraction(plan)`` are in
``memarray.sequence``.

All efficiencies are phenomenological: they come from a calibration run with
classical light and enter the photon-counting model as plain multiplicative
factors.  Comb structure, optical depth and pumping dynamics are deliberately
not modelled.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import ConfigError

# Extrapolating the AFC decay fit beyond this multiple of the calibration
# span is refused outright; inside it, it is allowed but logged.
_EXTRAPOLATION_LIMIT = 2.0


@dataclass(frozen=True)
class CellParams:
    """Per-cell efficiency record.

    afc_calibration holds (storage time in us -> echo efficiency) pairs;
    two or more points are required so the efficiency can be interpolated at
    intermediate storage times.
    """

    cell_id: int
    eta_mux: float
    eta_demux: float
    eta_fiber: float
    eta_transfer: float
    afc_calibration: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.cell_id < 1:
            raise ConfigError(f"cell_id must be >= 1, got {self.cell_id}")
        # Plain loops: on a handful of values each beats a bulk test, and
        # a refusal is worded only once a value fails.
        for name in ("eta_mux", "eta_demux", "eta_fiber", "eta_transfer"):
            if not 0.0 <= (value := getattr(self, name)) <= 1.0:
                raise ConfigError(f"cell {self.cell_id}: {name} must be a "
                                  f"fraction in [0, 1], got {value}")
        table = tuple(sorted((float(t), float(e)) for t, e in self.afc_calibration))
        if len(table) < 2:
            raise ConfigError(
                f"cell {self.cell_id}: afc_calibration needs at least two "
                f"(tau, efficiency) points, got {len(table)}")
        taus, etas = zip(*table)
        for t in taus:
            if not math.isfinite(t):
                raise ConfigError(f"cell {self.cell_id}: calibration tau must "
                                  f"be finite, got {t}")
        if taus[0] <= 0:  # the smallest, as the table is sorted
            raise ConfigError(f"cell {self.cell_id}: calibration tau must "
                              f"be positive, got {taus[0]}")
        if len(set(taus)) != len(taus):
            raise ConfigError(f"cell {self.cell_id}: duplicate calibration tau")
        for e in etas:
            if not 0.0 < e <= 1.0:
                raise ConfigError(f"cell {self.cell_id}: AFC efficiencies must be in (0, 1]")
        for a, b in zip(etas, etas[1:]):
            if a <= b:
                raise ConfigError(
                    f"cell {self.cell_id}: AFC efficiency must strictly decrease "
                    f"with storage time")
        object.__setattr__(self, "afc_calibration", table)


@dataclass(frozen=True)
class ArrayDevice:
    """The full array: cells plus shared detection parameters."""

    cells: tuple[CellParams, ...]
    eta_detection_path: float
    dark_count_rate: float  # Hz

    def __post_init__(self):
        cells = tuple(self.cells)
        if not cells:
            raise ConfigError("a device needs at least one cell")
        ids = [c.cell_id for c in cells]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate cell ids: {ids}")
        if not 0.0 <= self.eta_detection_path <= 1.0:
            raise ConfigError(f"eta_detection_path must be a fraction in "
                              f"[0, 1], got {self.eta_detection_path}")
        if not 0 <= self.dark_count_rate < math.inf:
            raise ConfigError(f"dark_count_rate must be finite and >= 0, "
                              f"got {self.dark_count_rate}")
        object.__setattr__(self, "cells", cells)

    @property
    def cell_ids(self) -> tuple[int, ...]:
        return tuple(c.cell_id for c in self.cells)

    def cell(self, cell_id: int) -> CellParams:
        for c in self.cells:
            if c.cell_id == cell_id:
                return c
        raise ConfigError(f"no cell with id {cell_id} (have {list(self.cell_ids)})")


# --------------------------------------------------------------------------
# efficiency arithmetic


def afc_efficiency_at(cell: CellParams, tau: float) -> float:
    """Echo efficiency of the cell's comb at storage time ``tau`` (us).

    Exact at calibration points; between points the decay is interpolated as
    a single exponential eta(tau) = eta0 * exp(-tau/T_eff) fitted through the
    bracketing pair.  Extrapolation beyond the calibration span is tolerated
    up to a factor of two in tau (with a warning) and refused beyond that.
    """
    table = cell.afc_calibration  # CellParams: two or more, sorted by tau
    i = bisect_left(table, (tau,))  # the first point at tau or beyond
    if i < len(table) and table[i][0] == tau:
        return table[i][1]
    lo, hi = table[0][0], table[-1][0]
    if tau < lo / _EXTRAPOLATION_LIMIT or tau > hi * _EXTRAPOLATION_LIMIT:
        # The plan sets tau, so the error names it as the source.
        raise ConfigError(
            f"cell {cell.cell_id}: tau={tau} us is more than {_EXTRAPOLATION_LIMIT}x "
            f"outside the calibration span [{lo}, {hi}] us", source="plan")
    if tau < lo or tau > hi:
        import logging  # only here: it costs a cold start milliseconds
        logging.getLogger(__name__).warning(
            "cell %d: extrapolating AFC efficiency to tau=%g us outside the "
            "calibration span [%g, %g] us", cell.cell_id, tau, lo, hi)
    # points i - 1 and i bracket tau; clamping i gives the nearest edge
    # pair when extrapolating
    i = min(max(i, 1), len(table) - 1)
    (t0, e0), (t1, e1) = table[i - 1], table[i]
    t_eff = (t1 - t0) / math.log(e0 / e1)
    return e0 * math.exp(-(tau - t0) / t_eff)


def spin_wave_efficiency(cell: CellParams, tau: float) -> float:
    """Full storage-and-retrieval efficiency of the cell: comb echo at the
    given delay times the two-way spin transfer."""
    return afc_efficiency_at(cell, tau) * cell.eta_transfer
