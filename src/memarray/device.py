"""Physical parameterization of the memory array and the deterministic
efficiency arithmetic built on top of it.

All efficiencies are phenomenological: they come from a calibration run with
classical light and enter the photon-counting model as plain multiplicative
factors.  Comb structure, optical depth and pumping dynamics are deliberately
not modelled.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError

log = logging.getLogger(__name__)

# Extrapolating the AFC decay fit beyond this multiple of the calibration
# span is refused outright; inside it, it is allowed but logged.
_EXTRAPOLATION_LIMIT = 2.0


class PulseKind(Enum):
    GAUSSIAN = "gaussian"
    LORENTZIAN = "lorentzian"
    SQUARE = "square"


@dataclass(frozen=True)
class PulseShape:
    """Temporal intensity profile of an input photon or pulse.

    fwhm is in nanoseconds.  ``capture_override`` replaces the analytic
    centred-window integral for Lorentzian waveforms whose effective window
    placement is known only from measurement (e.g. heralded-photon
    waveforms); it is meaningless for the other kinds.
    """

    kind: PulseKind
    fwhm: float
    capture_override: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, PulseKind):
            raise ConfigError(f"unknown pulse kind {self.kind!r}")
        if not 0 < self.fwhm < math.inf:
            raise ConfigError(f"pulse fwhm must be finite and positive, "
                              f"got {self.fwhm}")
        if self.capture_override is not None:
            if self.kind is not PulseKind.LORENTZIAN:
                raise ConfigError(
                    "capture_override is only meaningful for lorentzian pulses")
            if not 0.0 < self.capture_override <= 1.0:
                raise ConfigError(
                    f"capture_override must be in (0, 1], got {self.capture_override}")


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be a fraction in [0, 1], got {value}")


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
        for name in ("eta_mux", "eta_demux", "eta_fiber", "eta_transfer"):
            _check_fraction(name, getattr(self, name))
        table = tuple(sorted((float(t), float(e)) for t, e in self.afc_calibration))
        if len(table) < 2:
            raise ConfigError(
                f"cell {self.cell_id}: afc_calibration needs at least two "
                f"(tau, efficiency) points, got {len(table)}")
        taus = [t for t, _ in table]
        etas = [e for _, e in table]
        if len(set(taus)) != len(taus):
            raise ConfigError(f"cell {self.cell_id}: duplicate calibration tau")
        if any(not 0.0 < e <= 1.0 for e in etas):
            raise ConfigError(f"cell {self.cell_id}: AFC efficiencies must be in (0, 1]")
        if any(a <= b for a, b in zip(etas, etas[1:])):
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
        _check_fraction("eta_detection_path", self.eta_detection_path)
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


@dataclass(frozen=True)
class StorageConfig:
    """One storage configuration: AFC delay, spin-wave time, mode count and
    the single-photon-level input parameters."""

    tau: float                 # us, AFC two-level delay
    t_spin: float              # us, spin-wave storage time
    n_temporal: int            # temporal modes per cell
    mean_photon_number: float  # calibrated after the multiplexer
    input_shape: PulseShape
    detection_window: float    # ns
    eta_herald: float = 0.7
    g2_source: float = 100.0

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ConfigError(f"tau must be finite and positive, got {self.tau}")
        if not 0 <= self.t_spin < math.inf:
            raise ConfigError(f"t_spin must be finite and >= 0, got {self.t_spin}")
        if self.n_temporal < 1:
            raise ConfigError(f"n_temporal must be >= 1, got {self.n_temporal}")
        for name in ("mean_photon_number", "detection_window"):
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {v}")
        _check_fraction("eta_herald", self.eta_herald)
        if not 1 <= self.g2_source < math.inf:
            raise ConfigError(f"g2_source must be finite and >= 1, "
                              f"got {self.g2_source}")


# --------------------------------------------------------------------------
# efficiency arithmetic


def afc_efficiency_at(cell: CellParams, tau: float) -> float:
    """Echo efficiency of the cell's comb at storage time ``tau`` (us).

    Exact at calibration points; between points the decay is interpolated as
    a single exponential eta(tau) = eta0 * exp(-tau/T_eff) fitted through the
    bracketing pair.  Extrapolation beyond the calibration span is tolerated
    up to a factor of two in tau (with a warning) and refused beyond that.
    """
    table = cell.afc_calibration
    if not table:
        raise ConfigError(f"cell {cell.cell_id}: empty AFC calibration table")
    for t, eta in table:
        if tau == t:
            return eta
    lo, hi = table[0][0], table[-1][0]
    if tau < lo / _EXTRAPOLATION_LIMIT or tau > hi * _EXTRAPOLATION_LIMIT:
        raise ConfigError(
            f"cell {cell.cell_id}: tau={tau} us is more than {_EXTRAPOLATION_LIMIT}x "
            f"outside the calibration span [{lo}, {hi}] us")
    if tau < lo or tau > hi:
        log.warning(
            "cell %d: extrapolating AFC efficiency to tau=%g us outside the "
            "calibration span [%g, %g] us", cell.cell_id, tau, lo, hi)
    # pick the bracketing pair, or the nearest edge pair when extrapolating
    pairs = list(zip(table, table[1:]))
    for (t0, e0), (t1, e1) in pairs:
        if t0 <= tau <= t1:
            break
    else:
        (t0, e0), (t1, e1) = pairs[0] if tau < lo else pairs[-1]
    t_eff = (t1 - t0) / math.log(e0 / e1)
    return e0 * math.exp(-(tau - t0) / t_eff)


def spin_wave_efficiency(cell: CellParams, tau: float) -> float:
    """Full storage-and-retrieval efficiency of the cell: comb echo at the
    given delay times the two-way spin transfer."""
    return afc_efficiency_at(cell, tau) * cell.eta_transfer


def window_capture_fraction(shape: PulseShape, window: float) -> float:
    """Fraction of the pulse energy inside a detection window of ``window``
    ns centred on the pulse peak.

    Gaussian and Lorentzian use the analytic centred integral of the
    normalized intensity profile; a Lorentzian with ``capture_override`` set
    returns the override instead.  Square pulses clip linearly.
    """
    if not window > 0:
        raise ConfigError(f"detection window must be positive, got {window}")
    f = shape.fwhm
    if shape.kind is PulseKind.GAUSSIAN:
        # intensity exp(-4 ln2 t^2 / f^2); integral over [-w/2, w/2]
        return math.erf(math.sqrt(math.log(2.0)) * window / f)
    if shape.kind is PulseKind.LORENTZIAN:
        if shape.capture_override is not None:
            return shape.capture_override
        # intensity 1/(1 + (2t/f)^2); normalized integral is (2/pi) atan(w/f)
        return (2.0 / math.pi) * math.atan(window / f)
    # square: uniform over [-f/2, f/2]
    return min(window / f, 1.0)

