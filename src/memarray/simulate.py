"""Single-photon-level counting simulation.

Every detection window sees Poisson counts with its expected per-mode mean
in every trial.  The means come from the plan alone: ``check_plan`` checks
its timing rules and each window's noise follows from its closed-form gap to
the control pulse, so a run lays out no timeline.

The sum of n independent Poisson(lambda) draws is exactly Poisson(n *
lambda), so a run draws one seeded Poisson total per window:
``default_rng(seed).poisson(n_trials * lambda)`` over the mode vector.  The
same seed always gives the same totals.

numpy is imported only inside that draw, so importing this module, and the
``validate`` and ``analyze`` commands that use it, never load numpy.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

from .device import (ArrayDevice, CellParams, spin_wave_efficiency,
                     window_capture_fraction)
from .errors import ConfigError
from .sequence import SequencePlan, check_plan, control_gap


class RunKind(enum.Enum):
    SIGNAL = "signal"        # inputs on: windows see echo plus noise
    NOISE = "noise"          # inputs blocked: windows see noise only
    CROSSTALK = "crosstalk"  # input cell i, read-out cell j, all pairs


@dataclass(frozen=True)
class NoiseParams:
    """Unconditional noise model for one detection window.

    mean = base_noise_per_window
         + fluorescence_amplitude * exp(-dt / fluorescence_decay)
         + dark_rate * window_seconds

    where dt is the gap between the end of the second control pulse and the
    window start.  ``offresonant_echo_leak`` holds extra per-window means for
    specific (input, output) cell pairs during cross-talk scans.
    """

    base_noise_per_window: float
    fluorescence_amplitude: float
    fluorescence_decay: float  # us
    dark_rate: float           # Hz
    offresonant_echo_leak: dict[tuple[int, int], float] = field(
        default_factory=dict)

    def __post_init__(self):
        # "not 0 <= v < inf" refuses NaN too, for which "v < 0" is false.
        for name in ("base_noise_per_window", "fluorescence_amplitude",
                     "dark_rate"):
            if not 0 <= (v := getattr(self, name)) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if not self.fluorescence_decay > 0:
            raise ConfigError("fluorescence_decay must be positive")
        for (i, j), v in self.offresonant_echo_leak.items():
            if not 0 <= v < math.inf:
                raise ConfigError(f"offresonant_echo_leak[{i},{j}] must be "
                                  f"finite and >= 0, got {v}")


@dataclass(frozen=True)
class LeakageMatrix:
    """Relative neighbour leakage: values[i][j] scales the echo of input
    cell i that appears in output cell j's window (diagonal is unity)."""

    cell_ids: tuple[int, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.cell_ids)
        if n == 0:
            raise ConfigError("leakage matrix needs at least one cell")
        if len(set(self.cell_ids)) != n:
            raise ConfigError("leakage matrix has duplicate cell ids")
        if len(self.values) != n or any(len(r) != n for r in self.values):
            raise ConfigError(f"leakage matrix must be {n}x{n}")
        for i, row in enumerate(self.values):
            for j, v in enumerate(row):
                if i == j:
                    if v != 1.0:
                        raise ConfigError(
                            f"leakage diagonal must be 1 (cell "
                            f"{self.cell_ids[i]} has {v})")
                elif not 0.0 <= v < 1.0:
                    raise ConfigError(
                        f"off-diagonal leakage must be in [0, 1), got {v} at "
                        f"({self.cell_ids[i]}, {self.cell_ids[j]})")

    def _index(self, cell_id: int) -> int:
        try:
            return self.cell_ids.index(cell_id)
        except ValueError:
            raise ConfigError(f"cell {cell_id} not in leakage matrix "
                              f"(has {list(self.cell_ids)})") from None

    def leak(self, input_cell: int, output_cell: int) -> float:
        return self.values[self._index(input_cell)][self._index(output_cell)]


@dataclass(frozen=True)
class TrialCounts:
    """Window totals of one run over ``n_trials`` trials.

    A signal or noise run is keyed by (cell_id, temporal_index); a
    cross-talk scan is keyed by (input_cell, output_cell), one window per
    pair (temporal index 1).
    """

    kind: RunKind
    counts: dict[tuple[int, int], int]
    n_trials: int

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigError("n_trials must be >= 1")
        if any(v < 0 for v in self.counts.values()):
            raise ConfigError("counts must be non-negative")


# --------------------------------------------------------------------------
# expected means


def expected_signal_per_mode(cell: CellParams, plan: SequencePlan,
                             device: ArrayDevice) -> float:
    """Mean echo counts per detection window for one cell.

    The mean photon number is calibrated downstream of the multiplexer, so
    eta_mux does not appear here: signal = n_bar * spin-wave efficiency *
    eta_demux * eta_fiber * eta_detection_path * window capture fraction.
    """
    capture = window_capture_fraction(plan.input_shape, plan.detection_window)
    return (plan.mean_photon_number
            * spin_wave_efficiency(cell, plan.tau)
            * cell.eta_demux
            * cell.eta_fiber
            * device.eta_detection_path
            * capture)


@dataclass(frozen=True)
class ModeExpectations:
    """Per-mode Poisson means, echo and noise separately, in plan order."""

    signal: dict[tuple[int, int], float]
    noise: dict[tuple[int, int], float]


def mode_expectations(device: ArrayDevice, plan: SequencePlan,
                      noise: NoiseParams) -> ModeExpectations:
    """Expected echo and noise means for every (cell, temporal mode) of a
    plan.  Checks the plan's timing rules, so infeasible plans fail here.

    Every cell block has the same timing, so temporal mode k has the same
    noise in every cell.  Control-pulse fluorescence decays with the gap
    between the second control pulse and the window, so early temporal
    modes are the noisiest.
    """
    check_plan(plan)
    window_seconds = plan.window_duration * 1e-6
    noise_k = []
    for k in range(1, plan.n_temporal + 1):
        # check_plan's lead rule keeps every gap above -1e-9 us (its timing
        # slack): a window never opens before its control pulse has ended.
        dt = control_gap(plan, k)
        noise_k.append(noise.base_noise_per_window
                       + noise.fluorescence_amplitude
                       * math.exp(-dt / noise.fluorescence_decay)
                       + noise.dark_rate * window_seconds)
    echo = {c: expected_signal_per_mode(device.cell(c), plan, device)
            for c in plan.cell_order}
    modes = plan.modes
    return ModeExpectations(
        signal={m: echo[m[0]] for m in modes},
        noise={m: noise_k[m[1] - 1] for m in modes})


# --------------------------------------------------------------------------
# trial engine

# Recorded in run manifests, so that counts files drawn by a different
# counting engine can be told apart.
ENGINE = "poisson-total"

# Largest mean numpy's Poisson sampler accepts (int64 max - 10 sqrt of it).
_POISSON_LAM_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


def _check_run_args(n_trials: int, seed: int) -> None:
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _poisson_totals(lam: list[float], n_trials: int, seed: int) -> list[int]:
    """Window totals over ``n_trials`` trials: one Poisson(n_trials * lam)
    draw per window from the generator keyed by ``seed``."""
    peak = max(lam, default=0.0)
    # Most trials the sampler accepts; comparing the int with this float
    # never converts (and so never overflows) the trial count.
    limit = _POISSON_LAM_MAX / peak if peak > 0.0 else sys.float_info.max
    if n_trials > limit:
        raise ConfigError(
            f"n_trials (--trials) {n_trials} is too large: at most "
            f"{limit:.4g} trials fit this run (the Poisson sampler takes "
            f"window means up to {_POISSON_LAM_MAX:.4g})")
    import numpy as np  # here only, so that loading memarray never loads numpy
    return np.random.default_rng(seed).poisson(np.array(lam) * n_trials).tolist()


def run_trials(plan: SequencePlan, device: ArrayDevice, noise: NoiseParams,
               n_trials: int, seed: int, with_input: bool = True,
               ) -> TrialCounts:
    """Total Poisson counts of every window over ``n_trials`` independent
    trials, drawn as one Poisson(n_trials * mean) total per window.

    With inputs on, each window draws from echo + noise means; with inputs
    blocked (``with_input=False``, the noise-floor measurement) from the
    noise means alone.  Compilation errors from an infeasible plan
    propagate.
    """
    _check_run_args(n_trials, seed)
    exp = mode_expectations(device, plan, noise)
    modes = plan.modes
    lam = [exp.noise[m] + exp.signal[m] if with_input else exp.noise[m]
           for m in modes]
    counts = dict(zip(modes, _poisson_totals(lam, n_trials, seed)))
    kind = RunKind.SIGNAL if with_input else RunKind.NOISE
    return TrialCounts(kind=kind, counts=counts, n_trials=n_trials)


def run_crosstalk_scan(device: ArrayDevice, leak: LeakageMatrix,
                       noise: NoiseParams, plan: SequencePlan,
                       n_trials: int, seed: int) -> TrialCounts:
    """Sweep every ordered (input cell, output cell) pair of the plan's
    cells, taken in the leakage matrix's order: the input enters cell i
    while collection is set to output j.  Every pair is one trial of
    ``plan``'s single-mode cell block, with the means of
    ``mode_expectations``, so the plan's timing rules are checked as in
    ``run_trials``.  A plan cell without a leakage row is a ConfigError.

    Returns one CROSSTALK table keyed by (input_cell, output_cell).
    Expected counts per window:
        leak[i][j] * signal_i + noise_j + offresonant_echo_leak[i, j]
    The totals of all pairs are one Poisson(n_trials * mean) draw over the
    pair vector from the generator keyed by ``seed``, so a scan is
    reproducible from its seed.
    """
    _check_run_args(n_trials, seed)
    if plan.n_temporal != 1:
        raise ConfigError(f"cross-talk scans use a single input pulse per "
                          f"trial; got n_temporal={plan.n_temporal}")
    cells = sorted(plan.cell_order, key=leak._index)
    exp = mode_expectations(device, plan, noise)

    pairs = [(i, j) for i in cells for j in cells]
    lam = [leak.leak(i, j) * exp.signal[(i, 1)] + exp.noise[(j, 1)]
           + noise.offresonant_echo_leak.get((i, j), 0.0)
           for i, j in pairs]
    totals = _poisson_totals(lam, n_trials, seed)
    return TrialCounts(kind=RunKind.CROSSTALK,
                       counts=dict(zip(pairs, totals)),
                       n_trials=n_trials)
