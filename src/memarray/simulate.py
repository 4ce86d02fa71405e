"""Single-photon-level counting simulation.

Every detection window sees Poisson counts with its expected per-mode mean
in every trial.  The means come from the plan alone: ``check_plan`` checks
its timing rules and each window's noise follows from its closed-form gap to
the control pulse, so a run lays out no timeline.

The sum of n independent Poisson(lambda) draws is exactly Poisson(n *
lambda), so a run draws one seeded Poisson total per window, in the
standard library alone: each (seed, run kind) has its own ``random.Random``
stream, and each total is drawn with PTRS (Hörmann 1993, "The transformed
rejection method for generating Poisson random variables") at a mean of at
least 10, and with Knuth's multiplication method (TAOCP vol. 2, §3.4.1)
below it.  The same seed always gives the same totals, and runs of one seed
and different kinds draw independent totals.
"""

from __future__ import annotations

import enum
import math
import random
import sys
from dataclasses import dataclass, field
from operator import index

from .device import ArrayDevice, CellParams, spin_wave_efficiency
from .errors import ConfigError
from .sequence import (SequencePlan, check_plan, control_gap,
                       window_capture_fraction)


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
        if not 0 < (v := self.fluorescence_decay) < math.inf:
            raise ConfigError(f"fluorescence_decay must be finite and "
                              f"positive, got {v}")
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

    def leak(self, input_cell: int, output_cell: int) -> float:
        index = self.cell_ids.index  # a cell not in the matrix: ValueError
        return self.values[index(input_cell)][index(output_cell)]


def _integer(value, rule: str) -> int:
    """``value`` as an ``int`` if it is an integer of any type (NaN and
    4.0 are not); otherwise ConfigError, ``rule`` and the value."""
    try:
        return index(value)
    except TypeError:
        raise ConfigError(f"{rule}, got {value}") from None


@dataclass(frozen=True)
class TrialCounts:
    """Window totals of one run over ``n_trials`` trials: ``totals[i]`` is
    the total of window ``keys[i]``.  A signal or noise run is keyed by
    (cell_id, temporal_index); a cross-talk scan is keyed by (input_cell,
    output_cell), one window per pair (temporal index 1).

    The columns, given in any order, are sorted by key, so each cell's
    windows are one slice, and the sorted keys are walked for a repeated
    one.  A repeated key, a negative total, a total or ``n_trials`` that is
    not an integer and columns of two lengths (ValueError) are refused.
    Integers of other types, such as numpy's, are kept as ``int``.
    """

    kind: RunKind
    keys: tuple[tuple[int, int], ...]
    totals: tuple[int, ...]
    n_trials: int

    def __post_init__(self):
        n_trials = _integer(self.n_trials, "n_trials must be an integer")
        if n_trials < 1:
            raise ConfigError("n_trials must be >= 1")
        totals = [_integer(total, "counts must be integers")
                  for total in self.totals]
        rows = sorted(zip(self.keys, totals, strict=True))
        keys = tuple([key for key, _ in rows])
        totals = tuple([total for _, total in rows])
        for a, b in zip(keys, keys[1:]):
            if a == b:
                raise ConfigError(f"repeated key {a}")
        if min(totals, default=0) < 0:
            raise ConfigError("counts must be non-negative")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "totals", totals)
        object.__setattr__(self, "n_trials", n_trials)


# --------------------------------------------------------------------------
# expected means


def expected_signal_per_mode(cell: CellParams, plan: SequencePlan,
                             device: ArrayDevice) -> float:
    """Mean echo counts per detection window for one cell.

    The mean photon number is calibrated downstream of the multiplexer, so
    eta_mux does not appear here: signal = n_bar * spin-wave efficiency *
    eta_demux * eta_fiber * eta_detection_path * window capture fraction.
    """
    capture = window_capture_fraction(plan)
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
ENGINE = "poisson-total-stdlib"

# Largest window mean the sampler takes.  PTRS's log test compares with
# ``_log_pmf``, whose terms cancel: at k = lam its absolute error is about
# 4e-6 at this cap, but 6e-4 at 2**40 and 13 at 2**52, where it would accept
# draws with the wrong probabilities.
_POISSON_LAM_MAX = 2.0 ** 30


def _check_run_args(n_trials: int, seed: int) -> None:
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _log_pmf(k: int, lam: float, log_lam: float) -> float:
    """log P(k) of Poisson(lam), given log_lam = log(lam): the right-hand
    side of PTRS's log test."""
    return -lam + k * log_lam - math.lgamma(k + 1)


def _poisson(lam: float, rnd) -> int:
    """One Poisson(lam) draw from ``rnd``, a source of floats in [0, 1):
    PTRS at lam >= 10, Knuth's multiplication method below.

    Where C's PTRS meets an infinity, this takes C's branch instead of
    raising: ``us == 0`` makes k minus infinity, which is rejected, and
    ``v == 0`` makes log(v) minus infinity, which accepts.
    """
    if lam < 10.0:
        bound, k, prod = math.exp(-lam), 0, rnd()
        while prod > bound:
            k += 1
            prod *= rnd()
        return k
    log_lam = math.log(lam)
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    log_inv_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rnd() - 0.5
        v = rnd()
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= vr:
            return k
        if k < 0 or (us < 0.013 and v > us):
            continue
        if v == 0.0 or (math.log(v) + log_inv_alpha
                        - math.log(a / (us * us) + b)
                        <= _log_pmf(k, lam, log_lam)):
            return k


def _poisson_totals(lam: list[float], n_trials: int, seed: int,
                    kind: RunKind) -> list[int]:
    """Window totals over ``n_trials`` trials: one Poisson(n_trials * lam)
    draw per window, in order, from the stream keyed by ``seed`` and
    ``kind``."""
    peak = max(lam, default=0.0)
    # Most trials the sampler accepts; comparing the int with this float
    # never converts (and so never overflows) the trial count.
    limit = _POISSON_LAM_MAX / peak if peak > 0.0 else sys.float_info.max
    if n_trials > limit:
        raise ConfigError(
            f"n_trials (--trials) {n_trials} is too large: at most "
            f"{limit:.4g} trials fit this run (the Poisson sampler takes "
            f"window means up to {_POISSON_LAM_MAX:.4g})")
    rnd = random.Random(f"{kind.value}:{seed}").random
    return [_poisson(mean * n_trials, rnd) for mean in lam]


def run_trials(plan: SequencePlan, device: ArrayDevice, noise: NoiseParams,
               n_trials: int, seed: int, with_input: bool = True,
               ) -> TrialCounts:
    """Total Poisson counts of every window over ``n_trials`` independent
    trials, drawn as one Poisson(n_trials * mean) total per window.

    With inputs on, each window draws from echo + noise means; with inputs
    blocked (``with_input=False``, the noise-floor measurement) from the
    noise means alone.  The windows are drawn in ``plan.modes`` order from
    the stream of ``seed`` and the run's kind, so a signal and a noise run
    of one seed are independent.
    Compilation errors from an infeasible plan propagate.
    """
    _check_run_args(n_trials, seed)
    exp = mode_expectations(device, plan, noise)
    lam = [exp.noise[m] + exp.signal[m] if with_input else exp.noise[m]
           for m in plan.modes]
    kind = RunKind.SIGNAL if with_input else RunKind.NOISE
    return TrialCounts(kind, plan.modes,
                       _poisson_totals(lam, n_trials, seed, kind), n_trials)


def run_crosstalk_scan(device: ArrayDevice, leak: LeakageMatrix | None,
                       noise: NoiseParams, plan: SequencePlan,
                       n_trials: int, seed: int) -> TrialCounts:
    """Sweep every ordered (input cell, output cell) pair of the plan's
    cells, taken in the leakage matrix's order: the input enters cell i
    while collection is set to output j.  Every pair is one trial of
    ``plan``'s single-mode cell block, with the means of
    ``mode_expectations``, so the plan's timing rules and calibration span
    are checked as in ``run_trials``.

    Before those, three ConfigErrors refuse the scan, in this order: no
    leakage matrix (``leak`` is None; source "noise"), a plan with more
    than one temporal mode (source "plan"), and plan cells without a
    leakage row, all listed in one error (source "noise").

    Returns one CROSSTALK run keyed by (input_cell, output_cell), in
    sorted key order.  Expected counts per window:
        leak[i][j] * signal_i + noise_j + offresonant_echo_leak[i, j]
    The totals of all pairs are Poisson(n_trials * mean) draws over the
    pair vector, in the matrix's order, from the scan's stream keyed by
    ``seed``, so a scan is reproducible from its seed.
    """
    _check_run_args(n_trials, seed)
    if leak is None:
        raise ConfigError("cross-talk runs need a [leakage] matrix in the "
                          "noise file", source="noise")
    if plan.n_temporal != 1:
        raise ConfigError(f"cross-talk scans use a single input pulse per "
                          f"trial; got n_temporal={plan.n_temporal}",
                          source="plan")
    missing = [c for c in plan.cell_order if c not in leak.cell_ids]
    if missing:
        raise ConfigError(f"[leakage] has no row for plan cells {missing}",
                          source="noise")
    # (row, cell) of each plan cell, in the matrix's order
    cells = sorted((leak.cell_ids.index(c), c) for c in plan.cell_order)
    exp = mode_expectations(device, plan, noise)

    pairs = [(i, j) for _, i in cells for _, j in cells]
    lam = [leak.values[r][s] * exp.signal[(i, 1)] + exp.noise[(j, 1)]
           + noise.offresonant_echo_leak.get((i, j), 0.0)
           for r, i in cells for s, j in cells]
    return TrialCounts(RunKind.CROSSTALK, pairs,
                       _poisson_totals(lam, n_trials, seed, RunKind.CROSSTALK),
                       n_trials)
