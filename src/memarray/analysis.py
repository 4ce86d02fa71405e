"""Counting statistics and network-performance projections.

Turns raw per-mode count tallies into rates with Poisson errors, SNR,
per-cell network projections (rescaled signal, adjusted SNR, inferred
second-order correlation, time-bin fidelity bound) and the cross-talk ratio
matrix.  Integer count totals are pooled from ``PlanRuns.cell_blocks``,
per cell in ``project_cells`` and running in ``cumulative_counts``, and
made rates by ``_rates``; ratio errors come from ``_ratio_err``: every
error bar is first-order (delta-method) Poisson propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import truediv

from .device import ArrayDevice
from .errors import ConfigError, ModeSetMismatch
from .sequence import SequencePlan
from .simulate import RunKind, TrialCounts


@dataclass(frozen=True)
class ModeStats:
    """Counts per trial, Poisson errors and SNR of every mode, as columns:
    entry i of each column belongs to ``modes[i]``, the (cell,
    temporal_index) keys in sorted order.

    A mode whose noise run recorded zero counts has snr = snr_err = +inf
    rather than failing.
    """

    modes: tuple[tuple[int, int], ...]
    c_signal: tuple[float, ...]
    err_signal: tuple[float, ...]
    c_noise: tuple[float, ...]
    err_noise: tuple[float, ...]
    snr: tuple[float, ...]
    snr_err: tuple[float, ...]


@dataclass(frozen=True)
class NetworkProjection:
    """Projected network figures of merit for one spatial mode."""

    cell_id: int
    c_signal_rescaled: float
    err_rescaled: float
    snr_adjusted: float
    snr_adjusted_err: float
    g2_inferred: float
    g2_err: float
    fidelity: float
    fidelity_err: float


@dataclass(frozen=True)
class CrossTalkMatrix:
    """Normalized cross-talk ratios C[i][j] = c_ij / c_ii with errors.

    Rows whose diagonal recorded zero counts are listed in ``invalid_rows``
    and excluded from the off-diagonal mean.  ``noise_contribution`` maps
    each valid input cell to C_N = n_ii / c_ii, the share of its matched
    counts that is unconditional noise.
    """

    cell_ids: tuple[int, ...]
    c: tuple[tuple[float, ...], ...]
    c_err: tuple[tuple[float, ...], ...]
    mean_offdiagonal: float
    noise_contribution: dict[int, float] = field(default_factory=dict)
    invalid_rows: tuple[int, ...] = ()


def _check_kind(run: TrialCounts, kind: RunKind, source: str) -> None:
    """Refuse ``run`` unless it is a ``kind`` run; ``source`` names it."""
    if run.kind is not kind:
        wanted = "noise (no-input)" if kind is RunKind.NOISE else kind.value
        raise ConfigError(f"--{source} needs a {wanted} run, but this file "
                          f"holds a {run.kind.value} run", source=source)


@dataclass(frozen=True)
class PlanRuns:
    """A signal run and a noise run over ``plan.modes``, checked when the
    record is built: each run's kind (a ConfigError), then each run's
    modes, the signal run first (a ModeSetMismatch with sides ("plan",
    "<side> run")); the source is "signal" or "noise"."""

    signal: TrialCounts
    noise: TrialCounts
    plan: SequencePlan

    def __post_init__(self):
        _check_kind(self.signal, RunKind.SIGNAL, "signal")
        _check_kind(self.noise, RunKind.NOISE, "noise")
        modes = tuple(sorted(self.plan.modes))  # the runs' key order
        for side in ("signal", "noise"):
            ModeSetMismatch.check(modes, getattr(self, side).keys,
                                  ("plan", f"{side} run"), side)

    def cell_blocks(self) -> tuple[list, list]:
        """Each cell's totals, in cell_order, of the signal and the noise
        run: a run's slice at the cell's rank in sorted(cell_order)."""
        n, ranked = self.plan.n_temporal, sorted(self.plan.cell_order)
        return tuple([run.totals[r * n:(r + 1) * n]
                      for r in map(ranked.index, self.plan.cell_order)]
                     for run in (self.signal, self.noise))


# --------------------------------------------------------------------------
# per-mode statistics


def _ratio_err(a: float, sa: float, b: float, sb: float) -> float:
    """Delta-method error of a/b given means and errors of a and b."""
    if a == 0.0:
        return sa / b
    return abs(a / b) * math.sqrt((sa / a) ** 2 + (sb / b) ** 2)


def _rates(totals, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Mean total / n and Poisson error sqrt(total) / n of each count total
    over ``n`` trials (trials times modes if pooled over modes), as a column
    of means and one of errors, each one C-level pass over the totals."""
    totals = tuple(totals)
    return (tuple(map(truediv, totals, repeat(n))),
            tuple(map(truediv, map(math.sqrt, totals), repeat(n))))


def per_mode_stats(runs: PlanRuns) -> ModeStats:
    """Counts per trial, Poisson errors and SNR of every mode, one
    ModeStats column record in sorted mode order.

    The SNR is c_S/c_B, all detected counts over noise; the excess form
    (c_S - c_B)/c_B is snr - 1 with the same error.
    """
    c_s, err_s = _rates(runs.signal.totals, runs.signal.n_trials)
    c_b, err_b = _rates(runs.noise.totals, runs.noise.n_trials)
    return ModeStats(
        modes=runs.signal.keys, c_signal=c_s, err_signal=err_s, c_noise=c_b,
        err_noise=err_b,
        snr=tuple([s / b if b else math.inf for s, b in zip(c_s, c_b)]),
        snr_err=tuple([_ratio_err(s, es, b, eb) if b else math.inf
                       for s, es, b, eb in zip(c_s, err_s, c_b, err_b)]))


# --------------------------------------------------------------------------
# network projections


def rescale_signal(c_signal: float, eta_mux: float, eta_herald: float,
                   n_mean: float) -> float:
    """Rescale detected counts to a heralded single-photon source:
    c = c_signal * eta_mux * eta_herald / n_mean.

    The multiplexer loss re-enters here (the mean photon number was
    calibrated after the multiplexer), and the heralding efficiency replaces
    the n_mean-photon coherent input with a true single photon.
    """
    if n_mean <= 0:
        raise ValueError(f"mean photon number must be positive, got {n_mean}")
    if not 0.0 <= eta_mux <= 1.0 or not 0.0 <= eta_herald <= 1.0:
        raise ValueError("eta_mux and eta_herald must be fractions in [0, 1]")
    if c_signal < 0:
        raise ValueError("counts per trial must be non-negative")
    return c_signal * eta_mux * eta_herald / n_mean


def adjusted_snr(c_tilde: float, c_noise: float) -> float:
    """Excess rescaled signal over noise: (c_tilde - c_noise) / c_noise.
    Zero noise gives +inf (flagged by the caller), never a crash."""
    if c_tilde < 0 or c_noise < 0:
        raise ValueError("counts per trial must be non-negative")
    if c_noise == 0:
        return math.inf
    return (c_tilde - c_noise) / c_noise


def g2_inferred(snr_adj: float, g2_source: float) -> float:
    """Second-order correlation between the heralding idler and the
    retrieved echo: g2_source * (snr_adj + 1) / (g2_source + snr_adj).

    Monotone in snr_adj, equal to 1 at zero SNR (pure noise) and bounded
    above by g2_source.
    """
    if g2_source < 1:
        raise ValueError(f"g2_source must be >= 1, got {g2_source}")
    if snr_adj < 0:
        raise ValueError(f"snr_adj must be >= 0, got {snr_adj}")
    if math.isinf(snr_adj):
        return g2_source
    return g2_source * (snr_adj + 1.0) / (g2_source + snr_adj)


def _g2_slope(snr_adj: float, g2_source: float) -> float:
    return g2_source * (g2_source - 1.0) / (g2_source + snr_adj) ** 2


def fidelity_bound(g2: float) -> float:
    """Upper bound on time-bin qubit fidelity from the echo correlation:
    F = (3/4) (g2 - 1) / (g2 + 1) + 1/4.

    F(1) = 0.25 (classical limit), F -> 1 as g2 -> inf, and F > 0.5 exactly
    when g2 > 2.
    """
    if g2 < 1:
        raise ValueError(f"g2 must be >= 1, got {g2}")
    if math.isinf(g2):
        return 1.0
    return 0.75 * (g2 - 1.0) / (g2 + 1.0) + 0.25


def _fidelity_slope(g2: float) -> float:
    return 1.5 / (g2 + 1.0) ** 2


def project_cells(runs: PlanRuns,
                  device: ArrayDevice) -> list[NetworkProjection]:
    """Per-spatial-mode network projections from a signal and a noise run.

    Counts are pooled over each cell's temporal modes (per-temporal-mode
    noise tallies are too sparse to divide by), converted to mean counts per
    mode per trial, rescaled to a heralded source and pushed through the
    correlation and fidelity formulas with first-order error propagation.
    """
    plan, out = runs.plan, []
    signal, noise = runs.cell_blocks()
    for cell_id, c_s, err_s, c_b, err_b in zip(
            plan.cell_order,
            *_rates(map(sum, signal), runs.signal.n_trials * plan.n_temporal),
            *_rates(map(sum, noise), runs.noise.n_trials * plan.n_temporal)):
        # The rescaling is linear, so it carries the error bar too.
        c_tilde, err_tilde = (
            rescale_signal(x, device.cell(cell_id).eta_mux, plan.eta_herald,
                           plan.mean_photon_number) for x in (c_s, err_s))

        snr_adj = adjusted_snr(c_tilde, c_b)
        snr_clamped = max(snr_adj, 0.0)
        g2 = g2_inferred(snr_clamped, plan.g2_source)
        fid = fidelity_bound(g2)
        if math.isinf(snr_adj):  # zero pooled noise: no finite error bar
            snr_err = g2_err = fid_err = math.inf
        else:  # snr_adj is c_tilde/c_b - 1: the ratio's error
            snr_err = _ratio_err(c_tilde, err_tilde, c_b, err_b)
            g2_err = _g2_slope(snr_clamped, plan.g2_source) * snr_err
            fid_err = _fidelity_slope(g2) * g2_err
        out.append(NetworkProjection(
            cell_id=cell_id, c_signal_rescaled=c_tilde, err_rescaled=err_tilde,
            snr_adjusted=snr_adj, snr_adjusted_err=snr_err,
            g2_inferred=g2, g2_err=g2_err, fidelity=fid, fidelity_err=fid_err))
    return out


def cumulative_counts(runs: PlanRuns) -> tuple[tuple[float, ...], ...]:
    """Running count totals of both runs over ``plan.modes``, in plan order,
    each a Poisson rate per trial: (signal rates, their errors, noise rates,
    their errors).  Entry i pools the first i + 1 modes: the last entries
    are the plan's pooled rates, and c_S/c_B of those the pooled SNR."""
    signal, noise = runs.cell_blocks()
    return (*_rates(accumulate(chain(*signal)), runs.signal.n_trials),
            *_rates(accumulate(chain(*noise)), runs.noise.n_trials))


# --------------------------------------------------------------------------
# cross-talk


def crosstalk_matrix(scan: TrialCounts,
                     noise_diag: TrialCounts) -> CrossTalkMatrix:
    """Normalize a cross-talk scan: C_ij = c_ij / c_ii.

    ``scan`` must be a CROSSTALK and ``noise_diag`` a NOISE run, else
    ConfigError, both checked before the modes.  ``scan`` is keyed by
    (input_cell, output_cell) and must cover every pair of its cells, else
    ModeSetMismatch.  ``noise_diag`` must hold exactly one window (cell, 1)
    per scan cell, else ModeSetMismatch.
    Its counts give the noise contribution C_N = n_ii / c_ii of each
    diagonal.  Rows with zero diagonal counts are flagged invalid and
    skipped in the mean; a scan whose every row is invalid is a ConfigError.
    Each error's source names the run at fault: "signal" for the scan,
    "noise" for the no-input run.
    """
    _check_kind(scan, RunKind.CROSSTALK, "signal")
    _check_kind(noise_diag, RunKind.NOISE, "noise")
    ids = sorted({cell for pair in scan.keys for cell in pair})
    ModeSetMismatch.check(tuple([(i, j) for i in ids for j in ids]), scan.keys,
                          sides=("cell pairs", "scan"), source="signal")
    ModeSetMismatch.check(tuple([(i, 1) for i in ids]), noise_diag.keys,
                          sides=("scan cells", "noise run"), source="noise")

    n = len(ids)
    pair_rates = list(zip(*_rates(scan.totals, scan.n_trials)))
    noise_rates, _ = _rates(noise_diag.totals, noise_diag.n_trials)
    c, cerr, offdiag, invalid, noise_contribution = [], [], [], [], {}
    for a, i in enumerate(ids):
        rates = pair_rates[a * n:(a + 1) * n]  # of (i, j) for each j of ids
        c_ii, err_ii = rates[a]
        if c_ii == 0.0:
            invalid.append(i)
            c.append((math.nan,) * n)
            cerr.append((math.nan,) * n)
            continue
        c.append(tuple([1.0 if b == a else c_ij / c_ii
                        for b, (c_ij, _) in enumerate(rates)]))
        cerr.append(tuple([0.0 if b == a
                           else _ratio_err(c_ij, err_ij, c_ii, err_ii)
                           for b, (c_ij, err_ij) in enumerate(rates)]))
        offdiag += c[-1][:a] + c[-1][a + 1:]
        noise_contribution[i] = noise_rates[a] / c_ii
    if not offdiag and len(ids) > 1:
        raise ConfigError("every scan row has a zero diagonal; nothing to "
                          "normalize", source="signal")
    mean_off = sum(offdiag) / len(offdiag) if offdiag else 0.0
    return CrossTalkMatrix(cell_ids=tuple(ids), c=tuple(c), c_err=tuple(cerr),
                           mean_offdiagonal=mean_off,
                           noise_contribution=noise_contribution,
                           invalid_rows=tuple(invalid))
