"""Counting statistics and network-performance projections.

Turns raw per-mode count tallies into rates with Poisson errors, SNR,
per-cell network projections (rescaled signal, adjusted SNR, inferred
second-order correlation, time-bin fidelity bound) and the cross-talk ratio
matrix.  All error bars are first-order (delta-method) propagation of
Poisson standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .device import ArrayDevice
from .errors import ConfigError, ModeSetMismatch
from .sequence import SequencePlan
from .simulate import RunKind, TrialCounts

SNR_DEFINITIONS = ("ratio", "excess")


@dataclass(frozen=True)
class ModeStats:
    """Counts per trial for one (cell, temporal) mode, with Poisson errors.

    A mode whose noise run recorded zero counts has snr = snr_err = +inf
    rather than failing.
    """

    c_signal: float
    c_noise: float
    err_signal: float
    err_noise: float
    snr: float
    snr_err: float

    def __post_init__(self):
        if self.c_signal < 0 or self.c_noise < 0:
            raise ConfigError("counts per trial must be non-negative")
        if self.err_signal < 0 or self.err_noise < 0:
            raise ConfigError("errors must be non-negative")


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

    def ratio(self, input_cell: int, output_cell: int) -> float:
        i = self.cell_ids.index(input_cell)
        j = self.cell_ids.index(output_cell)
        return self.c[i][j]


# --------------------------------------------------------------------------
# per-mode statistics


def _ratio_err(a: float, sa: float, b: float, sb: float) -> float:
    """Delta-method error of a/b given means and errors of a and b."""
    r = a / b
    if a == 0.0:
        return sa / b
    return abs(r) * math.sqrt((sa / a) ** 2 + (sb / b) ** 2)


def per_mode_stats(signal: TrialCounts, noise: TrialCounts,
                   snr_definition: str = "ratio",
                   ) -> dict[tuple[int, int], ModeStats]:
    """Counts per trial, Poisson errors and SNR for every mode.

    ``snr_definition``: "ratio" is c_S/c_B (all detected counts over noise);
    "excess" subtracts the background first, (c_S - c_B)/c_B.  Modes whose
    noise total is zero get snr=+inf instead of an error.
    """
    if snr_definition not in SNR_DEFINITIONS:
        raise ConfigError(f"snr_definition must be one of {SNR_DEFINITIONS}, "
                          f"got {snr_definition!r}")
    ModeSetMismatch.check(signal.counts, noise.counts)
    out: dict[tuple[int, int], ModeStats] = {}
    for key in signal.counts:
        a, b = signal.counts[key], noise.counts[key]
        c_s, c_b = a / signal.n_trials, b / noise.n_trials
        err_s = math.sqrt(a) / signal.n_trials
        err_b = math.sqrt(b) / noise.n_trials
        if b == 0:
            snr = snr_err = math.inf
        else:
            snr = c_s / c_b
            snr_err = _ratio_err(c_s, err_s, c_b, err_b)
            if snr_definition == "excess":
                snr -= 1.0  # same propagated error: the shift is exact
        out[key] = ModeStats(c_signal=c_s, c_noise=c_b,
                             err_signal=err_s, err_noise=err_b,
                             snr=snr, snr_err=snr_err)
    return out


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


def project_cells(signal: TrialCounts, noise: TrialCounts,
                  device: ArrayDevice, plan: SequencePlan,
                  ) -> list[NetworkProjection]:
    """Per-spatial-mode network projections from a signal and a noise run.

    Counts are pooled over each cell's temporal modes (per-temporal-mode
    noise tallies are too sparse to divide by), converted to mean counts per
    mode per trial, rescaled to a heralded source and pushed through the
    correlation and fidelity formulas with first-order error propagation.
    Both runs must cover exactly ``plan.modes``, else ModeSetMismatch.
    """
    modes, n = plan.modes, plan.n_temporal
    ModeSetMismatch.check(modes, signal.counts, sides=("plan", "signal run"))
    ModeSetMismatch.check(modes, noise.counts, sides=("plan", "noise run"))
    out = []
    for i, cell_id in enumerate(plan.cell_order):
        block = modes[i * n:(i + 1) * n]  # this cell's modes
        a = sum(signal.counts[m] for m in block)
        b = sum(noise.counts[m] for m in block)
        denom_s = signal.n_trials * n
        denom_b = noise.n_trials * n
        c_s, err_s = a / denom_s, math.sqrt(a) / denom_s
        c_b, err_b = b / denom_b, math.sqrt(b) / denom_b

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
        else:
            # d/dc_tilde = 1/c_b; d/dc_b = -c_tilde/c_b^2
            snr_err = math.sqrt((err_tilde / c_b) ** 2
                                + (c_tilde * err_b / c_b ** 2) ** 2)
            g2_err = _g2_slope(snr_clamped, plan.g2_source) * snr_err
            fid_err = _fidelity_slope(g2) * g2_err
        out.append(NetworkProjection(
            cell_id=cell_id, c_signal_rescaled=c_tilde, err_rescaled=err_tilde,
            snr_adjusted=snr_adj, snr_adjusted_err=snr_err,
            g2_inferred=g2, g2_err=g2_err, fidelity=fid, fidelity_err=fid_err))
    return out


# --------------------------------------------------------------------------
# cross-talk


def crosstalk_matrix(scan: TrialCounts,
                     noise_diag: TrialCounts) -> CrossTalkMatrix:
    """Normalize a cross-talk scan: C_ij = c_ij / c_ii.

    ``scan`` is a CROSSTALK run keyed by (input_cell, output_cell) and must
    cover every pair of its cells, else ModeSetMismatch.  ``noise_diag`` is
    the matching no-input run: exactly one window (cell, 1) per scan cell,
    else ModeSetMismatch.
    Its counts give the noise contribution C_N = n_ii / c_ii of each
    diagonal.  Rows with zero diagonal counts are flagged invalid and
    skipped in the mean.
    """
    if scan.kind is not RunKind.CROSSTALK:
        raise ConfigError("crosstalk_matrix needs cross-talk scan counts")
    ids = sorted({cell for pair in scan.counts for cell in pair})
    ModeSetMismatch.check([(i, j) for i in ids for j in ids], scan.counts,
                          sides=("cell pairs", "scan"))
    ModeSetMismatch.check([(i, 1) for i in ids], noise_diag.counts,
                          sides=("scan cells", "noise run"))

    def per_trial(pair: tuple[int, int]) -> tuple[float, float]:
        total = scan.counts[pair]
        return total / scan.n_trials, math.sqrt(total) / scan.n_trials

    n = len(ids)
    c = [[0.0] * n for _ in range(n)]
    cerr = [[0.0] * n for _ in range(n)]
    invalid = []
    offdiag = []
    noise_contribution = {}
    for a, i in enumerate(ids):
        c_ii, err_ii = per_trial((i, i))
        if c_ii == 0.0:
            invalid.append(i)
            for b in range(n):
                c[a][b] = math.nan
                cerr[a][b] = math.nan
            continue
        for b, j in enumerate(ids):
            if i == j:
                c[a][b], cerr[a][b] = 1.0, 0.0
                continue
            c_ij, err_ij = per_trial((i, j))
            c[a][b] = c_ij / c_ii
            cerr[a][b] = _ratio_err(c_ij, err_ij, c_ii, err_ii)
            offdiag.append(c[a][b])
        n_ii = noise_diag.counts[(i, 1)] / noise_diag.n_trials
        noise_contribution[i] = n_ii / c_ii
    if not offdiag and len(ids) > 1:
        raise ConfigError("every scan row has a zero diagonal; nothing to "
                          "normalize")
    mean_off = sum(offdiag) / len(offdiag) if offdiag else 0.0
    return CrossTalkMatrix(cell_ids=tuple(ids),
                           c=tuple(tuple(r) for r in c),
                           c_err=tuple(tuple(r) for r in cerr),
                           mean_offdiagonal=mean_off,
                           noise_contribution=noise_contribution,
                           invalid_rows=tuple(invalid))
