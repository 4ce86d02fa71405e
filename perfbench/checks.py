"""Output checks of the benchmark, independent of the program under test.

Counts files are parsed here, not with ``memarray.io``, so a defect in the
program's reader cannot hide a defect in its writer.  The statistical checks
rely only on the counting contract: the total of a detection window over
``n`` trials is Poisson with mean ``n * lambda``.  They do not depend on how
the engine splits its random stream, so an engine that draws per trial and
one that draws one Poisson total per window pass them alike.

False-alarm rates (probability that a correct engine fails one check):

* ``poisson_check`` <= 1e-6: per-window exact two-sided Poisson tails with a
  Bonferroni split of 4e-7, an exact two-sided tail on the grand total at
  2e-7, and a global likelihood-ratio chi-square (G^2, the Poisson
  deviance) over windows pooled, within one cell first, to an expected count
  of at least ``MIN_GROUP_EXPECTED``.  G^2 is read at a nominal 4e-8; its
  true tail at that threshold, computed by exact convolution in
  ``tests/test_checks.py``, stays below 4e-7.  (Pearson's X^2 would not: at
  20 expected counts per bin its true tail is 10-25 times the nominal.)
* ``ratio_check`` <= 1e-6: exact conditional binomial tails of every
  off-diagonal scan pair against its matched diagonal, Bonferroni-split.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

COUNTS_HEADER = ["run_kind", "input_cell", "output_cell", "temporal_index",
                 "total_counts", "n_trials"]

ALPHA_WINDOWS = 4e-7
ALPHA_TOTAL = 2e-7
ALPHA_CHI2_NOMINAL = 4e-8
ALPHA_RATIOS = 1e-6
MIN_GROUP_EXPECTED = 20.0


# --------------------------------------------------------------------------
# special functions (regularised incomplete gamma, Numerical Recipes 6.2)


def _gamma_series(a: float, x: float) -> float:
    term = total = 1.0 / a
    ap = a
    for _ in range(10000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-15:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_fraction(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gamma_p(a: float, x: float) -> float:
    """Regularised lower incomplete gamma P(a, x)."""
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_fraction(a, x)


def gamma_q(a: float, x: float) -> float:
    """Regularised upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if x <= 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_fraction(a, x)


def poisson_two_sided(observed: int, mean: float) -> float:
    """Exact two-sided tail: 2 * min(P(X <= k), P(X >= k)), capped at 1."""
    if mean <= 0.0:
        return 1.0 if observed == 0 else 0.0
    low = gamma_q(observed + 1.0, mean)                       # P(X <= k)
    high = 1.0 if observed == 0 else gamma_p(observed, mean)  # P(X >= k)
    return min(1.0, 2.0 * min(low, high))


def chi2_sf(x: float, dof: int) -> float:
    return gamma_q(dof / 2.0, x / 2.0)


def binomial_two_sided(k: int, n: int, p: float) -> float:
    """Exact two-sided binomial tail by direct summation (small n)."""
    if n == 0:
        return 1.0
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == (0 if p <= 0.0 else n) else 0.0
    logs = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(p) + (n - i) * math.log1p(-p) for i in range(n + 1)]
    low = sum(math.exp(v) for v in logs[:k + 1])
    high = sum(math.exp(v) for v in logs[k:])
    return min(1.0, 2.0 * min(low, high))


# --------------------------------------------------------------------------
# counts files


def read_counts(path, kind: str, n_trials: int, keys) -> dict:
    """Parse a counts CSV and check its shape against what was asked for.

    Returns ``(input_cell, output_cell, temporal_index) -> total``.  Raises
    ``ValueError`` on a wrong header or kind, a duplicated or missing or
    unexpected window, a negative total, or a row whose ``n_trials`` differs
    from the requested trial count.
    """
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != COUNTS_HEADER:
        raise ValueError(f"{path}: unexpected header {rows[:1]}")
    totals: dict = {}
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(COUNTS_HEADER):
            raise ValueError(f"{path}:{line}: malformed row {row}")
        if row[0] != kind:
            raise ValueError(f"{path}:{line}: run kind {row[0]!r}, "
                             f"expected {kind!r}")
        key = (int(row[1]), int(row[2]), int(row[3]))
        total, n = int(row[4]), int(row[5])
        if key in totals:
            raise ValueError(f"{path}:{line}: duplicated window {key}")
        if total < 0 or n != n_trials:
            raise ValueError(f"{path}:{line}: total {total} over {n} trials, "
                             f"expected >= 0 over {n_trials}")
        totals[key] = total
    expected = set(keys)
    if set(totals) != expected:
        missing = sorted(expected - set(totals))[:3]
        extra = sorted(set(totals) - expected)[:3]
        raise ValueError(f"{path}: window set differs (missing {missing}, "
                         f"unexpected {extra})")
    return totals


# --------------------------------------------------------------------------
# statistical checks


def deviance(observed: int, mean: float) -> float:
    """Poisson deviance 2 * (o ln(o / m) - (o - m)) of one bin."""
    log_term = observed * math.log(observed / mean) if observed else 0.0
    return max(0.0, 2.0 * (log_term - (observed - mean)))


def chi2_bins(expected: list[float], groups: list) -> list[list[int]]:
    """Indices pooled into G^2 bins: consecutive windows of one group first,
    then neighbouring groups, until each bin expects ``MIN_GROUP_EXPECTED``
    counts; a short remainder joins the last bin.  Empty when fewer than two
    bins result."""
    bins: list[list[int]] = []
    current: list[int] = []
    mass = 0.0
    for i, label in enumerate(groups):
        current.append(i)
        mass += expected[i]
        last_of_group = i + 1 == len(groups) or groups[i + 1] != label
        if last_of_group and mass >= MIN_GROUP_EXPECTED:
            bins.append(current)
            current, mass = [], 0.0
    if current and bins:
        bins[-1].extend(current)
    return bins if len(bins) >= 2 else []


def poisson_check(observed: dict, expected: dict, groups: dict) -> list[str]:
    """Check window totals against their Poisson means ``expected``.

    ``groups`` maps each window to its pooling label (the cell).  Returns the
    list of failed sub-checks; empty means the counts are consistent.
    """
    keys = sorted(expected, key=lambda k: (str(groups[k]), k))
    obs = [observed[k] for k in keys]
    exp = [expected[k] for k in keys]
    problems = []

    worst_p, worst_key = min((poisson_two_sided(o, e), k)
                             for o, e, k in zip(obs, exp, keys))
    if worst_p < ALPHA_WINDOWS / len(keys):
        i = keys.index(worst_key)
        problems.append(f"window {worst_key}: {obs[i]} counts, expected "
                        f"{exp[i]:.4g} (p={worst_p:.2g})")

    total_o, total_e = sum(obs), sum(exp)
    p_total = poisson_two_sided(total_o, total_e)
    if p_total < ALPHA_TOTAL:
        problems.append(f"grand total {total_o}, expected {total_e:.6g} "
                        f"(p={p_total:.2g})")

    bins = chi2_bins(exp, [groups[k] for k in keys])
    if bins:
        stat = sum(deviance(sum(obs[i] for i in b), sum(exp[i] for i in b))
                   for b in bins)
        p_chi2 = chi2_sf(stat, len(bins))
        if p_chi2 < ALPHA_CHI2_NOMINAL:
            problems.append(f"G^2 {stat:.1f} on {len(bins)} bins "
                            f"(p={p_chi2:.2g})")
    return problems


def ratio_check(counts: dict, means: dict) -> list[str]:
    """Cross-talk ratios against the leakage model.

    ``counts`` and ``means`` map (input, output) pairs to scan totals and
    their Poisson means.  Given c_ij + c_ii, c_ij is binomial with
    p = m_ij / (m_ij + m_ii) exactly, so C_ij = c_ij / c_ii is tested
    without a normal approximation of its error.
    """
    pairs = [(i, j) for (i, j) in counts if i != j]
    problems = []
    for i, j in pairs:
        k, d = counts[(i, j)], counts[(i, i)]
        p = means[(i, j)] / (means[(i, j)] + means[(i, i)])
        p_value = binomial_two_sided(k, k + d, p)
        if p_value < ALPHA_RATIOS / len(pairs):
            problems.append(f"ratio C[{i},{j}] = {k}/{d}, model "
                            f"{means[(i, j)] / means[(i, i)]:.4g} "
                            f"(p={p_value:.2g})")
    return problems
