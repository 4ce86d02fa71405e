"""Statistical gates with a stated false-alarm rate for the Monte Carlo tests.

The total of a detection window over n trials is Poisson(n * lambda)
exactly, so totals are tested against exact Poisson tails, not against a
Gaussian z.  A correct engine fails ``poisson_gate`` with probability at
most ``ALPHA``:

* ``ALPHA / 2`` bounds the smallest exact two-sided tail over all windows
  (Bonferroni: each window at ``ALPHA / 2 / windows``; exact, and
  conservative since the tails are discrete);
* ``ALPHA / 4`` is the nominal level of a global G^2 (Poisson deviance) over
  all windows, read against chi-square with one degree of freedom per
  window.  Every window must expect at least ``MIN_G2_EXPECTED`` counts;
  there each window adds only about 1 + 1/(6 m) to the mean of G^2.  On
  the 250 windows of the shipped 250-mode plan at 1e8 trials, 4e6 simulated
  correct runs exceeded the threshold at a rate of 2.53e-5 (nominal 2.5e-5).
  The remaining ``ALPHA / 4`` is margin for that approximation.

``binned_g2_pvalue`` tests a sample of totals (one per seed) against the
Poisson pmf, with bins merged until each expects ``MIN_BIN_EXPECTED``.

``independence_gate`` tests paired totals (one pair per seed) for
correlation with Fisher's z, two-sided at nominal ``ALPHA / 2``.  Where
one side of each pair is normal and the pairs are independent, r^2 is
exactly Beta(1/2, (R - 2) / 2) over R pairs, so the gate's false-alarm rate
is 5.5e-5 at R = 200 (scipy's beta tail at z's threshold).  The rest of
``ALPHA`` is margin for Poisson totals, normal to within a skew of
1 / sqrt(mean).
"""

import math

import numpy as np
from scipy import special, stats

ALPHA = 1e-4
MIN_G2_EXPECTED = 1000.0
MIN_BIN_EXPECTED = 20.0


def poisson_two_sided(observed, mean):
    """Exact two-sided tail 2 * min(P(X <= k), P(X >= k)), capped at 1."""
    low = stats.poisson.cdf(observed, mean)
    high = stats.poisson.sf(np.asarray(observed) - 1, mean)
    return np.minimum(1.0, 2.0 * np.minimum(low, high))


def poisson_gate(observed: dict, expected: dict,
                 alpha: float = ALPHA) -> list[str]:
    """Window totals ``observed`` against their Poisson means ``expected``
    (same keys).  Returns the failed sub-checks; empty means consistent."""
    keys = list(expected)
    obs = np.array([observed[k] for k in keys])
    exp = np.array([expected[k] for k in keys], dtype=float)
    if exp.min() < MIN_G2_EXPECTED:
        raise ValueError(f"every window must expect >= {MIN_G2_EXPECTED:g} "
                         f"counts for G^2 to hold its rate; raise n_trials")
    problems = []
    p = poisson_two_sided(obs, exp)
    worst = int(np.argmin(p))
    if p[worst] < alpha / 2 / len(keys):
        problems.append(f"window {keys[worst]}: {obs[worst]} counts, "
                        f"expected {exp[worst]:.6g} (p={p[worst]:.2g})")
    g2 = float(np.sum(2.0 * (special.xlogy(obs, obs / exp) - (obs - exp))))
    p_g2 = stats.chi2.sf(g2, len(keys))
    if p_g2 < alpha / 4:
        problems.append(f"G^2 {g2:.1f} on {len(keys)} windows "
                        f"(p={p_g2:.2g})")
    return problems


def _bins(pmf: np.ndarray, size: int) -> list[slice]:
    """Consecutive values merged until each bin expects MIN_BIN_EXPECTED;
    a short remainder joins the last bin."""
    bins, lo, mass = [], 0, 0.0
    for k, p in enumerate(pmf):
        mass += p * size
        if mass >= MIN_BIN_EXPECTED:
            bins.append(slice(lo, k + 1))
            lo, mass = k + 1, 0.0
    bins[-1] = slice(bins[-1].start, len(pmf))
    return bins


def binned_g2_pvalue(totals, mean: float) -> float:
    """G^2 p-value of a sample of totals against Poisson(mean).  The last
    value of the support carries the whole upper tail."""
    totals = np.asarray(totals)
    top = int(max(totals.max(), stats.poisson.isf(1e-12, mean))) + 1
    pmf = stats.poisson.pmf(np.arange(top + 1), mean)
    pmf[-1] = stats.poisson.sf(top - 1, mean)
    hist = np.bincount(totals, minlength=top + 1)
    bins = _bins(pmf, totals.size)
    obs = np.array([hist[b].sum() for b in bins])
    exp = np.array([pmf[b].sum() * totals.size for b in bins])
    g2 = float(np.sum(2.0 * special.xlogy(obs, obs / exp)))
    return float(stats.chi2.sf(g2, len(bins) - 1))


def independence_gate(x, y, alpha: float = ALPHA) -> list[str]:
    """Paired samples ``x`` and ``y`` against independence: Fisher's z of
    their correlation over the R pairs.  Returns the failed check; empty
    means consistent."""
    r = float(np.corrcoef(x, y)[0, 1])
    z = math.atanh(r) * math.sqrt(len(x) - 3) if abs(r) < 1.0 else math.inf
    p = float(2.0 * stats.norm.sf(abs(z)))
    if p < alpha / 2:
        return [f"correlation {r:.3g} over {len(x)} pairs (p={p:.2g})"]
    return []
