"""Tests of the benchmark's own checkers, and a tiny-pass smoke run.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

memarray = run.load_program()
pytestmark = pytest.mark.skipif(memarray is None, reason="no memarray sources")

# Smallest uniform bias of every Poisson mean that the grand-total test alone
# catches in half of all runs (detectable_bias), per checked run and
# for the final check pooled over ``pooled_runs`` runs.  Rounded up.
STATED_BIAS = {
    ("storage-60mode", "signal", 1): 0.14,
    ("storage-60mode", "noise", 1): 0.76,
    ("storage-60mode", "signal", 8): 0.047,
    ("storage-60mode", "noise", 8): 0.25,
    ("sweep-250mode", "signal", 1): 1.16,
    ("sweep-250mode", "signal", 20): 0.24,
    ("sweep-250mode", "noise", 20): 0.79,
    ("crosstalk-scan", "crosstalk", 1): 0.32,
    ("crosstalk-scan", "crosstalk", 8): 0.11,
}


@pytest.fixture(scope="module")
def model():
    return workloads.Model(memarray)


def run_means(model, workload: str, kind: str) -> dict:
    """Per-window Poisson means of one checked run of ``workload``."""
    if workload == "crosstalk-scan":
        means = model.scan("crosstalk", "crosstalk")
        trials = workloads.CrosstalkScan.trials
    elif workload == "storage-60mode":
        means = model.storage("60mode", "storage")[kind]
        trials = workloads.Storage60.trials
    else:
        means = model.storage("250mode", "storage")[kind]
        trials = workloads.Sweep250.trials
    return {k: trials * m for k, m in means.items()}


def draw(rng, expected: dict, scale: float = 1.0) -> dict:
    keys = list(expected)
    values = rng.poisson(np.array([expected[k] for k in keys]) * scale)
    return {k: int(v) for k, v in zip(keys, values)}


def replicate(expected: dict, copies: int):
    """``copies`` independent runs as one pooled check, as run.py pools."""
    exp = {(c, k): v for c in range(copies) for k, v in expected.items()}
    groups = {(c, k): (c, k[0]) for (c, k) in exp}
    return exp, groups


# --------------------------------------------------------------------------
# special functions against scipy


def test_tails_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    for mean in (0.01, 0.7, 3.0, 20.0, 450.0, 17000.0):
        for k in sorted({0, 1, int(mean), int(mean + 4 * math.sqrt(mean)) + 1,
                         max(0, int(mean - 4 * math.sqrt(mean)))}):
            low, high = stats.poisson.cdf(k, mean), stats.poisson.sf(k - 1, mean)
            want = min(1.0, 2 * min(low, high))
            assert checks.poisson_two_sided(k, mean) == pytest.approx(
                want, rel=1e-9, abs=1e-300)
    for dof, x in ((2, 34.0), (10, 52.0), (90, 190.0)):
        assert checks.chi2_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof),
                                                       rel=1e-9)
    for k, n, p in ((0, 30, 0.05), (7, 40, 0.05), (40, 40, 0.9)):
        want = min(1.0, 2 * min(stats.binom.cdf(k, n, p),
                                stats.binom.sf(k - 1, n, p)))
        assert checks.binomial_two_sided(k, n, p) == pytest.approx(want,
                                                                   rel=1e-9)


# --------------------------------------------------------------------------
# false-alarm rate of the G^2 part, by exact convolution


def _g2_true_tail(bin_means, threshold, step=0.01):
    """Upper bound on P(sum of bin deviances >= threshold) for independent
    Poisson bins: each bin's deviance is rounded up to a grid and the
    distribution of the sum is convolved exactly, with everything at or
    above the threshold kept in one absorbing bin."""
    stats = pytest.importorskip("scipy.stats")
    size = int(math.ceil(threshold / step)) + 1
    dist = np.zeros(size)
    dist[0] = 1.0
    n_fft = 1 << int(math.ceil(math.log2(2 * size)))
    for e in bin_means:
        o = np.arange(0, int(e + 60 * math.sqrt(e) + 80))
        pmf = stats.poisson.pmf(o, e)
        dev = np.array([checks.deviance(int(v), e) for v in o])
        idx = np.minimum(np.ceil(dev / step - 1e-9).astype(int), size - 1)
        kernel = np.bincount(idx, weights=pmf, minlength=size)
        kernel[size - 1] += max(0.0, 1.0 - pmf.sum())
        full = np.fft.irfft(np.fft.rfft(dist, n_fft) * np.fft.rfft(kernel, n_fft),
                            n_fft)[:2 * size - 1]
        dist = full[:size].copy()
        dist[size - 1] += full[size:].sum()
        dist = np.clip(dist, 0.0, None)
    return dist[size - 1]


@pytest.mark.parametrize("workload,kind,copies", [
    ("storage-60mode", "signal", 1),
    ("storage-60mode", "noise", 1),
    ("storage-60mode", "noise", 8),
    ("crosstalk-scan", "crosstalk", 1),
    ("sweep-250mode", "signal", 20),
])
def test_g2_false_alarm_below_budget(model, workload, kind, copies):
    stats = pytest.importorskip("scipy.stats")
    expected, groups = replicate(run_means(model, workload, kind), copies)
    keys = sorted(expected, key=lambda k: (str(groups[k]), k))
    exp = [expected[k] for k in keys]
    bins = checks.chi2_bins(exp, [groups[k] for k in keys])
    assert len(bins) >= 2
    threshold = stats.chi2.isf(checks.ALPHA_CHI2_NOMINAL, len(bins))
    tail = _g2_true_tail([sum(exp[i] for i in b) for b in bins], threshold)
    budget = 1e-6 - checks.ALPHA_WINDOWS - checks.ALPHA_TOTAL
    assert tail <= budget


# --------------------------------------------------------------------------
# power: synthetic counts at biased means must fail


def detectable_bias(total_expected: float) -> float:
    """Uniform relative bias of every mean at which the grand-total test
    alone rejects half of all runs: the median total reaches the smallest
    rejected total above the mean."""
    k = math.ceil(total_expected)
    step = max(1, int(math.sqrt(total_expected)))
    while checks.poisson_two_sided(k, total_expected) >= checks.ALPHA_TOTAL:
        k += step
    while (k > 0 and checks.poisson_two_sided(k - 1, total_expected)
           < checks.ALPHA_TOTAL):
        k -= 1
    return k / total_expected - 1.0


@pytest.mark.parametrize("key", sorted(STATED_BIAS))
def test_stated_bias_is_caught(model, key):
    workload, kind, copies = key
    expected, groups = replicate(run_means(model, workload, kind), copies)
    bias = detectable_bias(sum(expected.values()))
    assert bias <= STATED_BIAS[key]
    rng = np.random.default_rng(7)
    for _ in range(5):
        assert checks.poisson_check(draw(rng, expected), expected, groups) == []
        for scale in (1 + 2 * bias, max(0.0, 1 - 2 * bias)):
            biased = draw(rng, expected, scale)
            assert checks.poisson_check(biased, expected, groups)


def test_unbiased_counts_pass(model):
    rng = np.random.default_rng(11)
    for workload, kind in (("storage-60mode", "signal"),
                           ("storage-60mode", "noise"),
                           ("sweep-250mode", "noise"),
                           ("crosstalk-scan", "crosstalk")):
        expected, groups = replicate(run_means(model, workload, kind), 1)
        for _ in range(50):
            assert checks.poisson_check(draw(rng, expected), expected,
                                        groups) == []


def test_single_window_outlier_fails(model):
    expected, groups = replicate(run_means(model, "storage-60mode", "signal"), 1)
    observed = {k: round(v) for k, v in expected.items()}
    assert checks.poisson_check(observed, expected, groups) == []
    key = next(iter(expected))
    observed[key] = round(3 * expected[key]) + 20
    assert any("window" in p
               for p in checks.poisson_check(observed, expected, groups))


def test_ratio_check(model):
    means = model.scan("crosstalk", "crosstalk")
    trials = workloads.CrosstalkScan.trials
    rng = np.random.default_rng(3)
    expected = {k: trials * m for k, m in means.items()}
    for _ in range(20):
        assert checks.ratio_check(draw(rng, expected), means) == []
    # Output 1 seeing as much of input 2 as output 2 does is far off the
    # leakage matrix (5.4%).
    observed = {k: round(v) for k, v in expected.items()}
    observed[(2, 1)] = observed[(2, 2)]
    assert any("C[2,1]" in p for p in checks.ratio_check(observed, means))


# --------------------------------------------------------------------------
# counts-file shape


HEADER = ",".join(checks.COUNTS_HEADER)


def _counts(tmp_path, rows):
    path = tmp_path / "counts.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n")
    return path


def test_read_counts_accepts_a_well_formed_file(tmp_path):
    path = _counts(tmp_path, ["signal,1,1,1,5,100", "signal,1,1,2,0,100"])
    assert checks.read_counts(path, "signal", 100, [(1, 1, 1), (1, 1, 2)]) == {
        (1, 1, 1): 5, (1, 1, 2): 0}


@pytest.mark.parametrize("rows,match", [
    (["signal,1,1,1,5,100", "signal,1,1,1,5,100", "signal,1,1,2,0,100"],
     "duplicated"),
    (["noise,1,1,1,5,100", "noise,1,1,2,0,100"], "run kind"),
    (["signal,1,1,1,5,100", "signal,1,1,2,0,99"], "trials"),
    (["signal,1,1,1,5,100"], "window set"),
    (["signal,1,1,1,-1,100", "signal,1,1,2,0,100"], "total"),
])
def test_read_counts_rejects(tmp_path, rows, match):
    with pytest.raises(ValueError, match=match):
        checks.read_counts(_counts(tmp_path, rows), "signal", 100,
                           [(1, 1, 1), (1, 1, 2)])


def test_swapped_signal_and_noise_files_fail(tmp_path, model):
    """A noise run handed over as the signal run fails on its kind and, with
    the kind column forged, on its totals."""
    means = model.storage("60mode", "storage")
    trials = workloads.Storage60.trials
    rng = np.random.default_rng(5)
    noise = draw(rng, {k: trials * m for k, m in means["noise"].items()})
    rows = [f"noise,{c},{c},{k},{v},{trials}" for (c, k), v in sorted(noise.items())]
    keys = [(c, c, k) for (c, k) in means["signal"]]
    with pytest.raises(ValueError, match="run kind"):
        checks.read_counts(_counts(tmp_path, rows), "signal", trials, keys)
    expected = {k: trials * m for k, m in means["signal"].items()}
    assert checks.poisson_check(noise, expected, {k: k[0] for k in expected})


# --------------------------------------------------------------------------
# smoke run of every workload at a tiny size


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass_smoke_run(monkeypatch, capsys, name, trace):
    cls = workloads.WORKLOADS[name]
    monkeypatch.setattr(cls, "trials", 50)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "BASELINE_REPEATS", 1)
    monkeypatch.setattr(run, "BASELINE_TRIALS", 20)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert all(m["value"] == m["value"] for m in result["metrics"].values())


def test_missing_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "storage-60mode", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
