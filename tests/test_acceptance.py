"""Release gate: one test per acceptance criterion, one printed verdict each.

Monte Carlo criteria fix their seeds only so that a failure reproduces: no
seed was chosen to make a test pass.  Each statistical check states the
probability that a correct engine fails it, and keeps it at or below 1e-4
at any seed.  A window total over n trials costs one Poisson draw, so the
trial counts are set for statistical power, not for run time.
"""

import math
import time

import numpy as np
import pytest

from memarray.analysis import (
    adjusted_snr,
    crosstalk_matrix,
    fidelity_bound,
    g2_inferred,
    per_mode_stats,
)
from memarray.defaults import (
    default_device_path,
    default_noise_path,
    default_plan_path,
)
from memarray.device import PulseKind, PulseShape
from memarray.io import (
    file_sha256,
    load_device,
    load_noise,
    load_plan,
    write_counts_csv,
)
from memarray.sequence import (
    EventKind,
    SequencePlan,
    compile_plan,
    max_temporal_modes,
)
from memarray.simulate import (
    NoiseParams,
    mode_expectations,
    run_crosstalk_scan,
    run_trials,
)
from timeline_oracle import assert_noise_matches_timeline, pairwise_validate
from stat_gates import poisson_gate

DEVICE = load_device(default_device_path())
STORAGE_NOISE, _ = load_noise(default_noise_path("storage"),
                              default_dark_rate=DEVICE.dark_count_rate)
SCAN_NOISE, LEAK = load_noise(default_noise_path("crosstalk"),
                              default_dark_rate=DEVICE.dark_count_rate)
PLAN_60 = load_plan(default_plan_path("60mode"))
PLAN_250 = load_plan(default_plan_path("250mode"))
PLAN_XT = load_plan(default_plan_path("crosstalk"))


def total_mean(exp, key):
    """Expected echo plus noise counts of one mode per trial."""
    return exp.signal[key] + exp.noise[key]


def test_criterion_1_formula_point_oracles():
    # hand-computed: 100 * 11 / 110 = 10; 0.75 * 9/11 + 0.25 = 0.8636...
    assert g2_inferred(10.0, 100.0) == pytest.approx(10.0, abs=1e-12)
    assert fidelity_bound(10.0) == pytest.approx(0.75 * 9 / 11 + 0.25,
                                                 abs=1e-12)
    assert fidelity_bound(10.0) == pytest.approx(0.8636363636363636,
                                                 abs=1e-12)
    assert fidelity_bound(1.0) == 0.25
    print("criterion 1: PASS — formula points match hand oracles to 1e-12")


def test_criterion_2_projection_chain():
    # measured average SNRs in, projected correlation and fidelity out;
    # the heralded-source rescaling multiplies the signal by 0.60.
    results = {}
    for snr, g2_band, f_cap in ((31.0, (8.0, 23.0), 0.94 + 0.01),
                                (10.0, (2.6, 8.0), 0.84 + 0.03)):
        snr_adj = adjusted_snr(snr * 0.60, 1.0)
        g2 = g2_inferred(snr_adj, g2_source=100.0)
        fidelity = fidelity_bound(g2)
        assert g2_band[0] <= g2 <= g2_band[1]
        assert 0.5 < fidelity <= f_cap
        results[snr] = (snr_adj, g2, fidelity)
    assert results[31.0][0] == pytest.approx(17.6, abs=1e-12)
    assert results[10.0][0] == pytest.approx(5.0, abs=1e-12)
    assert results[31.0][1] == pytest.approx(100 * 18.6 / 117.6, rel=1e-12)
    assert results[10.0][1] == pytest.approx(100 * 6.0 / 105.0, rel=1e-12)
    print(f"criterion 2: PASS — SNR 31 -> g2 {results[31.0][1]:.2f}, "
          f"F {results[31.0][2]:.3f}; SNR 10 -> g2 {results[10.0][1]:.2f}, "
          f"F {results[10.0][2]:.3f}")


def test_criterion_3_mode_capacity():
    for plan, capacity, total in ((PLAN_60, 6, 60), (PLAN_250, 25, 250)):
        period = plan.resolved_mode_period()
        assert max_temporal_modes(plan.tau, period) == capacity
        timeline = compile_plan(plan)
        echoes = [e for e in timeline
                  if e.kind is EventKind.ECHO_WINDOW]
        assert plan.n_temporal == capacity
        assert len(echoes) == total
        assert len(plan.modes) == total
    print("criterion 3: PASS — capacities 6 and 25, mode totals 60 and 250")


def _criterion_4_means(n):
    exp = mode_expectations(DEVICE, PLAN_250, STORAGE_NOISE)
    return {key: n * total_mean(exp, key) for key in PLAN_250.modes}


def test_criterion_4_monte_carlo_matches_analytic():
    # All 250 window totals against their exact Poisson means: a correct
    # engine fails the gate with probability <= 1e-4 (stat_gates).
    n, seed = 10 ** 8, 1
    started = time.monotonic()
    run = run_trials(PLAN_250, DEVICE, STORAGE_NOISE, n_trials=n, seed=seed)
    elapsed = time.monotonic() - started
    problems = poisson_gate(run.counts, _criterion_4_means(n))
    assert problems == [], problems
    assert elapsed < 60.0
    print(f"criterion 4: PASS — 250 modes at {n:.0e} trials consistent with "
          f"their Poisson means (false-alarm rate <= 1e-4) in {elapsed:.3f} s")


def test_criterion_4_gate_catches_two_percent_bias():
    # Counts drawn with every mean scaled by 1.02 shift G^2 by ~5500 against
    # a threshold of ~355 (sd ~150): the gate misses this bias with
    # probability far below 1e-100, so every seed must fail it.
    n = 10 ** 8
    means = _criterion_4_means(n)
    lam = np.array(list(means.values()))
    for seed in range(20):
        biased = np.random.default_rng(seed).poisson(1.02 * lam)
        assert poisson_gate(dict(zip(means, biased)), means) != [], seed


def test_criterion_5_tuned_default_consistency():
    # The bands check the tuned model, so n is large enough that counting
    # error is negligible: a correct engine leaves a band with probability
    # < 1e-30 (exact Poisson tails, union-bounded; see CHANGES.md).
    n, seed = 10 ** 8, 1
    summaries = []
    for plan, target, snr_band in ((PLAN_60, 0.111, (22.0, 40.0)),
                                   (PLAN_250, 0.139, (8.0, 12.0))):
        sig = run_trials(plan, DEVICE, STORAGE_NOISE, n_trials=n, seed=seed)
        bkg = run_trials(plan, DEVICE, STORAGE_NOISE, n_trials=n,
                         seed=seed + 100, with_input=False)
        stats = per_mode_stats(sig, bkg)
        modes = plan.modes
        cum_sig = sum(stats[m].c_signal for m in modes)
        cum_bkg = sum(stats[m].c_noise for m in modes)
        avg_snr = cum_sig / cum_bkg  # pooled over all modes
        assert abs(cum_sig - target) <= 0.10 * target
        assert snr_band[0] <= avg_snr <= snr_band[1]
        summaries.append(f"{len(modes)} modes c_S {cum_sig:.4f} "
                         f"SNR {avg_snr:.1f}")

    scan = run_crosstalk_scan(DEVICE, LEAK, SCAN_NOISE, PLAN_XT,
                              n_trials=n, seed=0)
    bkg = run_trials(PLAN_XT, DEVICE, SCAN_NOISE, n_trials=n, seed=7,
                     with_input=False)
    xtalk = crosstalk_matrix(scan, bkg)
    assert not xtalk.invalid_rows
    assert 0.019 <= xtalk.mean_offdiagonal <= 0.039
    summaries.append(f"mean cross talk {xtalk.mean_offdiagonal:.4f}")
    print("criterion 5: PASS — " + "; ".join(summaries))


def _random_plan(rng):
    tau = float(rng.choice([10.0, 25.0]))
    max_modes = 15 if tau == 10.0 else 25
    n_temporal = int(rng.integers(1, max_modes + 1))
    n_cells = int(rng.integers(1, 11))
    cells = tuple(int(c) for c in rng.permutation(np.arange(1, 11))[:n_cells])
    return SequencePlan(
        tau=tau,
        t_spin=float(rng.uniform(3.5, 25.0)),
        n_temporal=n_temporal,
        mean_photon_number=float(rng.uniform(0.5, 1.5)),
        input_shape=PulseShape(PulseKind.GAUSSIAN, fwhm=300.0),
        detection_window=300.0,
        cell_order=cells,
    )


def test_criterion_6_structural_properties():
    rng = np.random.default_rng(20260817)
    # an amplified noise floor makes the counting statistics of the
    # linearity check meaningful at 2000 trials per plan; the fluorescence
    # term stays small against the base so the expected cumulative series
    # is linear to well within counting error
    loud = NoiseParams(base_noise_per_window=5e-3,
                       fluorescence_amplitude=2e-4,
                       fluorescence_decay=2.0, dark_rate=15.0)
    n_plans, n_trials = 110, 2000
    worst_resid = 0.0
    for index in range(n_plans):
        plan = _random_plan(rng)
        timeline = compile_plan(plan)

        # retrieval is first-in first-out within every cell block
        for cell in plan.cell_order:
            echoes = sorted((e for e in timeline
                             if e.kind is EventKind.ECHO_WINDOW
                             and e.cell_id == cell), key=lambda e: e.start)
            assert [e.temporal_index for e in echoes] == \
                list(range(1, plan.n_temporal + 1))

        assert pairwise_validate(timeline) == []

        exp = mode_expectations(DEVICE, plan, loud)
        assert_noise_matches_timeline(plan, timeline, loud, exp)
        for cell in plan.cell_order:
            assert exp.noise[(cell, 1)] >= exp.noise[(cell, plan.n_temporal)]

        # every cell block contributes the same expected noise, so the
        # cumulative expectation is exactly linear from block to block
        block_sums = [sum(exp.noise[(cell, k)]
                          for k in range(1, plan.n_temporal + 1))
                      for cell in plan.cell_order]
        assert max(block_sums) - min(block_sums) <= 1e-12 * max(block_sums)

        # measured cumulative noise counts grow linearly with mode count;
        # the cumulative series is a Poisson random walk, so its excursion
        # around the fitted line is capped by the counting error of the
        # series total, not the local cumulative error
        run = run_trials(plan, DEVICE, loud, n_trials=n_trials, seed=index,
                         with_input=False)
        modes = plan.modes
        totals = np.array([run.counts[m] for m in modes], dtype=float)
        cum = np.cumsum(totals) / n_trials
        idx = np.arange(1, len(modes) + 1, dtype=float)
        if len(modes) >= 3:
            slope, intercept = np.polyfit(idx, cum, 1)
            resid = np.abs(cum - (slope * idx + intercept))
            sigma = math.sqrt(max(totals.sum(), 1.0)) / n_trials
            assert np.all(resid < 3.0 * sigma), \
                f"plan {index}: nonlinear cumulative noise"
            worst_resid = max(worst_resid, float(np.max(resid) / sigma))
    print(f"criterion 6: PASS — {n_plans} random feasible plans: FIFO, "
          f"0 violations, noise means equal to the timeline oracle, linear "
          f"noise growth (worst residual {worst_resid:.2f} sigma), first >= "
          f"last mode noise")


def test_criterion_7_byte_identical_reruns(tmp_path):
    shas = []
    for name in ("a", "b"):
        run = run_trials(PLAN_60, DEVICE, STORAGE_NOISE, n_trials=400,
                         seed=42)
        shas.append(file_sha256(write_counts_csv(tmp_path / f"{name}.csv",
                                                 run)))
    assert shas[0] == shas[1]

    scan_shas = []
    for name in ("sa", "sb"):
        scan = run_crosstalk_scan(DEVICE, LEAK, SCAN_NOISE, PLAN_XT,
                                  n_trials=300, seed=11)
        scan_shas.append(file_sha256(write_counts_csv(
            tmp_path / f"{name}.csv", scan)))
    assert scan_shas[0] == scan_shas[1]
    print("criterion 7: PASS — byte-identical CSVs across same-seed reruns")
