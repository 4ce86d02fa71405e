"""Counting-engine tests.

The derived expectations were frozen before implementation: the six-factor
signal product by hand multiplication, noise means by evaluating the decay
exponential at hand-computed gaps.  The engine contract is checked exactly
(counts equal the sampler's draws over the run's means, in draw order, from
the stream of the run's seed and kind); the Monte Carlo checks use the gates
of ``stat_gates``, each failing a correct engine with probability at most
1e-4 whatever the seed.  The sampler is gated on both of its branches (PTRS
at a mean of at least 10, Knuth's method below), and same-seed runs of two
kinds are gated for independence.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memarray.defaults import (
    default_device_path,
    default_noise_path,
    default_plan_path,
)
from memarray.device import ArrayDevice, CellParams
from memarray.errors import CompilationError, ConfigError
from memarray.io import load_device, load_noise, load_plan
from memarray.sequence import (
    EventKind,
    PulseKind,
    SequencePlan,
    TimelineEvent,
    compile_plan,
    window_capture_fraction,
)
from memarray.simulate import (
    LeakageMatrix,
    NoiseParams,
    RunKind,
    TrialCounts,
    _POISSON_LAM_MAX,
    _log_pmf,
    _poisson,
    _poisson_totals,
    expected_signal_per_mode,
    mode_expectations,
    run_crosstalk_scan,
    run_trials,
)
from timeline_oracle import assert_noise_matches_timeline, expected_noise_per_mode
from stat_gates import (ALPHA, binned_g2_pvalue, independence_gate,
                        poisson_gate)


def table(run):
    """A run's totals by key."""
    return dict(zip(run.keys, run.totals))


def make_cell(cell_id=1, **kw):
    args = dict(
        eta_mux=0.90,
        eta_demux=0.80,
        eta_fiber=0.45,
        eta_transfer=0.20,
        afc_calibration=((10.0, 0.0955), (25.0, 0.040)),
    )
    args.update(kw)
    return CellParams(cell_id=cell_id, **args)


def make_device(cells=None, det=0.14):
    cells = cells or (make_cell(),)
    return ArrayDevice(cells=tuple(cells), eta_detection_path=det,
                       dark_count_rate=15.0)


def make_plan(**kw):
    args = dict(
        tau=10.0,
        t_spin=15.5,
        n_temporal=6,
        mean_photon_number=1.03,
        input_shape=PulseKind.GAUSSIAN,
        input_fwhm=351.0,
        detection_window=351.0,
        cell_order=(1,),
    )
    args.update(kw)
    return SequencePlan(**args)


def total_mean(exp, key):
    """Expected echo plus noise counts of one mode per trial."""
    return exp.signal[key] + exp.noise[key]


QUIET = NoiseParams(base_noise_per_window=0.0, fluorescence_amplitude=0.0,
                    fluorescence_decay=2.0, dark_rate=0.0)


class TestExpectedSignal:
    def test_six_factor_product(self):
        # n=1.03, spin-wave 0.0955*0.20=0.0191, demux 0.80, fiber 0.45,
        # detection path 0.14, capture erf(sqrt(ln 2))=0.7609
        # -> 1.03*0.0191*0.80*0.45*0.14*0.7609 = 7.54e-4.
        cell = make_cell()
        device = make_device((cell,))
        got = expected_signal_per_mode(cell, make_plan(), device)
        capture = window_capture_fraction(make_plan())
        assert got == pytest.approx(
            1.03 * 0.0191 * 0.80 * 0.45 * 0.14 * capture, rel=1e-12)
        assert got == pytest.approx(7.54e-4, abs=1e-6)

    def test_vanishing_mean_photon_number(self):
        # Linear in the input flux, so the signal vanishes with it.
        cell = make_cell()
        device = make_device((cell,))
        tiny = expected_signal_per_mode(cell, make_plan(
            mean_photon_number=1e-30), device)
        assert tiny == pytest.approx(0.0, abs=1e-30)

    def test_multiplexer_efficiency_excluded(self):
        # The mean photon number is calibrated downstream of the
        # multiplexer, so eta_mux must not scale the expected signal.
        device_a = make_device((make_cell(eta_mux=0.90),))
        device_b = make_device((make_cell(eta_mux=0.45),))
        plan = make_plan()
        assert (expected_signal_per_mode(device_a.cells[0], plan, device_a)
                == expected_signal_per_mode(device_b.cells[0], plan, device_b))


def single_cell_timeline(t_spin=15.5, n_temporal=6):
    plan = make_plan(t_spin=t_spin, n_temporal=n_temporal)
    return plan, compile_plan(plan)


class TestExpectedNoise:
    def test_flat_without_fluorescence(self):
        _, tl = single_cell_timeline()
        noise = NoiseParams(base_noise_per_window=4e-5,
                            fluorescence_amplitude=0.0,
                            fluorescence_decay=2.0, dark_rate=15.0)
        expect = 4e-5 + 15.0 * 0.351e-6
        for k in range(1, 7):
            assert expected_noise_per_mode((1, k), tl, noise) == pytest.approx(
                expect, rel=1e-12)

    def test_peak_at_control_pulse_end(self):
        # A window opening exactly at the end of the second control pulse
        # sees the full fluorescence amplitude.
        cp2 = TimelineEvent(EventKind.CONTROL2, 1,
                            start=10.0, duration=3.5)
        win = TimelineEvent(EventKind.ECHO_WINDOW, 1,
                            start=13.5, duration=0.351, temporal_index=1)
        tl = (cp2, win)
        noise = NoiseParams(base_noise_per_window=2e-5,
                            fluorescence_amplitude=6e-5,
                            fluorescence_decay=2.0, dark_rate=15.0)
        assert expected_noise_per_mode((1, 1), tl, noise) == pytest.approx(
            2e-5 + 6e-5 + 15.0 * 0.351e-6, rel=1e-12)

    def test_first_mode_noisier_than_last(self):
        _, tl = single_cell_timeline()
        noise = NoiseParams(base_noise_per_window=1e-5,
                            fluorescence_amplitude=2e-5,
                            fluorescence_decay=3.0, dark_rate=0.0)
        first = expected_noise_per_mode((1, 1), tl, noise)
        last = expected_noise_per_mode((1, 6), tl, noise)
        assert first > last

    def test_monotone_in_temporal_index(self):
        _, tl = single_cell_timeline()
        noise = NoiseParams(base_noise_per_window=4.3e-5,
                            fluorescence_amplitude=8e-5,
                            fluorescence_decay=2.0, dark_rate=15.0)
        means = [expected_noise_per_mode((1, k), tl, noise)
                 for k in range(1, 7)]
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_unknown_mode_rejected(self):
        _, tl = single_cell_timeline()
        with pytest.raises(ConfigError):
            expected_noise_per_mode((2, 1), tl, QUIET)


class TestModeExpectations:
    @pytest.mark.parametrize("plan_name, noise_name", [
        ("60mode", "storage"), ("250mode", "storage"),
        ("crosstalk", "crosstalk")])
    def test_shipped_plans_match_timeline_oracle(self, plan_name,
                                                 noise_name):
        device = load_device(default_device_path())
        noise, _ = load_noise(default_noise_path(noise_name),
                              default_dark_rate=device.dark_count_rate)
        plan = load_plan(default_plan_path(plan_name))
        exp = mode_expectations(device, plan, noise)
        assert_noise_matches_timeline(plan, compile_plan(plan), noise, exp)

    def test_block_order_and_shape(self):
        device = make_device((make_cell(1), make_cell(2)))
        plan = make_plan(n_temporal=3, cell_order=(2, 1))
        exp = mode_expectations(device, plan, QUIET)
        assert plan.modes == ((2, 1), (2, 2), (2, 3), (1, 1), (1, 2), (1, 3))
        assert list(exp.signal) == list(plan.modes)
        assert list(exp.noise) == list(plan.modes)
        # same cell, same expected echo in every temporal slot
        assert exp.signal[(1, 1)] == exp.signal[(1, 3)]


class TestRunTrials:
    def test_silence_without_input_or_noise(self):
        plan = make_plan()
        out = run_trials(plan, make_device(), QUIET, n_trials=500, seed=1,
                         with_input=False)
        assert out.kind is RunKind.NOISE
        assert sum(out.totals) == 0
        assert out.keys == tuple((1, k) for k in range(1, 7))

    def test_million_trial_concentration(self):
        # Single mode with expected 1e-3 counts/trial: over 1e6 trials the
        # total is Poisson(1000); the gate fails a correct engine with
        # probability <= 1e-4.
        plan = make_plan(n_temporal=1)
        noise = NoiseParams(base_noise_per_window=1e-3,
                            fluorescence_amplitude=0.0,
                            fluorescence_decay=2.0, dark_rate=0.0)
        out = run_trials(plan, make_device(), noise, n_trials=10 ** 6,
                         seed=20240217, with_input=False)
        assert poisson_gate(table(out), {(1, 1): 1000.0}) == []

    def test_signal_run_mean_matches_expectation(self):
        plan = make_plan()
        device = make_device()
        noise = NoiseParams(base_noise_per_window=4.3e-5,
                            fluorescence_amplitude=8e-5,
                            fluorescence_decay=2.0, dark_rate=15.0)
        n = 10 ** 7
        out = run_trials(plan, device, noise, n_trials=n, seed=99)
        exp = mode_expectations(device, plan, noise)
        assert poisson_gate(table(out), {key: n * total_mean(exp, key)
                                        for key in plan.modes}) == []

    def test_counts_equal_one_seeded_poisson_draw(self):
        # The engine contract, exactly: one Poisson(n * lambda) total per
        # window, drawn in plan.modes order (cell 2's block first) from the
        # stream of (seed, kind).
        device = make_device((make_cell(1), make_cell(2, eta_fiber=0.3)))
        plan = make_plan(n_temporal=3, cell_order=(2, 1))
        noise = NoiseParams(base_noise_per_window=0.05,
                            fluorescence_amplitude=0.02,
                            fluorescence_decay=2.0, dark_rate=15.0)
        exp = mode_expectations(device, plan, noise)
        n, seed = 12345, 2024
        for with_input, kind in ((True, RunKind.SIGNAL),
                                 (False, RunKind.NOISE)):
            out = run_trials(plan, device, noise, n_trials=n,
                             seed=seed, with_input=with_input)
            lam = [total_mean(exp, k) if with_input else exp.noise[k]
                   for k in plan.modes]
            want = _poisson_totals(lam, n, seed, kind)
            assert table(out) == dict(zip(plan.modes, want))

    def test_same_seed_reruns_are_identical(self):
        plan = make_plan(n_temporal=4)
        noise = NoiseParams(base_noise_per_window=0.05,
                            fluorescence_amplitude=0.02,
                            fluorescence_decay=2.0, dark_rate=15.0)
        runs = [run_trials(plan, make_device(), noise, n_trials=1000, seed=7,
                           with_input=False) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_seed_changes_counts(self):
        plan = make_plan(n_temporal=4)
        noise = NoiseParams(base_noise_per_window=0.05,
                            fluorescence_amplitude=0.0,
                            fluorescence_decay=2.0, dark_rate=0.0)
        a = run_trials(plan, make_device(), noise, 1000, seed=1,
                       with_input=False)
        b = run_trials(plan, make_device(), noise, 1000, seed=2,
                       with_input=False)
        assert a.totals != b.totals

    def test_infeasible_plan_propagates(self):
        plan = make_plan(n_temporal=7, mode_period=6.5 / 6)
        with pytest.raises(CompilationError):
            run_trials(plan, make_device(), QUIET, n_trials=10, seed=0)

    @pytest.mark.parametrize("bad", [dict(n_trials=0), dict(seed=-1),
                                     dict(n_trials=10 ** 25)])
    def test_rejects_bad_run_arguments(self, bad):
        # 1e25 trials at ~1e-3 counts per window passes the sampler's
        # 2**30 (~1.1e9) limit on a window's mean.
        plan = make_plan()
        noise = NoiseParams(base_noise_per_window=1e-3,
                            fluorescence_amplitude=0.0,
                            fluorescence_decay=2.0, dark_rate=0.0)
        args = dict(n_trials=10, seed=0)
        args.update(bad)
        with pytest.raises(ConfigError):
            run_trials(plan, make_device(), noise, args["n_trials"],
                       args["seed"])

    def test_oversized_run_without_counts_rejected(self):
        # All-zero means put no limit on the mean, but the trial count must
        # still convert to a float.
        plan = make_plan()
        with pytest.raises(ConfigError):
            run_trials(plan, make_device(), QUIET, 10 ** 400, seed=0,
                       with_input=False)

    def test_poissonity_chi_square(self):
        # Totals of one seed per run, over many seeds, against the analytic
        # Poisson(n * lambda) pmf: a binned G^2 per window at nominal
        # 1e-4 / 8, so a correct engine fails with probability <= 1e-4.  Half
        # the budget is margin for the chi-square approximation: on these
        # bins, 4e6 simulated correct samples per window exceeded nominal
        # 2.5e-5 at 1.9e-5 to 2.9e-5.
        plan = make_plan(n_temporal=4)
        noise = NoiseParams(base_noise_per_window=2e-3,
                            fluorescence_amplitude=2e-3,
                            fluorescence_decay=2.0, dark_rate=0.0)
        n, seeds = 2000, range(4000)
        exp = mode_expectations(make_device(), plan, noise)
        totals = np.array([[table(run_trials(plan, make_device(), noise,
                                             n_trials=n, seed=seed,
                                             with_input=False))[k]
                            for k in plan.modes] for seed in seeds])
        for column, key in zip(totals.T, plan.modes):
            p = binned_g2_pvalue(column, n * exp.noise[key])
            assert p >= ALPHA / 2 / len(plan.modes), f"mode {key}: p={p:.2g}"


def identity_leak(n=3):
    return LeakageMatrix(cell_ids=tuple(range(1, n + 1)),
                         values=tuple(tuple(1.0 if i == j else 0.0
                                            for j in range(n))
                                      for i in range(n)))


class TestCrossTalkScan:
    def scan_setup(self, n=3):
        cells = tuple(make_cell(i) for i in range(1, n + 1))
        device = make_device(cells)
        plan = make_plan(n_temporal=1, t_spin=8.0,
                         cell_order=tuple(range(1, n + 1)))
        return device, plan

    def test_identity_leak_zero_noise_off_diagonals_silent(self):
        # Each diagonal expects ~750 counts, so a correct engine leaves one
        # empty with probability e^-750.
        device, plan = self.scan_setup()
        scan = run_crosstalk_scan(device, identity_leak(), QUIET, plan,
                                  n_trials=10 ** 6, seed=11)
        assert scan.kind is RunKind.CROSSTALK
        assert set(scan.keys) == {(i, j) for i in (1, 2, 3)
                                  for j in (1, 2, 3)}
        for (i, j), total in zip(scan.keys, scan.totals):
            if i != j:
                assert total == 0
            else:
                assert total > 0

    def test_diagonal_matches_signal_expectation(self):
        device, plan = self.scan_setup()
        n = 10 ** 7
        scan = run_crosstalk_scan(device, identity_leak(), QUIET, plan,
                                  n_trials=n, seed=5)
        expected = {i: n * expected_signal_per_mode(device.cell(i), plan,
                                                    device)
                    for i in (1, 2, 3)}
        assert poisson_gate({i: table(scan)[(i, i)] for i in expected},
                            expected) == []

    def test_leakage_scales_off_diagonal(self):
        device, plan = self.scan_setup(2)
        leak = LeakageMatrix(cell_ids=(1, 2),
                             values=((1.0, 0.05), (0.05, 1.0)))
        n = 10 ** 8
        scan = run_crosstalk_scan(device, leak, QUIET, plan,
                                  n_trials=n, seed=3)
        lam = 0.05 * expected_signal_per_mode(device.cell(1), plan, device)
        assert poisson_gate({(1, 2): table(scan)[(1, 2)]},
                            {(1, 2): lam * n}) == []

    def test_offresonant_leak_adds_to_specific_pair(self):
        device, plan = self.scan_setup(2)
        noise = NoiseParams(base_noise_per_window=0.0,
                            fluorescence_amplitude=0.0,
                            fluorescence_decay=2.0, dark_rate=0.0,
                            offresonant_echo_leak={(2, 1): 0.02})
        n = 100_000
        scan = run_crosstalk_scan(device, identity_leak(2), noise, plan,
                                  n_trials=n, seed=8)
        assert poisson_gate({(2, 1): table(scan)[(2, 1)]},
                            {(2, 1): 0.02 * n}) == []
        assert table(scan)[(1, 2)] == 0

    def test_scans_the_plan_cells_in_leakage_order(self):
        # Cells of the matrix outside the plan are not scanned, and the
        # plan's own order does not change the draw.
        device, plan = self.scan_setup(2)
        leak = LeakageMatrix(cell_ids=(1, 2, 3),
                             values=((1.0, 0.05, 0.0), (0.1, 1.0, 0.0),
                                     (0.0, 0.0, 1.0)))
        swapped = dataclasses.replace(plan, cell_order=(2, 1))
        scans = [run_crosstalk_scan(device, leak, QUIET, p, n_trials=1000,
                                    seed=4) for p in (plan, swapped)]
        assert scans[0].keys == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert scans[0] == scans[1]

    def test_plan_cell_missing_from_leakage_rejected(self):
        device, plan = self.scan_setup()
        with pytest.raises(ConfigError, match=re.escape(
                "[leakage] has no row for plan cells [3]")) as err:
            run_crosstalk_scan(device, identity_leak(2), QUIET, plan,
                               n_trials=10, seed=0)
        assert err.value.source == "noise"

    def test_requires_single_temporal_mode(self):
        device, _ = self.scan_setup()
        two_modes = make_plan(n_temporal=2)
        with pytest.raises(ConfigError) as err:
            run_crosstalk_scan(device, identity_leak(), QUIET, two_modes,
                               n_trials=10, seed=0)
        assert err.value.source == "plan"

    def test_counts_equal_one_seeded_poisson_draw(self):
        # One Poisson(n * lambda) draw over the pairs in (input, output)
        # order, lambda = leak * signal_i + noise + off-resonant leak.
        device, plan = self.scan_setup(2)
        leak = LeakageMatrix(cell_ids=(1, 2),
                             values=((1.0, 0.05), (0.1, 1.0)))
        noise = NoiseParams(base_noise_per_window=1e-4,
                            fluorescence_amplitude=0.0,
                            fluorescence_decay=2.0, dark_rate=0.0,
                            offresonant_echo_leak={(2, 1): 0.02})
        n, seed = 54321, 99
        scan = run_crosstalk_scan(device, leak, noise, plan,
                                  n_trials=n, seed=seed)
        sig = [expected_signal_per_mode(device.cell(c), plan, device)
               for c in (1, 2)]
        pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
        lam = [leak.leak(i, j) * sig[i - 1] + 1e-4
               + (0.02 if (i, j) == (2, 1) else 0.0) for i, j in pairs]
        want = _poisson_totals(lam, n, seed, RunKind.CROSSTALK)
        assert table(scan) == dict(zip(pairs, want))

    def test_same_seed_reruns_are_identical(self):
        device, plan = self.scan_setup()
        noise = NoiseParams(base_noise_per_window=0.01,
                            fluorescence_amplitude=0.0,
                            fluorescence_decay=2.0, dark_rate=0.0)
        a, b = (run_crosstalk_scan(device, identity_leak(), noise, plan,
                                   n_trials=3000, seed=13) for _ in range(2))
        assert a == b


class TestSampler:
    @pytest.mark.parametrize("lam, uniforms, k", [
        # u = -0.5 makes us = 0, where C's PTRS rejects k = -inf; the next
        # pair (u = 0, v = 0.5 <= vr) takes the fast branch, k = 40.
        (40.0, [0.0, 0.7, 0.5, 0.5], 40),
        # us = 0.05 < 0.07 passes the fast branch by, and v = 0 is accepted
        # as C's log(0) = -inf is: k = floor((2a / us + b) u + 40.43), with
        # b = 16.93, a = 0.3614 and u = 0.45.
        (40.0, [0.95, 0.0], 54),
        # Knuth: products 0.5, 0.25 and 0.125, the first at or below
        # e^-2 = 0.135, so k = 2.
        (2.0, [0.5, 0.5, 0.5], 2),
    ], ids=["ptrs-us-zero-rejected", "ptrs-v-zero-accepted", "knuth"])
    def test_stubbed_uniforms(self, lam, uniforms, k):
        rest = iter(uniforms)
        assert _poisson(lam, rest.__next__) == k
        assert next(rest, None) is None  # every uniform used, no more

    @pytest.mark.parametrize("lam", [0.5, 9.99, 10.0, 40.0])
    def test_both_branches_draw_poisson(self, lam):
        # 100000 draws of Poisson(lam) from one stream, on each side of
        # the branch point.  poisson_gate at ALPHA / 2 tests 50 sums of 2000
        # draws; the binned G^2 of the draws is read at nominal ALPHA / 4,
        # leaving ALPHA / 4 as margin for its chi-square approximation, so a
        # correct sampler fails with probability at most ALPHA.
        windows, size = 50, 2000
        draws = _poisson_totals([lam] * (windows * size), 1, 38,
                                RunKind.NOISE)
        sums = {w: sum(draws[w * size:(w + 1) * size])
                for w in range(windows)}
        assert poisson_gate(sums, dict.fromkeys(sums, size * lam),
                            alpha=ALPHA / 2) == []
        assert binned_g2_pvalue(draws, lam) >= ALPHA / 4

    @pytest.mark.parametrize("lam, accurate", [(_POISSON_LAM_MAX, True),
                                               (2.0 ** 52, False)],
                             ids=["cap", "2**52-power"])
    def test_log_pmf_holds_up_to_the_cap(self, lam, accurate):
        # At k = lam, Stirling's series gives log P(k) = -log(2 pi lam) / 2
        # - 1 / (12 lam) + O(lam**-3).  The log test's terms cancel, so its
        # error grows with lam: within 1e-5 at the sampler's cap, but off by
        # 13 at the old cap of 2**52, which this check must catch.
        stirling = -0.5 * math.log(2 * math.pi * lam) - 1 / (12 * lam)
        got = _log_pmf(int(lam), lam, math.log(lam))
        assert (abs(got - stirling) < 1e-5) is accurate


class TestStreams:
    """Same-seed signal and noise runs draw from independent streams: the
    grand totals of R = 200 same-seed pairs of ``250mode`` pass
    ``independence_gate``, which a stream shared by both kinds fails."""

    SEEDS = range(200)
    N = 10 ** 6

    @staticmethod
    def shipped():
        device = load_device(default_device_path())
        noise, _ = load_noise(default_noise_path("storage"),
                              default_dark_rate=device.dark_count_rate)
        return device, load_plan(default_plan_path("250mode")), noise

    def test_signal_and_noise_runs_are_independent(self):
        device, plan, noise = self.shipped()
        pairs = [[sum(run_trials(plan, device, noise, self.N, seed,
                                 with_input=with_input).totals)
                  for seed in self.SEEDS] for with_input in (True, False)]
        assert independence_gate(*pairs) == []

    @pytest.mark.parametrize("draw", [
        lambda lam, n, seed: np.random.default_rng(seed).poisson(
            n * np.array(lam)).tolist(),
        lambda lam, n, seed: _poisson_totals(lam, n, seed, RunKind.SIGNAL),
    ], ids=["numpy-engine", "one-key-for-both-kinds"])
    def test_a_shared_stream_fails_the_gate(self, draw):
        # Power: both kinds drawn from one stream per seed, as the numpy
        # engine drew them, correlate at about 0.9.
        device, plan, noise = self.shipped()
        exp = mode_expectations(device, plan, noise)
        means = ([total_mean(exp, k) for k in plan.modes],
                 [exp.noise[k] for k in plan.modes])
        pairs = [[sum(draw(lam, self.N, seed)) for seed in self.SEEDS]
                 for lam in means]
        assert independence_gate(*pairs) != []


class TestDataTypes:
    def test_leakage_diagonal_must_be_unity(self):
        with pytest.raises(ConfigError):
            LeakageMatrix(cell_ids=(1, 2), values=((0.9, 0.0), (0.0, 1.0)))

    def test_leakage_off_diagonal_below_one(self):
        with pytest.raises(ConfigError):
            LeakageMatrix(cell_ids=(1, 2), values=((1.0, 1.0), (0.0, 1.0)))

    @pytest.mark.parametrize("cell_ids, values, message", [
        ((1, 1), ((1.0, 0.0), (0.0, 1.0)),
         "leakage matrix has duplicate cell ids"),
        ((1, 2), ((1.0, 0.0),), "leakage matrix must be 2x2"),
        ((1, 2), ((1.0, 0.0), (0.0, 1.0, 0.0)), "leakage matrix must be 2x2"),
    ], ids=["duplicate-ids", "one-row", "long-row"])
    def test_leakage_shape_refused(self, cell_ids, values, message):
        with pytest.raises(ConfigError) as err:
            LeakageMatrix(cell_ids=cell_ids, values=values)
        assert str(err.value) == message

    def test_noise_params_reject_negative(self):
        with pytest.raises(ConfigError):
            NoiseParams(base_noise_per_window=-1e-6,
                        fluorescence_amplitude=0.0,
                        fluorescence_decay=2.0, dark_rate=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["base_noise_per_window",
                                      "fluorescence_amplitude",
                                      "fluorescence_decay", "dark_rate",
                                      "offresonant_echo_leak"])
    def test_noise_params_reject_non_finite(self, name, value):
        # NaN passed the old "< 0" checks and reached the Poisson sampler.
        kw = dict(base_noise_per_window=1e-6, fluorescence_amplitude=0.0,
                  fluorescence_decay=2.0, dark_rate=0.0)
        kw[name] = {(1, 2): value} if name == "offresonant_echo_leak" else value
        with pytest.raises(ConfigError, match=rf"{name}.* finite"):
            NoiseParams(**kw)

    def test_trial_counts_reject_negative(self):
        with pytest.raises(ConfigError, match="non-negative"):
            TrialCounts(kind=RunKind.SIGNAL, keys=((1, 1), (1, 2)),
                        totals=(4, -1), n_trials=10)

    def test_trial_counts_reject_a_repeated_key(self):
        with pytest.raises(ConfigError,
                           match=re.escape("repeated key (1, 2)")):
            TrialCounts(kind=RunKind.SIGNAL, keys=((1, 2), (1, 1), (1, 2)),
                        totals=(4, 5, 4), n_trials=10)

    @pytest.mark.parametrize("totals", [(4,), (4, 5, 6)])
    def test_trial_counts_reject_columns_of_two_lengths(self, totals):
        with pytest.raises(ValueError, match="zip"):
            TrialCounts(kind=RunKind.SIGNAL, keys=((1, 1), (1, 2)),
                        totals=totals, n_trials=10)

    @given(st.permutations([(c, k) for c in (1, 2, 3, 10) for k in (1, 2, 3)]))
    def test_trial_counts_sort_any_producer_order(self, keys):
        # Each total names its key, so a row that left its key shows.
        totals = [100 * c + k for c, k in keys]
        run = TrialCounts(kind=RunKind.NOISE, keys=keys, totals=totals,
                          n_trials=10)
        assert run.keys == tuple(sorted(keys))
        assert run.totals == tuple(100 * c + k for c, k in run.keys)


def _leakage_with(at, value):
    """A 3x3 leakage matrix of cells 4-6 with entry ``at`` replaced."""
    rows = [[1.0 if i == j else 0.01 * (i + 1) + 0.001 * (j + 1)
             for j in range(3)] for i in range(3)]
    rows[at[0]][at[1]] = value
    return LeakageMatrix(cell_ids=(4, 5, 6), values=tuple(map(tuple, rows)))


_NOISE_KW = dict(base_noise_per_window=1e-6, fluorescence_amplitude=0.0,
                 fluorescence_decay=2.0, dark_rate=0.0)
_OFFRES = {(1, 2): 0.1, (2, 1): 0.2, (3, 1): 0.3}
_KEYS3 = ((1, 1), (1, 2), (2, 1))


class TestRecordRefusals:
    """Each rule of LeakageMatrix, NoiseParams and TrialCounts refuses a
    NaN at the first, a middle and the last position of the values it
    checks, and an out-of-range value, with the message of its own loop;
    of two faults, the one that loop meets first is named."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.9, -0.1])
    @pytest.mark.parametrize("at", [(0, 0), (1, 1), (2, 2)])
    def test_leakage_diagonal(self, at, value):
        with pytest.raises(ConfigError) as err:
            _leakage_with(at, value)
        assert str(err.value) == (
            f"leakage diagonal must be 1 (cell {4 + at[0]} has {value})")

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1.0, -0.1])
    @pytest.mark.parametrize("at", [(0, 1), (1, 0), (1, 2), (2, 1)])
    def test_leakage_off_diagonal(self, at, value):
        with pytest.raises(ConfigError) as err:
            _leakage_with(at, value)
        assert str(err.value) == (
            f"off-diagonal leakage must be in [0, 1), got {value} at "
            f"({4 + at[0]}, {4 + at[1]})")

    @pytest.mark.parametrize("faults, message", [
        ({(0, 2): math.nan, (1, 0): 2.0},
         "off-diagonal leakage must be in [0, 1), got nan at (4, 6)"),
        ({(2, 2): 0.5, (1, 0): 2.0},
         "off-diagonal leakage must be in [0, 1), got 2.0 at (5, 4)"),
        ({(1, 1): math.nan, (2, 0): -1.0},
         "leakage diagonal must be 1 (cell 5 has nan)"),
    ])
    def test_leakage_first_fault_in_row_order(self, faults, message):
        rows = [list(row) for row in _leakage_with((0, 0), 1.0).values]
        for (i, j), value in faults.items():
            rows[i][j] = value
        with pytest.raises(ConfigError) as err:
            LeakageMatrix(cell_ids=(4, 5, 6), values=tuple(map(tuple, rows)))
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name", ["base_noise_per_window",
                                      "fluorescence_amplitude", "dark_rate"])
    def test_noise_level(self, name, value):
        with pytest.raises(ConfigError) as err:
            NoiseParams(**{**_NOISE_KW, name: value})
        assert str(err.value) == f"{name} must be finite and >= 0, got {value}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
    def test_noise_decay(self, value):
        with pytest.raises(ConfigError) as err:
            NoiseParams(**{**_NOISE_KW, "fluorescence_decay": value})
        assert str(err.value) == (
            f"fluorescence_decay must be finite and positive, got {value}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("key", list(_OFFRES))
    def test_offresonant_entry(self, key, value):
        with pytest.raises(ConfigError) as err:
            NoiseParams(**_NOISE_KW,
                        offresonant_echo_leak={**_OFFRES, key: value})
        assert str(err.value) == (f"offresonant_echo_leak[{key[0]},{key[1]}] "
                                  f"must be finite and >= 0, got {value}")

    def test_noise_first_fault_in_field_order(self):
        with pytest.raises(ConfigError) as err:
            NoiseParams(**{**_NOISE_KW, "dark_rate": math.nan,
                           "fluorescence_decay": 0.0},
                        offresonant_echo_leak={**_OFFRES, (1, 2): -1.0})
        assert str(err.value) == "dark_rate must be finite and >= 0, got nan"

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_trial_counts_negative_total(self, at):
        totals = [4, 5, 6]
        totals[at] = -1
        with pytest.raises(ConfigError) as err:
            TrialCounts(RunKind.SIGNAL, _KEYS3, totals, n_trials=10)
        assert str(err.value) == "counts must be non-negative"

    @pytest.mark.parametrize("value", [math.nan, 4.5, 4.0, "4"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_trial_counts_total_not_an_integer(self, at, value):
        # A NaN passes "no total below 0"; the integer rule refuses it.
        totals = [4, 5, 6]
        totals[at] = value
        with pytest.raises(ConfigError) as err:
            TrialCounts(RunKind.SIGNAL, _KEYS3, totals, n_trials=10)
        assert str(err.value) == f"counts must be integers, got {value}"

    def test_trial_counts_first_non_integer_total_named(self):
        with pytest.raises(ConfigError) as err:
            TrialCounts(RunKind.SIGNAL, _KEYS3, [4, 4.5, math.nan], 10)
        assert str(err.value) == "counts must be integers, got 4.5"

    @pytest.mark.parametrize("value", [math.nan, 10.0, 1.5, "10"])
    def test_trial_counts_n_trials_not_an_integer(self, value):
        with pytest.raises(ConfigError) as err:
            TrialCounts(RunKind.SIGNAL, _KEYS3, (4, 5, 6), n_trials=value)
        assert str(err.value) == f"n_trials must be an integer, got {value}"

    def test_trial_counts_numpy_integers_kept_as_int(self):
        run = TrialCounts(RunKind.SIGNAL, _KEYS3, np.array([4, 5, 6]),
                          n_trials=np.int64(10))
        assert run.totals == (4, 5, 6) and run.n_trials == 10
        assert {type(t) for t in run.totals} == {type(run.n_trials)} == {int}

    @pytest.mark.parametrize("keys, repeated", [
        (((1, 1), (1, 1), (1, 2), (2, 1)), (1, 1)),
        (((1, 1), (1, 2), (1, 2), (2, 1)), (1, 2)),
        (((1, 1), (1, 2), (2, 1), (2, 1)), (2, 1)),
        (((2, 1), (1, 1), (1, 2), (2, 1)), (2, 1)),
    ])
    def test_trial_counts_repeated_key(self, keys, repeated):
        with pytest.raises(ConfigError) as err:
            TrialCounts(RunKind.NOISE, keys, (1, 2, 3, -4), n_trials=10)
        assert str(err.value) == f"repeated key {repeated}"

    def test_trial_counts_trials(self):
        with pytest.raises(ConfigError) as err:
            TrialCounts(RunKind.NOISE, _KEYS3, (-1, 2, 3), n_trials=0)
        assert str(err.value) == "n_trials must be >= 1"
