"""Counting-engine tests.

The derived expectations were frozen before implementation: the six-factor
signal product by hand multiplication, noise means by evaluating the decay
exponential at hand-computed gaps.  The engine contract is checked exactly
(counts equal ``default_rng(seed).poisson(n * lambda)``); the Monte Carlo
checks use the gates of ``stat_gates``, each failing a correct engine with
probability at most 1e-4 whatever the seed.
"""

import dataclasses
import math

import numpy as np
import pytest

from memarray.defaults import (
    default_device_path,
    default_noise_path,
    default_plan_path,
)
from memarray.device import (
    ArrayDevice,
    CellParams,
    PulseKind,
    PulseShape,
    window_capture_fraction,
)
from memarray.errors import CompilationError, ConfigError
from memarray.io import load_device, load_noise, load_plan
from memarray.sequence import (
    EventKind,
    SequencePlan,
    TimelineEvent,
    compile_plan,
)
from memarray.simulate import (
    LeakageMatrix,
    NoiseParams,
    RunKind,
    TrialCounts,
    expected_signal_per_mode,
    mode_expectations,
    run_crosstalk_scan,
    run_trials,
)
from timeline_oracle import assert_noise_matches_timeline, expected_noise_per_mode
from stat_gates import ALPHA, binned_g2_pvalue, poisson_gate


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
        input_shape=PulseShape(PulseKind.GAUSSIAN, fwhm=351.0),
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
        capture = window_capture_fraction(
            PulseShape(PulseKind.GAUSSIAN, 351.0), 351.0)
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
        assert sum(out.counts.values()) == 0
        assert set(out.counts) == {(1, k) for k in range(1, 7)}

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
        assert poisson_gate(out.counts, {(1, 1): 1000.0}) == []

    def test_signal_run_mean_matches_expectation(self):
        plan = make_plan()
        device = make_device()
        noise = NoiseParams(base_noise_per_window=4.3e-5,
                            fluorescence_amplitude=8e-5,
                            fluorescence_decay=2.0, dark_rate=15.0)
        n = 10 ** 7
        out = run_trials(plan, device, noise, n_trials=n, seed=99)
        exp = mode_expectations(device, plan, noise)
        assert poisson_gate(out.counts, {key: n * total_mean(exp, key)
                                         for key in plan.modes}) == []

    def test_counts_equal_one_seeded_poisson_draw(self):
        # The engine contract, exactly: one Poisson(n * lambda) total per
        # window, drawn in block order from default_rng(seed).
        plan = make_plan(n_temporal=3)
        noise = NoiseParams(base_noise_per_window=0.05,
                            fluorescence_amplitude=0.02,
                            fluorescence_decay=2.0, dark_rate=15.0)
        exp = mode_expectations(make_device(), plan, noise)
        n, seed = 12345, 2024
        for with_input in (True, False):
            out = run_trials(plan, make_device(), noise, n_trials=n,
                             seed=seed, with_input=with_input)
            lam = np.array([total_mean(exp, k) if with_input
                            else exp.noise[k] for k in plan.modes])
            want = np.random.default_rng(seed).poisson(n * lam)
            assert out.counts == {k: int(c)
                                  for k, c in zip(plan.modes, want)}

    def test_same_seed_reruns_are_identical(self):
        plan = make_plan(n_temporal=4)
        noise = NoiseParams(base_noise_per_window=0.05,
                            fluorescence_amplitude=0.02,
                            fluorescence_decay=2.0, dark_rate=15.0)
        runs = [run_trials(plan, make_device(), noise, n_trials=1000, seed=7,
                           with_input=False) for _ in range(2)]
        assert runs[0].counts == runs[1].counts

    def test_seed_changes_counts(self):
        plan = make_plan(n_temporal=4)
        noise = NoiseParams(base_noise_per_window=0.05,
                            fluorescence_amplitude=0.0,
                            fluorescence_decay=2.0, dark_rate=0.0)
        a = run_trials(plan, make_device(), noise, 1000, seed=1,
                       with_input=False)
        b = run_trials(plan, make_device(), noise, 1000, seed=2,
                       with_input=False)
        assert a.counts != b.counts

    def test_infeasible_plan_propagates(self):
        plan = make_plan(n_temporal=7, mode_period=6.5 / 6)
        with pytest.raises(CompilationError):
            run_trials(plan, make_device(), QUIET, n_trials=10, seed=0)

    @pytest.mark.parametrize("bad", [dict(n_trials=0), dict(seed=-1),
                                     dict(n_trials=10 ** 25)])
    def test_rejects_bad_run_arguments(self, bad):
        # 1e25 trials at ~1e-3 counts per window passes the sampler's
        # ~9.2e18 limit on a window's mean.
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
        totals = np.array([[run_trials(plan, make_device(), noise,
                                       n_trials=n, seed=seed,
                                       with_input=False).counts[k]
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
        assert set(scan.counts) == {(i, j) for i in (1, 2, 3)
                                    for j in (1, 2, 3)}
        for (i, j), total in scan.counts.items():
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
        assert poisson_gate({i: scan.counts[(i, i)] for i in expected},
                            expected) == []

    def test_leakage_scales_off_diagonal(self):
        device, plan = self.scan_setup(2)
        leak = LeakageMatrix(cell_ids=(1, 2),
                             values=((1.0, 0.05), (0.05, 1.0)))
        n = 10 ** 8
        scan = run_crosstalk_scan(device, leak, QUIET, plan,
                                  n_trials=n, seed=3)
        lam = 0.05 * expected_signal_per_mode(device.cell(1), plan, device)
        assert poisson_gate({(1, 2): scan.counts[(1, 2)]},
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
        assert poisson_gate({(2, 1): scan.counts[(2, 1)]},
                            {(2, 1): 0.02 * n}) == []
        assert scan.counts[(1, 2)] == 0

    def test_scans_the_plan_cells_in_leakage_order(self):
        # Cells of the matrix outside the plan are not scanned, and the
        # plan's own order does not change the draw.
        device, plan = self.scan_setup(2)
        leak = LeakageMatrix(cell_ids=(1, 2, 3),
                             values=((1.0, 0.05, 0.0), (0.1, 1.0, 0.0),
                                     (0.0, 0.0, 1.0)))
        swapped = dataclasses.replace(plan, cell_order=(2, 1))
        scans = [run_crosstalk_scan(device, leak, QUIET, p, n_trials=1000,
                                    seed=4).counts for p in (plan, swapped)]
        assert list(scans[0]) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert scans[0] == scans[1]

    def test_plan_cell_missing_from_leakage_rejected(self):
        device, plan = self.scan_setup()
        with pytest.raises(ConfigError, match="cell 3 not in leakage matrix"):
            run_crosstalk_scan(device, identity_leak(2), QUIET, plan,
                               n_trials=10, seed=0)

    def test_requires_single_temporal_mode(self):
        device, _ = self.scan_setup()
        two_modes = make_plan(n_temporal=2)
        with pytest.raises(ConfigError):
            run_crosstalk_scan(device, identity_leak(), QUIET, two_modes,
                               n_trials=10, seed=0)

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
        lam = np.array([leak.leak(i, j) * sig[i - 1] + 1e-4
                        + (0.02 if (i, j) == (2, 1) else 0.0)
                        for i, j in pairs])
        want = np.random.default_rng(seed).poisson(n * lam)
        assert scan.counts == dict(zip(pairs, want.tolist()))

    def test_same_seed_reruns_are_identical(self):
        device, plan = self.scan_setup()
        noise = NoiseParams(base_noise_per_window=0.01,
                            fluorescence_amplitude=0.0,
                            fluorescence_decay=2.0, dark_rate=0.0)
        a, b = (run_crosstalk_scan(device, identity_leak(), noise, plan,
                                   n_trials=3000, seed=13) for _ in range(2))
        assert a == b


class TestDataTypes:
    def test_leakage_diagonal_must_be_unity(self):
        with pytest.raises(ConfigError):
            LeakageMatrix(cell_ids=(1, 2), values=((0.9, 0.0), (0.0, 1.0)))

    def test_leakage_off_diagonal_below_one(self):
        with pytest.raises(ConfigError):
            LeakageMatrix(cell_ids=(1, 2), values=((1.0, 1.0), (0.0, 1.0)))

    def test_noise_params_reject_negative(self):
        with pytest.raises(ConfigError):
            NoiseParams(base_noise_per_window=-1e-6,
                        fluorescence_amplitude=0.0,
                        fluorescence_decay=2.0, dark_rate=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["base_noise_per_window",
                                      "fluorescence_amplitude", "dark_rate",
                                      "offresonant_echo_leak"])
    def test_noise_params_reject_non_finite(self, name, value):
        # NaN passed the old "< 0" checks and reached the Poisson sampler.
        kw = dict(base_noise_per_window=1e-6, fluorescence_amplitude=0.0,
                  fluorescence_decay=2.0, dark_rate=0.0)
        kw[name] = {(1, 2): value} if name == "offresonant_echo_leak" else value
        with pytest.raises(ConfigError, match=rf"{name}.* finite"):
            NoiseParams(**kw)

    def test_noise_params_reject_nan_decay(self):
        with pytest.raises(ConfigError, match="fluorescence_decay"):
            NoiseParams(base_noise_per_window=1e-6, fluorescence_amplitude=0.0,
                        fluorescence_decay=math.nan, dark_rate=0.0)

    def test_trial_counts_reject_negative(self):
        with pytest.raises(ConfigError):
            TrialCounts(kind=RunKind.SIGNAL, counts={(1, 1): -1}, n_trials=10)
