"""Statistics and projection tests.

Derived expectations frozen from hand arithmetic: count ratios and Poisson
errors from the stated totals, correlation/fidelity values by direct
evaluation of the closed-form expressions, and delta-method errors from the
hand-written partial derivatives.
"""

import math

import pytest
from hypothesis import given, strategies as st

from memarray.analysis import (
    PlanRuns,
    adjusted_snr,
    crosstalk_matrix,
    cumulative_counts,
    fidelity_bound,
    g2_inferred,
    per_mode_stats,
    project_cells,
    rescale_signal,
)
from memarray.device import ArrayDevice, CellParams
from memarray.errors import ConfigError, ModeSetMismatch
from memarray.sequence import PulseKind, SequencePlan
from memarray.simulate import RunKind, TrialCounts


def counts(kind, table, n_trials):
    table = dict(table)
    return TrialCounts(kind=kind, keys=tuple(table),
                       totals=tuple(table.values()), n_trials=n_trials)


def small_plan(cell_order=(1,), n_temporal=1):
    """A plan over ``cell_order`` with ``n_temporal`` modes per cell."""
    return SequencePlan(tau=10.0, t_spin=15.5, n_temporal=n_temporal,
                        mean_photon_number=1.03,
                        input_shape=PulseKind.GAUSSIAN, input_fwhm=351.0,
                        detection_window=351.0, cell_order=cell_order)


def two_cell_plan():
    """A plan over cells 2 then 1, two temporal modes each: its mode order
    (2, 1), (2, 2), (1, 1), (1, 2) is not the sorted one."""
    return small_plan((2, 1), 2)


class TestPlanRuns:
    SIGNAL = {(1, 1): 5, (1, 2): 7, (2, 1): 11, (2, 2): 13}
    NOISE = {(1, 1): 1, (1, 2): 0, (2, 1): 2, (2, 2): 4}

    def test_cell_blocks_follow_cell_order(self):
        runs = PlanRuns(counts(RunKind.SIGNAL, self.SIGNAL, 100),
                        counts(RunKind.NOISE, self.NOISE, 200),
                        two_cell_plan())
        assert runs.cell_blocks() == ([(11, 13), (5, 7)], [(2, 4), (1, 0)])

    def test_runs_of_another_plan_refused_signal_first(self):
        # Both runs cover cells 1 and 2 with two modes each; the plan has
        # cell 1 alone, with three.
        sig = counts(RunKind.SIGNAL, self.SIGNAL, 100)
        bkg = counts(RunKind.NOISE, self.NOISE, 200)
        with pytest.raises(ModeSetMismatch) as err:
            PlanRuns(sig, bkg, small_plan((1,), 3))
        assert err.value.source == "signal"
        assert str(err.value) == (
            "mode sets differ: missing in plan: [(2, 1), (2, 2)]; "
            "missing in signal run: [(1, 3)]")

    def test_mismatch_is_a_config_error_without_fields_of_its_own(self):
        assert issubclass(ModeSetMismatch, ConfigError)
        assert {"__str__", "path", "source"}.isdisjoint(vars(ModeSetMismatch))

    def test_swapped_pair_refused_for_the_signal_kind(self):
        with pytest.raises(ConfigError) as err:
            PlanRuns(counts(RunKind.NOISE, self.NOISE, 200),
                     counts(RunKind.SIGNAL, self.SIGNAL, 100),
                     two_cell_plan())
        assert err.value.source == "signal"
        assert "--signal" in str(err.value)

    @pytest.mark.parametrize("kind,table", [
        (RunKind.SIGNAL, SIGNAL),
        # a scan that does not cover the plan: its kind is checked first
        (RunKind.CROSSTALK, {(1, 1): 3, (1, 3): 1}),
    ], ids=["signal", "crosstalk-of-another-plan"])
    def test_noise_run_of_another_kind_refused(self, kind, table):
        with pytest.raises(ConfigError) as err:
            PlanRuns(counts(RunKind.SIGNAL, self.SIGNAL, 100),
                     counts(kind, table, 200), two_cell_plan())
        assert not isinstance(err.value, ModeSetMismatch)
        assert err.value.source == "noise"
        assert str(err.value) == (f"--noise needs a noise (no-input) run, "
                                  f"but this file holds a {kind.value} run")


class TestPerModeStats:
    def test_hand_computed_ratio(self):
        sig = counts(RunKind.SIGNAL, {(1, 1): 1000}, 10_000)
        bkg = counts(RunKind.NOISE, {(1, 1): 100}, 10_000)
        st_ = per_mode_stats(PlanRuns(sig, bkg, small_plan()))
        assert st_.modes == ((1, 1),)
        [c_signal], [c_noise], [snr] = st_.c_signal, st_.c_noise, st_.snr
        [err_signal], [snr_err] = st_.err_signal, st_.snr_err
        assert c_signal == pytest.approx(0.1)
        assert c_noise == pytest.approx(0.01)
        assert snr == pytest.approx(10.0)
        assert err_signal == pytest.approx(math.sqrt(1000) / 10_000,
                                           rel=1e-12)
        assert err_signal == pytest.approx(0.00316, abs=5e-6)
        # delta method: snr * sqrt((1/sqrt(1000))^2 + (1/sqrt(100))^2)
        expect_err = 10.0 * math.sqrt(1 / 1000 + 1 / 100)
        assert snr_err == pytest.approx(expect_err, rel=1e-12)

    def test_equal_totals_give_unit_snr(self):
        table = {(1, 1): 37, (1, 2): 4, (2, 1): 0, (2, 2): 9}
        sig = counts(RunKind.SIGNAL, table, 500)
        bkg = counts(RunKind.NOISE, table, 500)
        st_ = per_mode_stats(PlanRuns(sig, bkg, small_plan((1, 2), 2)))
        assert st_.modes == ((1, 1), (1, 2), (2, 1), (2, 2))
        for c_noise, snr in zip(st_.c_noise, st_.snr, strict=True):
            if c_noise > 0:
                assert snr == pytest.approx(1.0)

    def test_zero_noise_flags_infinity(self):
        sig = counts(RunKind.SIGNAL, {(1, 1): 12}, 100)
        bkg = counts(RunKind.NOISE, {(1, 1): 0}, 100)
        st_ = per_mode_stats(PlanRuns(sig, bkg, small_plan()))
        assert st_.snr == st_.snr_err == (math.inf,)

    def test_columns_follow_sorted_mode_order(self):
        sig = counts(RunKind.SIGNAL,
                     {(2, 2): 40, (2, 1): 30, (1, 2): 20, (1, 1): 10}, 10)
        bkg = counts(RunKind.NOISE,
                     {(1, 1): 1, (2, 1): 3, (1, 2): 2, (2, 2): 4}, 10)
        # The plan's own order, cell 2 first, does not reorder the columns.
        st_ = per_mode_stats(PlanRuns(sig, bkg, two_cell_plan()))
        assert st_.modes == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert st_.c_signal == (1.0, 2.0, 3.0, 4.0)
        assert st_.c_noise == (0.1, 0.2, 0.3, 0.4)
        assert st_.snr == (10.0, 10.0, 10.0, 10.0)

    def test_mode_set_mismatch(self):
        # The signal run covers the plan; the noise run misses (1, 2).
        sig = counts(RunKind.SIGNAL, {(1, 1): 5, (1, 2): 5}, 10)
        bkg = counts(RunKind.NOISE, {(1, 1): 1}, 10)
        with pytest.raises(ModeSetMismatch) as err:
            PlanRuns(sig, bkg, small_plan((1,), 2))
        assert (1, 2) in err.value.missing["noise run"]
        assert err.value.source == "noise"


class TestRescaleSignal:
    def test_hand_computed(self):
        # 0.001 * 0.90 * 0.7 / 1.03 = 6.12e-4
        got = rescale_signal(0.001, 0.90, 0.7, 1.03)
        assert got == pytest.approx(0.001 * 0.63 / 1.03, rel=1e-12)
        assert got == pytest.approx(6.12e-4, abs=5e-7)

    def test_identity(self):
        assert rescale_signal(0.05, 1.0, 1.0, 1.0) == 0.05

    @pytest.mark.parametrize("kw", [
        dict(n_mean=0.0), dict(n_mean=-1.0), dict(eta_mux=1.2),
        dict(eta_herald=-0.1), dict(c_signal=-0.5),
    ])
    def test_domain_errors(self, kw):
        args = dict(c_signal=0.001, eta_mux=0.9, eta_herald=0.7, n_mean=1.03)
        args.update(kw)
        with pytest.raises(ValueError):
            rescale_signal(**args)


class TestAdjustedSnr:
    def test_double_noise_gives_one(self):
        assert adjusted_snr(0.02, 0.01) == pytest.approx(1.0)

    def test_equal_gives_zero(self):
        assert adjusted_snr(0.01, 0.01) == 0.0

    def test_elevenfold_gives_ten(self):
        assert adjusted_snr(0.11, 0.01) == pytest.approx(10.0)

    def test_zero_noise_is_infinite(self):
        assert math.isinf(adjusted_snr(0.01, 0.0))

    @pytest.mark.parametrize("c_tilde, c_noise", [(-0.01, 0.01), (0.01, -0.01)])
    def test_negative_counts_refused(self, c_tilde, c_noise):
        with pytest.raises(ValueError) as err:
            adjusted_snr(c_tilde, c_noise)
        assert str(err.value) == "counts per trial must be non-negative"


class TestG2Inferred:
    def test_pure_noise_is_uncorrelated(self):
        assert g2_inferred(0.0, 100.0) == 1.0

    def test_hand_computed_point(self):
        # 100 * 11 / 110 = 10 exactly
        assert g2_inferred(10.0, 100.0) == pytest.approx(10.0, abs=1e-12)

    def test_infinite_snr_saturates_to_source(self):
        assert g2_inferred(math.inf, 100.0) == 100.0

    @given(st.floats(0.0, 1e6), st.floats(1.0, 1e4))
    def test_monotone_and_bounded(self, snr, g2s):
        val = g2_inferred(snr, g2s)
        assert 1.0 <= val <= g2s
        assert g2_inferred(snr + 1.0, g2s) >= val

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g2_inferred(-0.5, 100.0)
        with pytest.raises(ValueError):
            g2_inferred(1.0, 0.5)


class TestFidelityBound:
    def test_classical_limit(self):
        assert fidelity_bound(1.0) == 0.25

    def test_hand_computed_point(self):
        # 0.75 * 9/11 + 0.25 = 0.863636...
        assert fidelity_bound(10.0) == pytest.approx(0.75 * 9 / 11 + 0.25,
                                                     abs=1e-12)
        assert fidelity_bound(10.0) == pytest.approx(0.8636, abs=5e-5)

    def test_saturates_at_one(self):
        assert fidelity_bound(math.inf) == 1.0

    @given(st.floats(1.0, 1e6))
    def test_monotone_in_range(self, g2):
        val = fidelity_bound(g2)
        assert 0.25 <= val < 1.0
        assert fidelity_bound(g2 + 1.0) >= val

    @given(st.floats(1.0, 100.0))
    def test_beats_classical_bound_iff_nonclassical(self, g2):
        assert (fidelity_bound(g2) > 0.5) == (g2 > 2.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fidelity_bound(0.9)


def projection_fixture():
    cell = CellParams(cell_id=1, eta_mux=0.90, eta_demux=0.80,
                      eta_fiber=0.45, eta_transfer=0.20,
                      afc_calibration=((10.0, 0.0955), (25.0, 0.040)))
    device = ArrayDevice(cells=(cell,), eta_detection_path=0.14,
                         dark_count_rate=15.0)
    plan = SequencePlan(tau=10.0, t_spin=15.5, n_temporal=2,
                        mean_photon_number=1.03,
                        input_shape=PulseKind.GAUSSIAN, input_fwhm=351.0,
                        detection_window=351.0, cell_order=(1,),
                        eta_herald=0.7, g2_source=100.0)
    return device, plan


class TestProjectCells:
    def test_full_chain_hand_oracle(self):
        device, plan = projection_fixture()
        sig = counts(RunKind.SIGNAL, {(1, 1): 800, (1, 2): 600}, 10_000)
        bkg = counts(RunKind.NOISE, {(1, 1): 40, (1, 2): 30}, 14_000)
        [proj] = project_cells(PlanRuns(sig, bkg, plan), device)

        # pooled per-mode rates: 1400/(1e4*2), 70/(1.4e4*2)
        c_s, c_b = 1400 / 20_000, 70 / 28_000
        c_tilde = c_s * 0.90 * 0.7 / 1.03
        snr = (c_tilde - c_b) / c_b
        g2 = 100.0 * (snr + 1.0) / (100.0 + snr)
        fid = 0.75 * (g2 - 1.0) / (g2 + 1.0) + 0.25
        assert proj.cell_id == 1
        assert proj.c_signal_rescaled == pytest.approx(c_tilde, rel=1e-12)
        assert proj.snr_adjusted == pytest.approx(snr, rel=1e-12)
        assert proj.g2_inferred == pytest.approx(g2, rel=1e-12)
        assert proj.fidelity == pytest.approx(fid, rel=1e-12)

        # error chain, written out independently
        err_s = math.sqrt(1400) / 20_000
        err_b = math.sqrt(70) / 28_000
        err_tilde = err_s * 0.90 * 0.7 / 1.03
        snr_err = math.sqrt((err_tilde / c_b) ** 2
                            + (c_tilde * err_b / c_b ** 2) ** 2)
        g2_err = 100.0 * 99.0 / (100.0 + snr) ** 2 * snr_err
        fid_err = 1.5 / (g2 + 1.0) ** 2 * g2_err
        assert proj.err_rescaled == pytest.approx(err_tilde, rel=1e-12)
        assert proj.snr_adjusted_err == pytest.approx(snr_err, rel=1e-12)
        assert proj.g2_err == pytest.approx(g2_err, rel=1e-12)
        assert proj.fidelity_err == pytest.approx(fid_err, rel=1e-12)

    def test_zero_noise_saturates(self):
        device, plan = projection_fixture()
        sig = counts(RunKind.SIGNAL, {(1, 1): 80, (1, 2): 60}, 1000)
        bkg = counts(RunKind.NOISE, {(1, 1): 0, (1, 2): 0}, 1000)
        [proj] = project_cells(PlanRuns(sig, bkg, plan), device)
        assert math.isinf(proj.snr_adjusted)
        assert proj.g2_inferred == 100.0
        assert proj.fidelity == pytest.approx(0.75 * 99 / 101 + 0.25)
        # An infinite SNR has no finite error bar, and neither do the
        # figures derived from it.
        assert (proj.snr_adjusted_err, proj.g2_err, proj.fidelity_err) == (
            math.inf, math.inf, math.inf)

    def test_noise_above_signal_clamps_to_classical(self):
        # Rescaled signal below the noise floor: negative adjusted SNR is
        # reported, but the correlation cannot drop below the classical 1.
        device, plan = projection_fixture()
        sig = counts(RunKind.SIGNAL, {(1, 1): 10, (1, 2): 10}, 10_000)
        bkg = counts(RunKind.NOISE, {(1, 1): 50, (1, 2): 50}, 10_000)
        [proj] = project_cells(PlanRuns(sig, bkg, plan), device)
        assert proj.snr_adjusted < 0
        assert proj.g2_inferred == 1.0
        assert proj.fidelity == 0.25

    def test_mode_set_mismatch(self):
        _, plan = projection_fixture()
        sig = counts(RunKind.SIGNAL, {(1, 1): 10, (1, 2): 10}, 100)
        bkg = counts(RunKind.NOISE, {(1, 1): 1}, 100)
        with pytest.raises(ModeSetMismatch):
            PlanRuns(sig, bkg, plan)

    def test_runs_covering_part_of_the_plan(self):
        # The two runs agree with each other, but neither covers (1, 2).
        _, plan = projection_fixture()
        sig = counts(RunKind.SIGNAL, {(1, 1): 10}, 100)
        bkg = counts(RunKind.NOISE, {(1, 1): 1}, 100)
        with pytest.raises(ModeSetMismatch) as err:
            PlanRuns(sig, bkg, plan)
        assert "missing in signal run: [(1, 2)]" in str(err.value)
        assert err.value.source == "signal"


class TestCumulativeCounts:
    SIGNAL, NOISE = TestPlanRuns.SIGNAL, TestPlanRuns.NOISE

    def test_running_rates_in_plan_order(self):
        sig = counts(RunKind.SIGNAL, self.SIGNAL, 100)
        bkg = counts(RunKind.NOISE, self.NOISE, 200)
        cum_s, cum_s_err, cum_b, cum_b_err = cumulative_counts(
            PlanRuns(sig, bkg, two_cell_plan()))
        # running totals over (2, 1), (2, 2), (1, 1), (1, 2)
        assert cum_s == (0.11, 0.24, 0.29, 0.36)
        assert cum_s_err == tuple(math.sqrt(t) / 100 for t in (11, 24, 29, 36))
        assert cum_b == (0.01, 0.03, 0.035, 0.035)
        assert cum_b_err == tuple(math.sqrt(t) / 200 for t in (2, 6, 7, 7))

    def test_last_entries_are_the_pooled_rates(self):
        sig = counts(RunKind.SIGNAL, self.SIGNAL, 100)
        bkg = counts(RunKind.NOISE, self.NOISE, 200)
        cum_s, cum_s_err, cum_b, cum_b_err = cumulative_counts(
            PlanRuns(sig, bkg, two_cell_plan()))
        assert (cum_s[-1], cum_s_err[-1]) == (36 / 100, math.sqrt(36) / 100)
        assert (cum_b[-1], cum_b_err[-1]) == (7 / 200, math.sqrt(7) / 200)
        assert cum_s[-1] / cum_b[-1] == pytest.approx(36 / 3.5, rel=1e-12)

    @pytest.mark.parametrize("side", ["signal", "noise"])
    def test_run_missing_a_mode_rejected(self, side):
        tables = {"signal": dict(self.SIGNAL), "noise": dict(self.NOISE)}
        del tables[side][(1, 2)]
        sig = counts(RunKind.SIGNAL, tables["signal"], 100)
        bkg = counts(RunKind.NOISE, tables["noise"], 200)
        with pytest.raises(ModeSetMismatch) as err:
            PlanRuns(sig, bkg, two_cell_plan())
        assert err.value.source == side
        assert str(err.value) == (f"mode sets differ: missing in {side} run: "
                                  f"[(1, 2)]")
        assert err.value.missing == {"plan": (), f"{side} run": ((1, 2),)}


def scan_table(totals, n_trials=1000):
    """A cross-talk scan: (input_cell, output_cell) -> total."""
    return counts(RunKind.CROSSTALK, totals, n_trials)


class TestCrossTalkMatrix:
    def test_hand_computed_ratio(self):
        scan = scan_table({(1, 1): 100, (1, 2): 5, (2, 1): 8, (2, 2): 80})
        bkg = counts(RunKind.NOISE, {(1, 1): 2, (2, 1): 4}, 1000)
        m = crosstalk_matrix(scan, bkg)
        assert m.cell_ids == (1, 2)
        assert m.c[0][1] == pytest.approx(0.05)
        assert m.c[1][0] == pytest.approx(0.1)
        assert m.c[0][0] == 1.0 and m.c[1][1] == 1.0
        assert m.mean_offdiagonal == pytest.approx((0.05 + 0.1) / 2)
        # C_N = n_ii / c_ii with matching per-trial normalization
        assert m.noise_contribution[1] == pytest.approx(2 / 100)
        assert m.noise_contribution[2] == pytest.approx(4 / 80)
        # delta-method error on 5/100 from totals 5 and 100
        expect = 0.05 * math.sqrt(1 / 5 + 1 / 100)
        i, j = m.cell_ids.index(1), m.cell_ids.index(2)
        assert m.c_err[i][j] == pytest.approx(expect, rel=1e-12)

    def test_identity_scan(self):
        scan = scan_table({(1, 1): 50, (1, 2): 0, (2, 1): 0, (2, 2): 50})
        bkg = counts(RunKind.NOISE, {(1, 1): 0, (2, 1): 0}, 1000)
        m = crosstalk_matrix(scan, bkg)
        assert m.c[0][1] == 0.0
        assert m.c[1][0] == 0.0
        assert m.mean_offdiagonal == 0.0
        assert m.invalid_rows == ()

    def test_zero_diagonal_row_flagged(self):
        scan = scan_table({(1, 1): 0, (1, 2): 3, (2, 1): 1, (2, 2): 50})
        bkg = counts(RunKind.NOISE, {(1, 1): 0, (2, 1): 0}, 1000)
        m = crosstalk_matrix(scan, bkg)
        assert m.invalid_rows == (1,)
        i = m.cell_ids.index(1)
        assert all(math.isnan(v) for v in m.c[i])
        # the valid row still contributes to the mean
        assert m.mean_offdiagonal == pytest.approx(1 / 50)

    def test_missing_pair_rejected(self):
        scan = scan_table({(1, 1): 10, (2, 2): 10, (1, 2): 1})
        bkg = counts(RunKind.NOISE, {(1, 1): 0, (2, 1): 0}, 1000)
        with pytest.raises(ModeSetMismatch) as err:
            crosstalk_matrix(scan, bkg)
        assert str(err.value) == "mode sets differ: missing in scan: [(2, 1)]"
        assert err.value.source == "signal"

    @pytest.mark.parametrize("noise_keys", [
        [(1, 1), (1, 2), (2, 1), (2, 2)],  # two windows per cell
        [(1, 1)],                          # cell 2 missing
    ])
    def test_noise_run_of_another_plan_rejected(self, noise_keys):
        scan = scan_table({(1, 1): 100, (1, 2): 5, (2, 1): 8, (2, 2): 80})
        bkg = counts(RunKind.NOISE, dict.fromkeys(noise_keys, 3), 1000)
        with pytest.raises(ModeSetMismatch) as err:
            crosstalk_matrix(scan, bkg)
        assert err.value.source == "noise"

    def test_wrong_kind_rejected(self):
        scan = counts(RunKind.SIGNAL, {(1, 1): 10}, 1000)
        bkg = counts(RunKind.NOISE, {(1, 1): 0}, 1000)
        with pytest.raises(ConfigError):
            crosstalk_matrix(scan, bkg)

    @pytest.mark.parametrize("noise_keys", [
        [(1, 1), (2, 1)],                  # the scan cells' windows
        [(1, 1), (1, 2), (2, 1), (2, 2)],  # another plan's: kind comes first
    ])
    def test_signal_run_as_noise_rejected(self, noise_keys):
        scan = scan_table({(1, 1): 100, (1, 2): 5, (2, 1): 8, (2, 2): 80})
        sig = counts(RunKind.SIGNAL, dict.fromkeys(noise_keys, 90), 1000)
        with pytest.raises(ConfigError) as err:
            crosstalk_matrix(scan, sig)
        assert err.value.source == "noise"
        assert str(err.value) == ("--noise needs a noise (no-input) run, but "
                                  "this file holds a signal run")
