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
    SNR_DEFINITIONS,
    adjusted_snr,
    crosstalk_matrix,
    fidelity_bound,
    g2_inferred,
    per_mode_stats,
    project_cells,
    rescale_signal,
)
from memarray.device import ArrayDevice, CellParams, PulseKind, PulseShape, StorageConfig
from memarray.errors import ConfigError, ModeSetMismatch
from memarray.sequence import SequencePlan
from memarray.simulate import RunKind, TrialCounts


def counts(kind, table, n_trials):
    return TrialCounts(kind=kind, counts=dict(table), n_trials=n_trials)


class TestPerModeStats:
    def test_hand_computed_ratio(self):
        sig = counts(RunKind.SIGNAL, {(1, 1): 1000}, 10_000)
        bkg = counts(RunKind.NOISE, {(1, 1): 100}, 10_000)
        [st_] = per_mode_stats(sig, bkg).values()
        assert st_.c_signal == pytest.approx(0.1)
        assert st_.c_noise == pytest.approx(0.01)
        assert st_.snr == pytest.approx(10.0)
        assert st_.err_signal == pytest.approx(math.sqrt(1000) / 10_000,
                                               rel=1e-12)
        assert st_.err_signal == pytest.approx(0.00316, abs=5e-6)
        # delta method: snr * sqrt((1/sqrt(1000))^2 + (1/sqrt(100))^2)
        expect_err = 10.0 * math.sqrt(1 / 1000 + 1 / 100)
        assert st_.snr_err == pytest.approx(expect_err, rel=1e-12)
        assert not st_.snr_is_infinite

    def test_equal_totals_give_unit_snr(self):
        table = {(1, 1): 37, (1, 2): 4, (2, 1): 0}
        sig = counts(RunKind.SIGNAL, table, 500)
        bkg = counts(RunKind.NOISE, table, 500)
        for st_ in per_mode_stats(sig, bkg).values():
            if st_.c_noise > 0:
                assert st_.snr == pytest.approx(1.0)

    def test_zero_noise_flags_infinity(self):
        sig = counts(RunKind.SIGNAL, {(1, 1): 12}, 100)
        bkg = counts(RunKind.NOISE, {(1, 1): 0}, 100)
        [st_] = per_mode_stats(sig, bkg).values()
        assert math.isinf(st_.snr)
        assert st_.snr_is_infinite

    def test_excess_definition_shifts_by_one(self):
        sig = counts(RunKind.SIGNAL, {(1, 1): 1000}, 10_000)
        bkg = counts(RunKind.NOISE, {(1, 1): 100}, 10_000)
        ratio = per_mode_stats(sig, bkg, "ratio")[(1, 1)]
        excess = per_mode_stats(sig, bkg, "excess")[(1, 1)]
        assert excess.snr == pytest.approx(ratio.snr - 1.0)
        assert excess.snr_err == pytest.approx(ratio.snr_err)

    def test_mode_set_mismatch(self):
        sig = counts(RunKind.SIGNAL, {(1, 1): 5, (1, 2): 5}, 10)
        bkg = counts(RunKind.NOISE, {(1, 1): 1}, 10)
        with pytest.raises(ModeSetMismatch) as err:
            per_mode_stats(sig, bkg)
        assert (1, 2) in err.value.missing_in_noise

    def test_unknown_definition_rejected(self):
        sig = counts(RunKind.SIGNAL, {(1, 1): 1}, 10)
        with pytest.raises(ConfigError):
            per_mode_stats(sig, sig, "bogus")
        assert SNR_DEFINITIONS == ("ratio", "excess")


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
    cfg = StorageConfig(tau=10.0, t_spin=15.5, n_temporal=2,
                        mean_photon_number=1.03,
                        input_shape=PulseShape(PulseKind.GAUSSIAN, 351.0),
                        detection_window=351.0, eta_herald=0.7,
                        g2_source=100.0)
    plan = SequencePlan(storage=cfg, cell_order=(1,))
    return device, plan


class TestProjectCells:
    def test_full_chain_hand_oracle(self):
        device, plan = projection_fixture()
        sig = counts(RunKind.SIGNAL, {(1, 1): 800, (1, 2): 600}, 10_000)
        bkg = counts(RunKind.NOISE, {(1, 1): 40, (1, 2): 30}, 14_000)
        [proj] = project_cells(sig, bkg, device, plan)

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
        [proj] = project_cells(sig, bkg, device, plan)
        assert math.isinf(proj.snr_adjusted)
        assert proj.g2_inferred == 100.0
        assert proj.fidelity == pytest.approx(0.75 * 99 / 101 + 0.25)

    def test_noise_above_signal_clamps_to_classical(self):
        # Rescaled signal below the noise floor: negative adjusted SNR is
        # reported, but the correlation cannot drop below the classical 1.
        device, plan = projection_fixture()
        sig = counts(RunKind.SIGNAL, {(1, 1): 10, (1, 2): 10}, 10_000)
        bkg = counts(RunKind.NOISE, {(1, 1): 50, (1, 2): 50}, 10_000)
        [proj] = project_cells(sig, bkg, device, plan)
        assert proj.snr_adjusted < 0
        assert proj.g2_inferred == 1.0
        assert proj.fidelity == 0.25

    def test_mode_set_mismatch(self):
        device, plan = projection_fixture()
        sig = counts(RunKind.SIGNAL, {(1, 1): 10, (1, 2): 10}, 100)
        bkg = counts(RunKind.NOISE, {(1, 1): 1}, 100)
        with pytest.raises(ModeSetMismatch):
            project_cells(sig, bkg, device, plan)

    def test_runs_covering_part_of_the_plan(self):
        # The two runs agree with each other, but neither covers (1, 2).
        device, plan = projection_fixture()
        sig = counts(RunKind.SIGNAL, {(1, 1): 10}, 100)
        bkg = counts(RunKind.NOISE, {(1, 1): 1}, 100)
        with pytest.raises(ModeSetMismatch) as err:
            project_cells(sig, bkg, device, plan)
        assert "missing in signal run: [(1, 2)]" in str(err.value)


def scan_table(totals, n_trials=1000):
    """A cross-talk scan: (input_cell, output_cell) -> total."""
    return counts(RunKind.CROSSTALK, totals, n_trials)


class TestCrossTalkMatrix:
    def test_hand_computed_ratio(self):
        scan = scan_table({(1, 1): 100, (1, 2): 5, (2, 1): 8, (2, 2): 80})
        bkg = counts(RunKind.NOISE, {(1, 1): 2, (2, 1): 4}, 1000)
        m = crosstalk_matrix(scan, bkg)
        assert m.ratio(1, 2) == pytest.approx(0.05)
        assert m.ratio(2, 1) == pytest.approx(0.1)
        assert m.ratio(1, 1) == 1.0 and m.ratio(2, 2) == 1.0
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
        assert m.ratio(1, 2) == 0.0
        assert m.ratio(2, 1) == 0.0
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
        with pytest.raises(ConfigError):
            crosstalk_matrix(scan, bkg)

    @pytest.mark.parametrize("noise_keys", [
        [(1, 1), (1, 2), (2, 1), (2, 2)],  # two windows per cell
        [(1, 1)],                          # cell 2 missing
    ])
    def test_noise_run_of_another_plan_rejected(self, noise_keys):
        scan = scan_table({(1, 1): 100, (1, 2): 5, (2, 1): 8, (2, 2): 80})
        bkg = counts(RunKind.NOISE, dict.fromkeys(noise_keys, 3), 1000)
        with pytest.raises(ModeSetMismatch):
            crosstalk_matrix(scan, bkg)

    def test_wrong_kind_rejected(self):
        scan = counts(RunKind.SIGNAL, {(1, 1): 10}, 1000)
        bkg = counts(RunKind.NOISE, {(1, 1): 0}, 1000)
        with pytest.raises(ConfigError):
            crosstalk_matrix(scan, bkg)
