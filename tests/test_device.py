"""Efficiency arithmetic tests.

Expected values for the derived cases were frozen from independent hand
evaluation (exponential-fit arithmetic, error-function identities, numerical
quadrature) before the implementation was written.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from memarray.device import (
    ArrayDevice,
    CellParams,
    PulseKind,
    PulseShape,
    StorageConfig,
    afc_efficiency_at,
    spin_wave_efficiency,
    window_capture_fraction,
)
from memarray.defaults import default_device_path
from memarray.errors import ConfigError
from memarray.io import load_device


def total_device_efficiency(cell, tau):
    """Input-to-fibre efficiency of one cell: multiplexer in, spin-wave
    storage, demultiplexer and fibre coupling out."""
    return (cell.eta_mux * spin_wave_efficiency(cell, tau)
            * cell.eta_demux * cell.eta_fiber)


def make_cell(calibration=((10.0, 0.191), (25.0, 0.079)), **kw):
    args = dict(
        cell_id=1,
        eta_mux=0.90,
        eta_demux=0.85,
        eta_fiber=0.55,
        eta_transfer=0.30,
        afc_calibration=calibration,
    )
    args.update(kw)
    return CellParams(**args)


class TestAfcEfficiency:
    def test_exact_at_calibration_points(self):
        cell = make_cell()
        assert afc_efficiency_at(cell, 10.0) == 0.191
        assert afc_efficiency_at(cell, 25.0) == 0.079

    def test_exponential_interpolation_midpoint(self):
        # Oracle: fit eta(tau) = eta0 * exp(-tau/T) through the two points.
        # T = (25-10)/ln(0.191/0.079) = 16.990 us, then evaluate at 17.5 us.
        t_eff = 15.0 / math.log(0.191 / 0.079)
        expected = 0.191 * math.exp(-7.5 / t_eff)
        got = afc_efficiency_at(make_cell(), 17.5)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.1228, abs=5e-5)

    def test_strictly_decreasing_between_points(self):
        cell = make_cell()
        taus = np.linspace(10.0, 25.0, 40)
        vals = [afc_efficiency_at(cell, t) for t in taus]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_continuous_at_interior_knot(self):
        cell = make_cell(calibration=((10.0, 0.191), (17.0, 0.12), (25.0, 0.079)))
        at = afc_efficiency_at(cell, 17.0)
        just_below = afc_efficiency_at(cell, 17.0 - 1e-9)
        just_above = afc_efficiency_at(cell, 17.0 + 1e-9)
        assert at == 0.12
        assert just_below == pytest.approx(at, abs=1e-6)
        assert just_above == pytest.approx(at, abs=1e-6)

    def test_extrapolation_is_flagged_but_allowed(self, caplog):
        cell = make_cell()
        with caplog.at_level("WARNING", logger="memarray.device"):
            val = afc_efficiency_at(cell, 40.0)  # beyond 25 us but below 2x
        assert 0.0 < val < 0.079
        assert any("extrapolat" in rec.message.lower() for rec in caplog.records)

    def test_extrapolation_beyond_double_is_rejected(self):
        with pytest.raises(ConfigError):
            afc_efficiency_at(make_cell(), 51.0)  # > 2 * 25 us

    def test_empty_calibration_rejected(self):
        with pytest.raises(ConfigError):
            make_cell(calibration=())

    def test_single_point_calibration_rejected(self):
        with pytest.raises(ConfigError):
            make_cell(calibration=((10.0, 0.191),))

    def test_nondecreasing_calibration_rejected(self):
        with pytest.raises(ConfigError):
            make_cell(calibration=((10.0, 0.10), (25.0, 0.15)))


class TestSpinWaveAndTotal:
    def test_spin_wave_product(self):
        cell = make_cell()  # transfer 0.30, afc(10us) = 0.191
        assert spin_wave_efficiency(cell, 10.0) == pytest.approx(0.0573, abs=1e-6)

    def test_zero_transfer_gives_zero(self):
        cell = make_cell(eta_transfer=0.0)
        assert spin_wave_efficiency(cell, 10.0) == 0.0

    def test_long_delay_product(self):
        cell = make_cell(eta_transfer=0.20)
        assert spin_wave_efficiency(cell, 25.0) == pytest.approx(0.0158, abs=1e-6)

    def test_total_device_efficiency_four_factors(self):
        # 0.90 * (0.191*0.30) * 0.85 * 0.55 frozen by hand
        cell = make_cell()
        assert total_device_efficiency(cell, 10.0) == pytest.approx(0.024108975, rel=1e-12)

    def test_identity_chain(self):
        cell = make_cell(
            eta_mux=1.0, eta_demux=1.0, eta_fiber=1.0, eta_transfer=1.0,
            calibration=((10.0, 1.0), (25.0, 0.9)),
        )
        assert total_device_efficiency(cell, 10.0) == 1.0

    @given(
        mux=st.floats(0.01, 1.0),
        demux=st.floats(0.01, 1.0),
        fiber=st.floats(0.01, 1.0),
        bump=st.floats(1.0, 5.0),
    )
    def test_monotone_in_each_factor(self, mux, demux, fiber, bump):
        base = make_cell(eta_mux=mux, eta_demux=demux, eta_fiber=fiber)
        ref = total_device_efficiency(base, 10.0)
        for field in ("eta_mux", "eta_demux", "eta_fiber"):
            hi = make_cell(eta_mux=mux, eta_demux=demux, eta_fiber=fiber)
            hi = CellParams(
                **{
                    **{
                        "cell_id": hi.cell_id,
                        "eta_mux": hi.eta_mux,
                        "eta_demux": hi.eta_demux,
                        "eta_fiber": hi.eta_fiber,
                        "eta_transfer": hi.eta_transfer,
                        "afc_calibration": hi.afc_calibration,
                    },
                    field: min(1.0, getattr(hi, field) * bump),
                }
            )
            assert total_device_efficiency(hi, 10.0) >= ref


class TestWindowCapture:
    def test_gaussian_fwhm_window(self):
        # Window equal to the FWHM centred on the peak captures erf(sqrt(ln 2)).
        shape = PulseShape(PulseKind.GAUSSIAN, fwhm=351.0)
        expected = math.erf(math.sqrt(math.log(2.0)))
        got = window_capture_fraction(shape, 351.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.7609, abs=1e-4)

    def test_gaussian_matches_quadrature(self):
        fwhm = 351.0
        sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        for window in (100.0, 351.0, 900.0):
            num, _ = quad(lambda t: math.exp(-t * t / (2 * sigma * sigma)), -window / 2, window / 2)
            den = sigma * math.sqrt(2 * math.pi)
            got = window_capture_fraction(PulseShape(PulseKind.GAUSSIAN, fwhm), window)
            assert got == pytest.approx(num / den, rel=1e-9)

    def test_lorentzian_matches_quadrature(self):
        fwhm = 130.0
        half = fwhm / 2.0
        for window in (130.0, 351.0, 1000.0):
            num, _ = quad(lambda t: 1.0 / (1.0 + (t / half) ** 2), -window / 2, window / 2)
            den = math.pi * half
            got = window_capture_fraction(PulseShape(PulseKind.LORENTZIAN, fwhm), window)
            assert got == pytest.approx(num / den, rel=1e-9)

    def test_lorentzian_override(self):
        shape = PulseShape(PulseKind.LORENTZIAN, fwhm=130.0, capture_override=0.57)
        assert window_capture_fraction(shape, 351.0) == 0.57

    def test_wide_window_approaches_unity(self):
        for kind in (PulseKind.GAUSSIAN, PulseKind.LORENTZIAN):
            got = window_capture_fraction(PulseShape(kind, 351.0), 1e9)
            assert got == pytest.approx(1.0, abs=1e-3)

    def test_square_pulse(self):
        shape = PulseShape(PulseKind.SQUARE, fwhm=200.0)
        assert window_capture_fraction(shape, 100.0) == pytest.approx(0.5)
        assert window_capture_fraction(shape, 400.0) == 1.0

    # cap at ~3 FWHM: beyond that the Gaussian integral saturates to 1.0
    # in double precision and strict monotonicity no longer holds
    @given(st.floats(10.0, 1000.0), st.floats(10.0, 1000.0))
    def test_strictly_increasing_in_window(self, w1, w2):
        lo, hi = sorted((w1, w2))
        if hi - lo < 1e-6:
            return
        for kind in (PulseKind.GAUSSIAN, PulseKind.LORENTZIAN):
            shape = PulseShape(kind, fwhm=351.0)
            a, b = window_capture_fraction(shape, lo), window_capture_fraction(shape, hi)
            assert 0.0 < a < b < 1.0

    def test_override_only_valid_for_lorentzian(self):
        with pytest.raises(ConfigError):
            PulseShape(PulseKind.GAUSSIAN, fwhm=351.0, capture_override=0.5)


class TestValidation:
    def test_fraction_bounds_enforced(self):
        with pytest.raises(ConfigError):
            make_cell(eta_mux=1.2)
        with pytest.raises(ConfigError):
            make_cell(eta_fiber=-0.1)

    def test_pulse_shape_requires_positive_fwhm(self):
        with pytest.raises(ConfigError):
            PulseShape(PulseKind.GAUSSIAN, fwhm=0.0)

    def test_storage_config_bounds(self):
        shape = PulseShape(PulseKind.GAUSSIAN, 351.0)
        with pytest.raises(ConfigError):
            StorageConfig(tau=0.0, t_spin=15.5, n_temporal=6, mean_photon_number=1.0,
                          input_shape=shape, detection_window=351.0)
        with pytest.raises(ConfigError):
            StorageConfig(tau=10.0, t_spin=15.5, n_temporal=0, mean_photon_number=1.0,
                          input_shape=shape, detection_window=351.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_pulse_fwhm_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="^pulse fwhm must be finite"):
            PulseShape(PulseKind.GAUSSIAN, fwhm=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["mean_photon_number",
                                      "detection_window", "g2_source"])
    def test_storage_values_must_be_finite(self, name, value):
        kw = dict(tau=10.0, t_spin=15.5, n_temporal=6, mean_photon_number=1.0,
                  input_shape=PulseShape(PulseKind.GAUSSIAN, 351.0),
                  detection_window=351.0)
        kw[name] = value
        with pytest.raises(ConfigError, match=rf"^{name} must be finite"):
            StorageConfig(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_dark_count_rate_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="dark_count_rate .*finite"):
            ArrayDevice(cells=(make_cell(),), eta_detection_path=0.14,
                        dark_count_rate=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["tau", "t_spin"])
    def test_storage_times_must_be_finite(self, name, value):
        kw = dict(tau=10.0, t_spin=15.5, n_temporal=6, mean_photon_number=1.0,
                  input_shape=PulseShape(PulseKind.GAUSSIAN, 351.0),
                  detection_window=351.0)
        kw[name] = value
        with pytest.raises(ConfigError, match=rf"^{name} must be finite"):
            StorageConfig(**kw)


class TestDefaultDevice:
    """The shipped calibration must stay inside the measured hardware ranges."""

    def test_ten_cells(self):
        device = load_device(default_device_path())
        assert len(device.cells) == 10
        assert [c.cell_id for c in device.cells] == list(range(1, 11))

    def test_per_cell_totals_short_delay(self):
        device = load_device(default_device_path())
        totals = [total_device_efficiency(c, 10.0) for c in device.cells]
        assert min(totals) >= 0.0053
        assert max(totals) <= 0.026

    def test_per_cell_totals_long_delay(self):
        device = load_device(default_device_path())
        totals = [total_device_efficiency(c, 25.0) for c in device.cells]
        assert min(totals) >= 0.0019
        assert max(totals) <= 0.009

    def test_average_total_short_delay(self):
        device = load_device(default_device_path())
        avg = np.mean([total_device_efficiency(c, 10.0) for c in device.cells])
        assert avg == pytest.approx(0.016, abs=0.002)

    def test_centre_cells_are_best(self):
        device = load_device(default_device_path())
        totals = [total_device_efficiency(c, 10.0) for c in device.cells]
        assert max(totals) == max(totals[3:7])  # peak within cells 4..7
        assert totals[0] < totals[4] and totals[-1] < totals[5]
