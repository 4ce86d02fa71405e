"""Efficiency arithmetic tests.

Expected values for the derived cases were frozen from independent hand
evaluation (exponential-fit arithmetic, error-function identities, numerical
quadrature) before the implementation was written.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from memarray.device import (
    ArrayDevice,
    CellParams,
    afc_efficiency_at,
    spin_wave_efficiency,
)
from memarray.defaults import default_device_path
from memarray.errors import ConfigError
from memarray.io import load_device
from memarray.sequence import PulseKind, SequencePlan, window_capture_fraction


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

    @pytest.mark.parametrize("tau, pair", [
        (20.0, 1), (12.5, 0), (7.0, 0), (40.0, 1),
    ], ids=["inside-second", "inside-first", "below-span", "above-span"])
    def test_bracket_pair_chosen_exactly(self, tau, pair):
        # The pair that brackets tau, or the nearest edge pair outside the
        # span, fitted by the two-point formula: a lookup one pair off
        # returns another number.
        table = ((10.0, 0.191), (17.0, 0.12), (25.0, 0.079))
        (t0, e0), (t1, e1) = table[pair], table[pair + 1]
        t_eff = (t1 - t0) / math.log(e0 / e1)
        expected = e0 * math.exp(-(tau - t0) / t_eff)
        assert afc_efficiency_at(make_cell(calibration=table), tau) == expected

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


PLAN_KW = dict(tau=10.0, t_spin=15.5, n_temporal=6, mean_photon_number=1.0,
               input_shape=PulseKind.GAUSSIAN, input_fwhm=351.0,
               detection_window=351.0, cell_order=(1,))
LORENTZIAN_KW = {**PLAN_KW, "input_shape": PulseKind.LORENTZIAN,
                 "input_fwhm": 130.0}


def capture(kind, fwhm, window, capture_override=None):
    """window_capture_fraction of a plan with this input pulse and a
    detection window of ``window`` ns."""
    plan = SequencePlan(**{**PLAN_KW, "input_shape": kind, "input_fwhm": fwhm,
                           "capture_override": capture_override})
    return window_capture_fraction(replace(plan, detection_window=window))


# The capture fraction reads only plan fields and lives in memarray.sequence,
# but it is one of the efficiency factors tested here.
class TestWindowCapture:
    def test_gaussian_fwhm_window(self):
        # Window equal to the FWHM centred on the peak captures erf(sqrt(ln 2)).
        expected = math.erf(math.sqrt(math.log(2.0)))
        got = capture(PulseKind.GAUSSIAN, 351.0, 351.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.7609, abs=1e-4)

    def test_gaussian_matches_quadrature(self):
        fwhm = 351.0
        sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        for window in (100.0, 351.0, 900.0):
            num, _ = quad(lambda t: math.exp(-t * t / (2 * sigma * sigma)), -window / 2, window / 2)
            den = sigma * math.sqrt(2 * math.pi)
            got = capture(PulseKind.GAUSSIAN, fwhm, window)
            assert got == pytest.approx(num / den, rel=1e-9)

    def test_lorentzian_matches_quadrature(self):
        fwhm = 130.0
        half = fwhm / 2.0
        for window in (130.0, 351.0, 1000.0):
            num, _ = quad(lambda t: 1.0 / (1.0 + (t / half) ** 2), -window / 2, window / 2)
            den = math.pi * half
            got = capture(PulseKind.LORENTZIAN, fwhm, window)
            assert got == pytest.approx(num / den, rel=1e-9)

    def test_lorentzian_override(self):
        assert capture(PulseKind.LORENTZIAN, 130.0, 351.0,
                       capture_override=0.57) == 0.57

    def test_wide_window_approaches_unity(self):
        for kind in (PulseKind.GAUSSIAN, PulseKind.LORENTZIAN):
            got = capture(kind, 351.0, 1e9)
            assert got == pytest.approx(1.0, abs=1e-3)

    def test_square_pulse(self):
        assert capture(PulseKind.SQUARE, 200.0, 100.0) == pytest.approx(0.5)
        assert capture(PulseKind.SQUARE, 200.0, 400.0) == 1.0

    # cap at ~3 FWHM: beyond that the Gaussian integral saturates to 1.0
    # in double precision and strict monotonicity no longer holds
    @given(st.floats(10.0, 1000.0), st.floats(10.0, 1000.0))
    def test_strictly_increasing_in_window(self, w1, w2):
        lo, hi = sorted((w1, w2))
        if hi - lo < 1e-6:
            return
        for kind in (PulseKind.GAUSSIAN, PulseKind.LORENTZIAN):
            a, b = capture(kind, 351.0, lo), capture(kind, 351.0, hi)
            assert 0.0 < a < b < 1.0

    def test_override_only_valid_for_lorentzian(self):
        with pytest.raises(ConfigError):
            capture(PulseKind.GAUSSIAN, 351.0, 351.0, capture_override=0.5)


class TestValidation:
    def test_fraction_bounds_enforced(self):
        with pytest.raises(ConfigError):
            make_cell(eta_mux=1.2)
        with pytest.raises(ConfigError):
            make_cell(eta_fiber=-0.1)

    def test_pulse_shape_requires_positive_fwhm(self):
        with pytest.raises(ConfigError):
            SequencePlan(**{**PLAN_KW, "input_fwhm": 0.0})

    # The storage values of a plan are checked by SequencePlan itself.
    def test_storage_config_bounds(self):
        with pytest.raises(ConfigError):
            SequencePlan(**{**PLAN_KW, "tau": 0.0})
        with pytest.raises(ConfigError):
            SequencePlan(**{**PLAN_KW, "n_temporal": 0})

    @pytest.mark.parametrize("build, message", [
        (lambda: SequencePlan(**{**PLAN_KW, "input_shape": "gaussian"}),
         "unknown pulse kind 'gaussian'"),
        (lambda: SequencePlan(**{**LORENTZIAN_KW, "capture_override": 1.5}),
         "capture_override must be in (0, 1], got 1.5"),
        (lambda: SequencePlan(**{**LORENTZIAN_KW, "capture_override": 0.0}),
         "capture_override must be in (0, 1], got 0.0"),
        (lambda: ArrayDevice(cells=(make_cell(), make_cell()),
                             eta_detection_path=0.14, dark_count_rate=10.0),
         "duplicate cell ids: [1, 1]"),
        (lambda: ArrayDevice(cells=(make_cell(),), eta_detection_path=0.14,
                             dark_count_rate=10.0).cell(9),
         "no cell with id 9 (have [1])"),
    ], ids=["kind-not-a-PulseKind", "override-above-one", "override-zero",
            "duplicate-cell-ids", "unknown-cell-id"])
    def test_refusal_message(self, build, message):
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_pulse_fwhm_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="^pulse fwhm must be finite"):
            SequencePlan(**{**PLAN_KW, "input_fwhm": value})

    # A plan file's diagnostics name a pulse fault before any other.
    @pytest.mark.parametrize("pulse, message", [
        ({"input_shape": "gaussian"}, "unknown pulse kind 'gaussian'"),
        ({"input_fwhm": 0.0}, "pulse fwhm must be finite and positive, got 0.0"),
        ({"capture_override": 0.5},
         "capture_override is only meaningful for lorentzian pulses"),
        ({**LORENTZIAN_KW, "capture_override": 1.5},
         "capture_override must be in (0, 1], got 1.5"),
    ], ids=["kind", "fwhm", "override-kind", "override-range"])
    def test_pulse_fault_comes_before_a_tau_fault(self, pulse, message):
        with pytest.raises(ConfigError) as err:
            SequencePlan(**{**PLAN_KW, **pulse, "tau": 0.0})
        assert str(err.value) == message

    # The plan refuses these windows, so window_capture_fraction never
    # sees one.
    @pytest.mark.parametrize("window", [0.0, -351.0, math.nan])
    def test_detection_window_must_be_positive(self, window):
        with pytest.raises(ConfigError) as err:
            SequencePlan(**{**PLAN_KW, "detection_window": window})
        assert str(err.value) == (
            f"detection_window must be finite and positive, got {window}")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["mean_photon_number",
                                      "detection_window", "g2_source"])
    def test_storage_values_must_be_finite(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{name} must be finite"):
            SequencePlan(**{**PLAN_KW, name: value})

    @pytest.mark.parametrize("calibration", [
        ((math.nan, 0.1), (25.0, 0.04)),
        ((10.0, 0.1), (math.inf, 0.04)),
        ((-math.inf, 0.1), (25.0, 0.04)),
    ])
    def test_calibration_taus_must_be_finite(self, calibration):
        # A NaN tau made afc_efficiency_at return nan; an infinite one made
        # it return the first efficiency at every storage time.
        with pytest.raises(ConfigError,
                           match="^cell 4: calibration tau must be finite"):
            make_cell(calibration=calibration, cell_id=4)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_dark_count_rate_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="dark_count_rate .*finite"):
            ArrayDevice(cells=(make_cell(),), eta_detection_path=0.14,
                        dark_count_rate=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["tau", "t_spin"])
    def test_storage_times_must_be_finite(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{name} must be finite"):
            SequencePlan(**{**PLAN_KW, name: value})


_CAL3 = ((10.0, 0.2), (20.0, 0.1), (30.0, 0.05))


def _cal3_with(point: int, field: int, value: float):
    """The three-point calibration with one tau (field 0) or efficiency
    (field 1) replaced."""
    table = [list(p) for p in _CAL3]
    table[point][field] = value
    return tuple(map(tuple, table))


class TestCellRefusals:
    """Each rule of CellParams refuses a NaN wherever it sits in the checked
    values, and an out-of-range value, with the message of its own loop."""

    @pytest.mark.parametrize("value", [math.nan, 1.5, -0.1])
    @pytest.mark.parametrize("name", ["eta_mux", "eta_demux", "eta_fiber",
                                      "eta_transfer"])
    def test_fraction(self, name, value):
        with pytest.raises(ConfigError) as err:
            make_cell(_CAL3, cell_id=3, **{name: value})
        assert str(err.value) == (
            f"cell 3: {name} must be a fraction in [0, 1], got {value}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("point", [0, 1, 2])
    def test_calibration_tau(self, point, value):
        with pytest.raises(ConfigError) as err:
            make_cell(_cal3_with(point, 0, value), cell_id=3)
        assert str(err.value) == (
            f"cell 3: calibration tau must be finite, got {value}")

    @pytest.mark.parametrize("value", [0.0, -4.0])
    @pytest.mark.parametrize("point", [0, 1, 2])
    def test_calibration_tau_not_positive(self, point, value):
        # afc_efficiency_at's extrapolation bound, lo / 2, assumes lo > 0.
        with pytest.raises(ConfigError) as err:
            make_cell(_cal3_with(point, 0, value), cell_id=3)
        assert str(err.value) == (
            f"cell 3: calibration tau must be positive, got {value}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, 1.5])
    @pytest.mark.parametrize("point", [0, 1, 2])
    def test_calibration_efficiency(self, point, value):
        with pytest.raises(ConfigError) as err:
            make_cell(_cal3_with(point, 1, value), cell_id=3)
        assert str(err.value) == "cell 3: AFC efficiencies must be in (0, 1]"

    @pytest.mark.parametrize("calibration, message", [
        (((10.0, 0.2), (10.0, 0.1)), "duplicate calibration tau"),
        (((10.0, 0.2), (20.0, 0.2)),
         "AFC efficiency must strictly decrease with storage time"),
        (((10.0, 0.2),), "afc_calibration needs at least two (tau, "
                         "efficiency) points, got 1"),
    ], ids=["repeated-tau", "flat", "one-point"])
    def test_calibration_table(self, calibration, message):
        with pytest.raises(ConfigError) as err:
            make_cell(calibration, cell_id=3)
        assert str(err.value) == f"cell 3: {message}"

    def test_cell_id(self):
        with pytest.raises(ConfigError) as err:
            make_cell(cell_id=0)
        assert str(err.value) == "cell_id must be >= 1, got 0"

    @pytest.mark.parametrize("faults, named", [
        ({"eta_fiber": math.nan, "eta_transfer": 2.0}, "eta_fiber"),
        ({"eta_mux": 1.5, "eta_demux": math.nan}, "eta_mux"),
        ({"eta_transfer": -1.0, "afc_calibration": _cal3_with(0, 0, math.nan)},
         "eta_transfer"),
    ])
    def test_first_fault_in_field_order(self, faults, named):
        with pytest.raises(ConfigError, match=f"^cell 1: {named} must be"):
            make_cell(**faults)


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
