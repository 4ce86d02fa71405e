"""Timing tests: capacity arithmetic, plan checks, timeline compilation, and
the all-pairs event oracle that checks compiled timelines.

Derived expectations were frozen from hand arithmetic before implementation:
capacities from floor((tau - cp)/period), block spacings from the per-channel
switching inequalities, and trial spans from summing block offsets by hand.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from memarray.device import PulseKind, PulseShape
from memarray.errors import CompilationError, ConfigError
from memarray.sequence import (
    Channel,
    EventKind,
    SequencePlan,
    TimelineEvent,
    check_plan,
    compile_plan,
    control_gap,
    max_temporal_modes,
    trial_duration,
)
from timeline_oracle import first_event, pairwise_validate


def of_kind(timeline, kind):
    return [ev for ev in timeline if ev.kind is kind]


def echo_windows(timeline):
    return of_kind(timeline, EventKind.ECHO_WINDOW)


def make_plan(**kw):
    args = dict(
        tau=10.0,
        t_spin=15.5,
        n_temporal=6,
        mean_photon_number=1.03,
        input_shape=PulseShape(PulseKind.GAUSSIAN, fwhm=351.0),
        detection_window=351.0,
        cell_order=tuple(range(1, 11)),
    )
    args.update(kw)
    return SequencePlan(**args)


PLAN_60 = make_plan()
PLAN_250 = make_plan(tau=25.0, t_spin=20.0, n_temporal=25)


class TestMaxTemporalModes:
    def test_short_delay_capacity(self):
        # floor((10 - 3.5) / 1.0833) = floor(6.0001...) = 6
        assert max_temporal_modes(10.0, 1.0833) == 6

    def test_long_delay_capacity(self):
        # (25 - 3.5) / 0.86 = 24.9999...; the floor must absorb the
        # representation error and return 25, not 24.
        assert max_temporal_modes(25.0, 0.86) == 25

    def test_mode_longer_than_window(self):
        assert max_temporal_modes(10.0, 20.0) == 0

    def test_control_pulse_swallows_delay(self):
        assert max_temporal_modes(3.0, 1.0) == 0

    @pytest.mark.parametrize("tau,period", [(0.0, 1.0), (10.0, 0.0)])
    def test_rejects_nonpositive_arguments(self, tau, period):
        with pytest.raises(ConfigError):
            max_temporal_modes(tau, period)

    @given(st.floats(4.0, 100.0), st.floats(0.05, 50.0))
    def test_capacity_times_period_fits_in_span(self, tau, period):
        n = max_temporal_modes(tau, period)
        assert n >= 0
        assert n * period <= (tau - 3.5) + 1e-6


class TestResolvedModePeriod:
    def test_default_fills_comb_window(self):
        # (10 - 3.5) / 6
        assert PLAN_60.resolved_mode_period() == pytest.approx(6.5 / 6,
                                                               rel=1e-12)

    def test_explicit_period_wins(self):
        plan = make_plan(cell_order=(1,), mode_period=0.9)
        assert plan.resolved_mode_period() == 0.9

    def test_plan_rejects_duplicate_cells(self):
        with pytest.raises(ConfigError):
            make_plan(cell_order=(1, 2, 1))

    def test_plan_rejects_empty_order(self):
        with pytest.raises(ConfigError):
            make_plan(cell_order=())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_plan_rejects_non_finite_period(self, value):
        with pytest.raises(ConfigError, match="^mode_period must be finite"):
            make_plan(cell_order=(1,), mode_period=value)


class TestTimelineEvent:
    def test_kind_pins_channel(self):
        deflector = {EventKind.PREPARE: Channel.PREP,
                     EventKind.INPUT: Channel.MUX,
                     EventKind.CONTROL1: Channel.CONTROL,
                     EventKind.CONTROL2: Channel.CONTROL,
                     EventKind.ECHO_WINDOW: Channel.DEMUX}
        assert set(deflector) == set(EventKind)
        for kind, channel in deflector.items():
            ev = TimelineEvent(kind, 1, start=0.0, duration=1.0)
            assert ev.channel is channel

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigError):
            TimelineEvent(EventKind.INPUT, 1,
                          start=0.0, duration=0.0)


class TestCompilePlan:
    def test_sixty_mode_event_census(self):
        tl = compile_plan(PLAN_60)
        assert len(of_kind(tl, EventKind.INPUT)) == 60
        assert len(of_kind(tl, EventKind.ECHO_WINDOW)) == 60
        assert len(of_kind(tl, EventKind.CONTROL1)) == 10
        assert len(of_kind(tl, EventKind.CONTROL2)) == 10
        assert len(of_kind(tl, EventKind.PREPARE)) == 1

    def test_single_mode_echo_delay(self):
        # One cell, one mode: the echo window opens exactly one AFC delay
        # plus one spin pause after the input.
        plan = make_plan(cell_order=(3,), n_temporal=1, t_spin=8.0)
        tl = compile_plan(plan)
        [inp] = of_kind(tl, EventKind.INPUT)
        [win] = echo_windows(tl)
        assert win.start == inp.start + 10.0 + 8.0

    def test_echo_arithmetic_exact(self):
        tl = compile_plan(PLAN_250)
        inputs = {(e.cell_id, e.temporal_index): e
                  for e in of_kind(tl, EventKind.INPUT)}
        for win in echo_windows(tl):
            inp = inputs[(win.cell_id, win.temporal_index)]
            assert win.start == inp.start + 25.0 + 20.0

    def test_fifo_echo_ordering(self):
        tl = compile_plan(PLAN_60)
        for cell in PLAN_60.cell_order:
            ins = sorted((e for e in of_kind(tl, EventKind.INPUT)
                          if e.cell_id == cell), key=lambda e: e.start)
            outs = sorted((e for e in echo_windows(tl)
                           if e.cell_id == cell), key=lambda e: e.start)
            assert [e.temporal_index for e in ins] == list(range(1, 7))
            assert ([e.temporal_index for e in outs]
                    == [e.temporal_index for e in ins])

    def test_second_control_pulse_spin_offset(self):
        tl = compile_plan(PLAN_60)
        for cell in PLAN_60.cell_order:
            cp1 = first_event(tl, EventKind.CONTROL1, cell)
            cp2 = first_event(tl, EventKind.CONTROL2, cell)
            assert cp2.start == cp1.start + 15.5

    def test_two_fifty_mode_plan_validates_clean(self):
        tl = compile_plan(PLAN_250)
        assert len(echo_windows(tl)) == 250
        assert pairwise_validate(tl) == []

    def test_capacity_rejection(self):
        # 7 modes at the default period of a 6-mode span: 7 > 6.
        plan = make_plan(n_temporal=7, cell_order=(1,), mode_period=6.5 / 6)
        with pytest.raises(CompilationError) as err:
            compile_plan(plan)
        assert any("capacity" in v for v in err.value.violations)

    def test_all_problems_reported_at_once(self):
        # Period shorter than the input pulse AND a spin pause shorter than
        # one control pulse: both must be listed, not just the first.
        plan = make_plan(n_temporal=6, t_spin=1.0, cell_order=(1,),
                         mode_period=0.2)
        with pytest.raises(CompilationError) as err:
            compile_plan(plan)
        text = "\n".join(err.value.violations)
        assert len(err.value.violations) >= 3
        assert "input pulse" in text
        assert "spin pause" in text

    def test_events_in_time_order(self):
        tl = compile_plan(PLAN_250)
        assert isinstance(tl, tuple)
        assert [e.start for e in tl] == sorted(e.start for e in tl)

    def test_temporal_index_one_based(self):
        tl = compile_plan(make_plan(cell_order=(1,)))
        ks = sorted(e.temporal_index for e in of_kind(tl, EventKind.INPUT))
        assert ks == [1, 2, 3, 4, 5, 6]


def _gaussian(fwhm):
    return PulseShape(PulseKind.GAUSSIAN, fwhm=fwhm)


# One infeasible plan per timing rule, then one that breaks every rule the
# capacity branch allows.  A control pulse longer than tau always breaks the
# lead rule too.  Without a given period such a tau leaves no default period
# to check the other rules against, so its rule is the only line.  The lead
# rule can fire alone: the capacity rule's slack scales with the period, so
# at a 10 us period it passes a tau 5e-9 us short of the input plus the
# control pulse, while the lead rule allows only _TOL (1e-9 us).
INFEASIBLE = {
    "capacity": (dict(n_temporal=7), 1.0, ["capacity of 6"]),
    "control-pulse": (dict(tau=3.0, n_temporal=1), 1.0,
                      ["does not fit within", "last input"]),
    "control-pulse-default-period": (
        dict(tau=3.5, n_temporal=1), None,
        ["control pulse (3.5 us) does not fit within the echo delay "
         "tau=3.5 us"]),
    "input-pulse": (dict(input_shape=_gaussian(600.0)), 0.5,
                    ["input pulse (0.6 us)"]),
    "window": (dict(detection_window=600.0), 0.5,
               ["detection window (0.6 us)"]),
    "spin-pause": (dict(t_spin=1.0), None, ["spin pause"]),
    "lead": (dict(n_temporal=7, input_shape=_gaussian(1100.0)), 0.92,
             ["input pulse", "last input plus control pulse end at 10.12"]),
    "lead-alone": (dict(tau=13.499999995, n_temporal=1,
                        input_shape=_gaussian(10000.0)), 10.0,
                   ["last input plus control pulse end at 13.5 us after the "
                    "first input, beyond the echo delay tau=13.499999995 us"]),
    "every-rule": (dict(n_temporal=40, t_spin=1.0), 0.2,
                   ["capacity", "input pulse", "detection window",
                    "spin pause", "last input"]),
}


class TestCheckPlan:
    @pytest.mark.parametrize("name", list(INFEASIBLE))
    def test_raises_the_violations_of_compile_plan(self, name):
        config, period, parts = INFEASIBLE[name]
        plan = make_plan(**config, cell_order=(1, 2), mode_period=period)
        with pytest.raises(CompilationError) as checked:
            check_plan(plan)
        with pytest.raises(CompilationError) as compiled:
            compile_plan(plan)
        assert checked.value.violations == compiled.value.violations
        assert len(checked.value.violations) == len(parts)
        for violation, part in zip(checked.value.violations, parts):
            assert part in violation

    def test_every_rule_messages(self):
        config, period, _ = INFEASIBLE["every-rule"]
        plan = make_plan(**config, cell_order=(1,), mode_period=period)
        with pytest.raises(CompilationError) as err:
            check_plan(plan)
        assert list(err.value.violations) == [
            "40 temporal modes exceed the capacity of 32 for tau=10.0 us, "
            "period=0.2 us, control pulse=3.5 us",
            "input pulse (0.351 us) is longer than the mode period (0.2 us)",
            "detection window (0.351 us) is longer than the mode period "
            "(0.2 us)",
            "spin pause (1.0 us) is shorter than one control pulse (3.5 us); "
            "the two control pulses would overlap",
            "last input plus control pulse end at 11.651 us after the first "
            "input, beyond the echo delay tau=10.0 us",
        ]

    def test_lead_alone_keeps_windows_after_the_control_pulse(self):
        # The plan only the lead rule refuses would open its echo window
        # 5e-9 us before the second control pulse ends: more than _TOL.
        config, period, _ = INFEASIBLE["lead-alone"]
        plan = make_plan(**config, cell_order=(1,), mode_period=period)
        assert control_gap(plan, 1) == pytest.approx(-5e-9, abs=1e-12)

    def test_returns_the_resolved_period(self):
        assert check_plan(PLAN_60) == PLAN_60.resolved_mode_period()
        assert check_plan(PLAN_250) == (25.0 - 3.5) / 25
        assert check_plan(make_plan(n_temporal=5, cell_order=(1,),
                                    mode_period=1.25)) == 1.25


class TestControlGap:
    def test_matches_compiled_timeline(self):
        tl = compile_plan(PLAN_60)
        for cell in PLAN_60.cell_order:
            cp2 = first_event(tl, EventKind.CONTROL2, cell)
            for win in echo_windows(tl):
                if win.cell_id != cell:
                    continue
                expect = win.start - cp2.end
                got = control_gap(PLAN_60, win.temporal_index)
                assert got == pytest.approx(expect, abs=1e-9)

    def test_first_mode_has_smallest_gap(self):
        gaps = [control_gap(PLAN_60, k) for k in range(1, 7)]
        assert gaps == sorted(gaps)
        assert gaps[0] < gaps[-1]

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ConfigError):
            control_gap(PLAN_60, 7)


class TestValidateTimeline:
    """The all-pairs event oracle, on compiled and hand-built timelines."""

    def test_compiled_plans_are_clean(self):
        assert pairwise_validate(compile_plan(PLAN_60)) == []
        assert pairwise_validate(compile_plan(PLAN_250)) == []

    def test_empty_timeline_is_clean(self):
        assert pairwise_validate(()) == []

    def test_switching_violation(self):
        # Two MuxAOD retargets 1.0 us apart against a 2.2 us switching time.
        a = TimelineEvent(EventKind.INPUT, 1,
                          start=0.0, duration=0.3, temporal_index=1)
        b = TimelineEvent(EventKind.INPUT, 2,
                          start=1.0, duration=0.3, temporal_index=1)
        out = pairwise_validate((a, b))
        assert len(out) == 1
        assert out[0].rule == "switching"

    def test_same_cell_retune_is_exempt(self):
        # Consecutive input modes on one cell sit well inside the switching
        # time; that is the whole point of temporal multiplexing.
        a = TimelineEvent(EventKind.INPUT, 1,
                          start=0.0, duration=0.3, temporal_index=1)
        b = TimelineEvent(EventKind.INPUT, 1,
                          start=1.0, duration=0.3, temporal_index=2)
        assert pairwise_validate((a, b)) == []

    def test_prep_control_overlap(self):
        prep = TimelineEvent(EventKind.PREPARE, 0,
                             start=0.0, duration=5.0)
        cp = TimelineEvent(EventKind.CONTROL1, 1,
                           start=2.0, duration=3.5)
        out = pairwise_validate((prep, cp))
        assert [v.rule for v in out] == ["prep-control"]

    def test_echo_control_overlap_same_cell_only(self):
        cp = TimelineEvent(EventKind.CONTROL2, 1,
                           start=10.0, duration=3.5)
        win_same = TimelineEvent(EventKind.ECHO_WINDOW, 1,
                                 start=12.0, duration=0.4, temporal_index=1)
        win_other = TimelineEvent(EventKind.ECHO_WINDOW, 2,
                                  start=12.0, duration=0.4, temporal_index=1)
        same = pairwise_validate((cp, win_same))
        assert [v.rule for v in same] == ["echo-control"]
        other = pairwise_validate((cp, win_other))
        assert all(v.rule != "echo-control" for v in other)

    def test_touching_intervals_do_not_overlap(self):
        prep = TimelineEvent(EventKind.PREPARE, 0,
                             start=0.0, duration=2.0)
        cp = TimelineEvent(EventKind.CONTROL1, 1,
                           start=2.0, duration=3.5)
        assert pairwise_validate((prep, cp)) == []


class TestTrialDuration:
    def test_single_event(self):
        ev = TimelineEvent(EventKind.CONTROL1, 1,
                           start=0.0, duration=3.5)
        assert trial_duration((ev,)) == 3.5

    def test_two_event_span(self):
        a = TimelineEvent(EventKind.INPUT, 1,
                          start=0.0, duration=2.0, temporal_index=1)
        b = TimelineEvent(EventKind.INPUT, 1,
                          start=10.0, duration=2.0, temporal_index=2)
        assert trial_duration((a, b)) == 12.0

    def test_empty_timeline_rejected(self):
        with pytest.raises(ConfigError):
            trial_duration(())

    def test_two_fifty_mode_span(self):
        # Hand-derived: blocks are spaced by the binding channel constraint,
        # here the control channel: t_spin + cp + switch = 20 + 3.5 + 2 = 25.5.
        # First block starts at prep 1.0 + mux switch 2.2 = 3.2; the tenth at
        # 3.2 + 9*25.5 = 232.7.  Its last window opens 24 periods (24*0.86 =
        # 20.64) plus tau + t_spin = 45 later and lasts 0.351:
        # 232.7 + 20.64 + 45 + 0.351 = 298.691.
        tl = compile_plan(PLAN_250)
        assert trial_duration(tl) == pytest.approx(298.691, abs=1e-9)

    def test_sixty_mode_span(self):
        # Same arithmetic: spacing max(7.968, 21.0, 8.068) = 21.0, last block
        # at 3.2 + 9*21 = 192.2, last window end 192.2 + 5*(6.5/6) + 25.5
        # + 0.351 = 223.4676666...
        tl = compile_plan(PLAN_60)
        assert trial_duration(tl) == pytest.approx(223.4676667, abs=1e-6)


@st.composite
def feasible_plans(draw):
    tau = draw(st.sampled_from([10.0, 15.0, 25.0]))
    cap = max_temporal_modes(tau, 0.86)
    n_t = draw(st.integers(1, min(cap, 25)))
    n_cells = draw(st.integers(1, 10))
    cells = tuple(draw(st.permutations(range(1, 11)))[:n_cells])
    t_spin = draw(st.floats(3.5, 30.0))
    return make_plan(tau=tau, t_spin=t_spin, n_temporal=n_t,
                     cell_order=cells, mode_period=0.86)


class TestCompileValidateProperty:
    @settings(max_examples=60, deadline=None)
    @given(feasible_plans())
    def test_compiled_plans_always_validate(self, plan):
        tl = compile_plan(plan)
        assert pairwise_validate(tl) == []
        # FIFO holds per cell
        for cell in plan.cell_order:
            wins = [e for e in echo_windows(tl) if e.cell_id == cell]
            starts = [e.start for e in sorted(wins, key=lambda e: e.temporal_index)]
            assert starts == sorted(starts)
