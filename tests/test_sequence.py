"""Timing tests: capacity arithmetic, timeline compilation, validation.

Derived expectations were frozen from hand arithmetic before implementation:
capacities from floor((tau - cp)/period), block spacings from the per-channel
switching inequalities, and trial spans from summing block offsets by hand.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from memarray.device import PulseKind, PulseShape, StorageConfig
from memarray.errors import CompilationError, ConfigError
from memarray.sequence import (
    Channel,
    EventKind,
    SequencePlan,
    Timeline,
    TimelineEvent,
    TimingConstraints,
    compile_plan,
    control_gap,
    max_temporal_modes,
    trial_duration,
    validate_timeline,
)


def of_kind(timeline, kind):
    return [ev for ev in timeline.events if ev.kind is kind]


def echo_windows(timeline):
    return of_kind(timeline, EventKind.ECHO_WINDOW)


def make_config(**kw):
    args = dict(
        tau=10.0,
        t_spin=15.5,
        n_temporal=6,
        mean_photon_number=1.03,
        input_shape=PulseShape(PulseKind.GAUSSIAN, fwhm=351.0),
        detection_window=351.0,
    )
    args.update(kw)
    return StorageConfig(**args)


def make_plan(cells=tuple(range(1, 11)), **kw):
    return SequencePlan(storage=make_config(**kw), cell_order=cells)


PLAN_60 = make_plan()
PLAN_250 = make_plan(tau=25.0, t_spin=20.0, n_temporal=25)


class TestMaxTemporalModes:
    def test_short_delay_capacity(self):
        # floor((10 - 3.5) / 1.0833) = floor(6.0001...) = 6
        assert max_temporal_modes(10.0, 1.0833, 3.5) == 6

    def test_long_delay_capacity(self):
        # (25 - 3.5) / 0.86 = 24.9999...; the floor must absorb the
        # representation error and return 25, not 24.
        assert max_temporal_modes(25.0, 0.86, 3.5) == 25

    def test_mode_longer_than_window(self):
        assert max_temporal_modes(10.0, 20.0, 3.5) == 0

    def test_control_pulse_swallows_delay(self, caplog):
        with caplog.at_level("WARNING", logger="memarray.sequence"):
            assert max_temporal_modes(3.0, 1.0, 3.5) == 0
        assert any("capacity is zero" in r.message for r in caplog.records)

    @pytest.mark.parametrize("tau,period,cp", [
        (0.0, 1.0, 3.5), (10.0, 0.0, 3.5), (10.0, 1.0, -1.0),
    ])
    def test_rejects_nonpositive_arguments(self, tau, period, cp):
        with pytest.raises(ConfigError):
            max_temporal_modes(tau, period, cp)

    @given(st.floats(4.0, 100.0), st.floats(0.05, 50.0))
    def test_capacity_times_period_fits_in_span(self, tau, period):
        n = max_temporal_modes(tau, period, 3.5)
        assert n >= 0
        assert n * period <= (tau - 3.5) + 1e-6


class TestResolvedModePeriod:
    def test_default_fills_comb_window(self):
        # (10 - 3.5) / 6
        c = TimingConstraints()
        assert PLAN_60.resolved_mode_period(c) == pytest.approx(6.5 / 6, rel=1e-12)

    def test_explicit_period_wins(self):
        plan = SequencePlan(storage=make_config(), cell_order=(1,),
                            mode_period=0.9)
        assert plan.resolved_mode_period(TimingConstraints()) == 0.9

    def test_plan_rejects_duplicate_cells(self):
        with pytest.raises(ConfigError):
            SequencePlan(storage=make_config(), cell_order=(1, 2, 1))

    def test_plan_rejects_empty_order(self):
        with pytest.raises(ConfigError):
            SequencePlan(storage=make_config(), cell_order=())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_plan_rejects_non_finite_period(self, value):
        with pytest.raises(ConfigError, match="^mode_period must be finite"):
            SequencePlan(storage=make_config(), cell_order=(1,),
                         mode_period=value)


class TestTimingConstraints:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [
        "switch_prep", "switch_control", "switch_mux", "switch_demux",
        "control_pulse_duration", "prep_duration"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{name} must be finite"):
            TimingConstraints(**{name: value})


class TestTimelineEvent:
    def test_kind_pins_channel(self):
        with pytest.raises(ConfigError):
            TimelineEvent(Channel.MUX, EventKind.ECHO_WINDOW, 1,
                          start=0.0, duration=1.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigError):
            TimelineEvent(Channel.MUX, EventKind.INPUT, 1,
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
        plan = make_plan(cells=(3,), n_temporal=1, t_spin=8.0)
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
            cp1 = tl.control_pulse(cell, EventKind.CONTROL1)
            cp2 = tl.control_pulse(cell, EventKind.CONTROL2)
            assert cp2.start == cp1.start + 15.5

    def test_two_fifty_mode_plan_validates_clean(self):
        tl = compile_plan(PLAN_250)
        assert len(echo_windows(tl)) == 250
        assert validate_timeline(tl) == []

    def test_capacity_rejection(self):
        # 7 modes at the default period of a 6-mode span: 7 > 6.
        plan = SequencePlan(storage=make_config(n_temporal=7),
                            cell_order=(1,), mode_period=6.5 / 6)
        with pytest.raises(CompilationError) as err:
            compile_plan(plan)
        assert any("capacity" in v for v in err.value.violations)

    def test_all_problems_reported_at_once(self):
        # Period shorter than the input pulse AND a spin pause shorter than
        # one control pulse: both must be listed, not just the first.
        plan = SequencePlan(storage=make_config(n_temporal=6, t_spin=1.0),
                            cell_order=(1,), mode_period=0.2)
        with pytest.raises(CompilationError) as err:
            compile_plan(plan)
        text = "\n".join(err.value.violations)
        assert len(err.value.violations) >= 3
        assert "input pulse" in text
        assert "spin pause" in text

    def test_temporal_index_one_based(self):
        tl = compile_plan(make_plan(cells=(1,)))
        ks = sorted(e.temporal_index for e in of_kind(tl, EventKind.INPUT))
        assert ks == [1, 2, 3, 4, 5, 6]


class TestControlGap:
    def test_matches_compiled_timeline(self):
        c = TimingConstraints()
        tl = compile_plan(PLAN_60, c)
        for cell in PLAN_60.cell_order:
            cp2 = tl.control_pulse(cell, EventKind.CONTROL2)
            for win in echo_windows(tl):
                if win.cell_id != cell:
                    continue
                expect = win.start - cp2.end
                got = control_gap(PLAN_60, c, win.temporal_index)
                assert got == pytest.approx(expect, abs=1e-9)

    def test_first_mode_has_smallest_gap(self):
        c = TimingConstraints()
        gaps = [control_gap(PLAN_60, c, k) for k in range(1, 7)]
        assert gaps == sorted(gaps)
        assert gaps[0] < gaps[-1]

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ConfigError):
            control_gap(PLAN_60, TimingConstraints(), 7)


class TestValidateTimeline:
    def test_compiled_plans_are_clean(self):
        assert validate_timeline(compile_plan(PLAN_60)) == []
        assert validate_timeline(compile_plan(PLAN_250)) == []

    def test_empty_timeline_is_clean(self):
        assert validate_timeline(Timeline(events=())) == []

    def test_switching_violation(self):
        # Two MuxAOD retargets 1.0 us apart against a 2.2 us switching time.
        a = TimelineEvent(Channel.MUX, EventKind.INPUT, 1,
                          start=0.0, duration=0.3, temporal_index=1)
        b = TimelineEvent(Channel.MUX, EventKind.INPUT, 2,
                          start=1.0, duration=0.3, temporal_index=1)
        out = validate_timeline(Timeline(events=(a, b)))
        assert len(out) == 1
        assert out[0].rule == "switching"

    def test_same_cell_retune_is_exempt(self):
        # Consecutive input modes on one cell sit well inside the switching
        # time; that is the whole point of temporal multiplexing.
        a = TimelineEvent(Channel.MUX, EventKind.INPUT, 1,
                          start=0.0, duration=0.3, temporal_index=1)
        b = TimelineEvent(Channel.MUX, EventKind.INPUT, 1,
                          start=1.0, duration=0.3, temporal_index=2)
        assert validate_timeline(Timeline(events=(a, b))) == []

    def test_prep_control_overlap(self):
        prep = TimelineEvent(Channel.PREP, EventKind.PREPARE, 0,
                             start=0.0, duration=5.0)
        cp = TimelineEvent(Channel.CONTROL, EventKind.CONTROL1, 1,
                           start=2.0, duration=3.5)
        out = validate_timeline(Timeline(events=(prep, cp)))
        assert [v.rule for v in out] == ["prep-control"]

    def test_echo_control_overlap_same_cell_only(self):
        cp = TimelineEvent(Channel.CONTROL, EventKind.CONTROL2, 1,
                           start=10.0, duration=3.5)
        win_same = TimelineEvent(Channel.DEMUX, EventKind.ECHO_WINDOW, 1,
                                 start=12.0, duration=0.4, temporal_index=1)
        win_other = TimelineEvent(Channel.DEMUX, EventKind.ECHO_WINDOW, 2,
                                  start=12.0, duration=0.4, temporal_index=1)
        same = validate_timeline(Timeline(events=(cp, win_same)))
        assert [v.rule for v in same] == ["echo-control"]
        other = validate_timeline(Timeline(events=(cp, win_other)))
        assert all(v.rule != "echo-control" for v in other)

    def test_touching_intervals_do_not_overlap(self):
        prep = TimelineEvent(Channel.PREP, EventKind.PREPARE, 0,
                             start=0.0, duration=2.0)
        cp = TimelineEvent(Channel.CONTROL, EventKind.CONTROL1, 1,
                           start=2.0, duration=3.5)
        assert validate_timeline(Timeline(events=(prep, cp))) == []


class TestTrialDuration:
    def test_single_event(self):
        ev = TimelineEvent(Channel.CONTROL, EventKind.CONTROL1, 1,
                           start=0.0, duration=3.5)
        assert trial_duration(Timeline(events=(ev,))) == 3.5

    def test_two_event_span(self):
        a = TimelineEvent(Channel.MUX, EventKind.INPUT, 1,
                          start=0.0, duration=2.0, temporal_index=1)
        b = TimelineEvent(Channel.MUX, EventKind.INPUT, 1,
                          start=10.0, duration=2.0, temporal_index=2)
        assert trial_duration(Timeline(events=(a, b))) == 12.0

    def test_empty_timeline_rejected(self):
        with pytest.raises(ConfigError):
            trial_duration(Timeline(events=()))

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
    cap = max_temporal_modes(tau, 0.86, 3.5)
    n_t = draw(st.integers(1, min(cap, 25)))
    n_cells = draw(st.integers(1, 10))
    cells = tuple(draw(st.permutations(range(1, 11)))[:n_cells])
    t_spin = draw(st.floats(3.5, 30.0))
    cfg = make_config(tau=tau, t_spin=t_spin, n_temporal=n_t)
    return SequencePlan(storage=cfg, cell_order=cells, mode_period=0.86)


class TestCompileValidateProperty:
    @settings(max_examples=60, deadline=None)
    @given(feasible_plans())
    def test_compiled_plans_always_validate(self, plan):
        tl = compile_plan(plan)
        assert validate_timeline(tl) == []
        # FIFO holds per cell
        for cell in plan.cell_order:
            wins = [e for e in echo_windows(tl) if e.cell_id == cell]
            starts = [e.start for e in sorted(wins, key=lambda e: e.temporal_index)]
            assert starts == sorted(starts)
