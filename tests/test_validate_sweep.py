"""The sweep validator against an all-pairs oracle, and the semantics of the
timeline's indexed lookups.

``pairwise_validate`` below is a verbatim copy of the O(n^2) validator the
sweep replaced.  It is kept only here, as the reference: the sweep must
report the same violations, in the same order, with the same messages.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from memarray.errors import ConfigError
from memarray.sequence import (
    Channel,
    EventKind,
    Timeline,
    TimelineEvent,
    TimingConstraints,
    Violation,
    validate_timeline,
)
from memarray.simulate import NoiseParams
from noise_oracle import expected_noise_per_mode

_TOL = 1e-9


def _overlaps(a, b):
    lo = max(a.start, b.start)
    hi = min(a.end, b.end)
    return hi - lo > _TOL  # touching intervals do not overlap


def pairwise_validate(timeline, constraints=None):
    """The all-pairs validator, verbatim."""
    constraints = constraints or timeline.constraints or TimingConstraints()
    events = timeline.events
    out = []
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            first, second = (a, b) if a.start <= b.start else (b, a)
            if a.channel is b.channel and a.cell_id != b.cell_id:
                need = constraints.switching_time(a.channel)
                gap = second.start - first.end
                if gap < need - _TOL:
                    out.append(Violation(
                        rule="switching", first=first, second=second,
                        message=(f"{a.channel.value} retargets cell "
                                 f"{first.cell_id} -> {second.cell_id} after "
                                 f"{gap:.6g} us; needs {need} us")))
            if {a.kind, b.kind} & {EventKind.CONTROL1, EventKind.CONTROL2}:
                other = b if a.kind in (EventKind.CONTROL1,
                                        EventKind.CONTROL2) else a
                if other.kind is EventKind.PREPARE and _overlaps(a, b):
                    out.append(Violation(
                        rule="prep-control", first=first, second=second,
                        message="preparation overlaps a control pulse"))
                if (other.kind is EventKind.ECHO_WINDOW
                        and a.cell_id == b.cell_id and _overlaps(a, b)):
                    out.append(Violation(
                        rule="echo-control", first=first, second=second,
                        message=(f"echo window overlaps a control pulse on "
                                 f"cell {a.cell_id}")))
    return out


def as_tuples(violations):
    return [(v.rule, v.first, v.second, v.message) for v in violations]


_KIND_CHANNEL = [
    (EventKind.PREPARE, Channel.PREP),
    (EventKind.INPUT, Channel.MUX),
    (EventKind.CONTROL1, Channel.CONTROL),
    (EventKind.CONTROL2, Channel.CONTROL),
    (EventKind.ECHO_WINDOW, Channel.DEMUX),
]

# Starts on a 0.1 us grid collide often (equal start times) and produce gaps
# within rounding of the switching times; the durations include ones that
# span many neighbours.
_starts = st.one_of(st.integers(0, 300).map(lambda n: n * 0.1),
                    st.floats(0.0, 40.0))
_durations = st.one_of(st.sampled_from([0.1, 0.351, 1.0, 2.0, 2.2, 3.5]),
                       st.floats(0.01, 40.0))


@st.composite
def events(draw):
    kind, channel = draw(st.sampled_from(_KIND_CHANNEL))
    return TimelineEvent(channel, kind, draw(st.integers(0, 3)),
                         start=draw(_starts), duration=draw(_durations),
                         temporal_index=draw(st.one_of(st.none(),
                                                       st.integers(1, 3))))


@st.composite
def timelines(draw):
    evs = draw(st.lists(events(), max_size=40))
    # A few copies of drawn events: duplicates, equal starts, several preps.
    evs += draw(st.lists(st.sampled_from(evs), max_size=5)) if evs else []
    return Timeline(events=tuple(evs))


_switch = st.sampled_from([0.5, 1.4, 2.0, 2.2, 2.3, 6.0])
constraints = st.one_of(
    st.none(),
    st.builds(TimingConstraints, switch_prep=_switch, switch_control=_switch,
              switch_mux=_switch, switch_demux=_switch))


class TestSweepMatchesPairwise:
    @settings(max_examples=300, deadline=None)
    @given(timelines(), constraints)
    def test_same_violations_in_same_order(self, tl, c):
        assert (as_tuples(validate_timeline(tl, c))
                == as_tuples(pairwise_validate(tl, c)))

    def test_all_rules_on_one_timeline(self):
        prep = TimelineEvent(Channel.PREP, EventKind.PREPARE, 0,
                             start=0.0, duration=6.0)
        prep2 = TimelineEvent(Channel.PREP, EventKind.PREPARE, 0,
                              start=2.0, duration=1.0)
        cp = TimelineEvent(Channel.CONTROL, EventKind.CONTROL1, 1,
                           start=2.0, duration=3.5)
        cp_other = TimelineEvent(Channel.CONTROL, EventKind.CONTROL2, 2,
                                 start=3.0, duration=3.5)
        win = TimelineEvent(Channel.DEMUX, EventKind.ECHO_WINDOW, 1,
                            start=4.0, duration=0.4, temporal_index=1)
        tl = Timeline(events=(prep, prep2, cp, cp_other, win))
        got = validate_timeline(tl)
        assert as_tuples(got) == as_tuples(pairwise_validate(tl))
        assert [v.rule for v in got] == [
            "prep-control", "prep-control", "prep-control", "switching",
            "echo-control"]

    def test_long_event_spans_many_neighbours(self):
        # One long MuxAOD event on cell 1 under a train of short ones on
        # cell 2: every one of them is a switching violation.
        long = TimelineEvent(Channel.MUX, EventKind.INPUT, 1,
                             start=0.0, duration=50.0, temporal_index=1)
        train = [TimelineEvent(Channel.MUX, EventKind.INPUT, 2,
                               start=1.0 + k, duration=0.3,
                               temporal_index=k + 1) for k in range(20)]
        tl = Timeline(events=(long, *train))
        got = validate_timeline(tl)
        assert as_tuples(got) == as_tuples(pairwise_validate(tl))
        assert sum(v.first is long for v in got) == 20


def window(cell, k, start, duration=0.351):
    return TimelineEvent(Channel.DEMUX, EventKind.ECHO_WINDOW, cell,
                         start=start, duration=duration, temporal_index=k)


def control2(cell, start, temporal_index=None):
    return TimelineEvent(Channel.CONTROL, EventKind.CONTROL2, cell,
                         start=start, duration=3.5,
                         temporal_index=temporal_index)


NOISE = NoiseParams(base_noise_per_window=1e-5, fluorescence_amplitude=6e-5,
                    fluorescence_decay=2.0, dark_rate=0.0)


class TestIndexedLookups:
    def test_duplicate_events_first_match_wins(self):
        early, late = control2(1, 10.0), control2(1, 12.0)
        w_early, w_late = window(1, 1, 20.0), window(1, 1, 21.0, 0.5)
        tl = Timeline(events=(late, w_late, early, w_early))
        assert tl.control_pulse(1, EventKind.CONTROL2) is early
        assert tl.echo_window(1, 1) is w_early
        dt = 20.0 - 13.5
        assert expected_noise_per_mode((1, 1), tl, NOISE) == (
            1e-5 + 6e-5 * math.exp(-dt / 2.0))

    def test_equal_start_duplicates_keep_input_order(self):
        a, b = window(1, 1, 20.0, 0.3), window(1, 1, 20.0, 0.4)
        assert Timeline(events=(a, b)).echo_window(1, 1) is a
        assert Timeline(events=(b, a)).echo_window(1, 1) is b

    def test_control_pulse_ignores_temporal_index(self):
        cp = control2(3, 5.0, temporal_index=4)
        tl = Timeline(events=(cp,))
        assert tl.control_pulse(3, EventKind.CONTROL2) is cp
        with pytest.raises(ConfigError, match="ControlPulse1"):
            tl.control_pulse(3, EventKind.CONTROL1)

    def test_unknown_mode_rejected(self):
        tl = Timeline(events=(control2(1, 0.0), window(1, 1, 10.0)))
        with pytest.raises(ConfigError, match="temporal 2"):
            expected_noise_per_mode((1, 2), tl, NOISE)
        with pytest.raises(ConfigError, match="cell 2"):
            expected_noise_per_mode((2, 1), tl, NOISE)

    def test_window_before_control_pulse_end_rejected(self):
        tl = Timeline(events=(control2(1, 10.0), window(1, 1, 13.0)))
        with pytest.raises(ConfigError, match="before its control pulse"):
            expected_noise_per_mode((1, 1), tl, NOISE)

    def test_equality_and_repr_ignore_the_index(self):
        a, b = control2(1, 0.0), window(1, 1, 10.0)
        tl = Timeline(events=(b, a))
        assert tl == Timeline(events=(a, b))
        assert hash(tl) == hash(Timeline(events=(a, b)))
        assert repr(tl) == (f"Timeline(events={(a, b)!r}, plan=None, "
                            f"constraints=None)")

    @settings(max_examples=100, deadline=None)
    @given(timelines())
    def test_lookups_match_a_linear_scan(self, tl):
        for ev in tl.events:
            if ev.kind in (EventKind.CONTROL1, EventKind.CONTROL2):
                scan = next(e for e in tl.events
                            if e.kind is ev.kind and e.cell_id == ev.cell_id)
                assert tl.control_pulse(ev.cell_id, ev.kind) is scan
            if ev.kind is EventKind.ECHO_WINDOW:
                scan = next(e for e in tl.events
                            if e.kind is EventKind.ECHO_WINDOW
                            and e.cell_id == ev.cell_id
                            and e.temporal_index == ev.temporal_index)
                assert tl.echo_window(ev.cell_id, ev.temporal_index) is scan


class TestEventTimesAreNumbers:
    @pytest.mark.parametrize("field", ["start", "duration"])
    def test_nan_rejected(self, field):
        kw = dict(start=1.0, duration=1.0)
        kw[field] = math.nan
        with pytest.raises(ConfigError, match=field):
            TimelineEvent(Channel.MUX, EventKind.INPUT, 1, **kw)
