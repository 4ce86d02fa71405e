"""Storage-sequence timing: plan capacity, timeline compilation, validation.

All times are microseconds unless a name says otherwise.  A compiled timeline
is a flat list of events on four acousto-optic deflector channels; validation
re-derives every pairwise constraint from the events alone, so a timeline can
be checked independently of how it was produced.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

from .device import StorageConfig
from .errors import CompilationError, ConfigError

log = logging.getLogger(__name__)

_TOL = 1e-9  # timing comparisons tolerate this many microseconds of slack


class Channel(enum.Enum):
    """Deflector channels that carry timeline events."""

    PREP = "PrepAOD"
    MUX = "MuxAOD"
    CONTROL = "ControlAOD"
    DEMUX = "DemuxAOD"


class EventKind(enum.Enum):
    PREPARE = "Prepare"
    INPUT = "Input"
    CONTROL1 = "ControlPulse1"
    CONTROL2 = "ControlPulse2"
    ECHO_WINDOW = "EchoWindow"


_CHANNEL_FOR_KIND = {
    EventKind.PREPARE: Channel.PREP,
    EventKind.INPUT: Channel.MUX,
    EventKind.CONTROL1: Channel.CONTROL,
    EventKind.CONTROL2: Channel.CONTROL,
    EventKind.ECHO_WINDOW: Channel.DEMUX,
}
_CONTROL_KINDS = (EventKind.CONTROL1, EventKind.CONTROL2)


@dataclass(frozen=True)
class TimelineEvent:
    """One interval on one channel.

    ``cell_id`` 0 marks array-wide events (preparation); ``temporal_index``
    is 1-based and set only on Input/EchoWindow events.
    """

    channel: Channel
    kind: EventKind
    cell_id: int
    start: float
    duration: float
    temporal_index: int | None = None

    def __post_init__(self):
        if _CHANNEL_FOR_KIND[self.kind] is not self.channel:
            raise ConfigError(f"{self.kind.value} events belong on "
                              f"{_CHANNEL_FOR_KIND[self.kind].value}, "
                              f"not {self.channel.value}")
        if not self.duration > 0:  # also rejects NaN
            raise ConfigError(f"{self.kind.value} duration must be positive, "
                              f"got {self.duration}")
        if not self.start >= 0:  # also rejects NaN
            raise ConfigError(f"{self.kind.value} start must be >= 0, "
                              f"got {self.start}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class TimingConstraints:
    """Hardware switching/settling times and control-pulse parameters."""

    switch_prep: float = 1.4        # us, PrepAOD tone change
    switch_control: float = 2.0     # us, ControlAOD tone change
    switch_mux: float = 2.2         # us, MuxAOD tone change
    switch_demux: float = 2.3       # us, DemuxAOD tone change
    control_pulse_duration: float = 3.5  # us
    prep_duration: float = 1.0      # us, single array-wide preparation slot

    def __post_init__(self):
        for name in ("switch_prep", "switch_mux", "switch_control",
                     "switch_demux", "control_pulse_duration",
                     "prep_duration"):
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {v}")

    def switching_time(self, channel: Channel) -> float:
        return {
            Channel.PREP: self.switch_prep,
            Channel.MUX: self.switch_mux,
            Channel.CONTROL: self.switch_control,
            Channel.DEMUX: self.switch_demux,
        }[channel]


@dataclass(frozen=True)
class SequencePlan:
    """A storage plan: what to store, where, and with what spacing.

    ``mode_period`` of None means "fill the available span": the period
    defaults to (tau - control_pulse_duration) / n_temporal at compile time.
    """

    storage: StorageConfig
    cell_order: tuple[int, ...]
    mode_period: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "cell_order", tuple(self.cell_order))
        if not self.cell_order:
            raise ConfigError("cell_order must name at least one cell")
        if any(c < 1 for c in self.cell_order):
            raise ConfigError("cell ids must be >= 1")
        if len(set(self.cell_order)) != len(self.cell_order):
            raise ConfigError("cell_order must not repeat a cell within a trial")
        if (self.mode_period is not None
                and not 0 < self.mode_period < math.inf):
            raise ConfigError(f"mode_period must be finite and positive "
                              f"when given, got {self.mode_period}")

    @property
    def modes(self) -> tuple[tuple[int, int], ...]:
        """(cell, k) for each cell of cell_order and k in 1..n_temporal: the
        mode order of counts, expected means and cumulative series."""
        ks = range(1, self.storage.n_temporal + 1)
        return tuple((cell, k) for cell in self.cell_order for k in ks)

    def resolved_mode_period(self, constraints: TimingConstraints) -> float:
        if self.mode_period is not None:
            return self.mode_period
        span = self.storage.tau - constraints.control_pulse_duration
        if span <= 0:
            raise ConfigError(
                f"tau={self.storage.tau} leaves no room for a "
                f"{constraints.control_pulse_duration} us control pulse")
        return span / self.storage.n_temporal

    @property
    def input_duration(self) -> float:
        """Input pulse duration in us (FWHM is stored in ns)."""
        return self.storage.input_shape.fwhm * 1e-3

    @property
    def window_duration(self) -> float:
        """Detection window duration in us."""
        return self.storage.detection_window * 1e-3


def max_temporal_modes(tau: float, mode_period: float,
                       control_pulse_duration: float) -> int:
    """How many input modes fit before the first control pulse must fire.

    The control pulse (duration ``control_pulse_duration``) has to complete
    within the echo delay ``tau``, so the usable span is tau - cp and the
    capacity is floor((tau - cp) / period).  Returns 0 when nothing fits.
    """
    if tau <= 0 or mode_period <= 0 or control_pulse_duration <= 0:
        raise ConfigError("tau, mode_period and control_pulse_duration must "
                          "all be positive")
    if control_pulse_duration >= tau:
        log.warning("control pulse (%g us) does not fit within the echo "
                    "delay (%g us); capacity is zero",
                    control_pulse_duration, tau)
        return 0
    span = tau - control_pulse_duration
    return int(math.floor(span / mode_period + _TOL))


@dataclass(frozen=True)
class Timeline:
    """A compiled trial: events sorted by start time, plus its inputs.

    Echo windows are indexed by (kind, cell, temporal index) and control
    pulses by (kind, cell); where several events share a key, the earliest
    in ``events`` wins.
    """

    events: tuple[TimelineEvent, ...]
    plan: SequencePlan | None = None
    constraints: TimingConstraints | None = None
    _first: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.events,
                               key=lambda e: (e.start, e.channel.value,
                                              e.cell_id,
                                              e.temporal_index or 0)))
        object.__setattr__(self, "events", ordered)
        first: dict = {}
        for ev in ordered:
            if ev.kind is EventKind.ECHO_WINDOW:
                first.setdefault((ev.kind, ev.cell_id, ev.temporal_index), ev)
            elif ev.kind in _CONTROL_KINDS:
                first.setdefault((ev.kind, ev.cell_id), ev)
        object.__setattr__(self, "_first", first)

    def echo_window(self, cell_id: int, temporal_index: int) -> TimelineEvent:
        """The detection window of mode (cell, temporal index)."""
        try:
            return self._first[(EventKind.ECHO_WINDOW, cell_id,
                                temporal_index)]
        except KeyError:
            raise ConfigError(f"mode (cell {cell_id}, temporal "
                              f"{temporal_index}) is not in the "
                              f"timeline") from None

    def control_pulse(self, cell_id: int, kind: EventKind) -> TimelineEvent:
        """The first ``kind`` control pulse on ``cell_id``, whatever its
        temporal index."""
        try:
            return self._first[(kind, cell_id)]
        except KeyError:
            raise ConfigError(f"no {kind.value} event for cell "
                              f"{cell_id}") from None


def control_gap(plan: SequencePlan, constraints: TimingConstraints,
                temporal_index: int) -> float:
    """Time from the end of the second control pulse to the start of echo
    window ``temporal_index`` (1-based).  Early modes re-emerge sooner after
    the control pulse, so this gap sets how much control-induced
    fluorescence each window sees.
    """
    cfg = plan.storage
    if not 1 <= temporal_index <= cfg.n_temporal:
        raise ConfigError(f"temporal_index must be in 1..{cfg.n_temporal}, "
                          f"got {temporal_index}")
    p = plan.resolved_mode_period(constraints)
    return (cfg.tau - constraints.control_pulse_duration - plan.input_duration
            - (cfg.n_temporal - temporal_index) * p)


def _block_spacing(plan: SequencePlan, constraints: TimingConstraints,
                   period: float) -> float:
    """Smallest start-to-start offset between consecutive cell blocks that
    satisfies every same-channel switching constraint."""
    cfg = plan.storage
    span_in = (cfg.n_temporal - 1) * period
    mux = span_in + plan.input_duration + constraints.switch_mux
    control = (cfg.t_spin + constraints.control_pulse_duration
               + constraints.switch_control)
    demux = span_in + plan.window_duration + constraints.switch_demux
    return max(mux, control, demux)


def compile_plan(plan: SequencePlan,
                 constraints: TimingConstraints = TimingConstraints(),
                 ) -> Timeline:
    """Lay out one full trial for ``plan``.

    Per cell block: n_temporal input pulses one mode period apart, the first
    control pulse immediately after the last input, the second one spin-pause
    later, and one echo window per input at input start + tau + t_spin.
    Blocks are packed as tightly as the per-channel switching times allow.
    Raises CompilationError listing every unsatisfiable requirement.
    """
    cfg = plan.storage
    cp = constraints.control_pulse_duration
    period = plan.resolved_mode_period(constraints)
    dur_in = plan.input_duration
    w = plan.window_duration

    problems: list[str] = []
    capacity = max_temporal_modes(cfg.tau, period, cp) if cp < cfg.tau else 0
    if cp >= cfg.tau:
        problems.append(f"control pulse ({cp} us) does not fit within the "
                        f"echo delay tau={cfg.tau} us")
    elif cfg.n_temporal > capacity:
        problems.append(
            f"{cfg.n_temporal} temporal modes exceed the capacity of "
            f"{capacity} for tau={cfg.tau} us, period={period:g} us, "
            f"control pulse={cp} us")
    if dur_in > period + _TOL:
        problems.append(f"input pulse ({dur_in:g} us) is longer than the "
                        f"mode period ({period:g} us)")
    if w > period + _TOL:
        problems.append(f"detection window ({w:g} us) is longer than the "
                        f"mode period ({period:g} us)")
    if cfg.t_spin < cp - _TOL:
        problems.append(f"spin pause ({cfg.t_spin} us) is shorter than one "
                        f"control pulse ({cp} us); the two control pulses "
                        f"would overlap")
    # Last input plus the first control pulse must clear the echo delay.
    lead = (cfg.n_temporal - 1) * period + dur_in + cp
    if lead > cfg.tau + _TOL:
        problems.append(
            f"last input plus control pulse end at {lead:g} us after the "
            f"first input, beyond the echo delay tau={cfg.tau} us")
    if problems:
        raise CompilationError(problems)

    events = [TimelineEvent(Channel.PREP, EventKind.PREPARE, 0,
                            start=0.0, duration=constraints.prep_duration)]
    block_start = constraints.prep_duration + constraints.switch_mux
    spacing = _block_spacing(plan, constraints, period)
    for cell in plan.cell_order:
        t0 = block_start
        for k in range(1, cfg.n_temporal + 1):
            events.append(TimelineEvent(
                Channel.MUX, EventKind.INPUT, cell,
                start=t0 + (k - 1) * period, duration=dur_in,
                temporal_index=k))
        cp1_start = t0 + (cfg.n_temporal - 1) * period + dur_in
        events.append(TimelineEvent(Channel.CONTROL, EventKind.CONTROL1, cell,
                                    start=cp1_start, duration=cp))
        events.append(TimelineEvent(Channel.CONTROL, EventKind.CONTROL2, cell,
                                    start=cp1_start + cfg.t_spin, duration=cp))
        for k in range(1, cfg.n_temporal + 1):
            events.append(TimelineEvent(
                Channel.DEMUX, EventKind.ECHO_WINDOW, cell,
                start=t0 + (k - 1) * period + cfg.tau + cfg.t_spin,
                duration=w, temporal_index=k))
        block_start += spacing

    return Timeline(events=tuple(events), plan=plan, constraints=constraints)


def trial_duration(timeline: Timeline) -> float:
    """Span of one trial: end of the last event minus start of the first."""
    if not timeline.events:
        raise ConfigError("cannot take the duration of an empty timeline")
    return (max(ev.end for ev in timeline.events)
            - min(ev.start for ev in timeline.events))


@dataclass(frozen=True)
class Violation:
    """One broken timing rule, as data (validators report, never raise)."""

    rule: str
    first: TimelineEvent
    second: TimelineEvent
    message: str = field(compare=False, default="")


def _overlaps(a: TimelineEvent, b: TimelineEvent) -> bool:
    lo = max(a.start, b.start)
    hi = min(a.end, b.end)
    return hi - lo > _TOL  # touching intervals do not overlap


def _pairs_within(group: list[tuple[int, TimelineEvent]], reach: float):
    """Yield ``(i, a, j, b)`` for the pairs of ``group`` (timeline index,
    event; in timeline order), skipping pairs in which ``b`` starts
    ``reach`` or more after ``a`` ends.

    The scan from ``a`` stops at the first such ``b``: later events start no
    earlier, and floating-point subtraction is monotonic, so every later
    pair would be skipped too.
    """
    for n, (i, a) in enumerate(group):
        for m in range(n + 1, len(group)):
            j, b = group[m]
            if b.start - a.end >= reach:
                break
            yield i, a, j, b


def validate_timeline(timeline: Timeline,
                      constraints: TimingConstraints | None = None,
                      ) -> list[Violation]:
    """Timing check of a compiled timeline, by a sweep over its events.

    Rules:
      switching  - events on one channel addressing different cells must be
                   separated by that channel's switching time;
      prep-control - preparation must never overlap a control pulse;
      echo-control - an echo window must never overlap a control pulse on
                   the same cell.

    Each event is compared only with the later events of its group that
    start within reach of its end: on its channel, within the switching
    time; for the overlap rules, before it ends.  The result lists every
    violated pair in timeline order, exactly as a check of all pairs would.
    """
    constraints = constraints or timeline.constraints or TimingConstraints()
    channels: dict = {}
    prep_control: list = []
    echo_control: dict = {}
    for i, ev in enumerate(timeline.events):
        channels.setdefault(ev.channel, []).append((i, ev))
        if ev.kind in _CONTROL_KINDS or ev.kind is EventKind.PREPARE:
            prep_control.append((i, ev))
        if ev.kind in _CONTROL_KINDS or ev.kind is EventKind.ECHO_WINDOW:
            echo_control.setdefault(ev.cell_id, []).append((i, ev))

    found: list[tuple[int, int, Violation]] = []
    for channel, group in channels.items():
        need = constraints.switching_time(channel)
        for i, a, j, b in _pairs_within(group, need - _TOL):
            gap = b.start - a.end
            if a.cell_id != b.cell_id and gap < need - _TOL:
                found.append((i, j, Violation(
                    rule="switching", first=a, second=b,
                    message=(f"{channel.value} retargets cell "
                             f"{a.cell_id} -> {b.cell_id} after "
                             f"{gap:.6g} us; needs {need} us"))))
    # Two intervals overlap only if the later one starts more than _TOL
    # before the earlier one ends.
    for i, a, j, b in _pairs_within(prep_control, -_TOL):
        if ((a.kind in _CONTROL_KINDS) != (b.kind in _CONTROL_KINDS)
                and _overlaps(a, b)):
            found.append((i, j, Violation(
                rule="prep-control", first=a, second=b,
                message="preparation overlaps a control pulse")))
    for cell_id, group in echo_control.items():
        for i, a, j, b in _pairs_within(group, -_TOL):
            if ((a.kind in _CONTROL_KINDS) != (b.kind in _CONTROL_KINDS)
                    and _overlaps(a, b)):
                found.append((i, j, Violation(
                    rule="echo-control", first=a, second=b,
                    message=(f"echo window overlaps a control pulse on "
                             f"cell {cell_id}"))))
    # Each rule pairs its own combination of channels, so no pair breaks two.
    found.sort(key=lambda item: item[:2])
    return [v for _, _, v in found]
