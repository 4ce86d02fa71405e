"""Storage-sequence timing: plan capacity, plan checks, timeline
compilation.

All times are microseconds unless a name says otherwise.  ``check_plan``
tests a plan's timing rules and ``control_gap`` gives each window's distance
from its control pulse in closed form, so a run needs no timeline.  A
compiled timeline is a tuple of events, in time order, on four
acousto-optic deflector channels.  ``compile_plan`` runs ``check_plan``
first and packs the cell blocks by the channels' switching times, so by
construction every timeline it returns keeps each channel's switching time
and overlaps no control pulse with the preparation or with its cell's echo
windows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .device import PulseShape, _check_fraction
from .errors import CompilationError, ConfigError

_TOL = 1e-9  # timing comparisons tolerate this many microseconds of slack

# Fixed timings of the array's deflectors, in us.
PREP_US = 1.0             # the single array-wide preparation slot
CONTROL_PULSE_US = 3.5    # one control pulse
SWITCH_MUX_US = 2.2       # MuxAOD tone change
SWITCH_CONTROL_US = 2.0   # ControlAOD tone change
SWITCH_DEMUX_US = 2.3     # DemuxAOD tone change


def _pulse_exceeds_tau(tau: float) -> str:
    return (f"control pulse ({CONTROL_PULSE_US} us) does not fit within the "
            f"echo delay tau={tau} us")


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


@dataclass(frozen=True)
class TimelineEvent:
    """One interval on one channel, the channel its kind belongs on.

    ``cell_id`` 0 marks array-wide events (preparation); ``temporal_index``
    is 1-based and set only on Input/EchoWindow events.
    """

    kind: EventKind
    cell_id: int
    start: float
    duration: float
    temporal_index: int | None = None

    def __post_init__(self):
        if not self.duration > 0:  # also rejects NaN
            raise ConfigError(f"{self.kind.value} duration must be positive, "
                              f"got {self.duration}")
        if not self.start >= 0:  # also rejects NaN
            raise ConfigError(f"{self.kind.value} start must be >= 0, "
                              f"got {self.start}")

    @property
    def channel(self) -> Channel:
        return _CHANNEL_FOR_KIND[self.kind]

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class SequencePlan:
    """A storage plan, one field per key of a plan file's [plan] section:
    the AFC delay and spin-wave time, the temporal modes per cell and the
    cells to fill, and the single-photon-level input parameters.

    Times are in us, except the detection window and the input pulse's
    FWHM, which are in ns.  ``mode_period`` of None means "fill the
    available span": the period defaults to (tau - CONTROL_PULSE_US) /
    n_temporal.  The deflector timings are the module constants, not part
    of the plan.
    """

    tau: float                 # AFC two-level delay
    t_spin: float              # spin-wave storage time
    n_temporal: int            # temporal modes per cell
    mean_photon_number: float  # calibrated after the multiplexer
    input_shape: PulseShape
    detection_window: float    # ns
    cell_order: tuple[int, ...]
    mode_period: float | None = None
    eta_herald: float = 0.7
    g2_source: float = 100.0

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ConfigError(f"tau must be finite and positive, got {self.tau}")
        if not 0 <= self.t_spin < math.inf:
            raise ConfigError(f"t_spin must be finite and >= 0, got {self.t_spin}")
        if self.n_temporal < 1:
            raise ConfigError(f"n_temporal must be >= 1, got {self.n_temporal}")
        for name in ("mean_photon_number", "detection_window"):
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {v}")
        _check_fraction("eta_herald", self.eta_herald)
        if not 1 <= self.g2_source < math.inf:
            raise ConfigError(f"g2_source must be finite and >= 1, "
                              f"got {self.g2_source}")
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
        ks = range(1, self.n_temporal + 1)
        return tuple((cell, k) for cell in self.cell_order for k in ks)

    def resolved_mode_period(self) -> float:
        """The given mode period, or the default one; a default period with
        no room for the control pulse within tau is a CompilationError."""
        if self.mode_period is not None:
            return self.mode_period
        span = self.tau - CONTROL_PULSE_US
        if span <= 0:
            raise CompilationError([_pulse_exceeds_tau(self.tau)])
        return span / self.n_temporal

    @property
    def input_duration(self) -> float:
        """Input pulse duration in us (FWHM is stored in ns)."""
        return self.input_shape.fwhm * 1e-3

    @property
    def window_duration(self) -> float:
        """Detection window duration in us."""
        return self.detection_window * 1e-3


def max_temporal_modes(tau: float, mode_period: float) -> int:
    """How many input modes fit before the first control pulse must fire.

    The control pulse (CONTROL_PULSE_US) has to complete within the echo
    delay ``tau``, so the usable span is tau - cp and the capacity is
    floor((tau - cp) / period).  Returns 0 when nothing fits, including when
    the control pulse alone fills tau.
    """
    if tau <= 0 or mode_period <= 0:
        raise ConfigError("tau and mode_period must both be positive")
    span = tau - CONTROL_PULSE_US
    return max(0, math.floor(span / mode_period + _TOL))


def control_gap(plan: SequencePlan, temporal_index: int) -> float:
    """Time from the end of the second control pulse to the start of echo
    window ``temporal_index`` (1-based).  Early modes re-emerge sooner after
    the control pulse, so this gap sets how much control-induced
    fluorescence each window sees.
    """
    if not 1 <= temporal_index <= plan.n_temporal:
        raise ConfigError(f"temporal_index must be in 1..{plan.n_temporal}, "
                          f"got {temporal_index}")
    p = plan.resolved_mode_period()
    return (plan.tau - CONTROL_PULSE_US - plan.input_duration
            - (plan.n_temporal - temporal_index) * p)


def _block_spacing(plan: SequencePlan, period: float) -> float:
    """Smallest start-to-start offset between consecutive cell blocks that
    satisfies every same-channel switching constraint."""
    span_in = (plan.n_temporal - 1) * period
    mux = span_in + plan.input_duration + SWITCH_MUX_US
    control = plan.t_spin + CONTROL_PULSE_US + SWITCH_CONTROL_US
    demux = span_in + plan.window_duration + SWITCH_DEMUX_US
    return max(mux, control, demux)


def check_plan(plan: SequencePlan) -> float:
    """Check the plan's timing rules without laying out a timeline and
    return its resolved mode period.

    The rules, against the module's fixed deflector timings: the temporal
    modes fit the capacity left by the control pulse within tau, the input
    pulse and the detection window each fit one mode period, the spin pause
    holds one control pulse, and the last input plus the first control pulse
    end within tau.  Raises CompilationError listing every broken rule; a
    plan without ``mode_period`` whose tau holds no control pulse has no
    period to check the others against, so it fails on that rule alone.
    """
    cp = CONTROL_PULSE_US
    period = plan.resolved_mode_period()
    dur_in = plan.input_duration
    w = plan.window_duration

    problems: list[str] = []
    capacity = max_temporal_modes(plan.tau, period)
    if cp >= plan.tau:
        problems.append(_pulse_exceeds_tau(plan.tau))
    elif plan.n_temporal > capacity:
        problems.append(
            f"{plan.n_temporal} temporal modes exceed the capacity of "
            f"{capacity} for tau={plan.tau} us, period={period:g} us, "
            f"control pulse={cp} us")
    if dur_in > period + _TOL:
        problems.append(f"input pulse ({dur_in:g} us) is longer than the "
                        f"mode period ({period:g} us)")
    if w > period + _TOL:
        problems.append(f"detection window ({w:g} us) is longer than the "
                        f"mode period ({period:g} us)")
    if plan.t_spin < cp - _TOL:
        problems.append(f"spin pause ({plan.t_spin} us) is shorter than one "
                        f"control pulse ({cp} us); the two control pulses "
                        f"would overlap")
    # Last input plus the first control pulse must clear the echo delay.
    lead = (plan.n_temporal - 1) * period + dur_in + cp
    if lead > plan.tau + _TOL:
        problems.append(
            f"last input plus control pulse end at {lead:g} us after the "
            f"first input, beyond the echo delay tau={plan.tau} us")
    if problems:
        raise CompilationError(problems)
    return period


def compile_plan(plan: SequencePlan) -> tuple[TimelineEvent, ...]:
    """Lay out one full trial for ``plan``: its events in time order.

    Per cell block: n_temporal input pulses one mode period apart, the first
    control pulse immediately after the last input, the second one spin-pause
    later, and one echo window per input at input start + tau + t_spin.
    Blocks are packed as tightly as the per-channel switching times allow.
    Events are sorted by start, then channel, cell and temporal index.
    Raises CompilationError listing every rule of ``check_plan`` it breaks.
    """
    period = check_plan(plan)
    cp = CONTROL_PULSE_US
    dur_in = plan.input_duration
    w = plan.window_duration

    events = [TimelineEvent(EventKind.PREPARE, 0, start=0.0,
                            duration=PREP_US)]
    block_start = PREP_US + SWITCH_MUX_US
    spacing = _block_spacing(plan, period)
    for cell in plan.cell_order:
        t0 = block_start
        for k in range(1, plan.n_temporal + 1):
            events.append(TimelineEvent(
                EventKind.INPUT, cell, start=t0 + (k - 1) * period,
                duration=dur_in, temporal_index=k))
        cp1_start = t0 + (plan.n_temporal - 1) * period + dur_in
        events.append(TimelineEvent(EventKind.CONTROL1, cell,
                                    start=cp1_start, duration=cp))
        events.append(TimelineEvent(EventKind.CONTROL2, cell,
                                    start=cp1_start + plan.t_spin, duration=cp))
        for k in range(1, plan.n_temporal + 1):
            events.append(TimelineEvent(
                EventKind.ECHO_WINDOW, cell,
                start=t0 + (k - 1) * period + plan.tau + plan.t_spin,
                duration=w, temporal_index=k))
        block_start += spacing

    return tuple(sorted(events, key=lambda e: (e.start, e.channel.value,
                                               e.cell_id,
                                               e.temporal_index or 0)))


def trial_duration(events) -> float:
    """Span of one trial: end of the last event minus start of the first."""
    if not events:
        raise ConfigError("cannot take the duration of an empty timeline")
    return max(ev.end for ev in events) - min(ev.start for ev in events)
