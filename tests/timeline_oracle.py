"""Oracles that read a compiled timeline event by event.

The library checks a plan's timing rules with ``check_plan`` and takes each
window's noise from the closed-form ``control_gap``; it never inspects a
laid-out timeline.  The functions here do, so tests can check both against
the events themselves:

- ``pairwise_validate`` compares every pair of events against the three
  event-pair timing rules.  Every plan that ``check_plan`` accepts must
  compile to a timeline it finds clean.
- ``expected_noise_per_mode`` reads each window's noise from its distance
  to the control pulse on the timeline; ``mode_expectations`` must agree
  with it on every compiled plan.
- ``timeline_span`` reads a trial's span off its events; the closed-form
  ``trial_duration`` must equal it, to the bit, on every compiled plan.
"""

import math
from dataclasses import dataclass, field

from memarray.errors import ConfigError
from memarray.sequence import (
    SWITCH_CONTROL_US,
    SWITCH_DEMUX_US,
    SWITCH_MUX_US,
    Channel,
    EventKind,
)

_TOL = 1e-9  # the library's timing slack, in microseconds
_CONTROL_KINDS = (EventKind.CONTROL1, EventKind.CONTROL2)
# Switching time of each channel, in us.  A trial has one preparation, so
# the PrepAOD never retargets; its 1.4 us only completes the table.
SWITCHING_US = {Channel.PREP: 1.4, Channel.MUX: SWITCH_MUX_US,
                Channel.CONTROL: SWITCH_CONTROL_US,
                Channel.DEMUX: SWITCH_DEMUX_US}


@dataclass(frozen=True)
class Violation:
    """One broken timing rule between two events, ``first`` starting no
    later than ``second``."""

    rule: str
    first: object
    second: object
    message: str = field(compare=False, default="")


def _overlaps(a, b):
    lo = max(a.start, b.start)
    hi = min(a.end, b.end)
    return hi - lo > _TOL  # touching intervals do not overlap


def pairwise_validate(events):
    """Every broken rule among all pairs of a timeline's ``events``, in
    timeline order.

    Rules:
      switching    - events on one channel addressing different cells must
                     be separated by that channel's switching time;
      prep-control - preparation must never overlap a control pulse;
      echo-control - an echo window must never overlap a control pulse on
                     the same cell.
    """
    out = []
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            first, second = (a, b) if a.start <= b.start else (b, a)
            if a.channel is b.channel and a.cell_id != b.cell_id:
                need = SWITCHING_US[a.channel]
                gap = second.start - first.end
                if gap < need - _TOL:
                    out.append(Violation(
                        rule="switching", first=first, second=second,
                        message=(f"{a.channel.value} retargets cell "
                                 f"{first.cell_id} -> {second.cell_id} after "
                                 f"{gap:.6g} us; needs {need} us")))
            if {a.kind, b.kind} & set(_CONTROL_KINDS):
                other = b if a.kind in _CONTROL_KINDS else a
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


def timeline_span(events) -> float:
    """Span of one trial: end of the last event minus start of the first."""
    if not events:
        raise ConfigError("cannot take the duration of an empty timeline")
    return max(ev.end for ev in events) - min(ev.start for ev in events)


def first_event(timeline, kind, cell_id, temporal_index=None):
    """The earliest ``kind`` event on ``cell_id`` (with ``temporal_index``,
    when given), by a scan of the events in timeline order."""
    for ev in timeline:
        if (ev.kind is kind and ev.cell_id == cell_id
                and temporal_index in (None, ev.temporal_index)):
            return ev
    raise ConfigError(f"no {kind.value} event for cell {cell_id}, "
                      f"temporal index {temporal_index}")


def expected_noise_per_mode(mode, timeline, noise):
    """Mean noise counts in the detection window of one (cell, temporal
    index) mode of a compiled timeline.

    Control-pulse fluorescence decays with the gap between the second
    control pulse and the window, so early temporal modes are the noisiest.
    """
    cell_id, k = mode
    window = first_event(timeline, EventKind.ECHO_WINDOW, cell_id, k)
    cp2 = first_event(timeline, EventKind.CONTROL2, cell_id)
    dt = window.start - cp2.end
    if dt < 0:
        raise ConfigError(
            f"echo window of mode (cell {cell_id}, temporal {k}) opens "
            f"{-dt:g} us before its control pulse has finished")
    window_seconds = window.duration * 1e-6
    return (noise.base_noise_per_window
            + noise.fluorescence_amplitude * math.exp(-dt / noise.fluorescence_decay)
            + noise.dark_rate * window_seconds)


def assert_noise_matches_timeline(plan, timeline, noise, exp):
    """Each noise mean of ``exp`` (the plan's ``mode_expectations``) agrees
    with the oracle on ``timeline`` (the compiled plan) to 1e-12, and every
    cell block has exactly the same noise vector."""
    for mode in plan.modes:
        want = expected_noise_per_mode(mode, timeline, noise)
        got = exp.noise[mode]
        assert math.isclose(got, want, rel_tol=1e-12), (mode, got, want)
    ks = range(1, plan.n_temporal + 1)
    vectors = {tuple(exp.noise[(cell, k)] for k in ks)
               for cell in plan.cell_order}
    assert len(vectors) == 1
