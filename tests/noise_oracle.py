"""The timeline oracle for per-window noise means.

``expected_noise_per_mode`` below is a verbatim copy of the function the
library used to read each window's noise from a compiled timeline.  It is
kept only here, as the reference: ``mode_expectations`` computes the same
means from the plan's closed-form control gaps, without a timeline, and
must agree with this on every compiled plan.
"""

import math

from memarray.errors import ConfigError
from memarray.sequence import EventKind


def expected_noise_per_mode(mode, timeline, noise):
    """Mean noise counts in the detection window of one (cell, temporal
    index) mode of a compiled timeline.

    Control-pulse fluorescence decays with the gap between the second
    control pulse and the window, so early temporal modes are the noisiest.
    """
    cell_id, k = mode
    window = timeline.echo_window(cell_id, k)
    cp2 = timeline.control_pulse(cell_id, EventKind.CONTROL2)
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
    ks = range(1, plan.storage.n_temporal + 1)
    vectors = {tuple(exp.noise[(cell, k)] for k in ks)
               for cell in plan.cell_order}
    assert len(vectors) == 1
