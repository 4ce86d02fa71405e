"""``check_plan`` decides feasibility: the property behind ``validate``.

``validate`` checks a plan only through ``compile_plan``, which runs
``check_plan`` and then packs the cell blocks by the channels' switching
times.  So over random plans and random hardware timings, every plan that
``check_plan`` accepts must compile to a timeline that the all-pairs
event oracle finds clean, and every plan it refuses must make
``compile_plan`` refuse it with the same error.
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
    TimelineEvent,
    TimingConstraints,
    check_plan,
    compile_plan,
)
from timeline_oracle import pairwise_validate

_us = st.floats(0.01, 5.0)


@st.composite
def plans(draw):
    n_cells = draw(st.integers(1, 10))
    cells = tuple(draw(st.permutations(range(1, 11)))[:n_cells])
    storage = StorageConfig(
        tau=draw(st.floats(1.0, 30.0)),
        t_spin=draw(st.floats(0.0, 20.0)),
        n_temporal=draw(st.integers(1, 12)),
        mean_photon_number=1.0,
        input_shape=PulseShape(PulseKind.GAUSSIAN,
                               fwhm=draw(st.floats(10.0, 1000.0))),
        detection_window=draw(st.floats(10.0, 1000.0)))
    period = draw(st.one_of(st.none(), st.floats(0.05, 5.0)))
    return SequencePlan(storage=storage, cell_order=cells, mode_period=period)


timings = st.builds(TimingConstraints, switch_prep=_us, switch_control=_us,
                    switch_mux=_us, switch_demux=_us,
                    control_pulse_duration=_us, prep_duration=_us)


class TestCheckPlanDecidesFeasibility:
    @settings(max_examples=300, deadline=None)
    @given(plans(), timings)
    def test_accepted_plans_compile_clean_refused_ones_raise(self, plan, c):
        try:
            check_plan(plan, c)
        except (CompilationError, ConfigError) as refusal:
            with pytest.raises(type(refusal)) as again:
                compile_plan(plan, c)
            assert str(again.value) == str(refusal)
        else:
            assert pairwise_validate(compile_plan(plan, c), c) == []


class TestEventTimesAreNumbers:
    @pytest.mark.parametrize("field", ["start", "duration"])
    def test_nan_rejected(self, field):
        kw = dict(start=1.0, duration=1.0)
        kw[field] = math.nan
        with pytest.raises(ConfigError, match=field):
            TimelineEvent(Channel.MUX, EventKind.INPUT, 1, **kw)
