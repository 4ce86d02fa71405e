"""``check_plan`` decides feasibility: the property behind ``validate``.

``validate`` checks a plan only through ``compile_plan``, which runs
``check_plan`` and then packs the cell blocks by the channels' switching
times.  So over random plans, every plan that ``check_plan`` accepts must
compile to a timeline that the all-pairs event oracle finds clean, with its
first input one mux switch after the preparation, and every plan it refuses
must make ``compile_plan`` refuse it with the same error.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from memarray.device import PulseKind, PulseShape
from memarray.errors import CompilationError, ConfigError
from memarray.sequence import (
    EventKind,
    PREP_US,
    SWITCH_MUX_US,
    SequencePlan,
    TimelineEvent,
    check_plan,
    compile_plan,
)
from timeline_oracle import pairwise_validate


@st.composite
def plans(draw):
    n_cells = draw(st.integers(1, 10))
    cells = tuple(draw(st.permutations(range(1, 11)))[:n_cells])
    return SequencePlan(
        tau=draw(st.floats(1.0, 30.0)),
        t_spin=draw(st.floats(0.0, 20.0)),
        n_temporal=draw(st.integers(1, 12)),
        mean_photon_number=1.0,
        input_shape=PulseShape(PulseKind.GAUSSIAN,
                               fwhm=draw(st.floats(10.0, 1000.0))),
        detection_window=draw(st.floats(10.0, 1000.0)),
        cell_order=cells,
        mode_period=draw(st.one_of(st.none(), st.floats(0.05, 5.0))))


class TestCheckPlanDecidesFeasibility:
    @settings(max_examples=300, deadline=None)
    @given(plans())
    def test_accepted_plans_compile_clean_refused_ones_raise(self, plan):
        try:
            check_plan(plan)
        except CompilationError as refusal:
            with pytest.raises(CompilationError) as again:
                compile_plan(plan)
            assert str(again.value) == str(refusal)
        else:
            timeline = compile_plan(plan)
            assert pairwise_validate(timeline) == []
            first_input = min(e.start for e in timeline
                              if e.kind is EventKind.INPUT)
            assert first_input == PREP_US + SWITCH_MUX_US


class TestEventTimesAreNumbers:
    @pytest.mark.parametrize("field", ["start", "duration"])
    def test_nan_rejected(self, field):
        kw = dict(start=1.0, duration=1.0)
        kw[field] = math.nan
        with pytest.raises(ConfigError, match=field):
            TimelineEvent(EventKind.INPUT, 1, **kw)
