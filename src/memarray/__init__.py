"""Simulator and analysis toolkit for a temporally multiplexed solid-state
quantum memory array.

The package models a ten-cell memory driven through acousto-optic
deflectors: it checks storage plans against the deflectors' timing rules and
compiles them into event timelines, draws single-photon-level Poisson
counting statistics per detection window, characterises inter-cell
cross-talk, and projects network-level figures of merit (adjusted SNR,
heralded g2, time-bin fidelity bound) from measured or simulated counts.
"""

from .device import (
    ArrayDevice,
    CellParams,
    PulseKind,
    PulseShape,
    afc_efficiency_at,
    spin_wave_efficiency,
    window_capture_fraction,
)
from .analysis import (
    CrossTalkMatrix,
    ModeStats,
    NetworkProjection,
    adjusted_snr,
    crosstalk_matrix,
    fidelity_bound,
    g2_inferred,
    per_mode_stats,
    project_cells,
    rescale_signal,
)
from .errors import CompilationError, ConfigError, ModeSetMismatch
from .sequence import (
    Channel,
    EventKind,
    SequencePlan,
    Timeline,
    TimelineEvent,
    check_plan,
    compile_plan,
    control_gap,
    max_temporal_modes,
    trial_duration,
)
from .simulate import (
    LeakageMatrix,
    ModeExpectations,
    NoiseParams,
    RunKind,
    TrialCounts,
    expected_signal_per_mode,
    mode_expectations,
    run_crosstalk_scan,
    run_trials,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayDevice", "CellParams", "PulseKind", "PulseShape",
    "afc_efficiency_at", "spin_wave_efficiency",
    "window_capture_fraction",
    "ConfigError", "CompilationError", "ModeSetMismatch",
    "Channel", "EventKind", "SequencePlan", "Timeline", "TimelineEvent",
    "check_plan", "compile_plan", "control_gap", "max_temporal_modes",
    "trial_duration",
    "LeakageMatrix", "ModeExpectations", "NoiseParams", "RunKind",
    "TrialCounts", "expected_signal_per_mode", "mode_expectations",
    "run_crosstalk_scan", "run_trials",
    "CrossTalkMatrix", "ModeStats", "NetworkProjection", "adjusted_snr",
    "crosstalk_matrix", "fidelity_bound", "g2_inferred",
    "per_mode_stats", "project_cells", "rescale_signal",
    "__version__",
]
