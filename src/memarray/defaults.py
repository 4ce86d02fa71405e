"""Accessors for the packaged default configuration files.

The package ships a frozen ten-cell device description, three storage plans
(a 60-mode run, a 250-mode run and a single-mode cross-talk scan) and the
matching noise models.  These are ordinary config files; copy and edit them
to describe other hardware.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

PLANS = ("60mode", "250mode", "crosstalk")
NOISE_MODELS = ("storage", "crosstalk")


def data_path(name: str) -> Path:
    path = Path(str(resources.files("memarray").joinpath("data", name)))
    if not path.exists():
        raise FileNotFoundError(f"packaged data file missing: {name}")
    return path


def default_device_path() -> Path:
    return data_path("device_10cell.ini")


def default_plan_path(which: str) -> Path:
    if which not in PLANS:
        raise ValueError(f"unknown plan {which!r}; choose from {PLANS}")
    return data_path(f"plan_{which}.ini")


def default_noise_path(which: str) -> Path:
    if which not in NOISE_MODELS:
        raise ValueError(f"unknown noise model {which!r}; "
                         f"choose from {NOISE_MODELS}")
    return data_path(f"noise_{which}.ini")

