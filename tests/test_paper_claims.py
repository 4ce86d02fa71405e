"""The paper's claims, checked against the shipped model without a draw.

Each figure comes from the shipped config files and ``mode_expectations``
alone, so these tests check the model and not the engine; criterion 5 of
``test_acceptance.py`` checks the engine against the same model through
large draws.  README.md's "Paper claims" table names each test here.
"""

import pytest

from memarray.analysis import crosstalk_matrix
from memarray.defaults import (
    default_device_path,
    default_noise_path,
    default_plan_path,
)
from memarray.io import load_device, load_noise, load_plan
from memarray.simulate import RunKind, TrialCounts, mode_expectations

DEVICE = load_device(default_device_path())
STORAGE_NOISE, _ = load_noise(default_noise_path("storage"),
                              default_dark_rate=DEVICE.dark_count_rate)
SCAN_NOISE, LEAK = load_noise(default_noise_path("crosstalk"),
                              default_dark_rate=DEVICE.dark_count_rate)
PLAN_250 = load_plan(default_plan_path("250mode"))
PLAN_XT = load_plan(default_plan_path("crosstalk"))


def test_ten_cells():
    assert DEVICE.cell_ids == tuple(range(1, 11))
    assert sorted(PLAN_250.cell_order) == list(DEVICE.cell_ids)


def test_250_modes():
    exp = mode_expectations(DEVICE, PLAN_250, STORAGE_NOISE)
    assert len(PLAN_250.modes) == len(set(PLAN_250.modes)) == 250
    assert set(exp.signal) == set(exp.noise) == set(PLAN_250.modes)


def test_pooled_snr_of_250_modes_is_10_within_2():
    # c_S/c_B as analyze defines it: all detected counts of the signal run
    # over those of the noise run, pooled over the plan's modes.
    exp = mode_expectations(DEVICE, PLAN_250, STORAGE_NOISE)
    signal = sum(exp.signal[m] + exp.noise[m] for m in PLAN_250.modes)
    noise = sum(exp.noise[m] for m in PLAN_250.modes)
    assert 8.0 <= signal / noise <= 12.0
    assert round(signal / noise, 2) == 10.04  # the README's model value


def _scan_means():
    """Each ordered cell pair's mean counts per trial in a cross-talk scan,
    as ``run_crosstalk_scan`` defines them, and each cell's no-input mean."""
    exp = mode_expectations(DEVICE, PLAN_XT, SCAN_NOISE)
    ids = LEAK.cell_ids
    pairs = {(i, j): LEAK.leak(i, j) * exp.signal[(i, 1)] + exp.noise[(j, 1)]
             + SCAN_NOISE.offresonant_echo_leak.get((i, j), 0.0)
             for i in ids for j in ids}
    return pairs, {i: exp.noise[(i, 1)] for i in ids}


def test_crosstalk_means_are_their_closed_forms():
    ids, n = LEAK.cell_ids, len(LEAK.cell_ids)
    off = [(i, j) for i in ids for j in ids if i != j]
    leakage = sum(LEAK.leak(i, j) for i, j in off) / len(off)
    # the diagonal is 1, so the off-diagonal sum is the total less n
    assert leakage == pytest.approx(
        (sum(map(sum, LEAK.values)) - n) / (n * (n - 1)), rel=1e-12)
    assert round(leakage, 4) == 0.0071

    pairs, floor = _scan_means()
    ratio = sum(pairs[i, j] / pairs[i, i] for i, j in off) / len(off)
    assert round(ratio, 4) == 0.0271
    # crosstalk_matrix of counts at their means over 10^12 trials reads
    # the closed form up to the rounding of each count, every one of which
    # is above 10^6, to an integer.
    trials = 10 ** 12
    scan = TrialCounts(RunKind.CROSSTALK, tuple(pairs),
                       [round(m * trials) for m in pairs.values()], trials)
    noise = TrialCounts(RunKind.NOISE, tuple((i, 1) for i in floor),
                        [round(m * trials) for m in floor.values()], trials)
    assert min(scan.totals + noise.totals) > 10 ** 6
    matrix = crosstalk_matrix(scan, noise)
    assert matrix.mean_offdiagonal == pytest.approx(ratio, rel=1e-6)
