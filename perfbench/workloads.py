"""The benchmark's workloads: which CLI calls make up one pass, and how each
call's outputs are checked.

Every workload is a closed loop of passes; the next pass starts when the
previous one ends.  A workload derives every pass's seeds from its own seed,
so the same seed gives the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import poisson_check, ratio_check, read_counts


@dataclass
class Op:
    """One ``memarray`` CLI call and the check of what it wrote."""

    name: str
    argv: list[str]
    exit_code: int = 0
    check: Callable[[str], list[str]] | None = None  # stdout -> problems
    mode_trials: int = 0


class Model:
    """Poisson means from the program's public model entry points, cached
    per plan.  Used only by checks, never inside a timed pass."""

    def __init__(self, memarray):
        self.m = memarray
        self._cache: dict = {}

    def _path(self, kind: str, value: str) -> Path:
        d = self.m.defaults
        if kind == "plan":
            return d.default_plan_path(value) if value in d.PLANS else Path(value)
        return (d.default_noise_path(value) if value in d.NOISE_MODELS
                else Path(value))

    def _load(self, plan: str, noise: str):
        io = self.m.io
        device = io.load_device(self.m.defaults.default_device_path())
        noise_params, leak = io.load_noise(
            self._path("noise", noise), default_dark_rate=device.dark_count_rate)
        plan_obj = io.load_plan(self._path("plan", plan))
        exp = self.m.simulate.mode_expectations(device, plan_obj, noise_params)
        return exp, noise_params, leak

    def storage(self, plan: str, noise: str) -> dict:
        """{"signal": {(cell, k): mean}, "noise": {...}} per trial."""
        key = ("storage", plan, noise)
        if key not in self._cache:
            exp, _, _ = self._load(plan, noise)
            self._cache[key] = {
                "signal": {k: exp.signal[k] + exp.noise[k] for k in exp.signal},
                "noise": dict(exp.noise)}
        return self._cache[key]

    def scan(self, plan: str, noise: str) -> dict:
        """(input, output) -> per-trial mean of the cross-talk scan:
        leak[i][j] * signal_i + noise + off-resonant echo of (i, j)."""
        key = ("scan", plan, noise)
        if key not in self._cache:
            exp, noise_params, leak = self._load(plan, noise)
            cells = list(leak.cell_ids)
            self._cache[key] = {
                (i, j): (leak.leak(i, j) * exp.signal[(i, 1)] + exp.noise[(j, 1)]
                         + noise_params.offresonant_echo_leak.get((i, j), 0.0))
                for i in cells for j in cells}
        return self._cache[key]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-12)


class Workload:
    """Base class: subclasses set ``name`` and build ``ops(p)``."""

    name = ""
    cycle = 1  # passes per cycle; a measured loop ends on a whole cycle
    pooled_runs = 8  # checked runs of one kind pooled for the final check

    def __init__(self, seed: int, work: Path, model: Model):
        self.seed = seed
        self.work = work
        self.model = model
        self.out = work / "pass"
        # mode -> {pass: (observed, expected)} of the first pooled_runs passes
        self.pools: dict[str, dict] = {}
        self.reference = None  # (argv, counts file name, bytes) to rerun

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def seeds(self, p: int) -> dict:
        """The CLI seed of each run mode in pass ``p``."""
        rng = random.Random(f"{self.name}/{self.seed}/{p}")
        return {mode: rng.randrange(2 ** 31)
                for mode in ("signal", "noise", "crosstalk")}

    def ops(self, p: int) -> list[Op]:
        raise NotImplementedError

    # -- CLI calls ---------------------------------------------------------

    def campaign_start(self, p: int, plan: str) -> list[Op]:
        """A fixed-plan campaign validates its plan once, in pass 0, and
        every later pass bypasses the validator.  This keeps the validator's
        per-pass share small but measured rather than exactly zero."""
        return [self.validate_op(plan)] if p == 0 else []

    def validate_op(self, plan: str, feasible: bool = True) -> Op:
        """``validate``: a feasible plan exits 0 with 0 violations, an
        infeasible one exits 1."""
        def check(stdout: str) -> list[str]:
            return [] if " 0 violations" in stdout else [
                f"validate of a feasible plan printed {stdout.strip()!r}"]

        return Op("validate", ["validate", "--plan", plan],
                  0 if feasible else 1, check if feasible else None)

    def run_op(self, p: int, mode: str, plan: str, noise: str, trials: int,
               means: dict) -> Op:
        seed = self.seeds(p)[mode]
        argv = ["run", "--plan", plan, "--noise", noise, "--trials",
                str(trials), "--seed", str(seed), "--mode", mode,
                "--out-dir", str(self.out)]
        if mode == "crosstalk":
            keys = {(i, j, 1): (i, j) for (i, j) in means}
        else:
            keys = {(c, c, k): (c, k) for (c, k) in means}

        def check(stdout: str) -> list[str]:
            path = self.out / f"counts_{mode}.csv"
            totals = read_counts(path, mode, trials, keys)
            problems = []
            manifest = json.loads((self.out / f"manifest_{mode}.json").read_text())
            if manifest.get("outputs", {}).get(path.name) != _sha256(path):
                problems.append(f"manifest hash of {path.name} does not match")
            observed = {keys[k]: v for k, v in totals.items()}
            expected = {k: trials * m for k, m in means.items()}
            groups = {k: k[0] for k in means}
            problems += poisson_check(observed, expected, groups)
            # Keyed by pass: a replayed pass replaces its first run, so the
            # pool only ever holds independent draws.
            pool = self.pools.setdefault(mode, {})
            if p in pool or len(pool) < self.pooled_runs:
                pool[p] = (observed, expected)
            if self.reference is None:
                self.reference = (argv, path.name, path.read_bytes())
            return problems

        return Op(f"run-{mode}", argv, 0, check, trials * len(means))

    def analyze_op(self, plan: str, signal_mode: str, trials: dict,
                   means: dict) -> Op:
        stats = self.out / "stats"
        argv = ["analyze", "--signal", str(self.out / f"counts_{signal_mode}.csv"),
                "--noise", str(self.out / "counts_noise.csv"), "--out-dir",
                str(stats)]
        if signal_mode == "crosstalk":
            check = lambda stdout: self._check_scan_stats(stats, trials, means)
        else:
            argv += ["--plan", plan, "--device", "10cell"]
            check = lambda stdout: self._check_mode_stats(stats, trials, means)
        return Op("analyze", argv, 0, check)

    def _check_mode_stats(self, stats: Path, trials: dict, means: dict) -> list[str]:
        names = ["mode_stats.csv", "cumulative.csv", "projections.csv"]
        missing = [n for n in names if not (stats / n).is_file()]
        if missing:
            return [f"analyze did not write {missing}"]
        counts = {}
        for mode in ("signal", "noise"):
            keys = {(c, c, k): (c, k) for (c, k) in means}
            totals = read_counts(self.out / f"counts_{mode}.csv", mode,
                                 trials[mode], keys)
            counts[mode] = {keys[k]: v for k, v in totals.items()}
        with (stats / "mode_stats.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        seen = set()
        for row in rows:
            key = (int(row["spatial_mode"]), int(row["temporal_index"]))
            seen.add(key)
            if key not in means or not (
                    _close(float(row["c_signal"]),
                           counts["signal"][key] / trials["signal"])
                    and _close(float(row["c_noise"]),
                               counts["noise"][key] / trials["noise"])):
                return [f"mode_stats.csv row {key} disagrees with the counts"]
        if seen != set(means):
            return ["mode_stats.csv does not cover every mode"]
        with (stats / "cumulative.csv").open(newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        total = sum(counts["signal"].values()) / trials["signal"]
        if not _close(float(last["c_signal_cum"]), total):
            return ["cumulative.csv does not end at the total signal"]
        return []

    def _check_scan_stats(self, stats: Path, trials: dict, means: dict) -> list[str]:
        names = ["crosstalk_matrix.csv", "crosstalk_matrix_err.csv",
                 "crosstalk_summary.csv"]
        missing = [n for n in names if not (stats / n).is_file()]
        if missing:
            return [f"analyze did not write {missing}"]
        keys = {(i, j, 1): (i, j) for (i, j) in means}
        totals = read_counts(self.out / "counts_crosstalk.csv", "crosstalk",
                             trials["crosstalk"], keys)
        counts = {keys[k]: v for k, v in totals.items()}
        with (stats / "crosstalk_matrix.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        outputs = [int(c) for c in rows[0][1:]]
        for row in rows[1:]:
            i = int(row[0])
            for j, text in zip(outputs, row[1:]):
                if counts[(i, i)] == 0:
                    continue
                if not _close(float(text), counts[(i, j)] / counts[(i, i)]):
                    return [f"crosstalk_matrix.csv C[{i},{j}] = {text} is not "
                            f"{counts[(i, j)]}/{counts[(i, i)]}"]
        return ratio_check(counts, means)


class Storage60(Workload):
    name = "storage-60mode"
    plan, noise, trials = "60mode", "storage", 14227

    def ops(self, p: int) -> list[Op]:
        means = self.model.storage(self.plan, self.noise)
        trials = {"signal": self.trials, "noise": self.trials}
        return self.campaign_start(p, self.plan) + [
            self.run_op(p, "signal", self.plan, self.noise, self.trials,
                        means["signal"]),
            self.run_op(p, "noise", self.plan, self.noise, self.trials,
                        means["noise"]),
            self.analyze_op(self.plan, "signal", trials, means["signal"]),
        ]


class CrosstalkScan(Workload):
    name = "crosstalk-scan"
    plan, noise, trials = "crosstalk", "crosstalk", 20000

    def ops(self, p: int) -> list[Op]:
        scan = self.model.scan(self.plan, self.noise)
        floor = self.model.storage(self.plan, self.noise)["noise"]
        trials = {"crosstalk": self.trials, "noise": self.trials}
        return self.campaign_start(p, self.plan) + [
            self.run_op(p, "crosstalk", self.plan, self.noise, self.trials,
                        scan),
            self.run_op(p, "noise", self.plan, self.noise, self.trials, floor),
            self.analyze_op(self.plan, "crosstalk", trials, scan),
        ]


# Control-pulse length and input/window length (us) of the shipped plans;
# the sweep's feasible candidates keep well clear of both limits.
CONTROL_PULSE_US = 3.5
PULSE_US = 0.351

PLAN_TEMPLATE = """\
[plan]
tau_us = {tau:.4f}
t_spin_us = {t_spin:.4f}
n_temporal = {n}
cell_order = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
mean_photon_number = 1.03
detection_window_ns = 351
input_shape = gaussian
input_fwhm_ns = 351
eta_herald = 0.7
g2_source = 100.0
"""


def feasible(n: int, t_spin: float, tau: float) -> bool:
    """Paper's timing rules for a plan that fills its comb window: both
    control pulses fit (t_spin >= cp, tau > cp) and every input and window
    fits in the mode period (tau - cp) / n."""
    return (t_spin >= CONTROL_PULSE_US and tau > CONTROL_PULSE_US
            and (tau - CONTROL_PULSE_US) / n >= PULSE_US)


class Sweep250(Workload):
    name = "sweep-250mode"
    trials = 200
    pooled_runs = 20
    # One cycle: 2 infeasible candidates, then n_temporal per feasible one.
    # The four 25-mode candidates hold the pass-time median.
    feasible_modes = (21, 25, 25, 25, 25, 27, 29, 31)
    cycle = 2 + len(feasible_modes)

    def setup(self) -> None:
        super().setup()
        rng = random.Random(f"{self.name}/{self.seed}")
        grid = [(25, rng.uniform(1.0, 3.0), rng.uniform(22.0, 25.0)),
                (rng.randint(70, 80), rng.uniform(12.0, 25.0),
                 rng.uniform(22.0, 25.0))]
        grid += [(n, rng.uniform(12.0, 25.0), rng.uniform(20.0, 25.0))
                 for n in self.feasible_modes]
        self.candidates = []
        for c, (n, t_spin, tau) in enumerate(grid):
            path = self.work / f"candidate_{c:02d}.ini"
            path.write_text(PLAN_TEMPLATE.format(n=n, t_spin=t_spin, tau=tau))
            self.candidates.append((str(path), feasible(n, t_spin, tau)))
        if [ok for _, ok in self.candidates] != [False] * 2 + [True] * 8:
            raise RuntimeError("sweep grid lost its feasible/infeasible split")

    def candidate(self, p: int) -> tuple[str, bool]:
        order = list(range(self.cycle))
        random.Random(f"{self.name}/{self.seed}/cycle{p // self.cycle}").shuffle(order)
        return self.candidates[order[p % self.cycle]]

    def ops(self, p: int) -> list[Op]:
        plan, ok = self.candidate(p)
        validate = self.validate_op(plan, ok)
        if not ok:
            return [validate]
        means = self.model.storage(plan, "storage")
        trials = {"signal": self.trials, "noise": self.trials}
        return [
            validate,
            self.run_op(p, "signal", plan, "storage", self.trials,
                        means["signal"]),
            self.run_op(p, "noise", plan, "storage", self.trials,
                        means["noise"]),
            self.analyze_op(plan, "signal", trials, means["signal"]),
        ]


WORKLOADS = {w.name: w for w in (Storage60, Sweep250, CrosstalkScan)}
