"""Span recording around the program's layer boundaries, from outside it.

``Tracer.recording()`` rebinds the public names that ``memarray.cli``,
``memarray.simulate`` and ``memarray.io`` look up at call time, wrapping each
in a recorder, and restores them on exit.  A name that a later version of
the program no longer has is skipped.  Spans stay in memory; ``dump`` writes
them out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str       # layer key, e.g. "simulate.draw"
    func: str       # wrapped function
    parent: int | None
    pass_id: object
    start: float
    end: float = 0.0


def _count_validate(tracer, args, kwargs, result):
    timeline = args[0] if args else kwargs.get("timeline")
    with contextlib.suppress(AttributeError, TypeError):
        tracer.add("sequence.events", len(timeline.events))
    with contextlib.suppress(TypeError):
        tracer.add("sequence.violations", len(result))


def _count_compile(tracer, args, kwargs, result):
    tracer.add("sequence.compiles", 1)
    plan = args[0] if args else kwargs.get("plan")
    tracer.plans.add(repr(plan))


def _count_bytes(tracer, args, kwargs, result):
    paths = result if isinstance(result, list) else [result]
    with contextlib.suppress(OSError, TypeError):
        tracer.add("io.bytes_written", sum(Path(p).stat().st_size
                                           for p in paths))


# (module, attribute, layer key, counter).  The modules are given by name so
# that this table imports nothing.
LAYERS = [
    ("memarray.cli", "load_plan", "io.load", None),
    ("memarray.cli", "load_device", "io.load", None),
    ("memarray.cli", "load_noise", "io.load", None),
    ("memarray.cli", "read_counts_csv", "io.counts_read", None),
    ("memarray.io", "CountsFile.to_trial_counts", "io.counts_read", None),
    ("memarray.io", "CountsFile.to_scan", "io.counts_read", None),
    ("memarray.cli", "write_counts_csv", "io.counts_write", _count_bytes),
    ("memarray.cli", "write_mode_stats_csv", "io.stats_write", _count_bytes),
    ("memarray.cli", "write_cumulative_csv", "io.stats_write", _count_bytes),
    ("memarray.cli", "write_projections_csv", "io.stats_write", _count_bytes),
    ("memarray.cli", "write_crosstalk_csvs", "io.stats_write", _count_bytes),
    ("memarray.cli", "write_timeline_csv", "io.stats_write", _count_bytes),
    ("memarray.cli", "write_manifest", "io.manifest", _count_bytes),
    ("memarray.cli", "file_sha256", "io.manifest", None),
    ("memarray.cli", "compile_plan", "sequence.compile", _count_compile),
    ("memarray.simulate", "compile_plan", "sequence.compile", _count_compile),
    ("memarray.cli", "validate_timeline", "sequence.validate", _count_validate),
    ("memarray.cli", "run_trials", "simulate.draw", None),
    ("memarray.cli", "run_crosstalk_scan", "simulate.draw", None),
    ("memarray.simulate", "mode_expectations", "simulate.expectations", None),
    ("memarray.simulate", "expected_noise_per_mode",
     "simulate.expectations", None),
    ("memarray.simulate", "expected_signal_per_mode",
     "simulate.expectations", None),
    ("memarray.cli", "per_mode_stats", "analysis.stats", None),
    ("memarray.cli", "project_cells", "analysis.stats", None),
    ("memarray.cli", "crosstalk_matrix", "analysis.stats", None),
    ("memarray.cli", "cumulative_counts", "analysis.stats", None),
]

class Tracer:
    """Records spans and counters, keyed by pass id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict = {}   # (pass_id, name) -> value
        self.plans: set = set()    # distinct plans compiled in this pass
        self.pass_id: object = None
        self.skipped: list[str] = []
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        key = (self.pass_id, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = Span(id=len(self.spans), name=name,
                    func=getattr(fn, "__qualname__", name),
                    parent=self._stack[-1] if self._stack else None,
                    pass_id=self.pass_id, start=0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def recording(self, pass_id, modules: dict):
        """Trace one pass: spans and counts in the block go to ``pass_id``."""
        self.pass_id, self.plans = pass_id, set()
        try:
            with self.patched(modules):
                yield self
        finally:
            self.add("sequence.plans", len(self.plans))
            self.pass_id = None

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, modules: dict):
        """Install the span wrappers of ``LAYERS`` for the duration of the
        block.  ``modules`` maps module names to imported modules."""
        undo = []
        try:
            for module_name, attr, name, counter in LAYERS:
                owner = modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    if attr not in self.skipped:
                        self.skipped.append(attr)
                    continue
                setattr(owner, leaf, self._wrap(name, original, counter))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def self_times(self) -> dict:
        """(pass_id, layer) -> seconds of that layer's spans not covered by
        their child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict = {}
        for span, inner in zip(self.spans, child_time):
            key = (span.pass_id, span.name)
            out[key] = out.get(key, 0.0) + (span.end - span.start - inner)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
