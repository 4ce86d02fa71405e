"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(Exception):
    """A configuration value or file is invalid.

    Carries enough context (path / key / line) for the CLI to print a parse
    diagnostic that points at the offending entry.
    """

    def __init__(self, message: str, *, path=None, key: str | None = None,
                 line: int | None = None):
        self.path = path
        self.key = key
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        msg = super().__str__()
        where = []
        if self.path is not None:
            where.append(str(self.path))
        if self.line is not None:
            where.append(f"line {self.line}")
        if self.key is not None:
            where.append(f"key '{self.key}'")
        if where:
            return f"{': '.join([', '.join(where), msg])}"
        return msg


class CompilationError(Exception):
    """A storage plan cannot be realised as a legal hardware timeline.

    ``violations`` lists every violated constraint, not just the first.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"plan is infeasible: {lines}")


class ModeSetMismatch(Exception):
    """Two count tables, or a count table and its plan, do not cover the
    same spatio-temporal modes.

    ``sides`` names the two mode sets in the message; the first is the one
    ``missing_in_signal`` is missing from.
    """

    def __init__(self, missing_in_signal, missing_in_noise,
                 sides=("signal run", "noise run")):
        self.missing_in_signal = tuple(sorted(missing_in_signal))
        self.missing_in_noise = tuple(sorted(missing_in_noise))
        parts = [f"missing in {side}: {list(missing)}" for side, missing in
                 zip(sides, (self.missing_in_signal, self.missing_in_noise))
                 if missing]
        super().__init__("mode sets differ: " + "; ".join(parts))

    @classmethod
    def check(cls, first, second, sides=("signal run", "noise run")) -> None:
        """Raise unless ``first`` and ``second`` hold the same keys."""
        if (a := set(first)) != (b := set(second)):
            raise cls(b - a, a - b, sides)
