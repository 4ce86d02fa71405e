"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(Exception):
    """A configuration value or file is invalid.

    Carries enough context (path / key / line) for the CLI to print a parse
    diagnostic that points at the offending entry.  A library check that
    holds no path sets ``source`` instead: the input at fault, named by its
    CLI option ("plan", "device", "noise" or "signal"), whose path the CLI
    fills in.
    """

    def __init__(self, message: str, *, path=None, key: str | None = None,
                 line: int | None = None, source: str | None = None):
        self.path = path
        self.key = key
        self.line = line
        self.source = source
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
        return f"{', '.join(where)}: {msg}" if where else msg


class CompilationError(Exception):
    """A storage plan cannot be realised as a legal hardware timeline.

    ``violations`` lists every violated constraint, not just the first.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"plan is infeasible: {lines}")


def _listing(modes: tuple) -> str:
    """The modes as a list; past ten, their count and the first ten."""
    if len(modes) <= 10:
        return str(list(modes))
    return f"{len(modes)} modes, first 10: {list(modes[:10])}"


class ModeSetMismatch(Exception):
    """Two count tables, or a count table and its plan, do not cover the
    same spatio-temporal modes.

    ``sides`` names the two mode sets in the message; the first is the one
    ``missing_in_signal`` is missing from.  ``source`` names the input at
    fault and ``path``, once the CLI has set it, its file, as in a
    ConfigError.
    """

    def __init__(self, missing_in_signal, missing_in_noise, sides, source):
        self.missing_in_signal = tuple(sorted(missing_in_signal))
        self.missing_in_noise = tuple(sorted(missing_in_noise))
        self.source = source
        self.path = None
        parts = [f"missing in {side}: {_listing(missing)}" for side, missing
                 in zip(sides, (self.missing_in_signal, self.missing_in_noise))
                 if missing]
        super().__init__("mode sets differ: " + "; ".join(parts))

    def __str__(self) -> str:
        msg = super().__str__()
        return msg if self.path is None else f"{self.path}: {msg}"

    @classmethod
    def check(cls, first, second, sides, source) -> None:
        """Raise unless ``first`` and ``second``, two tuples of unique keys
        in sorted order, are equal; sets are built only to word the error."""
        if first != second:
            raise cls(set(second) - set(first), set(first) - set(second),
                      sides, source)
