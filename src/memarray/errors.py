"""Exception types shared across the package: ConfigError, of which
ModeSetMismatch is one, for every refused input, and CompilationError for
a plan that breaks a timing rule."""

from __future__ import annotations


class ConfigError(Exception):
    """A configuration value, file or run is invalid.

    Carries enough context (path / key / line) for the CLI to print a parse
    diagnostic that points at the offending entry.  A library check that
    holds no path sets ``source`` instead: the input at fault, named by its
    CLI option ("plan", "device", "noise" or "signal"), whose path the CLI
    fills in.  The CLI exits 2 on one, and 1 on a ModeSetMismatch.
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


class ModeSetMismatch(ConfigError):
    """Two count tables, or a count table and its plan, do not cover the
    same spatio-temporal modes: a domain error, which ``main`` exits 1 on.

    ``missing`` maps each side's name, in the order ``check`` received the
    sides, to the sorted modes missing from that side.
    """

    def __init__(self, missing: dict, source: str):
        self.missing = missing
        super().__init__("mode sets differ: " + "; ".join(
            f"missing in {side}: {_listing(modes)}"
            for side, modes in missing.items() if modes), source=source)

    @classmethod
    def check(cls, first, second, sides, source) -> None:
        """Raise unless ``first`` and ``second``, two tuples of unique keys
        in sorted order, are equal; sets are built only to word the error."""
        if first != second:
            raise cls(dict(zip(sides, (tuple(sorted({*second} - {*first})),
                                       tuple(sorted({*first} - {*second}))))),
                      source)
