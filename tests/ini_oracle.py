"""The INI scanner as it was written before its bulk rewrite: one loop that
handles each line in several Python statements.

``memarray.io._load_ini`` must return the same sections and entries as
``scan`` here, or raise a ConfigError with the same message, key and line,
for every text.
"""

import re
from pathlib import Path

from memarray.errors import ConfigError

_COMMENT_RE = re.compile(r"(?:^|\s)[#;]")


def scan(text: str, path: Path) -> dict[str, dict[str, list]]:
    """Each section's name mapped to its entries: each key to [its text,
    its line]."""
    sections: dict[str, dict[str, list]] = {}
    sec = key = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (_COMMENT_RE.split(raw, 1)[0] if "#" in raw or ";" in raw else raw).strip()
        indent = len(raw) - len(raw.lstrip())
        if not line:
            continue
        if key is not None and indent > key_indent:
            sections[sec][key][0] += "\n" + line
            continue
        if line[0] == "[" and line[-1] == "]" and len(line) > 2:
            if line[1:-1] in sections:
                raise ConfigError(f"duplicate section {line}", path=path, line=lineno)
            sec = line[1:-1]
            sections[sec] = {}
            key = None
            continue
        if sec is None:
            raise ConfigError(f"text before the first section: {line!r}",
                              path=path, line=lineno)
        eq, colon = line.find("="), line.find(":")
        cut = eq if colon < 0 or 0 <= eq < colon else colon
        if cut < 1:
            raise ConfigError(f"expected 'key = value' or a [section] header, "
                              f"got {line!r}", path=path, line=lineno)
        key, key_indent = line[:cut].rstrip().lower(), indent
        if key in sections[sec]:
            raise ConfigError(f"duplicate key in [{sec}]", path=path,
                              key=key, line=lineno)
        sections[sec][key] = [line[cut + 1:].lstrip(), lineno]
    if not sections:
        raise ConfigError("no sections found (empty or comment-only file)", path=path)
    return sections
