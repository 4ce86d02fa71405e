"""The manifest text as two library calls write it.

``memarray.io.write_manifest`` emits its JSON in one walk over the payload.
``manifest_text`` here converts the payload to plain JSON values first and
then hands it to ``json.dumps``; the emitter must write the same bytes for
every payload.
"""

import dataclasses
import enum
import json
from pathlib import Path


def jsonable(obj):
    """``obj`` with dataclasses turned into dicts of their fields, enums
    into their values, dict keys into ``str(key)``, tuples into lists and
    paths into strings."""
    # An exact type check, so that enum members that are also str or int
    # still become their values.
    if type(obj) in (str, int, float) or obj is None:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def manifest_text(payload) -> str:
    """The text of a manifest of ``payload``, ending in a newline."""
    return json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
