"""Deterministic report serialization.

`to_jsonable` turns a report into a plain tree of dicts, lists, numbers,
strings, booleans, and None.  The JSON writer is `json.dumps` on that tree:
one line, fields in insertion order, floats in Python's shortest round-trip
form, so identical inputs serialize byte-identically; the text writer is a
lossy human view.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np


def input_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def to_jsonable(value):
    """Recursively convert dataclasses, arrays, and numpy scalars to plain data.

    Infinite floats become None, mirroring the null encoding used by the
    input files; NaN is rejected outright.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("NaN is not representable in reports")
        if math.isinf(value):
            return None
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return to_jsonable(float(value))
    if isinstance(value, np.ndarray):
        return to_jsonable(value.tolist())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise TypeError("report mapping keys must be strings")
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def render_json(value) -> str:
    """One line of JSON: fields in insertion order, floats in their shortest
    round-trip form; NaN and infinities raise ValueError."""
    return json.dumps(value, allow_nan=False)


def render_text(value, indent: int = 0) -> str:
    """Indented human-readable rendering of a report tree."""
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list, tuple)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
        return "\n".join(lines)
    if isinstance(value, (list, tuple)):
        for v in value:
            if isinstance(v, (dict, list, tuple)) and v:
                lines.append(f"{pad}-")
                lines.append(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
        return "\n".join(lines)
    return f"{pad}{_scalar_text(value)}"


def _scalar_text(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v)  # render_text passes only empty ones: {} or []
    return str(v)
