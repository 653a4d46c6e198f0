"""Deterministic report serialization.

Reports are plain trees of dicts, lists, numbers, strings, booleans, and
None.  The JSON writer fixes field order (insertion order of the assembled
dicts) and prints floats with 17 significant digits, so identical inputs
serialize byte-identically; the text writer is a lossy human view.
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
        return [to_jsonable(row) for row in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise TypeError("report mapping keys must be strings")
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _format_float(x: float) -> str:
    return format(x, ".17g")


def render_json(value, indent: int = 0) -> str:
    """Serialize with fixed field order and 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str, type(None))) for v in value)
        if flat:
            return "[" + ", ".join(render_json(v, indent + 1) for v in value) + "]"
        rows = [f"{inner}{render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot render value of type {type(value).__name__}")


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
        return "[]" if not v else repr(v)
    return str(v)
