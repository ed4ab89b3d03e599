"""Deterministic JSON/CSV emission: floats carry 17 significant digits
(lossless double round-trip), key order is insertion order, and file writes
go through a temp file plus rename so outputs are atomic.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .core import UsageError


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps(obj, indent: int | None = None, _level: int = 0) -> str:
    """Serialize to JSON with 17-significant-digit floats.

    Accepts dict/list/tuple/str/bool/None/int/float; numpy scalars and
    arrays should be converted by the caller.
    """
    pad = nl = ""
    if indent is not None:
        nl = "\n"
        pad = " " * (indent * (_level + 1))
        close_pad = " " * (indent * _level)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(key))}: {dumps(value, indent, _level + 1)}" for key, value in obj.items()
        ]
        sep = "," + nl if indent is not None else ", "
        if indent is None:
            return "{" + sep.join(item.strip() for item in items) + "}"
        return "{" + nl + sep.join(items) + nl + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}{dumps(value, indent, _level + 1)}" for value in obj]
        if indent is None:
            return "[" + ", ".join(item.strip() for item in items) + "]"
        return "[" + nl + ("," + nl).join(items) + nl + close_pad + "]"
    raise UsageError(f"cannot serialize {type(obj).__name__}")


def load_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise UsageError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def write_atomic(path, text: str):
    """Write via temp file + rename in the destination directory."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def csv_append(path, header: list[str], row: list):
    """Append one row, creating the file with a header line when absent."""
    path = Path(path)
    line = ",".join(csv_cell(v) for v in row) + "\n"
    if not path.exists():
        path.write_text(",".join(header) + "\n" + line, encoding="utf-8")
    else:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)
