"""Deterministic JSON/CSV emission: floats carry 17 significant digits
(lossless double round-trip), key order is insertion order, and file writes
go through a temp file plus rename so outputs are atomic.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
from pathlib import Path

import numpy as np

from .core import Configuration, PairIndex, UsageError

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# The string escaping of json.dumps (ASCII output, \uXXXX for the rest).
_escape = json.encoder.encode_basestring_ascii


def format_float(x: float) -> str:
    text = format(x, ".17g")
    return _NON_FINITE.get(text, text)


def dumps(obj) -> str:
    """Serialize a document as JSON, indented by two spaces per level, with
    17-significant-digit floats and strings escaped as json.dumps does.

    Besides dict/list/tuple/str/bool/None/int/float it encodes the package's
    records: a dataclass as an object of its fields in declaration order, an
    Enum as its value, a PairIndex as [i, j], a Configuration as its
    to_json_dict() and a numpy array as its elements.  A record's block keys
    are its field names, so renaming a field changes the documents.
    """
    return _encode(obj, "\n")


def _encode(obj, newline: str) -> str:
    """obj as JSON; newline is a line break plus the current indentation."""
    if isinstance(obj, float):
        return format_float(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _escape(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{_escape(str(key))}: {_encode(value, inner)}" for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_encode(value, inner) for value in obj) + newline + "]"
    return _encode(_plain(obj), newline)


def _plain(record):
    """The dict, list or scalar a record is written as."""
    if isinstance(record, np.ndarray):
        return record.tolist()
    if isinstance(record, enum.Enum):
        return record.value
    if isinstance(record, PairIndex):
        return record.as_list()
    if isinstance(record, Configuration):
        return record.to_json_dict()
    if dataclasses.is_dataclass(record):
        return {field.name: getattr(record, field.name) for field in dataclasses.fields(record)}
    raise UsageError(f"cannot serialize {type(record).__name__}")


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


def csv_append(path, header: list[str], rows: list[list]):
    """Append rows, creating the file with a header line when absent.  With no
    rows nothing is written, so an absent file stays absent."""
    if not rows:
        return
    path = Path(path)
    lines = [",".join(header)] if not path.exists() else []
    lines += [",".join(csv_cell(v) for v in row) for row in rows]
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
