"""The recursive document encoder that ``ihse.jsonio.dumps`` replaced, kept
verbatim as its oracle: every document must encode to the same text, byte
for byte, and the same values must be refused."""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from ihse.core import Configuration, PairIndex, UsageError
from ihse.jsonio import _escape, format_float


def reference_dumps(obj) -> str:
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
