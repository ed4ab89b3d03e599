"""Deterministic JSON/CSV emission: floats carry 17 significant digits
(lossless double round-trip), key order is insertion order, and file writes
go through a temp file plus rename so outputs are atomic.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import os
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .core import Configuration, PairIndex, UsageError

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# The string escaping of json.dumps (ASCII output, \uXXXX for the rest).
_escape = json.encoder.encode_basestring_ascii


# The %-format of each plain number type in a list of them.
_SCALAR_FORMATS = {float: "%.17g", int: "%d"}


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

    One pass appends the text to one list.  Values of the plain types are
    dispatched on their exact type; any other value takes the isinstance
    order (float, int, str, dict, list/tuple subclasses such as np.float64,
    then the records), so a subclass is written as its base type is.
    """
    parts: list[str] = []
    _write(obj, "\n", parts)
    return "".join(parts)


def _write(obj, newline: str, parts: list[str]) -> None:
    """Append obj as JSON to parts; newline is a line break plus the current
    indentation."""
    kind = type(obj)
    if kind is float:
        parts.append(format_float(obj))
    elif kind is dict:
        _write_dict(obj, newline, parts)
    elif kind is list or kind is tuple:
        _write_array(obj, newline, parts)
    elif kind is str:
        parts.append(_escape(obj))
    elif kind is int:
        parts.append(str(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    else:
        _writer(kind)(obj, newline, parts)


def _write_object(members: list[tuple[str, object]], newline: str, parts: list[str]) -> None:
    """An object from its members, (escaped key, value) pairs."""
    if not members:
        parts.append("{}")
        return
    inner = newline + "  "
    head = "{" + inner
    for key, value in members:
        parts.append(f"{head}{key}: ")
        _write(value, inner, parts)
        head = "," + inner
    parts.append(newline + "}")


def _write_dict(obj: dict, newline: str, parts: list[str]) -> None:
    _write_object([(_escape(str(key)), value) for key, value in obj.items()], newline, parts)


def _write_array(items, newline: str, parts: list[str]) -> None:
    if not items:
        parts.append("[]")
        return
    inner = newline + "  "
    formats = [_SCALAR_FORMATS.get(type(value)) for value in items]
    # One %-format of a list of plain floats and ints: "%.17g" % x is
    # format(x, ".17g"), and only a non-finite float's text holds an "n".
    if None not in formats and "n" not in (text := ("," + inner).join(formats) % tuple(items)):
        parts.append(f"[{inner}{text}{newline}]")
        return
    head = "[" + inner
    for value in items:
        parts.append(head)
        _write(value, inner, parts)
        head = "," + inner
    parts.append(newline + "]")


@functools.cache
def _writer(kind: type) -> Callable:
    """How a value of a type other than the plain ones is written: a
    subclass of a plain type as that type, in the order of the isinstance
    checks that once chose it (np.float64 as float, an IntEnum as int), a
    record as the dict, list or scalar it stands for."""
    for base, write in (
        (float, lambda obj, newline, parts: parts.append(format_float(obj))),
        (int, lambda obj, newline, parts: parts.append(str(obj))),
        (str, lambda obj, newline, parts: parts.append(_escape(obj))),
        (dict, _write_dict),
        ((list, tuple), _write_array),
        (np.ndarray, lambda obj, newline, parts: _write(obj.tolist(), newline, parts)),
        (enum.Enum, lambda obj, newline, parts: _write(obj.value, newline, parts)),
        (PairIndex, lambda obj, newline, parts: _write_array(obj.as_list(), newline, parts)),
        (Configuration, lambda obj, newline, parts: _write(obj.to_json_dict(), newline, parts)),
    ):
        if issubclass(kind, base):
            return write
    if dataclasses.is_dataclass(kind):  # an object of its fields, in declaration order
        keys = tuple((field.name, _escape(field.name)) for field in dataclasses.fields(kind))
        return lambda obj, newline, parts: _write_object(
            [(key, getattr(obj, name)) for name, key in keys], newline, parts
        )
    raise UsageError(f"cannot serialize {kind.__name__}")


def load_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise UsageError(f"input file not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def write_atomic(path, text: str):
    """Write via temp file + rename in the destination directory.  On any
    failure the temp file is removed and the error raised."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.tmp{os.getpid()}"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_cell(value) -> str:
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
