"""Deterministic JSON/CSV emission: floats carry 17 significant digits
(lossless double round-trip), key order is insertion order, and file writes
go through a temp file plus rename so outputs are atomic.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import operator
import os
from collections.abc import Callable
from pathlib import Path
from typing import Optional

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

    One pass appends the text to one list.  Each value is written by the
    writer of its type, from one table (_WRITERS) that _writer fills on a
    type's first value.

    A Configuration and a dataclass record are written by one %-format of
    a template cached per layout (_template): an (N, d) configuration's
    coordinates fill %.17g slots, and a record's fields fill the slots of
    its field types.  A value a template cannot write exactly, a non-finite
    float or a field that is not a float, int, None, PairIndex or str-valued
    Enum, takes the per-value path, with the same text.
    """
    return _text(obj, "\n")


def _write(obj, newline: str, parts: list[str]) -> None:
    """Append obj as JSON to parts; newline is a line break plus the current
    indentation."""
    _WRITERS[type(obj)](obj, newline, parts)


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
    head = "[" + inner
    for value in items:
        parts.append(head)
        _write(value, inner, parts)
        head = "," + inner
    parts.append(newline + "]")


def _text(obj, newline: str) -> str:
    """obj as JSON by the per-value path."""
    parts: list[str] = []
    _write(obj, newline, parts)
    return "".join(parts)


# The values whose per-value texts stand for the %-format slots of a
# template, and those slots.  The text slot is the inside of a string.
_FLOAT_SLOT, _INT_SLOT, _TEXT_SLOT = 1.2345678901234567e-300, 98765432109876543210, "\x00"
_SLOTS = ((format_float(_FLOAT_SLOT), "%.17g"), (str(_INT_SLOT), "%d"), (_escape(_TEXT_SLOT)[1:-1], "%s"))


def _template(sample, newline: str) -> str:
    """The %-format string of sample's layout: its per-value text with each
    slot value's text replaced by the slot, so the template filled with
    values is the per-value text of sample holding them."""
    text = _text(sample, newline).replace("%", "%%")
    for slot_text, slot in _SLOTS:
        text = text.replace(slot_text, slot)
    return text


@functools.cache
def _configuration_template(n: int, d: int, newline: str) -> str:
    """An (n, d) Configuration's template: its to_json_dict() with a %.17g
    slot per coordinate, in the order of its interleaved [x | v] rows."""
    slots = np.full((n, d), _FLOAT_SLOT)
    return _template(Configuration(slots, slots).to_json_dict(), newline)


def _write_configuration(cfg: Configuration, newline: str, parts: list[str]) -> None:
    rows = np.hstack((cfg.positions, cfg.velocities)).ravel().tolist()
    text = _configuration_template(*cfg.positions.shape, newline) % tuple(rows)
    # No key holds an "n", so only a non-finite coordinate's text does.
    if "n" in text:
        _write(cfg.to_json_dict(), newline, parts)
    else:
        parts.append(text)


def _getter(paths) -> Callable:
    """obj -> the tuple of its attributes at these (dotted) paths."""
    if len(paths) > 1:
        return operator.attrgetter(*paths)
    if paths:
        get = operator.attrgetter(paths[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _field_slots(kind: type, name: str) -> Optional[tuple[object, list[tuple[str, type]]]]:
    """A field's value in its record's sample and the (path, type) of each
    value that fills its slots; None for a type no slot takes."""
    if kind is float or kind is int:
        return (_FLOAT_SLOT if kind is float else _INT_SLOT), [(name, kind)]
    if kind is type(None):
        return None, []
    if kind is PairIndex:
        return [_INT_SLOT, _INT_SLOT], [(f"{name}.i", int), (f"{name}.j", int)]
    if issubclass(kind, enum.Enum) and not issubclass(kind, (float, int, str)):
        # Values written as they are, within quotes.
        if all(type(m.value) is str and _escape(m.value) == f'"{m.value}"' for m in kind):
            return _TEXT_SLOT, [(f"{name}._value_", str)]
    return None


@functools.cache
def _record_layout(kind: type, newline: str, types: tuple[type, ...]) -> Optional[tuple]:
    """For a record type at an indentation with fields of these types: its
    template, the getter of the values that fill it, their types (a
    PairIndex's members may be any numbers) and the getter of the floats
    among them.  None when a field's type has no slot."""
    sample, fills = {}, []
    for field, field_type in zip(dataclasses.fields(kind), types):
        slots = _field_slots(field_type, field.name)
        if slots is None:
            return None
        sample[field.name], field_fills = slots
        fills += field_fills
    paths, fill_types = zip(*fills) if fills else ((), ())
    floats = [k for k, fill_type in enumerate(fill_types) if fill_type is float]
    return (
        _template(sample, newline),
        _getter(paths),
        fill_types,
        operator.itemgetter(*floats, *floats[:1]) if floats else None,  # a tuple even of one float
    )


def _record_writer(kind: type) -> Callable:
    """A dataclass record's writer, an object of its fields in declaration
    order: its layout's template filled, when it has a layout and its fill
    values have their types and are finite, else by the per-value path."""
    names = [field.name for field in dataclasses.fields(kind)]
    keys, values_of = [_escape(name) for name in names], _getter(names)

    def write(obj, newline: str, parts: list[str]) -> None:
        values = values_of(obj)
        layout = _record_layout(kind, newline, tuple(map(type, values)))
        if layout is not None:
            template, fills_of, fill_types, floats = layout
            fills = fills_of(obj)
            # A sum of floats is finite only when each of them is.
            if tuple(map(type, fills)) == fill_types and (floats is None or math.isfinite(sum(floats(fills)))):
                parts.append(template % fills)
                return
        _write_object(list(zip(keys, values)), newline, parts)

    return write


def _writer(kind: type) -> Callable:
    """How a value of this type is written: None and a bool first (a bool is
    an int), then by the first base in this isinstance order, so a subclass
    of a plain type is written as that type (np.float64 as float, an IntEnum
    as int, OrderedDict as dict) and a record as the dict, list or scalar it
    stands for."""
    for base, write in (
        (type(None), lambda obj, newline, parts: parts.append("null")),
        (bool, lambda obj, newline, parts: parts.append("true" if obj else "false")),
        (float, lambda obj, newline, parts: parts.append(format_float(obj))),
        (int, lambda obj, newline, parts: parts.append(str(obj))),
        (str, lambda obj, newline, parts: parts.append(_escape(obj))),
        (dict, _write_dict),
        ((list, tuple), _write_array),
        (np.ndarray, lambda obj, newline, parts: _write(obj.tolist(), newline, parts)),
        (enum.Enum, lambda obj, newline, parts: _write(obj.value, newline, parts)),
        (PairIndex, lambda obj, newline, parts: _write_array(obj.as_list(), newline, parts)),
        (Configuration, _write_configuration),
    ):
        if issubclass(kind, base):
            return write
    if dataclasses.is_dataclass(kind):
        return _record_writer(kind)
    raise UsageError(f"cannot serialize {kind.__name__}")


class _Writers(dict):
    """The writer of each type met so far, keyed by the type."""

    def __missing__(self, kind: type) -> Callable:
        write = self[kind] = _writer(kind)
        return write


_WRITERS = _Writers()


def load_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise UsageError(f"input file not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
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
