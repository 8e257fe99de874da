"""The writer and reader of the run directory's JSON artifacts, and the
writer of its CSV tables other than the feature CSVs (features.csv,
sublabeled_*.csv), which features.save_features and features.load_precomputed
write and read.

A JSON artifact holds a dataclass as an object of its fields and an ndarray
as nested lists, has sorted keys, a two-space indent and a trailing newline,
and never holds NaN or Infinity, which are not JSON. from_json builds the
dataclass back, checking each value's JSON type against its field's type.
CSV tables end lines with ``\\n``; the csv module writes a Python float as its
shortest round-trip repr, so a table read back gives the same bits. Callers
pass floats as Python floats (``ndarray.tolist()``), one row at a time.
"""

from __future__ import annotations

import csv
import json
import math
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .errors import ParseError, PipelineError


def _fields_or_lists(obj):
    """json.dumps's default: a dataclass as an object of its fields, an ndarray as nested lists."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(obj, path) -> None:
    """obj as JSON; a NaN or infinite float raises ValueError before path is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_fields_or_lists)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def open_input(path, newline=None):
    """path opened for reading text; ParseError names the file if it cannot be opened."""
    try:
        return open(path, newline=newline)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows float64")
    return value


def read_json(path):
    """The decoded document; ParseError names the file if it is unreadable or
    not JSON, including the NaN and Infinity tokens and a number, such as
    1e999, that float64 reads as infinite: write_json never writes them."""
    with open_input(path) as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
        except ValueError as exc:  # JSONDecodeError, bytes that are not UTF-8, or a hook's
            raise ParseError(f"{path}: invalid JSON: {exc}") from None


def _float64(value) -> bool:
    """Whether value is a float, or an integer that float() can represent."""
    if type(value) is int:
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return type(value) is float


# what a field of each type accepts from JSON; exact type checks, so true/false is no number
_JSON_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number within float64's range", _float64),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    str | None: ("a string or null", lambda v: v is None or type(v) is str),
}


def _numbers(value) -> bool:
    """Whether value is a number or nested lists of numbers."""
    if type(value) is list:
        return all(_numbers(v) for v in value)
    return type(value) in (int, float)


def _value(tp, value, name: str, kind: str):
    """value checked against the type tp of field name: a dataclass, a tuple,
    a dict[str, T], an ndarray or a _JSON_TYPES key."""
    if is_dataclass(tp):
        return _build(tp, value, name, kind)
    origin = typing.get_origin(tp)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ParseError(f"{name} must be a list, got {value!r}")
        element = typing.get_args(tp)[0]
        return tuple(_value(element, v, f"{name}[{i}]", kind) for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            raise ParseError(f"{name} must be a JSON object, got {value!r}")
        element = typing.get_args(tp)[1]
        return {key: _value(element, v, f"{name}.{key}", kind) for key, v in value.items()}
    if tp is np.ndarray:
        try:
            if type(value) is list and _numbers(value):
                return np.asarray(value, dtype=np.float64)
        except (ValueError, OverflowError):  # ragged, or an integer beyond float64
            pass
        raise ParseError(f"{name} must be a rectangular array of numbers")
    expected, accepts = _JSON_TYPES[tp]
    if not accepts(value):
        raise ParseError(f"{name} must be {expected}, got {value!r}")
    return value


def _build(cls, obj, name: str, kind: str):
    """cls from the JSON object obj; name prefixes key names in errors ("" at the root)."""
    if not isinstance(obj, dict):
        where = f"section {name!r}" if name else "root"
        raise ParseError(f"{kind} {where} must be a JSON object")
    where = f" in {name}" if name else ""
    known = {f.name: f for f in fields(cls)}
    unknown = set(obj) - set(known)
    if unknown:
        raise ParseError(f"unknown {kind} key(s){where}: {sorted(unknown)}")
    missing = [
        key
        for key, f in known.items()
        if key not in obj and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ParseError(f"missing {kind} key(s){where}: {missing}")
    types = typing.get_type_hints(cls)
    values = {
        key: _value(types[key], value, f"{name}.{key}" if name else key, kind)
        for key, value in obj.items()
    }
    try:
        return cls(**values)
    except PipelineError as exc:  # the class's own checks, such as LabelCodec's
        raise ParseError(f"malformed {name or kind}: {exc}") from None


def from_json(cls, obj, kind: str):
    """The dataclass cls from a decoded JSON object, inverse of write_json.

    Nested dataclass, tuple, dict[str, T], float64-array and scalar fields
    are checked by exact JSON type. A key unknown to cls, a key absent
    though its field has no default, or a mistyped value raises ParseError
    naming it; kind ("config", "model", ...) names the document in messages.
    """
    return _build(cls, obj, "", kind)


def read_json_as(cls, path, kind: str):
    """from_json(cls, ...) of the JSON file path; ParseError names the file."""
    obj = read_json(path)
    try:
        return from_json(cls, obj, kind)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_table(path, header, rows) -> None:
    """CSV with one header row, then every row of the iterable rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
