"""The one writer and reader of the run directory's JSON and CSV artifacts.

JSON artifacts have sorted keys, a two-space indent and a trailing newline,
and never hold NaN or Infinity, which are not JSON.
CSV tables end lines with ``\\n``; the csv module writes a Python float as its
shortest round-trip repr, so a table read back gives the same bits. Callers
pass floats as Python floats (``ndarray.tolist()``), one row at a time.
"""

from __future__ import annotations

import csv
import json

from .errors import ParseError


def write_json(obj, path) -> None:
    """obj as JSON; a NaN or infinite float raises ValueError before path is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def open_input(path, newline=None):
    """path opened for reading text; ParseError names the file if it cannot be opened."""
    try:
        return open(path, newline=newline)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None


def read_json(path):
    """The decoded document; ParseError names the file if it is unreadable or not JSON."""
    with open_input(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ParseError(f"{path}: invalid JSON: {exc}") from None


def write_table(path, header, rows) -> None:
    """CSV with one header row, then every row of the iterable rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
