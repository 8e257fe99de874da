"""Dataset manifest CSV: one row per subject with label and volume path.

Header: subject_id,label,path with optional trailing metadata columns
age,sex,mmse. Subject ids must be plain file stems. Relative volume paths
are resolved against the manifest's own directory so a dataset folder can
be moved as a unit; read_manifest returns absolute paths (symlinks are not
resolved), so a manifest written from its rows is valid from any directory.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

from .artifacts import open_input, write_table
from .errors import ParseError

DEFAULT_LABELS = ("CN", "MCI", "AD")
REQUIRED_COLUMNS = ("subject_id", "label", "path")
OPTIONAL_COLUMNS = ("age", "sex", "mmse")
# an input check: subject ids must be plain file stems, as synth's volume
# names (<id>.nii, <id>.nii.gz) are, so no id can name a path
SAFE_SUBJECT_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")
SAFE_SUBJECT_ID_RULE = "letters, digits, '.', '_' and '-', not starting with '.'"


@dataclass(frozen=True)
class ManifestRow:
    subject_id: str
    label: str
    path: Path
    age: float | None = None
    sex: str | None = None
    mmse: float | None = None


def read_manifest(
    path, allowed_labels: tuple[str, ...] = DEFAULT_LABELS
) -> list[ManifestRow]:
    path = Path(path)
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: manifest has no header") from None
        header = [h.strip() for h in header]
        if tuple(header[:3]) != REQUIRED_COLUMNS:
            raise ParseError(
                f"{path}: manifest header must start with {','.join(REQUIRED_COLUMNS)}, "
                f"got {','.join(header[:3])}"
            )
        extras = header[3:]
        for col in extras:
            if col not in OPTIONAL_COLUMNS:
                raise ParseError(f"{path}: unknown manifest column {col!r}")

        rows: list[ManifestRow] = []
        seen: set[str] = set()
        for lineno, record in enumerate(reader, start=2):
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(record)}"
                )
            subject_id = record[0].strip()
            label = record[1].strip()
            raw_path = record[2].strip()
            if not subject_id:
                raise ParseError(f"{path}:{lineno}: empty subject_id")
            if not SAFE_SUBJECT_ID.fullmatch(subject_id):
                raise ParseError(
                    f"{path}:{lineno}: subject_id {subject_id!r} is not a safe file stem "
                    f"({SAFE_SUBJECT_ID_RULE})"
                )
            if subject_id in seen:
                raise ParseError(f"{path}:{lineno}: duplicate subject_id {subject_id!r}")
            seen.add(subject_id)
            if label not in allowed_labels:
                raise ParseError(
                    f"{path}:{lineno}: label {label!r} not in allowed set {allowed_labels}"
                )
            if not raw_path:
                raise ParseError(f"{path}:{lineno}: empty path")
            vol_path = (path.parent / raw_path).absolute()

            meta: dict = {"age": None, "sex": None, "mmse": None}
            for col, cell in zip(extras, record[3:]):
                cell = cell.strip()
                if not cell:
                    continue
                if col in ("age", "mmse"):
                    try:
                        meta[col] = float(cell)
                    except ValueError:
                        raise ParseError(f"{path}:{lineno}: non-numeric {col} {cell!r}") from None
                else:
                    meta[col] = cell
            rows.append(ManifestRow(subject_id=subject_id, label=label, path=vol_path, **meta))

    if not rows:
        raise ParseError(f"{path}: manifest has no data rows")
    return rows


def write_manifest(rows: list[ManifestRow], path, relative_to: Path | None = None) -> None:
    """Write rows; paths are made relative to ``relative_to`` when possible."""
    has_meta = any(r.age is not None or r.sex is not None or r.mmse is not None for r in rows)

    def records():
        for row in rows:
            p = row.path
            if relative_to is not None and p.is_relative_to(relative_to):
                p = p.relative_to(relative_to)
            record = [row.subject_id, row.label, str(p)]
            if has_meta:
                record += ["" if v is None else v for v in (row.age, row.sex, row.mmse)]
            yield record

    header = list(REQUIRED_COLUMNS) + (list(OPTIONAL_COLUMNS) if has_meta else [])
    write_table(path, header, records())
