"""Summary statistics and the run-directory digest used by the benchmark."""

from __future__ import annotations

import hashlib
from pathlib import Path

# Outside the determinism guarantee: timings and the slice cache.
DIGEST_EXCLUDED = ("run_info.json", "cache")

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond). The value is the
    (TAIL_BEYOND + 1)-th largest sample, which lies at percentile
    100 * (n - TAIL_BEYOND) / n of the n samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    ordered = sorted(samples)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def digest_files(run_dir: Path) -> list[Path]:
    """Files of a run directory that the digest covers, in a stable order."""
    files = []
    for path in sorted(run_dir.rglob("*")):
        rel = path.relative_to(run_dir)
        if path.is_file() and rel.parts[0] not in DIGEST_EXCLUDED:
            files.append(rel)
    return files


def run_digest(run_dir: Path) -> str:
    """SHA-256 over the relative path and bytes of every covered file."""
    h = hashlib.sha256()
    for rel in digest_files(run_dir):
        h.update(rel.as_posix().encode() + b"\0")
        h.update(hashlib.sha256((run_dir / rel).read_bytes()).digest())
    return h.hexdigest()


def tree_mb(root: Path) -> float:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / 1e6
