"""Output checks: canonical sweep records and their digests.

A sweep's records are the flat per-cell rows ``repro report
--export-json`` writes.  Everything in them is a deterministic function
of the grid and the job seed except ``fit_seconds`` (wall clock), so
the canonical form drops that field and sorts the rows; two runs of
the same grid must then produce byte-identical canonical JSON.

The stored digest (``digests.json``, one per workload, for the default
seed) hashes the canonical rows with floats rounded to
:data:`DIGEST_DIGITS` significant digits, so a BLAS build that differs
in the last bit of a sum does not read as a wrong answer while any
real change to a metric still does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: Record fields that are timings, not results.
VOLATILE = ("fit_seconds",)

#: Significant digits kept in digested floats.
DIGEST_DIGITS = 9

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def canonical(records: list[dict]) -> str:
    """The records minus volatile fields, sorted, as one JSON string.

    Compared as strings because a NaN metric (undefined precision of a
    classifier that never predicts positive) never equals itself.
    """
    rows = [json.dumps({k: v for k, v in record.items()
                        if k not in VOLATILE}, sort_keys=True)
            for record in records]
    return "[" + ",".join(sorted(rows)) + "]"


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def digest(records: list[dict]) -> str:
    """sha256 of the canonical records with rounded floats."""
    rows = _rounded(json.loads(canonical(records)))
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def stored_digest(workload: str) -> str | None:
    """The committed default-seed digest for ``workload``, if any."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def store_digest(workload: str, value: str) -> None:
    """Record ``value`` as ``workload``'s default-seed digest."""
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    stored[workload] = value
    DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")


def load_export(path: Path) -> list[dict]:
    """Rows of a ``repro report --export-json`` file."""
    return json.loads(Path(path).read_text())
