"""Persistence of campaign results.

Full-scale campaigns take hours; their run records should outlive the
process.  A :class:`~repro.experiments.results.ResultSet` round-trips
through a plain CSV file (one row per run, stable column order) so a
finished campaign can be re-aggregated, re-rendered, or merged with
later runs without re-simulating anything.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path
from typing import List, Union

from repro.experiments.results import ResultSet, RunRecord

__all__ = [
    "CSV_COLUMNS",
    "save_results",
    "load_results",
    "results_to_csv",
    "results_from_csv",
    "encode_record",
    "decode_row",
]

#: Column order of the CSV representation (one column per record field).
CSV_COLUMNS = (
    "error_name",
    "signal",
    "signal_bit",
    "area",
    "version",
    "mass_kg",
    "velocity_mps",
    "detected",
    "failed",
    "latency_ms",
    "wedged",
    "duration_ms",
)

_NONE = ""


def encode_record(record: RunRecord) -> List[str]:
    """One CSV row (list of cells) for *record*, in :data:`CSV_COLUMNS` order."""
    row = []
    for column in CSV_COLUMNS:
        value = getattr(record, column)
        row.append(_NONE if value is None else str(value))
    return row


def _parse_optional_int(text: str):
    return None if text == _NONE else int(text)


def _parse_optional_float(text: str):
    return None if text == _NONE else float(text)


def _parse_bool(text: str) -> bool:
    if text == "True":
        return True
    if text == "False":
        return False
    raise ValueError(f"malformed boolean field {text!r}")


def decode_row(row: List[str]) -> RunRecord:
    """Parse one CSV row back into a :class:`RunRecord` (raises on malformed)."""
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(
            f"malformed results row: expected {len(CSV_COLUMNS)} fields, got {len(row)}"
        )
    data = dict(zip(CSV_COLUMNS, row))
    return RunRecord(
        error_name=data["error_name"],
        signal=None if data["signal"] == _NONE else data["signal"],
        signal_bit=_parse_optional_int(data["signal_bit"]),
        area=data["area"],
        version=data["version"],
        mass_kg=float(data["mass_kg"]),
        velocity_mps=float(data["velocity_mps"]),
        detected=_parse_bool(data["detected"]),
        failed=_parse_bool(data["failed"]),
        latency_ms=_parse_optional_float(data["latency_ms"]),
        wedged=_parse_bool(data["wedged"]),
        duration_ms=int(data["duration_ms"]),
    )


def results_to_csv(results: ResultSet) -> str:
    """Serialise a result set to CSV text (header + one row per run)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_COLUMNS)
    for record in results.records:
        writer.writerow(encode_record(record))
    return buffer.getvalue()


def results_from_csv(text: str) -> ResultSet:
    """Parse CSV text produced by :func:`results_to_csv`."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty results file") from None
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(
            f"unexpected results header {header!r}; this file was not written "
            "by results_to_csv (or by an incompatible version)"
        )
    return ResultSet(decode_row(row) for row in reader if row)


def save_results(results: ResultSet, path: Union[str, Path]) -> Path:
    """Write a result set to *path* atomically; returns the resolved path.

    The CSV is written to a temporary file in the same directory and
    renamed into place, so a crash mid-write can never leave a truncated
    file where an hours-long campaign's only artifact used to be.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent or "."
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(results_to_csv(results))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_results(path: Union[str, Path]) -> ResultSet:
    """Read a result set written by :func:`save_results`."""
    return results_from_csv(Path(path).read_text(encoding="utf-8"))
