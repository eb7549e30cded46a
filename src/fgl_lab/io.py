"""Deterministic result persistence: CSV tables, JSON, run manifest.

The CLI's output tree is laid out in one place, ``cli._write_tree``,
from these writers.  Every CSV table goes through one column-wise
writer, ``write_columns``; a plotted curve names two columns of a table
and holds no numbers of its own, so each number is written once.  Every
writer produces byte-identical output for identical inputs: floats are
rendered with ``repr`` (shortest round-trip form), JSON keys are sorted,
and the manifest timestamp honors the ``SOURCE_DATE_EPOCH``
reproducible-build convention when that variable is set.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Mapping, Sequence

import numpy as np

from .evolution import TimeSeries

__all__ = [
    "RunManifest",
    "fmt",
    "run_timestamp",
    "sanitize_json",
    "timeseries_table",
    "write_columns",
    "write_json",
]


def fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def run_timestamp() -> str:
    """ISO-8601 UTC timestamp; frozen by SOURCE_DATE_EPOCH when set."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.replace(microsecond=0).isoformat()


def sanitize_json(obj):
    """Recursively make an object strict-JSON safe (no NaN/Inf literals)."""
    if isinstance(obj, Mapping):
        return {str(k): sanitize_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        if math.isnan(val):
            return "nan"
        if math.isinf(val):
            return "inf" if val > 0 else "-inf"
        return val
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [sanitize_json(v) for v in obj.tolist()]
    return obj


def write_json(path: str, payload) -> None:
    text = json.dumps(
        sanitize_json(payload), sort_keys=True, indent=2, allow_nan=False
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def timeseries_table(series: TimeSeries) -> tuple[list[str], tuple]:
    """Fixed column order: t, dt, mass, h1, lp1, sup, Q_<weight label>."""
    header = ["t", "dt", "mass", "h1", "lp1", "sup", f"Q_{series.weight.label}"]
    return header, (series.times, series.dts, series.mass, series.h1,
                    series.lp1, series.sup, series.momentum)


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt(v)
    return str(v)


def _format_column(column) -> list[str]:
    """A column's cells as text: floats, ints, bools, or strings."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return list(map(repr, column.astype(float, copy=False).tolist()))
        column = column.tolist()
    return [_cell(v) for v in column]


def write_columns(path: str, columns: Sequence, header: Sequence[str]) -> None:
    """The one table writer: a CSV header line, then the columns' cells."""
    if len(header) != len(columns):
        raise ValueError(f"{path}: {len(header)} header names for "
                         f"{len(columns)} columns")
    cells = [_format_column(column) for column in columns]
    lengths = [len(c) for c in cells]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path}: columns of unequal length {lengths}")
    lines = [",".join(header), *map(",".join, zip(*cells)), ""]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run and locate its outputs."""

    command: str
    config: Mapping
    version: str
    seed: int
    out_dir: str
    timestamp: str
    outputs: tuple  # files written, relative to out_dir, sorted

    def write(self, path: str) -> None:
        write_json(path, asdict(self))
