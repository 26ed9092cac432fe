"""Run records and their on-disk formats (CSV series, JSON manifest, fit files).

All floating-point output uses 17 significant digits, unquoted, so splitting
each line on its commas and `float`-ing each cell gives back every value
bit-for-bit (a fit file's footer lines read `# key = value`).  A CSV keeps
the column order of the record's rows, which the observer building a row sets.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "RunRecord",
    "format_float",
    "write_record_csv",
    "write_fit_file",
    "write_manifest",
]


def format_float(x: float) -> str:
    """Round-trip decimal form: float(format_float(x)) == x."""
    return "%.17g" % float(x)


@dataclass
class RunRecord:
    """Column-oriented time series."""

    columns: dict[str, list[float]] = field(default_factory=dict)

    def append(self, row: dict[str, float]) -> None:
        if not self.columns:
            for name in row:
                self.columns[name] = []
        if set(row) != set(self.columns):
            raise ValueError("row keys do not match existing columns")
        for name, value in row.items():
            self.columns[name].append(float(value))

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def column(self, name: str) -> list[float]:
        return self.columns[name]


def write_record_csv(record: RunRecord, path) -> str:
    """Write the series, columns in the order of the observer's row (the
    record's key order); returns the sha256 digest of the emitted bytes."""
    lines = [",".join(record.columns)]
    for i in range(len(record)):
        lines.append(",".join(format_float(col[i]) for col in record.columns.values()))
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def write_fit_file(path, log_x: list[float], log_y: list[float],
                   slope: float, intercept: float, r_squared: float) -> str:
    """Fitted scaling data: per-point columns plus a regression footer;
    returns the sha256 digest of the emitted bytes.

    The footer is recomputable from the data columns alone (least squares on
    the first two columns), which the test suite verifies to 1e-12.
    """
    lines = ["logN,lognorm,fit"]
    for lx, ly in zip(log_x, log_y):
        lines.append(",".join(format_float(v) for v in (lx, ly, slope * lx + intercept)))
    lines.append("# slope = " + format_float(slope))
    lines.append("# intercept = " + format_float(intercept))
    lines.append("# r_squared = " + format_float(r_squared))
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def write_manifest(manifest: dict, path) -> None:
    """Write a run manifest as JSON, adding the sha256 `config_digest` of its
    `config_echo`; a numpy scalar is written as the Python value it holds."""
    digest = hashlib.sha256(manifest["config_echo"].encode()).hexdigest()
    Path(path).write_text(json.dumps({**manifest, "config_digest": digest}, indent=2,
                                     sort_keys=True, default=lambda v: v.item()) + "\n")
