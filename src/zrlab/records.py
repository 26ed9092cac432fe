"""Run records and their on-disk formats (CSV series, JSON manifest, fit files).

All floating-point output uses 17 significant digits, unquoted, so splitting
each line on its commas and `float`-ing each cell gives back every value
bit-for-bit.  A CSV keeps the column order of the record's rows, which the
observer building a row sets.  A `.fit` file is such a CSV, written by the
same writer, plus footer lines that read `# key = value`.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
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

    def column(self, name: str) -> list[float]:
        return self.columns[name]


def _write_rows(path, columns: dict[str, list[float]], footer=()) -> str:
    """Write the column names, one row per index and the footer lines;
    returns the sha256 digest of the emitted bytes."""
    lines = [",".join(columns)]
    lines += [",".join(map(format_float, row)) for row in zip(*columns.values())]
    text = "\n".join([*lines, *footer]) + "\n"
    Path(path).write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def write_record_csv(record: RunRecord, path) -> str:
    """Write the series, columns in the order of the observer's row (the
    record's key order); returns the sha256 digest of the emitted bytes."""
    return _write_rows(path, record.columns)


def write_fit_file(path, fit) -> str:
    """A fit's points and line (`logN,lognorm,fit`) plus a regression footer;
    returns the sha256 digest of the emitted bytes.

    The footer is recomputable from the data columns alone (least squares on
    the first two columns), which the test suite verifies to 1e-12.
    """
    fitted = [fit.slope * lx + fit.intercept for lx in fit.log_x]
    footer = [f"# {key} = {format_float(getattr(fit, key))}"
              for key in ("slope", "intercept", "r_squared")]
    return _write_rows(path, {"logN": fit.log_x, "lognorm": fit.log_y, "fit": fitted}, footer)


def _finite(value, pointer: str, nonfinite: dict):
    """`value` with each non-finite float replaced by None, whose JSON pointer
    (RFC 6901) maps to 'inf', '-inf' or 'nan' in `nonfinite`."""
    if isinstance(value, dict):
        return {key: _finite(item, f"{pointer}/{str(key).replace('~', '~0').replace('/', '~1')}",
                             nonfinite) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item, f"{pointer}/{i}", nonfinite) for i, item in enumerate(value)]
    if isinstance(value, numbers.Real) and not math.isfinite(value):
        nonfinite[pointer] = repr(float(value))
        return None
    return value


def write_manifest(manifest: dict, path) -> None:
    """Write a run manifest as strict JSON, adding the sha256 `config_digest`
    of its `config_echo`; a numpy scalar is written as the Python value it
    holds.  A non-finite float is written as null, and a top-level
    `nonfinite` object, present only then, maps its JSON pointer to 'inf',
    '-inf' or 'nan'."""
    digest = hashlib.sha256(manifest["config_echo"].encode()).hexdigest()
    nonfinite: dict[str, str] = {}
    out = _finite({**manifest, "config_digest": digest}, "", nonfinite)
    if nonfinite:
        out["nonfinite"] = nonfinite
    Path(path).write_text(json.dumps(out, indent=2, sort_keys=True, allow_nan=False,
                                     default=lambda v: v.item()) + "\n")
