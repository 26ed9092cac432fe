"""Run records and their on-disk formats (CSV series, JSON manifest, fit files).

All floating-point output uses 17 significant digits so that re-parsing a
file reproduces every value bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "RunRecord",
    "canonical_column_order",
    "format_float",
    "write_record_csv",
    "read_record_csv",
    "write_fit_file",
    "read_fit_file",
    "RunManifest",
    "write_manifest",
]


def format_float(x: float) -> str:
    """Round-trip decimal form: float(format_float(x)) == x."""
    return "%.17g" % float(x)


def canonical_column_order(names) -> list[str]:
    """t first, then Q1..Q4, then HsB_<s> by ascending s, then Hpsi1/Hpsi2,
    then anything else in alphabetical order."""
    names = list(names)
    fixed = ["t", "Q1", "Q2", "Q3", "Q4"]
    out = [c for c in fixed if c in names]
    hsb = sorted((c for c in names if c.startswith("HsB_")),
                 key=lambda c: float(c[len("HsB_"):]))
    out += hsb
    out += [c for c in ("Hpsi1", "Hpsi2") if c in names]
    rest = sorted(c for c in names if c not in out)
    return out + rest


@dataclass
class RunRecord:
    """Column-oriented time series plus free-form metadata."""

    columns: dict[str, list[float]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

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
    """Write the series; returns the sha256 digest of the emitted bytes."""
    order = canonical_column_order(record.columns)
    lines = [",".join(order)]
    for i in range(len(record)):
        lines.append(",".join(format_float(record.columns[c][i]) for c in order))
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def read_record_csv(path) -> RunRecord:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rec = RunRecord()
    for line in lines[1:]:
        rec.append(dict(zip(header, (float(v) for v in line.split(",")))))
    return rec


def write_fit_file(path, log_x: list[float], log_y: list[float],
                   slope: float, intercept: float, r_squared: float,
                   x_label: str = "logN", y_label: str = "lognorm") -> None:
    """Fitted scaling data: per-point columns plus a regression footer.

    The footer is recomputable from the data columns alone (least squares on
    the first two columns), which the test suite verifies to 1e-12.
    """
    lines = [f"{x_label},{y_label},fit"]
    for lx, ly in zip(log_x, log_y):
        lines.append(",".join(format_float(v) for v in (lx, ly, slope * lx + intercept)))
    lines.append("# slope = " + format_float(slope))
    lines.append("# intercept = " + format_float(intercept))
    lines.append("# r_squared = " + format_float(r_squared))
    Path(path).write_text("\n".join(lines) + "\n")


def read_fit_file(path) -> dict:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    points = []
    footer = {}
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            footer[key.strip()] = float(value)
        else:
            points.append(tuple(float(v) for v in line.split(",")))
    return {"header": header, "points": points, **footer}


@dataclass
class RunManifest:
    """Everything needed to re-run an experiment identically."""

    kind: str
    config_echo: str
    resolved: dict
    verdict: dict
    wall_time_s: float
    artifacts: dict
    version: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config_echo": self.config_echo,
            "config_digest": hashlib.sha256(self.config_echo.encode()).hexdigest(),
            "resolved": self.resolved,
            "verdict": self.verdict,
            "wall_time_s": self.wall_time_s,
            "artifacts": self.artifacts,
            "version": self.version,
        }


def write_manifest(manifest: RunManifest, path) -> None:
    Path(path).write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")
