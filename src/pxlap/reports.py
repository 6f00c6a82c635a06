"""Check reports: JSON objects, CSV aggregate, schema.

Report bodies are deterministic for a fixed config and seed: keys are
sorted, floats use repr or null when not finite, and wall-clock metadata
goes to a separate run_meta.json excluded from the determinism contract.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["CheckRecord", "write_reports", "write_trend_csv", "load_report_schema",
           "CSV_COLUMNS"]

CSV_COLUMNS = ["check", "center", "R", "lhs", "rhs", "ratio", "p_minus", "p_plus", "mu"]


def _clean(v):
    if v is None:
        return None
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return f if np.isfinite(f) else None
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_clean(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_clean(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _clean(x) for k, x in v.items()}
    if isinstance(v, str):
        return v
    return str(v)


@dataclass
class CheckRecord:
    check: str
    status: str = "ok"           # ok | error
    center: list | None = None
    radius: float | None = None
    lhs: float | None = None
    rhs: float | None = None
    ratio: float | None = None
    p_minus: float | None = None
    p_plus: float | None = None
    mu: float | None = None
    detail: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "center": _clean(self.center),
            "R": _clean(self.radius),
            "lhs": _clean(self.lhs),
            "rhs": _clean(self.rhs),
            "ratio": _clean(self.ratio),
            "p_minus": _clean(self.p_minus),
            "p_plus": _clean(self.p_plus),
            "mu": _clean(self.mu),
            "detail": _clean(self.detail),
        }

    def csv_row(self) -> list:
        obj = self.to_obj()
        row = []
        for col in CSV_COLUMNS:
            v = obj["R"] if col == "R" else obj.get(col)
            if v is None:
                row.append("")
            elif col == "center":
                row.append(";".join(repr(float(x)) for x in v))
            else:
                row.append(repr(float(v)) if isinstance(v, float) else str(v))
        return row


def write_reports(records: list, outdir, meta: dict | None = None) -> dict:
    """Write report.json, report.csv and run_meta.json under outdir."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    objs = [r.to_obj() for r in records]
    body = json.dumps(objs, indent=2, sort_keys=True, allow_nan=False)
    (out / "report.json").write_text(body + "\n")
    with open(out / "report.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow(r.csv_row())
    meta = dict(meta or {})
    meta["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return {"json": out / "report.json", "csv": out / "report.csv"}


def write_trend_csv(rows: list, header: list, path) -> Path:
    """Small CSV writer for probe trends (deterministic bodies)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v)
                        for v in row])
    return path


def load_report_schema() -> dict:
    """The shipped JSON schema that report.json bodies validate against."""
    text = importlib.resources.files("pxlap").joinpath("report_schema.json").read_text()
    return json.loads(text)
