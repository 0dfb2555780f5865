"""Probe reports: measured inequality sides, ratios, and hbar-scaling fits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# the keys of ProbeReport.csv_rows, in the column order of the summary files
CSV_COLUMNS = ["probe", "hbar", "lhs", "budget", "ratio", "slope", "pass"]


def fit_loglog(x, y) -> tuple[float, float]:
    """Least-squares slope of log y vs log x with its standard error.

    Needs at least 4 points; x and y must be positive and finite.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 4:
        raise ConfigurationError("slope fits need at least 4 sweep points")
    if np.any(x <= 0) or np.any(y <= 0) or not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ConfigurationError("slope fits need positive finite data")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    dof = len(x) - 2
    if dof > 0 and len(res):
        s2 = float(res[0]) / dof
        stderr = math.sqrt(s2 / float(np.sum((lx - lx.mean()) ** 2)))
    else:
        stderr = 0.0
    return slope, stderr


@dataclass
class ProbeReport:
    """Outcome of one named inequality probe across an hbar sweep."""

    probe: str
    hbar: list = field(default_factory=list)
    lhs: list = field(default_factory=list)
    budget: list = field(default_factory=list)
    ratio: list = field(default_factory=list)
    slope: float | None = None
    slope_stderr: float | None = None
    tolerance: dict = field(default_factory=dict)
    passed: bool = True
    details: dict = field(default_factory=dict)

    def finalize_ratios(self):
        self.ratio = [
            (l / b if b > 0 else math.inf) for l, b in zip(self.lhs, self.budget)
        ]

    def fit_slope(self):
        self.slope, self.slope_stderr = fit_loglog(self.hbar, self.lhs)
        return self.slope

    def require(self, name: str, observed, bound):
        """Record one named assertion, observed against the bound it applies:
        ``True`` needs the observed flag to hold, a list [lo, hi] is a closed
        band, a number an upper bound. Failing any flips ``passed``."""
        if bound is True:
            ok = observed is True
        elif isinstance(bound, list):
            ok = bound[0] <= observed <= bound[1]
        else:
            ok = observed <= bound
        self.tolerance[name] = {"bound": bound, "observed": observed, "ok": bool(ok)}
        if not ok:
            self.passed = False

    def to_dict(self) -> dict:
        return {
            "probe": self.probe,
            "hbar": list(map(float, self.hbar)),
            "lhs": list(map(float, self.lhs)),
            "budget": list(map(float, self.budget)),
            "ratio": list(map(float, self.ratio)),
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": _jsonable(self.details),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProbeReport":
        """A report read back from its JSON; a missing verdict stays blank."""
        return cls(probe=data["probe"], hbar=data["hbar"], lhs=data["lhs"],
                   budget=data.get("budget", []), ratio=data.get("ratio", []),
                   slope=data.get("slope"), passed=data.get("passed", ""))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_rows(self) -> list[dict]:
        rows = []
        for i, hb in enumerate(self.hbar):
            rows.append({
                "probe": self.probe,
                "hbar": float(hb),
                "lhs": float(self.lhs[i]),
                "budget": float(self.budget[i]) if i < len(self.budget) else "",
                "ratio": float(self.ratio[i]) if i < len(self.ratio) else "",
                "slope": self.slope if self.slope is not None else "",
                "pass": self.passed,
            })
        return rows


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)
