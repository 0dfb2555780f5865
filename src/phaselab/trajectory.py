"""Time-indexed snapshots plus conserved-quantity logs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# Default time step of every flow: 1/16, exact in binary, so 8 steps to
# T = 0.5 and the step grid is the snapshot grid of a time series.
# Time-splitting spectral schemes resolve quadratic observables with a step
# that does not depend on hbar (Bao, Jin & Markowich, J. Comput. Phys. 175,
# 2002); tests/test_sweeps.py and tests/test_dynamics.py bound the change of
# every probe's result, and of the dynamics-only Wigner error, at dt / 2.
DEFAULT_DT = 0.0625
SNAPSHOT_POINTS = 8      # snapshot intervals per flow of a time series


@dataclass
class FieldSnapshot:
    """Self-consistent field data at one time: potential, force, density."""

    time: float
    V: np.ndarray
    E: np.ndarray
    rho: np.ndarray


@dataclass
class Trajectory:
    """Snapshots of a flow plus per-time conserved-quantity logs.

    ``logs`` maps quantity name -> list aligned with ``times``;
    ``snapshots`` are stored at ``snapshot_times`` (a subset of times);
    ``root_snapshots``, when a flow carries a square root, at the same times.
    """

    times: list = field(default_factory=list)
    logs: dict = field(default_factory=dict)
    snapshot_times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    fields: list = field(default_factory=list)   # FieldSnapshot history
    root_snapshots: list = field(default_factory=list)
    dt: float = 0.0

    def record(self, t: float, **values: float):
        """Log each quantity at step time t, one call per step time. Times
        increase strictly, and every call names the quantities of the first in
        the same order, which is the column order of the trajectory CSV."""
        if self.times and t <= self.times[-1]:
            raise ConfigurationError("trajectory times must increase strictly")
        if self.times and list(values) != list(self.logs):
            raise ConfigurationError(f"record names {list(values)}, not {list(self.logs)}")
        self.times.append(float(t))
        for name, value in values.items():
            self.logs.setdefault(name, []).append(float(value))

    def add_snapshot(self, t: float, snap):
        self.snapshot_times.append(float(t))
        self.snapshots.append(snap)

    def final(self):
        return self.snapshots[-1]

    def relative_drift(self, name: str) -> float:
        series = np.asarray(self.logs[name])
        scale = abs(series[0]) or 1.0
        return float(np.max(np.abs(series - series[0])) / scale)


def resolve_steps(T: float, dt: float | None) -> tuple[int, float]:
    """Number of steps and the adjusted dt that lands exactly on T; dt=None
    means DEFAULT_DT."""
    if dt is None:
        dt = DEFAULT_DT
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    if T < 0:
        raise ConfigurationError("time horizon must be nonnegative")
    if T == 0:
        return 0, dt
    steps = max(1, round(T / dt))
    return steps, T / steps


def series_stride(steps: int) -> int:
    """The snapshot stride of a time series over a flow of ``steps`` steps,
    shared by the sweep's series probes and the twin experiments: about
    SNAPSHOT_POINTS intervals, each at least one step long."""
    return max(1, steps // SNAPSHOT_POINTS)


def snapshot_due(n: int, steps: int, stride: int | None) -> bool:
    """Whether a flow stores its state after step n of ``steps``: always the
    initial and final states, and every ``stride``-th step when a stride is
    given."""
    return n == 0 or n == steps or bool(stride and n % stride == 0)
