"""Gronwall budgets: the lambda rates of the stability theorems and their
time integrals, for both the kinetic and the quantum flows."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import quantum_gradient_xi, spatial_density
from .errors import ConfigurationError
from .grids import PhaseField
from .norms import (
    lorentz_norm,
    mixed_norm,
    quantum_sobolev_norm,
    weighted_schatten_norms,
)
from .operators import DensityOperator
from .spectral import derivative
from .trajectory import Trajectory


def cumulative_trapezoid(values, times) -> np.ndarray:
    """Running trapezoid integral of a series from 0, accumulated step by step."""
    out = np.zeros(len(times))
    for n in range(1, len(times)):
        out[n] = out[n - 1] + 0.5 * (values[n] + values[n - 1]) * (times[n] - times[n - 1])
    return out


@dataclass
class GronwallBudget:
    """lambda(t) series, its integral Lambda, and auxiliary budget pieces."""

    times: np.ndarray
    lam: np.ndarray
    C_inf: float
    extras: dict = field(default_factory=dict)

    def Lambda(self) -> np.ndarray:
        """Cumulative trapezoid integral of lambda; nondecreasing from 0."""
        return cumulative_trapezoid(self.lam, self.times)

    def envelope(self, left0: float, c_star: float) -> np.ndarray:
        """Gronwall right side left0 * exp(c_star * Lambda(t))."""
        return left0 * np.exp(c_star * self.Lambda())


def sqrt_field(f: PhaseField) -> PhaseField:
    """Pointwise square root with tiny negative excursions clamped to zero."""
    v = np.clip(f.values, 0.0, None)
    return PhaseField(f.grid, np.sqrt(v), real=True)


def classical_lambda(f2_traj: Trajectory, C_inf: float) -> GronwallBudget:
    """Kinetic stability rate lambda(t) along the second solution:

    lambda = ||rho_2||_inf^(1/2) ||grad_xi sqrt(f2)||_{L^3_x L^2_xi}
           + C_inf^(1/2) ||grad_xi sqrt(f2)||_{L^{3,1}_x L^1_xi}.
    """
    if f2_traj.kind != "field":
        raise ConfigurationError("classical budget needs a field trajectory")
    times = np.asarray(f2_traj.snapshot_times)
    lam = np.empty(len(times))
    piece_mixed, piece_lorentz = [], []
    field_by_time = {snap.time: snap for snap in f2_traj.fields}
    for idx, (t, f2) in enumerate(zip(times, f2_traj.snapshots)):
        g = f2.grid
        v2 = sqrt_field(f2)
        grad = derivative(v2.values.astype(complex), g.L_xi, axis=1).real
        gfield = PhaseField(g, np.abs(grad), real=True)
        m32 = mixed_norm(gfield, 3, 2)
        w = np.sum(np.abs(grad), axis=1) * g.dxi**g.d
        l31 = lorentz_norm(w, g.dx**g.d, 3, 1)
        rho_inf = float(np.max(np.abs(field_by_time[t].rho)))
        lam[idx] = np.sqrt(rho_inf) * m32 + np.sqrt(C_inf) * l31
        piece_mixed.append(m32)
        piece_lorentz.append(l31)
    return GronwallBudget(times, lam, C_inf,
                          extras={"mixed_32": piece_mixed, "lorentz_31": piece_lorentz})


SQRT_WRAP_TOL = 1e-5


def quantum_lambda(v_snapshots: list[DensityOperator], times, rho_sup: list[float],
                   C_inf: float, n: int = 3, eps: float = 0.5,
                   wrap_tol: float = SQRT_WRAP_TOL) -> GronwallBudget:
    """Quantum stability rate along the square-root trajectory v(t):

    lambda = ||grad_xi v||_{W^{1,2}} ||rho||_inf^(1/2)
           + C_inf^(1/2) ||grad_xi v||_{L^{3 +- eps}(<p>^n)},

    with the 3 +- eps pair combined by max. ``extras`` holds the two pieces
    per snapshot: "w12" (||grad_xi v||_{W^{1,2}}) and "weighted_n" (the
    weighted pair). The wrap guard is relaxed by default because square-root
    kernels sit on a sqrt(eps) rounding floor.
    """
    if not (0 < eps < 1):
        raise ConfigurationError("eps must lie in (0, 1)")
    times = np.asarray(times)
    lam = np.empty(len(times))
    w12s, weighted = [], []
    for idx, v in enumerate(v_snapshots):
        grad = quantum_gradient_xi(v, wrap_tol)
        w12 = quantum_sobolev_norm(grad, 1, 2, 0, wrap_tol=wrap_tol)
        pair = max(weighted_schatten_norms(grad, (3.0 - eps, 3.0 + eps), n))
        lam[idx] = w12 * np.sqrt(rho_sup[idx]) + np.sqrt(C_inf) * pair
        w12s.append(w12)
        weighted.append(pair)
    return GronwallBudget(times, lam, C_inf,
                          extras={"w12": w12s, "weighted_n": weighted, "n": n, "eps": eps})


def fit_c_star(times, left, Lambda, floor: float = 0.0) -> float:
    """Effective Gronwall constant calibrated on the earliest usable interval.

    Uses the first time where both the left side and Lambda have moved;
    frozen afterwards so envelopes are not self-fulfilling.
    """
    left = np.asarray(left)
    Lambda = np.asarray(Lambda)
    if left[0] <= 0:
        return floor
    for n in range(1, len(times)):
        if Lambda[n] > 0 and left[n] > 0:
            c = float(np.log(left[n] / left[0]) / Lambda[n])
            return max(c, floor)
    return floor


def fit_c_star_window(times, left, Lambda, frac: float = 0.5, floor: float = 0.0) -> float:
    """Effective Gronwall constant from the early part of the horizon.

    Takes the largest implied rate log(left/left0)/Lambda over times in
    [0, frac * T] and freezes it; the envelope is then genuinely tested by
    the later (uncalibrated) times. Robust against the quadratic-in-time
    transients of symmetric twin data, for which the single-first-interval
    rate systematically underestimates the saturated growth rate.
    """
    times = np.asarray(times)
    left = np.asarray(left)
    Lambda = np.asarray(Lambda)
    if left[0] <= 0 or len(times) < 2:
        return floor
    t_cal = times[0] + frac * (times[-1] - times[0])
    best = floor
    for n in range(1, len(times)):
        if times[n] > t_cal:
            break
        if Lambda[n] > 0 and left[n] > 0:
            best = max(best, float(np.log(left[n] / left[0]) / Lambda[n]))
    return best


def rho_sup_series(traj: Trajectory) -> list[float]:
    """Sup norms of the spatial density at the snapshot times of a trajectory."""
    by_time = {snap.time: snap for snap in traj.fields}
    out = []
    for t, s in zip(traj.snapshot_times, traj.snapshots):
        if traj.kind == "field":
            out.append(float(np.max(np.abs(by_time[t].rho))))
        else:
            out.append(float(np.max(np.abs(spatial_density(s)))))
    return out
