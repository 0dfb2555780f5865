"""Gronwall budgets: the lambda rates of the stability theorems and their
time integrals, for both the kinetic and the quantum flows."""

from __future__ import annotations

import numpy as np

from .calculus import quantum_gradient_xi
from .grids import PhaseField
from .norms import (
    lorentz_norm,
    mixed_norm,
    quantum_sobolev_norm,
    weighted_schatten_norms,
)
from .operators import DensityOperator
from .spectral import derivative


def cumulative_trapezoid(values, times) -> np.ndarray:
    """Running trapezoid integral of a series from 0, accumulated step by step."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(len(times))
    np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times), out=out[1:])
    return out


def sqrt_field(f: PhaseField) -> PhaseField:
    """Pointwise square root with tiny negative excursions clamped to zero."""
    v = np.clip(f.values, 0.0, None)
    return PhaseField(f.grid, np.sqrt(v), real=True)


def classical_rate(f2: PhaseField, rho_sup: float, C_inf: float) -> float:
    """The kinetic stability rate at one snapshot f2 of the second solution,
    with rho_sup = ||rho_2||_inf its density's sup norm:

    lambda = ||rho_2||_inf^(1/2) ||grad_xi sqrt(f2)||_{L^3_x L^2_xi}
           + C_inf^(1/2) ||grad_xi sqrt(f2)||_{L^{3,1}_x L^1_xi}.
    """
    g = f2.grid
    grad = derivative(sqrt_field(f2).values, g.L_xi, axis=1)
    m32 = mixed_norm(PhaseField(g, np.abs(grad), real=True), 3, 2)
    l31 = lorentz_norm(np.sum(np.abs(grad), axis=1) * g.dxi, g.dx, 3, 1)
    return np.sqrt(rho_sup) * m32 + np.sqrt(C_inf) * l31


# the wrap guard for square-root kernels, which sit on a sqrt(eps) rounding floor
SQRT_WRAP_TOL = 1e-5
QUANTUM_WEIGHT_N = 3          # the momentum weight <p>^n of the quantum rate
QUANTUM_PAIR = (2.5, 3.5)     # its Schatten pair 3 +- eps, eps = 1/2
ENVELOPE_SLACK_FACTOR = 2.0   # structural slack of the fitted twin and regularity envelopes


def quantum_rate(v: DensityOperator, rho_sup: float, C_inf: float) -> tuple[float, float, float]:
    """The quantum stability rate at one square-root snapshot v:

    lambda = ||grad_xi v||_{W^{1,2}} ||rho||_inf^(1/2)
           + C_inf^(1/2) ||grad_xi v||_{L^{3 +- eps}(<p>^n)},

    with n = QUANTUM_WEIGHT_N and the 3 +- eps pair QUANTUM_PAIR combined
    by max. Returns (lambda, ||grad_xi v||_{W^{1,2}}, the weighted pair).
    """
    grad = quantum_gradient_xi(v, SQRT_WRAP_TOL)
    w12 = quantum_sobolev_norm(grad, 1, wrap_tol=SQRT_WRAP_TOL)
    pair = max(weighted_schatten_norms(grad, QUANTUM_PAIR, QUANTUM_WEIGHT_N))
    return w12 * np.sqrt(rho_sup) + np.sqrt(C_inf) * pair, w12, pair


def _implied_rates(times, left, Lambda):
    """(t, log(left / left0) / Lambda) at each later time t where both the
    left side and Lambda have moved; none when left0 <= 0."""
    left = np.asarray(left)
    Lambda = np.asarray(Lambda)
    if left[0] <= 0:
        return
    for n in range(1, len(times)):
        if Lambda[n] > 0 and left[n] > 0:
            yield times[n], float(np.log(left[n] / left[0]) / Lambda[n])


def fit_c_star(times, left, Lambda) -> float:
    """Effective Gronwall constant calibrated on the earliest usable interval.

    Uses the implied rate at the first time where both the left side and
    Lambda have moved; frozen afterwards so envelopes are not
    self-fulfilling. Never negative.
    """
    return max(next((rate for _, rate in _implied_rates(times, left, Lambda)), 0.0), 0.0)


def fit_c_star_window(times, left, Lambda) -> float:
    """Effective Gronwall constant from the first half of the horizon.

    Takes the largest implied rate log(left/left0)/Lambda over times in
    [0, T / 2], never below 0, and freezes it; the envelope is then genuinely
    tested by the later (uncalibrated) times. Robust against the quadratic-in-time
    transients of symmetric twin data, for which the single-first-interval
    rate systematically underestimates the saturated growth rate.
    """
    t_cal = times[0] + 0.5 * (times[-1] - times[0])
    return max([0.0, *(rate for t, rate in _implied_rates(times, left, Lambda) if t <= t_cal)])


def fit_envelope_scale(left, env) -> tuple[float, slice] | None:
    """Constant of a raw envelope env calibrated on its earliest usable time.

    c* = left / env at the first time after t = 0 where both are positive;
    frozen afterwards, so the envelope c* env is tested only at the later
    times, whose slice is returned with it. None when no time is usable or
    none follows it.
    """
    fit = next((i for i in range(1, len(env)) if env[i] > 0 and left[i] > 0), None)
    if fit is None or fit + 1 >= len(env):
        return None
    return left[fit] / env[fit], slice(fit + 1, len(env))
