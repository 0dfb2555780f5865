"""Lemma-level inequality probes measured at a single grid resolution.

Each probe returns the measured left side together with the budget (the
right side stripped of its unknown constant); hbar-sweep aggregation and
slope fits live in the sweeps module.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .calculus import momentum_weight_apply, quantum_gradient_xi, xi_marginal
from .coherent import husimi_convolve, wick_quantize
from .grids import PhaseField, PhaseGrid
from .norms import (
    lebesgue_norm,
    quantum_sobolev_norm,
    schatten_norm,
    schatten_norms,
    spatial_lebesgue_norm,
    weighted_sobolev_norm,
)
from .operators import DensityOperator
from .poisson import solve_poisson
from .remainder import b_remainder, potential_commutator
from .spectral import derivative
from .transforms import weyl_quantize


def phase_gradient_magnitude(f: PhaseField) -> PhaseField:
    """|grad f| over the phase space (both axes, spectral)."""
    g = f.grid
    dx_ = derivative(f.values, g.L_x, axis=0)
    dxi = derivative(f.values, g.L_xi, axis=1)
    return PhaseField(g, np.sqrt(np.abs(dx_) ** 2 + np.abs(dxi) ** 2), real=True)


class WickSquare(NamedTuple):
    """A real symbol g, its Husimi smoothing g_h * g, its Wick operator
    wick(g) = weyl(g_h * g), its square g^2 and the Wick-square gap
    wick(g^2) - wick(g)^2, flagged Hermitian."""

    symbol: PhaseField
    smoothed: PhaseField
    wick: DensityOperator
    square: PhaseField
    gap: DensityOperator


def wick_square_data(g_field: PhaseField) -> WickSquare:
    """The WickSquare of g_field: two Wick quantizations and one product."""
    smoothed = husimi_convolve(g_field)
    wg = weyl_quantize(smoothed)
    wg2 = wg @ wg
    wg2.hermitian = True   # the square of a Hermitian operator
    g2 = g_field.copy_with(g_field.values**2)
    return WickSquare(g_field, smoothed, wg, g2, wick_quantize(g2) - wg2)


def wick_square_probe(w: WickSquare) -> dict:
    """Lemma on Wick squares: ||wick(g^2) - wick(g)^2||_{L^p} vs hbar ||grad g||^2_{L^{2p}}
    for p = 1, 2, inf, the three norms from one spectrum of the gap."""
    hbar = w.symbol.grid.hbar
    gradmag = phase_gradient_magnitude(w.symbol)
    ps = (1, 2, np.inf)
    out = {}
    for p, lhs in zip(ps, schatten_norms(w.gap, ps)):
        two_p = np.inf if np.isinf(p) else 2 * p
        budget = hbar * lebesgue_norm(gradmag, two_p) ** 2
        key = "inf" if np.isinf(p) else str(int(p))
        out[f"lhs_p{key}"] = lhs
        out[f"budget_p{key}"] = budget
    return out


def weight_remainder_probe(f: PhaseField) -> dict:
    """Weyl-weight remainders:

    ||op_{<xi> f} - op_f <p>||_L2 <= (hbar/2) ||grad_x f||_L2 and
    ||<p> op_f <p> - op_{<xi>^2 f}||_L2 <= (hbar^2/4) ||Delta_x f||_L2.
    """
    grid = f.grid
    hbar = grid.hbar
    xi_w = np.sqrt(1.0 + grid.xi**2)
    op_f = weyl_quantize(f)
    op_wf = weyl_quantize(f.copy_with(f.values * xi_w[None, :]))
    lhs1 = schatten_norm(op_wf - momentum_weight_apply(op_f, 1, "right"), 2)
    budget1 = 0.5 * hbar * lebesgue_norm(f.copy_with(derivative(f.values, grid.L_x, axis=0)), 2)
    op_w2f = weyl_quantize(f.copy_with(f.values * (xi_w**2)[None, :]))
    sandwich = momentum_weight_apply(op_f, 1, "both")
    lhs2 = schatten_norm(sandwich - op_w2f, 2)
    budget2 = 0.25 * hbar**2 * lebesgue_norm(
        f.copy_with(derivative(f.values, grid.L_x, axis=0, order=2)), 2)
    return {"lhs1": lhs1, "budget1": budget1, "lhs2": lhs2, "budget2": budget2}


def gaussian_commutator_probe(f: PhaseField) -> dict:
    """Weight vs Gaussian smoothing: ||<xi>(g_h*f) - g_h*(<xi> f)||_{L^2}
    against hbar ||f||_{H^1}."""
    grid = f.grid
    xi_w = np.sqrt(1.0 + grid.xi**2)
    conv = husimi_convolve(f)
    lhs_field = conv.copy_with(conv.values * xi_w[None, :]) - husimi_convolve(
        f.copy_with(f.values * xi_w[None, :]))
    lhs = lebesgue_norm(lhs_field, 2)
    budget = grid.hbar * weighted_sobolev_norm(f, 1, 2, 0)
    return {"lhs": lhs, "budget": budget}


def commutator_probe(rho: np.ndarray, mu: DensityOperator) -> dict:
    """Semiclassical commutator bound for the potential V of the density rho:
    (1/hbar) ||[V, mu]||_L2 <= C ||rho||_{L^2_x} ||grad_xi mu||_{W^{1,2}}."""
    grid = mu.grid
    snap = solve_poisson(grid, rho, +1)
    lhs = schatten_norm(potential_commutator(mu, snap.V), 2) / grid.hbar
    budget = spatial_lebesgue_norm(rho, grid.dx, 2) * quantum_sobolev_norm(
        quantum_gradient_xi(mu), 1, 2, 0)
    return {"lhs": lhs, "budget": budget}


def b_bound_probe(f: PhaseField, sign: int = 1) -> dict:
    """B-remainder size: (1/hbar)||B_f(op_f)||_L2 vs
    hbar ||grad E_f||_inf ||grad_xi^2 f||_L2 (the paper's two-sided content)."""
    grid = f.grid
    snap = solve_poisson(grid, xi_marginal(f), sign)
    op = weyl_quantize(f)
    B = b_remainder(op, snap.V)
    lhs = schatten_norm(B, 2) / grid.hbar
    budget = grid.hbar * grad_e_sup(grid, snap.E) * hessian_xi_norm(f)
    return {"lhs": lhs, "budget": budget}


def init_diff_probe(w: WickSquare) -> dict:
    """Weighted Wick-square gap:
    ||<p>(wick(g^2) - wick(g)^2)<p>||_L2 vs hbar * C_init-style budget."""
    lhs = schatten_norm(momentum_weight_apply(w.gap, 1, "both"), 2)
    return {"lhs": lhs, "budget": w.symbol.grid.hbar * c_init(w.symbol, w.square)}


def c_init(root: PhaseField, f: PhaseField) -> float:
    """C^init = ||root||^2_{W^{1,4}_1 cap H^3} + ||f||_{H^1_1 cap H^2}, for a
    datum f = root^2."""
    a = max(weighted_sobolev_norm(root, 1, 4, 1), weighted_sobolev_norm(root, 3, 2, 0))
    b = max(weighted_sobolev_norm(f, 1, 2, 1), weighted_sobolev_norm(f, 2, 2, 0))
    return a**2 + b


def grad_e_sup(grid: PhaseGrid, E: np.ndarray) -> float:
    return float(np.max(np.abs(derivative(E, grid.L_x, axis=0))))


def hessian_xi_norm(f: PhaseField) -> float:
    g = f.grid
    return lebesgue_norm(f.copy_with(derivative(f.values, g.L_xi, axis=1, order=2)), 2)
