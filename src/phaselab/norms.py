"""Classical, mixed, Lorentz, weighted Sobolev, rescaled Schatten and quantum
Sobolev norms.

Phase-space norms are cell-sum quadrature norms; p = inf is the grid max.
Schatten norms are rescaled by h^(d/p) so they stay order one in the
semiclassical limit; the operator norm (p = inf) carries no h factor.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .calculus import momentum_weight_apply, quantum_gradient_x, quantum_gradient_xi
from .errors import ConfigurationError
from .grids import PhaseField
from .operators import DensityOperator
from .spectral import derivative


# ---------------------------------------------------------------------------
# phase-space function norms


def lebesgue_norm(f: PhaseField, p: float) -> float:
    """L^p norm over the phase box; p = inf gives max|f|."""
    v = np.abs(f.values)
    if math.isinf(p):
        return float(v.max())
    return float((np.sum(v**p) * f.grid.cell) ** (1.0 / p))


def mixed_norm(f: PhaseField, p: float, q: float) -> float:
    """Mixed norm L^p_x L^q_xi: inner momentum norm, outer spatial norm."""
    v = np.abs(f.values)
    g = f.grid
    if math.isinf(q):
        inner = v.max(axis=1)
    else:
        inner = (np.sum(v**q, axis=1) * g.dxi**g.d) ** (1.0 / q)
    if math.isinf(p):
        return float(inner.max())
    return float((np.sum(inner**p) * g.dx**g.d) ** (1.0 / p))


def _phase_derivative(f: PhaseField, ax: int, axi: int) -> np.ndarray:
    out = f.values.astype(complex)
    if ax:
        out = derivative(out, f.grid.L_x, axis=0, order=ax)
    if axi:
        out = derivative(out, f.grid.L_xi, axis=1, order=axi)
    return out


def weighted_sobolev_norms(f: PhaseField, k: int, ps, n: int) -> list[float]:
    """W^{k,p}_n norms (sum_{|alpha|<=k} ||<xi>^n d^alpha f||_{L^p}^2)^(1/2),
    one per exponent in ``ps``, from a single pass over the derivatives.

    The outer exponent is 2 for every p, matching the weighted-space
    convention used by the stability budgets. Derivatives are spectral.
    """
    if k > 4:
        raise ConfigurationError("weighted Sobolev norms support k <= 4")
    g = f.grid
    weight = (1.0 + g.xi**2) ** (n / 2.0)
    totals = [0.0] * len(ps)
    for ax in range(k + 1):
        for axi in range(k + 1 - ax):
            dv = PhaseField(g, _phase_derivative(f, ax, axi) * weight[None, :], real=False)
            for i, p in enumerate(ps):
                totals[i] += lebesgue_norm(dv, p) ** 2
    return [float(math.sqrt(t)) for t in totals]


def weighted_sobolev_norm(f: PhaseField, k: int, p: float, n: int) -> float:
    """W^{k,p}_n norm; see weighted_sobolev_norms."""
    return weighted_sobolev_norms(f, k, (p,), n)[0]


def spatial_lebesgue_norm(values: np.ndarray, dx: float, p: float) -> float:
    v = np.abs(values)
    if math.isinf(p):
        return float(v.max())
    return float((np.sum(v**p) * dx) ** (1.0 / p))


def spatial_sobolev_norm(values: np.ndarray, L: float, k: int, p: float) -> float:
    """W^{k,p} norm of a spatial field, same sum-of-squares convention."""
    N = len(values)
    dx = L / N
    total = 0.0
    for j in range(k + 1):
        dv = derivative(values.astype(complex), L, axis=0, order=j) if j else values
        total += spatial_lebesgue_norm(dv, dx, p) ** 2
    return float(math.sqrt(total))


def lorentz_norm(values: np.ndarray, dx: float, p: float, q: float) -> float:
    """Discrete Lorentz L^{p,q} quasi-norm of a spatial field.

    Decreasing rearrangement with cell measure dx; q < inf uses the
    cumulative-measure midpoint rule for the dt/t weight (a small documented
    bias, exact at q = p), q = inf uses the right endpoint, which is exact
    for indicators since t^{1/p} increases across each cell.
    """
    v = np.sort(np.abs(np.asarray(values)).ravel())[::-1]
    m = dx
    s = (np.arange(len(v)) + 1.0) * m          # right cumulative measure
    if math.isinf(q):
        return float(np.max(s ** (1.0 / p) * v))
    t = s - 0.5 * m                             # midpoints
    w = m / t
    return float((np.sum((t ** (1.0 / p) * v) ** q * w)) ** (1.0 / q))


def h_half_norm(f: PhaseField) -> float:
    """Fourier-multiplier H^{1/2} norm of a phase-space field (comparison only)."""
    g = f.grid
    spec = np.fft.fft2(f.values) / g.N**2
    ax = 2 * np.pi * np.fft.fftfreq(g.N, d=1.0 / g.N) / g.L_x
    axi = 2 * np.pi * np.fft.fftfreq(g.N, d=1.0 / g.N) / g.L_xi
    w = (1.0 + ax[:, None] ** 2 + axi[None, :] ** 2) ** 0.5
    vol = (g.L_x * g.L_xi) ** g.d
    return float(math.sqrt(np.sum(w * np.abs(spec) ** 2) * vol))


# ---------------------------------------------------------------------------
# operator norms


def _gram_singular_values(op: DensityOperator) -> np.ndarray:
    """Operator singular values, descending, as the square roots of the
    eigenvalues of the Gram matrix K^H K, clamped at 0.

    Squaring loses the singular values below about sqrt(eps) sigma_max; for
    p >= 2 each of them adds at most eps sigma_max^p to the power sum.
    """
    K = op.kernel
    ev = np.linalg.eigvalsh(K.conj().T @ K)[::-1]
    return np.sqrt(np.clip(ev, 0.0, None)) * op.dx**op.grid.d


def schatten_norms(op: DensityOperator, ps) -> list[float]:
    """Rescaled Schatten norms ||op||_{L^p} = h^{d/p} (sum sigma_i^p)^{1/p},
    one per index in ``ps``, from a single set of singular values.

    Operator singular values are dx^d times the kernel-matrix ones; p = inf
    returns the largest singular value with no h factor, p = 2 needs no
    singular values. For p > 2 they come from the Gram matrix (one Hermitian
    eigvalsh), for p < 2 from an SVD; each route runs at most once per call,
    and every norm has the same bits whichever other indices share the call.
    """
    if any(p < 1 for p in ps):
        raise ConfigurationError("Schatten index must satisfy p >= 1")
    g = op.grid
    by_route = {}
    out = []
    for p in ps:
        if p == 2:
            # Hilbert-Schmidt: no singular values needed
            hs = math.sqrt(float(np.sum(np.abs(op.kernel) ** 2))) * g.dx**g.d
            out.append(float(g.h ** (g.d / 2.0) * hs))
            continue
        gram = p > 2
        if gram not in by_route:
            by_route[gram] = _gram_singular_values(op) if gram else op.singular_values()
        sv = by_route[gram]
        if math.isinf(p):
            out.append(float(sv[0]) if len(sv) else 0.0)
        else:
            out.append(float(g.h ** (g.d / p) * np.sum(sv**p) ** (1.0 / p)))
    return out


def schatten_norm(op: DensityOperator, p: float) -> float:
    """Rescaled Schatten norm ||op||_{L^p}; see schatten_norms."""
    return schatten_norms(op, (p,))[0]


def weighted_schatten_norms(op: DensityOperator, ps, n: int) -> list[float]:
    """||op||_{L^p(<p>^n)} = schatten_norm(op <p>^n, p) for each p in ``ps``."""
    if n == 0:
        return schatten_norms(op, ps)
    return schatten_norms(momentum_weight_apply(op, n, side="right"), ps)


def weighted_schatten_norm(op: DensityOperator, p: float, n: int) -> float:
    """||op||_{L^p(<p>^n)}; see weighted_schatten_norms."""
    return weighted_schatten_norms(op, (p,), n)[0]


def _gradient_multiindices(k: int):
    """Multi-indices (ax, axi) with ax + axi <= k, x-gradients applied first."""
    return [(ax, axi) for ax, axi in product(range(k + 1), repeat=2) if ax + axi <= k]


def apply_quantum_gradients(op: DensityOperator, ax: int, axi: int,
                            wrap_tol: float | None = None) -> DensityOperator:
    out = op
    for _ in range(ax):
        out = quantum_gradient_x(out)
    for _ in range(axi):
        out = quantum_gradient_xi(out) if wrap_tol is None else quantum_gradient_xi(out, wrap_tol)
    return out


def quantum_sobolev_norm(op: DensityOperator, k: int, p: float, n: int = 0,
                         wrap_tol: float | None = None) -> float:
    """Quantum Sobolev norm combining all |alpha| <= k quantum gradients.

    For p < inf: (sum_alpha ||grad^alpha op||^p_{L^p(m)})^(1/p); for p = inf
    the sup over alpha. m = <p>^n applied on the right. At p = 2, n = 0 this
    equals ||f_op||_{H^k} exactly. ``wrap_tol`` relaxes the xi-gradient wrap
    guard; operator square roots carry a float64 noise floor near sqrt(eps)
    that is harmless to norm budgets but would trip the strict default.
    """
    if k > 2:
        raise ConfigurationError("quantum Sobolev norms support k <= 2")
    terms = []
    for ax, axi in _gradient_multiindices(k):
        gop = apply_quantum_gradients(op, ax, axi, wrap_tol=wrap_tol)
        terms.append(weighted_schatten_norm(gop, p, n))
    if math.isinf(p):
        return float(max(terms))
    return float(np.sum(np.array(terms) ** p) ** (1.0 / p))
