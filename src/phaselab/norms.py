"""Classical, mixed, Lorentz, weighted Sobolev, rescaled Schatten and quantum
Sobolev norms.

Phase-space norms are cell-sum quadrature norms; p = inf is the grid max.
Schatten norms are rescaled by h^(1/p) so they stay order one in the
semiclassical limit; the operator norm (p = inf) carries no h factor.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .calculus import (
    WRAP_GUARD_TOL,
    check_wrap,
    chord_wrap_mass,
    momentum_weight_multiplier,
)
from .errors import ConfigurationError
from .grids import PhaseField
from .operators import DensityOperator
from .spectral import derivative, derivative_multiplier, modes
from .transforms import _chord_indices


# ---------------------------------------------------------------------------
# phase-space function norms


def lebesgue_norm(f: PhaseField, p: float) -> float:
    """L^p norm over the phase box; p = inf gives max|f|."""
    return spatial_lebesgue_norm(f.values, f.grid.cell, p)


def mixed_norm(f: PhaseField, p: float, q: float) -> float:
    """Mixed norm L^p_x L^q_xi: inner momentum norm, outer spatial norm."""
    v = np.abs(f.values)
    g = f.grid
    if math.isinf(q):
        inner = v.max(axis=1)
    else:
        inner = (np.sum(v**q, axis=1) * g.dxi) ** (1.0 / q)
    if math.isinf(p):
        return float(inner.max())
    return float((np.sum(inner**p) * g.dx) ** (1.0 / p))


def weighted_sobolev_norms(f: PhaseField, k: int, ps, n: int) -> list[float]:
    """W^{k,p}_n norms (sum_{|alpha|<=k} ||<xi>^n d^alpha f||_{L^p}^2)^(1/2),
    one per exponent in ``ps``, from a single pass over the derivatives.

    The outer exponent is 2 for every p, matching the weighted-space
    convention used by the stability budgets. Derivatives are spectral: one
    forward 2-d transform (the half spectrum in xi of a real field, with real
    derivatives), one inverse x-transform per x-order and one inverse
    xi-transform per multi-index. When every p is 2 and n = 0 the norm is
    Parseval's sum over the forward transform, with no inverse transform.
    """
    if k > 4:
        raise ConfigurationError("weighted Sobolev norms support k <= 4")
    g = f.grid
    spec = np.fft.rfft2(f.values) if f.real else np.fft.fft2(f.values)
    cols = spec.shape[1]
    if n == 0 and all(p == 2 for p in ps):
        power = spec.real**2 + spec.imag**2
        if f.real:
            power[:, 1:g.N // 2] *= 2.0   # each of these columns stands for its mirror too
        wx = np.array([derivative_multiplier(g.N, g.L_x, a) for a in range(k + 1)])
        wxi = np.array([derivative_multiplier(g.N, g.L_xi, a)[:cols] for a in range(k + 1)])
        weighted = np.abs(wx) ** 2 @ power @ (np.abs(wxi) ** 2).T
        total = _triangle_sum(weighted, k) * g.cell / g.N**2
        return [float(math.sqrt(total))] * len(ps)
    inverse_xi = partial(np.fft.irfft, n=g.N, axis=1) if f.real else partial(np.fft.ifft, axis=1)
    weight = (1.0 + g.xi**2) ** (n / 2.0)
    totals = [0.0] * len(ps)
    for ax in range(k + 1):
        x_part = np.fft.ifft(spec * derivative_multiplier(g.N, g.L_x, ax)[:, None], axis=0)
        for axi in range(k + 1 - ax):
            dv = inverse_xi(x_part * derivative_multiplier(g.N, g.L_xi, axi)[:cols])
            dv *= weight
            for i, p in enumerate(ps):
                totals[i] += spatial_lebesgue_norm(dv, g.cell, p) ** 2
    return [float(math.sqrt(t)) for t in totals]


def _triangle_sum(M: np.ndarray, k: int) -> float:
    """sum of M[ax, ay] over ax + ay <= k: the squared Sobolev sum when
    M[ax, ay] is the power of a spectrum weighted by the squared multipliers
    of order ax and ay along its two axes."""
    return float(sum(M[ax, ay] for ax in range(k + 1) for ay in range(k + 1 - ax)))


def weighted_sobolev_norm(f: PhaseField, k: int, p: float, n: int) -> float:
    """W^{k,p}_n norm; see weighted_sobolev_norms."""
    return weighted_sobolev_norms(f, k, (p,), n)[0]


def spatial_lebesgue_norm(values: np.ndarray, dx: float, p: float) -> float:
    """L^p norm of samples with cell measure dx; p = inf gives max|values|,
    p = 2 takes one vdot pass."""
    if p == 2:
        return float(math.sqrt(np.vdot(values, values).real * dx))
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
        dv = derivative(values, L, axis=0, order=j) if j else values
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
    ax = 2 * np.pi * modes(g.N) / g.L_x
    axi = 2 * np.pi * modes(g.N) / g.L_xi
    w = (1.0 + ax[:, None] ** 2 + axi[None, :] ** 2) ** 0.5
    vol = g.L_x * g.L_xi
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
    return np.sqrt(np.clip(ev, 0.0, None)) * op.dx


def _hilbert_schmidt(K: np.ndarray, g) -> float:
    """Rescaled Hilbert-Schmidt norm h^{1/2} dx ||K||_F: needs no singular values."""
    hs = math.sqrt(np.vdot(K, K).real) * g.dx
    return float(g.h ** 0.5 * hs)


def _check_indices(ps):
    if any(p < 1 for p in ps):
        raise ConfigurationError("Schatten index must satisfy p >= 1")


def _power_norm(sv: np.ndarray, g, p: float) -> float:
    """h^{1/p} (sum sv^p)^{1/p} of descending operator singular values;
    p = inf gives the largest, with no h factor."""
    if math.isinf(p):
        return float(sv[0]) if len(sv) else 0.0
    return float(g.h ** (1.0 / p) * np.sum(sv**p) ** (1.0 / p))


def schatten_norms(op: DensityOperator, ps) -> list[float]:
    """Rescaled Schatten norms ||op||_{L^p} = h^{1/p} (sum sigma_i^p)^{1/p},
    one per index in ``ps``, from a single set of singular values.

    Operator singular values are dx times the kernel-matrix ones; p = inf
    returns the largest singular value with no h factor, p = 2 needs no
    singular values. An operator flagged Hermitian takes them as |lambda|
    from one eigvalsh (see hermitian_schatten_norms). Otherwise, for p > 2
    they come from the Gram matrix (one Hermitian eigvalsh), for p < 2 from
    an SVD; each route runs at most once per call, and every norm has the
    same bits whichever other indices share the call.
    """
    _check_indices(ps)
    if op.hermitian and any(p != 2 for p in ps):
        return hermitian_schatten_norms(op, ps)[1]
    g = op.grid
    by_route = {}
    out = []
    for p in ps:
        if p == 2:
            out.append(_hilbert_schmidt(op.kernel, g))
            continue
        gram = p > 2
        if gram not in by_route:
            by_route[gram] = _gram_singular_values(op) if gram else op.singular_values()
        out.append(_power_norm(by_route[gram], g, p))
    return out


def hermitian_schatten_norms(op: DensityOperator, ps) -> tuple[np.ndarray, list[float]]:
    """The eigenvalues of an operator flagged Hermitian, ascending, and its
    rescaled Schatten norms, one per index in ``ps``, from one eigvalsh:
    the singular values are |lambda|. p = 2 is the Hilbert-Schmidt norm of
    the kernel, as in schatten_norms."""
    _check_indices(ps)
    g = op.grid
    ev = op.eigenvalues()
    sv = np.sort(np.abs(ev))[::-1]
    return ev, [_hilbert_schmidt(op.kernel, g) if p == 2 else _power_norm(sv, g, p)
                for p in ps]


def schatten_norm(op: DensityOperator, p: float) -> float:
    """Rescaled Schatten norm ||op||_{L^p}; see schatten_norms."""
    return schatten_norms(op, (p,))[0]


def weighted_schatten_norms(op: DensityOperator, ps, n: int) -> list[float]:
    """||op||_{L^p(<p>^n)} = schatten_norm(op <p>^n, p) for each p in ``ps``.

    The weight takes one axis-1 FFT pass: op <p>^n has the kernel
    ifft(fft(K, axis=1) <p>^n, axis=1), and the inverse transform is sqrt(N)
    times a unitary one, so fft(K, axis=1) <p>^n / sqrt(N) has the same
    singular values.
    """
    g = op.grid
    Y = np.fft.fft(op.kernel, axis=1)
    Y *= momentum_weight_multiplier(g, n) / math.sqrt(g.N)
    return schatten_norms(DensityOperator(g, Y, hermitian=False), ps)


def quantum_sobolev_norm(op: DensityOperator, k: int, p: float, n: int = 0,
                         wrap_tol: float | None = None) -> float:
    """Quantum Sobolev norm (sum_{|alpha| <= k} ||grad^alpha op||^2_{L^2(m)})^(1/2),
    m = <p>^n applied on the right, taken in the chord domain (see
    _chord_sobolev_norm); p != 2 or k > 2 raises ConfigurationError. At n = 0
    it equals ||f_op||_{H^k} exactly. ``wrap_tol`` relaxes the xi-gradient
    wrap guard; operator square roots carry a float64 noise floor near
    sqrt(eps) that is harmless to norm budgets but would trip the strict
    default.
    """
    if k > 2:
        raise ConfigurationError("quantum Sobolev norms support k <= 2")
    if p != 2:
        raise ConfigurationError(f"quantum Sobolev norms support p = 2 only, got p = {p}")
    return _chord_sobolev_norm(op, k, n, WRAP_GUARD_TOL if wrap_tol is None else wrap_tol)


def _chord_sobolev_norm(op: DensityOperator, k: int, n: int, wrap_tol: float) -> float:
    """The quantum W^{k,2}(<p>^n) norm from one chord gather, one axis-0 FFT
    and, for n > 0, one axis-1 FFT per xi-order.

    C[i, col] = K[i, (i - col) mod N] holds the chord c = i - j (the minimal
    image of col) in column col, as chord_matrix does, but indexed by x
    rather than by the midpoint; the gather only permutes kernel entries.
    The x-gradient is the spectral derivative along axis 0, its Nyquist mode
    zeroed as the repeated first-order derivative does, and the xi-gradient
    multiplies column col by c dx / (i hbar). The axis-1 FFT of
    fft(C, axis=0) (c dx / hbar)^axi holds the kernel's 2-d spectrum
    K^(q + b, -b) at [q, b], so both |k_x(q)|^{2 ax} and the right weight
    <p_b>^{2 n} (<p> is even) are diagonal, and by Parseval the squared norm
    is h dx^2 / N^2 times their weighted sum of its power over ax + axi <= k.
    At n = 0 Parseval along the chord leaves h dx^2 / N times the sum of
    |k_x|^{2 ax} |c dx / hbar|^{2 axi} |fft(C, axis=0)|^2. Each wrap guard of
    the gradient chain is read from column sums of |C|, in the chain's
    order: the x-gradient of C by one inverse transform when k = 2.
    """
    g = op.grid
    N = g.N
    # C, transformed along axis 0 in place once its column masses are read
    spec = np.take(op.kernel, _chord_indices(N)["row_flat"])
    mult = derivative_multiplier(N, g.L_x, 1)
    chord = (((np.arange(N) + N // 2) % N) - N // 2) * (g.dx / g.hbar)
    masses = [np.sum(np.abs(spec), axis=0)]
    np.fft.fft(spec, axis=0, out=spec)
    work = np.empty_like(spec) if k == 2 or n else None
    if k == 2:
        grad = np.fft.ifft(np.multiply(spec, mult[:, None], out=work), axis=0, out=work)
        masses.append(np.sum(np.abs(grad), axis=0))
    for ax, mass in enumerate(masses[:k]):
        for axi in range(k - ax):
            check_wrap(chord_wrap_mass(mass * np.abs(chord) ** axi), wrap_tol)
    orders = 2 * np.arange(k + 1)[:, None]
    if n == 0:
        cols = (spec.real**2 + spec.imag**2) @ (np.abs(chord) ** orders).T
        scale = g.h * g.dx**2 / N
    else:
        weight = np.repeat(momentum_weight_multiplier(g, n) ** 2, 2)
        cols = np.empty((N, k + 1))
        for axi in range(k + 1):
            squares = np.fft.fft(np.multiply(spec, chord**axi, out=work), axis=1,
                                 out=work).view(float)
            np.square(squares, out=squares)
            cols[:, axi] = squares @ weight   # real and imaginary parts side by side
        scale = g.h * g.dx**2 / N**2
    return float(math.sqrt(scale * _triangle_sum(np.abs(mult) ** orders @ cols, k)))
