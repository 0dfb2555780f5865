"""Quantum xi-gradients, momentum weights, spatial densities, operator roots.

The package computes one quantum gradient, grad_xi op = [x/(i hbar), op]: on
kernels it multiplies by the minimal-image chord, and it intertwines exactly
with the Wigner transform. The x-gradient [grad, op] is taken only inside the
chord-domain quantum Sobolev norms (norms._chord_sobolev_norm).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, WrapAmbiguityError
from .grids import PhaseField, PhaseGrid
from .operators import DensityOperator, require_positive
from .spectral import fourier_multiplier
from .transforms import _chord_indices

WRAP_GUARD_TOL = 1e-8


def _band_share(band: float, total: float) -> float:
    return 0.0 if total == 0 else float(band / total)


def wrap_mass(op: DensityOperator) -> float:
    """Relative kernel mass on the antipodal chords |x - y| near L_x / 2."""
    a = np.abs(op.kernel)
    return _band_share(np.sum(a.take(_chord_indices(op.grid.N)["wrap_band"])), np.sum(a))


def chord_wrap_mass(column_mass: np.ndarray) -> float:
    """wrap_mass read from the column masses sum_i |D[i, col]| of a chord
    matrix (see chord_matrix), whose columns may be cyclically shifted: the
    wrap band is the three whole chord columns |c| = N/2 - 1, N/2 (columns
    N/2 - 1, N/2 + 1 and N/2)."""
    half = len(column_mass) // 2
    return _band_share(np.sum(column_mass[half - 1:half + 2]), np.sum(column_mass))


def check_wrap(wm: float, wrap_tol: float = WRAP_GUARD_TOL):
    """The wrap guard of every minimal-image chord product: raise when a
    kernel carries a share ``wm`` above ``wrap_tol`` of its mass near the
    antipodal cut, where the shortest chord is ambiguous."""
    if wm > wrap_tol:
        raise WrapAmbiguityError(
            f"kernel mass {wm:.3e} near the antipodal cut exceeds {wrap_tol:.1e}"
        )


def require_unwrapped(op: DensityOperator, wrap_tol: float = WRAP_GUARD_TOL):
    """check_wrap on the kernel of ``op``."""
    check_wrap(wrap_mass(op), wrap_tol)


@lru_cache(maxsize=1)
def _chord_multiplier(grid: PhaseGrid) -> np.ndarray:
    """(x - y) / (i hbar) on the minimal-image chord; one grid is held."""
    m = _chord_indices(grid.N)["c"] * grid.dx / (1j * grid.hbar)
    m.flags.writeable = False
    return m


def quantum_gradient_xi(op: DensityOperator, wrap_tol: float = WRAP_GUARD_TOL) -> DensityOperator:
    """[x/(i hbar), op]: kernel (x - y)/(i hbar) op(x, y), minimal-image chord.

    Position is only defined modulo the box, so the chord uses its shortest
    periodic representative; kernels carrying mass near the |x - y| = L_x/2
    cut are ambiguous and rejected.
    """
    require_unwrapped(op, wrap_tol)
    return DensityOperator(op.grid, _chord_multiplier(op.grid) * op.kernel, hermitian=False)


def momentum_weight_multiplier(grid: PhaseGrid, n: int) -> np.ndarray:
    """<p>^n = (1 + |p|^2)^(n/2) eigenvalues on the Fourier modes, fft order."""
    if n < 0 or int(n) != n:
        raise ConfigurationError("weight order n must be a nonnegative integer")
    return (1.0 + grid.fourier_momenta**2) ** (int(n) / 2.0)


def momentum_weight_apply(op: DensityOperator, n: int, side: str = "both") -> DensityOperator:
    """Apply the Fourier multiplier <p>^n to an operator kernel.

    side = "left" gives <p>^n op, "right" gives op <p>^n, "both" conjugates
    <p>^n op <p>^n.
    """
    if side not in ("left", "right", "both"):
        raise ConfigurationError(f"side must be left|right|both, got {side!r}")
    g = op.grid
    mult = momentum_weight_multiplier(g, n)
    K = op.kernel
    if side in ("left", "both"):
        K = fourier_multiplier(K, mult, axis=0)
    if side in ("right", "both"):
        # even multiplier: acting on the column index uses the same fft buckets
        K = fourier_multiplier(K, mult, axis=1)
    herm = op.hermitian and side == "both"
    return DensityOperator(g, K, hermitian=herm)


def spatial_density(op: DensityOperator) -> np.ndarray:
    """rho(x) = h op(x, x): scaled kernel diagonal, real for Hermitian op."""
    g = op.grid
    rho = np.diag(op.kernel) * g.h
    if op.hermitian:
        return rho.real.copy()
    return rho.copy()


def xi_marginal(f: PhaseField) -> np.ndarray:
    """rho(x) = sum_k f(x, xi_k) dxi: the spatial density of a phase-space
    field, equal to spatial_density(weyl_quantize(f)) up to rounding."""
    return f.values.sum(axis=1) * f.grid.dxi


@lru_cache(maxsize=8)
def _kinetic_circulant(grid: PhaseGrid) -> np.ndarray:
    """C[m, j] = t[(j - m) mod N], t = ifft(|xi|^2 / 2): the kernel of the
    kinetic multiplier, transposed. t is real and even, so C is real."""
    t = np.fft.ifft(grid.fourier_momenta**2 / 2.0).real
    m = np.arange(grid.N)
    C = t[(m[None, :] - m[:, None]) % grid.N]
    C.flags.writeable = False
    return C


def kinetic_energy(op: DensityOperator) -> float:
    """h Re Tr((-hbar^2 Delta / 2) op) for the Fourier multiplier |xi|^2 / 2.

    The trace of a circulant times the kernel is the elementwise sum of the
    kernel against the transposed circulant: O(N^2), no FFT pass.
    """
    g = op.grid
    tr = np.einsum("ij,ij->", op.kernel.real, _kinetic_circulant(g))
    return float(tr * g.dx * g.h)


def operator_sqrt(op: DensityOperator) -> DensityOperator:
    """Hermitian square root via eigendecomposition.

    Eigenvalues in [-1e-8 * scale, 0) are discretization noise and clamp to 0;
    anything below raises NotPositiveError (require_positive).
    """
    ev, U = require_positive(op)
    g = op.grid
    ev_clamped = np.clip(ev, 0.0, None)
    # matrix eigenvalue of sqrt is sqrt(lambda_op) / dx so that S o S = op
    w = np.sqrt(ev_clamped) / g.dx
    K = (U * w[None, :]) @ U.conj().T
    return DensityOperator(g, K, hermitian=True)
