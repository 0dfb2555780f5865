"""References that the tests compare the package against.

None of these runs in a ``phaselab`` command: they are elementary operators
(the identity, rank-one projectors) and slow, direct or closed-form routes
to quantities the package computes another way.
"""

from __future__ import annotations

import math

import numpy as np

from phaselab.calculus import quantum_gradient_xi
from phaselab.coherent import CoherentState, _wave_packet_values
from phaselab.grids import PhaseField, PhaseGrid
from phaselab.operators import DensityOperator
from phaselab.spectral import derivative, fourier_multiplier, shift
from phaselab.transforms import _chord_indices, chord_matrix


def identity_operator(grid: PhaseGrid) -> DensityOperator:
    """Identity operator: kernel = I / dx."""
    K = np.eye(grid.N, dtype=complex) / grid.dx
    return DensityOperator(grid, K, hermitian=True)


def outer_projector(grid: PhaseGrid, psi: np.ndarray, scale: float = 1.0) -> DensityOperator:
    """Rank-one operator scale * |psi><psi| with kernel psi(x) conj(psi(y))."""
    K = scale * np.outer(psi, psi.conj())
    return DensityOperator(grid, K, hermitian=True)


def coherent_norm(state: CoherentState) -> float:
    """Grid L^2 norm of the wave packet."""
    return float(np.sqrt(np.sum(np.abs(state.values) ** 2) * state.grid.dx))


def coherent_projector(state: CoherentState) -> DensityOperator:
    """op_z = h^{-1} |psi_z><psi_z|."""
    g = state.grid
    return outer_projector(g, state.values, scale=g.h**-1)


def wick_sum_oracle(f: PhaseField) -> DensityOperator:
    """Brute-force Wick quantization: h^{-1} sum_z f(z) |psi_z><psi_z| dz.

    Quadrature over a phase-space sub-lattice with at least four nodes per
    sqrt(hbar) per axis; f is sampled on the sub-lattice by zero-padded
    spectral refinement. Centers are not snapped (on grid points every
    packet is periodic in xi0 with period L_xi, so the rectangle rule
    applies). Affordable only at small N; used to cross-check the
    convolution route.
    """
    g = f.grid
    step = math.sqrt(g.hbar) / 4
    nx = max(g.N, int(math.ceil(g.L_x / step)))
    nxi = max(g.N, int(math.ceil(g.L_xi / step)))
    fine = _spectral_refine(f.values, nx, nxi)
    xs = np.arange(nx) * (g.L_x / nx)
    xis = -g.L_xi / 2 + np.arange(nxi) * (g.L_xi / nxi)
    dz = (g.L_x / nx) * (g.L_xi / nxi)
    K = np.zeros((g.N, g.N), dtype=complex)
    for u, x0 in enumerate(xs):
        psis = np.empty((nxi, g.N), dtype=complex)
        for a, xi0 in enumerate(xis):
            psis[a] = _wave_packet_values(g, x0, xi0)
        K += (psis.T * fine[u]) @ psis.conj()
    K *= dz * g.h**-1
    op = DensityOperator(g, K)
    op.check_hermitian(1e-8)
    return op


def _spectral_refine(values: np.ndarray, nx: int, nxi: int) -> np.ndarray:
    """Zero-padded FFT interpolation onto an (nx, nxi) grid with the same origin."""
    N = values.shape[0]
    spec = np.fft.fftshift(np.fft.fft2(values)) / N**2
    out = np.zeros((nx, nxi), dtype=complex)
    lo_x, lo_xi = nx // 2 - N // 2, nxi // 2 - N // 2
    out[lo_x:lo_x + N, lo_xi:lo_xi + N] = spec
    fine = np.fft.ifft2(np.fft.ifftshift(out)) * nx * nxi
    if not np.iscomplexobj(values):
        return fine.real
    return fine


def free_transport(f0: PhaseField, t: float) -> PhaseField:
    """Exact free flow f(t, x, xi) = f0(x - xi t, xi) by spectral shift."""
    g = f0.grid
    vals = shift(f0.values.astype(float), g.L_x, g.xi * t, axis=0)
    return PhaseField(g, vals, real=f0.real)


def free_schroedinger(op0: DensityOperator, t: float) -> DensityOperator:
    """Exact free conjugation exp(-i t |p|^2 / (2 hbar)) op exp(+i ...)."""
    g = op0.grid
    phase = np.exp(-1j * t * g.fourier_momenta**2 / (2.0 * g.hbar))
    K = fourier_multiplier(op0.kernel, phase, axis=0)
    K = fourier_multiplier(K, phase.conj(), axis=1)
    return DensityOperator(g, K, hermitian=op0.hermitian)


def scatter_chords(grid: PhaseGrid, Dmat: np.ndarray) -> np.ndarray:
    """Inverse of chord_matrix: rebuild the kernel from its diagonals."""
    K = np.empty((grid.N, grid.N), dtype=complex)
    K.put(_chord_indices(grid.N)["diag_flat"], Dmat)
    return K


def quantum_gradient_x(op: DensityOperator) -> DensityOperator:
    """[grad, op]: the midpoint derivative (d/dx + d/dy) of the kernel, built
    in kernel space, against which the chord-domain quantum Sobolev norms are
    checked.

    Applied along each circulant diagonal of the kernel (a chord slice is a
    smooth periodic function of its midpoint), which intertwines exactly with
    the Wigner transform: f_{grad_x op} = d_x f_op on the grid. A raw spectral
    derivative over the kernel rows and columns would alias the half-integer
    midpoint frequencies carried by odd spatial symbol modes.
    """
    g = op.grid
    D = derivative(chord_matrix(op), g.L_x, axis=0)
    return DensityOperator(g, scatter_chords(g, D), hermitian=False)


def apply_quantum_gradients(op: DensityOperator, ax: int, axi: int,
                            wrap_tol: float | None = None) -> DensityOperator:
    """grad_x^ax then grad_xi^axi of op, for one multi-index alone."""
    out = op
    for _ in range(ax):
        out = quantum_gradient_x(out)
    for _ in range(axi):
        out = quantum_gradient_xi(out) if wrap_tol is None else quantum_gradient_xi(out, wrap_tol)
    return out
