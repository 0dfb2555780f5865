"""Coherent states, the Wick (Toeplitz / Husimi) quantization, and the
Gaussian smoothing that links it to the Weyl quantization.

psi_z is the minimal-uncertainty wave packet at the phase-space point
z = (x0, xi0), wrapped periodically; op_z = h^{-1} |psi_z><psi_z| and
Wick quantization averages these projectors against a symbol. Numerically
the Wick operator is produced through the exact identity
wick(f) = weyl(g_h * f), with g_h the phase-space Gaussian kernel. The
tests cross-check it against a direct coherent-state summation, kept with
the other test references in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .budgets import sqrt_field
from .errors import ConfigurationError
from .grids import PhaseField, PhaseGrid, _wrapped_offsets, gaussian_phase_kernel
from .operators import DensityOperator
from .transforms import weyl_quantize


@dataclass
class CoherentState:
    """Normalized wrapped Gaussian wave packet centered at z = (x0, xi0)."""

    grid: PhaseGrid
    x0: float
    xi0: float
    values: np.ndarray
    snap_distance: float = 0.0


def _wave_packet_values(grid: PhaseGrid, x0: float, xi0: float) -> np.ndarray:
    """(pi hbar)^{-1/4} exp(-|y-x0|^2/(2 hbar)) exp(i y xi0 / hbar), wrapped."""
    hbar = grid.hbar
    psi = sum(np.exp(-(d**2) / (2 * hbar)) * np.exp(1j * (d + x0) * xi0 / hbar)
              for d in _wrapped_offsets(grid.x, x0, grid.L_x))
    return (math.pi * hbar) ** -0.25 * psi


def coherent_state(z: tuple[float, float], grid: PhaseGrid) -> CoherentState:
    """Coherent state at z; the momentum center snaps to the grid lattice.

    Snapping keeps exp(i y xi0 / hbar) periodic on the box so the wrapped sum
    stays a smooth Gaussian; the snap distance is reported on the state.
    """
    x0, xi0 = float(z[0]), float(z[1])
    if not (0.0 <= x0 < grid.L_x) or not (-grid.L_xi / 2 <= xi0 < grid.L_xi / 2):
        raise ConfigurationError(f"center z={z} outside the phase box")
    k = round(xi0 / grid.dxi)
    xi_snap = k * grid.dxi
    snap = abs(xi_snap - xi0)
    vals = _wave_packet_values(grid, x0, xi_snap)
    return CoherentState(grid, x0, xi_snap, vals, snap_distance=snap)


def coherent_overlap(z: tuple[float, float], zp: tuple[float, float], grid: PhaseGrid,
                     mode: str = "closed") -> complex:
    """Overlap <psi_z, psi_z'>.

    mode="closed" returns the Gaussian closed form
    G(z, z') = exp(-|(z-z')/2|^2 / hbar) exp(i (x+x') (xi'-xi) / (2 hbar));
    mode="quadrature" evaluates the grid inner product of the two wrapped
    packets for cross-checking (accurate while |z - z'| stays a few sqrt(hbar)
    from the box boundary effects).
    """
    if mode == "quadrature":
        a = coherent_state(z, grid)
        b = coherent_state(zp, grid)
        return complex(np.vdot(a.values, b.values) * grid.dx)
    if mode != "closed":
        raise ConfigurationError(f"unknown overlap mode {mode!r}")
    hbar = grid.hbar
    x, xi = z
    xp, xip = zp
    d2 = ((x - xp) ** 2 + (xi - xip) ** 2) / 4.0
    return complex(np.exp(-d2 / hbar) * np.exp(1j * (x + xp) * (xip - xi) / (2 * hbar)))


@lru_cache(maxsize=1)
def _gaussian_half_spectrum(grid: PhaseGrid) -> np.ndarray:
    """rfft2 of g_h, aligned so index [0, 0] is the zero offset, times the
    cell measure; one grid is held."""
    kv = np.roll(gaussian_phase_kernel(grid).values, -(grid.N // 2), axis=1)
    spec = np.fft.rfft2(kv) * grid.cell
    spec.flags.writeable = False
    return spec


def husimi_convolve(f: PhaseField, kernel: PhaseField | None = None) -> PhaseField:
    """Periodic convolution with the phase-space Gaussian: f -> g_h * f.

    A real symbol smoothed by g_h takes the real-input transforms; a complex
    symbol or an explicit ``kernel`` takes full complex ones.
    """
    g = f.grid
    if kernel is None and f.real:
        conv = np.fft.irfft2(np.fft.rfft2(f.values) * _gaussian_half_spectrum(g),
                             s=f.values.shape)
        return PhaseField(g, conv, real=True)
    if kernel is None:
        kernel = gaussian_phase_kernel(g)
    # align the kernel so index [0, 0] is the zero offset on both axes
    kv = np.roll(kernel.values, -(g.N // 2), axis=1)
    conv = np.fft.ifft2(np.fft.fft2(f.values) * np.fft.fft2(kv)) * g.cell
    if f.real:
        return PhaseField(g, conv.real, real=True)
    return PhaseField(g, conv, real=False)


def husimi_marginal(f: PhaseField) -> np.ndarray:
    """xi_marginal(husimi_convolve(f)) of a real symbol f, the spatial density
    of wick(f), from the xi-sums of f: the marginal reads only the xi-mode 0
    column of the smoothing, so one real transform pair along x takes it."""
    g = f.grid
    spec = np.fft.rfft(f.values.sum(axis=1)) * _gaussian_half_spectrum(g)[:g.N // 2 + 1, 0]
    return np.fft.irfft(spec, n=g.N) * g.dxi


def husimi_mode_block(grid: PhaseGrid, block: np.ndarray) -> np.ndarray:
    """The mode block of husimi_convolve applied to field_from_modes(N,
    block): the block times the smoothing's spectrum at its modes |a|, |b| <=
    M, with the columns b < 0 read by conjugate mirroring, as the real
    inverse transform does."""
    M = (block.shape[0] - 1) // 2
    a = np.arange(-M, M + 1)[:, None]
    b = np.arange(-M, M + 1)[None, :]
    spec = _gaussian_half_spectrum(grid)
    mirrored = np.where(b >= 0, spec[a % grid.N, np.abs(b)], spec[-a % grid.N, np.abs(b)].conj())
    return block * mirrored


def wick_quantize(f: PhaseField) -> DensityOperator:
    """Wick quantization via the Gaussian-convolution identity wick(f) = weyl(g_h * f).

    Positive whenever f >= 0.
    """
    return weyl_quantize(husimi_convolve(f))


def wick_square_datum(f0: PhaseField) -> tuple[DensityOperator, DensityOperator]:
    """(vt, op0) with vt = wick(sqrt f0) and op0 = vt^2: the positive,
    Hermitian Hartree initial datum, L2-close to op_{f0}, of runs and sweeps."""
    vt = wick_quantize(sqrt_field(f0))
    op0 = vt @ vt
    op0.hermitian = True
    return vt, op0
