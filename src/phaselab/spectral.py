"""Shared spectral helpers: derivatives, shifts, half-grid interpolation.

Everything here works on periodic samples. Frequencies are integer mode
numbers a with physical wavenumber 2 pi a / L. Odd-order derivatives zero the
Nyquist mode; the half-cell shift treats the Nyquist mode symmetrically
(cos(pi N x / L)), which vanishes at half-grid points.
"""

from __future__ import annotations

import numpy as np


def modes(N: int) -> np.ndarray:
    """Integer FFT mode numbers in numpy fft order."""
    return np.fft.fftfreq(N, d=1.0 / N)


def derivative_multiplier(N: int, L: float, order: int) -> np.ndarray:
    """Fourier multiplier (2 pi i a / L)^order of the spectral derivative, in
    fft order; odd orders zero the Nyquist mode, even orders are real."""
    mult = (2j * np.pi * modes(N) / L) ** order
    if order % 2 == 1:
        mult[N // 2] = 0.0
        return mult
    return mult.real


def derivative(values: np.ndarray, L: float, axis: int, order: int = 1) -> np.ndarray:
    """Spectral derivative along one axis of periodic samples: real data go
    through the real-input transforms and give a real result, complex data
    through the complex ones."""
    N = values.shape[axis]
    mult = derivative_multiplier(N, L, order)
    if np.iscomplexobj(values):
        return fourier_multiplier(values, mult, axis)
    return apply_shift(values, mult[: N // 2 + 1], axis)


def _unit_phasor(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) for real theta: the same values as the complex exp, from
    one cos and one sin pass."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def shift_phase(N: int, L: float, s, axis: int) -> np.ndarray:
    """Half-spectrum phase exp(-2 pi i a s / L), a = 0..N/2, for apply_shift.

    ``s`` may be a scalar (1-d phase along ``axis``) or a 1-d array with one
    shift per row/column of a 2-d field (2-d phase, modes along ``axis``).
    """
    a = np.arange(N // 2 + 1) * (-2.0 * np.pi / L)
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        return _unit_phasor(a * s)
    if axis == 0:
        return _unit_phasor(np.multiply.outer(a, s))
    return _unit_phasor(np.multiply.outer(s, a))


def apply_shift(values: np.ndarray, phase: np.ndarray, axis: int) -> np.ndarray:
    """Apply a half-spectrum multiplier (modes 0..N/2), a shift phase or a
    derivative multiplier, to real periodic samples along an axis.

    irfft reads only the real part of the Nyquist coefficient, so a shift
    moves that mode as cos(pi N s / L), the real part of the full
    complex-FFT shift.
    """
    N = values.shape[axis]
    if phase.ndim == 1:
        shape = [1] * values.ndim
        shape[axis] = -1
        phase = phase.reshape(shape)
    spec = np.fft.rfft(values, axis=axis)
    spec *= phase
    return np.fft.irfft(spec, n=N, axis=axis)


def shift(values: np.ndarray, L: float, s, axis: int) -> np.ndarray:
    """Translate real periodic samples by s along an axis: v(x) -> v(x - s).

    ``s`` may be a scalar or an array with one shift per row/column (the
    kinetic transport steps). Callers that repeat one shift build its phase
    once with shift_phase and call apply_shift.
    """
    return apply_shift(values, shift_phase(values.shape[axis], L, s, axis), axis)


def half_shift(values: np.ndarray, axis: int, direction: int = +1,
               out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the band-limited interpolant half a cell away, into ``out``
    when given.

    direction=+1 maps samples at x_i to values at x_i + dx/2; direction=-1
    maps samples at x_i + dx/2 back to x_i. The Nyquist mode vanishes at the
    shifted points, so the two maps invert each other exactly on fields with
    no Nyquist content.
    """
    N = values.shape[axis]
    phase = np.exp(1j * np.pi * modes(N) * direction / N)
    phase[N // 2] = 0.0
    return fourier_multiplier(values, phase, axis, out)


def fourier_multiplier(values: np.ndarray, mult: np.ndarray, axis: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Apply a diagonal-in-Fourier multiplier (indexed in fft order) along an
    axis, into ``out`` when given."""
    shape = [1] * values.ndim
    shape[axis] = values.shape[axis]
    spec = np.fft.fft(values, axis=axis)
    spec *= np.asarray(mult).reshape(shape)
    return np.fft.ifft(spec, axis=axis, out=spec if out is None else out)


def random_mode_block(rng: np.random.Generator, max_mode: int) -> np.ndarray:
    """Random Hermitian-symmetric Fourier coefficients for modes |a|, |b| <=
    max_mode, so the field they synthesize is real.

    The block is grid-independent: synthesizing it on any N > 2 * max_mode
    grid yields samples of one fixed analytic function, which keeps
    hbar sweeps free of data-roughness drift.
    """
    M = 2 * max_mode + 1
    c = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    # Hermitian symmetry c[-a, -b] = conj(c[a, b]): the upper half, (a, b)
    # > (-a, -b) lexicographically, mirrors the lower half
    a = np.arange(-max_mode, max_mode + 1)
    upper = (a[:, None] > 0) | ((a[:, None] == 0) & (a[None, :] > 0))
    c[upper] = np.conj(c[::-1, ::-1][upper])
    c[max_mode, max_mode] = c[max_mode, max_mode].real
    return c


def field_from_modes(N: int, block: np.ndarray) -> np.ndarray:
    """Synthesize the real part of sum_{a,b} c[a,b] exp(2 pi i (a i + b k) / N)
    on an N x N grid; for a Hermitian-symmetric block the sum is real.

    With the N x (2M+1) phasor table P[i, a] = exp(2 pi i a i / N) the sum is
    P c P^T, so its real part is Re P Re(c P^T) - Im P Im(c P^T): one real
    (N x 2(2M+1)) (2(2M+1) x N) product, no N x N transform.
    """
    M = (block.shape[0] - 1) // 2
    if N <= 2 * M:
        raise ValueError("grid too small for the mode block")
    # a i reduced mod N before scaling keeps every phase in [0, 2 pi)
    P = _unit_phasor(np.outer(np.arange(N), np.arange(-M, M + 1)) % N * (2.0 * np.pi / N))
    Z = block @ P.T
    return np.hstack([P.real, -P.imag]) @ np.vstack([Z.real, Z.imag])


def band_limited_field(N: int, rng: np.random.Generator, max_mode: int | None = None,
                       real: bool = True) -> np.ndarray:
    """Random periodic field with spectrum confined to |mode| <= max_mode.

    Used by property tests: fields built here carry no content near either
    Nyquist mode, the regime where the grid transforms are exact bijections.
    """
    if max_mode is None:
        max_mode = N // 4
    spec = np.zeros((N, N), dtype=complex)
    a = modes(N)
    keep = np.abs(a) <= max_mode
    mask = np.outer(keep, keep)
    coeffs = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    spec[mask] = coeffs[mask]
    vals = np.fft.ifft2(spec) * N
    if real:
        return vals.real
    return vals
