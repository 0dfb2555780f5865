"""Weyl quantization and the Wigner transform.

The pair is built from an exact factorization through chord space. Writing
c = i - j for the (minimal-image) chord between two kernel sites and
u = i + j for the midpoint on the doubled half-lattice,

    K[i, j] = D[u, c],   D[u, c] = (1/L) sum_k f(s_u, xi_k) e^{2 pi i k c / N},

where s_u = u dx / 2. Even chords hit primal midpoints; odd chords hit
half-lattice midpoints, reached by band-limited interpolation of the
momentum-FFT slices. The antipodal chord |c| = N/2 has two equally short
images; its kernel entries store the symmetric average, which keeps Weyl
kernels of real symbols exactly Hermitian. On fields with no content at
either Nyquist mode the wigner/weyl pair is an exact bijection; band-limited
test fields therefore round-trip to machine precision.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grids import PhaseField, PhaseGrid
from .operators import DensityOperator
from .spectral import half_shift

@lru_cache(maxsize=1)
def _chord_indices(N: int) -> dict:
    """Flat gather tables for kernel assembly/disassembly at size N.

    Only the last size is held: a sweep member works on one grid at a time,
    and each table is an N x N index array.
    """
    i = np.arange(N)[:, None]
    j = np.arange(N)[None, :]
    c = ((i - j + N // 2) % N) - N // 2          # minimal-image chord in [-N/2, N/2)
    col = c % N                                   # chord column in B
    odd = c % 2
    # K[i, j] = D[u, c] with u = 2i - c: even chords read B at row u/2, odd
    # chords read Bmid, stacked below B, at row (u - 1)/2
    row = (i - ((c + odd) >> 1)) % N
    weyl_flat = (row + N * odd) * N + col
    # the antipodal chord c = -N/2 sits at j = i + N/2; it averages the two
    # midpoint images u = 2i -+ N/2, primal rows when N/2 is even, else
    # half-lattice rows (u - 1)/2
    half = N // 2
    h_odd = half % 2
    r = np.arange(N)
    anti_pos = r * N + (r + half) % N
    anti_src = (np.stack([(r - (half + h_odd) // 2) % N, (r + (half - h_odd) // 2) % N])
                + N * h_odd) * N + half
    # diagonal gather: Dmat[i0, col] = K.flat[diag_flat[i0, col]] walks the
    # chord-cc circulant diagonal; for even cc the samples sit at integer
    # midpoints i0 dx, for odd cc at (i0 + 1/2) dx
    cc = ((j + N // 2) % N) - N // 2               # chord per column
    codd = cc % 2
    diag_flat = ((i + ((cc + codd) >> 1)) % N) * N + (i - ((cc - codd) >> 1)) % N
    # row gather: K.flat[row_flat[i, col]] = K[i, (i - col) mod N] holds the
    # chord of column col too, indexed by x rather than by the midpoint
    row_flat = i * N + col
    # kernel entries within one cell of the antipodal cut, for the wrap guard
    wrap_band = np.flatnonzero(np.abs(np.abs(c) - half) <= 1)
    tables = dict(c=c, row_flat=row_flat, weyl_flat=weyl_flat, anti_pos=anti_pos,
                  anti_src=anti_src, diag_flat=diag_flat, wrap_band=wrap_band)
    for a in tables.values():
        a.flags.writeable = False
    return tables


def _chord_slices(f_values: np.ndarray, grid: PhaseGrid, real: bool) -> np.ndarray:
    """Momentum-FFT of the symbol, B[i, m] = (1/L) sum_k f[i,k] e^{2 pi i k m / N},
    in rows 0..N-1, over its half-lattice interpolant Bmid in rows N..2N-1.

    A real symbol has B[:, -m] = conj(B[:, m]): its columns m = 0..N/2 come
    from one rfft along xi and are interpolated alone, the others are their
    conjugate mirrors, and the self-mirrored Nyquist column of Bmid is taken
    real. Its Weyl kernel is then exactly Hermitian.
    """
    N = grid.N
    S = np.empty((2 * N, N), dtype=complex)
    B = S[:N]
    if not real:
        np.fft.ifft(np.fft.ifftshift(f_values, axes=1), axis=1, out=B)
        B *= N / grid.L_x
        half_shift(B, axis=0, direction=+1, out=S[N:])
        return S
    cols = N // 2 + 1
    np.conjugate(np.fft.rfft(np.fft.ifftshift(f_values, axes=1), axis=1), out=B[:, :cols])
    B[:, :cols] *= 1.0 / grid.L_x
    S[N:, :cols] = half_shift(B[:, :cols], axis=0, direction=+1)
    S[N:, N // 2].imag = 0.0
    np.conjugate(S[:, N // 2 - 1:0:-1], out=S[:, cols:])
    return S


def weyl_quantize(f: PhaseField) -> DensityOperator:
    """Weyl quantization: kernel op_f(x, y) from the midpoint-Fourier formula."""
    grid = f.grid
    idx = _chord_indices(grid.N)
    S = _chord_slices(f.values, grid, f.real)
    K = S.take(idx["weyl_flat"])
    # antipodal chord: average the two equally short midpoint images
    va, vb = S.take(idx["anti_src"])
    K.put(idx["anti_pos"], 0.5 * (va + vb))
    op = DensityOperator(grid, K)
    op.hermitian = bool(f.real)  # real symbols quantize to Hermitian kernels
    return op


def chord_matrix(op: DensityOperator) -> np.ndarray:
    """Gather the circulant diagonals: Dmat[i0, col] = kernel on chord col.

    Column col holds the chord c = ((col + N/2) mod N) - N/2 diagonal,
    sampled along its midpoint (integer midpoints for even c, half-integer
    for odd c).
    """
    return np.take(op.kernel, _chord_indices(op.grid.N)["diag_flat"])


def wigner_transform(op: DensityOperator) -> PhaseField:
    """Wigner transform: exact inverse of weyl_quantize on the grid."""
    grid = op.grid
    B = chord_matrix(op)
    # column col holds a chord of its own parity: the odd columns were sampled
    # at half-integer midpoints, so shift them back in place
    odd = B[:, 1::2]
    half_shift(odd, axis=0, direction=-1, out=odd)
    vals = np.fft.fftshift(np.fft.fft(B, axis=1), axes=(1,)) * grid.dx
    if op.hermitian:
        imag = np.max(np.abs(vals.imag))
        scale = np.max(np.abs(vals)) or 1.0
        if imag <= 1e-10 * scale:
            return PhaseField(grid, vals.real, real=True)
    return PhaseField(grid, vals, real=False)
