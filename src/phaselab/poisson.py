"""Spectral Poisson solves on the periodic box with neutralizing background.

The free-space Coulomb kernel +-1/(4 pi |x|) becomes the periodic Green
function of -Delta V = sign (rho - rho_bar); the zero mode (background) is
removed and E = -grad V is read off the same half spectrum as V. sign = +1
is the repulsive (plasma) case, -1 gravitational, 0 switches the interaction
off.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .grids import PhaseGrid
from .trajectory import FieldSnapshot


@lru_cache(maxsize=16)
def _wavenumbers(N: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum wavenumbers k = 2 pi a / L, a = 0..N/2, and k^2.

    k is the derivative multiplier with the Nyquist mode zeroed, as in
    spectral.derivative; k^2 keeps it.
    """
    k = 2.0 * np.pi * np.arange(N // 2 + 1) / L
    k2 = k**2
    k[N // 2] = 0.0
    k.flags.writeable = k2.flags.writeable = False
    return k, k2


def solve_poisson(grid: PhaseGrid, rho: np.ndarray, sign: int, time: float = 0.0):
    """Potential and force field from a spatial density.

    Returns a FieldSnapshot with V-hat(a) = sign * rho-hat(a) / |2 pi a / L|^2
    for a != 0, V-hat(0) = 0, and E = -dV/dx.
    """
    if sign not in (-1, 0, 1):
        raise ConfigurationError(f"interaction sign must be -1, 0, or +1, got {sign}")
    rho = np.asarray(rho, dtype=float)
    N = grid.N
    if rho.shape != (N,):
        raise ConfigurationError("density shape does not match the grid")
    if sign == 0:
        z = np.zeros(N)
        return FieldSnapshot(time=time, V=z, E=z.copy(), rho=rho.copy())
    k, k2 = _wavenumbers(N, grid.L_x)
    rho_hat = np.fft.rfft(rho)
    V_hat = np.zeros_like(rho_hat)
    V_hat[1:] = sign * rho_hat[1:] / k2[1:]
    V = np.fft.irfft(V_hat, n=N)
    E = np.fft.irfft(-1j * k * V_hat, n=N)
    return FieldSnapshot(time=time, V=V, E=E, rho=rho.copy())
