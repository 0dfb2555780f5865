"""Spectral Poisson solves on the periodic box with neutralizing background.

The free-space Coulomb kernel +-1/(4 pi |x|) becomes the periodic Green
function of -Delta V = sign (rho - rho_bar); the zero mode (background) is
removed and E = -grad V is read off the same half spectrum as V. sign = +1
is the repulsive (plasma) case, -1 gravitational, 0 switches the interaction
off.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .grids import PhaseGrid
from .spectral import derivative_multiplier
from .trajectory import FieldSnapshot


def solve_poisson(grid: PhaseGrid, rho: np.ndarray, sign: int, time: float = 0.0):
    """Potential and force field from a spatial density.

    Returns a FieldSnapshot with V-hat(a) = sign * rho-hat(a) / k^2 for a != 0,
    V-hat(0) = 0, and E = -dV/dx, with spectral.derivative's ik and -k^2.
    """
    if sign not in (-1, 0, 1):
        raise ConfigurationError(f"interaction sign must be -1, 0, or +1, got {sign}")
    rho = np.asarray(rho, dtype=float)
    N = grid.N
    if rho.shape != (N,):
        raise ConfigurationError("density shape does not match the grid")
    ik = derivative_multiplier(N, grid.L_x, 1)[:N // 2 + 1]
    k2 = -derivative_multiplier(N, grid.L_x, 2)[:N // 2 + 1]
    rho_hat = np.fft.rfft(rho)
    V_hat = np.zeros_like(rho_hat)
    V_hat[1:] = sign * rho_hat[1:] / k2[1:]
    V = np.fft.irfft(V_hat, n=N)
    E = np.fft.irfft(-ik * V_hat, n=N)
    return FieldSnapshot(time=time, V=V, E=E, rho=rho.copy())
