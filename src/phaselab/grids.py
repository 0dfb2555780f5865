"""Phase-space grids and sampled fields.

The one-particle phase space is the periodic box [0, L_x) x [-L_xi/2, L_xi/2).
The momentum lattice is slaved to the spatial grid so that every plane wave
exp(i x xi_k / hbar) is periodic on the box: hbar = L_x * L_xi / (2 pi N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, IncompatibleGridError, TruncationError
from .spectral import modes


@dataclass(frozen=True)
class PhaseGrid:
    """Discretization of the phase-space box with grid-slaved hbar.

    Attributes
    ----------
    N : points per axis, even
    L_x : spatial box length
    L_xi : momentum box length
    """

    N: int
    L_x: float
    L_xi: float

    @property
    def dx(self) -> float:
        return self.L_x / self.N

    @property
    def dxi(self) -> float:
        return self.L_xi / self.N

    @property
    def h(self) -> float:
        """Planck constant realized by the box: h = L_x * L_xi / N."""
        return self.L_x * self.L_xi / self.N

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)

    @property
    def x(self) -> np.ndarray:
        """Spatial nodes x_i = i dx on [0, L_x)."""
        return np.arange(self.N) * self.dx

    @property
    def x_centered(self) -> np.ndarray:
        """Minimal-image spatial coordinate in [-L_x/2, L_x/2)."""
        x = self.x.copy()
        x[x >= self.L_x / 2] -= self.L_x
        return x

    @property
    def xi(self) -> np.ndarray:
        """Momentum nodes xi_k = h k / L_x, k in [-N/2, N/2)."""
        return (np.arange(self.N) - self.N // 2) * self.dxi

    @property
    def fourier_momenta(self) -> np.ndarray:
        """Momenta hbar 2 pi a / L_x of the kernel Fourier modes a, in fft order."""
        return self.hbar * 2.0 * np.pi * modes(self.N) / self.L_x

    @property
    def cell(self) -> float:
        """Phase-space cell measure dx * dxi."""
        return self.dx * self.dxi

    def meshgrid(self):
        """(X, XI) arrays indexed [x-index, xi-index]."""
        return np.meshgrid(self.x, self.xi, indexing="ij")

    def __post_init__(self):
        if self.N % 2 != 0:
            raise ConfigurationError(f"N must be even, got N={self.N}")
        if self.N < 8:
            raise ConfigurationError(f"N must be at least 8, got N={self.N}")
        if not (self.L_x > 0 and self.L_xi > 0):
            raise ConfigurationError("box lengths must be positive")


def make_grid(N: int, L_x: float, L_xi: float) -> PhaseGrid:
    """Build a PhaseGrid; hbar = L_x * L_xi / (2 pi N) falls out of the box."""
    return PhaseGrid(N=int(N), L_x=float(L_x), L_xi=float(L_xi))


REAL_IMAG_TOL = 1e-12


@dataclass
class PhaseField:
    """Complex or real function sampled on a PhaseGrid, indexed [i, k].

    Axis 0 is position (x_i = i dx), axis 1 momentum in natural ascending
    order (xi_k from -L_xi/2). ``real`` is a parity flag: real-flagged fields
    keep imaginary parts below REAL_IMAG_TOL * max|values|.
    """

    grid: PhaseGrid
    values: np.ndarray
    real: bool = field(default=True)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.N, self.grid.N):
            raise ConfigurationError(
                f"field shape {self.values.shape} does not match grid N={self.grid.N}"
            )
        if self.real:
            scale = np.max(np.abs(self.values)) or 1.0
            im = np.max(np.abs(self.values.imag)) if np.iscomplexobj(self.values) else 0.0
            if im > REAL_IMAG_TOL * scale:
                raise ConfigurationError(
                    f"field flagged real has imaginary mass {im:.3e} > {REAL_IMAG_TOL:.0e} * max"
                )
            self.values = self.values.real.astype(np.float64)
        else:
            self.values = self.values.astype(np.complex128)

    def integral(self) -> complex | float:
        """Cell-sum quadrature of the field over the phase box."""
        return self.values.sum() * self.grid.cell

    def copy_with(self, values: np.ndarray, real: bool | None = None) -> "PhaseField":
        return PhaseField(self.grid, values, self.real if real is None else real)

    def __add__(self, other: "PhaseField") -> "PhaseField":
        check_same_grid(self, other)
        return PhaseField(self.grid, self.values + other.values, self.real and other.real)

    def __sub__(self, other: "PhaseField") -> "PhaseField":
        check_same_grid(self, other)
        return PhaseField(self.grid, self.values - other.values, self.real and other.real)

    def __mul__(self, c) -> "PhaseField":
        return PhaseField(self.grid, self.values * c, self.real and not isinstance(c, complex))

    __rmul__ = __mul__


def check_same_grid(a, b):
    """Raise IncompatibleGridError unless the two fields or operators live on
    one grid."""
    if a.grid != b.grid:
        raise IncompatibleGridError("operands live on different grids")


# ---------------------------------------------------------------------------
# named analytic profiles


def _wrapped_offsets(coord: np.ndarray, center: float, period: float):
    """Offsets coord - center over the periodic images -3..3 (for smooth wrapping)."""
    return [coord - center + n * period for n in range(-3, 4)]


def _mode(params: dict) -> int:
    """The integer spatial ``mode`` of a perturbed profile (default 1), popped
    from ``params``."""
    mode = params.pop("mode", 1)
    if not float(mode).is_integer():
        raise ConfigurationError(f"profile mode must be an integer, got {mode!r}")
    return int(mode)


def _profile_values(grid: PhaseGrid, name: str, params: dict) -> np.ndarray:
    """The named profile on the grid; pops each parameter it reads from ``params``."""
    X, XI = grid.meshgrid()
    L = grid.L_x
    if name == "constant":
        return np.full((grid.N, grid.N), float(params.pop("a", 1.0)))
    if name == "gaussian":
        a = float(params.pop("a", 1.0))
        x0 = float(params.pop("x0", L / 2))
        xi0 = float(params.pop("xi0", 0.0))
        sx = float(params.pop("sigma_x", L / 8))
        sxi = float(params.pop("sigma_xi", grid.L_xi / 16))
        out = np.zeros_like(X)
        for dxs in _wrapped_offsets(X, x0, L):
            out += np.exp(-(dxs**2) / sx**2 - (XI - xi0) ** 2 / sxi**2)
        return a * out
    if name == "maxwellian":
        # spatially perturbed Maxwellian, the classic Landau-type initial datum
        a = float(params.pop("a", 1.0))
        amp = float(params.pop("perturbation", 0.1))
        mode = _mode(params)
        sxi = float(params.pop("sigma_xi", 0.3 * grid.L_xi / (2 * math.pi)))
        dens = 1.0 + amp * np.cos(2 * math.pi * mode * X / L)
        return a * dens * np.exp(-(XI**2) / (2 * sxi**2))
    if name == "two_stream":
        a = float(params.pop("a", 1.0))
        amp = float(params.pop("perturbation", 0.05))
        mode = _mode(params)
        v0 = float(params.pop("v0", grid.L_xi / 8))
        sxi = float(params.pop("sigma_xi", grid.L_xi / 16))
        dens = 1.0 + amp * np.cos(2 * math.pi * mode * X / L)
        beams = np.exp(-((XI - v0) ** 2) / (2 * sxi**2)) + np.exp(-((XI + v0) ** 2) / (2 * sxi**2))
        return a * dens * beams
    raise ConfigurationError(f"unknown profile {name!r}")


def boundary_amplitude(values: np.ndarray) -> float:
    """Relative amplitude of the field on the outermost momentum rows."""
    scale = np.max(np.abs(values))
    if scale == 0:
        return 0.0
    edge = max(np.max(np.abs(values[:, 0])), np.max(np.abs(values[:, -1])))
    return float(edge / scale)


def sample_field(grid: PhaseGrid, profile: str | dict, tail_tol: float = 1e-10) -> PhaseField:
    """Sample a named analytic profile on the grid.

    ``profile`` is either a name or {"name": ..., <params>}; a parameter the
    profile does not read, or a non-finite sample, is a ConfigurationError.
    Profiles must be supported inside the momentum box: a field whose relative
    amplitude on the boundary momentum rows exceeds ``tail_tol`` is rejected.
    """
    if isinstance(profile, str):
        name, params = profile, {}
    else:
        params = dict(profile)
        name = params.pop("name")
    with np.errstate(all="ignore"):  # a non-finite sample is reported below, once
        values = _profile_values(grid, name, params)
    if params:
        raise ConfigurationError(f"profile {name!r} has unknown parameters {sorted(params)}")
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"profile {name!r} has non-finite samples")
    if name != "constant" and boundary_amplitude(values) > tail_tol:
        raise TruncationError(
            f"profile {name!r} has boundary momentum amplitude "
            f"{boundary_amplitude(values):.3e} > {tail_tol:.1e}; widen the momentum box"
        )
    return PhaseField(grid, values, real=True)


def gaussian_phase_kernel(grid: PhaseGrid) -> PhaseField:
    """Periodic wrapped Gaussian g_h(z) = (pi hbar)^{-1} exp(-|z|^2/hbar), unit mass.

    The coherent-state smoothing kernel: Wick quantization is Weyl quantization
    of the convolution g_h * f. Requires the grid to resolve the kernel
    (dx <= sqrt(hbar) and dxi <= sqrt(hbar)); the discrete mass is renormalized
    to exactly one.
    """
    hbar = grid.hbar
    s = math.sqrt(hbar)
    if grid.dx > s or grid.dxi > s:
        raise ConfigurationError(
            f"grid does not resolve g_h: need dx={grid.dx:.3g} <= sqrt(hbar)={s:.3g} "
            f"and dxi={grid.dxi:.3g} <= sqrt(hbar)"
        )
    # grid.x_centered is in storage order, minimal image: row 0 is z_x = 0
    gx, gxi = (sum(np.exp(-(d**2) / hbar) for d in _wrapped_offsets(c, 0.0, L))
               for c, L in ((grid.x_centered, grid.L_x), (grid.xi, grid.L_xi)))
    vals = (math.pi * hbar) ** -1 * np.outer(gx, gxi)
    mass = vals.sum() * grid.cell
    return PhaseField(grid, vals / mass, real=True)
