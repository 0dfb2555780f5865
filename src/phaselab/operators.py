"""Density operators as quadrature-weighted kernel matrices.

An operator is represented by its integral kernel K sampled on the spatial
grid, K[i, j] ~ op(x_i, x_j). The operator acts on a wavefunction vector as
(K @ psi) * dx, so operator singular values and eigenvalues are dx times
the matrix ones, and compositions carry one quadrature weight per contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NotPositiveError
from .grids import PhaseGrid, check_same_grid

HERMITIAN_TOL = 1e-12
POSITIVE_TOL = 1e-10


@dataclass
class DensityOperator:
    """Kernel-matrix operator on the spatial grid with an advisory Hermitian flag."""

    grid: PhaseGrid
    kernel: np.ndarray
    hermitian: bool = field(default=False)

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=np.complex128)
        N = self.grid.N
        if self.kernel.shape != (N, N):
            raise ConfigurationError(
                f"kernel shape {self.kernel.shape} does not match grid N={N}"
            )

    # -- quadrature-weighted linear algebra ---------------------------------

    @property
    def dx(self) -> float:
        return self.grid.dx

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Operator action (K psi) dx."""
        return self.kernel @ psi * self.dx

    def compose(self, other: "DensityOperator") -> "DensityOperator":
        check_same_grid(self, other)
        return DensityOperator(self.grid, self.kernel @ other.kernel * self.dx)

    def __matmul__(self, other: "DensityOperator") -> "DensityOperator":
        return self.compose(other)

    def adjoint(self) -> "DensityOperator":
        return DensityOperator(self.grid, self.kernel.conj().T, hermitian=self.hermitian)

    def __add__(self, other: "DensityOperator") -> "DensityOperator":
        check_same_grid(self, other)
        return DensityOperator(self.grid, self.kernel + other.kernel,
                               hermitian=self.hermitian and other.hermitian)

    def __sub__(self, other: "DensityOperator") -> "DensityOperator":
        check_same_grid(self, other)
        return DensityOperator(self.grid, self.kernel - other.kernel,
                               hermitian=self.hermitian and other.hermitian)

    def __mul__(self, c) -> "DensityOperator":
        herm = self.hermitian and np.isrealobj(np.asarray(c))
        return DensityOperator(self.grid, self.kernel * c, hermitian=herm)

    __rmul__ = __mul__

    def trace(self) -> complex:
        """Operator trace: sum of the kernel diagonal times dx."""
        return complex(np.trace(self.kernel) * self.dx)

    def singular_values(self) -> np.ndarray:
        """Operator singular values, descending: dx * matrix singular values."""
        return np.linalg.svd(self.kernel, compute_uv=False) * self.dx

    def eigenvalues(self) -> np.ndarray:
        """Operator eigenvalues (Hermitian path), ascending."""
        return np.linalg.eigvalsh(self.kernel) * self.dx

    # -- flags ----------------------------------------------------------------

    def hermiticity_defect(self) -> float:
        scale = np.max(np.abs(self.kernel)) or 1.0
        return float(np.max(np.abs(self.kernel - self.kernel.conj().T)) / scale)

    def check_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        ok = self.hermiticity_defect() <= tol
        self.hermitian = bool(ok)
        return ok

    def check_positive(self, tol: float = POSITIVE_TOL) -> bool:
        """Positivity check: Hermitian, and smallest eigenvalue >= -tol * largest."""
        if not self.hermitian and not self.check_hermitian(1e-10):
            return False
        ev = self.eigenvalues()
        top = max(ev[-1], 0.0) or 1.0
        return bool(ev[0] >= -tol * top)


def require_positive(op: DensityOperator, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition guard: raise unless min eigenvalue >= -tol * scale."""
    ev, U = np.linalg.eigh(op.kernel)
    ev = ev * op.dx
    scale = max(abs(ev[0]), abs(ev[-1])) or 1.0
    if ev[0] < -tol * scale:
        raise NotPositiveError(
            f"operator has eigenvalue {ev[0]:.6e} below -{tol:.1e} * {scale:.6e}"
        )
    return ev, U
