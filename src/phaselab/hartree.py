"""Hartree evolution of density operators by split-step unitary conjugation.

One step conjugates the kernel by U_V(dt/2) U_K(dt) U_V(dt/2): the kinetic
factor exp(-i dt |p|^2 / (2 hbar)) is diagonal in Fourier, the potential
factor exp(-i dt V / hbar) diagonal in position. Conjugation by the
position-diagonal factor leaves the kernel diagonal (hence the density)
untouched, so the mid-step mean-field density equals the density after a
free half step. The predictor needs only that diagonal: one axis-0 FFT pair
and a row-wise product with a circulant, no implicit solve. Per step the
kinetic conjugation takes four N x N FFT passes and the predictor two; the
kinetic-energy log takes none. Trace, Hilbert-Schmidt norm, Hermiticity,
positivity and the full spectrum are exact invariants of the conjugation.

The nonlinear and the linear flow share one step loop and differ only in
the potential of each step and the field of the energy log. The step unitary
depends at most on the density of the evolved operator, so
U sqrt(op) U* = sqrt(U op U*): the square root rides along either flow
without an eigendecomposition. Conjugation is complex-linear and maps
Hermitian kernels to Hermitian kernels, so the loop evolves one packed
kernel M = op + i sqrt(op), whose Hermitian part is op and whose
anti-Hermitian part over i is the root. Carrying the root thus costs no FFT
pass. The predictor and the per-step logs read M as it is; M is split only
at snapshots and for the spectrum log. The packed op kernel agrees with an
unpacked one to rounding, about 5e-15 relative in Hilbert-Schmidt norm.
"""

from __future__ import annotations

import numpy as np

from .calculus import kinetic_energy
from .errors import ConfigurationError
from .grids import PhaseGrid
from .operators import DensityOperator
from .poisson import solve_poisson
from .trajectory import FieldSnapshot, Trajectory, resolve_steps, snapshot_due
from .transforms import _chord_indices


def _kinetic_phase(grid: PhaseGrid, dt: float) -> np.ndarray:
    return np.exp(-1j * dt * grid.fourier_momenta**2 / (2.0 * grid.hbar))


def _conjugate_kinetic(K: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """K -> U K U* in place for U = F^-1 diag(phase) F; the phase is even in
    the mode, so U* acts on the column index with the multiplier conj(phase)."""
    np.fft.fft(K, axis=0, out=K)
    K *= phase[:, None]
    np.fft.ifft(K, axis=0, out=K)
    np.fft.fft(K, axis=1, out=K)
    K *= phase.conj()
    return np.fft.ifft(K, axis=1, out=K)


def _split_step(K: np.ndarray, grid: PhaseGrid, V: np.ndarray, dt: float,
                kin: np.ndarray) -> None:
    """U_V(dt/2) U_K(dt) U_V(dt/2) conjugation of K in place.

    ``kin`` is the full-step kinetic phase; U_V(dt/2) is diagonal in position.
    """
    pot = np.exp(-1j * (dt / 2.0) * V / grid.hbar)
    K *= pot[:, None]
    K *= pot.conj()
    _conjugate_kinetic(K, kin)
    K *= pot[:, None]
    K *= pot.conj()


def _split_packed(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian part (M + M^H) / 2 and the anti-Hermitian part over i,
    (M - M^H) / (2i), of a packed kernel M, each into one new array. Both are
    exactly Hermitian: entry (j, i) is computed as the conjugate of (i, j)."""
    A = np.conjugate(M.T, out=np.empty_like(M))
    R = np.subtract(M, A)
    R *= -0.5j
    A += M
    A *= 0.5
    return A, R


def _diagonal_circulant(phase: np.ndarray) -> np.ndarray:
    """conj(U) for U = F^-1 diag(phase) F, the circulant u[(j - m) mod N] with
    u = ifft(phase): diag(U K U*) is the row sum of (U K) * conj(U)."""
    return np.fft.ifft(phase).conj()[_chord_indices(len(phase))["col"]]


def _free_step_density(K: np.ndarray, grid: PhaseGrid, phase: np.ndarray,
                       circulant: np.ndarray) -> np.ndarray:
    """h^d diag(U K U*) for the free step U = F^-1 diag(phase) F."""
    UK = np.fft.fft(K, axis=0)
    UK *= phase[:, None]
    np.fft.ifft(UK, axis=0, out=UK)
    return np.einsum("ij,ij->i", UK, circulant).real * grid.h**grid.d


def _evolve(op0: DensityOperator, steps: int, dt: float, potential, field,
            snapshot_stride: int | None, log_spectrum: bool,
            root: DensityOperator | None) -> Trajectory:
    """The operator step loop both Hartree flows share: step, log trace,
    Hilbert-Schmidt norm and energy, store the due snapshots.

    ``potential(n, M)`` is the potential of step n, from t_n to t_n + dt,
    given the packed kernel M at t_n; ``field(n, rho)`` is the field at step
    time t_n whose potential enters the energy, given the density there.
    ``root``, a Hermitian square root of op0, rides in M = op + i root; its
    snapshots go to ``root_snapshots``, taken at the ``snapshot_times``. The
    snapshots at t = 0 are op0 and root themselves.
    """
    if not op0.hermitian and not op0.check_hermitian(1e-10):
        raise ConfigurationError("Hartree evolution needs a Hermitian initial operator")
    if root is not None and not root.hermitian and not root.check_hermitian(1e-10):
        raise ConfigurationError("the carried square root must be Hermitian")
    g = op0.grid
    traj = Trajectory(kind="operator", dt=dt)
    if root is None:
        M = op0.kernel.copy()
    else:
        M = 1j * root.kernel
        M += op0.kernel
    full_kin = _kinetic_phase(g, dt)
    for n in range(steps + 1):
        if n > 0:
            _split_step(M, g, potential(n - 1, M), dt, full_kin)
        t = n * dt
        due = snapshot_due(n, steps, snapshot_stride)
        if n == 0:
            op, vt = op0, root
        elif due or log_spectrum:
            A, R = _split_packed(M)
            op = DensityOperator(g, A, hermitian=True, positive=op0.positive)
            vt = None if root is None else DensityOperator(g, R, hermitian=True, positive=True)
        # for Hermitian op and root: Re tr M = tr op, Re diag M = diag op,
        # ||M||_F^2 + Re tr(M M) = 2 ||op||_F^2, and the imaginary part of the
        # root is antisymmetric, so it drops out against the symmetric
        # kinetic circulant
        rho = M.diagonal().real * g.h**g.d
        traj.add_time(t)
        traj.log("trace", float(np.trace(M).real * g.dx**g.d))
        hs = np.sqrt(0.5 * (np.einsum("ij,ij->", M.real, M.real)
                            + np.einsum("ij,ij->", M.imag, M.imag)
                            + np.einsum("ij,ji->", M, M).real)) * g.dx**g.d
        traj.log("l2_norm", float(g.h ** (g.d / 2.0) * hs))
        potential_energy = 0.5 * float(np.sum(rho * field(n, rho).V) * g.dx**g.d)
        traj.log("energy", kinetic_energy(DensityOperator(g, M)) + potential_energy)
        if log_spectrum:
            traj.log("min_eigenvalue", float(op.eigenvalues()[0]))
        if due:
            traj.add_snapshot(t, op)
            if root is not None:
                traj.root_snapshots.append(vt)
    return traj


def evolve_hartree(op0: DensityOperator, T: float, dt: float, sign: int,
                   snapshot_stride: int | None = None,
                   log_spectrum: bool = False,
                   root: DensityOperator | None = None) -> Trajectory:
    """Evolve the nonlinear Hartree equation i hbar d_t op = [H_op, op].

    The self-consistent field at every step time goes to ``fields``. ``root``,
    a Hermitian square root of op0, is carried to the square root of the
    evolved operator at every snapshot (``root_snapshots``) as the
    anti-Hermitian part of the packed kernel.
    """
    g = op0.grid
    steps, dt = resolve_steps(T, dt)
    half_kin = _kinetic_phase(g, dt / 2.0)
    half_circ = _diagonal_circulant(half_kin)
    fields = []

    def predictor(n, K):
        # the density after the free half step is the exact mid-step density
        # for the V half step (V-conjugation preserves it)
        rho_mid = _free_step_density(K, g, half_kin, half_circ)
        return solve_poisson(g, rho_mid, sign, time=n * dt + dt / 2).V

    def field(n, rho):
        fields.append(solve_poisson(g, rho, sign, time=n * dt))
        return fields[-1]

    traj = _evolve(op0, steps, dt, predictor, field, snapshot_stride, log_spectrum, root)
    traj.fields = fields
    return traj


def evolve_linear_hartree(op0: DensityOperator, field_history: list[FieldSnapshot],
                          T: float, dt: float,
                          snapshot_stride: int | None = None,
                          log_spectrum: bool = False,
                          root: DensityOperator | None = None) -> Trajectory:
    """Evolve i hbar d_t op = [H_f, op] with the frozen field history V_f(t).

    ``field_history`` must cover [0, T] on the same time grid; the potential
    at half steps is the linear interpolation (V_n + V_{n+1}) / 2. ``root``
    is carried as in evolve_hartree.
    """
    steps, dt = resolve_steps(T, dt)
    if len(field_history) < steps + 1:
        raise ConfigurationError(
            f"field history has {len(field_history)} entries, needs {steps + 1} to cover [0, T]"
        )
    for n in range(steps + 1):
        if abs(field_history[n].time - n * dt) > 1e-9 * max(1.0, T):
            raise ConfigurationError(
                f"field history gap at step {n}: time {field_history[n].time} != {n * dt}"
            )
    return _evolve(op0, steps, dt,
                   lambda n, K: 0.5 * (field_history[n].V + field_history[n + 1].V),
                   lambda n, rho: field_history[n], snapshot_stride, log_spectrum, root)


def free_schroedinger(op0: DensityOperator, t: float) -> DensityOperator:
    """Exact free conjugation exp(-i t |p|^2 / (2 hbar)) op exp(+i ...)."""
    g = op0.grid
    K = _conjugate_kinetic(op0.kernel.astype(complex), _kinetic_phase(g, t))
    return DensityOperator(g, K, hermitian=op0.hermitian, positive=op0.positive)
