"""Hartree evolution of density operators by split-step unitary conjugation.

One step conjugates the kernel by U_V(dt/2) U_K(dt) U_V(dt/2): the kinetic
factor exp(-i dt |p|^2 / (2 hbar)) is diagonal in Fourier, the potential
factor exp(-i dt V / hbar) diagonal in position. Conjugation by the
position-diagonal factor leaves the kernel diagonal (hence the density)
untouched, so the mid-step mean-field density equals the density after a
free half step: the predictor needs a single extra kinetic half-conjugation
and no implicit solve. Trace, Hilbert-Schmidt norm, Hermiticity, positivity
and the full spectrum are exact invariants of the conjugation.
"""

from __future__ import annotations

import numpy as np

from .calculus import kinetic_energy, spatial_density
from .errors import ConfigurationError
from .grids import PhaseGrid
from .operators import DensityOperator
from .poisson import solve_poisson
from .spectral import fourier_multiplier
from .trajectory import FieldSnapshot, Trajectory, resolve_steps


def _kinetic_phase(grid: PhaseGrid, dt: float) -> np.ndarray:
    return np.exp(-1j * dt * grid.fourier_momenta**2 / (2.0 * grid.hbar))


def _conjugate_kinetic(K: np.ndarray, phase: np.ndarray) -> np.ndarray:
    K = fourier_multiplier(K, phase, axis=0)
    return fourier_multiplier(K, phase.conj(), axis=1)


def _conjugate_potential(K: np.ndarray, grid: PhaseGrid, V: np.ndarray, dt: float) -> np.ndarray:
    phase = np.exp(-1j * dt * V / grid.hbar)
    return phase[:, None] * K * phase.conj()[None, :]


def _operator_logs(traj: Trajectory, t: float, op: DensityOperator, snap: FieldSnapshot,
                   log_spectrum: bool):
    g = op.grid
    rho = spatial_density(op).real
    traj.add_time(t)
    traj.log("trace", float(op.trace().real))
    hs = np.sqrt(np.sum(np.abs(op.kernel) ** 2)) * g.dx**g.d
    traj.log("l2_norm", float(g.h ** (g.d / 2.0) * hs))
    potential = 0.5 * float(np.sum(rho * snap.V) * g.dx**g.d)
    traj.log("energy", kinetic_energy(op) + potential)
    if log_spectrum:
        ev = op.eigenvalues()
        traj.log("min_eigenvalue", float(ev[0]))


def evolve_hartree(op0: DensityOperator, T: float, dt: float, sign: int,
                   snapshot_stride: int | None = None,
                   log_spectrum: bool = False) -> Trajectory:
    """Evolve the nonlinear Hartree equation i hbar d_t op = [H_op, op]."""
    if not op0.hermitian and not op0.check_hermitian(1e-10):
        raise ConfigurationError("Hartree evolution needs a Hermitian initial operator")
    g = op0.grid
    steps, dt = resolve_steps(T, dt)
    traj = Trajectory(kind="operator", dt=dt)
    K = op0.kernel.astype(complex).copy()
    half_kin = _kinetic_phase(g, dt / 2.0)
    full_kin = _kinetic_phase(g, dt)

    def density(Kmat):
        return np.real(np.diag(Kmat)) * g.h**g.d

    def record(t, Kmat):
        op = DensityOperator(g, Kmat, hermitian=True, positive=op0.positive)
        snap = solve_poisson(g, density(Kmat), sign, time=t)
        traj.fields.append(snap)
        _operator_logs(traj, t, op, snap, log_spectrum)
        return op

    op = record(0.0, K)
    traj.add_snapshot(0.0, op)
    for n in range(steps):
        t_next = (n + 1) * dt
        # predictor: the density after the free half step is the exact
        # mid-step density for the V half step (V-conjugation preserves it)
        K_pred = _conjugate_kinetic(K, half_kin)
        snap_half = solve_poisson(g, density(K_pred), sign, time=n * dt + dt / 2)
        K = _conjugate_potential(K, g, snap_half.V, dt / 2.0)
        K = _conjugate_kinetic(K, full_kin)
        K = _conjugate_potential(K, g, snap_half.V, dt / 2.0)
        op = record(t_next, K)
        is_last = n == steps - 1
        if is_last or (snapshot_stride and (n + 1) % snapshot_stride == 0):
            traj.add_snapshot(t_next, op)
    return traj


def evolve_linear_hartree(op0: DensityOperator, field_history: list[FieldSnapshot],
                          T: float, dt: float,
                          snapshot_stride: int | None = None,
                          log_spectrum: bool = False) -> Trajectory:
    """Evolve i hbar d_t op = [H_f, op] with the frozen field history V_f(t).

    ``field_history`` must cover [0, T] on the same time grid; the potential
    at half steps is the linear interpolation (V_n + V_{n+1}) / 2.
    """
    if not op0.hermitian and not op0.check_hermitian(1e-10):
        raise ConfigurationError("linear Hartree evolution needs a Hermitian initial operator")
    g = op0.grid
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
    traj = Trajectory(kind="operator", dt=dt)
    K = op0.kernel.astype(complex).copy()
    full_kin = _kinetic_phase(g, dt)

    def record(t, Kmat, snap):
        op = DensityOperator(g, Kmat, hermitian=True, positive=op0.positive)
        _operator_logs(traj, t, op, snap, log_spectrum)
        return op

    op = record(0.0, K, field_history[0])
    traj.add_snapshot(0.0, op)
    for n in range(steps):
        t_next = (n + 1) * dt
        V_half = 0.5 * (field_history[n].V + field_history[n + 1].V)
        K = _conjugate_potential(K, g, V_half, dt / 2.0)
        K = _conjugate_kinetic(K, full_kin)
        K = _conjugate_potential(K, g, V_half, dt / 2.0)
        op = record(t_next, K, field_history[n + 1])
        is_last = n == steps - 1
        if is_last or (snapshot_stride and (n + 1) % snapshot_stride == 0):
            traj.add_snapshot(t_next, op)
    return traj


def free_schroedinger(op0: DensityOperator, t: float) -> DensityOperator:
    """Exact free conjugation exp(-i t |p|^2 / (2 hbar)) op exp(+i ...)."""
    g = op0.grid
    K = _conjugate_kinetic(op0.kernel.astype(complex), _kinetic_phase(g, t))
    return DensityOperator(g, K, hermitian=op0.hermitian, positive=op0.positive)
