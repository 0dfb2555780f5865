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

The step unitary depends only on the density of the evolved operator, so
U sqrt(op) U* = sqrt(U op U*): a companion kernel conjugated by the same
factors carries the square root along the flow without an eigendecomposition.
"""

from __future__ import annotations

import numpy as np

from .calculus import kinetic_energy, spatial_density
from .errors import ConfigurationError
from .grids import PhaseGrid
from .operators import DensityOperator
from .poisson import solve_poisson
from .trajectory import FieldSnapshot, Trajectory, resolve_steps
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
                kin: np.ndarray) -> np.ndarray:
    """U_V(dt/2) U_K(dt) U_V(dt/2) conjugation of K into a new array.

    ``kin`` is the full-step kinetic phase; U_V(dt/2) is diagonal in position.
    """
    pot = np.exp(-1j * (dt / 2.0) * V / grid.hbar)
    out = K * pot[:, None]
    out *= pot.conj()
    _conjugate_kinetic(out, kin)
    out *= pot[:, None]
    out *= pot.conj()
    return out


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


def _operator_logs(traj: Trajectory, t: float, op: DensityOperator, rho: np.ndarray,
                   snap: FieldSnapshot, log_spectrum: bool):
    """Log trace, Hilbert-Schmidt norm and energy; ``rho`` is op's density and
    ``snap`` the field whose potential enters the energy."""
    g = op.grid
    K = op.kernel
    traj.add_time(t)
    traj.log("trace", float(op.trace().real))
    hs = np.sqrt(np.einsum("ij,ij->", K.real, K.real)
                 + np.einsum("ij,ij->", K.imag, K.imag)) * g.dx**g.d
    traj.log("l2_norm", float(g.h ** (g.d / 2.0) * hs))
    potential = 0.5 * float(np.sum(rho * snap.V) * g.dx**g.d)
    traj.log("energy", kinetic_energy(op) + potential)
    if log_spectrum:
        ev = op.eigenvalues()
        traj.log("min_eigenvalue", float(ev[0]))


def evolve_hartree(op0: DensityOperator, T: float, dt: float, sign: int,
                   snapshot_stride: int | None = None,
                   log_spectrum: bool = False,
                   root: DensityOperator | None = None) -> Trajectory:
    """Evolve the nonlinear Hartree equation i hbar d_t op = [H_op, op].

    ``root``, a Hermitian square root of op0, is conjugated by the same step
    unitaries as op0; its snapshots go to ``root_snapshots``, taken at the
    ``snapshot_times``. The op0 kernel evolves bit-identically either way.
    """
    if not op0.hermitian and not op0.check_hermitian(1e-10):
        raise ConfigurationError("Hartree evolution needs a Hermitian initial operator")
    if root is not None and not root.hermitian and not root.check_hermitian(1e-10):
        raise ConfigurationError("the carried square root must be Hermitian")
    g = op0.grid
    steps, dt = resolve_steps(T, dt)
    traj = Trajectory(kind="operator", dt=dt)
    K = op0.kernel.astype(complex).copy()
    R = None if root is None else root.kernel.astype(complex).copy()
    half_kin = _kinetic_phase(g, dt / 2.0)
    half_circ = _diagonal_circulant(half_kin)
    full_kin = _kinetic_phase(g, dt)

    def record(t, Kmat):
        op = DensityOperator(g, Kmat, hermitian=True, positive=op0.positive)
        rho = spatial_density(op)
        snap = solve_poisson(g, rho, sign, time=t)
        traj.fields.append(snap)
        _operator_logs(traj, t, op, rho, snap, log_spectrum)
        return op

    def snapshot(t, op):
        traj.add_snapshot(t, op)
        if R is not None:
            traj.root_snapshots.append(DensityOperator(g, R, hermitian=True, positive=True))

    snapshot(0.0, record(0.0, K))
    for n in range(steps):
        t_next = (n + 1) * dt
        # predictor: the density after the free half step is the exact
        # mid-step density for the V half step (V-conjugation preserves it)
        rho_mid = _free_step_density(K, g, half_kin, half_circ)
        snap_half = solve_poisson(g, rho_mid, sign, time=n * dt + dt / 2)
        K = _split_step(K, g, snap_half.V, dt, full_kin)
        if R is not None:
            R = _split_step(R, g, snap_half.V, dt, full_kin)
        op = record(t_next, K)
        is_last = n == steps - 1
        if is_last or (snapshot_stride and (n + 1) % snapshot_stride == 0):
            snapshot(t_next, op)
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
        _operator_logs(traj, t, op, spatial_density(op), snap, log_spectrum)
        return op

    op = record(0.0, K, field_history[0])
    traj.add_snapshot(0.0, op)
    for n in range(steps):
        t_next = (n + 1) * dt
        V_half = 0.5 * (field_history[n].V + field_history[n + 1].V)
        K = _split_step(K, g, V_half, dt, full_kin)
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
