"""Hartree evolution of density operators by split-step unitary conjugation.

One step from t_n to t_{n+1} conjugates the kernel by
U_V(t_{n+1}, dt/2) U_K(dt) U_V(t_n, dt/2): the kinetic factor
exp(-i dt |p|^2 / (2 hbar)) is diagonal in Fourier, the potential factor
exp(-i dt V / (2 hbar)) diagonal in position (Bao, Jin & Markowich, J.
Comput. Phys. 175, 2002). Conjugation by a position-diagonal factor leaves
the kernel diagonal, hence the density, untouched. So the density after the
free step is the exact density at t_{n+1}, and the self-consistent field
that closes a step costs one Poisson solve of a diagonal the loop reads
anyway; it also opens the next step. A step takes the four N x N FFT passes
of the kinetic conjugation and nothing else; the kinetic-energy log takes
none. Trace, Hilbert-Schmidt norm, Hermiticity, positivity and the full
spectrum are exact invariants of the conjugation. The kicks at both step
ends make the step exactly time-reversible: evolving the complex conjugate
of the final kernel for the same time returns the conjugate of the initial
one, to rounding.

The nonlinear and the linear flow share one step loop and differ only in
the field at each step time: the Poisson field of the evolved density, or
the entry of a frozen field history. The step unitary depends at most on
the density of the evolved operator, so U sqrt(op) U* = sqrt(U op U*): the
square root rides along either flow without an eigendecomposition.
Conjugation is complex-linear and maps Hermitian kernels to Hermitian
kernels, so the loop evolves one packed kernel M = op + i sqrt(op), whose
Hermitian part is op and whose anti-Hermitian part over i is the root.
Carrying the root thus costs no FFT pass. The density and the per-step logs
read M as it is; M is split only at snapshots and for the spectrum log. The
packed op kernel agrees with an unpacked one to rounding, about 5e-15
relative in Hilbert-Schmidt norm.

The loop is a generator (hartree_steps, linear_hartree_steps), as the
Vlasov one is: it writes the per-step logs to the trajectory it is given and
yields each due snapshot. evolve_hartree and evolve_linear_hartree store
every snapshot; a sweep member steps the Vlasov flow and both Hartree flows
in lockstep, analyses each snapshot as it comes and keeps only the last.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .calculus import kinetic_energy
from .errors import ConfigurationError
from .operators import DensityOperator
from .poisson import solve_poisson
from .trajectory import FieldSnapshot, Trajectory, resolve_steps, snapshot_due

# what a stepping generator yields at each due snapshot: (t, op, root or None)
States = Iterator[tuple[float, DensityOperator, DensityOperator | None]]


def _conjugate_kinetic(K: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """K -> U K U* in place for U = F^-1 diag(phase) F; the phase is even in
    the mode, so U* acts on the column index with the multiplier conj(phase)."""
    np.fft.fft(K, axis=0, out=K)
    K *= phase[:, None]
    np.fft.ifft(K, axis=0, out=K)
    np.fft.fft(K, axis=1, out=K)
    K *= phase.conj()
    return np.fft.ifft(K, axis=1, out=K)


def _kick(K: np.ndarray, phase: np.ndarray) -> None:
    """K -> U K U* in place for the position-diagonal U = diag(phase)."""
    K *= phase[:, None]
    K *= phase.conj()


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


def _evolve(op0: DensityOperator, steps: int, dt: float, field,
            snapshot_stride: int | None, log_spectrum: bool,
            root: DensityOperator | None,
            traj: Trajectory) -> States:
    """The operator step loop both Hartree flows share, as a generator: step,
    log trace, Hilbert-Schmidt norm and energy to ``traj`` at every step time,
    and yield ``(t, op, root)`` at each due snapshot.

    ``field(n, rho)`` is the field at step time t_n, given the density
    there; it is called once per step time, in order. Its potential kicks
    for half a step on both sides of t_n and enters the energy log.
    ``root``, a Hermitian square root of op0, rides in M = op + i root and is
    yielded split from it, else None. The states at t = 0 are op0 and root
    themselves; later ones are fresh arrays that the loop never writes.
    """
    if not op0.hermitian and not op0.check_hermitian(1e-10):
        raise ConfigurationError("Hartree evolution needs a Hermitian initial operator")
    if root is not None and not root.hermitian and not root.check_hermitian(1e-10):
        raise ConfigurationError("the carried square root must be Hermitian")
    g = op0.grid
    traj.dt = dt
    if root is None:
        M = op0.kernel.copy()
    else:
        M = 1j * root.kernel
        M += op0.kernel
    kin = np.exp(-1j * dt * g.fourier_momenta**2 / (2.0 * g.hbar))
    for n in range(steps + 1):
        if n > 0:
            _kick(M, pot)
            _conjugate_kinetic(M, kin)
        # Re diag M = diag op for Hermitian op and root, and a kick keeps the
        # diagonal: this is the exact density at t_n
        rho = M.diagonal().real * g.h
        fld = field(n, rho)
        pot = np.exp(-0.5j * dt * fld.V / g.hbar)
        if n > 0:
            _kick(M, pot)
        t = n * dt
        due = snapshot_due(n, steps, snapshot_stride)
        if n == 0:
            op, vt = op0, root
        elif due or log_spectrum:
            A, R = _split_packed(M)
            op = DensityOperator(g, A, hermitian=True)
            vt = None if root is None else DensityOperator(g, R, hermitian=True)
        # Re tr M = tr op, ||M||_F^2 + Re tr(M M) = 2 ||op||_F^2, and the
        # imaginary part of the root is antisymmetric, so it drops out
        # against the symmetric kinetic circulant
        hs = np.sqrt(0.5 * (np.vdot(M, M).real + np.einsum("ij,ji->", M, M).real)) * g.dx
        potential_energy = 0.5 * float(np.sum(rho * fld.V) * g.dx)
        spectrum = {"min_eigenvalue": op.eigenvalues()[0]} if log_spectrum else {}
        traj.record(
            t,
            trace=np.trace(M).real * g.dx,
            l2_norm=g.h ** 0.5 * hs,
            energy=kinetic_energy(DensityOperator(g, M)) + potential_energy,
            **spectrum,
        )
        if due:
            yield t, op, vt


def _collect(traj: Trajectory, states: States) -> Trajectory:
    """Store every state a stepping generator yields in ``traj``: op in
    ``snapshots``, the carried root, if any, in ``root_snapshots``."""
    for t, op, vt in states:
        traj.add_snapshot(t, op)
        if vt is not None:
            traj.root_snapshots.append(vt)
    return traj


def hartree_steps(op0: DensityOperator, T: float, dt: float, sign: int, traj: Trajectory,
                  snapshot_stride: int | None = None, log_spectrum: bool = False,
                  root: DensityOperator | None = None) -> States:
    """Step the nonlinear Hartree equation i hbar d_t op = [H_op, op], yielding
    ``(t, op, root)`` at each snapshot time (see _evolve); the logs and the
    fields go to ``traj``.

    Each step kicks for half a step with the self-consistent field at each of
    its ends; the field at the closing end is the Poisson field of the
    density after the free step, which is exact because a kick leaves the
    density unchanged. One Poisson solve per step time; the fields go to
    ``traj.fields``, and they are exactly the fields the flow kicked with.
    ``root``, a Hermitian square root of op0, is carried to the square root
    of the evolved operator as the anti-Hermitian part of the packed kernel.
    """
    steps, dt = resolve_steps(T, dt)

    def field(n, rho):
        traj.fields.append(solve_poisson(op0.grid, rho, sign, time=n * dt))
        return traj.fields[-1]

    return _evolve(op0, steps, dt, field, snapshot_stride, log_spectrum, root, traj)


def linear_hartree_steps(op0: DensityOperator, field_history: list[FieldSnapshot],
                         T: float, dt: float, traj: Trajectory,
                         snapshot_stride: int | None = None, log_spectrum: bool = False,
                         root: DensityOperator | None = None) -> States:
    """Step i hbar d_t op = [H_f, op] with the frozen field history V_f(t),
    yielding ``(t, op, root)`` at each snapshot time; the logs go to ``traj``.

    ``field_history`` must cover [0, T] on the same time grid; the step from
    t_n to t_{n+1} kicks for half a step with V_n, then with V_{n+1} (the
    trapezoidal rule for the time integral of the potential). Each entry is
    checked as the flow reads it, so the history may grow while the flow
    steps: a Vlasov flow ahead of it in a lockstep appends it. ``root`` is
    carried as in hartree_steps.
    """
    steps, dt = resolve_steps(T, dt)

    def field(n, rho):
        if n >= len(field_history) or abs(field_history[n].time - n * dt) > 1e-9 * max(1.0, T):
            raise ConfigurationError(f"field history has no entry for step {n}, t = {n * dt}")
        return field_history[n]

    return _evolve(op0, steps, dt, field, snapshot_stride, log_spectrum, root, traj)


def evolve_hartree(op0: DensityOperator, T: float, dt: float, sign: int,
                   snapshot_stride: int | None = None,
                   log_spectrum: bool = False,
                   root: DensityOperator | None = None) -> Trajectory:
    """The trajectory of hartree_steps with every snapshot stored: op in
    ``snapshots``, the carried root in ``root_snapshots``."""
    traj = Trajectory()
    return _collect(traj, hartree_steps(op0, T, dt, sign, traj, snapshot_stride,
                                        log_spectrum, root))


def evolve_linear_hartree(op0: DensityOperator, field_history: list[FieldSnapshot],
                          T: float, dt: float,
                          snapshot_stride: int | None = None,
                          log_spectrum: bool = False,
                          root: DensityOperator | None = None) -> Trajectory:
    """The trajectory of linear_hartree_steps with every snapshot stored, as
    in evolve_hartree."""
    traj = Trajectory()
    return _collect(traj, linear_hartree_steps(op0, field_history, T, dt, traj,
                                               snapshot_stride, log_spectrum, root))
