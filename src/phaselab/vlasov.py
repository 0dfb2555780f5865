"""Vlasov-Poisson evolution by kick-drift-kick splitting with exact spectral
shifts.

One step from t_n to t_{n+1} is a half acceleration shift with the force at
t_n, a full free transport (per-momentum-row shift in x) and a half
acceleration shift with the force at t_{n+1}: the splitting of the Hartree
step (Bao, Jin & Markowich, J. Comput. Phys. 175, 2002), whose semiclassical
limit it is. A shift along xi leaves the density sum_xi f unchanged, so the
density after the transport is the exact density at t_{n+1}, and its
Poisson field closes one step and opens the next: one solve per step time.
Each substep is a unitary spectral translation of real data on the rfft half
spectrum, so mass and every L^p norm built on the shifts are conserved to
rounding; energy is conserved to O(dt^2). The transport phase is built once
per run; the acceleration phase once per step time.

The loop is a generator (vlasov_steps), as the Hartree one is: it writes the
per-step logs and fields to the trajectory it is given and yields each due
snapshot, which evolve_vlasov stores.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import SupportEscapeError
from .grids import PhaseField
from .poisson import solve_poisson
from .spectral import apply_shift, shift_phase
from .trajectory import FieldSnapshot, Trajectory, resolve_steps, snapshot_due

BOUNDARY_TOL = 1e-8
# what vlasov_steps yields at each due snapshot: (t, f, the Poisson field at t)
States = Iterator[tuple[float, PhaseField, FieldSnapshot]]


def _boundary_fraction(values: np.ndarray, cell: float) -> float:
    total = np.sum(np.abs(values)) * cell
    if total == 0:
        return 0.0
    edge = np.sum(np.abs(values[:, [0, 1, -2, -1]])) * cell
    return float(edge / total)


def vlasov_steps(f0: PhaseField, T: float, dt: float, sign: int, traj: Trajectory,
                 snapshot_stride: int | None = None) -> States:
    """Step the Vlasov-Poisson equation by kick-drift-kick steps, yielding
    ``(t, f, field)`` at each snapshot time: the state and the Poisson field
    it kicked with at t. The per-step logs go to ``traj``, and so do the
    fields, one Poisson solve per step time.

    snapshot_stride=None yields only the initial and final states; stride k
    every k-th step. The support-escape guard holds the share of the L^1 mass
    in the two outer momentum columns at each end under BOUNDARY_TOL at every
    step time, t = 0 included, and logs it as ``boundary_fraction``.
    """
    g = f0.grid
    steps, dt = resolve_steps(T, dt)
    traj.dt = dt
    f = f0.values.astype(float)
    transport = shift_phase(g.N, g.L_x, g.xi * dt, axis=0)
    for n in range(steps + 1):
        t = n * dt
        if n > 0:
            f = apply_shift(f, kick, axis=1)
            f = apply_shift(f, transport, axis=0)
        # a shift along xi keeps sum_xi f: this is the exact density at t_n
        snap = solve_poisson(g, f.sum(axis=1) * g.dxi, sign, time=t)
        kick = shift_phase(g.N, g.L_xi, snap.E * (dt / 2.0), axis=1)
        if n > 0:
            f = apply_shift(f, kick, axis=1)
        boundary = _boundary_fraction(f, g.cell)
        if boundary > BOUNDARY_TOL:
            raise SupportEscapeError(
                f"momentum-boundary mass {boundary:.3e} "
                f"exceeds {BOUNDARY_TOL:.1e} at t={t:.4g}"
            )
        traj.fields.append(snap)
        kinetic = float((f @ (g.xi**2 / 2.0)).sum() * g.cell)
        potential = 0.5 * float(np.sum(snap.rho * snap.V) * g.dx)
        traj.record(
            t,
            mass=f.sum() * g.cell,
            l2_norm=np.sqrt(np.sum(f * f) * g.cell),
            energy=kinetic + potential,
            min_value=f.min(),
            l1_norm=np.sum(np.abs(f)) * g.cell,
            momentum=(f @ g.xi).sum() * g.cell,
            boundary_fraction=boundary,
        )
        if snapshot_due(n, steps, snapshot_stride):
            yield t, PhaseField(g, f, real=True), snap


def evolve_vlasov(f0: PhaseField, T: float, dt: float, sign: int,
                  snapshot_stride: int | None = None) -> Trajectory:
    """The trajectory of vlasov_steps with every snapshot stored in
    ``snapshots`` (weyl_vlasov_residual wants stride 1)."""
    traj = Trajectory()
    for t, f, _ in vlasov_steps(f0, T, dt, sign, traj, snapshot_stride):
        traj.add_snapshot(t, f)
    return traj
