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
"""

from __future__ import annotations

import numpy as np

from .errors import SupportEscapeError
from .grids import PhaseField
from .poisson import solve_poisson
from .spectral import apply_shift, shift_phase
from .trajectory import Trajectory, resolve_steps, snapshot_due

BOUNDARY_TOL = 1e-8


def _boundary_fraction(values: np.ndarray, cell: float) -> float:
    total = np.sum(np.abs(values)) * cell
    if total == 0:
        return 0.0
    edge = np.sum(np.abs(values[:, [0, 1, -2, -1]])) * cell
    return float(edge / total)


def evolve_vlasov(f0: PhaseField, T: float, dt: float, sign: int,
                  snapshot_stride: int | None = None) -> Trajectory:
    """Evolve the Vlasov-Poisson equation by kick-drift-kick steps.

    One Poisson solve per step time; the fields go to ``fields``, and they
    are exactly the fields the flow kicked with. snapshot_stride=None stores
    only the initial and final states; stride k stores every k-th step
    (weyl_vlasov_residual wants stride 1). The support-escape guard holds
    the share of the L^1 mass in the two outer momentum columns at each end
    under BOUNDARY_TOL at every step time, t = 0 included, and logs it as
    ``boundary_fraction``.
    """
    g = f0.grid
    steps, dt = resolve_steps(T, dt)
    traj = Trajectory(dt=dt)
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
            traj.add_snapshot(t, PhaseField(g, f, real=True))
    return traj
