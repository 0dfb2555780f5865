"""Vlasov-Poisson evolution by Strang splitting with exact spectral shifts.

Half-step free transport (per-momentum-row shift in x), full-step
acceleration with the force from the mid-step density (per-position shift in
xi), half-step transport. Each substep is a unitary spectral translation of
real data on the rfft half spectrum, so mass and every L^p norm built on the
shifts are conserved to rounding; energy is conserved to O(dt^2). The
transport phase is the same for every half step and is built once per run;
only the acceleration phase follows the field.
"""

from __future__ import annotations

import numpy as np

from .errors import SupportEscapeError
from .grids import PhaseField
from .poisson import solve_poisson
from .spectral import apply_shift, shift, shift_phase
from .trajectory import Trajectory, resolve_steps, snapshot_due

NEGATIVITY_WARN = 1e-6
BOUNDARY_TOL = 1e-8


def _boundary_fraction(values: np.ndarray, cell: float) -> float:
    total = np.sum(np.abs(values)) * cell
    if total == 0:
        return 0.0
    edge = np.sum(np.abs(values[:, [0, 1, -2, -1]])) * cell
    return float(edge / total)


def _field_logs(traj: Trajectory, t: float, f: PhaseField, snap):
    g = f.grid
    v = f.values
    xi = g.xi
    mass = v.sum() * g.cell
    l1 = np.sum(np.abs(v)) * g.cell
    l2 = np.sqrt(np.sum(v * v) * g.cell)
    momentum = float((v @ xi).sum() * g.cell)
    kinetic = float((v @ (xi**2 / 2.0)).sum() * g.cell)
    potential = 0.5 * float(np.sum(snap.rho * snap.V) * g.dx)
    traj.add_time(t)
    traj.log("mass", mass)
    traj.log("l1_norm", l1)
    traj.log("l2_norm", l2)
    traj.log("momentum", momentum)
    traj.log("energy", kinetic + potential)
    traj.log("min_value", float(v.min()))
    traj.log("linf_norm", float(np.abs(v).max()))


def evolve_vlasov(f0: PhaseField, T: float, dt: float, sign: int,
                  snapshot_stride: int | None = None) -> Trajectory:
    """Evolve the Vlasov-Poisson equation; returns the trajectory with the
    self-consistent field history recorded at every step time.

    snapshot_stride=None stores only the initial and final states; stride k
    stores every k-th step (weyl_vlasov_residual wants stride 1). The
    ``boundary_fraction`` log is the share of the L^1 mass in the two outer
    momentum columns at each end, the value the support-escape guard holds
    under BOUNDARY_TOL.
    """
    g = f0.grid
    steps, dt = resolve_steps(T, dt)
    traj = Trajectory(kind="field", dt=dt)
    f = f0.values.astype(float).copy()
    fmax = np.abs(f).max()

    def record(t, fv, boundary):
        fld = PhaseField(g, fv, real=True)
        rho = fv.sum(axis=1) * g.dxi
        snap = solve_poisson(g, rho, sign, time=t)
        traj.fields.append(snap)
        _field_logs(traj, t, fld, snap)
        traj.log("boundary_fraction", boundary)
        return fld

    traj.add_snapshot(0.0, record(0.0, f, _boundary_fraction(f, g.cell)))
    transport = shift_phase(g.N, g.L_x, g.xi * (dt / 2.0), axis=0)
    for n in range(steps):
        t_next = (n + 1) * dt
        f = apply_shift(f, transport, axis=0)                 # half transport
        rho_mid = f.sum(axis=1) * g.dxi
        snap_mid = solve_poisson(g, rho_mid, sign, time=n * dt + dt / 2)
        f = shift(f, g.L_xi, snap_mid.E * dt, axis=1)         # full acceleration
        f = apply_shift(f, transport, axis=0)                 # half transport
        boundary = _boundary_fraction(f, g.cell)
        if boundary > BOUNDARY_TOL:
            raise SupportEscapeError(
                f"momentum-boundary mass {boundary:.3e} "
                f"exceeds {BOUNDARY_TOL:.1e} at t={t_next:.4g}"
            )
        if f.min() < -NEGATIVITY_WARN * fmax:
            traj.warnings.append(
                f"negative excursion {f.min():.3e} at t={t_next:.4g}"
            )
        fld = record(t_next, f, boundary)
        if snapshot_due(n + 1, steps, snapshot_stride):
            traj.add_snapshot(t_next, fld)
    return traj


def free_transport(f0: PhaseField, t: float) -> PhaseField:
    """Exact free flow f(t, x, xi) = f0(x - xi t, xi) by spectral shift."""
    g = f0.grid
    vals = shift(f0.values.astype(float), g.L_x, g.xi * t, axis=0)
    return PhaseField(g, vals, real=f0.real)
