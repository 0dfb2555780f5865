"""The Weyl-remainder operator B_f and the Weyl-Vlasov consistency residual.

The Weyl quantization op_f of a Vlasov solution satisfies the Hartree-type
equation i hbar d_t op_f = [H_f, op_f] - B_f(op_f), where B_f multiplies the
kernel by the second-order Taylor defect of the potential
delta2V(x, y) = V(x) - V(y) - (x - y) . grad V((x+y)/2). The defect vanishes
identically for quadratic potentials and is O(hbar^2) in the Hilbert-Schmidt
norm on semiclassical kernels.
"""

from __future__ import annotations

import numpy as np

from .calculus import require_unwrapped
from .errors import ConfigurationError
from .grids import PhaseField, PhaseGrid
from .norms import schatten_norm
from .operators import DensityOperator
from .spectral import derivative, fourier_multiplier, half_shift
from .trajectory import Trajectory
from .transforms import weyl_quantize, _chord_indices


def grad_on_half_lattice(grid: PhaseGrid, V: np.ndarray) -> np.ndarray:
    """grad V sampled on the doubled midpoint lattice (2N points, spacing dx/2).

    Even entries are the spectral gradient at primal nodes, odd entries its
    band-limited interpolation at the midpoints.
    """
    # complex route: the Taylor defect cancels to O(hbar^2), which magnifies a rounding move
    gv = derivative(V.astype(complex), grid.L_x, axis=0)
    out = np.empty(2 * grid.N, dtype=float)
    out[0::2] = gv.real
    out[1::2] = half_shift(gv, axis=0, direction=+1).real
    return out


def b_remainder(op: DensityOperator, V: np.ndarray,
                grad_v_half: np.ndarray | None = None) -> DensityOperator:
    """B_f(op): kernel delta2V(x, y) op(x, y).

    The chord x - y uses its minimal image and the midpoint the matching
    representative on the doubled lattice; ``grad_v_half`` overrides the
    spectral gradient with values on the 2N midpoint lattice (used by tests
    with analytic potentials). Same wrap guard as the xi-gradient.
    """
    g = op.grid
    N = g.N
    if V.shape != (N,):
        raise ConfigurationError("potential shape does not match the grid")
    require_unwrapped(op)
    if grad_v_half is None:
        grad_v_half = grad_on_half_lattice(g, V)
    if grad_v_half.shape != (2 * N,):
        raise ConfigurationError("grad_v_half must live on the doubled midpoint lattice")
    idx = _chord_indices(N)
    c = idx["c"]
    i = np.arange(N)[:, None]
    u = (2 * i - c) % (2 * N)
    chord = c * g.dx
    delta2 = V[:, None] - V[None, :] - chord * grad_v_half[u]
    return DensityOperator(g, delta2 * op.kernel, hermitian=op.hermitian)


def potential_commutator(op: DensityOperator, V: np.ndarray) -> DensityOperator:
    """[V, op]: kernel (V(x) - V(y)) op(x, y)."""
    dV = V[:, None] - V[None, :]
    return DensityOperator(op.grid, dV * op.kernel)


def kinetic_commutator(op: DensityOperator) -> DensityOperator:
    """[-hbar^2 Delta / 2, op] as an exact Fourier-multiplier commutator."""
    g = op.grid
    mult = g.fourier_momenta**2 / 2.0
    K = fourier_multiplier(op.kernel, mult, axis=0) - fourier_multiplier(op.kernel, mult, axis=1)
    return DensityOperator(g, K)


def hamiltonian_commutator(op: DensityOperator, V: np.ndarray) -> DensityOperator:
    """[H, op] with H = -hbar^2 Delta / 2 + V."""
    return kinetic_commutator(op) + potential_commutator(op, V)


def weyl_vlasov_residual(f_traj: Trajectory,
                         include_b: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Residual of i hbar d_t op_f = [H_f, op_f] - B_f(op_f) along a trajectory.

    Time derivatives are central differences over the trajectory's dt at
    interior snapshot times; the trajectory must carry consecutive snapshots
    (stride 1). Returns (interior times, residual L^2 Schatten norms).
    """
    if not isinstance(f_traj.final(), PhaseField):
        raise ConfigurationError("residual needs a Vlasov (field) trajectory")
    if len(f_traj.snapshot_times) != len(f_traj.times):
        raise ConfigurationError("residual needs snapshots at every step (stride 1)")
    dt = f_traj.dt
    g = f_traj.snapshots[0].grid
    hbar = g.hbar
    ops = [weyl_quantize(f) for f in f_traj.snapshots]
    times = f_traj.times
    out_t, out_r = [], []
    for n in range(1, len(ops) - 1):
        dop = (ops[n + 1] - ops[n - 1]) * (1.0 / (2.0 * dt))
        snap = f_traj.fields[n]
        rhs = hamiltonian_commutator(ops[n], snap.V)
        if include_b:
            rhs = rhs - b_remainder(ops[n], snap.V)
        resid = (1j * hbar) * dop - rhs
        out_t.append(times[n])
        out_r.append(schatten_norm(resid, 2))
    return np.asarray(out_t), np.asarray(out_r)
