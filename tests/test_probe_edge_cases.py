import numpy as np

from phaselab import PhaseField, make_grid, sample_field
from phaselab.budgets import quantum_rate, sqrt_field
from phaselab.coherent import wick_quantize
from phaselab.norms import lebesgue_norm
from phaselab.calculus import spatial_density
from phaselab.probes import commutator_probe, init_diff_probe, wick_square_data, wick_square_probe
from phaselab.operators import DensityOperator
from phaselab.sweeps import grid_member
from phaselab.trajectory import Trajectory
from phaselab.vlasov import vlasov_steps

PROFILE = {"name": "maxwellian", "perturbation": 0.1, "sigma_xi": 0.42}


def test_wick_square_constant_symbol_vanishes(grid32):
    out = wick_square_probe(wick_square_data(PhaseField(grid32, np.full((32, 32), 1.7))))
    assert out["lhs_p2"] < 1e-12
    assert out["lhs_p1"] < 1e-10
    assert out["lhs_pinf"] < 1e-12


def test_init_diff_constant_symbol_vanishes(grid32):
    out = init_diff_probe(wick_square_data(PhaseField(grid32, np.full((32, 32), 0.8))))
    assert out["lhs"] < 1e-12


def test_commutator_probe_trivial_cases(grid32, rng):
    from phaselab.spectral import band_limited_field

    # mu diagonal in position commutes with V
    phi = 1.0 + 0.2 * np.cos(2 * np.pi * grid32.x / grid32.L_x)
    mu_diag = DensityOperator(grid32, np.diag(phi).astype(complex) / grid32.dx,
                              hermitian=True)
    src = wick_quantize(PhaseField(
        grid32, np.abs(band_limited_field(32, rng, max_mode=6)) + 0.3))
    out = commutator_probe(spatial_density(src), mu_diag)
    assert out["lhs"] < 1e-12

    # uniform density gives a constant potential
    uniform = wick_quantize(PhaseField(grid32, np.ones((32, 32))))
    mu = wick_quantize(PhaseField(grid32, band_limited_field(32, rng, max_mode=6)))
    out2 = commutator_probe(spatial_density(uniform), mu)
    assert out2["lhs"] < 1e-12


def test_quantum_lambda_refinement_stability():
    # lambda(0) with the Wick square-root initial datum is hbar-uniform
    values = {}
    for N in (64, 128):
        grid = make_grid(N, 2 * np.pi, 2 * np.pi)
        f0 = sample_field(grid, PROFILE)
        vt = wick_quantize(sqrt_field(f0))
        rho_sup = float(np.max(f0.values.sum(axis=1) * grid.dxi))
        C_inf = lebesgue_norm(f0, np.inf)
        values[N] = quantum_rate(vt, rho_sup, C_inf)[0]
    assert abs(values[128] - values[64]) / values[64] < 0.05


def test_quantum_lambda_uniform_over_sweep():
    # max-over-time lambda varies < 20% across the hbar sweep
    from phaselab.hartree import linear_hartree_steps

    maxima = []
    for N in (48, 64, 96, 128):
        grid = make_grid(N, 2 * np.pi, 2 * np.pi)
        f0 = sample_field(grid, PROFILE)
        dt = grid.hbar / 10
        steps = max(1, round(0.25 / dt))
        dt = 0.25 / steps
        stride = max(1, steps // 4)
        vt = wick_quantize(sqrt_field(f0))
        C_inf = lebesgue_norm(f0, np.inf)
        # the Vlasov flow steps first: its field history drives the linear flow
        ftraj = Trajectory()
        flows = zip(vlasov_steps(f0, 0.25, dt, +1, ftraj, stride),
                    linear_hartree_steps(vt, ftraj.fields, 0.25, dt, Trajectory(), stride))
        maxima.append(max(quantum_rate(v, float(np.max(np.abs(fld.rho))), C_inf)[0]
                          for (_, _, fld), (_, v, _) in flows))
    spread = (max(maxima) - min(maxima)) / min(maxima)
    assert spread < 0.20


def test_defect_constant_with_interaction_off():
    # E = 0: the Wick-evolved operator and the Weyl transform follow the same
    # free flow. The Schatten-norm defect is exactly invariant; the diagonal
    # is not a unitary invariant of the flow, so its norm only stays pinned
    # to a narrow band around the initial value (no secular growth).
    m = grid_member(dict(N=64, profile=PROFILE, T=0.25, sign=0, dt=0.0125,
                         probes=["positivity_defect"]))["positivity_defect"]
    pos = m["left_positivity"]
    diag = m["left_diag"]
    assert np.max(np.abs(pos - pos[0])) < 1e-9
    assert np.max(np.abs(diag - diag[0])) / diag[0] < 1e-3
