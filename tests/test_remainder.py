import numpy as np
import pytest

from phaselab import ConfigurationError, PhaseField, sample_field, weyl_quantize
from phaselab.remainder import (
    b_remainder,
    hamiltonian_commutator,
    potential_commutator,
    weyl_vlasov_residual,
)
from phaselab.vlasov import evolve_vlasov

PROFILE = {"name": "maxwellian", "perturbation": 0.08, "sigma_xi": 0.38}


@pytest.fixture
def local_op(grid64):
    f = sample_field(grid64, {"name": "gaussian", "x0": np.pi, "sigma_x": 0.5,
                              "sigma_xi": 0.5}, tail_tol=1e-6)
    return weyl_quantize(f)


def test_quadratic_potential_gives_zero(grid64, local_op):
    xc = grid64.x - np.pi
    V = 0.7 * xc**2 + 0.3 * xc + 1.0
    xhalf = np.arange(2 * grid64.N) * grid64.dx / 2 - np.pi
    grad = 1.4 * xhalf + 0.3
    B = b_remainder(local_op, V, grad_v_half=grad)
    assert np.max(np.abs(B.kernel)) < 1e-12


def test_cubic_potential_taylor_defect(grid64, local_op):
    # delta2 V = (x - y)^3 / 4 for V = x^3 on a wrap-safe window
    N = grid64.N
    xc = grid64.x - np.pi
    xhalf = np.arange(2 * N) * grid64.dx / 2 - np.pi
    B = b_remainder(local_op, xc**3, grad_v_half=3 * xhalf**2)
    i = np.arange(N)[:, None]
    j = np.arange(N)[None, :]
    c = ((i - j + N // 2) % N) - N // 2
    expected = (c * grid64.dx) ** 3 / 4.0 * local_op.kernel
    window = np.abs(c) < N // 4
    scale = np.max(np.abs(expected))
    assert np.max(np.abs((B.kernel - expected)[window])) / scale < 1e-10


def test_commutator_kernels(grid32, rng):
    from phaselab.spectral import band_limited_field

    f = PhaseField(grid32, band_limited_field(32, rng, max_mode=6))
    op = weyl_quantize(f)
    V = np.cos(2 * np.pi * grid32.x / grid32.L_x)
    pc = potential_commutator(op, V)
    expected = (V[:, None] - V[None, :]) * op.kernel
    np.testing.assert_allclose(pc.kernel, expected, atol=1e-14)
    hc = hamiltonian_commutator(op, V)
    # Hermitian op commutator with Hermitian H is anti-Hermitian
    anti = hc.kernel + hc.kernel.conj().T
    assert np.max(np.abs(anti)) < 1e-9 * np.max(np.abs(hc.kernel))


class TestResidual:
    def test_free_transport_second_order(self, grid64):
        f0 = sample_field(grid64, PROFILE)
        res = {}
        for dt in (0.02, 0.01):
            traj = evolve_vlasov(f0, 0.1, dt, 0, snapshot_stride=1)
            _, r = weyl_vlasov_residual(traj)
            res[dt] = np.max(r)
        assert res[0.02] / res[0.01] >= 3.5

    def test_b_term_matters(self, grid64):
        f0 = sample_field(grid64, PROFILE)
        traj = evolve_vlasov(f0, 0.1, grid64.hbar / 10, +1, snapshot_stride=1)
        _, with_b = weyl_vlasov_residual(traj, include_b=True)
        _, without_b = weyl_vlasov_residual(traj, include_b=False)
        assert np.max(without_b) / np.max(with_b) > 5.0

    def test_stationary_residual_tiny(self, grid64):
        f0 = sample_field(grid64, {"name": "maxwellian", "perturbation": 0.0,
                                   "sigma_xi": 0.35})
        traj = evolve_vlasov(f0, 0.05, 0.01, +1, snapshot_stride=1)
        _, r = weyl_vlasov_residual(traj)
        assert np.max(r) < 1e-9

    def test_needs_stride_one(self, grid64):
        f0 = sample_field(grid64, PROFILE)
        traj = evolve_vlasov(f0, 0.1, 0.01, +1, snapshot_stride=5)
        with pytest.raises(ConfigurationError):
            weyl_vlasov_residual(traj)


def test_b_bound_probe_budget_positive(grid64):
    from phaselab.probes import b_bound_probe

    f = sample_field(grid64, PROFILE)
    out = b_bound_probe(f)
    assert out["lhs"] > 0
    assert out["budget"] > 0
    assert out["lhs"] / out["budget"] < 1.0
