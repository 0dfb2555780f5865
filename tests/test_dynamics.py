import numpy as np
import pytest

from phaselab import (
    ConfigurationError,
    PhaseField,
    SupportEscapeError,
    make_grid,
    sample_field,
    weyl_quantize,
    wigner_transform,
)
from phaselab.budgets import sqrt_field
from phaselab.calculus import operator_sqrt
from phaselab.coherent import wick_quantize, wick_square_datum
from phaselab.hartree import (
    _diagonal_circulant,
    _free_step_density,
    _kinetic_phase,
    evolve_hartree,
    evolve_linear_hartree,
    free_schroedinger,
)
from phaselab.norms import schatten_norm
from phaselab.operators import DensityOperator
from phaselab.poisson import solve_poisson
from phaselab.spectral import fourier_multiplier, modes, shift
from phaselab.sweeps import grid_member
from phaselab.trajectory import DEFAULT_DT, FieldSnapshot
from phaselab.vlasov import evolve_vlasov, free_transport

PROFILE = {"name": "maxwellian", "perturbation": 0.1, "sigma_xi": 0.42}
TWO_STREAM = {"name": "two_stream", "perturbation": 0.05, "sigma_xi": 0.3}
GAUSSIAN = {"name": "gaussian"}
# every datum under every interaction sign: repulsive, free, attractive
SIGNS_BY_PROFILES = pytest.mark.parametrize(
    "profile,sign",
    [(p, s) for p in (PROFILE, TWO_STREAM, GAUSSIAN) for s in (-1, 0, 1)],
    ids=[f"{n}-{s}" for n in ("maxwellian", "two_stream", "gaussian") for s in (-1, 0, 1)])


def _complex_shift(values, L, s, axis):
    """Reference translation by full complex FFTs, real part kept."""
    N = values.shape[axis]
    a = modes(N).reshape([-1, 1] if axis == 0 else [1, -1])
    s = np.asarray(s, dtype=float)
    if s.ndim:
        s = s.reshape([1, -1] if axis == 0 else [-1, 1])
    phase = np.exp(-2j * np.pi * a * s / L)
    return np.fft.ifft(np.fft.fft(values, axis=axis) * phase, axis=axis).real


class TestShift:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_real_shift_matches_complex_fft(self, rng, axis, per_row):
        # white noise carries full Nyquist content
        values = rng.standard_normal((32, 32))
        s = rng.uniform(-3.0, 3.0, 32) if per_row else 0.7
        out = shift(values, 2 * np.pi, s, axis)
        assert out.dtype == np.float64
        assert np.max(np.abs(out - _complex_shift(values, 2 * np.pi, s, axis))) < 1e-13

    def test_whole_cell_shift_is_a_roll(self, rng):
        values = rng.standard_normal((32, 32))
        out = shift(values, 2 * np.pi, 3 * 2 * np.pi / 32, axis=0)
        assert np.max(np.abs(out - np.roll(values, 3, axis=0))) < 1e-13


class TestPoisson:
    def test_single_mode(self, grid64):
        rho = 1.0 + np.cos(2 * np.pi * grid64.x / grid64.L_x)
        snap = solve_poisson(grid64, rho, +1)
        expected = (grid64.L_x / (2 * np.pi)) ** 2 * np.cos(2 * np.pi * grid64.x / grid64.L_x)
        assert np.max(np.abs(snap.V - expected)) < 1e-12
        snap_att = solve_poisson(grid64, rho, -1)
        assert np.max(np.abs(snap_att.V + expected)) < 1e-12

    def test_constant_density(self, grid64):
        snap = solve_poisson(grid64, np.full(64, 2.0), +1)
        assert np.max(np.abs(snap.V)) == 0.0
        assert np.max(np.abs(snap.E)) == 0.0

    def test_force_zero_mean(self, grid64, rng):
        rho = np.abs(rng.standard_normal(64)) + 1.0
        snap = solve_poisson(grid64, rho, +1)
        assert abs(np.sum(snap.E) * grid64.dx) < 1e-12

    def test_bad_sign(self, grid64):
        with pytest.raises(ConfigurationError):
            solve_poisson(grid64, np.ones(64), 2)


class TestVlasov:
    def test_homogeneous_stationary(self, grid64):
        f0 = sample_field(grid64, {"name": "maxwellian", "perturbation": 0.0,
                                   "sigma_xi": 0.35})
        traj = evolve_vlasov(f0, 0.2, 0.01, +1)
        drift = np.sqrt(np.sum((traj.final().values - f0.values) ** 2) * grid64.cell)
        assert drift < 1e-10

    def test_free_transport_exact(self, grid64):
        f0 = sample_field(grid64, PROFILE)
        traj = evolve_vlasov(f0, 0.25, 0.0125, 0)
        exact = free_transport(f0, 0.25)
        assert np.max(np.abs(traj.final().values - exact.values)) < 1e-9

    @SIGNS_BY_PROFILES
    def test_conservation(self, grid64, profile, sign):
        f0 = sample_field(grid64, profile)
        traj = evolve_vlasov(f0, 0.5, 1e-3, sign)
        assert traj.relative_drift("mass") < 1e-12
        assert traj.relative_drift("l1_norm") < 1e-8
        assert traj.relative_drift("l2_norm") < 1e-8
        assert traj.relative_drift("energy") < 1e-6

    def test_support_escape_guard(self):
        grid = make_grid(1, 32, 2 * np.pi, 2 * np.pi)
        X, XI = grid.meshgrid()
        # broad momentum support that free-streams into the boundary rows
        vals = np.exp(-((X - np.pi) ** 2)) * np.exp(-(XI**2) / (0.9 * grid.L_xi / 2) ** 2)
        f0 = PhaseField(grid, vals)
        with pytest.raises(SupportEscapeError):
            evolve_vlasov(f0, 1.0, 0.05, +1)

    def test_field_history_recorded(self, grid64):
        f0 = sample_field(grid64, PROFILE)
        traj = evolve_vlasov(f0, 0.1, 0.01, +1)
        assert len(traj.fields) == len(traj.times)
        assert isinstance(traj.fields[0], FieldSnapshot)
        np.testing.assert_allclose(traj.fields[0].rho,
                                   f0.values.sum(axis=1) * grid64.dxi)


class TestHartree:
    @SIGNS_BY_PROFILES
    def test_conservation(self, grid64, profile, sign):
        _, op0 = wick_square_datum(sample_field(grid64, profile))
        traj = evolve_hartree(op0, 0.25, 1e-3, sign)
        assert traj.relative_drift("trace") < 1e-12
        assert traj.relative_drift("l2_norm") < 1e-12
        assert traj.relative_drift("energy") < 1e-6

    @pytest.mark.parametrize("sign", [1, -1])
    def test_carried_root_is_the_square_root(self, grid64, sign):
        vt, op0 = wick_square_datum(sample_field(grid64, PROFILE))
        plain = evolve_hartree(op0, 0.5, DEFAULT_DT, sign, snapshot_stride=6)
        carried = evolve_hartree(op0, 0.5, DEFAULT_DT, sign, snapshot_stride=6, root=vt)
        assert carried.snapshot_times == plain.snapshot_times
        assert len(carried.root_snapshots) == len(carried.snapshots) == 10
        for op, bare, root in zip(carried.snapshots, plain.snapshots, carried.root_snapshots):
            assert np.array_equal(op.kernel, bare.kernel)
            hs = schatten_norm(op, 2)
            assert schatten_norm(root @ root - op, 2) <= 1e-10 * hs
            assert schatten_norm(root - operator_sqrt(op), 2) <= 1e-8

    def test_free_flow_transports_wigner(self, grid64):
        _, op0 = wick_square_datum(sample_field(grid64, PROFILE))
        traj = evolve_hartree(op0, 0.25, 0.0125, 0)
        w_final = wigner_transform(traj.final())
        w_expected = free_transport(wigner_transform(op0), 0.25)
        assert np.max(np.abs(w_final.values - w_expected.values)) < 1e-8
        exact = free_schroedinger(op0, 0.25)
        assert np.max(np.abs(exact.kernel - traj.final().kernel)) < 1e-10

    def test_fourier_diagonal_stationary(self, grid32):
        a = np.fft.fftfreq(32, d=1.0 / 32)
        xia = grid32.hbar * 2 * np.pi * a / grid32.L_x
        prof = np.exp(-(xia**2) / (2 * 0.35**2))
        K = np.fft.ifft(np.fft.fft(np.eye(32), axis=0) * prof[:, None], axis=0) / grid32.dx
        op = DensityOperator(grid32, K, hermitian=True)
        traj = evolve_hartree(op, 0.2, 0.01, +1)
        rel = np.max(np.abs(traj.final().kernel - op.kernel)) / np.max(np.abs(op.kernel))
        assert rel < 1e-9

    def test_predictor_density_matches_full_conjugation(self, grid64, rng):
        X = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        K = X + X.conj().T
        phase = _kinetic_phase(grid64, 0.013)
        full = fourier_multiplier(fourier_multiplier(K, phase, axis=0), phase.conj(), axis=1)
        expected = np.real(np.diag(full)) * grid64.h
        got = _free_step_density(K, grid64, phase, _diagonal_circulant(phase))
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_non_hermitian_rejected(self, grid32, rng):
        K = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        with pytest.raises(ConfigurationError):
            evolve_hartree(DensityOperator(grid32, K), 0.1, 0.01, +1)


class TestLinearHartree:
    def test_zero_field_reduces_to_free(self, grid64):
        f0 = sample_field(grid64, PROFILE)
        vt = wick_quantize(sqrt_field(f0))
        op0 = vt @ vt
        op0.hermitian = True
        steps = 20
        dt = 0.01
        z = np.zeros(64)
        fields = [FieldSnapshot(time=n * dt, V=z, E=z, rho=z) for n in range(steps + 1)]
        traj = evolve_linear_hartree(op0, fields, steps * dt, dt)
        free = evolve_hartree(op0, steps * dt, dt, 0)
        assert np.max(np.abs(traj.final().kernel - free.final().kernel)) < 1e-10

    def test_positivity_and_spectrum_preserved(self, grid64):
        f0 = sample_field(grid64, PROFILE)
        ftraj = evolve_vlasov(f0, 0.2, grid64.hbar / 10, +1)
        vt = wick_quantize(sqrt_field(f0))
        op0 = vt @ vt
        op0.hermitian = True
        op0.positive = True
        traj = evolve_linear_hartree(op0, ftraj.fields, 0.2, ftraj.dt)
        ev0 = np.sort(op0.eigenvalues())
        evT = np.sort(traj.final().eigenvalues())
        assert evT[0] >= -1e-10 * max(evT[-1], 1e-300)
        assert np.max(np.abs(evT - ev0)) < 1e-9 * max(abs(ev0[-1]), 1)

    def test_sqrt_commutes_with_flow(self, grid32):
        g = grid32
        f0 = sample_field(g, PROFILE)
        ftraj = evolve_vlasov(f0, 0.2, g.hbar / 10, +1)
        vt = wick_quantize(sqrt_field(f0))
        op0 = vt @ vt
        op0.hermitian = True
        op0.positive = True
        otraj = evolve_linear_hartree(op0, ftraj.fields, 0.2, ftraj.dt)
        route_a = operator_sqrt(otraj.final())
        route_b = evolve_linear_hartree(vt, ftraj.fields, 0.2, ftraj.dt).final()
        assert schatten_norm(route_a - route_b, 2) < 1e-8

    def test_gauge_invariance(self, grid32):
        # adding a constant to V changes no observable
        f0 = sample_field(grid32, PROFILE)
        ftraj = evolve_vlasov(f0, 0.1, 0.01, +1)
        vt = wick_quantize(sqrt_field(f0))
        op0 = vt @ vt
        op0.hermitian = True
        shifted = [FieldSnapshot(time=s.time, V=s.V + 7.3, E=s.E, rho=s.rho)
                   for s in ftraj.fields]
        t1 = evolve_linear_hartree(op0, ftraj.fields, 0.1, ftraj.dt)
        t2 = evolve_linear_hartree(op0, shifted, 0.1, ftraj.dt)
        w1 = wigner_transform(t1.final())
        w2 = wigner_transform(t2.final())
        assert np.max(np.abs(w1.values - w2.values)) < 1e-12

    def test_history_gap_rejected(self, grid32):
        f0 = sample_field(grid32, PROFILE)
        ftraj = evolve_vlasov(f0, 0.1, 0.01, +1)
        vt = wick_quantize(sqrt_field(f0))
        op0 = vt @ vt
        op0.hermitian = True
        with pytest.raises(ConfigurationError):
            evolve_linear_hartree(op0, ftraj.fields[:3], 0.1, 0.01)


class TestTemporalOrder:
    """Strang splitting is second order in dt for the interacting flows.

    With u_k the state at T after steps of dt / 2^k, the successive
    differences |u_0 - u_1| / |u_1 - u_2| tend to 4. (Measured both against
    u_2 instead, the ratio tends to (1 - 1/16) / (1/4 - 1/16) = 5.)
    """

    @staticmethod
    def _ratio(finals):
        return np.linalg.norm(finals[0] - finals[1]) / np.linalg.norm(finals[1] - finals[2])

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("profile", [PROFILE, TWO_STREAM], ids=["maxwellian", "two_stream"])
    def test_vlasov_dt_halving(self, grid64, sign, profile):
        f0 = sample_field(grid64, profile)
        finals = [evolve_vlasov(f0, 0.5, 0.05 / 2**k, sign).final().values for k in range(3)]
        assert 3.5 <= self._ratio(finals) <= 4.5

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("profile", [PROFILE, TWO_STREAM], ids=["maxwellian", "two_stream"])
    def test_hartree_dt_halving(self, grid64, sign, profile):
        _, op0 = wick_square_datum(sample_field(grid64, profile))
        finals = [evolve_hartree(op0, 0.5, 0.05 / 2**k, sign).final().kernel for k in range(3)]
        assert 3.5 <= self._ratio(finals) <= 4.5


@pytest.mark.parametrize("sign", [-1, 0, 1])
@pytest.mark.parametrize("profile", [PROFILE, TWO_STREAM], ids=["maxwellian", "two_stream"])
def test_default_step_headline_self_difference(sign, profile):
    """The headline error at the default step moves by at most 1e-5 relative
    at DEFAULT_DT / 2, off the benchmark datum too."""
    errs = [grid_member(dict(N=128, profile=profile, T=0.5, sign=sign, dt=dt,
                             probes=["convergence"]))["convergence"]["err_wigner"]
            for dt in (None, DEFAULT_DT / 2)]
    assert abs(errs[0] - errs[1]) <= 1e-5 * errs[1]
