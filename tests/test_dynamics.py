from dataclasses import replace

import numpy as np
import pytest

from oracles import free_schroedinger, free_transport
from phaselab import (
    ConfigurationError,
    PhaseField,
    SupportEscapeError,
    make_grid,
    sample_field,
    wigner_transform,
)
from phaselab.budgets import sqrt_field
from phaselab.calculus import operator_sqrt, spatial_density
from phaselab.coherent import wick_quantize, wick_square_datum
from phaselab.hartree import evolve_hartree, evolve_linear_hartree, hartree_steps
from phaselab.norms import schatten_norm
from phaselab.operators import DensityOperator
from phaselab.poisson import solve_poisson
from phaselab.spectral import modes, shift
from phaselab.sweeps import grid_member
from phaselab.trajectory import DEFAULT_DT, FieldSnapshot, Trajectory
from phaselab.vlasov import BOUNDARY_TOL, _boundary_fraction, evolve_vlasov, vlasov_steps

PROFILE = {"name": "maxwellian", "perturbation": 0.1, "sigma_xi": 0.42}
TWO_STREAM = {"name": "two_stream", "perturbation": 0.05, "sigma_xi": 0.3}
GAUSSIAN = {"name": "gaussian"}
# the step of the stride and snapshot tests: 50 steps to T = 0.5, 10 to 0.1
STEP = 0.01
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
        grid = make_grid(32, 2 * np.pi, 2 * np.pi)
        X, XI = grid.meshgrid()
        # broad momentum support that already reaches the boundary columns:
        # the guard runs at every step time, so it trips before the first step
        vals = np.exp(-((X - np.pi) ** 2)) * np.exp(-(XI**2) / (0.9 * grid.L_xi / 2) ** 2)
        f0 = PhaseField(grid, vals)
        with pytest.raises(SupportEscapeError, match="at t=0$"):
            evolve_vlasov(f0, 1.0, 0.05, +1)

    def test_boundary_fraction_logged(self, grid64):
        # the guard's value at every step time, aligned with the times
        traj = evolve_vlasov(sample_field(grid64, PROFILE), 0.1, 0.01, +1)
        logged = traj.logs["boundary_fraction"]
        assert len(logged) == len(traj.times)
        assert 0.0 <= max(logged) <= BOUNDARY_TOL
        assert logged[-1] == _boundary_fraction(traj.final().values, grid64.cell)

    def test_field_history_recorded(self, grid64):
        f0 = sample_field(grid64, PROFILE)
        traj = evolve_vlasov(f0, 0.1, 0.01, +1)
        assert len(traj.fields) == len(traj.times)
        assert isinstance(traj.fields[0], FieldSnapshot)
        np.testing.assert_allclose(traj.fields[0].rho,
                                   f0.values.sum(axis=1) * grid64.dxi)

    def test_one_poisson_solve_per_step_time(self, grid64, count_ffts):
        # three real N x N shifts per step, and one Poisson solve (three 1-d
        # transforms of the density) per step time, whose field is the one
        # recorded: the Poisson field of the snapshot's own density
        f0 = sample_field(grid64, PROFILE)
        calls = count_ffts()
        traj = Trajectory()
        states = list(vlasov_steps(f0, 0.5, STEP, +1, traj, snapshot_stride=6))
        steps = len(traj.times) - 1
        assert sum(len(shape) == 1 for shape in calls) == 3 * len(traj.times)
        assert sum(len(shape) == 2 for shape in calls) == 6 * steps
        assert len(states) == 10
        for t, f, fld in states:
            assert fld.time == t
            expected = solve_poisson(grid64, f.values.sum(axis=1) * grid64.dxi, +1).V
            assert np.max(np.abs(fld.V - expected)) <= 1e-12 * np.max(np.abs(expected))


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
        plain = evolve_hartree(op0, 0.5, STEP, sign, snapshot_stride=6)
        carried = evolve_hartree(op0, 0.5, STEP, sign, snapshot_stride=6, root=vt)
        assert carried.snapshot_times == plain.snapshot_times
        assert len(carried.root_snapshots) == len(carried.snapshots) == 10
        for op, bare, root in zip(carried.snapshots, plain.snapshots, carried.root_snapshots):
            hs = schatten_norm(op, 2)
            # the packed kernel changes the op kernel only at rounding level
            assert schatten_norm(op - bare, 2) <= 1e-13 * hs
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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_time_reversal(self, grid64, sign):
        # the step kicks with the field at both of its ends, so evolving the
        # conjugate kernels back over [0, T] undoes the flow to rounding
        vt, op0 = wick_square_datum(sample_field(grid64, PROFILE))
        fwd = evolve_hartree(op0, 0.5, DEFAULT_DT, sign, root=vt)

        def conj(op):
            return DensityOperator(grid64, op.kernel.conj(), hermitian=True)

        back = evolve_hartree(conj(fwd.final()), 0.5, DEFAULT_DT, sign,
                              root=conj(fwd.root_snapshots[-1]))
        for got, start in ((back.final(), op0), (back.root_snapshots[-1], vt)):
            assert schatten_norm(conj(got) - start, 2) <= 1e-12 * schatten_norm(start, 2)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_fields_are_self_consistent(self, grid64, sign):
        # the recorded field at every snapshot is the Poisson field of the
        # snapshot's own density
        _, op0 = wick_square_datum(sample_field(grid64, PROFILE))
        traj = Trajectory()
        for t, op, _ in hartree_steps(op0, 0.5, DEFAULT_DT, sign, traj, snapshot_stride=6):
            # at a yield, the flow's last recorded field is the snapshot's
            fld = traj.fields[-1]
            assert fld.time == t
            expected = solve_poisson(grid64, spatial_density(op).real, sign).V
            assert np.max(np.abs(fld.V - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert len(traj.fields) == len(traj.times)

    def test_non_hermitian_rejected(self, grid32, rng):
        K = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        with pytest.raises(ConfigurationError):
            evolve_hartree(DensityOperator(grid32, K), 0.1, 0.01, +1)


class TestPackedRoot:
    """Both Hartree flows carry the root as the anti-Hermitian part over i of
    one packed kernel M = op + i root."""

    FLOWS = pytest.mark.parametrize("linear", [False, True], ids=["hartree", "linear"])

    @staticmethod
    def _flow(grid, linear):
        """(vt, op0, evolve), where evolve(**kwargs) runs the nonlinear Hartree
        flow of op0 to T = 0.1, or the linear one in the Vlasov field history."""
        vt, op0 = wick_square_datum(sample_field(grid, PROFILE))
        if not linear:
            return vt, op0, lambda **kw: evolve_hartree(op0, 0.1, STEP, 1, **kw)
        fields = evolve_vlasov(sample_field(grid, PROFILE), 0.1, STEP, 1).fields
        return vt, op0, lambda **kw: evolve_linear_hartree(op0, fields, 0.1, STEP, **kw)

    @FLOWS
    def test_root_costs_no_fft_pass(self, grid64, count_ffts, linear):
        # four N x N passes per step, all in the kinetic conjugation; the
        # nonlinear flow solves Poisson once per step time, three 1-d
        # transforms of the density each
        vt, _, evolve = self._flow(grid64, linear)
        calls = count_ffts()
        traj = evolve(snapshot_stride=3, root=vt)
        assert sum(len(shape) == 2 for shape in calls) == 4 * (len(traj.times) - 1)
        solves = 0 if linear else len(traj.times)
        assert sum(len(shape) == 1 for shape in calls) == 3 * solves

    @FLOWS
    def test_snapshots_are_the_exact_split(self, grid64, linear):
        vt, op0, evolve = self._flow(grid64, linear)
        traj = evolve(snapshot_stride=3, root=vt)
        assert traj.snapshots[0] is op0 and traj.root_snapshots[0] is vt
        assert len(traj.snapshots) == len(traj.root_snapshots) == 5
        for op, root in zip(traj.snapshots[1:], traj.root_snapshots[1:]):
            assert np.array_equal(op.kernel, op.kernel.conj().T)
            assert np.array_equal(root.kernel, root.kernel.conj().T)

    @FLOWS
    def test_logs_read_op(self, grid64, linear):
        # the logs of the packed kernel are those of op, not of M or the root
        vt, _, evolve = self._flow(grid64, linear)
        carried = evolve(log_spectrum=True, root=vt)
        plain = evolve(log_spectrum=True)
        assert np.max(np.abs(np.subtract(carried.logs["min_eigenvalue"],
                                         plain.logs["min_eigenvalue"]))) <= 1e-12
        for name in ("trace", "l2_norm", "energy"):
            np.testing.assert_allclose(carried.logs[name], plain.logs[name], rtol=1e-12)
        final = carried.final()
        assert carried.logs["trace"][-1] == pytest.approx(final.trace().real, rel=1e-12)
        assert carried.logs["l2_norm"][-1] == pytest.approx(schatten_norm(final, 2), rel=1e-12)


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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_carried_root_matches_a_separate_flow(self, grid64, sign):
        # the carried root takes the same step unitaries as the op0 kernel,
        # so it is the linear flow of vt on its own, up to rounding
        vt, op0 = wick_square_datum(sample_field(grid64, PROFILE))
        ftraj = evolve_vlasov(sample_field(grid64, PROFILE), 0.5, STEP, sign)
        plain = evolve_linear_hartree(op0, ftraj.fields, 0.5, STEP, snapshot_stride=6)
        carried = evolve_linear_hartree(op0, ftraj.fields, 0.5, STEP,
                                        snapshot_stride=6, root=vt)
        alone = evolve_linear_hartree(vt, ftraj.fields, 0.5, STEP, snapshot_stride=6)
        assert carried.snapshot_times == plain.snapshot_times == alone.snapshot_times
        assert len(carried.root_snapshots) == len(carried.snapshots) == 10
        assert not plain.root_snapshots
        for op, bare, root, ref in zip(carried.snapshots, plain.snapshots,
                                       carried.root_snapshots, alone.snapshots):
            assert schatten_norm(op - bare, 2) <= 1e-13 * schatten_norm(bare, 2)
            assert schatten_norm(root - ref, 2) <= 1e-13 * schatten_norm(ref, 2)

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
        # a short history, and one with a wrong time at a middle step: each
        # entry is checked as the flow reads it
        mid = len(ftraj.fields) // 2
        shifted = list(ftraj.fields)
        shifted[mid] = replace(shifted[mid], time=shifted[mid].time + 0.005)
        for history in (ftraj.fields[:3], shifted):
            with pytest.raises(ConfigurationError, match=r"no entry for step [35]"):
                evolve_linear_hartree(op0, history, 0.1, 0.01)


def _prepared_datum():
    """The grid N = 128 and the Wick-square operator op0 of the default datum."""
    grid = make_grid(128, 2 * np.pi, 2 * np.pi)
    return grid, wick_square_datum(sample_field(grid, PROFILE))[1]


def _prepared_error(grid, op0, dt):
    """The well-prepared error ||W[op(T)] - f(T)||_L2 at T = 0.5, sign +1. The
    Vlasov flow starts from Re W[op0], so the initial distance is zero and
    only the dynamics contribute."""
    wT = wigner_transform(evolve_hartree(op0, 0.5, dt, +1).final()).values
    fT = evolve_vlasov(wigner_transform(op0), 0.5, dt, +1).final().values
    return np.sqrt(np.sum((wT - fT) ** 2) * grid.cell)


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

    def test_one_splitting_in_the_limit(self):
        # the Hartree scheme's semiclassical limit is the Vlasov scheme, so
        # the prepared error holds no O(dt^2) splitting mismatch
        grid, op0 = _prepared_datum()
        errs = [_prepared_error(grid, op0, dt) for dt in (0.01, 0.005)]
        assert abs(errs[0] / errs[1] - 1) <= 1e-3

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("profile", [PROFILE, TWO_STREAM], ids=["maxwellian", "two_stream"])
    def test_linear_hartree_dt_halving(self, grid64, sign, profile):
        # the frozen field is the Vlasov history at the same dt
        f0 = sample_field(grid64, profile)
        _, op0 = wick_square_datum(f0)
        finals = []
        for k in range(3):
            dt = 0.05 / 2**k
            fields = evolve_vlasov(f0, 0.5, dt, sign).fields
            finals.append(evolve_linear_hartree(op0, fields, 0.5, dt).final().kernel)
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


def test_default_step_resolves_prepared_error():
    """The dynamics-only error moves by at most 1e-3 relative at DEFAULT_DT / 2.
    The headline cannot show this: its initial gap is 99.9 % of it."""
    grid, op0 = _prepared_datum()
    coarse, fine = (_prepared_error(grid, op0, dt) for dt in (DEFAULT_DT, DEFAULT_DT / 2))
    assert abs(coarse - fine) <= 1e-3 * fine


def test_prepared_error_gate_trips_at_twice_the_default_step():
    """At 2 DEFAULT_DT the dynamics-only error moves by more than the 1e-3 of
    the gate above, which therefore can fail, and the default step is within a
    factor 2 of the largest step it admits."""
    grid, op0 = _prepared_datum()
    coarse, fine = (_prepared_error(grid, op0, dt) for dt in (2 * DEFAULT_DT, DEFAULT_DT))
    assert abs(coarse - fine) > 1e-3 * fine


@pytest.mark.parametrize("stride", [6, None])
def test_steppers_share_snapshot_times(grid32, stride):
    """Vlasov, Hartree and linear Hartree store their states at the same times:
    the initial and final states, and every stride-th step."""
    f0 = sample_field(grid32, PROFILE)
    _, op0 = wick_square_datum(f0)
    ftraj = evolve_vlasov(f0, 0.5, STEP, +1, snapshot_stride=stride)
    htraj = evolve_hartree(op0, 0.5, STEP, +1, snapshot_stride=stride)
    ltraj = evolve_linear_hartree(op0, ftraj.fields, 0.5, STEP, snapshot_stride=stride)
    steps = [0, 6, 12, 18, 24, 30, 36, 42, 48, 50] if stride else [0, 50]
    assert ftraj.snapshot_times == [n * STEP for n in steps]
    assert htraj.snapshot_times == ftraj.snapshot_times
    assert ltraj.snapshot_times == ftraj.snapshot_times
