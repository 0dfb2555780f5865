import math

import numpy as np
import pytest

from phaselab import PhaseField, make_grid, sample_field
from phaselab.budgets import (
    SQRT_WRAP_TOL,
    classical_rate,
    cumulative_trapezoid,
    quantum_rate,
    sqrt_field,
)
from phaselab.calculus import quantum_gradient_xi
from phaselab.coherent import wick_quantize, wick_square_datum
from phaselab.errors import ConfigurationError
from phaselab.norms import lebesgue_norm, weighted_schatten_norms
from phaselab.operators import DensityOperator
from phaselab.reports import ProbeReport, fit_loglog
from phaselab.spectral import shift
from phaselab.stability import (
    classical_stability_experiment,
    quantum_stability_experiment,
)
from phaselab.trajectory import Trajectory
from phaselab.vlasov import vlasov_steps

PROFILE = {"name": "maxwellian", "perturbation": 0.1, "sigma_xi": 0.42}


class TestReports:
    def test_fit_loglog_recovers_power(self):
        x = np.array([0.1, 0.05, 0.025, 0.0125])
        y = 3.0 * x**1.7
        slope, stderr = fit_loglog(x, y)
        assert slope == pytest.approx(1.7, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)

    def test_fit_needs_four_points(self):
        with pytest.raises(Exception):
            fit_loglog([1, 2, 3], [1, 2, 3])

    def test_report_roundtrip(self):
        rep = ProbeReport(probe="demo", hbar=[0.1, 0.05], lhs=[1.0, 0.5],
                          budget=[2.0, 1.0])
        rep.finalize_ratios()
        rep.require("ok", 1.0, 1.0)
        data = rep.to_dict()
        assert data["probe"] == "demo"
        assert data["ratio"] == [0.5, 0.5]
        assert rep.to_json().startswith("{")
        rows = rep.csv_rows()
        assert rows[0]["pass"] is True

    @staticmethod
    def _verdict(observed, bound):
        rep = ProbeReport(probe="demo")
        rep.require("check", observed, bound)
        assert rep.tolerance["check"] == {"bound": bound, "observed": observed,
                                          "ok": rep.passed}
        return rep.passed

    def test_require_number_is_an_upper_bound(self):
        assert self._verdict(1.0, 1.0)
        assert self._verdict(0.5, 1.0)
        assert not self._verdict(1.0 + 1e-12, 1.0)
        assert not self._verdict(math.nan, 1.0)

    def test_require_band_is_closed(self):
        band = [0.85, 1.15]
        assert self._verdict(0.85, band)
        assert self._verdict(1.15, band)
        assert self._verdict(1.0, band)
        assert not self._verdict(0.849, band)
        assert not self._verdict(1.151, band)
        assert not self._verdict(math.nan, band)

    def test_require_true_needs_the_flag(self):
        assert self._verdict(True, True)
        assert not self._verdict(False, True)

    def test_ratio_slack_is_the_recorded_bound(self):
        from phaselab.sweeps import weight_remainder_report

        ratio = 1.0 + 5e-7
        members = [{"N": N, "hbar": 6.4 / N, "lhs1": ratio * 2.0, "budget1": 2.0,
                    "lhs2": 0.5, "budget2": 1.0, "gc_lhs": 0.1, "gc_budget": 1.0}
                   for N in (64, 96, 128, 192)]
        report = weight_remainder_report(members)
        assert report.passed
        check = report.tolerance["first_order_ratio"]
        assert check["observed"] == pytest.approx(ratio, rel=1e-12)
        assert check["observed"] <= check["bound"]


def _classical_rates(f0, T, dt, stride):
    """classical_rate at each snapshot of the Vlasov flow of f0: (times, rates)."""
    C_inf = lebesgue_norm(f0, np.inf)
    states = list(vlasov_steps(f0, T, dt, +1, Trajectory(), snapshot_stride=stride))
    rates = [classical_rate(f, float(np.max(np.abs(fld.rho))), C_inf) for _, f, fld in states]
    return np.array([t for t, _, _ in states]), np.array(rates)


class TestClassicalBudget:
    def test_stationary_lambda_constant(self, grid64):
        f0 = sample_field(grid64, {"name": "maxwellian", "perturbation": 0.0,
                                   "sigma_xi": 0.35})
        times, lam = _classical_rates(f0, 0.2, 0.02, 2)
        assert len(lam) == 6
        assert np.max(np.abs(lam - lam[0])) < 1e-8 * lam[0]
        assert np.all(np.diff(cumulative_trapezoid(lam, times)) >= 0)

    def test_lambda_zero_initial_matches_quadrature_oracle(self, grid64):
        # independent dense-quadrature evaluation of lambda(0)
        f0 = sample_field(grid64, PROFILE)
        C_inf = lebesgue_norm(f0, np.inf)
        _, lam = _classical_rates(f0, 0.02, 0.01, 1)

        g = grid64
        v2 = np.sqrt(np.clip(f0.values, 0, None))
        spec = np.fft.fft(v2, axis=1)
        mult = 2j * np.pi * np.fft.fftfreq(g.N, d=1.0 / g.N) / g.L_xi
        mult[g.N // 2] = 0.0
        grad = np.fft.ifft(spec * mult[None, :], axis=1).real
        inner_l2 = np.sqrt(np.sum(grad**2, axis=1) * g.dxi)
        m32 = (np.sum(inner_l2**3) * g.dx) ** (1 / 3)
        rho = f0.values.sum(axis=1) * g.dxi
        w = np.sum(np.abs(grad), axis=1) * g.dxi
        vstar = np.sort(w)[::-1]
        s = (np.arange(g.N) + 1.0) * g.dx
        t_mid = s - g.dx / 2
        l31 = np.sum((t_mid ** (1 / 3) * vstar) * (g.dx / t_mid))
        expected = np.sqrt(rho.max()) * m32 + np.sqrt(C_inf) * l31
        assert lam[0] == pytest.approx(expected, rel=1e-8)

    def test_vacuum_regions_finite(self, grid64):
        # hard-zero region enters the rearrangement only; lambda stays finite
        X, XI = grid64.meshgrid()
        vals = np.where(np.abs(XI) < 0.8, np.cos(X) ** 2 + 0.2, 0.0) * np.exp(-(XI**2))
        f0 = PhaseField(grid64, vals)
        _, lam = _classical_rates(f0, 0.0, 0.01, 1)
        assert np.all(np.isfinite(lam))


class TestQuantumBudget:
    def test_zero_operator_gives_zero(self, grid32):
        z = DensityOperator(grid32, np.zeros((32, 32)), hermitian=True)
        assert quantum_rate(z, 1.0, C_inf=1.0)[0] == 0.0

    def test_reports_n1_comparison(self, grid32):
        f0 = sample_field(grid32, PROFILE)
        vt = wick_quantize(sqrt_field(f0))
        _, _, weighted_n = quantum_rate(vt, 1.0, C_inf=1.0)
        weighted_n1 = max(weighted_schatten_norms(quantum_gradient_xi(vt, SQRT_WRAP_TOL),
                                                  (2.5, 3.5), 1))
        assert weighted_n >= weighted_n1 > 0


class TestStability:
    def test_identical_classical(self, grid64):
        f0 = sample_field(grid64, PROFILE)
        rep = classical_stability_experiment(f0, f0, T=0.1, dt=2e-3, sign=1)
        assert rep.passed
        assert rep.tolerance["identical_data_stays_identical"]["observed"] < 1e-9

    def test_translated_classical_under_envelope(self, grid64):
        f1 = sample_field(grid64, PROFILE)
        f2 = f1.copy_with(shift(f1.values, grid64.L_x, 3 * grid64.dx, axis=0))
        rep = classical_stability_experiment(f1, f2, T=0.4, dt=2e-3, sign=1)
        assert rep.passed
        left = rep.details["left"]
        assert left[0] == pytest.approx(
            lebesgue_norm(sqrt_field(f1) - sqrt_field(f2), 2), rel=1e-12)

    def test_interaction_off_isometry(self, grid64):
        f1 = sample_field(grid64, PROFILE)
        f2 = f1.copy_with(shift(f1.values, grid64.L_x, 3 * grid64.dx, axis=0))
        rep = classical_stability_experiment(f1, f2, T=0.3, dt=2e-3, sign=0)
        left = rep.details["left"]
        assert np.max(np.abs(left - left[0])) < 1e-9

    def test_identical_quantum(self, grid32):
        f0 = sample_field(grid32, PROFILE)
        vt = wick_quantize(sqrt_field(f0))
        op = vt @ vt
        op.hermitian = True
        op.positive = True
        rep = quantum_stability_experiment(op, op, T=0.1, dt=grid32.hbar / 10, sign=1)
        assert rep.passed

    def test_quantum_twin_rejects_a_non_positive_datum(self, grid32):
        # positivity is checked where the roots are taken, not read from a flag
        _, op = wick_square_datum(sample_field(grid32, PROFILE))
        with pytest.raises(ConfigurationError, match="positive initial operators"):
            quantum_stability_experiment(op, op * -1.0, T=0.1, dt=grid32.hbar / 10, sign=1)

    def test_twin_quantum_roots_ride_the_flows(self, grid32, monkeypatch):
        """One eigh per twin at t = 0; the flows carry the square roots."""
        f0 = sample_field(grid32, PROFILE)
        vt, op = wick_square_datum(f0)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        rep = quantum_stability_experiment(op, op, T=0.2, dt=grid32.hbar / 10, sign=1)
        assert len(calls) == 2
        assert len(rep.details["times"]) > 2

    def test_translated_quantum_under_envelope(self):
        grid = make_grid(48, 2 * np.pi, 2 * np.pi)
        f1 = sample_field(grid, PROFILE)
        f2 = f1.copy_with(shift(f1.values, grid.L_x, 3 * grid.dx, axis=0))
        ops = []
        for f in (f1, f2):
            vt = wick_quantize(sqrt_field(f))
            op = vt @ vt
            op.hermitian = True
            op.positive = True
            ops.append(op)
        rep = quantum_stability_experiment(ops[0], ops[1], T=0.4,
                                           dt=grid.hbar / 10, sign=1)
        assert rep.passed
        assert rep.tolerance["l2_l1_corollary"]["ok"]


def test_twin_experiments_equal_the_stored_computation(grid32):
    # the lockstep twins read the same bits as both flows stored at the
    # series stride, each rate taken per stored snapshot with the second
    # flow's recorded field at that time
    from phaselab.calculus import operator_sqrt
    from phaselab.hartree import evolve_hartree
    from phaselab.norms import schatten_norm
    from phaselab.trajectory import series_stride
    from phaselab.vlasov import evolve_vlasov

    T, dt = 0.2, 0.01
    stride = series_stride(round(T / dt))
    f1 = sample_field(grid32, PROFILE)
    f2 = f1.copy_with(shift(f1.values, grid32.L_x, 3 * grid32.dx, axis=0))
    (_, op1), (_, op2) = wick_square_datum(f1), wick_square_datum(f2)

    def rho_sup(traj, t):
        return float(np.max(np.abs(next(s.rho for s in traj.fields if s.time == t))))

    tr1, tr2 = (evolve_vlasov(f, T, dt, 1, snapshot_stride=stride)
                for f in (f1, f2))
    C_inf = max(lebesgue_norm(f1, np.inf), lebesgue_norm(f2, np.inf))
    classical = {
        "left": [lebesgue_norm(sqrt_field(a) - sqrt_field(b), 2)
                 for a, b in zip(tr1.snapshots, tr2.snapshots)],
        "left_l2": [lebesgue_norm(a - b, 2) for a, b in zip(tr1.snapshots, tr2.snapshots)],
        "lambda": [classical_rate(f, rho_sup(tr2, t), C_inf)
                   for t, f in zip(tr2.snapshot_times, tr2.snapshots)],
    }
    qr1, qr2 = (evolve_hartree(op, T, dt, 1, snapshot_stride=stride,
                               root=operator_sqrt(op)) for op in (op1, op2))
    C_inf = max(schatten_norm(op1, np.inf), schatten_norm(op2, np.inf))
    quantum = {
        "left": [schatten_norm(a - b, 2) for a, b in zip(qr1.root_snapshots, qr2.root_snapshots)],
        "left_l2": [schatten_norm(a - b, 2) for a, b in zip(qr1.snapshots, qr2.snapshots)],
        "lambda": [quantum_rate(v, rho_sup(qr2, t), C_inf)[0]
                   for t, v in zip(qr2.snapshot_times, qr2.root_snapshots)],
    }
    for rep, stored in ((classical_stability_experiment(f1, f2, T, dt, 1), classical),
                        (quantum_stability_experiment(op1, op2, T, dt, 1), quantum)):
        assert len(rep.details["times"]) == 11   # every second of 20 steps
        for key, want in stored.items():
            assert np.array_equal(rep.details[key], np.array(want)), (rep.probe, key)
