import numpy as np
import pytest

from phaselab import PhaseField, make_grid, sample_field
from phaselab.budgets import (
    SQRT_WRAP_TOL,
    classical_lambda,
    quantum_lambda,
    rho_sup_series,
    sqrt_field,
)
from phaselab.calculus import quantum_gradient_xi
from phaselab.coherent import wick_quantize
from phaselab.norms import lebesgue_norm, weighted_schatten_norms
from phaselab.operators import DensityOperator
from phaselab.reports import ProbeReport, fit_loglog
from phaselab.spectral import shift
from phaselab.stability import (
    classical_stability_experiment,
    quantum_stability_experiment,
)
from phaselab.vlasov import evolve_vlasov

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
        rep.require("ok", True, 1.0, 1.0)
        data = rep.to_dict()
        assert data["probe"] == "demo"
        assert data["ratio"] == [0.5, 0.5]
        assert rep.to_json().startswith("{")
        rows = rep.csv_rows()
        assert rows[0]["pass"] is True


class TestClassicalBudget:
    def test_stationary_lambda_constant(self, grid64):
        f0 = sample_field(grid64, {"name": "maxwellian", "perturbation": 0.0,
                                   "sigma_xi": 0.35})
        traj = evolve_vlasov(f0, 0.2, 0.02, +1, snapshot_stride=2)
        budget = classical_lambda(traj, C_inf=lebesgue_norm(f0, np.inf))
        assert np.max(np.abs(budget.lam - budget.lam[0])) < 1e-8 * budget.lam[0]
        Lam = budget.Lambda()
        assert np.all(np.diff(Lam) >= 0)

    def test_lambda_zero_initial_matches_quadrature_oracle(self, grid64):
        # independent dense-quadrature evaluation of lambda(0)
        f0 = sample_field(grid64, PROFILE)
        traj = evolve_vlasov(f0, 0.02, 0.01, +1, snapshot_stride=1)
        C_inf = lebesgue_norm(f0, np.inf)
        budget = classical_lambda(traj, C_inf)

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
        assert budget.lam[0] == pytest.approx(expected, rel=1e-8)

    def test_vacuum_regions_finite(self, grid64):
        # hard-zero region enters the rearrangement only; lambda stays finite
        X, XI = grid64.meshgrid()
        vals = np.where(np.abs(XI) < 0.8, np.cos(X) ** 2 + 0.2, 0.0) * np.exp(-(XI**2))
        f0 = PhaseField(grid64, vals)
        traj = evolve_vlasov(f0, 0.0, 0.01, +1, snapshot_stride=1)
        budget = classical_lambda(traj, C_inf=lebesgue_norm(f0, np.inf))
        assert np.all(np.isfinite(budget.lam))


class TestQuantumBudget:
    def test_zero_operator_gives_zero(self, grid32):
        z = DensityOperator(grid32, np.zeros((32, 32)), hermitian=True)
        budget = quantum_lambda([z], [0.0], [1.0], C_inf=1.0)
        assert budget.lam[0] == 0.0

    def test_reports_n1_comparison(self, grid32):
        f0 = sample_field(grid32, PROFILE)
        vt = wick_quantize(sqrt_field(f0))
        budget = quantum_lambda([vt], [0.0], [1.0], C_inf=1.0, n=3)
        weighted_n1 = max(weighted_schatten_norms(quantum_gradient_xi(vt, SQRT_WRAP_TOL),
                                                  (2.5, 3.5), 1))
        assert budget.extras["weighted_n"][0] >= weighted_n1 > 0


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

    def test_translated_quantum_under_envelope(self):
        grid = make_grid(1, 48, 2 * np.pi, 2 * np.pi)
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

    def test_rho_sup_series_operator_trajectory(self, grid32):
        from phaselab.hartree import evolve_hartree

        f0 = sample_field(grid32, PROFILE)
        vt = wick_quantize(sqrt_field(f0))
        op = vt @ vt
        op.hermitian = True
        traj = evolve_hartree(op, 0.05, 0.01, +1, snapshot_stride=1)
        sups = rho_sup_series(traj)
        assert len(sups) == len(traj.snapshot_times)
        assert all(s > 0 for s in sups)
