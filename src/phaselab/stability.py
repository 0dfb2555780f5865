"""Twin-run stability experiments and the Powers-Stormer inequality check.

Each experiment evolves two nearby solutions, measures the square-root
distance, and checks it against the Gronwall envelope built from the
measured lambda budget. The effective constant is the largest implied rate
over the first half of the horizon, frozen before the later times test the
envelope (with the same factor-2 structural slack the regularity envelope
carries); symmetric twin data grow quadratically at first, so a single
first-interval rate would systematically undershoot.
"""

from __future__ import annotations

import numpy as np

from .budgets import (
    ENVELOPE_SLACK_FACTOR,
    classical_rate,
    cumulative_trapezoid,
    fit_c_star_window,
    quantum_rate,
    sqrt_field,
)
from .calculus import operator_sqrt, spatial_density
from .errors import ConfigurationError
from .grids import PhaseField
from .hartree import hartree_steps
from .norms import h_half_norm, lebesgue_norm, schatten_norm
from .operators import DensityOperator
from .reports import ProbeReport
from .sweeps import stream
from .trajectory import Trajectory, resolve_steps, series_stride
from .transforms import wigner_transform
from .vlasov import vlasov_steps

ENVELOPE_SLACK = 1e-9        # rounding allowance of the envelope checks


def _twin_report(probe: str, hbar: float, times, series: dict, C_inf: float,
                 l1_init, **details) -> ProbeReport:
    """The tail both twin experiments share: details, the identical-data
    branch, the fitted envelope and the L2-L1 corollary. ``series`` holds the
    snapshot series "left", "left_l2" and "lam", the Gronwall rate, whose
    running integral is Lambda. ``l1_init()`` gives the L1 distance of the
    initial data; it runs only when they differ."""
    times = np.asarray(times)
    left, left_l2, lam = (np.array(series[key]) for key in ("left", "left_l2", "lam"))
    Lambda = cumulative_trapezoid(lam, times)
    report = ProbeReport(probe=probe, hbar=[hbar])
    report.details.update({"times": times, "left": left, "lambda": lam,
                           "Lambda": Lambda, "C_inf": C_inf, **details})
    if left[0] <= 1e-12:
        report.lhs = [float(np.max(left))]
        report.budget = [1e-9]
        report.finalize_ratios()
        report.require("identical_data_stays_identical", float(np.max(left)), 1e-9)
        return report
    c_star = fit_c_star_window(times, left, Lambda)
    # the Gronwall right side left(0) exp(c* Lambda(t)), with the structural slack
    env = ENVELOPE_SLACK_FACTOR * (left[0] * np.exp(c_star * Lambda))
    report.details["c_star"] = c_star
    report.details["envelope"] = env
    report.require("left_under_envelope", float(np.max(left / env)), 1.0 + ENVELOPE_SLACK)
    corollary_env = 2.0 * np.sqrt(C_inf) * np.sqrt(l1_init()) * np.exp(c_star * Lambda)
    report.require("l2_l1_corollary", float(np.max(left_l2 / corollary_env)),
                   1.0 + ENVELOPE_SLACK)
    report.details["left_l2"] = left_l2
    report.details["corollary_envelope"] = corollary_env
    report.lhs = [float(np.max(left / env))]
    report.budget = [1.0]
    report.finalize_ratios()
    return report


def classical_stability_experiment(f1_0: PhaseField, f2_0: PhaseField, T: float,
                                   dt: float, sign: int = 1) -> ProbeReport:
    """Twin Vlasov runs: ||sqrt(f1) - sqrt(f2)||_L2 under its Gronwall envelope.

    Also checks the corollary ||f1 - f2||_L2 <= 2 C_inf^(1/2)
    ||f1^init - f2^init||_L1^(1/2) e^Lambda with the same fitted constant.
    The two flows step in lockstep through sweeps.stream.
    """
    if np.min(f1_0.values) < -1e-12 or np.min(f2_0.values) < -1e-12:
        raise ConfigurationError("twin experiment needs nonnegative initial data")
    C_inf = max(lebesgue_norm(f1_0, np.inf), lebesgue_norm(f2_0, np.inf))
    stride = series_stride(resolve_steps(T, dt)[0])

    def measure(s) -> dict:
        (f1, _), (f2, fld2) = s.states["first"], s.states["second"]
        return {"left": lebesgue_norm(sqrt_field(f1) - sqrt_field(f2), 2),
                "left_l2": lebesgue_norm(f1 - f2, 2),
                "lam": classical_rate(f2, float(np.max(np.abs(fld2.rho))), C_inf)}
    _, times, series = stream({"first": vlasov_steps(f1_0, T, dt, sign, Trajectory(), stride),
                               "second": vlasov_steps(f2_0, T, dt, sign, Trajectory(), stride)},
                              {"classical_stability": measure})
    return _twin_report("classical_stability", f1_0.grid.hbar, times, series["classical_stability"],
                        C_inf, lambda: lebesgue_norm(f1_0 - f2_0, 1))


def quantum_stability_experiment(op1_0: DensityOperator, op2_0: DensityOperator,
                                 T: float, dt: float, sign: int = 1) -> ProbeReport:
    """Twin Hartree runs: ||sqrt(op1) - sqrt(op2)||_L2 under the quantum envelope,
    plus the L2-L1 corollary via Powers-Stormer. The two flows step in
    lockstep through sweeps.stream."""
    for op in (op1_0, op2_0):
        if not op.check_positive(1e-8):
            raise ConfigurationError("twin experiment needs positive initial operators")
    C_inf = max(schatten_norm(op1_0, np.inf), schatten_norm(op2_0, np.inf))
    # each flow carries the square root of its datum, taken once at t = 0
    root2 = operator_sqrt(op2_0)
    stride = series_stride(resolve_steps(T, dt)[0])

    def measure(s) -> dict:
        (op1, v1), (op2, v2) = s.states["first"], s.states["second"]
        return {"left": schatten_norm(v1 - v2, 2), "left_l2": schatten_norm(op1 - op2, 2),
                "lam": quantum_rate(v2, float(np.max(np.abs(spatial_density(op2)))), C_inf)[0]}
    _, times, series = stream(
        {"first": hartree_steps(op1_0, T, dt, sign, Trajectory(), stride,
                                root=operator_sqrt(op1_0)),
         "second": hartree_steps(op2_0, T, dt, sign, Trajectory(), stride, root=root2)},
        {"quantum_stability": measure})
    # comparison entry: H^(1/2) norm of the Wigner transform of the initial root v2(0)
    return _twin_report("quantum_stability", op1_0.grid.hbar, times, series["quantum_stability"],
                        C_inf, lambda: schatten_norm(op1_0 - op2_0, 1),
                        h_half_comparison=[h_half_norm(wigner_transform(root2))])


def powers_stormer_check(grid, rng: np.random.Generator, pairs: int = 100) -> float:
    """Max of ||sqrt(A) - sqrt(B)||_L2^2 / ||A - B||_L1 over random positive pairs
    A = X X*, with X band-limited to the modes |a| <= N / 3.

    The Powers-Stormer inequality bounds the ratio by 1.
    """
    from .spectral import band_limited_field

    N = grid.N
    worst = 0.0
    for _ in range(pairs):
        X = band_limited_field(N, rng, max_mode=N // 3, real=False)
        Y = band_limited_field(N, rng, max_mode=N // 3, real=False)
        A = DensityOperator(grid, X @ X.conj().T * grid.dx, hermitian=True)
        B = DensityOperator(grid, Y @ Y.conj().T * grid.dx, hermitian=True)
        num = schatten_norm(operator_sqrt(A) - operator_sqrt(B), 2) ** 2
        den = schatten_norm(A - B, 1)
        if den > 0:
            worst = max(worst, num / den)
    return worst
