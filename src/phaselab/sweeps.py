"""Hbar-sweep experiments: the headline semiclassical convergence rate, the
positivity-defect and diagonal-drift budgets, square-root comparison,
regularity tracking, the single-inequality probes, and sweep aggregation
into probe reports.

Every probe is a pair in PROBE_TABLE: a metric of one grid's bundle, and the
reports built from the metrics over N. A sweep is one member pass over the
grid ladder: each member is a pure function of (N, settings) that builds one
DynamicsBundle and reads from it the metric of every requested probe. The
bundle builds its data on first use, so each grid computes every datum, flow
and shared per-snapshot quantity at most once, and only when a requested
probe reads it. Results come back in increasing N, that is in decreasing
hbar, so reports are deterministic for a fixed configuration.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import cached_property

import numpy as np

from .budgets import (
    SQRT_WRAP_TOL,
    cumulative_trapezoid,
    fit_c_star,
    quantum_lambda,
    rho_sup_series,
    sqrt_field,
)
from .calculus import operator_sqrt, spatial_density
from .coherent import husimi_convolve, wick_quantize, wick_square_datum
from .errors import ConfigurationError
from .grids import PhaseField, make_grid, sample_field
from .hartree import evolve_hartree, evolve_linear_hartree
from .norms import (
    lebesgue_norm,
    quantum_sobolev_norm,
    schatten_norm,
    spatial_lebesgue_norm,
    spatial_sobolev_norm,
    weighted_sobolev_norms,
)
from .probes import (
    b_bound_probe,
    c_init_value,
    commutator_probe,
    gaussian_commutator_probe,
    grad_e_sup,
    hessian_xi_norm,
    init_diff_probe,
    weight_remainder_probe,
    wick_square_probe,
)
from .reports import ProbeReport, fit_loglog
from .spectral import derivative, field_from_modes, random_mode_block
from .trajectory import resolve_steps
from .transforms import weyl_quantize, wigner_transform
from .vlasov import evolve_vlasov

DEFAULT_N_LIST = (64, 96, 128, 192, 256)
SNAPSHOT_POINTS = 8      # stored snapshots per flow for the time-series probes
# the probes that read the snapshot series
SERIES_PROBES = frozenset({"positivity_defect", "sqrt_comparison", "regularity"})
BOX = 2 * math.pi        # sweeps run on the square box of side 2 pi
# member settings a sweep need not pass; profile and T have no default
MEMBER_DEFAULTS = {"sign": 1, "dt": None, "seed": 0, "pairs": 10, "k": 1, "q": 2, "n": 1}


def run_members(fn, arg_list, jobs: int = 1):
    """Evaluate fn over the argument list, optionally in a process pool.

    The pool gets the members in decreasing N, so the largest grid, the
    critical path, starts first. Results keep the argument order, so
    aggregation is deterministic regardless of completion order.
    """
    if jobs <= 1 or len(arg_list) <= 1:
        return [fn(a) for a in arg_list]
    order = sorted(range(len(arg_list)), key=lambda i: -arg_list[i]["N"])
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {i: pool.submit(fn, arg_list[i]) for i in order}
        return [futures[i].result() for i in range(len(arg_list))]


def _report(probe: str, members, lhs, budget) -> ProbeReport:
    report = ProbeReport(probe=probe, hbar=[m["hbar"] for m in members],
                         lhs=list(lhs), budget=list(budget))
    report.finalize_ratios()
    return report


# ---------------------------------------------------------------------------
# the per-grid bundle


class DynamicsBundle:
    """One grid and everything its probes read.

    The grid is built at once; every other datum on first access, so data
    that no requested probe reads are never computed. All flows share one
    snapshot stride: SNAPSHOT_POINTS intervals when a time-series probe is
    requested, else only the initial and final states.
    """

    def __init__(self, args: dict):
        self.args = {**MEMBER_DEFAULTS, **args}
        self.grid = make_grid(1, args["N"], BOX, BOX)

    @cached_property
    def f0(self) -> PhaseField:
        return sample_field(self.grid, self.args["profile"])

    @cached_property
    def wick_datum(self):
        """The Wick-square datum (vt, op0) of f0."""
        return wick_square_datum(self.f0)

    @property
    def op0(self):
        return self.wick_datum[1]

    @cached_property
    def gaussian(self) -> PhaseField:
        """Wide smooth Gaussian for pure-inequality probes (momentum tails ~1e-7
        are irrelevant to these measurements and keep the hbar window unsaturated)."""
        grid = self.grid
        return sample_field(grid, {"name": "gaussian", "a": 1.0, "x0": grid.L_x / 2,
                                   "xi0": 0.0, "sigma_x": 1.2, "sigma_xi": 0.8},
                            tail_tol=1e-4)

    def _steps(self) -> tuple[int, float]:
        return resolve_steps(self.args["T"], self.args["dt"])

    @cached_property
    def dt(self) -> float:
        return self._steps()[1]

    @cached_property
    def stride(self) -> int | None:
        if SERIES_PROBES.isdisjoint(self.args["probes"]):
            return None
        return max(1, self._steps()[0] // SNAPSHOT_POINTS)

    @cached_property
    def vlasov(self):
        return evolve_vlasov(self.f0, self.args["T"], self.dt, self.args["sign"],
                             snapshot_stride=self.stride)

    @cached_property
    def hartree(self):
        """Hartree flow of op0; it carries the square root vt when the
        square-root comparison is requested."""
        root = self.wick_datum[0] if "sqrt_comparison" in self.args["probes"] else None
        return evolve_hartree(self.op0, self.args["T"], self.dt, self.args["sign"],
                              snapshot_stride=self.stride, root=root)

    @cached_property
    def linear(self):
        """Linear Hartree flow of op0 in the Vlasov field history."""
        return evolve_linear_hartree(self.op0, self.vlasov.fields, self.args["T"],
                                     self.dt, snapshot_stride=self.stride)

    @cached_property
    def linear_sqrt(self):
        """Linear Hartree flow of the square root vt in the Vlasov field history."""
        return evolve_linear_hartree(self.wick_datum[0], self.vlasov.fields, self.args["T"],
                                     self.dt, snapshot_stride=self.stride)

    @cached_property
    def snapshot_fields(self) -> list:
        """The Vlasov field at each Vlasov snapshot time."""
        by_time = {s.time: s for s in self.vlasov.fields}
        return [by_time[t] for t in self.vlasov.snapshot_times]

    @cached_property
    def weyl_terms(self) -> list[tuple]:
        """Per Vlasov snapshot f, with op_f = weyl_quantize(f) and op_til the
        linear Hartree snapshot: (||op_til - op_f||_L2, the density of op_f,
        ||rho||_{W^{1,inf}} ||op_f||_{W^{2,2}_2}).

        op_f itself is not kept: holding every snapshot's operator until the
        member ends would raise its peak memory by about 9 MiB at N=256.
        """
        out = []
        for f, op_til, snap in zip(self.vlasov.snapshots, self.linear.snapshots,
                                   self.snapshot_fields):
            op_f = weyl_quantize(f)
            out.append((schatten_norm(op_til - op_f, 2), spatial_density(op_f).real,
                        spatial_sobolev_norm(snap.rho, self.grid.L_x, 1, np.inf)
                        * quantum_sobolev_norm(op_f, 2, 2, 2)))
        return out

    @cached_property
    def c_init(self) -> float:
        return c_init_value(self.f0)


# ---------------------------------------------------------------------------
# headline convergence


def regularity_checklist(f0: PhaseField) -> dict:
    """W^{4,inf}_4 and H^4_4 norms of f^init and sqrt(f^init); all must be finite."""
    f_w4inf4, f_h44 = weighted_sobolev_norms(f0, 4, (np.inf, 2), 4)
    sqrtf_w4inf4, sqrtf_h44 = weighted_sobolev_norms(sqrt_field(f0), 4, (np.inf, 2), 4)
    out = {"f_w4inf4": f_w4inf4, "f_h44": f_h44,
           "sqrtf_w4inf4": sqrtf_w4inf4, "sqrtf_h44": sqrtf_h44}
    if not all(np.isfinite(v) for v in out.values()):
        raise ConfigurationError("initial profile fails the regularity checklist")
    return out


def headline_metric(b: DynamicsBundle) -> dict:
    """Errors at time T between the Hartree, linear Hartree and Vlasov flows."""
    grid = b.grid
    checklist = regularity_checklist(b.f0)
    fT = b.vlasov.final()
    opT = b.hartree.final()
    tilT = b.linear.final()
    opfT = weyl_quantize(fT)
    wT = wigner_transform(opT)
    diff = wT.values - fT.values
    err_wigner = float(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.cell))
    return {
        "N": grid.N,
        "hbar": grid.hbar,
        "dt": b.dt,
        "err_wigner": err_wigner,
        "err_weyl": schatten_norm(opT - opfT, 2),
        "gap_nonlinear": schatten_norm(opT - tilT, 2),
        "gap_positivity": schatten_norm(tilT - opfT, 2),
        "init_gap": schatten_norm(b.op0 - weyl_quantize(b.f0), 2),
        "checklist": checklist,
        "mass_drift": b.vlasov.relative_drift("mass"),
        "trace_drift": b.hartree.relative_drift("trace"),
    }


def convergence_report(members: list) -> ProbeReport:
    report = _report("convergence_rate", members, [m["err_wigner"] for m in members],
                     [m["hbar"] for m in members])
    slope_w, stderr_w = fit_loglog(report.hbar, report.lhs)
    slope_o, stderr_o = fit_loglog(report.hbar, [m["err_weyl"] for m in members])
    report.slope = slope_w
    report.slope_stderr = stderr_w
    report.require("wigner_slope", 0.85 <= slope_w <= 1.15, slope_w, [0.85, 1.15])
    report.require("weyl_slope", 0.85 <= slope_o <= 1.15, slope_o, [0.85, 1.15])
    tri_ok = all(
        m["err_weyl"] <= m["gap_nonlinear"] + m["gap_positivity"] + 1e-12 for m in members
    )
    report.require("triangle_decomposition", tri_ok, tri_ok, True)
    report.details["members"] = members
    report.details["weyl_slope"] = slope_o
    report.details["weyl_slope_stderr"] = stderr_o
    return report


# ---------------------------------------------------------------------------
# positivity defect and diagonal drift


def defect_metric(b: DynamicsBundle) -> dict:
    """Linear Hartree vs Weyl-quantized Vlasov: L2 defect and diagonal drift."""
    grid, ftraj = b.grid, b.vlasov
    times = np.asarray(ftraj.snapshot_times)
    left_pos, left_diag, rate = [], [], []
    for f_snap, op_til, snap, (gap, rho_f, _) in zip(ftraj.snapshots, b.linear.snapshots,
                                                    b.snapshot_fields, b.weyl_terms):
        left_pos.append(gap)
        rho_diff = spatial_density(op_til).real - rho_f
        left_diag.append(spatial_lebesgue_norm(rho_diff, grid.dx**grid.d, 2))
        rate.append(grad_e_sup(grid, snap.E) * hessian_xi_norm(f_snap))
    # cumulative budget integral hbar * int ||grad E||_inf ||grad_xi^2 f||_L2
    integral = cumulative_trapezoid(rate, times)
    return {
        "N": grid.N,
        "hbar": grid.hbar,
        "times": times,
        "left_positivity": np.asarray(left_pos),
        "left_diag": np.asarray(left_diag),
        "budget_integral": integral,
        "c_init": b.c_init,
        "diag_budget": grid.hbar * (b.c_init + max(term for _, _, term in b.weyl_terms)),
        "pos_budget_final": left_pos[0] + grid.hbar * integral[-1],
    }


def defect_reports(members: list) -> tuple[ProbeReport, ProbeReport]:
    """The positivity defect (final time) and the diagonal drift."""
    pos = _report("positivity_defect", members,
                  [float(m["left_positivity"][-1]) for m in members],
                  [float(m["pos_budget_final"]) for m in members])
    slope = pos.fit_slope()
    pos.require("lhs_slope", 0.8 <= slope <= 1.2, slope, [0.8, 1.2])
    c_stars = [
        (float(np.max(m["left_positivity"])) - m["left_positivity"][0])
        / (m["hbar"] * m["budget_integral"][-1])
        for m in members if m["budget_integral"][-1] > 0
    ]
    pos.details["c_stars"] = c_stars
    # soft stability of the fitted constant; vacuous when the accumulated
    # drift sits below the initial-gap measurement floor
    informative = [c for c in c_stars if c > 1e-6]
    if len(informative) == len(c_stars) and len(informative) >= 2:
        spread = max(informative) / min(informative)
        pos.require("c_star_stability_soft", spread < 1.5, spread, 1.5)
    else:
        pos.details["c_star_stability"] = "not informative at this horizon"
    pos.details["members"] = [
        {k: v for k, v in m.items() if k not in ("times",)} for m in members
    ]

    diag = _report("diag_drift", members, [float(m["left_diag"][-1]) for m in members],
                   [float(m["diag_budget"]) for m in members])
    dslope = diag.fit_slope()
    diag.require("lhs_slope", 0.8 <= dslope <= 1.2, dslope, [0.8, 1.2])
    return pos, diag


# ---------------------------------------------------------------------------
# square-root comparison (nonlinear vs linear Hartree)


def sqrt_metric(b: DynamicsBundle) -> dict:
    """Square roots of the nonlinear against the linear Hartree flow. Both
    flows are unitary conjugations, so each carries the square root vt of op0
    to the square root of its evolved operator at every snapshot; the two
    routes are compared once per flow, at time T."""
    grid = b.grid
    times = np.asarray(b.hartree.snapshot_times)
    vtil = b.linear_sqrt.snapshots
    left = np.array([schatten_norm(a - c, 2) for a, c in zip(b.hartree.root_snapshots, vtil)])
    C_inf = schatten_norm(b.op0, np.inf)
    budget = quantum_lambda(vtil, times, rho_sup_series(b.vlasov), C_inf)
    Lambda = budget.Lambda()
    c_series = np.array([w12 * (b.c_init + term)
                         for w12, (_, _, term) in zip(budget.extras["w12"], b.weyl_terms)])
    # raw envelope with unit constants: hbar * sqrt(int c^2 e^{2(Lambda(t)-Lambda(s))})
    env0 = np.zeros(len(times))
    for n in range(1, len(times)):
        seg = c_series[: n + 1] ** 2 * np.exp(2.0 * (Lambda[n] - Lambda[: n + 1]))
        env0[n] = grid.hbar * math.sqrt(np.trapezoid(seg, times[: n + 1]))
    return {
        "N": grid.N, "hbar": grid.hbar, "times": times, "left": left,
        "env0": env0, "Lambda": Lambda, "c_series": c_series,
        "sqrt_two_routes_gap": max(
            schatten_norm(operator_sqrt(b.linear.final()) - b.linear_sqrt.final(), 2),
            schatten_norm(operator_sqrt(b.hartree.final()) - b.hartree.root_snapshots[-1], 2)),
    }


def sqrt_comparison_report(members: list) -> ProbeReport:
    report = _report("sqrt_comparison", members, [float(m["left"][-1]) for m in members],
                     [float(m["env0"][-1]) for m in members])
    ok_all = True
    ratios = []
    for m in members:
        left, env0, times = m["left"], m["env0"], m["times"]
        fit_idx = next((i for i in range(1, len(times)) if env0[i] > 0 and left[i] > 0), None)
        if fit_idx is None:
            continue
        c_star = left[fit_idx] / env0[fit_idx]
        if fit_idx + 1 >= len(times):
            continue
        later = slice(fit_idx + 1, len(times))
        ratio = np.max(left[later] / (c_star * env0[later]))
        ratios.append(float(ratio))
        if ratio > 1.0 + 1e-6:
            ok_all = False
    report.require("left_under_fitted_envelope", ok_all,
                   max(ratios) if ratios else 0.0, 1.0)
    two_routes = max(m["sqrt_two_routes_gap"] for m in members)
    report.require("sqrt_commutes_with_flow", two_routes < 1e-8, two_routes, 1e-8)
    report.details["envelope_ratios"] = ratios
    return report


# ---------------------------------------------------------------------------
# regularity tracking


def regularity_metric(b: DynamicsBundle) -> dict:
    grid, vtraj = b.grid, b.linear_sqrt
    k, q, n = b.args["k"], b.args["q"], b.args["n"]
    eps = 0.5
    times = np.asarray(vtraj.snapshot_times)
    norms = np.array([
        quantum_sobolev_norm(v, k, q, 2 * n, wrap_tol=SQRT_WRAP_TOL)
        for v in vtraj.snapshots
    ])
    rho_rate = []
    for snap in b.snapshot_fields:
        lo = spatial_sobolev_norm(snap.rho, grid.L_x, 2 * n, 3.0 - eps)
        hi = spatial_sobolev_norm(snap.rho, grid.L_x, 2 * n, 3.0 + eps)
        rho_rate.append(max(lo, hi))
    return {"N": grid.N, "hbar": grid.hbar, "times": times, "norms": norms,
            "integral": cumulative_trapezoid(rho_rate, times), "init_norm": float(norms[0])}


def regularity_report(members: list) -> ProbeReport:
    report = _report("regularity_tracking", members,
                     [float(np.max(m["norms"])) for m in members],
                     [2.0 * m["init_norm"] for m in members])
    ok_env = True
    worst = 0.0
    for m in members:
        norms, integral = m["norms"], m["integral"]
        c_star = fit_c_star(m["times"], norms, integral)
        env = 2.0 * norms[0] * np.exp(c_star * integral)
        worst = max(worst, float(np.max(norms / env)))
        if np.any(norms > env):
            ok_env = False
    report.require("within_exponential_envelope", ok_env, worst, 1.0)
    inits = {m["N"]: m["init_norm"] for m in members}
    refine = max(
        (abs(inits[2 * N] - inits[N]) / inits[N] for N in inits if 2 * N in inits),
        default=0.0,
    )
    report.require("init_norm_refinement_stable", refine < 0.05, refine, 0.05)
    report.details["init_norms"] = inits
    return report


# ---------------------------------------------------------------------------
# single-inequality probes


def wick_structure_metric(b: DynamicsBundle) -> dict:
    f, grid = b.gaussian, b.grid
    op_f = weyl_quantize(f)
    op_wick = wick_quantize(f)
    smoothed = husimi_convolve(f)
    gap_op = schatten_norm(op_f - op_wick, 2)
    gap_field = lebesgue_norm(f - smoothed, 2)
    hess = np.sqrt(
        np.abs(derivative(f.values.astype(complex), grid.L_x, axis=0, order=2)) ** 2
        + 2 * np.abs(derivative(derivative(f.values.astype(complex), grid.L_x, axis=0),
                                grid.L_xi, axis=1)) ** 2
        + np.abs(derivative(f.values.astype(complex), grid.L_xi, axis=1, order=2)) ** 2
    )
    hess_norm = float(np.sqrt(np.sum(hess**2) * grid.cell))
    identity_gap = schatten_norm(op_wick - weyl_quantize(smoothed), 2)
    contraction = {}
    for p in (1, 2, np.inf):
        key = "inf" if np.isinf(p) else str(int(p))
        contraction[key] = (schatten_norm(op_wick, p), lebesgue_norm(f, p))
    ev = op_wick.eigenvalues()
    return {
        "N": grid.N, "hbar": grid.hbar,
        "gap_op": gap_op, "gap_field": gap_field,
        "gap_equality_error": abs(gap_op - gap_field),
        "hbar_budget": grid.hbar * grid.d * hess_norm,
        "identity_gap": identity_gap,
        "contraction": contraction,
        "min_eig": float(ev[0]), "max_eig": float(ev[-1]),
        "op_norm": schatten_norm(op_wick, np.inf),
    }


def wick_structure_report(members: list) -> ProbeReport:
    """Wick-quantization structure: positivity, convolution identity, Schatten
    contraction, and the O(hbar) Wick-Weyl gap."""
    report = _report("wick_structure", members, [m["gap_op"] for m in members],
                     [m["hbar_budget"] for m in members])
    slope = report.fit_slope()
    report.require("gap_slope", 0.85 <= slope <= 1.15, slope, [0.85, 1.15])
    eq_err = max(m["gap_equality_error"] for m in members)
    report.require("gap_equality", eq_err < 1e-10, eq_err, 1e-10)
    id_err = max(m["identity_gap"] for m in members)
    report.require("convolution_identity", id_err < 1e-10, id_err, 1e-10)
    pos_ok = all(m["min_eig"] >= -1e-10 * m["op_norm"] for m in members)
    report.require("positivity", pos_ok, pos_ok, True)
    contr_ok = all(
        v[0] <= v[1] * (1 + 1e-10)
        for m in members for v in m["contraction"].values()
    )
    report.require("schatten_contraction", contr_ok, contr_ok, True)
    report.details["members"] = members
    return report


def wick_square_metric(b: DynamicsBundle) -> dict:
    return {"N": b.grid.N, **wick_square_probe(b.gaussian)}


def wick_square_report(members: list) -> ProbeReport:
    """Wick-square commutator gap: ratio <= 48 at every point, slope ~ hbar."""
    report = _report("wick_square", members, [m["lhs_p2"] for m in members],
                     [m["budget_p2"] for m in members])
    slope = report.fit_slope()
    report.require("lhs_slope", 0.85 <= slope <= 1.15, slope, [0.85, 1.15])
    for key in ("1", "2", "inf"):
        worst = max(m[f"lhs_p{key}"] / m[f"budget_p{key}"] for m in members)
        report.require(f"ratio_p{key}_below_48", worst <= 48.0, worst, 48.0)
    report.details["members"] = members
    return report


def weight_remainder_metric(b: DynamicsBundle) -> dict:
    out = {"N": b.grid.N, **weight_remainder_probe(b.gaussian)}
    out.update({f"gc_{k}": v for k, v in gaussian_commutator_probe(b.gaussian, p=2).items()})
    return out


def weight_remainder_report(members: list) -> ProbeReport:
    """Weight remainders (ratios <= 1) and the Gaussian-commutator boundedness."""
    report = _report("weight_remainder", members, [m["lhs1"] for m in members],
                     [m["budget1"] for m in members])
    r1 = max(m["lhs1"] / m["budget1"] for m in members)
    r2 = max(m["lhs2"] / m["budget2"] for m in members)
    report.require("first_order_ratio", r1 <= 1 + 1e-6, r1, 1.0)
    report.require("second_order_ratio", r2 <= 1 + 1e-6, r2, 1.0)
    gc_ratios = [m["gc_lhs"] / m["gc_budget"] for m in members]
    gc_slope, _ = fit_loglog(report.hbar, gc_ratios)
    report.require("gaussian_commutator_ratio_flat", abs(gc_slope) <= 0.1, gc_slope, [-0.1, 0.1])
    report.details["members"] = members
    report.details["gc_ratios"] = gc_ratios
    return report


def commutator_metric(b: DynamicsBundle) -> dict:
    """Ratio of the commutator estimate on random smooth Wick-quantized pairs.

    The random symbols are fixed analytic functions (low-mode Fourier blocks
    drawn once from the seed), so every sweep member probes the same data at
    a different hbar.
    """
    grid = b.grid
    rng = np.random.default_rng(b.args["seed"])
    ratios = []
    for _ in range(b.args["pairs"]):
        fsrc = field_from_modes(grid.N, random_mode_block(rng, 4))
        fmu = field_from_modes(grid.N, random_mode_block(rng, 4))
        src = wick_quantize(PhaseField(grid, fsrc**2 + 0.3))
        mu = wick_quantize(PhaseField(grid, fmu))
        r = commutator_probe(src, mu)
        ratios.append(r["lhs"] / r["budget"])
    return {"N": grid.N, "hbar": grid.hbar, "ratio_mean": float(np.mean(ratios)),
            "ratio_max": float(np.max(ratios))}


def commutator_report(members: list) -> ProbeReport:
    """Semiclassical commutator estimate: the measured ratio is hbar-uniform."""
    report = _report("commutator_estimate", members, [m["ratio_mean"] for m in members],
                     [1.0] * len(members))
    slope, _ = fit_loglog(report.hbar, report.lhs)
    report.slope = slope
    report.require("ratio_slope_flat", abs(slope) <= 0.15, slope, [-0.15, 0.15])
    report.details["members"] = members
    return report


def b_bound_metric(b: DynamicsBundle) -> dict:
    return {"N": b.grid.N, **b_bound_probe(b.f0, b.args["sign"])}


def b_bound_report(members: list) -> ProbeReport:
    """B-remainder size: slope of (1/hbar)||B_f(op_f)||_L2 in [1.8, 2.2]."""
    report = _report("b_remainder", members, [m["lhs"] for m in members],
                     [m["budget"] for m in members])
    slope = report.fit_slope()
    report.require("lhs_slope", 1.8 <= slope <= 2.2, slope, [1.8, 2.2])
    return report


def init_diff_metric(b: DynamicsBundle) -> dict:
    return {"N": b.grid.N, **init_diff_probe(b.gaussian)}


def init_diff_report(members: list) -> ProbeReport:
    """Weighted Wick-square gap slope in [0.8, 1.2]."""
    report = _report("init_diff", members, [m["lhs"] for m in members],
                     [m["budget"] for m in members])
    slope = report.fit_slope()
    report.require("lhs_slope", 0.8 <= slope <= 1.2, slope, [0.8, 1.2])
    return report


# ---------------------------------------------------------------------------
# the probe table and the one member pass

# probe -> (metric of one grid's bundle, reports built from the metrics over N),
# in the order of config.PROBES
PROBE_TABLE = {
    "convergence": (headline_metric, lambda ms: [convergence_report(ms)]),
    "wick_structure": (wick_structure_metric, lambda ms: [wick_structure_report(ms)]),
    "wick_square": (wick_square_metric, lambda ms: [wick_square_report(ms)]),
    "weight_remainder": (weight_remainder_metric, lambda ms: [weight_remainder_report(ms)]),
    "commutator": (commutator_metric, lambda ms: [commutator_report(ms)]),
    "b_remainder": (b_bound_metric, lambda ms: [b_bound_report(ms)]),
    "init_diff": (init_diff_metric, lambda ms: [init_diff_report(ms)]),
    "positivity_defect": (defect_metric, lambda ms: list(defect_reports(ms))),
    "sqrt_comparison": (sqrt_metric, lambda ms: [sqrt_comparison_report(ms)]),
    "regularity": (regularity_metric, lambda ms: [regularity_report(ms)]),
}


def grid_member(args: dict) -> dict:
    """Metrics of every requested probe on the grid of size N, all read from
    one bundle."""
    bundle = DynamicsBundle(args)
    return {p: PROBE_TABLE[p][0](bundle) for p in args["probes"]}


def sweep_reports(probes, N_list=DEFAULT_N_LIST, jobs: int = 1,
                  **settings) -> dict[str, list[ProbeReport]]:
    """Reports of the requested probes from one member pass over the grid
    ladder; ``settings`` go to every member (see MEMBER_DEFAULTS)."""
    probes = tuple(probes)
    if "convergence" in probes and len(N_list) < 4:
        raise ConfigurationError("convergence sweep needs at least 4 grid sizes")
    members = run_members(grid_member, [dict(settings, N=N, probes=probes)
                                        for N in sorted(N_list)], jobs)
    return {p: PROBE_TABLE[p][1]([m[p] for m in members]) for p in probes}


def _only(probe: str, N_list, jobs: int, **settings) -> list[ProbeReport]:
    return sweep_reports([probe], N_list, jobs, **settings)[probe]


def convergence_sweep(profile: dict, T: float, N_list=DEFAULT_N_LIST, sign: int = 1,
                      dt: float | None = None, jobs: int = 1) -> ProbeReport:
    """Headline rate: slope of ||f_op(T) - f(T)||_L2 and ||op - op_f||_L2 vs hbar."""
    return _only("convergence", N_list, jobs, profile=profile, T=T, sign=sign, dt=dt)[0]


def defect_sweep(profile: dict, T: float, N_list=DEFAULT_N_LIST, sign: int = 1,
                 dt: float | None = None, jobs: int = 1) -> tuple[ProbeReport, ProbeReport]:
    """Sweep the positivity defect (final time) and the diagonal drift."""
    pos, diag = _only("positivity_defect", N_list, jobs, profile=profile, T=T, sign=sign, dt=dt)
    return pos, diag


def regularity_sweep(profile: dict, T: float, N_list=DEFAULT_N_LIST, sign: int = 1,
                     k: int = 1, q: float = 2, n: int = 1,
                     dt: float | None = None, jobs: int = 1) -> ProbeReport:
    """Propagation of regularity: W^k(m) norms of the evolved square root stay
    within the fitted exponential envelope (slack factor 2); the initial norm
    is hbar-uniform (refinement stability)."""
    return _only("regularity", N_list, jobs, profile=profile, T=T, sign=sign, dt=dt,
                 k=k, q=q, n=n)[0]


def wick_structure_sweep(N_list=DEFAULT_N_LIST, jobs: int = 1) -> ProbeReport:
    return _only("wick_structure", N_list, jobs)[0]


def wick_square_sweep(N_list=DEFAULT_N_LIST, jobs: int = 1) -> ProbeReport:
    return _only("wick_square", N_list, jobs)[0]


def weight_remainder_sweep(N_list=DEFAULT_N_LIST, jobs: int = 1) -> ProbeReport:
    return _only("weight_remainder", N_list, jobs)[0]


def commutator_sweep(N_list=DEFAULT_N_LIST, pairs: int = 10, seed: int = 0,
                     jobs: int = 1) -> ProbeReport:
    return _only("commutator", N_list, jobs, pairs=pairs, seed=seed)[0]


def b_bound_sweep(profile: dict, N_list=DEFAULT_N_LIST, sign: int = 1,
                  jobs: int = 1) -> ProbeReport:
    return _only("b_remainder", N_list, jobs, profile=profile, sign=sign)[0]


def init_diff_sweep(N_list=DEFAULT_N_LIST, jobs: int = 1) -> ProbeReport:
    return _only("init_diff", N_list, jobs)[0]
