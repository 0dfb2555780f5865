"""Hbar-sweep experiments: the headline semiclassical convergence rate, the
positivity-defect and diagonal-drift budgets, square-root comparison,
regularity tracking, the single-inequality probes, and sweep aggregation
into probe reports.

Every sweep member is a pure function of (N, config); members run serially
or in a process pool over the grid sizes in increasing N, that is in
decreasing hbar, so reports are deterministic for a fixed configuration.
The four dynamics probes share one member per grid: it evolves each flow
at most once, and every requested probe reads its metric from the bundle.
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
from .calculus import operator_sqrt, quantum_gradient_xi, spatial_density
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
    weighted_sobolev_norm,
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
DT_FACTOR = 0.1          # default step: dt = hbar / 10
SNAPSHOT_POINTS = 8      # stored snapshots per flow for the time-series probes
BOX = 2 * math.pi        # sweeps run on the square box of side 2 pi


def run_members(fn, arg_list, jobs: int = 1):
    """Evaluate fn over the argument list, optionally in a process pool.

    Results keep the argument order, so aggregation is deterministic
    regardless of completion order.
    """
    if jobs <= 1 or len(arg_list) <= 1:
        return [fn(a) for a in arg_list]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, arg_list))


def _grid(N: int):
    return make_grid(1, N, BOX, BOX)


def _ladder(fn, N_list, jobs: int, **common) -> list:
    """fn over the grid ladder in increasing N (decreasing hbar)."""
    return run_members(fn, [dict(N=N, **common) for N in sorted(N_list)], jobs)


def _report(probe: str, members, lhs, budget) -> ProbeReport:
    report = ProbeReport(probe=probe, hbar=[m["hbar"] for m in members],
                         lhs=list(lhs), budget=list(budget))
    report.finalize_ratios()
    return report


# ---------------------------------------------------------------------------
# the per-grid dynamics bundle


class DynamicsBundle:
    """One grid's initial datum and its four flows.

    The grid, f0, dt and the Wick-square datum (vt, op0) are built once.
    Each flow is evolved on first access, so a flow that no requested probe
    reads never runs. All flows share one snapshot stride: SNAPSHOT_POINTS
    intervals when a time-series probe is requested, else only the initial
    and final states.
    """

    def __init__(self, args: dict):
        self.args = args
        self.grid = _grid(args["N"])
        self.f0 = sample_field(self.grid, args["profile"])
        self.T, self.sign = args["T"], args["sign"]
        dt = args.get("dt")
        steps, self.dt = resolve_steps(self.T, self.grid.hbar * DT_FACTOR if dt is None else dt)
        series = set(args["probes"]) - {"convergence"}
        self.stride = max(1, steps // SNAPSHOT_POINTS) if series else None
        self.vt, self.op0 = wick_square_datum(self.f0)

    @cached_property
    def vlasov(self):
        return evolve_vlasov(self.f0, self.T, self.dt, self.sign, snapshot_stride=self.stride)

    @cached_property
    def hartree(self):
        return evolve_hartree(self.op0, self.T, self.dt, self.sign, snapshot_stride=self.stride)

    @cached_property
    def linear(self):
        """Linear Hartree flow of op0 in the Vlasov field history."""
        return evolve_linear_hartree(self.op0, self.vlasov.fields, self.T, self.dt,
                                     snapshot_stride=self.stride)

    @cached_property
    def linear_sqrt(self):
        """Linear Hartree flow of the square root vt in the Vlasov field history."""
        return evolve_linear_hartree(self.vt, self.vlasov.fields, self.T, self.dt,
                                     snapshot_stride=self.stride)


# ---------------------------------------------------------------------------
# headline convergence


def regularity_checklist(f0: PhaseField) -> dict:
    """W^{4,inf}_4 and H^4_4 norms of f^init and sqrt(f^init); all must be finite."""
    s = sqrt_field(f0)
    out = {
        "f_w4inf4": weighted_sobolev_norm(f0, 4, np.inf, 4),
        "f_h44": weighted_sobolev_norm(f0, 4, 2, 4),
        "sqrtf_w4inf4": weighted_sobolev_norm(s, 4, np.inf, 4),
        "sqrtf_h44": weighted_sobolev_norm(s, 4, 2, 4),
    }
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
    field_by_time = {s.time: s for s in ftraj.fields}
    times = np.asarray(ftraj.snapshot_times)
    left_pos, left_diag, rate = [], [], []
    weyl_ops = []
    for t, f_snap, op_til in zip(times, ftraj.snapshots, b.linear.snapshots):
        op_f = weyl_quantize(f_snap)
        weyl_ops.append(op_f)
        left_pos.append(schatten_norm(op_til - op_f, 2))
        rho_diff = spatial_density(op_til).real - spatial_density(op_f).real
        left_diag.append(spatial_lebesgue_norm(rho_diff, grid.dx**grid.d, 2))
        snap = field_by_time[t]
        rate.append(grad_e_sup(grid, snap.E) * hessian_xi_norm(f_snap))
    # cumulative budget integral hbar * int ||grad E||_inf ||grad_xi^2 f||_L2
    integral = cumulative_trapezoid(rate, times)
    c_init = c_init_value(b.f0)
    diag_budget_sup = 0.0
    for t, op_f in zip(times, weyl_ops):
        rho_w1inf = spatial_sobolev_norm(field_by_time[t].rho, grid.L_x, 1, np.inf)
        w22 = quantum_sobolev_norm(op_f, 2, 2, 2)
        diag_budget_sup = max(diag_budget_sup, rho_w1inf * w22)
    return {
        "N": grid.N,
        "hbar": grid.hbar,
        "times": times,
        "left_positivity": np.asarray(left_pos),
        "left_diag": np.asarray(left_diag),
        "budget_integral": integral,
        "c_init": c_init,
        "diag_budget": grid.hbar * (c_init + diag_budget_sup),
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
    grid, ftraj = b.grid, b.vlasov
    times = np.asarray(b.hartree.snapshot_times)
    v1 = [operator_sqrt(op) for op in b.hartree.snapshots]
    vtil = [operator_sqrt(op) for op in b.linear.snapshots]
    left = np.array([schatten_norm(a - c, 2) for a, c in zip(v1, vtil)])
    C_inf = schatten_norm(b.op0, np.inf)
    Lambda = quantum_lambda(vtil, times, rho_sup_series(ftraj), C_inf).Lambda()
    c_init = c_init_value(b.f0)
    c_series = []
    for t, f_snap, v in zip(times, ftraj.snapshots, vtil):
        op_f = weyl_quantize(f_snap)
        rho = ftraj.fields[int(round(t / b.dt))].rho
        rho_w1inf = spatial_sobolev_norm(rho, grid.L_x, 1, np.inf)
        w22 = quantum_sobolev_norm(op_f, 2, 2, 2)
        gv = quantum_sobolev_norm(quantum_gradient_xi(v, SQRT_WRAP_TOL), 1, 2, 0,
                                  wrap_tol=SQRT_WRAP_TOL)
        c_series.append(gv * (c_init + rho_w1inf * w22))
    c_series = np.asarray(c_series)
    # raw envelope with unit constants: hbar * sqrt(int c^2 e^{2(Lambda(t)-Lambda(s))})
    env0 = np.zeros(len(times))
    for n in range(1, len(times)):
        seg = c_series[: n + 1] ** 2 * np.exp(2.0 * (Lambda[n] - Lambda[: n + 1]))
        env0[n] = grid.hbar * math.sqrt(np.trapezoid(seg, times[: n + 1]))
    return {
        "N": grid.N, "hbar": grid.hbar, "times": times, "left": left,
        "env0": env0, "Lambda": Lambda, "c_series": c_series,
        "sqrt_two_routes_gap": schatten_norm(vtil[-1] - b.linear_sqrt.final(), 2),
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
    field_by_time = {s.time: s for s in b.vlasov.fields}
    rho_rate = []
    for t in times:
        rho = field_by_time[t].rho
        lo = spatial_sobolev_norm(rho, grid.L_x, 2 * n, 3.0 - eps)
        hi = spatial_sobolev_norm(rho, grid.L_x, 2 * n, 3.0 + eps)
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
# the shared dynamics pass

# probe -> (metric of one bundle, reports built from the metrics over N)
DYNAMICS_PROBES = {
    "convergence": (headline_metric, lambda ms: [convergence_report(ms)]),
    "positivity_defect": (defect_metric, lambda ms: list(defect_reports(ms))),
    "sqrt_comparison": (sqrt_metric, lambda ms: [sqrt_comparison_report(ms)]),
    "regularity": (regularity_metric, lambda ms: [regularity_report(ms)]),
}


def dynamics_member(args: dict) -> dict:
    """Metrics of every requested dynamics probe on the grid of size N, all
    read from one bundle."""
    bundle = DynamicsBundle(args)
    return {p: DYNAMICS_PROBES[p][0](bundle) for p in args["probes"]}


def dynamics_reports(probes, profile: dict, T: float, N_list=DEFAULT_N_LIST, sign: int = 1,
                     dt: float | None = None, jobs: int = 1,
                     k: int = 1, q: float = 2, n: int = 1) -> dict[str, list[ProbeReport]]:
    """Reports of the requested dynamics probes from one member pass over N."""
    probes = tuple(probes)
    if not probes:
        return {}
    if "convergence" in probes and len(N_list) < 4:
        raise ConfigurationError("convergence sweep needs at least 4 grid sizes")
    members = _ladder(dynamics_member, N_list, jobs, profile=profile, T=T, sign=sign,
                      dt=dt, k=k, q=q, n=n, probes=probes)
    return {p: DYNAMICS_PROBES[p][1]([m[p] for m in members]) for p in probes}


def headline_member(args: dict) -> dict:
    """One convergence-sweep member: errors at time T on the grid of size N."""
    return dynamics_member({**args, "probes": ("convergence",)})["convergence"]


def defect_member(args: dict) -> dict:
    """One positivity-defect member: the defect and diagonal-drift series."""
    return dynamics_member({**args, "probes": ("positivity_defect",)})["positivity_defect"]


def convergence_sweep(profile: dict, T: float, N_list=DEFAULT_N_LIST, sign: int = 1,
                      dt: float | None = None, jobs: int = 1) -> ProbeReport:
    """Headline rate: slope of ||f_op(T) - f(T)||_L2 and ||op - op_f||_L2 vs hbar."""
    return dynamics_reports(["convergence"], profile, T, N_list, sign, dt, jobs)["convergence"][0]


def defect_sweep(profile: dict, T: float, N_list=DEFAULT_N_LIST, sign: int = 1,
                 dt: float | None = None, jobs: int = 1) -> tuple[ProbeReport, ProbeReport]:
    """Sweep the positivity defect (final time) and the diagonal drift."""
    pos, diag = dynamics_reports(["positivity_defect"], profile, T, N_list, sign, dt,
                                 jobs)["positivity_defect"]
    return pos, diag


def sqrt_comparison_sweep(profile: dict, T: float, N_list=DEFAULT_N_LIST, sign: int = 1,
                          dt: float | None = None, jobs: int = 1) -> ProbeReport:
    return dynamics_reports(["sqrt_comparison"], profile, T, N_list, sign, dt,
                            jobs)["sqrt_comparison"][0]


def regularity_sweep(profile: dict, T: float, N_list=DEFAULT_N_LIST, sign: int = 1,
                     k: int = 1, q: float = 2, n: int = 1,
                     dt: float | None = None, jobs: int = 1) -> ProbeReport:
    """Propagation of regularity: W^k(m) norms of the evolved square root stay
    within the fitted exponential envelope (slack factor 2); the initial norm
    is hbar-uniform (refinement stability)."""
    return dynamics_reports(["regularity"], profile, T, N_list, sign, dt, jobs,
                            k=k, q=q, n=n)["regularity"][0]


# ---------------------------------------------------------------------------
# single-inequality hbar sweeps


def _gaussian_probe_field(N: int) -> PhaseField:
    """Wide smooth Gaussian for pure-inequality probes (momentum tails ~1e-7
    are irrelevant to these measurements and keep the hbar window unsaturated)."""
    grid = _grid(N)
    return sample_field(grid, {"name": "gaussian", "a": 1.0, "x0": grid.L_x / 2,
                               "xi0": 0.0, "sigma_x": 1.2, "sigma_xi": 0.8},
                        tail_tol=1e-4)


def wick_gap_member(args: dict) -> dict:
    f = _gaussian_probe_field(args["N"])
    grid = f.grid
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
        "N": args["N"], "hbar": grid.hbar,
        "gap_op": gap_op, "gap_field": gap_field,
        "gap_equality_error": abs(gap_op - gap_field),
        "hbar_budget": grid.hbar * grid.d * hess_norm,
        "identity_gap": identity_gap,
        "contraction": contraction,
        "min_eig": float(ev[0]), "max_eig": float(ev[-1]),
        "op_norm": schatten_norm(op_wick, np.inf),
    }


def wick_structure_sweep(N_list=DEFAULT_N_LIST, jobs: int = 1) -> ProbeReport:
    """Wick-quantization structure: positivity, convolution identity, Schatten
    contraction, and the O(hbar) Wick-Weyl gap."""
    members = _ladder(wick_gap_member, N_list, jobs)
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


def wick_square_member(args: dict) -> dict:
    return {"N": args["N"], **wick_square_probe(_gaussian_probe_field(args["N"]))}


def wick_square_sweep(N_list=DEFAULT_N_LIST, jobs: int = 1) -> ProbeReport:
    """Wick-square commutator gap: ratio <= 48 at every point, slope ~ hbar."""
    members = _ladder(wick_square_member, N_list, jobs)
    report = _report("wick_square", members, [m["lhs_p2"] for m in members],
                     [m["budget_p2"] for m in members])
    slope = report.fit_slope()
    report.require("lhs_slope", 0.85 <= slope <= 1.15, slope, [0.85, 1.15])
    for key in ("1", "2", "inf"):
        worst = max(m[f"lhs_p{key}"] / m[f"budget_p{key}"] for m in members)
        report.require(f"ratio_p{key}_below_48", worst <= 48.0, worst, 48.0)
    report.details["members"] = members
    return report


def weight_remainder_member(args: dict) -> dict:
    f = _gaussian_probe_field(args["N"])
    out = {"N": args["N"], **weight_remainder_probe(f)}
    out.update({f"gc_{k}": v for k, v in gaussian_commutator_probe(f, p=2).items()})
    return out


def weight_remainder_sweep(N_list=DEFAULT_N_LIST, jobs: int = 1) -> ProbeReport:
    """Weight remainders (ratios <= 1) and the Gaussian-commutator boundedness."""
    members = _ladder(weight_remainder_member, N_list, jobs)
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


def commutator_member(args: dict) -> dict:
    """Ratio of the commutator estimate on random smooth Wick-quantized pairs.

    The random symbols are fixed analytic functions (low-mode Fourier blocks
    drawn once from the seed), so every sweep member probes the same data at
    a different hbar.
    """
    grid = _grid(args["N"])
    rng = np.random.default_rng(args.get("seed", 0))
    ratios = []
    for _ in range(args.get("pairs", 10)):
        fsrc = field_from_modes(grid.N, random_mode_block(rng, 4))
        fmu = field_from_modes(grid.N, random_mode_block(rng, 4))
        src = wick_quantize(PhaseField(grid, fsrc**2 + 0.3))
        mu = wick_quantize(PhaseField(grid, fmu))
        r = commutator_probe(src, mu)
        ratios.append(r["lhs"] / r["budget"])
    return {"N": args["N"], "hbar": grid.hbar, "ratio_mean": float(np.mean(ratios)),
            "ratio_max": float(np.max(ratios))}


def commutator_sweep(N_list=DEFAULT_N_LIST, pairs: int = 10, seed: int = 0,
                     jobs: int = 1) -> ProbeReport:
    """Semiclassical commutator estimate: the measured ratio is hbar-uniform."""
    members = _ladder(commutator_member, N_list, jobs, pairs=pairs, seed=seed)
    report = _report("commutator_estimate", members, [m["ratio_mean"] for m in members],
                     [1.0] * len(members))
    slope, _ = fit_loglog(report.hbar, report.lhs)
    report.slope = slope
    report.require("ratio_slope_flat", abs(slope) <= 0.15, slope, [-0.15, 0.15])
    report.details["members"] = members
    return report


def b_bound_member(args: dict) -> dict:
    grid = _grid(args["N"])
    f = sample_field(grid, args["profile"])
    return {"N": args["N"], **b_bound_probe(f, args.get("sign", 1))}


def b_bound_sweep(profile: dict, N_list=DEFAULT_N_LIST, sign: int = 1,
                  jobs: int = 1) -> ProbeReport:
    """B-remainder size: slope of (1/hbar)||B_f(op_f)||_L2 in [1.8, 2.2]."""
    members = _ladder(b_bound_member, N_list, jobs, profile=profile, sign=sign)
    report = _report("b_remainder", members, [m["lhs"] for m in members],
                     [m["budget"] for m in members])
    slope = report.fit_slope()
    report.require("lhs_slope", 1.8 <= slope <= 2.2, slope, [1.8, 2.2])
    return report


def init_diff_member(args: dict) -> dict:
    return {"N": args["N"], **init_diff_probe(_gaussian_probe_field(args["N"]))}


def init_diff_sweep(N_list=DEFAULT_N_LIST, jobs: int = 1) -> ProbeReport:
    """Weighted Wick-square gap slope in [0.8, 1.2]."""
    members = _ladder(init_diff_member, N_list, jobs)
    report = _report("init_diff", members, [m["lhs"] for m in members],
                     [m["budget"] for m in members])
    slope = report.fit_slope()
    report.require("lhs_slope", 0.8 <= slope <= 1.2, slope, [0.8, 1.2])
    return report
