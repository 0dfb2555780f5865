"""Hbar-sweep experiments: the headline semiclassical convergence rate, the
positivity-defect and diagonal-drift budgets, square-root comparison,
regularity tracking, the single-inequality probes, and sweep aggregation
into probe reports.

Every probe is one Probe in PROBE_TABLE: a metric of one grid's bundle, the
reports built from the metrics over N, the flows it reads and, for a time
series, its per-snapshot consumer. A sweep is one member pass over the grid
ladder: each member is a pure function of (N, settings) that builds one
DynamicsBundle and reads from it the metric of every requested probe. The
bundle builds its data on first use, so each grid computes every datum, flow
and shared per-snapshot quantity at most once, and only when a requested
probe reads it. Results come back in increasing N, that is in decreasing
hbar, so reports are deterministic for a fixed configuration.

The snapshots are streamed, not stored. The flows that the requested probes
name step in lockstep, in FLOWS order, the Vlasov flow first, as its field
history drives the linear Hartree flow; at each snapshot time the requested
probes' per-snapshot consumers read the states by flow name, which are then
dropped, so a member holds per-snapshot scalars, each flow's logs and fields,
and the final states, not a trajectory.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .budgets import (
    ENVELOPE_SLACK_FACTOR,
    SQRT_WRAP_TOL,
    cumulative_trapezoid,
    fit_c_star,
    fit_envelope_scale,
    quantum_rate,
    sqrt_field,
)
from .calculus import operator_sqrt, spatial_density
from .coherent import husimi_convolve, husimi_marginal, husimi_mode_block, wick_square_datum
from .config import DEFAULTS, validate
from .errors import ConfigurationError, PhaselabError
from .grids import PhaseField, gaussian_phase_kernel, make_grid, sample_field
from .hartree import hartree_steps, linear_hartree_steps
from .norms import (
    hermitian_schatten_norms,
    lebesgue_norm,
    quantum_sobolev_norm,
    schatten_norm,
    spatial_lebesgue_norm,
    spatial_sobolev_norm,
    weighted_sobolev_norms,
)
from .operators import DensityOperator
from .probes import (
    WickSquare,
    b_bound_probe,
    c_init,
    commutator_probe,
    gaussian_commutator_probe,
    grad_e_sup,
    hessian_xi_norm,
    init_diff_probe,
    weight_remainder_probe,
    wick_square_data,
    wick_square_probe,
)
from .reports import ProbeReport, fit_loglog
from .spectral import derivative, field_from_modes, random_mode_block
from .trajectory import Trajectory, resolve_steps, series_stride
from .transforms import weyl_quantize, wigner_transform
from .vlasov import vlasov_steps

RATIO_SLACK = 1e-6       # rounding allowance of the checks that a ratio is at most 1
# member settings a sweep need not pass; profile and T have no default
MEMBER_DEFAULTS = {**{key: DEFAULTS[key] for key in ("sign", "dt", "seed", "L_x", "L_xi")},
                   "pairs": 10, "k": 1, "q": 2, "n": 1}


def run_members(fn, arg_list, jobs: int = 1):
    """Evaluate fn over the argument list, optionally in a process pool of at
    most one worker per member (a forking pool starts all at the first submit).

    The pool gets the members in decreasing N, so the largest grid, the
    critical path, starts first. Results keep the argument order, so
    aggregation is deterministic regardless of completion order.

    The parent's heap is frozen while the pool runs: a forked worker's
    collections then skip the inherited objects instead of touching, and so
    copying, their pages. The pool module is imported here, not at module
    level, so a one-job run never loads multiprocessing.
    """
    workers = min(jobs, len(arg_list))
    if workers <= 1:
        return [fn(a) for a in arg_list]
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(arg_list)), key=lambda i: -arg_list[i]["N"])
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(fn, arg_list[i]) for i in order}
            return [futures[i].result() for i in range(len(arg_list))]
    finally:
        gc.unfreeze()


def _report(probe: str, members, lhs, budget, band=None,
            check: str = "lhs_slope") -> ProbeReport:
    """The report of lhs against budget over the members; with a band, the
    fitted hbar-slope of lhs is the report's slope and the check ``check``
    requires it to lie in the band."""
    report = ProbeReport(probe=probe, hbar=[m["hbar"] for m in members],
                         lhs=list(lhs), budget=list(budget))
    report.finalize_ratios()
    if band is not None:
        report.require(check, report.fit_slope(), band)
    return report


def _slope_report(probe: str, band):
    """The reports of a probe whose metric is one lhs and its budget, checked
    by the slope band alone."""
    return lambda ms: [_report(probe, ms, [m["lhs"] for m in ms],
                               [m["budget"] for m in ms], band)]


# ---------------------------------------------------------------------------
# the per-grid bundle

# flow -> its stepping generator of (bundle, trajectories by flow name, snapshot
# stride), in stepping order: the linear flow reads the field history that the
# Vlasov flow appends earlier in the same lockstep step
FLOWS = {
    "vlasov": lambda b, trajs, stride: vlasov_steps(
        b.f0, b.args["T"], b.dt, b.args["sign"], trajs["vlasov"], stride),
    # Both Hartree flows carry the square root vt: it rides in the packed
    # kernel at no FFT cost, and carrying it whatever the probe set keeps
    # every probe's op bits independent of the others.
    "linear": lambda b, trajs, stride: linear_hartree_steps(
        b.op0, trajs["vlasov"].fields, b.args["T"], b.dt, trajs["linear"], stride,
        root=b.wick_datum[0]),
    "hartree": lambda b, trajs, stride: hartree_steps(
        b.op0, b.args["T"], b.dt, b.args["sign"], trajs["hartree"], stride,
        root=b.wick_datum[0]),
}


# the bundle's cached data that only the static probes read
STATIC_DATA = ("gaussian", "gaussian_wick")


class DynamicsBundle:
    """One grid and everything its probes read.

    The grid is built at once; every other datum on first access, so data
    that no requested probe reads are never computed. All flows share one
    snapshot stride: ``series_stride`` when a requested probe has a
    per-snapshot consumer, else only the initial and final states. The flows
    are streamed (``streamed``); what they leave is one Streamed record.
    """

    def __init__(self, args: dict):
        self.args = {**MEMBER_DEFAULTS, **args}
        self.grid = make_grid(args["N"], self.args["L_x"], self.args["L_xi"])

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

    @cached_property
    def gaussian_wick(self) -> WickSquare:
        """wick(g), g^2 and the Wick-square gap of the Gaussian g, which the
        wick_structure, wick_square and init_diff probes share."""
        return wick_square_data(self.gaussian)

    @cached_property
    def dt(self) -> float:
        return resolve_steps(self.args["T"], self.args["dt"])[1]

    @cached_property
    def streamed(self) -> Streamed:
        """Stream the flows that the requested probes read, in FLOWS order,
        through their per-snapshot consumers (see stream)."""
        # no flow probe reads the static probes' Gaussian data: drop them
        # before the flows are held
        for name in STATIC_DATA:
            self.__dict__.pop(name, None)
        probes = {p: PROBE_TABLE[p] for p in PROBE_TABLE if p in self.args["probes"]}
        names = [n for n in FLOWS if any(n in probe.flows for probe in probes.values())]
        consumers = {p: partial(probe.snapshot, self)
                     for p, probe in probes.items() if probe.snapshot}
        steps = resolve_steps(self.args["T"], self.args["dt"])[0]
        stride = series_stride(steps) if consumers else None
        flows = {n: Trajectory() for n in names}
        return Streamed(flows, *stream({n: FLOWS[n](self, flows, stride) for n in names},
                                       consumers))

    @cached_property
    def op_norm(self) -> float:
        """||op0||_{L^inf}, the C_inf of the quantum stability rate."""
        return schatten_norm(self.op0, np.inf)

    @cached_property
    def c_init(self) -> float:
        return c_init(sqrt_field(self.f0), self.f0)


class Streamed(NamedTuple):
    """What a bundle's streamed flows leave: the Trajectory of each flow by
    name, with its logs and fields; the states of the last snapshot by flow
    name (see Snapshot); the snapshot times; and per requested series probe
    the lists of its per-snapshot values."""

    flows: dict[str, Trajectory]
    final: dict[str, tuple]
    times: list[float]
    series: dict[str, dict]


@dataclass
class Snapshot:
    """One snapshot time of lockstep flows, read by the per-snapshot
    consumers and then dropped. ``states[name]`` is what that flow yields
    after t: the Vlasov field f and its Poisson data (f, field), or a
    Hartree flow's op and its carried root (op, root)."""

    t: float
    states: dict[str, tuple]

    @cached_property
    def op_f(self) -> DensityOperator:
        return weyl_quantize(self.states["vlasov"][0])

    @cached_property
    def weyl_term(self) -> float:
        """||rho||_{W^{1,inf}} ||op_f||_{W^{2,2}_2}, with rho the Vlasov density."""
        f, field = self.states["vlasov"]
        return (spatial_sobolev_norm(field.rho, f.grid.L_x, 1, np.inf)
                * quantum_sobolev_norm(self.op_f, 2, n=2))


def stream(steppers: dict, consumers: dict) -> tuple[dict, list[float], dict]:
    """Step the flows (name -> stepping generator of (t, *state)) in lockstep,
    in dict order, until one of them ends. At each snapshot every consumer
    (name -> function of the Snapshot, returning a dict) reads the states by
    flow name; then they are dropped, so no state of a snapshot outlives the
    next one's consumers. Returns the last states, the times and per consumer
    its value lists by key. A PhaselabError that a consumer raises carries
    the consumer's name as ``probe`` and the snapshot time as ``t``."""
    series = {p: defaultdict(list) for p in consumers}
    times = []
    states = None
    while True:
        # not zip: its cached result tuple would keep the previous states
        # alive at every other snapshot
        step = {}
        for name, flow in steppers.items():
            step[name] = next(flow, None)
            if step[name] is None:
                return states, times, series
        t = next(iter(step.values()))[0]
        states = {name: state[1:] for name, state in step.items()}
        snap = Snapshot(t, states)
        times.append(t)
        for p, consume in consumers.items():
            try:
                values = consume(snap)
            except PhaselabError as exc:
                exc.probe, exc.t = p, snap.t
                raise
            for key, value in values.items():
                series[p][key].append(value)
        del snap   # and what the consumers cached on it, before the flows step on


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
    checklist = regularity_checklist(b.f0)
    s = b.streamed
    fT, opT, tilT = (s.final[name][0] for name in ("vlasov", "hartree", "linear"))
    op_f0, opfT = weyl_quantize(b.f0), weyl_quantize(fT)
    return {
        "dt": b.dt,
        "err_wigner": lebesgue_norm(wigner_transform(opT) - fT, 2),
        "err_weyl": schatten_norm(opT - opfT, 2),
        "gap_nonlinear": schatten_norm(opT - tilT, 2),
        "gap_positivity": schatten_norm(tilT - opfT, 2),
        "init_gap": schatten_norm(b.op0 - op_f0, 2),
        "checklist": checklist,
        "mass_drift": s.flows["vlasov"].relative_drift("mass"),
        "trace_drift": s.flows["hartree"].relative_drift("trace"),
    }


def convergence_report(members: list) -> ProbeReport:
    report = _report("convergence_rate", members, [m["err_wigner"] for m in members],
                     [m["hbar"] for m in members], [0.85, 1.15], "wigner_slope")
    slope_o, stderr_o = fit_loglog(report.hbar, [m["err_weyl"] for m in members])
    report.require("weyl_slope", slope_o, [0.85, 1.15])
    report.require("triangle_decomposition", all(
        m["err_weyl"] <= m["gap_nonlinear"] + m["gap_positivity"] + 1e-12 for m in members
    ), True)
    report.details["members"] = members
    report.details["weyl_slope"] = slope_o
    report.details["weyl_slope_stderr"] = stderr_o
    return report


# ---------------------------------------------------------------------------
# positivity defect and diagonal drift


def defect_snapshot(b: DynamicsBundle, s: Snapshot) -> dict:
    """Linear Hartree op_til against op_f = weyl_quantize(f) at one snapshot:
    the L2 defect, the L2 drift of the density, the Weyl term, and the
    budget rate ||grad E||_inf ||grad_xi^2 f||_L2."""
    (f, field), (op, _) = s.states["vlasov"], s.states["linear"]
    rho_diff = spatial_density(op).real - spatial_density(s.op_f).real
    return {"gap": schatten_norm(op - s.op_f, 2),
            "left_diag": spatial_lebesgue_norm(rho_diff, b.grid.dx, 2),
            "term": s.weyl_term,
            "rate": grad_e_sup(b.grid, field.E) * hessian_xi_norm(f)}


def defect_metric(b: DynamicsBundle) -> dict:
    """Linear Hartree vs Weyl-quantized Vlasov: L2 defect and diagonal drift."""
    hbar = b.grid.hbar
    times = np.asarray(b.streamed.times)
    series = b.streamed.series["positivity_defect"]
    left_pos = series["gap"]
    # cumulative budget integral hbar * int ||grad E||_inf ||grad_xi^2 f||_L2
    integral = cumulative_trapezoid(series["rate"], times)
    return {
        "times": times,
        "left_positivity": np.asarray(left_pos),
        "left_diag": np.asarray(series["left_diag"]),
        "budget_integral": integral,
        "c_init": b.c_init,
        "diag_budget": hbar * (b.c_init + max(series["term"])),
        "pos_budget_final": left_pos[0] + hbar * integral[-1],
    }


def defect_reports(members: list) -> tuple[ProbeReport, ProbeReport]:
    """The positivity defect (final time) and the diagonal drift."""
    pos = _report("positivity_defect", members,
                  [float(m["left_positivity"][-1]) for m in members],
                  [float(m["pos_budget_final"]) for m in members], [0.8, 1.2])
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
        pos.require("c_star_stability_soft", spread, 1.5)
    else:
        pos.details["c_star_stability"] = "not informative at this horizon"
    pos.details["members"] = [{k: v for k, v in m.items() if k != "times"} for m in members]

    diag = _report("diag_drift", members, [float(m["left_diag"][-1]) for m in members],
                   [float(m["diag_budget"]) for m in members], [0.8, 1.2])
    return pos, diag


# ---------------------------------------------------------------------------
# square-root comparison (nonlinear vs linear Hartree)


def sqrt_snapshot(b: DynamicsBundle, s: Snapshot) -> dict:
    """The two carried roots at one snapshot: ||v - v_til||_L2, the quantum
    rate of the linear root v_til with its W^{1,2} piece, and the Weyl term."""
    root, rho = s.states["linear"][1], s.states["vlasov"][1].rho
    lam, w12, _ = quantum_rate(root, float(np.max(np.abs(rho))), b.op_norm)
    return {"left": schatten_norm(s.states["hartree"][1] - root, 2), "lam": lam, "w12": w12,
            "term": s.weyl_term}


def sqrt_metric(b: DynamicsBundle) -> dict:
    """Square roots of the nonlinear against the linear Hartree flow. Both
    flows are unitary conjugations, so each carries the square root vt of op0
    to the square root of its evolved operator at every snapshot; the two
    routes are compared once per flow, at time T."""
    s = b.streamed
    times = np.asarray(s.times)
    series = s.series["sqrt_comparison"]
    Lambda = cumulative_trapezoid(np.asarray(series["lam"]), times)
    c_series = np.array([w12 * (b.c_init + term)
                         for w12, term in zip(series["w12"], series["term"])])
    # raw envelope with unit constants: hbar * sqrt(int c^2 e^{2(Lambda(t)-Lambda(s))}),
    # with e^{2 Lambda(t)} taken out of the integral
    growth = np.exp(Lambda)
    env0 = b.grid.hbar * growth * np.sqrt(cumulative_trapezoid((c_series / growth) ** 2, times))
    return {
        "times": times, "left": np.array(series["left"]), "env0": env0,
        "sqrt_two_routes_gap": max(schatten_norm(operator_sqrt(op) - root, 2)
                                   for op, root in (s.final["linear"], s.final["hartree"])),
    }


def sqrt_comparison_report(members: list) -> ProbeReport:
    report = _report("sqrt_comparison", members, [float(m["left"][-1]) for m in members],
                     [float(m["env0"][-1]) for m in members])
    ratios = []
    for m in members:
        left, env0 = m["left"], m["env0"]
        fit = fit_envelope_scale(left, env0)
        if fit is None:
            continue
        c_star, later = fit
        ratios.append(float(np.max(left[later] / (c_star * env0[later]))))
    report.require("left_under_fitted_envelope", max(ratios, default=0.0), 1.0 + RATIO_SLACK)
    report.require("sqrt_commutes_with_flow",
                   max(m["sqrt_two_routes_gap"] for m in members), 1e-8)
    report.details["envelope_ratios"] = ratios
    return report


# ---------------------------------------------------------------------------
# regularity tracking


def regularity_snapshot(b: DynamicsBundle, s: Snapshot) -> dict:
    """The W^{k,2}(<p>^{2n}) norm of the root carried by the linear Hartree
    flow and the rate max ||rho||_{W^{2n, 3 +- eps}} of the Vlasov density,
    eps = 1/2."""
    k, n = b.args["k"], b.args["n"]
    root, rho = s.states["linear"][1], s.states["vlasov"][1].rho
    return {"norm": quantum_sobolev_norm(root, k, n=2 * n, wrap_tol=SQRT_WRAP_TOL),
            "rho_rate": max(spatial_sobolev_norm(rho, b.grid.L_x, 2 * n, 3.0 + eps)
                            for eps in (-0.5, 0.5))}


def regularity_metric(b: DynamicsBundle) -> dict:
    """W^k(m) norms of the square root carried by the linear Hartree flow."""
    times = np.asarray(b.streamed.times)
    series = b.streamed.series["regularity"]
    norms = np.array(series["norm"])
    return {"times": times, "norms": norms,
            "integral": cumulative_trapezoid(series["rho_rate"], times),
            "init_norm": float(norms[0])}


def regularity_report(members: list) -> ProbeReport:
    report = _report("regularity_tracking", members,
                     [float(np.max(m["norms"])) for m in members],
                     [ENVELOPE_SLACK_FACTOR * m["init_norm"] for m in members])
    worst = 0.0
    for m in members:
        norms, integral = m["norms"], m["integral"]
        c_star = fit_c_star(m["times"], norms, integral)
        env = ENVELOPE_SLACK_FACTOR * norms[0] * np.exp(c_star * integral)
        worst = max(worst, float(np.max(norms / env)))
    report.require("within_exponential_envelope", worst, 1.0)
    inits = {m["N"]: m["init_norm"] for m in members}
    refine = max(
        (abs(inits[2 * N] - inits[N]) / inits[N] for N in inits if 2 * N in inits),
        default=0.0,
    )
    report.require("init_norm_refinement_stable", refine, 0.05)
    report.details["init_norms"] = inits
    return report


# ---------------------------------------------------------------------------
# single-inequality probes


def wick_structure_metric(b: DynamicsBundle) -> dict:
    f, grid = b.gaussian, b.grid
    op_f = weyl_quantize(f)
    smoothed, op_wick = b.gaussian_wick.smoothed, b.gaussian_wick.wick
    gap_op = schatten_norm(op_f - op_wick, 2)
    gap_field = lebesgue_norm(f - smoothed, 2)
    mixed = derivative(derivative(f.values, grid.L_x, axis=0), grid.L_xi, axis=1)
    hess_sq = (derivative(f.values, grid.L_x, axis=0, order=2) ** 2 + 2 * mixed**2
               + derivative(f.values, grid.L_xi, axis=1, order=2) ** 2)
    hess_norm = float(np.sqrt(np.sum(hess_sq) * grid.cell))
    # the complex-transform route with the kernel sampled afresh
    reference = husimi_convolve(f, kernel=gaussian_phase_kernel(grid))
    identity_gap = schatten_norm(op_wick - weyl_quantize(reference), 2)
    ps = (1, 2, np.inf)
    ev, norms = hermitian_schatten_norms(op_wick, ps)
    contraction = {"inf" if np.isinf(p) else str(p): (norm, lebesgue_norm(f, p))
                   for p, norm in zip(ps, norms)}
    return {
        "gap_op": gap_op, "gap_field": gap_field,
        "gap_equality_error": abs(gap_op - gap_field),
        "hbar_budget": grid.hbar * hess_norm,
        "identity_gap": identity_gap,
        "contraction": contraction,
        "min_eig": float(ev[0]), "max_eig": float(ev[-1]),
        "op_norm": contraction["inf"][0],
    }


def wick_structure_report(members: list) -> ProbeReport:
    """Wick-quantization structure: positivity, convolution identity (the
    real-transform smoothing against the complex-transform one), Schatten
    contraction, and the O(hbar) Wick-Weyl gap."""
    report = _report("wick_structure", members, [m["gap_op"] for m in members],
                     [m["hbar_budget"] for m in members], [0.85, 1.15], "gap_slope")
    report.require("gap_equality", max(m["gap_equality_error"] for m in members), 1e-10)
    report.require("convolution_identity", max(m["identity_gap"] for m in members), 1e-10)
    report.require("positivity", all(m["min_eig"] >= -1e-10 * m["op_norm"] for m in members),
                   True)
    report.require("schatten_contraction", all(
        v[0] <= v[1] * (1 + 1e-10)
        for m in members for v in m["contraction"].values()
    ), True)
    report.details["members"] = members
    return report


def wick_square_report(members: list) -> ProbeReport:
    """Wick-square commutator gap: ratio <= 48 at every point, slope ~ hbar."""
    report = _report("wick_square", members, [m["lhs_p2"] for m in members],
                     [m["budget_p2"] for m in members], [0.85, 1.15])
    for key in ("1", "2", "inf"):
        worst = max(m[f"lhs_p{key}"] / m[f"budget_p{key}"] for m in members)
        report.require(f"ratio_p{key}_below_48", worst, 48.0)
    report.details["members"] = members
    return report


def weight_remainder_metric(b: DynamicsBundle) -> dict:
    return {**weight_remainder_probe(b.gaussian),
            **{f"gc_{k}": v for k, v in gaussian_commutator_probe(b.gaussian).items()}}


def weight_remainder_report(members: list) -> ProbeReport:
    """Weight remainders (ratios <= 1) and the Gaussian-commutator boundedness."""
    report = _report("weight_remainder", members, [m["lhs1"] for m in members],
                     [m["budget1"] for m in members])
    r1 = max(m["lhs1"] / m["budget1"] for m in members)
    r2 = max(m["lhs2"] / m["budget2"] for m in members)
    report.require("first_order_ratio", r1, 1.0 + RATIO_SLACK)
    report.require("second_order_ratio", r2, 1.0 + RATIO_SLACK)
    gc_ratios = [m["gc_lhs"] / m["gc_budget"] for m in members]
    report.require("gaussian_commutator_ratio_flat", fit_loglog(report.hbar, gc_ratios)[0],
                   [-0.1, 0.1])
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
        # the density of wick(src) from the xi-sums of src, and wick(mu) as
        # the Weyl quantization of mu smoothed in its mode block
        rho = husimi_marginal(PhaseField(grid, fsrc**2 + 0.3))
        smoothed_mu = field_from_modes(grid.N, husimi_mode_block(grid, random_mode_block(rng, 4)))
        mu = weyl_quantize(PhaseField(grid, smoothed_mu))
        r = commutator_probe(rho, mu)
        ratios.append(r["lhs"] / r["budget"])
    return {"ratio_mean": float(np.mean(ratios)), "ratio_max": float(np.max(ratios))}


def commutator_report(members: list) -> ProbeReport:
    """Semiclassical commutator estimate: the measured ratio is hbar-uniform."""
    report = _report("commutator_estimate", members, [m["ratio_mean"] for m in members],
                     [1.0] * len(members), [-0.15, 0.15], "ratio_slope_flat")
    report.details["members"] = members
    return report


# ---------------------------------------------------------------------------
# the probe table and the one member pass

class Probe(NamedTuple):
    """One probe: the metric of one grid's bundle, the reports built from
    the metrics over N, the FLOWS that the metric reads (none for a static
    probe) and, for a time-series probe, the per-snapshot consumer that the
    bundle runs while it streams them."""

    metric: Callable[[DynamicsBundle], dict]
    reports: Callable[[list], list[ProbeReport]]
    flows: tuple[str, ...] = ()
    snapshot: Callable[[DynamicsBundle, Snapshot], dict] | None = None


# probe name -> Probe, in the order of config.PROBES; the member adds N and
# hbar to every metric
PROBE_TABLE = {
    "convergence": Probe(headline_metric, lambda ms: [convergence_report(ms)],
                         ("vlasov", "linear", "hartree")),
    "wick_structure": Probe(wick_structure_metric, lambda ms: [wick_structure_report(ms)]),
    "wick_square": Probe(lambda b: wick_square_probe(b.gaussian_wick),
                         lambda ms: [wick_square_report(ms)]),
    "weight_remainder": Probe(weight_remainder_metric, lambda ms: [weight_remainder_report(ms)]),
    "commutator": Probe(commutator_metric, lambda ms: [commutator_report(ms)]),
    "b_remainder": Probe(lambda b: b_bound_probe(b.f0, b.args["sign"]),
                         _slope_report("b_remainder", [1.8, 2.2])),
    "init_diff": Probe(lambda b: init_diff_probe(b.gaussian_wick),
                       _slope_report("init_diff", [0.8, 1.2])),
    "positivity_defect": Probe(defect_metric, lambda ms: list(defect_reports(ms)),
                               ("vlasov", "linear"), defect_snapshot),
    "sqrt_comparison": Probe(sqrt_metric, lambda ms: [sqrt_comparison_report(ms)],
                             ("vlasov", "linear", "hartree"), sqrt_snapshot),
    "regularity": Probe(regularity_metric, lambda ms: [regularity_report(ms)],
                        ("vlasov", "linear"), regularity_snapshot),
}


def grid_member(args: dict) -> dict:
    """Metrics of every requested probe on the grid of size N, all read from
    one bundle, each with the grid's N and hbar.

    The static probes run first, then the flow probes, each in PROBE_TABLE
    order whatever the requested order: the flows are not yet held while the
    static metrics churn the heap. A PhaselabError is re-raised as the same
    class, with the probe and N in front of its message; one that a series
    probe's per-snapshot consumer raised names that probe and the snapshot
    time t.
    """
    bundle = DynamicsBundle(args)
    order = list(PROBE_TABLE)
    probes = sorted(args["probes"], key=lambda p: (bool(PROBE_TABLE[p].flows), order.index(p)))
    metrics = {}
    for p in probes:
        try:
            metrics[p] = {**PROBE_TABLE[p].metric(bundle), "N": bundle.grid.N,
                          "hbar": bundle.grid.hbar}
        except PhaselabError as exc:
            at = "" if exc.t is None else f", t={exc.t:.4g}"
            raise type(exc)(f"probe {exc.probe or p}, N={args['N']}{at}: {exc}") from exc
    return metrics


def sweep_reports(probes, N_list, jobs: int = 1, **settings) -> dict[str, list[ProbeReport]]:
    """Reports of the requested probes from one member pass over the grid
    ladder; ``settings`` go to every member (see MEMBER_DEFAULTS). Every
    setting is checked before any member runs: the probe list must not be
    empty or repeat a probe, the ladder needs at least 4 distinct grid sizes,
    q, the regularity index, must be 2, pairs a positive integer, k 0, 1 or
    2, n a non-negative integer, and the settings a config also holds pass
    config.validate. A PhaselabError from building a probe's reports is
    re-raised as the same class with the probe in front."""
    probes = tuple(probes)
    if not probes:
        raise ConfigurationError("sweep needs a nonempty probe list")
    if len(N_list) < 4:
        raise ConfigurationError("sweep needs at least 4 grid sizes")
    unknown = sorted(set(settings) - set(MEMBER_DEFAULTS) - {"profile", "T"})
    if unknown:
        raise ConfigurationError(f"unknown sweep settings {unknown}")
    if settings.get("q", 2) != 2:
        raise ConfigurationError(f"quantum Sobolev norms support q = 2 only, got {settings['q']}")
    for key, legal, low, high in (("pairs", "a positive integer", 1, np.inf),
                                  ("k", "0, 1 or 2", 0, 2),
                                  ("n", "a non-negative integer", 0, np.inf)):
        value = settings.get(key, MEMBER_DEFAULTS[key])
        if type(value) is not int or not low <= value <= high:
            raise ConfigurationError(f"sweep setting {key} must be {legal}, got {value!r}")
    unknown = [p for p in probes if p not in PROBE_TABLE]
    if unknown:
        raise ConfigurationError(f"unknown probes {unknown}; known: {tuple(PROBE_TABLE)}")
    validate({**{key: settings[key] for key in ("sign", "T", "dt", "seed", "L_x", "L_xi")
                 if key in settings},
              "probes": list(probes), "sweep_N": sorted(N_list)})
    members = run_members(grid_member, [dict(settings, N=N, probes=probes)
                                        for N in sorted(N_list)], jobs)
    reports = {}
    for p in probes:
        try:
            reports[p] = PROBE_TABLE[p].reports([m[p] for m in members])
        except PhaselabError as exc:
            raise type(exc)(f"probe {p}: {exc}") from exc
    return reports
