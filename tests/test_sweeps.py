import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phaselab.config import PROBES, load_config
from phaselab.errors import ConfigurationError, SupportEscapeError
from phaselab.sweeps import (
    FLOWS,
    PROBE_TABLE,
    grid_member,
    run_members,
    sweep_reports,
)
from phaselab.trajectory import DEFAULT_DT

ROOT = Path(__file__).resolve().parents[1]
PROFILE = {"name": "maxwellian", "perturbation": 0.1, "sigma_xi": 0.42}
SMALL = (48, 64, 96, 128)
# the probes with a per-snapshot consumer, which read the snapshot series
SERIES_PROBES = frozenset(p for p, probe in PROBE_TABLE.items() if probe.snapshot)


def test_convergence_needs_four_points():
    with pytest.raises(ConfigurationError):
        sweep_reports(["convergence"], (48, 64, 96), profile=PROFILE, T=0.1)


def test_every_sweep_needs_probes_and_four_points_before_any_member(monkeypatch):
    from phaselab import sweeps

    ran = []
    monkeypatch.setattr(sweeps, "run_members", lambda *a, **k: ran.append(a))
    with pytest.raises(ConfigurationError, match="at least 4 grid sizes"):
        sweep_reports(["wick_square"], (48, 64, 96))
    with pytest.raises(ConfigurationError, match="nonempty probe list"):
        sweep_reports([], SMALL)
    assert ran == []


def test_headline_member_t_zero():
    # at T = 0 the error equals the initial Wick-square gap
    m = grid_member(dict(N=48, profile=PROFILE, T=0.0, sign=1,
                         probes=["convergence"]))["convergence"]
    assert m["err_weyl"] == pytest.approx(m["init_gap"], rel=1e-12)
    assert m["err_wigner"] == pytest.approx(m["err_weyl"], rel=1e-10)


def test_t_zero_slope_is_first_order():
    rep = sweep_reports(["convergence"], SMALL, profile=PROFILE, T=0.0)["convergence"][0]
    assert 0.85 <= rep.slope <= 1.15


def test_interaction_off_error_constant():
    m0 = grid_member(dict(N=64, profile=PROFILE, T=0.0, sign=0,
                          probes=["convergence"]))["convergence"]
    m1 = grid_member(dict(N=64, profile=PROFILE, T=0.3, sign=0, dt=0.015,
                          probes=["convergence"]))["convergence"]
    assert abs(m1["err_wigner"] - m0["err_wigner"]) < 1e-9


def test_convergence_sweep_small_window():
    rep = sweep_reports(["convergence"], SMALL, profile=PROFILE, T=0.2)["convergence"][0]
    assert rep.passed
    assert 0.85 <= rep.slope <= 1.15
    assert rep.tolerance["triangle_decomposition"]["ok"]


def test_parallel_members_match_serial():
    args = [dict(N=N, profile=PROFILE, T=0.1, sign=1, probes=["convergence"]) for N in (48, 64)]
    serial = [m["convergence"] for m in run_members(grid_member, args, jobs=1)]
    parallel = [m["convergence"] for m in run_members(grid_member, args, jobs=2)]
    for a, b in zip(serial, parallel):
        assert a["err_wigner"] == b["err_wigner"]
        assert a["err_weyl"] == b["err_weyl"]


def test_wick_structure_sweep():
    rep = sweep_reports(["wick_structure"], SMALL)["wick_structure"][0]
    assert rep.passed, rep.tolerance


def test_convolution_identity_compares_two_smoothing_routes(monkeypatch):
    # perturbing the kernel of the reference route alone must fail the check
    from phaselab import sweeps

    kernel = sweeps.gaussian_phase_kernel
    monkeypatch.setattr(sweeps, "gaussian_phase_kernel", lambda grid: kernel(grid) * (1 + 1e-6))
    rep = sweep_reports(["wick_structure"], SMALL)["wick_structure"][0]
    check = rep.tolerance["convolution_identity"]
    assert not check["ok"] and check["observed"] > 1e-10
    assert all(rep.tolerance[name]["ok"] for name in rep.tolerance
               if name != "convolution_identity")


def test_wick_square_sweep():
    rep = sweep_reports(["wick_square"], (64, 96, 128, 192))["wick_square"][0]
    assert rep.passed, rep.tolerance


def test_weight_remainder_sweep():
    rep = sweep_reports(["weight_remainder"], (64, 96, 128, 192))["weight_remainder"][0]
    assert rep.passed, rep.tolerance


def test_commutator_sweep():
    rep = sweep_reports(["commutator"], SMALL, pairs=4)["commutator"][0]
    assert rep.passed, rep.tolerance


def test_b_bound_sweep():
    rep = sweep_reports(["b_remainder"], SMALL, profile=PROFILE)["b_remainder"][0]
    assert rep.passed, rep.tolerance
    assert 1.8 <= rep.slope <= 2.2


def test_init_diff_sweep():
    rep = sweep_reports(["init_diff"], SMALL)["init_diff"][0]
    assert rep.passed, rep.tolerance


def test_defect_sweep():
    pos, diag = sweep_reports(["positivity_defect"], SMALL, profile=PROFILE,
                              T=0.25)["positivity_defect"]
    assert pos.passed, pos.tolerance
    assert diag.passed, diag.tolerance
    assert all(r <= 1.0 for r in pos.ratio)


def test_regularity_free_flow_oracle():
    # V = 0: the W^{1,2} norm matches the free-transport chain rule
    # grad_xi (f o Phi_t) = (grad_xi - t grad_x) f o Phi_t
    import math

    from phaselab import make_grid, sample_field, wigner_transform
    from phaselab.budgets import sqrt_field
    from phaselab.coherent import wick_quantize
    from phaselab.hartree import evolve_hartree
    from phaselab.norms import quantum_sobolev_norm
    from phaselab.spectral import derivative

    grid = make_grid(64, 2 * np.pi, 2 * np.pi)
    f0 = sample_field(grid, PROFILE)
    vt = wick_quantize(sqrt_field(f0))
    t = 0.25
    traj = evolve_hartree(vt, t, 0.0125, 0)
    norm_t = quantum_sobolev_norm(traj.final(), 1)
    w0 = wigner_transform(vt).values.astype(complex)
    dx_ = derivative(w0, grid.L_x, axis=0)
    dxi_ = derivative(w0, grid.L_xi, axis=1)
    shear = dxi_ - t * dx_
    oracle = math.sqrt(
        (np.sum(np.abs(w0) ** 2) + np.sum(np.abs(dx_) ** 2) + np.sum(np.abs(shear) ** 2))
        * grid.cell)
    assert norm_t == pytest.approx(oracle, rel=1e-9)


def test_regularity_sweep_small():
    rep = sweep_reports(["regularity"], SMALL, profile=PROFILE, T=0.25,
                        k=1, q=2, n=1)["regularity"][0]
    assert rep.passed, rep.tolerance


def test_regularity_fractional_schatten_indices(monkeypatch):
    # the quantum Sobolev norms take q = 2 alone, so q = 2.5 is refused before
    # any member runs
    from phaselab import sweeps

    def no_member(args):
        raise AssertionError("a member ran")

    monkeypatch.setattr(sweeps, "grid_member", no_member)
    with pytest.raises(ConfigurationError, match="q = 2 only, got 2.5"):
        sweep_reports(["regularity"], SMALL, profile=PROFILE, T=0.1, k=1, q=2.5, n=1)


@pytest.mark.parametrize("probes, ladder, settings, match", [
    (["commutator"], SMALL, {"pairs": 0}, "pairs must be a positive integer, got 0"),
    (["regularity"], SMALL, {"n": 0.5}, "n must be a non-negative integer, got 0.5"),
    (["convergence"], SMALL, {"seed": -1}, "seed must be nonnegative"),
    (["wick_structure", "regularity"], SMALL, {"k": 3}, "k must be 0, 1 or 2, got 3"),
    (["wick_structure", "convergence"], SMALL, {"sign": 2}, "sign must be -1, 0, or \\+1"),
    (["wick_structure", "convergence"], SMALL, {"T": -1.0}, "T must be nonnegative"),
    (["wick_square", "wick_square"], SMALL, {}, "must not list a probe twice"),
    (["wick_square"], (48, 64, 64, 96), {}, "sweep_N must be strictly increasing"),
], ids=["pairs=0", "n=0.5", "seed=-1", "k=3", "sign=2", "T=-1", "repeated_probe",
        "repeated_N"])
def test_bad_settings_fail_before_any_member(probes, ladder, settings, match, monkeypatch):
    from phaselab import sweeps

    def no_member(args):
        raise AssertionError("a member ran")

    monkeypatch.setattr(sweeps, "grid_member", no_member)
    with pytest.raises(ConfigurationError, match=match):
        sweep_reports(probes, ladder, profile=PROFILE, **settings)


def test_homogeneous_norms_constant():
    from phaselab import make_grid, sample_field
    from phaselab.budgets import sqrt_field
    from phaselab.coherent import wick_quantize
    from phaselab.hartree import evolve_linear_hartree
    from phaselab.norms import quantum_sobolev_norm
    from phaselab.vlasov import evolve_vlasov

    grid = make_grid(48, 2 * np.pi, 2 * np.pi)
    f0 = sample_field(grid, {"name": "maxwellian", "perturbation": 0.0, "sigma_xi": 0.35})
    ftraj = evolve_vlasov(f0, 0.2, 0.02, +1, snapshot_stride=5)
    vt = wick_quantize(sqrt_field(f0))
    vtraj = evolve_linear_hartree(vt, ftraj.fields, 0.2, 0.02, snapshot_stride=5)
    norms = [quantum_sobolev_norm(v, 1) for v in vtraj.snapshots]
    assert np.max(np.abs(np.array(norms) - norms[0])) < 1e-8 * norms[0]


def _count_flows(monkeypatch):
    """Wrap the step generators sweeps runs: the Vlasov flow and the two
    Hartree flows. Return one record per flow started: its name, the number
    of snapshots it gave and how many of them carried a root."""
    from phaselab import sweeps

    flows = []
    for name in ("vlasov_steps", "hartree_steps", "linear_hartree_steps"):
        def counted(*args, _name=name, _steps=getattr(sweeps, name), **kwargs):
            record = {"flow": _name, "snapshots": 0, "roots": 0}
            flows.append(record)
            for t, state, third in _steps(*args, **kwargs):
                record["snapshots"] += 1
                # the Vlasov flow yields its field third, a Hartree flow its root
                record["roots"] += _name != "vlasov_steps" and third is not None
                yield t, state, third
        monkeypatch.setattr(sweeps, name, counted)
    return flows


def _carries_root(record) -> bool:
    return record["roots"] == record["snapshots"] > 0


def test_bundle_evolves_each_flow_once(monkeypatch):
    # Vlasov, Hartree and linear Hartree; both Hartree flows carry the root
    flows = _count_flows(monkeypatch)
    probes = ["convergence", "positivity_defect", "sqrt_comparison", "regularity"]
    sweep_reports(probes, SMALL, profile=PROFILE, T=0.1)
    assert len(flows) == 3 * len(SMALL)
    for name in ("vlasov_steps", "hartree_steps", "linear_hartree_steps"):
        assert sum(f["flow"] == name for f in flows) == len(SMALL)
    assert sum(_carries_root(f) for f in flows) == 2 * len(SMALL)


def test_positivity_defect_alone_carries_the_root(monkeypatch):
    # the root rides in the packed kernel at no FFT cost, so the linear flow
    # carries it even where no requested probe reads it; no nonlinear flow runs
    flows = _count_flows(monkeypatch)
    grid_member(dict(N=48, profile=PROFILE, T=0.1, probes=["positivity_defect"]))
    assert [f["flow"] for f in flows] == ["vlasov_steps", "linear_hartree_steps"]
    assert [_carries_root(f) for f in flows] == [False, True]


# flow name in FLOWS -> the step generator that _count_flows records it by
STEPPERS = {"vlasov": "vlasov_steps", "linear": "linear_hartree_steps",
            "hartree": "hartree_steps"}


@pytest.mark.parametrize("probe", PROBES)
def test_probe_alone_starts_its_declared_flows(probe, monkeypatch):
    # exactly the flows the probe names, each once and in FLOWS order; a
    # static probe starts none
    assert set(PROBE_TABLE[probe].flows) <= set(FLOWS)
    flows = _count_flows(monkeypatch)
    grid_member(dict(N=48, profile=PROFILE, T=0.1, probes=[probe], pairs=2))
    assert [f["flow"] for f in flows] == [STEPPERS[n] for n in FLOWS
                                          if n in PROBE_TABLE[probe].flows]


def test_headline_alone_evolves_three_flows_with_two_snapshots(monkeypatch):
    flows = _count_flows(monkeypatch)
    sweep_reports(["convergence"], SMALL, profile=PROFILE, T=0.1)
    assert len(flows) == 3 * len(SMALL)
    assert all(f["snapshots"] == 2 for f in flows)
    # both Hartree flows carry the root, the Vlasov flow none
    assert sum(_carries_root(f) for f in flows) == 2 * len(SMALL)
    assert not any(_carries_root(f) for f in flows if f["flow"] == "vlasov_steps")


def _envelope(c, Lambda, times, scale=1.0) -> np.ndarray:
    """scale * sqrt(int_0^t c(s)^2 e^{2 (Lambda(t) - Lambda(s))} ds) at each
    time t, with e^{2 Lambda(t)} taken out of the integral. The scale
    multiplies e^{Lambda(t)} before the root, in sqrt_metric's order."""
    from phaselab.budgets import cumulative_trapezoid

    growth = np.exp(Lambda)
    return scale * growth * np.sqrt(cumulative_trapezoid((c / growth) ** 2, times))


def test_envelope_matches_the_prefix_integrals():
    # the reference integrates c^2 e^{2 (Lambda(t) - Lambda(s))} afresh over
    # every prefix [0, t]
    import math

    from phaselab.budgets import cumulative_trapezoid

    rng = np.random.default_rng(7)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, 40))])
    c = rng.uniform(0.1, 2.0, len(times))
    lam = rng.uniform(0.0, 1.0, len(times))
    Lambda = cumulative_trapezoid(lam, times)
    Lambda *= 20.0 / Lambda[-1]
    want = np.zeros(len(times))
    for n in range(1, len(times)):
        seg = c[: n + 1] ** 2 * np.exp(2.0 * (Lambda[n] - Lambda[: n + 1]))
        want[n] = math.sqrt(np.trapezoid(seg, times[: n + 1]))
    np.testing.assert_allclose(_envelope(c, Lambda, times), want, rtol=1e-13, atol=0)


def _stored_series(args: dict) -> dict:
    """The series metrics the stored way: every flow evolved with all its
    snapshots at the member's stride, then each snapshot read from the
    stored lists."""
    from phaselab.budgets import SQRT_WRAP_TOL, cumulative_trapezoid, quantum_rate
    from phaselab.calculus import operator_sqrt, spatial_density
    from phaselab.hartree import evolve_hartree, evolve_linear_hartree
    from phaselab.norms import (quantum_sobolev_norm, schatten_norm, spatial_lebesgue_norm,
                                spatial_sobolev_norm)
    from phaselab.probes import grad_e_sup, hessian_xi_norm
    from phaselab.sweeps import DynamicsBundle
    from phaselab.trajectory import series_stride
    from phaselab.transforms import weyl_quantize
    from phaselab.vlasov import evolve_vlasov

    b = DynamicsBundle(args)
    grid, T, dt, vt = b.grid, args["T"], b.dt, b.wick_datum[0]
    stride = series_stride(round(T / dt))
    ftraj = evolve_vlasov(b.f0, T, dt, b.args["sign"], snapshot_stride=stride)
    lin = evolve_linear_hartree(b.op0, ftraj.fields, T, dt, snapshot_stride=stride, root=vt)
    hart = evolve_hartree(b.op0, T, dt, b.args["sign"], snapshot_stride=stride, root=vt)
    times = np.asarray(lin.snapshot_times)
    assert list(times) == ftraj.snapshot_times == hart.snapshot_times
    by_time = {fld.time: fld for fld in ftraj.fields}
    fields = [by_time[t] for t in ftraj.snapshot_times]
    gaps, left_diag, terms, rates = [], [], [], []
    for f, op_til, snap in zip(ftraj.snapshots, lin.snapshots, fields):
        op_f = weyl_quantize(f)
        gaps.append(schatten_norm(op_til - op_f, 2))
        rho_diff = spatial_density(op_til).real - spatial_density(op_f).real
        left_diag.append(spatial_lebesgue_norm(rho_diff, grid.dx, 2))
        terms.append(spatial_sobolev_norm(snap.rho, grid.L_x, 1, np.inf)
                     * quantum_sobolev_norm(op_f, 2, n=2))
        rates.append(grad_e_sup(grid, snap.E) * hessian_xi_norm(f))
    lam, w12s = [], []
    for v, snap in zip(lin.root_snapshots, fields):
        rate, w12, _ = quantum_rate(v, float(np.max(np.abs(snap.rho))),
                                    schatten_norm(b.op0, np.inf))
        lam.append(rate)
        w12s.append(w12)
    Lambda = cumulative_trapezoid(np.array(lam), times)
    c_series = np.array([w12 * (b.c_init + term) for w12, term in zip(w12s, terms)])
    env0 = _envelope(c_series, Lambda, times, grid.hbar)
    k, n = b.args["k"], b.args["n"]
    rho_rates = [max(spatial_sobolev_norm(snap.rho, grid.L_x, 2 * n, 3.0 - 0.5),
                     spatial_sobolev_norm(snap.rho, grid.L_x, 2 * n, 3.0 + 0.5))
                 for snap in fields]
    return {
        "positivity_defect": {"times": times,
                              "left_positivity": np.asarray(gaps),
                              "left_diag": np.asarray(left_diag),
                              "budget_integral": cumulative_trapezoid(rates, times),
                              "diag_budget": grid.hbar * (b.c_init + max(terms))},
        "sqrt_comparison": {
            "times": times,
            "left": np.array([schatten_norm(a - c, 2)
                              for a, c in zip(hart.root_snapshots, lin.root_snapshots)]),
            "env0": env0,
            "sqrt_two_routes_gap": max(
                schatten_norm(operator_sqrt(tr.final()) - tr.root_snapshots[-1], 2)
                for tr in (lin, hart))},
        "regularity": {
            "times": times,
            "norms": np.array([quantum_sobolev_norm(v, k, n=2 * n, wrap_tol=SQRT_WRAP_TOL)
                               for v in lin.root_snapshots]),
            "integral": cumulative_trapezoid(rho_rates, times)},
    }


def test_streamed_series_equal_the_stored_ones():
    args = dict(N=48, profile=PROFILE, T=0.1, probes=sorted(SERIES_PROBES))
    streamed = grid_member(args)
    for probe, values in _stored_series(args).items():
        for key, want in values.items():
            assert np.array_equal(streamed[probe][key], want), (probe, key)


def test_series_snapshot_times_at_the_default_step():
    # every one of 8 steps: nine evenly spaced times, with no short last
    # interval
    from phaselab.sweeps import DynamicsBundle

    b = DynamicsBundle(dict(N=32, profile=PROFILE, T=0.5, probes=["regularity"]))
    assert b.streamed.times == pytest.approx([0.0625 * i for i in range(9)],
                                             rel=0, abs=1e-12)


def _square_kernels(obj, N: int, seen=None) -> list:
    """Every N x N array reachable from obj through attributes, lists and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (str, bytes, int, float)):
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj] if obj.shape == (N, N) else []
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    return [k for child in children for k in _square_kernels(child, N, seen)]


def test_flows_hold_only_their_final_state():
    from phaselab.sweeps import DynamicsBundle

    N = 48
    b = DynamicsBundle(dict(N=N, profile=PROFILE, T=0.1, probes=PROBES))
    for p in PROBES:
        PROBE_TABLE[p].metric(b)
    s = b.streamed
    assert len(s.times) > 2
    # the trajectories hold logs and fields, and no N x N kernel
    assert list(s.flows) == list(FLOWS)
    assert _square_kernels(s.flows, N) == []
    vlasov, hartree = s.flows["vlasov"], s.flows["hartree"]
    assert len(vlasov.fields) == len(vlasov.times)
    assert len(hartree.fields) == len(vlasov.fields)
    assert all(len(flow.times) == len(vlasov.times) for flow in s.flows.values())
    # the final states are f(T) and each Hartree flow's op and root
    assert list(s.final) == list(FLOWS)
    f, field = s.final["vlasov"]
    assert field.time == s.times[-1]
    assert [id(k) for k in _square_kernels(s.final["vlasov"], N)] == [id(f.values)]
    for name in ("linear", "hartree"):
        op, root = s.final[name]
        held = {id(k) for k in _square_kernels(s.final[name], N)}
        assert held == {id(op.kernel), id(root.kernel)}
    assert _square_kernels(s.series, N) == []


def test_streamed_error_names_probe_n_and_t(monkeypatch):
    # an error a series probe's per-snapshot consumer raises while the bundle
    # streams its flows names that probe, whichever flow probe started the
    # stream, and the snapshot time (mid-flow: T = 0.1 is 2 steps of 0.05)
    from phaselab import sweeps
    from phaselab.errors import WrapAmbiguityError

    def consumer(b, s):
        if s.t > 0.025:
            raise WrapAmbiguityError("antipodal mass")
        return sweeps.regularity_snapshot(b, s)

    monkeypatch.setitem(sweeps.PROBE_TABLE, "regularity",
                        sweeps.PROBE_TABLE["regularity"]._replace(snapshot=consumer))
    for probes in (["regularity"], ["regularity", "convergence"]):
        with pytest.raises(WrapAmbiguityError,
                           match=r"^probe regularity, N=48, t=0\.05: antipodal mass$"):
            grid_member(dict(N=48, profile=PROFILE, T=0.1, probes=probes))


def test_stream_steps_flows_in_order_and_collects_series():
    # toy flows: each step logs its flow name; a consumer reads states by name
    from phaselab.errors import WrapAmbiguityError
    from phaselab.sweeps import stream

    stepped = []

    def flow(name, scale):
        for n in range(3):
            stepped.append(name)
            yield 0.5 * n, scale * n, -n

    def fail_late(s):
        if s.t > 0.75:
            raise WrapAmbiguityError("late")
        return {}

    final, times, series = stream(
        {"b": flow("b", 10), "a": flow("a", 1)},
        {"sum": lambda s: {"total": s.states["a"][0] + s.states["b"][0],
                           "neg": s.states["b"][1]},
         "a_only": lambda s: {"a": s.states["a"][0]}})
    assert stepped == ["b", "a"] * 3
    assert times == [0.0, 0.5, 1.0]
    assert final == {"b": (20, -2), "a": (2, -2)}
    assert series == {"sum": {"total": [0, 11, 22], "neg": [0, -1, -2]},
                      "a_only": {"a": [0, 1, 2]}}
    with pytest.raises(WrapAmbiguityError) as info:
        stream({"a": flow("a", 1)}, {"ok": lambda s: {}, "fails": fail_late})
    assert (info.value.probe, info.value.t) == ("fails", 1.0)


def test_stream_holds_no_state_of_the_previous_snapshot(grid32):
    # each toy flow yields fresh operators: when the consumers read snapshot
    # n + 1, no operator of snapshot n is alive
    import weakref

    from phaselab.operators import DensityOperator
    from phaselab.sweeps import stream

    def flow():
        for n in range(5):
            yield 0.5 * n, *(DensityOperator(grid32, np.eye(32)) for _ in range(2))

    previous = []

    def consume(s):
        alive = sum(ref() is not None for ref in previous)
        previous[:] = [weakref.ref(op) for state in s.states.values() for op in state]
        return {"alive": alive}

    final, times, series = stream({"a": flow(), "b": flow()}, {"c": consume})
    assert times == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert series["c"]["alive"] == [0] * 5
    assert all(ref() is op for ref, op in zip(previous, [*final["a"], *final["b"]]))


def _count_linalg(monkeypatch) -> dict:
    """Count the svd, eigh and eigvalsh calls from here on."""
    calls = {"svd": 0, "eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _kernel=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_wick_structure_member_takes_one_eigvalsh(monkeypatch):
    # the Wick operator is flagged Hermitian: one eigvalsh gives its least and
    # largest eigenvalue and its Schatten 1- and inf-norms, with no SVD
    calls = _count_linalg(monkeypatch)
    grid_member(dict(N=64, profile=PROFILE, T=0.5, probes=["wick_structure"]))
    assert calls == {"svd": 0, "eigh": 0, "eigvalsh": 1}


def test_default_member_decomposition_count(monkeypatch):
    # one N = 64 member of all ten probes: one eigvalsh each for the Wick
    # operator, the Wick-square gap and ||op0||_inf, one Gram eigvalsh per
    # snapshot for the quantum rate (9), one eigh per Hartree flow at T,
    # and no SVD
    calls = _count_linalg(monkeypatch)
    grid_member(dict(N=64, profile=PROFILE, T=0.5, probes=PROBES))
    assert calls == {"svd": 0, "eigh": 2, "eigvalsh": 12}


def test_static_data_released_before_the_flows(monkeypatch):
    # while the flows stream, the bundle holds f0, vt and op0, and none of
    # the Gaussian data of the static probes
    from phaselab import sweeps

    N = 48
    held = []

    def consumer(b, s):
        held.append({id(k) for k in _square_kernels(b, N)})
        return sweeps.regularity_snapshot(b, s)

    monkeypatch.setitem(sweeps.PROBE_TABLE, "regularity",
                        sweeps.PROBE_TABLE["regularity"]._replace(snapshot=consumer))
    b = sweeps.DynamicsBundle(dict(N=N, profile=PROFILE, T=0.1, probes=PROBES, pairs=2))
    for p in ("wick_structure", "wick_square", "init_diff", "regularity"):
        PROBE_TABLE[p].metric(b)
    vt, op0 = b.wick_datum
    assert held and all(ids == {id(b.f0.values), id(vt.kernel), id(op0.kernel)}
                        for ids in held)


def test_sweep_rejects_unknown_settings_and_probes():
    # a misspelled setting is not dropped in silence, and an unknown probe is
    # a configuration error, not a ValueError from inside a member
    with pytest.raises(ConfigurationError, match="unknown sweep settings \\['pair'\\]"):
        sweep_reports(["commutator"], SMALL, profile=PROFILE, T=0.1, pair=2)
    with pytest.raises(ConfigurationError, match="unknown probes \\['nosuch'\\]"):
        sweep_reports(["nosuch"], SMALL, profile=PROFILE, T=0.1)


def test_member_error_names_probe_and_n(monkeypatch):
    # a solver error keeps its class and gains the probe and grid in front
    from phaselab import vlasov

    monkeypatch.setattr(vlasov, "BOUNDARY_TOL", -1.0)
    with pytest.raises(SupportEscapeError,
                       match=r"^probe convergence, N=48: momentum-boundary mass"):
        grid_member(dict(N=48, profile=PROFILE, T=0.1, probes=["convergence"]))


def test_sqrt_comparison_dense_kernel_count(monkeypatch):
    """One eigh per flow at time T checks the carried square roots; nothing
    else in the square-root analysis takes an eigh or an SVD."""
    calls = _count_linalg(monkeypatch)
    grid_member(dict(N=64, profile=PROFILE, T=0.5, probes=("sqrt_comparison",)))
    assert (calls["eigh"], calls["svd"]) == (2, 0)


def test_headline_and_weyl_terms_share_end_quantizations(monkeypatch):
    """With the headline and a series probe on one grid, each Vlasov snapshot
    is quantized once for the series and f0 and f(T) once more for the
    headline, which reads the same bits as alone."""
    from phaselab import sweeps

    args = dict(N=64, profile=PROFILE, T=0.5)
    alone = grid_member(dict(args, probes=("convergence",)))
    calls = []
    quantize = sweeps.weyl_quantize
    monkeypatch.setattr(sweeps, "weyl_quantize", lambda f: calls.append(1) or quantize(f))
    both = grid_member(dict(args, probes=("convergence", "positivity_defect")))
    # one per Vlasov snapshot (t = 0 and each of the 8 steps), plus f0 and
    # f(T) for the headline
    assert len(calls) == 11
    assert both["convergence"] == alone["convergence"]


def test_member_order_does_not_follow_the_request(monkeypatch):
    """Requested flow-probes-first or headline-last, a member runs the same
    quantizations and reads the same bits."""
    from phaselab import sweeps

    args = dict(N=64, profile=PROFILE, T=0.5)
    calls = []
    quantize = sweeps.weyl_quantize
    monkeypatch.setattr(sweeps, "weyl_quantize", lambda f: calls.append(1) or quantize(f))
    reordered = grid_member(dict(args, probes=("positivity_defect", "convergence")))
    assert len(calls) == 11
    monkeypatch.setattr(sweeps, "weyl_quantize", quantize)
    ordered = grid_member(dict(args, probes=("convergence", "positivity_defect")))
    assert reordered["convergence"] == ordered["convergence"]
    for key, value in ordered["positivity_defect"].items():
        assert np.array_equal(reordered["positivity_defect"][key], value), key


@pytest.mark.parametrize("probe", ["weight_remainder", "init_diff"], ids=lambda p: p + "_sweep")
def test_static_sweeps_honour_jobs(probe, monkeypatch):
    from phaselab import sweeps

    pool_sizes = []

    def spy(fn, arg_list, jobs=1):
        pool_sizes.append(jobs)
        return run_members(fn, arg_list, jobs)

    ladder = (48, 64, 96, 128)
    serial = sweep_reports([probe], ladder, 1)[probe][0].to_json()
    monkeypatch.setattr(sweeps, "run_members", spy)
    assert sweep_reports([probe], ladder, 2)[probe][0].to_json() == serial
    assert pool_sizes == [2]


def test_pool_gets_largest_grid_first(monkeypatch):
    import concurrent.futures
    from concurrent.futures import Future

    submitted = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, arg):
            submitted.append(arg["N"])
            future = Future()
            future.set_result(fn(arg))
            return future

        def map(self, fn, args):
            args = list(args)
            submitted.extend(a["N"] for a in args)
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    results = run_members(lambda a: a["N"], [dict(N=N) for N in SMALL], jobs=2)
    assert submitted == sorted(SMALL, reverse=True)
    assert results == list(SMALL)


def _worker_freeze_count(arg):
    """A pool member: the garbage collector's frozen-object count in the
    worker, or a ValueError for a negative N."""
    if arg["N"] < 0:
        raise ValueError("member failed")
    return gc.get_freeze_count()


def test_pool_freezes_the_heap_only_while_it_runs(monkeypatch):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawned = []
    spawn = ProcessPoolExecutor._spawn_process
    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process",
                        lambda pool: spawned.append(1) or spawn(pool))
    # more jobs than members: the pool still starts one worker per member
    counts = run_members(_worker_freeze_count, [dict(N=48), dict(N=64)], jobs=3)
    if multiprocessing.get_start_method() == "fork":
        # the workers forked from the frozen heap, all at the first submit
        assert all(c > 0 for c in counts)
        assert len(spawned) == 2
    assert gc.get_freeze_count() == 0
    with pytest.raises(ValueError, match="member failed"):
        run_members(_worker_freeze_count, [dict(N=48), dict(N=-1)], jobs=2)
    assert gc.get_freeze_count() == 0


def test_cli_import_loads_no_pool_module():
    # the pool modules load only when a sweep runs members in a pool, so the
    # set-up and a one-job sweep skip them
    code = ("import sys, phaselab.cli\n"
            "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process'"
            " or m.split('.')[0] == 'multiprocessing'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_ten_probe_sweep_is_one_member_pass(monkeypatch):
    from phaselab import make_grid, sweeps
    from phaselab.config import PROBES

    calls, members = [], []

    def spy(fn, arg_list, jobs=1):
        calls.append([a["N"] for a in arg_list])
        members.extend(run_members(fn, arg_list, jobs))
        return members

    monkeypatch.setattr(sweeps, "run_members", spy)
    reports = sweep_reports(PROBES, SMALL, profile=PROFILE, T=0.1)
    assert calls == [list(SMALL)]
    assert tuple(reports) == PROBES
    # the member stamps every probe's metric with its grid's N and hbar
    for N, member in zip(SMALL, members):
        hbar = make_grid(N, 2 * np.pi, 2 * np.pi).hbar
        assert sorted(member) == sorted(PROBES)
        assert all(m["N"] == N and m["hbar"] == hbar for m in member.values()), N
    # every recorded verdict is the rule applied to the recorded observed and bound
    for rep in (r for reps in reports.values() for r in reps):
        data = json.loads(rep.to_json())
        for name, check in data["tolerance"].items():
            observed, bound = check["observed"], check["bound"]
            if bound is True:
                expected = observed is True
            elif isinstance(bound, list):
                expected = bound[0] <= observed and observed <= bound[1]
            else:
                expected = observed <= bound
            assert check["ok"] is expected, (rep.probe, name)
        assert data["passed"] is all(c["ok"] for c in data["tolerance"].values()), rep.probe
    assert reports["commutator"][0].slope_stderr is not None


# ---------------------------------------------------------------------------
# the default step against dt / 2 on the datum of the default sweep

DEFAULT_PROFILE = load_config(Path(__file__).resolve().parents[1]
                              / "configs" / "default.json")["profile"]


def _halving_pair(N: int, probes) -> list[dict]:
    """Members at the default step and at DEFAULT_DT / 2, T = 0.5, sign +1."""
    return [grid_member(dict(N=N, profile=DEFAULT_PROFILE, T=0.5, sign=1, dt=dt,
                             probes=list(probes)))
            for dt in (None, DEFAULT_DT / 2)]


def _rel(coarse: float, fine: float) -> float:
    return abs(coarse - fine) / abs(fine)


def test_default_step_resolves_headline():
    coarse, fine = (m["convergence"] for m in _halving_pair(256, ["convergence"]))
    assert coarse["dt"] == DEFAULT_DT
    for key in ("err_wigner", "err_weyl"):
        # the relative tolerance of the benchmark's headline reference
        assert _rel(coarse[key], fine[key]) <= 1e-5, key


def test_default_step_resolves_series_probes():
    coarse, fine = _halving_pair(128, sorted(SERIES_PROBES))
    final_lhs = {
        "positivity_defect": lambda m: m["positivity_defect"]["left_positivity"][-1],
        "diag_drift": lambda m: m["positivity_defect"]["left_diag"][-1],
        "regularity_tracking": lambda m: np.max(m["regularity"]["norms"]),
    }
    for report, lhs in final_lhs.items():
        assert _rel(lhs(coarse), lhs(fine)) <= 1e-4, report
    # the square-root gap is a difference of two flows, ~5e-3 here, so its
    # step error (~2e-6 absolute) is a larger share of it
    left = [m["sqrt_comparison"]["left"][-1] for m in (coarse, fine)]
    assert _rel(*left) <= 1e-2
