from pathlib import Path

import numpy as np
import pytest

from phaselab.config import load_config
from phaselab.errors import ConfigurationError, SupportEscapeError
from phaselab.sweeps import (
    SERIES_PROBES,
    grid_member,
    run_members,
    sweep_reports,
)
from phaselab.trajectory import DEFAULT_DT

PROFILE = {"name": "maxwellian", "perturbation": 0.1, "sigma_xi": 0.42}
SMALL = (48, 64, 96, 128)


def test_convergence_needs_four_points():
    with pytest.raises(ConfigurationError):
        sweep_reports(["convergence"], (48, 64, 96), profile=PROFILE, T=0.1)


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
    norm_t = quantum_sobolev_norm(traj.final(), 1, 2, 0)
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


def test_regularity_fractional_schatten_indices():
    rep = sweep_reports(["regularity"], SMALL, profile=PROFILE, T=0.1,
                        k=1, q=2.5, n=1)["regularity"][0]
    assert rep.passed, rep.tolerance


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
    norms = [quantum_sobolev_norm(v, 1, 2, 0) for v in vtraj.snapshots]
    assert np.max(np.abs(np.array(norms) - norms[0])) < 1e-8 * norms[0]


def _count_evolves(monkeypatch):
    """Wrap the flows sweeps evolves; return the list of their trajectories."""
    from phaselab import sweeps

    trajectories = []
    for name in ("evolve_vlasov", "evolve_hartree", "evolve_linear_hartree"):
        def counted(*args, _flow=getattr(sweeps, name), **kwargs):
            traj = _flow(*args, **kwargs)
            trajectories.append(traj)
            return traj
        monkeypatch.setattr(sweeps, name, counted)
    return trajectories


def test_bundle_evolves_each_flow_once(monkeypatch):
    # Vlasov, Hartree and linear Hartree; both Hartree flows carry the root
    trajectories = _count_evolves(monkeypatch)
    probes = ["convergence", "positivity_defect", "sqrt_comparison", "regularity"]
    sweep_reports(probes, SMALL, profile=PROFILE, T=0.1)
    assert len(trajectories) == 3 * len(SMALL)
    assert sum(bool(t.root_snapshots) for t in trajectories) == 2 * len(SMALL)


def test_positivity_defect_alone_carries_the_root(monkeypatch):
    # the root rides in the packed kernel at no FFT cost, so the linear flow
    # carries it even where no requested probe reads it
    trajectories = _count_evolves(monkeypatch)
    grid_member(dict(N=48, profile=PROFILE, T=0.1, probes=["positivity_defect"]))
    assert len(trajectories) == 2
    assert [bool(t.root_snapshots) for t in trajectories] == [False, True]


def test_headline_alone_evolves_three_flows_with_two_snapshots(monkeypatch):
    trajectories = _count_evolves(monkeypatch)
    sweep_reports(["convergence"], SMALL, profile=PROFILE, T=0.1)
    assert len(trajectories) == 3 * len(SMALL)
    assert all(len(t.snapshots) == 2 for t in trajectories)
    # both Hartree flows carry the root, the Vlasov flow none
    assert sum(bool(t.root_snapshots) for t in trajectories) == 2 * len(SMALL)


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
    calls = {"eigh": 0, "svd": 0}
    for name in calls:
        def counted(*args, _name=name, _kernel=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    grid_member(dict(N=64, profile=PROFILE, T=0.5, probes=("sqrt_comparison",)))
    assert calls == {"eigh": 2, "svd": 0}


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
    # one per Vlasov snapshot (t = 0, every sixth of the 50 steps, and T),
    # plus f0 and f(T) for the headline
    assert len(calls) == 12
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
    assert len(calls) == 12
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
    from concurrent.futures import Future

    from phaselab import sweeps

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

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", RecordingPool)
    results = run_members(lambda a: a["N"], [dict(N=N) for N in SMALL], jobs=2)
    assert submitted == sorted(SMALL, reverse=True)
    assert results == list(SMALL)


def test_ten_probe_sweep_is_one_member_pass(monkeypatch):
    from phaselab import sweeps
    from phaselab.config import PROBES

    calls = []

    def spy(fn, arg_list, jobs=1):
        calls.append([a["N"] for a in arg_list])
        return run_members(fn, arg_list, jobs)

    monkeypatch.setattr(sweeps, "run_members", spy)
    reports = sweep_reports(PROBES, SMALL, profile=PROFILE, T=0.1)
    assert calls == [list(SMALL)]
    assert tuple(reports) == PROBES


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
