from pathlib import Path

import numpy as np
import pytest

from phaselab.config import load_config
from phaselab.errors import ConfigurationError
from phaselab.sweeps import (
    SERIES_PROBES,
    b_bound_sweep,
    commutator_sweep,
    convergence_sweep,
    defect_sweep,
    grid_member,
    init_diff_sweep,
    regularity_sweep,
    run_members,
    sweep_reports,
    weight_remainder_sweep,
    wick_square_sweep,
    wick_structure_sweep,
)
from phaselab.trajectory import DEFAULT_DT

PROFILE = {"name": "maxwellian", "perturbation": 0.1, "sigma_xi": 0.42}
SMALL = (48, 64, 96, 128)


def test_convergence_needs_four_points():
    with pytest.raises(ConfigurationError):
        convergence_sweep(PROFILE, 0.1, N_list=(48, 64, 96))


def test_headline_member_t_zero():
    # at T = 0 the error equals the initial Wick-square gap
    m = grid_member(dict(N=48, profile=PROFILE, T=0.0, sign=1,
                         probes=["convergence"]))["convergence"]
    assert m["err_weyl"] == pytest.approx(m["init_gap"], rel=1e-12)
    assert m["err_wigner"] == pytest.approx(m["err_weyl"], rel=1e-10)


def test_t_zero_slope_is_first_order():
    rep = convergence_sweep(PROFILE, 0.0, N_list=SMALL)
    assert 0.85 <= rep.slope <= 1.15


def test_interaction_off_error_constant():
    m0 = grid_member(dict(N=64, profile=PROFILE, T=0.0, sign=0,
                          probes=["convergence"]))["convergence"]
    m1 = grid_member(dict(N=64, profile=PROFILE, T=0.3, sign=0, dt=0.015,
                          probes=["convergence"]))["convergence"]
    assert abs(m1["err_wigner"] - m0["err_wigner"]) < 1e-9


def test_convergence_sweep_small_window():
    rep = convergence_sweep(PROFILE, 0.2, N_list=SMALL)
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
    rep = wick_structure_sweep(N_list=SMALL)
    assert rep.passed, rep.tolerance


def test_wick_square_sweep():
    rep = wick_square_sweep(N_list=(64, 96, 128, 192))
    assert rep.passed, rep.tolerance


def test_weight_remainder_sweep():
    rep = weight_remainder_sweep(N_list=(64, 96, 128, 192))
    assert rep.passed, rep.tolerance


def test_commutator_sweep():
    rep = commutator_sweep(N_list=SMALL, pairs=4)
    assert rep.passed, rep.tolerance


def test_b_bound_sweep():
    rep = b_bound_sweep(PROFILE, N_list=SMALL)
    assert rep.passed, rep.tolerance
    assert 1.8 <= rep.slope <= 2.2


def test_init_diff_sweep():
    rep = init_diff_sweep(N_list=SMALL)
    assert rep.passed, rep.tolerance


def test_defect_sweep():
    pos, diag = defect_sweep(PROFILE, 0.25, N_list=SMALL)
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

    grid = make_grid(1, 64, 2 * np.pi, 2 * np.pi)
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
    rep = regularity_sweep(PROFILE, 0.25, N_list=(48, 64, 96, 128), k=1, q=2, n=1)
    assert rep.passed, rep.tolerance


def test_regularity_fractional_schatten_indices():
    rep = regularity_sweep(PROFILE, 0.1, N_list=(48, 64, 96, 128), k=1, q=2.5, n=1)
    assert rep.passed, rep.tolerance


def test_homogeneous_norms_constant():
    from phaselab import make_grid, sample_field
    from phaselab.budgets import sqrt_field
    from phaselab.coherent import wick_quantize
    from phaselab.hartree import evolve_linear_hartree
    from phaselab.norms import quantum_sobolev_norm
    from phaselab.vlasov import evolve_vlasov

    grid = make_grid(1, 48, 2 * np.pi, 2 * np.pi)
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
    trajectories = _count_evolves(monkeypatch)
    probes = ["convergence", "positivity_defect", "sqrt_comparison", "regularity"]
    sweep_reports(probes, SMALL, profile=PROFILE, T=0.1)
    assert len(trajectories) == 4 * len(SMALL)


def test_headline_alone_evolves_three_flows_with_two_snapshots(monkeypatch):
    trajectories = _count_evolves(monkeypatch)
    convergence_sweep(PROFILE, 0.1, N_list=SMALL)
    assert len(trajectories) == 3 * len(SMALL)
    assert all(len(t.snapshots) == 2 for t in trajectories)
    # only the square-root comparison makes the Hartree flow carry a root
    assert not any(t.root_snapshots for t in trajectories)


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


@pytest.mark.parametrize("sweep", [weight_remainder_sweep, init_diff_sweep])
def test_static_sweeps_honour_jobs(sweep, monkeypatch):
    from phaselab import sweeps

    pool_sizes = []

    def spy(fn, arg_list, jobs=1):
        pool_sizes.append(jobs)
        return run_members(fn, arg_list, jobs)

    ladder = (48, 64, 96, 128)
    serial = sweep(N_list=ladder, jobs=1).to_json()
    monkeypatch.setattr(sweeps, "run_members", spy)
    assert sweep(N_list=ladder, jobs=2).to_json() == serial
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
