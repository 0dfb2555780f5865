"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one machine-readable pass/fail line. Desk scale throughout:
d = 1, periodic square box of side 2 pi, N up to 256.
"""

import numpy as np

from phaselab import (
    PhaseField,
    make_grid,
    sample_field,
    weyl_quantize,
    wigner_transform,
)
from phaselab.budgets import sqrt_field
from phaselab.coherent import coherent_overlap, wick_quantize
from phaselab.hartree import evolve_hartree
from phaselab.norms import lebesgue_norm, schatten_norm
from phaselab.remainder import b_remainder, weyl_vlasov_residual
from phaselab.spectral import band_limited_field, shift
from phaselab.stability import (
    classical_stability_experiment,
    powers_stormer_check,
    quantum_stability_experiment,
)
from phaselab.sweeps import sweep_reports
from phaselab.vlasov import evolve_vlasov

SWEEP_N = (64, 96, 128, 192, 256)
PROFILE = {"name": "maxwellian", "perturbation": 0.1, "sigma_xi": 0.42}


def _verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_transform_exactness():
    worst_round, worst_iso, worst_trace = 0.0, 0.0, 0.0
    rng = np.random.default_rng(1)
    for N in (64, 128):
        grid = make_grid(N, 2 * np.pi, 2 * np.pi)
        for _ in range(10):
            f = PhaseField(grid, band_limited_field(N, rng, max_mode=N // 4))
            op = weyl_quantize(f)
            back = wigner_transform(op)
            worst_round = max(worst_round, float(np.max(np.abs(back.values - f.values))))
            worst_iso = max(worst_iso,
                            abs(schatten_norm(op, 2) - lebesgue_norm(f, 2)))
            worst_trace = max(worst_trace,
                              abs((grid.h * op.trace()).real - float(f.integral())))
    ok = worst_round < 1e-12 and worst_iso < 1e-10 and worst_trace < 1e-10
    _verdict(1, "transform exactness", ok,
             f"roundtrip={worst_round:.2e} isometry={worst_iso:.2e} trace={worst_trace:.2e}")


def test_02_wick_structure():
    rep = sweep_reports(["wick_structure"], SWEEP_N)["wick_structure"][0]
    detail = (f"slope={rep.slope:.3f} "
              + " ".join(f"{k}={v['ok']}" for k, v in rep.tolerance.items()))
    _verdict(2, "Wick structure", rep.passed, detail)


def test_03_coherent_overlap():
    grid = make_grid(64, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(3)
    hbar = grid.hbar
    worst_rel, worst_mod = 0.0, 0.0
    for _ in range(50):
        x1 = rng.uniform(1.5, 2 * np.pi - 1.5)
        xi1 = grid.dxi * rng.integers(-5, 6)
        d = rng.uniform(-1, 1, 2)
        nd = np.linalg.norm(d)
        if nd > 0:
            d *= min(1.0, 4 * np.sqrt(hbar) / nd)
        z = (x1, xi1)
        zp = (x1 + d[0], xi1 + round(d[1] / grid.dxi) * grid.dxi)
        Gq = coherent_overlap(z, zp, grid, mode="quadrature")
        Gc = coherent_overlap(z, zp, grid, mode="closed")
        worst_rel = max(worst_rel, abs(Gq - Gc) / abs(Gc))
        d2 = (z[0] - zp[0]) ** 2 + (z[1] - zp[1]) ** 2
        worst_mod = max(worst_mod, abs(abs(Gc) - np.exp(-d2 / (4 * hbar))))
    ok = worst_rel < 1e-8 and worst_mod < 1e-10
    _verdict(3, "coherent overlap", ok,
             f"rel={worst_rel:.2e} modulus={worst_mod:.2e}")


def test_04_wick_square():
    rep = sweep_reports(["wick_square"], SWEEP_N)["wick_square"][0]
    ratios = {k: v["observed"] for k, v in rep.tolerance.items() if "ratio" in k}
    _verdict(4, "Wick square lemma", rep.passed,
             f"slope={rep.slope:.3f} ratios={ratios}")


def test_05_weight_remainders():
    rep = sweep_reports(["weight_remainder"], SWEEP_N)["weight_remainder"][0]
    _verdict(5, "weight remainder lemmas", rep.passed,
             " ".join(f"{k}={v['observed']:.3g}" for k, v in rep.tolerance.items()))


def test_06_conservation():
    grid = make_grid(64, 2 * np.pi, 2 * np.pi)
    f0 = sample_field(grid, PROFILE)
    vt = wick_quantize(sqrt_field(f0))
    op0 = vt @ vt
    op0.hermitian = True
    op0.positive = True
    htraj = evolve_hartree(op0, 0.5, 1e-3, +1)

    def per_step(traj, name):
        series = np.asarray(traj.logs[name])
        scale = abs(series[0]) or 1.0
        return float(np.max(np.abs(np.diff(series))) / scale)

    h_tr = per_step(htraj, "trace")
    h_l2 = per_step(htraj, "l2_norm")
    h_en = htraj.relative_drift("energy")

    gridv = make_grid(128, 2 * np.pi, 2 * np.pi)
    fv = sample_field(gridv, PROFILE)
    vtraj = evolve_vlasov(fv, 0.5, 1e-3, +1)
    v_mass = vtraj.relative_drift("mass")
    v_l2 = vtraj.relative_drift("l2_norm")
    v_en = vtraj.relative_drift("energy")
    ok = (h_tr < 1e-10 and h_l2 < 1e-10 and h_en < 1e-6
          and v_mass < 1e-8 and v_l2 < 1e-8 and v_en < 1e-6)
    _verdict(6, "conservation", ok,
             f"hartree(tr/step={h_tr:.1e} l2/step={h_l2:.1e} E={h_en:.1e}) "
             f"vlasov(mass={v_mass:.1e} l2={v_l2:.1e} E={v_en:.1e})")


def test_07_b_remainder():
    grid = make_grid(64, 2 * np.pi, 2 * np.pi)
    f = sample_field(grid, {"name": "gaussian", "x0": np.pi, "sigma_x": 0.5,
                            "sigma_xi": 0.5}, tail_tol=1e-6)
    op = weyl_quantize(f)
    xc = grid.x - np.pi
    xhalf = np.arange(2 * grid.N) * grid.dx / 2 - np.pi
    B = b_remainder(op, 0.5 * xc**2 + 0.1 * xc, grad_v_half=xhalf + 0.1)
    quad_max = float(np.max(np.abs(B.kernel)))

    rep = sweep_reports(["b_remainder"], SWEEP_N, profile=PROFILE)["b_remainder"][0]

    f0 = sample_field(grid, PROFILE)
    res = {}
    for dt in (grid.hbar / 10, grid.hbar / 20):
        traj = evolve_vlasov(f0, 0.08, dt, 0, snapshot_stride=1)
        _, r = weyl_vlasov_residual(traj, include_b=True)
        res[dt] = float(np.max(r))
    ratio = res[grid.hbar / 10] / res[grid.hbar / 20]
    ok = quad_max < 1e-12 and rep.passed and ratio >= 3.5
    _verdict(7, "B-remainder", ok,
             f"quadratic={quad_max:.2e} slope={rep.slope:.3f} dt-halving={ratio:.2f}")


def test_08_commutator_estimate():
    rep = sweep_reports(["commutator"], SWEEP_N, pairs=10)["commutator"][0]
    _verdict(8, "commutator estimate", rep.passed,
             f"ratio_slope={rep.tolerance['ratio_slope_flat']['observed']:.3f}")


def test_09_stability():
    grid = make_grid(96, 2 * np.pi, 2 * np.pi)
    f1 = sample_field(grid, PROFILE)
    f2 = f1.copy_with(shift(f1.values, grid.L_x, 3 * grid.dx, axis=0))
    rep_c = classical_stability_experiment(f1, f2, T=0.5, dt=2e-3, sign=1)
    rep_c0 = classical_stability_experiment(f1, f1, T=0.2, dt=2e-3, sign=1)

    gq = make_grid(48, 2 * np.pi, 2 * np.pi)
    g1 = sample_field(gq, PROFILE)
    g2 = g1.copy_with(shift(g1.values, gq.L_x, 3 * gq.dx, axis=0))
    ops = []
    for f in (g1, g2):
        vt = wick_quantize(sqrt_field(f))
        op = vt @ vt
        op.hermitian = True
        op.positive = True
        ops.append(op)
    rep_q = quantum_stability_experiment(ops[0], ops[1], T=0.5, dt=gq.hbar / 10, sign=1)
    rep_q0 = quantum_stability_experiment(ops[0], ops[0], T=0.2, dt=gq.hbar / 10, sign=1)

    rng = np.random.default_rng(9)
    ps = powers_stormer_check(make_grid(32, 2 * np.pi, 2 * np.pi), rng, pairs=100)
    ok = (rep_c.passed and rep_c0.passed and rep_q.passed and rep_q0.passed
          and ps <= 1.0 + 1e-10)
    _verdict(9, "stability experiments", ok,
             f"classical={rep_c.passed} quantum={rep_q.passed} "
             f"identical=({rep_c0.passed},{rep_q0.passed}) powers_stormer={ps:.3f}")


def test_10_headline_rate():
    rep = sweep_reports(["convergence"], SWEEP_N, profile=PROFILE, T=0.5, sign=1)["convergence"][0]
    wig = rep.tolerance["wigner_slope"]["observed"]
    wey = rep.tolerance["weyl_slope"]["observed"]
    _verdict(10, "headline O(hbar) rate", rep.passed,
             f"wigner_slope={wig:.4f} weyl_slope={wey:.4f} "
             f"triangle={rep.tolerance['triangle_decomposition']['ok']}")


def test_11_positivity_defect_and_diag_drift():
    pos, diag = sweep_reports(["positivity_defect"], SWEEP_N, profile=PROFILE,
                              T=0.5)["positivity_defect"]
    ok = pos.passed and diag.passed
    _verdict(11, "positivity defect / diag drift", ok,
             f"defect_slope={pos.slope:.3f} diag_slope={diag.slope:.3f}")


def test_12_regularity_propagation():
    rep = sweep_reports(["regularity"], SWEEP_N, profile=PROFILE, T=0.5,
                        k=1, q=2, n=1)["regularity"][0]
    env = rep.tolerance["within_exponential_envelope"]["observed"]
    refine = rep.tolerance["init_norm_refinement_stable"]["observed"]
    _verdict(12, "propagation of regularity", rep.passed,
             f"envelope_max={env:.3f} refinement={refine:.4f}")
