import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import (
    ConfigurationError,
    DensityOperator,
    IncompatibleGridError,
    PhaseField,
    TruncationError,
    gaussian_phase_kernel,
    make_grid,
    sample_field,
)


def test_hbar_from_box():
    # hbar = L_x L_xi / (2 pi N); at (64, 2pi, 2pi) that is pi/32
    g = make_grid(64, 2 * np.pi, 2 * np.pi)
    assert g.hbar == pytest.approx(np.pi / 32, rel=1e-15)
    g2 = make_grid(128, 2 * np.pi, 2 * np.pi)
    assert g2.hbar == pytest.approx(g.hbar / 2, rel=1e-15)


def test_odd_or_tiny_n_rejected():
    with pytest.raises(ConfigurationError):
        make_grid(63, 2 * np.pi, 2 * np.pi)
    with pytest.raises(ConfigurationError):
        make_grid(4, 2 * np.pi, 2 * np.pi)
    with pytest.raises(ConfigurationError):
        make_grid(64, -1.0, 2 * np.pi)


@given(
    N=st.integers(min_value=4, max_value=256).map(lambda n: 2 * n),
    L_x=st.floats(min_value=0.5, max_value=20.0),
    L_xi=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=100, deadline=None)
def test_grid_hbar_coupling_exact(N, L_x, L_xi):
    # h N = L_x L_xi as a floating-point identity up to 1 ulp
    g = make_grid(N, L_x, L_xi)
    prod = L_x * L_xi
    assert abs(g.h * N - prod) <= math.ulp(prod)


@given(
    N=st.integers(min_value=4, max_value=128).map(lambda n: 2 * n),
    L=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=50, deadline=None)
def test_unit_quadrature_fills_box(N, L):
    g = make_grid(N, L, L)
    total = N * N * g.cell
    assert total == pytest.approx(L * L, rel=4e-16)


def test_momentum_lattice():
    g = make_grid(16, 2 * np.pi, 4.0)
    assert g.xi[0] == pytest.approx(-2.0)
    assert g.xi[g.N // 2] == 0.0
    np.testing.assert_allclose(np.diff(g.xi), g.dxi)
    # plane waves periodic: xi_k / hbar is an integer multiple of 2 pi / L_x
    ratio = g.xi * g.L_x / (2 * np.pi * g.hbar)
    np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-12)


def test_phase_field_real_flag(grid32):
    vals = np.ones((32, 32)) + 1e-6j * np.ones((32, 32))
    with pytest.raises(ConfigurationError):
        PhaseField(grid32, vals, real=True)
    f = PhaseField(grid32, vals, real=False)
    assert np.iscomplexobj(f.values)


def test_constant_profile_integral(grid32):
    f = sample_field(grid32, "constant")
    assert f.integral() == pytest.approx(grid32.L_x * grid32.L_xi, rel=1e-14)


def test_gaussian_profile_tail_guard(grid64):
    ok = sample_field(grid64, {"name": "gaussian", "sigma_xi": grid64.L_xi / 16})
    assert ok.real
    with pytest.raises(TruncationError):
        sample_field(grid64, {"name": "gaussian", "sigma_xi": grid64.L_xi})


def test_two_stream_profile(grid64):
    f = sample_field(grid64, {"name": "two_stream", "v0": 1.0, "sigma_xi": 0.3})
    assert np.all(f.values >= 0)
    assert f.integral() > 0


def test_unknown_profile(grid32):
    with pytest.raises(ConfigurationError):
        sample_field(grid32, "nosuch")


@pytest.mark.parametrize("profile, unknown", [
    ({"name": "gaussian", "sigma": 0.3}, "['sigma']"),
    ({"name": "maxwellian", "perturbation": 0.1, "sigma_xi": 0.42, "v0": 1.0}, "['v0']"),
    ({"name": "constant", "a": 2.0, "b": 1.0, "c": 0.0}, "['b', 'c']"),
])
def test_unknown_profile_parameter_rejected(grid64, profile, unknown):
    message = f"profile '{profile['name']}' has unknown parameters {unknown}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        sample_field(grid64, profile)


class TestGaussianPhaseKernel:
    def test_unit_mass(self, grid32):
        gh = gaussian_phase_kernel(grid32)
        assert abs(gh.integral() - 1.0) < 1e-10

    def test_peak_value(self, grid32):
        # g_h(0) = (pi hbar)^{-d} up to wrap corrections
        gh = gaussian_phase_kernel(grid32)
        peak = gh.values[0, grid32.N // 2]
        expected = (np.pi * grid32.hbar) ** (-1)
        assert abs(peak - expected) / expected < 1e-12

    def test_second_moment(self, grid32):
        # int |z|^2 g_h = hbar: hbar / 2 from each of the two phase-space axes
        gh = gaussian_phase_kernel(grid32)
        x = grid32.x_centered
        xi = grid32.xi
        z2 = x[:, None] ** 2 + xi[None, :] ** 2
        moment = np.sum(z2 * gh.values) * grid32.cell
        assert moment == pytest.approx(grid32.hbar, rel=1e-8)

    def test_unresolved_grid_rejected(self):
        # strongly rectangular box: dxi >> sqrt(hbar)
        g = make_grid(8, 2 * np.pi, 32 * np.pi)
        with pytest.raises(ConfigurationError):
            gaussian_phase_kernel(g)


def test_field_algebra(grid32, rng):
    a = PhaseField(grid32, rng.standard_normal((32, 32)))
    b = PhaseField(grid32, rng.standard_normal((32, 32)))
    s = a + b
    np.testing.assert_allclose(s.values, a.values + b.values)
    d = (a - b) * 2.0
    np.testing.assert_allclose(d.values, 2 * (a.values - b.values))


def test_mixed_grids_raise_incompatible_grid_error(grid32, grid64):
    # fields and operators share one grid check
    fields = [PhaseField(g, np.ones((g.N, g.N))) for g in (grid32, grid64)]
    ops = [DensityOperator(g, np.eye(g.N)) for g in (grid32, grid64)]
    for combine in (operator.add, operator.sub):
        with pytest.raises(IncompatibleGridError, match="different grids"):
            combine(*fields)
    for combine in (operator.matmul, operator.add, operator.sub):
        with pytest.raises(IncompatibleGridError, match="different grids"):
            combine(*ops)
