from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_quantum_gradients, coherent_projector, identity_operator
from phaselab import ConfigurationError, PhaseField, make_grid, weyl_quantize
from phaselab.norms import (
    h_half_norm,
    lebesgue_norm,
    lorentz_norm,
    mixed_norm,
    quantum_sobolev_norm,
    schatten_norm,
    schatten_norms,
    spatial_sobolev_norm,
    weighted_schatten_norms,
    weighted_sobolev_norm,
    weighted_sobolev_norms,
)
from phaselab.operators import DensityOperator
from phaselab.spectral import band_limited_field


def test_constant_lebesgue(grid32):
    f = PhaseField(grid32, np.full((32, 32), -2.5))
    vol = grid32.L_x * grid32.L_xi
    for p in (1, 2, 4):
        assert lebesgue_norm(f, p) == pytest.approx(2.5 * vol ** (1 / p), rel=1e-12)
    assert lebesgue_norm(f, np.inf) == 2.5


def test_mixed_reduces_to_lebesgue(grid32, rng):
    f = PhaseField(grid32, band_limited_field(32, rng, max_mode=8))
    assert mixed_norm(f, 2, 2) == pytest.approx(lebesgue_norm(f, 2), rel=1e-12)


def test_gaussian_h1_analytic():
    # frozen analytic H^1 norm of a e^{-(x-x0)^2/sx^2 - xi^2/sxi^2}
    grid = make_grid(128, 2 * np.pi, 2 * np.pi)
    a, sx, sxi = 1.3, 0.7, 0.6
    X, XI = grid.meshgrid()
    f = PhaseField(grid, a * np.exp(-((X - np.pi) ** 2) / sx**2 - XI**2 / sxi**2))
    l2sq = a**2 * (np.pi / 2) * sx * sxi
    dxsq = a**2 * (np.pi / 2) * sxi / sx
    dxisq = a**2 * (np.pi / 2) * sx / sxi
    expected = np.sqrt(l2sq + dxsq + dxisq)
    assert weighted_sobolev_norm(f, 1, 2, 0) == pytest.approx(expected, rel=1e-8)


def test_sobolev_weight_order(grid32, rng):
    f = PhaseField(grid32, band_limited_field(32, rng, max_mode=6))
    n0 = weighted_sobolev_norm(f, 1, 2, 0)
    n2 = weighted_sobolev_norm(f, 1, 2, 2)
    assert n2 >= n0


def test_sobolev_norms_share_one_derivative_pass(grid32, rng):
    f = PhaseField(grid32, band_limited_field(32, rng, max_mode=6))
    ps = (np.inf, 2, 4)
    separate = [weighted_sobolev_norm(f, 4, p, 4) for p in ps]
    assert weighted_sobolev_norms(f, 4, ps, 4) == separate


class TestLorentz:
    def test_indicator(self):
        # indicator of measure m: L^{p, inf} equals m^{1/p}
        dx = 0.1
        values = np.zeros(100)
        values[:17] = 1.0
        m = 17 * dx
        for p in (1.5, 2, 3):
            assert lorentz_norm(values, dx, p, np.inf) == pytest.approx(m ** (1 / p), rel=1e-12)

    def test_pp_close_to_lp(self, rng):
        values = rng.standard_normal(256)
        dx = 0.03
        for p in (2, 3):
            lp = (np.sum(np.abs(values) ** p) * dx) ** (1 / p)
            lpp = lorentz_norm(values, dx, p, p)
            assert abs(lpp - lp) / lp < 0.02

    @given(c=st.floats(min_value=-50, max_value=50).filter(lambda v: abs(v) > 1e-3))
    @settings(max_examples=30, deadline=None)
    def test_scaling_homogeneity(self, c):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(64)
        base = lorentz_norm(values, 0.1, 3, 1)
        scaled = lorentz_norm(c * values, 0.1, 3, 1)
        assert scaled == pytest.approx(abs(c) * base, rel=1e-10)


class TestSchatten:
    def test_projector_trace_norm(self, grid32):
        from phaselab.coherent import coherent_state

        op = coherent_projector(coherent_state((2.0, 0.0), grid32))
        assert schatten_norm(op, 1) == pytest.approx(1.0, abs=1e-10)

    def test_isometry(self, grid64, rng):
        f = PhaseField(grid64, band_limited_field(64, rng, max_mode=12))
        assert schatten_norm(weyl_quantize(f), 2) == pytest.approx(
            lebesgue_norm(f, 2), abs=1e-10)

    def test_hoelder_inequality(self, grid32, rng):
        # ||AB||_1 <= ||A||_2 ||B||_2 over random pairs
        for _ in range(100):
            A = DensityOperator(grid32, band_limited_field(32, rng, max_mode=10, real=False))
            B = DensityOperator(grid32, band_limited_field(32, rng, max_mode=10, real=False))
            lhs = schatten_norm(A @ B, 1)
            rhs = schatten_norm(A, 2) * schatten_norm(B, 2)
            assert lhs <= rhs * (1 + 1e-10)

    def test_operator_norm_no_h_factor(self, grid32):
        iop = identity_operator(grid32)
        assert schatten_norm(iop, np.inf) == pytest.approx(1.0, rel=1e-12)

    def test_norms_share_one_svd(self, grid32, rng, monkeypatch):
        op = DensityOperator(grid32, band_limited_field(32, rng, max_mode=10, real=False))
        ps = (1, 2.5, 3.5, np.inf)
        separate = [schatten_norm(op, p) for p in ps]
        weighted = [weighted_schatten_norms(op, (p,), 3)[0] for p in ps]
        calls = []
        svd = DensityOperator.singular_values

        def counted(self):
            calls.append(1)
            return svd(self)

        monkeypatch.setattr(DensityOperator, "singular_values", counted)
        assert schatten_norms(op, ps) == separate
        assert weighted_schatten_norms(op, ps, 3) == weighted
        assert len(calls) == 2

    def test_hermitian_route_matches_svd_and_gram(self, grid64, rng, monkeypatch):
        # sigma = |lambda| from one eigvalsh against the SVD (p < 2) and Gram
        # (p > 2) routes of the same kernel unflagged; a norm has the same
        # bits whatever other indices share the call
        from phaselab.coherent import wick_quantize

        ps = (1, 1.5, 3, np.inf)
        ops = [weyl_quantize(PhaseField(grid64, band_limited_field(64, rng, max_mode=12))),
               wick_quantize(PhaseField(grid64, np.abs(band_limited_field(64, rng, 8))))]
        for op in ops:
            assert op.hermitian
            general = DensityOperator(grid64, op.kernel, hermitian=False)
            np.testing.assert_allclose(schatten_norms(op, ps), schatten_norms(general, ps),
                                       rtol=1e-13)
            assert schatten_norms(op, ps) == [schatten_norm(op, p) for p in ps]
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        monkeypatch.setattr(np.linalg, "svd", None)
        schatten_norms(ops[0], (1, 2, 3, np.inf))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [1, 3])
    def test_weighted_norms_match_the_weighted_kernel(self, grid32, rng, n):
        # the axis-1 spectrum route against op <p>^n built in position space
        from phaselab.calculus import momentum_weight_apply

        op = DensityOperator(grid32, band_limited_field(32, rng, max_mode=10, real=False))
        ps = (1, 2, 2.5, 3.5, np.inf)
        expected = schatten_norms(momentum_weight_apply(op, n, "right"), ps)
        np.testing.assert_allclose(weighted_schatten_norms(op, ps, n), expected, rtol=1e-12)


class TestQuantumSobolev:
    def test_matches_wigner_hk(self, grid64, rng):
        f = PhaseField(grid64, band_limited_field(64, rng, max_mode=10))
        op = weyl_quantize(f)
        for k in (1, 2):
            assert quantum_sobolev_norm(op, k) == pytest.approx(
                weighted_sobolev_norm(f, k, 2, 0), rel=1e-8)

    def test_zero_operator(self, grid32):
        z = DensityOperator(grid32, np.zeros((32, 32)))
        assert quantum_sobolev_norm(z, 2) == 0.0

    def test_reduces_to_schatten(self, grid32, rng):
        f = PhaseField(grid32, band_limited_field(32, rng, max_mode=8))
        op = weyl_quantize(f)
        assert quantum_sobolev_norm(op, 0) == pytest.approx(
            schatten_norm(op, 2), rel=1e-12)
        assert weighted_schatten_norms(op, (2,), 0)[0] == pytest.approx(
            schatten_norm(op, 2), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 2])
    def test_shared_prefixes_match_per_index_gradients(self, grid64, rng, n):
        from phaselab.calculus import momentum_weight_apply

        op = weyl_quantize(PhaseField(grid64, band_limited_field(64, rng, max_mode=10)))
        terms = []
        for ax, axi in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]:
            gop = apply_quantum_gradients(op, ax, axi)
            if n:
                gop = momentum_weight_apply(gop, n, side="right")
            terms.append(schatten_norm(gop, 2))
        oracle = float(np.sum(np.array(terms) ** 2) ** 0.5)
        value = quantum_sobolev_norm(op, 2, n=n)
        assert abs(value - oracle) <= 1e-13 * oracle

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_chord_route_matches_the_gradient_chain(self, grid64, rng, k):
        # p = 2 in the chord domain against each multi-index built by the
        # kernel-space gradients and weighted on the right by <p>^n, n = 0, 1,
        # 3, for a Hermitian and a general operator
        from phaselab.calculus import momentum_weight_apply

        indices = [(ax, axi) for ax in range(k + 1) for axi in range(k + 1 - ax)]
        for real in (True, False):
            f = PhaseField(grid64, band_limited_field(64, rng, max_mode=10, real=real),
                           real=real)
            op = weyl_quantize(f)
            grads = [apply_quantum_gradients(op, ax, axi) for ax, axi in indices]
            for n in (0, 1, 3):
                terms = [schatten_norm(momentum_weight_apply(gop, n, side="right"), 2)
                         for gop in grads]
                oracle = float(np.sum(np.array(terms) ** 2) ** 0.5)
                assert quantum_sobolev_norm(op, k, n=n) == pytest.approx(oracle, rel=1e-13)

    def test_chord_route_raises_the_chain_wrap_error(self, grid32):
        # the wrap guard reads chord-column masses, in the chain's order: a
        # kernel whose antipodal share passes the guard, as does that of its
        # x-gradient, while its xi-gradient, which zeroes the diagonal,
        # carries only antipodal mass; the same at the weight order n = 2
        from phaselab.calculus import quantum_gradient_xi
        from phaselab.errors import WrapAmbiguityError

        K = np.diag(1.0 + 0.5 * np.cos(grid32.x)).astype(complex)
        for scale, k in ((1.0, 1), (1e-12, 2)):
            K[0, 16] = K[16, 0] = scale
            op = DensityOperator(grid32, K.copy(), hermitian=True)
            with pytest.raises(WrapAmbiguityError) as chain:
                gop = op
                for _ in range(k):
                    gop = quantum_gradient_xi(gop)
            for n in (0, 2):
                with pytest.raises(WrapAmbiguityError) as chord:
                    quantum_sobolev_norm(op, k, n=n)
                assert str(chord.value) == str(chain.value)
        # at k = 1 only the kernel itself is guarded
        for n in (0, 2):
            assert quantum_sobolev_norm(op, 1, n=n) == pytest.approx(float(np.sqrt(sum(
                weighted_schatten_norms(apply_quantum_gradients(op, ax, axi), (2,), n)[0] ** 2
                for ax, axi in [(0, 0), (0, 1), (1, 0)]))), rel=1e-13)

    def test_k_above_2_and_a_positional_weight_are_rejected(self, grid32, rng):
        # the chord route takes k <= 2, and n only by keyword, so a call that
        # still passes p = 2 before n raises instead of reading 2 as n
        op = weyl_quantize(PhaseField(grid32, band_limited_field(32, rng, max_mode=6)))
        with pytest.raises(ConfigurationError, match="k <= 2"):
            quantum_sobolev_norm(op, 3)
        with pytest.raises(TypeError):
            quantum_sobolev_norm(op, 1, 2, 1)

    def test_antipodal_mass_trips_the_wrap_guard(self, grid32):
        from phaselab.errors import WrapAmbiguityError

        K = np.eye(32, dtype=complex)
        K[0, 16] = K[16, 0] = 1.0          # chord |x - y| = L_x / 2
        with pytest.raises(WrapAmbiguityError):
            quantum_sobolev_norm(DensityOperator(grid32, K, hermitian=True), 2, n=2)

    def test_powers_stormer(self, grid32, rng):
        # ||sqrt(A) - sqrt(B)||_L2^2 <= ||A - B||_L1 on random positive pairs
        from phaselab.stability import powers_stormer_check

        worst = powers_stormer_check(grid32, rng, pairs=100)
        assert worst <= 1.0 + 1e-10


def test_spatial_sobolev_monotone(grid64):
    rho = 1.0 + 0.3 * np.cos(2 * np.pi * grid64.x / grid64.L_x)
    n0 = spatial_sobolev_norm(rho, grid64.L_x, 0, 2)
    n1 = spatial_sobolev_norm(rho, grid64.L_x, 1, 2)
    assert n1 > n0


def test_h_half_between_l2_and_h1(grid64, rng):
    f = PhaseField(grid64, band_limited_field(64, rng, max_mode=10))
    l2 = lebesgue_norm(f, 2)
    h1 = weighted_sobolev_norm(f, 1, 2, 0)
    hh = h_half_norm(f)
    assert l2 <= hh <= h1 * (1 + 1e-12)


def test_quantum_sobolev_fft_count(grid64, rng, count_ffts):
    """k = 2, p = 2, n = 2 in the chord domain: one axis-0 FFT, one inverse for
    the wrap guard of the x-gradient and one axis-1 FFT per xi-order (three)."""
    op = weyl_quantize(PhaseField(grid64, band_limited_field(64, rng, max_mode=10)))
    calls = count_ffts()
    quantum_sobolev_norm(op, 2, n=2)
    assert len(calls) == 5


@pytest.mark.parametrize("real", [True, False])
def test_parseval_sobolev_matches_the_transform_route(grid64, rng, real):
    # every p = 2 at n = 0 sums the forward spectrum; a p = 4 beside it sends
    # the p = 2 norm through the inverse transforms
    f = PhaseField(grid64, band_limited_field(64, rng, max_mode=32, real=real), real=real)
    for k in range(5):
        parseval = weighted_sobolev_norms(f, k, (2, 2), 0)
        assert parseval[0] == parseval[1]
        assert parseval[0] == pytest.approx(weighted_sobolev_norms(f, k, (2, 4), 0)[0],
                                            rel=1e-13)


def test_parseval_sobolev_takes_one_transform(grid64, rng, count_ffts):
    f = PhaseField(grid64, band_limited_field(64, rng, max_mode=10))
    calls = count_ffts()
    weighted_sobolev_norm(f, 3, 2, 0)
    assert calls == [(64, 64)]


def test_weighted_sobolev_fft_count(grid64, rng, monkeypatch):
    """One forward real 2-d transform, one inverse x-transform per x-order
    (5 at k = 4) and one inverse xi-transform per |alpha| <= 4 (15)."""
    f = PhaseField(grid64, band_limited_field(64, rng, max_mode=10))
    calls = Counter()
    for name in ("fft", "ifft", "fft2", "ifft2", "rfft", "irfft", "rfft2", "irfft2"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name, kwargs.get("axis")] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    weighted_sobolev_norms(f, 4, (np.inf, 2), 4)
    assert calls == {("rfft2", None): 1, ("ifft", 0): 5, ("irfft", 1): 15}
