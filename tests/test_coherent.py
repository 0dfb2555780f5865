import numpy as np
import pytest

from oracles import coherent_norm, coherent_projector, identity_operator, wick_sum_oracle
from phaselab import (
    ConfigurationError,
    PhaseField,
    make_grid,
    sample_field,
    wigner_transform,
)
from phaselab.coherent import (
    coherent_overlap,
    coherent_state,
    husimi_convolve,
    wick_quantize,
)
from phaselab.grids import gaussian_phase_kernel
from phaselab.norms import lebesgue_norm, schatten_norm
from phaselab.spectral import band_limited_field, derivative


class TestCoherentState:
    def test_normalized(self, grid32):
        cs = coherent_state((2.0, 0.7), grid32)
        assert abs(coherent_norm(cs) - 1.0) < 1e-10

    def test_position_expectation(self, grid64):
        cs = coherent_state((np.pi, 0.0), grid64)
        xexp = np.sum(grid64.x * np.abs(cs.values) ** 2) * grid64.dx
        assert abs(xexp - np.pi) <= grid64.dx

    def test_momentum_expectation(self, grid64):
        cs = coherent_state((np.pi, 0.9), grid64)
        a = np.fft.fftfreq(64, d=1.0 / 64)
        xia = grid64.hbar * 2 * np.pi * a / grid64.L_x
        p_psi = np.fft.ifft(np.fft.fft(cs.values) * xia)
        pexp = np.real(np.vdot(cs.values, p_psi) * grid64.dx)
        assert abs(pexp - cs.xi0) <= grid64.dxi

    def test_snap_distance_reported(self, grid32):
        cs = coherent_state((1.0, 0.5 * grid32.dxi), grid32)
        assert cs.snap_distance == pytest.approx(0.5 * grid32.dxi)

    def test_outside_box_rejected(self, grid32):
        with pytest.raises(ConfigurationError):
            coherent_state((-1.0, 0.0), grid32)
        with pytest.raises(ConfigurationError):
            coherent_state((1.0, grid32.L_xi), grid32)

    def test_projector_trace_one(self, grid32):
        op = coherent_projector(coherent_state((2.0, 0.0), grid32))
        assert grid32.h * op.trace().real == pytest.approx(1.0, abs=1e-10)
        assert schatten_norm(op, 1) == pytest.approx(1.0, abs=1e-10)


class TestOverlap:
    def test_same_center(self, grid32):
        assert coherent_overlap((2.0, 0.0), (2.0, 0.0), grid32) == pytest.approx(1.0)

    def test_e_minus_one_at_two_sqrt_hbar(self, grid32):
        s = np.sqrt(grid32.hbar)
        G = coherent_overlap((2.0, 0.0), (2.0 + 2 * s, 0.0), grid32)
        assert abs(abs(G) - np.exp(-1.0)) < 1e-10

    def test_modulus_closed_form(self, grid32, rng):
        for _ in range(20):
            z = (rng.uniform(2, 4), rng.uniform(-1, 1))
            zp = (z[0] + rng.uniform(-0.3, 0.3), z[1] + rng.uniform(-0.3, 0.3))
            G = coherent_overlap(z, zp, grid32)
            d2 = (z[0] - zp[0]) ** 2 + (z[1] - zp[1]) ** 2
            assert abs(abs(G) - np.exp(-d2 / (4 * grid32.hbar))) < 1e-10

    def test_closed_form_vs_quadrature(self, grid32, rng):
        hbar = grid32.hbar
        for _ in range(50):
            x1 = rng.uniform(1.5, 2 * np.pi - 1.5)
            xi1 = grid32.dxi * rng.integers(-4, 5)
            d = rng.uniform(-1, 1, 2)
            norm = np.linalg.norm(d)
            if norm > 0:
                d *= min(1.0, 4 * np.sqrt(hbar) / norm)
            z = (x1, xi1)
            zp = (x1 + d[0], xi1 + round(d[1] / grid32.dxi) * grid32.dxi)
            Gq = coherent_overlap(z, zp, grid32, mode="quadrature")
            Gc = coherent_overlap(z, zp, grid32, mode="closed")
            assert abs(Gq - Gc) / abs(Gc) < 1e-8

    def test_unknown_mode(self, grid32):
        with pytest.raises(ConfigurationError):
            coherent_overlap((1, 0), (1, 0), grid32, mode="bogus")


class TestHusimi:
    def test_constant_fixed_point(self, grid32):
        one = PhaseField(grid32, np.ones((32, 32)))
        conv = husimi_convolve(one)
        assert np.max(np.abs(conv.values - 1.0)) < 1e-10

    def test_mass_preserved(self, grid64, rng):
        f = PhaseField(grid64, band_limited_field(64, rng, max_mode=10))
        conv = husimi_convolve(f)
        assert abs(conv.integral() - f.integral()) < 1e-10

    def test_plane_wave_multiplier(self, grid64):
        # convolution multiplies the grid plane wave by the Gaussian transform
        # exp(-pi^2 hbar |k/L|^2 ...) of g_h; spectral calculation, exact form
        kx, kxi = 3, -2
        X, XI = grid64.meshgrid()
        L = grid64.L_x
        wave = np.exp(2j * np.pi * (kx * X / L + kxi * (XI + L / 2) / L))
        f = PhaseField(grid64, wave, real=False)
        conv = husimi_convolve(f)
        # g_h Fourier transform at integer mode k: exp(-pi^2 hbar k^2 / L^2) per axis
        mult = np.exp(-np.pi**2 * grid64.hbar * (kx**2 + kxi**2) / L**2)
        assert np.max(np.abs(conv.values - mult * wave)) < 1e-10

    def test_smoothing_error_bound(self, grid64):
        # ||f - g_h * f||_L2 <= hbar * d * ||hessian f||_L2 for band-limited data
        f = sample_field(grid64, {"name": "gaussian", "sigma_x": 1.1, "sigma_xi": 0.8},
                         tail_tol=1e-4)
        conv = husimi_convolve(f)
        lhs = lebesgue_norm(f - conv, 2)
        v = f.values.astype(complex)
        hess2 = (np.abs(derivative(v, grid64.L_x, 0, 2)) ** 2
                 + 2 * np.abs(derivative(derivative(v, grid64.L_x, 0), grid64.L_xi, 1)) ** 2
                 + np.abs(derivative(v, grid64.L_xi, 1, 2)) ** 2)
        budget = grid64.hbar * np.sqrt(np.sum(hess2) * grid64.cell)
        assert lhs <= budget


class TestWick:
    def test_constant_gives_identity(self, grid32):
        op = wick_quantize(PhaseField(grid32, np.ones((32, 32))))
        assert np.max(np.abs(op.kernel - identity_operator(grid32).kernel)) * grid32.dx < 1e-10

    def test_positive_for_nonnegative_symbol(self, grid64, rng):
        f = PhaseField(grid64, np.abs(band_limited_field(64, rng, max_mode=10)) + 0.1)
        op = wick_quantize(f)
        ev = op.eigenvalues()
        assert ev[0] >= -1e-10 * schatten_norm(op, np.inf)

    def test_wigner_of_projector_is_gaussian(self):
        grid = make_grid(64, 2 * np.pi, 2 * np.pi)
        z0 = (np.pi, 0.0)
        op = coherent_projector(coherent_state(z0, grid))
        w = wigner_transform(op)
        assert abs(w.integral() - 1.0) < 1e-9
        gh = gaussian_phase_kernel(grid)
        shift_i = round(z0[0] / grid.dx)
        expected = np.roll(gh.values, shift_i, axis=0)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(w.values - expected)) / scale < 1e-8
        peak = np.unravel_index(np.argmax(w.values), w.values.shape)
        assert abs(grid.x[peak[0]] - z0[0]) <= grid.dx
        assert abs(grid.xi[peak[1]] - z0[1]) <= grid.dxi

    def test_sum_oracle_matches_convolution_route(self, grid32, rng):
        f = PhaseField(grid32, np.abs(band_limited_field(32, rng, max_mode=5)) + 0.5)
        fast = wick_quantize(f)
        slow = wick_sum_oracle(f)
        rel = schatten_norm(fast - slow, 2) / schatten_norm(fast, 2)
        assert rel < 1e-6

    def test_wick_weyl_gap_equality(self, grid64, rng):
        from phaselab import weyl_quantize

        f = PhaseField(grid64, band_limited_field(64, rng, max_mode=12))
        gap_op = schatten_norm(weyl_quantize(f) - wick_quantize(f), 2)
        gap_field = lebesgue_norm(f - husimi_convolve(f), 2)
        assert abs(gap_op - gap_field) < 1e-10

    def test_schatten_contraction(self, grid64, rng):
        f = PhaseField(grid64, band_limited_field(64, rng, max_mode=10))
        op = wick_quantize(f)
        for p in (1, 2, np.inf):
            assert schatten_norm(op, p) <= lebesgue_norm(f, p) * (1 + 1e-10)


class TestHusimiRoutes:
    def test_real_route_matches_complex_route(self, grid64, rng):
        f = PhaseField(grid64, band_limited_field(64, rng, max_mode=16))
        real = husimi_convolve(f)
        # an explicit kernel takes the complex fft2 route
        full = husimi_convolve(f, kernel=gaussian_phase_kernel(grid64))
        assert real.real and real.values.dtype == np.float64
        scale = np.max(np.abs(full.values))
        assert np.max(np.abs(real.values - full.values)) <= 1e-14 * scale

    @pytest.mark.parametrize("N", [64, 96, 256])
    def test_mode_space_routes_match_the_2d_routes(self, N):
        # the commutator probe's data: the density of wick(src) from the
        # xi-sums of src, and the smoothed symbol of a mode block, against
        # xi_marginal(husimi_convolve(...)) and husimi_convolve
        from phaselab.calculus import xi_marginal
        from phaselab.coherent import husimi_marginal, husimi_mode_block
        from phaselab.spectral import field_from_modes, random_mode_block

        grid = make_grid(N, 2 * np.pi, 2 * np.pi)
        rng = np.random.default_rng(N)
        for _ in range(3):
            src = PhaseField(grid, field_from_modes(N, random_mode_block(rng, 4)) ** 2 + 0.3)
            np.testing.assert_allclose(husimi_marginal(src), xi_marginal(husimi_convolve(src)),
                                       rtol=1e-13, atol=0)
            block = random_mode_block(rng, 4)
            smoothed = husimi_convolve(PhaseField(grid, field_from_modes(N, block))).values
            direct = field_from_modes(N, husimi_mode_block(grid, block))
            assert np.max(np.abs(direct - smoothed)) <= 1e-13 * np.max(np.abs(smoothed))

    def test_unresolved_grid_raises_every_time(self):
        coarse = make_grid(8, 2 * np.pi, 32 * np.pi)   # dxi >> sqrt(hbar)
        f = PhaseField(coarse, np.ones((8, 8)))
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                husimi_convolve(f)
