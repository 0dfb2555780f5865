import numpy as np
import pytest

from oracles import coherent_projector, identity_operator, quantum_gradient_x
from phaselab import (
    NotPositiveError,
    PhaseField,
    WrapAmbiguityError,
    weyl_quantize,
    wigner_transform,
)
from phaselab.calculus import (
    kinetic_energy,
    momentum_weight_apply,
    operator_sqrt,
    quantum_gradient_xi,
    spatial_density,
    wrap_mass,
    xi_marginal,
)
from phaselab.norms import schatten_norm
from phaselab.operators import DensityOperator
from phaselab.probes import weight_remainder_probe
from phaselab.spectral import band_limited_field, derivative, fourier_multiplier


class TestQuantumGradients:
    def test_commutes_with_wigner(self, grid64, rng):
        f = PhaseField(grid64, band_limited_field(64, rng, max_mode=12))
        op = weyl_quantize(f)
        gx = wigner_transform(quantum_gradient_x(op))
        expected_x = derivative(f.values.astype(complex), grid64.L_x, axis=0)
        assert np.max(np.abs(gx.values - expected_x)) < 1e-9
        gxi = wigner_transform(quantum_gradient_xi(op))
        expected_xi = derivative(f.values.astype(complex), grid64.L_xi, axis=1)
        assert np.max(np.abs(gxi.values - expected_xi)) < 1e-9

    def test_multiplication_operator_xi_gradient_zero(self, grid32):
        phi = np.cos(2 * np.pi * grid32.x / grid32.L_x)
        mop = DensityOperator(grid32, np.diag(phi).astype(complex) / grid32.dx,
                              hermitian=True)
        assert np.max(np.abs(quantum_gradient_xi(mop).kernel)) < 1e-12

    def test_momentum_operator_x_gradient_zero(self, grid32):
        _, XI = grid32.meshgrid()
        op = weyl_quantize(PhaseField(grid32, XI))
        assert np.max(np.abs(quantum_gradient_x(op).kernel)) < 1e-10

    def test_wrap_guard(self, grid32):
        # kernel with mass exactly on the antipodal chord
        K = np.zeros((32, 32), complex)
        for i in range(32):
            K[i, (i + 16) % 32] = 1.0
        op = DensityOperator(grid32, K)
        assert wrap_mass(op) > 0.9
        with pytest.raises(WrapAmbiguityError):
            quantum_gradient_xi(op)
        # B_f takes the same minimal-image chord behind the same guard
        from phaselab.remainder import b_remainder

        with pytest.raises(WrapAmbiguityError):
            b_remainder(op, np.zeros(32))


class TestMomentumWeight:
    def test_identity_both_sides(self, grid32):
        out = momentum_weight_apply(identity_operator(grid32), 2, "both")
        a = np.fft.fftfreq(32, d=1.0 / 32)
        xia = grid32.hbar * 2 * np.pi * a / grid32.L_x
        expected = np.zeros((32, 32), complex)
        for j in range(32):
            e = np.zeros(32)
            e[j] = 1
            expected[:, j] = np.fft.ifft(np.fft.fft(e) * (1 + xia**2) ** 2) / grid32.dx
        assert np.max(np.abs(out.kernel - expected)) < 1e-10

    def test_adjoint_invariance(self, grid32, rng):
        f = PhaseField(grid32, band_limited_field(32, rng, max_mode=8))
        op = weyl_quantize(f)
        for n in (1, 2, 3, 4):
            left = schatten_norm(momentum_weight_apply(op, n, "right"), 2)
            right = schatten_norm(momentum_weight_apply(op.adjoint(), n, "left"), 2)
            assert left == pytest.approx(right, rel=1e-10)

    def test_weight_remainder_ratios(self, grid64):
        from phaselab import sample_field

        f = sample_field(grid64, {"name": "gaussian", "sigma_x": 1.2, "sigma_xi": 0.8},
                         tail_tol=1e-4)
        out = weight_remainder_probe(f)
        assert out["lhs1"] / out["budget1"] <= 1 + 1e-6
        assert out["lhs2"] / out["budget2"] <= 1 + 1e-6

    def test_invalid_args(self, grid32):
        iop = identity_operator(grid32)
        with pytest.raises(Exception):
            momentum_weight_apply(iop, -1, "both")
        with pytest.raises(Exception):
            momentum_weight_apply(iop, 2, "sideways")


class TestSpatialDensity:
    def test_projector_density(self, grid32):
        from phaselab.coherent import coherent_state

        cs = coherent_state((2.0, 0.0), grid32)
        rho = spatial_density(coherent_projector(cs))
        np.testing.assert_allclose(rho, np.abs(cs.values) ** 2, atol=1e-12)
        assert np.sum(rho) * grid32.dx == pytest.approx(1.0, abs=1e-10)

    def test_uniform_symbol(self, grid32):
        rho = spatial_density(weyl_quantize(PhaseField(grid32, np.ones((32, 32)))))
        np.testing.assert_allclose(rho, grid32.L_xi, atol=1e-12)

    def test_linearity(self, grid32, rng):
        a = weyl_quantize(PhaseField(grid32, band_limited_field(32, rng, max_mode=8)))
        b = weyl_quantize(PhaseField(grid32, band_limited_field(32, rng, max_mode=8)))
        np.testing.assert_allclose(
            spatial_density(a + b), spatial_density(a) + spatial_density(b), atol=1e-12)

    def test_density_integral_is_scaled_trace(self, grid32, rng):
        op = weyl_quantize(PhaseField(grid32, band_limited_field(32, rng, max_mode=8)))
        assert np.sum(spatial_density(op)) * grid32.dx == pytest.approx(
            (grid32.h * op.trace()).real, abs=1e-12)

    @pytest.mark.parametrize("N", [10, 64])
    def test_weyl_density_is_the_xi_marginal(self, N, rng):
        # h diag(op_f) = sum_k f(x, xi_k) dxi, also with mass at both Nyquist modes
        from phaselab import make_grid

        grid = make_grid(N, 2 * np.pi, 3.0)
        f = PhaseField(grid, band_limited_field(N, rng, max_mode=N // 2) + 3.0)
        rho = xi_marginal(f)
        np.testing.assert_allclose(spatial_density(weyl_quantize(f)), rho, rtol=1e-13,
                                   atol=1e-14 * np.max(np.abs(rho)))


class TestOperatorSqrt:
    def test_scalar_identity(self, grid32):
        op = 3.0 * identity_operator(grid32)
        op.hermitian = True
        s = operator_sqrt(op)
        assert np.max(np.abs(s.kernel - np.sqrt(3) * identity_operator(grid32).kernel)) < 1e-10

    def test_square_recovers(self, grid32, rng):
        X = band_limited_field(32, rng, max_mode=10, real=False)
        op = DensityOperator(grid32, X @ X.conj().T * grid32.dx, hermitian=True)
        s = operator_sqrt(op)
        defect = schatten_norm(s @ s - op, 2) / schatten_norm(op, 2)
        assert defect < 1e-9

    def test_not_positive_rejected(self, grid32):
        K = -np.eye(32) / grid32.dx
        op = DensityOperator(grid32, K, hermitian=True)
        with pytest.raises(NotPositiveError):
            operator_sqrt(op)


def test_kinetic_energy_of_fourier_diagonal(grid32):
    # op = |p|^2-weighted projector sum built from a Fourier profile
    a = np.fft.fftfreq(32, d=1.0 / 32)
    xia = grid32.hbar * 2 * np.pi * a / grid32.L_x
    prof = np.exp(-(xia**2))
    K = np.fft.ifft(np.fft.fft(np.eye(32), axis=0) * prof[:, None], axis=0) / grid32.dx
    op = DensityOperator(grid32, K, hermitian=True)
    # operator trace of the Fourier-diagonal product is the eigenvalue sum
    expected = grid32.h * np.sum(prof * xia**2 / 2.0)
    assert kinetic_energy(op) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("hermitian", [True, False])
def test_kinetic_energy_matches_fourier_multiplier_trace(grid64, rng, hermitian):
    X = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    K = X + X.conj().T if hermitian else X
    op = DensityOperator(grid64, K, hermitian=hermitian)
    TK = fourier_multiplier(K, grid64.fourier_momenta**2 / 2.0, axis=0)
    expected = (np.trace(TK) * grid64.dx * grid64.h).real
    assert kinetic_energy(op) == pytest.approx(expected, rel=1e-12)
