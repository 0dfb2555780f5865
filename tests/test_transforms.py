import numpy as np
import pytest

from oracles import identity_operator, scatter_chords
from phaselab import PhaseField, make_grid, weyl_quantize, wigner_transform
from phaselab.norms import lebesgue_norm, schatten_norm
from phaselab.operators import DensityOperator
from phaselab.spectral import band_limited_field


def wrapped_gaussian(grid, x0, xi0, sx, sxi):
    X, XI = grid.meshgrid()
    out = np.zeros_like(X)
    for n in range(-2, 3):
        out += np.exp(-((X - x0 + n * grid.L_x) ** 2) / sx**2 - (XI - xi0) ** 2 / sxi**2)
    return out


class TestRoundTrip:
    @pytest.mark.parametrize("N", [64, 128])
    def test_wigner_weyl_identity(self, N, rng):
        grid = make_grid(N, 2 * np.pi, 2 * np.pi)
        for _ in range(5):
            f = PhaseField(grid, band_limited_field(N, rng, max_mode=N // 4))
            back = wigner_transform(weyl_quantize(f))
            assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_complex_symbol(self, grid32, rng):
        f = PhaseField(grid32, band_limited_field(32, rng, max_mode=8, real=False),
                       real=False)
        back = wigner_transform(weyl_quantize(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_hermitian_gives_real_wigner(self, grid32, rng):
        f = PhaseField(grid32, band_limited_field(32, rng, max_mode=8))
        op = weyl_quantize(f)
        assert op.hermiticity_defect() < 1e-12
        w = wigner_transform(op)
        assert w.real


def test_constant_symbol_is_identity(grid32):
    one = PhaseField(grid32, np.ones((32, 32)))
    op = weyl_quantize(one)
    assert np.max(np.abs(op.kernel - identity_operator(grid32).kernel)) < 1e-12


def test_linear_symbol_is_momentum_operator(grid32):
    # f(x, xi) = xi quantizes to -i hbar d/dx, the spectral derivative matrix
    _, XI = grid32.meshgrid()
    op = weyl_quantize(PhaseField(grid32, XI))
    N, L = grid32.N, grid32.L_x
    a = np.fft.fftfreq(N, d=1.0 / N)
    expected = np.zeros((N, N), complex)
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        expected[:, j] = np.fft.ifft(np.fft.fft(e) * (grid32.hbar * 2 * np.pi * a / L)) / grid32.dx
    assert np.max(np.abs(op.kernel - expected)) < 1e-10


def test_weyl_against_quadrature_oracle():
    # direct quadrature of the defining integral with an analytic symbol
    grid = make_grid(32, 2 * np.pi, 2 * np.pi)
    N = grid.N
    sx, sxi = 0.9, 0.7
    vals = wrapped_gaussian(grid, np.pi, 0.0, sx, sxi)
    f = PhaseField(grid, vals)
    K_fast = weyl_quantize(f).kernel

    def f_analytic(x, xi):
        out = 0.0
        for n in range(-2, 3):
            out += np.exp(-((x - np.pi + n * grid.L_x) ** 2) / sx**2 - xi**2 / sxi**2)
        return out

    K_oracle = np.zeros((N, N), complex)
    ks = np.arange(N) - N // 2
    for i in range(N):
        for j in range(N):
            c = ((i - j + N // 2) % N) - N // 2
            mid = (grid.x[i] - c * grid.dx / 2.0) % grid.L_x
            phases = np.exp(2j * np.pi * ks * c / N)
            K_oracle[i, j] = np.sum(phases * f_analytic(mid, grid.xi)) / grid.L_x
    scale = np.max(np.abs(K_oracle))
    assert np.max(np.abs(K_fast - K_oracle)) / scale < 1e-8


def test_trace_rule_and_isometry(grid64, rng):
    f = PhaseField(grid64, band_limited_field(64, rng, max_mode=16))
    op = weyl_quantize(f)
    assert abs(grid64.h * op.trace() - f.integral()) < 1e-10
    assert abs(schatten_norm(op, 2) - lebesgue_norm(f, 2)) < 1e-10


def test_positivity_check_idempotent(grid32, rng):
    X = band_limited_field(32, rng, max_mode=8, real=False)
    pos = DensityOperator(grid32, X @ X.conj().T * grid32.dx, hermitian=True)
    assert pos.check_positive()
    assert pos.check_positive()
    ev = pos.eigenvalues()
    assert ev[0] >= -1e-10 * ev[-1]
    neg = DensityOperator(grid32, -pos.kernel, hermitian=True)
    assert not neg.check_positive()


# ---------------------------------------------------------------------------
# bit-exactness of the flat chord gathers against the 2-d fancy-index tables


def _oracle_tables(N):
    i = np.arange(N)[:, None]
    j = np.arange(N)[None, :]
    c = ((i - j + N // 2) % N) - N // 2
    half = N // 2
    if half % 2 == 0:
        anti_a, anti_b, anti_odd = (i - half // 2) % N, (i + half // 2) % N, False
    else:
        anti_a, anti_b, anti_odd = (i - (half + 1) // 2) % N, (i + (half - 1) // 2) % N, True
    cc = ((j + N // 2) % N) - N // 2
    ceven = (cc % 2) == 0
    return dict(
        col=c % N, even=(c % 2) == 0, anti=c == -N // 2,
        row_even=(i - (c >> 1)) % N, row_odd=(i - ((c + 1) >> 1)) % N,
        anti_a=np.broadcast_to(anti_a, (N, N)), anti_b=np.broadcast_to(anti_b, (N, N)),
        anti_odd=anti_odd,
        diag_R=np.where(ceven, (i + (cc >> 1)) % N, (i + ((cc + 1) >> 1)) % N),
        diag_C=np.where(ceven, (i - (cc >> 1)) % N, (i + ((1 - cc) >> 1)) % N),
        col_even=ceven[0])


def _oracle_weyl(f):
    # the momentum slices and their interpolants come from _chord_slices, so
    # that the oracle pins the gathers from them bit for bit
    from phaselab.transforms import _chord_slices

    grid = f.grid
    N = grid.N
    idx = _oracle_tables(N)
    S = _chord_slices(f.values, grid, f.real)
    B, Bmid = S[:N], S[N:]
    rows = np.where(idx["even"], idx["row_even"], idx["row_odd"])
    K = np.where(idx["even"], B[rows, idx["col"]], Bmid[rows, idx["col"]])
    src = Bmid if idx["anti_odd"] else B
    va = src[idx["anti_a"], idx["col"]]
    vb = src[idx["anti_b"], idx["col"]]
    return np.where(idx["anti"], 0.5 * (va + vb), K)


def _oracle_chord_matrix(K):
    idx = _oracle_tables(K.shape[0])
    return K[idx["diag_R"], idx["diag_C"]]


def _oracle_scatter(Dmat):
    N = Dmat.shape[0]
    idx = _oracle_tables(N)
    K = np.empty((N, N), dtype=complex)
    K[idx["diag_R"], idx["diag_C"]] = Dmat
    return K


def _oracle_wigner(op):
    from phaselab.spectral import half_shift

    B = _oracle_chord_matrix(op.kernel)
    odd = ~_oracle_tables(op.grid.N)["col_even"]
    B[:, odd] = half_shift(B[:, odd], axis=0, direction=-1)
    return np.fft.fftshift(np.fft.fft(B, axis=1), axes=(1,)) * op.grid.dx


@pytest.mark.parametrize("N", [10, 64])   # N/2 odd takes the half-lattice antipodal path
@pytest.mark.parametrize("real", [True, False])
def test_flat_gathers_match_fancy_index_oracles(N, real, rng):
    from phaselab.transforms import chord_matrix

    grid = make_grid(N, 2 * np.pi, 2 * np.pi)
    # full-band data: the Nyquist modes and the antipodal chord carry mass
    f = PhaseField(grid, band_limited_field(N, rng, max_mode=N // 2, real=real), real=real)
    op = weyl_quantize(f)
    assert np.array_equal(op.kernel, _oracle_weyl(f))
    D = chord_matrix(op)
    assert np.array_equal(D, _oracle_chord_matrix(op.kernel))
    assert np.array_equal(scatter_chords(grid, D), _oracle_scatter(D))
    assert np.array_equal(scatter_chords(grid, D), op.kernel)
    assert np.array_equal(wigner_transform(op).values, _oracle_wigner(op).real if real
                          else _oracle_wigner(op))


@pytest.mark.parametrize("N", [10, 64, 128])   # N/2 odd: the antipodal chord reads Bmid
def test_real_symbol_kernels_are_exactly_hermitian(N, rng):
    # the half-spectrum route of a real symbol against the complex route of
    # the same samples, with mass at both Nyquist modes and the antipodal chord
    grid = make_grid(N, 2 * np.pi, 2 * np.pi)
    values = band_limited_field(N, rng, max_mode=N // 2)
    K = weyl_quantize(PhaseField(grid, values)).kernel
    assert np.array_equal(K, K.conj().T)
    Kc = weyl_quantize(PhaseField(grid, values.astype(complex), real=False)).kernel
    assert np.max(np.abs(K - Kc)) <= 1e-15 * np.max(np.abs(Kc))


def _oracle_mode_block(rng, max_mode):
    """random_mode_block's Hermitian symmetrization, one mode pair at a time."""
    M = 2 * max_mode + 1
    c = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    for a in range(-max_mode, max_mode + 1):
        for b in range(-max_mode, max_mode + 1):
            if (a, b) > (-a, -b):
                c[a + max_mode, b + max_mode] = np.conj(c[-a + max_mode, -b + max_mode])
    c[max_mode, max_mode] = c[max_mode, max_mode].real
    return c


def _oracle_spectrum(N, block):
    """field_from_modes's spectrum, one mode at a time."""
    M = (block.shape[0] - 1) // 2
    spec = np.zeros((N, N), dtype=complex)
    for a in range(-M, M + 1):
        for b in range(-M, M + 1):
            spec[a % N, b % N] = block[a + M, b + M]
    return spec


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("hermitian", [True, False])
def test_mode_blocks_match_loop_oracles(seed, hermitian):
    # a block of random_mode_block, or one without Hermitian symmetry, whose
    # synthesized field is complex: field_from_modes keeps its real part. It
    # synthesizes by a real inverse transform, so it agrees with the full
    # complex one to rounding, not bit for bit
    from phaselab.spectral import field_from_modes, random_mode_block

    rng = np.random.default_rng(seed)
    if hermitian:
        block = random_mode_block(rng, 4)
        assert np.array_equal(block, _oracle_mode_block(np.random.default_rng(seed), 4))
    else:
        block = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    for N in (10, 64):
        vals = (np.fft.ifft2(_oracle_spectrum(N, block)) * N**2).real
        np.testing.assert_allclose(field_from_modes(N, block), vals,
                                   rtol=0, atol=1e-14 * np.max(np.abs(vals)))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("order", [1, 2])
def test_real_derivative_takes_the_real_transforms(order, axis, rng, monkeypatch):
    # real data, Nyquist mode included: a real result from rfft/irfft, equal
    # to the real part of the complex route
    from phaselab.spectral import derivative, derivative_multiplier, fourier_multiplier

    N, L = 64, (2 * np.pi, 3.0)[axis]
    values = rng.standard_normal((N, N))
    ref = fourier_multiplier(values.astype(complex), derivative_multiplier(N, L, order), axis).real
    complex_ffts = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: complex_ffts.append(1) or fft(*a, **k))
    out = derivative(values, L, axis, order)
    assert complex_ffts == []
    assert out.dtype == np.float64
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
