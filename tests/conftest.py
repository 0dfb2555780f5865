import numpy as np
import pytest

from phaselab import make_grid


@pytest.fixture
def grid32():
    return make_grid(32, 2 * np.pi, 2 * np.pi)


@pytest.fixture
def grid64():
    return make_grid(64, 2 * np.pi, 2 * np.pi)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


@pytest.fixture
def count_ffts(monkeypatch):
    """A starter for counting numpy FFT calls: ``calls = count_ffts()`` wraps
    every transform in np.fft, and each later call appends the shape of its
    input to ``calls``."""
    def start():
        calls = []
        for name in FFT_NAMES:
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(np.shape(args[0]))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return calls
    return start
