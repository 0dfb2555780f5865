"""phaselab: phase-space quantization, Hartree / Vlasov-Poisson dynamics,
and a semiclassical inequality and convergence harness on the periodic box.

Importing the package pins OpenBLAS to one thread in this process. On grids
up to N = 256 the extra threads buy no wall time, only CPU, and oversubscribe
the cores under a member pool; with one thread the dense kernels also give
the same bits whatever the caller's OPENBLAS_NUM_THREADS.
"""

from .errors import (
    ConfigurationError,
    IncompatibleGridError,
    NotPositiveError,
    PhaselabError,
    SupportEscapeError,
    TruncationError,
    WrapAmbiguityError,
)
from .grids import PhaseField, PhaseGrid, gaussian_phase_kernel, make_grid, sample_field
from .operators import DensityOperator
from .transforms import weyl_quantize, wigner_transform

__all__ = [
    "ConfigurationError",
    "DensityOperator",
    "IncompatibleGridError",
    "NotPositiveError",
    "PhaseField",
    "PhaseGrid",
    "PhaselabError",
    "SupportEscapeError",
    "TruncationError",
    "WrapAmbiguityError",
    "gaussian_phase_kernel",
    "make_grid",
    "sample_field",
    "weyl_quantize",
    "wigner_transform",
]


def _pin_blas_threads() -> None:
    """Set OpenBLAS to one thread through the symbol that numpy's bundled
    scipy-openblas exports; do nothing where it is absent."""
    try:
        import ctypes

        from numpy._core import _multiarray_umath

        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


_pin_blas_threads()
