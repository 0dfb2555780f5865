"""phaselab: phase-space quantization, Hartree / Vlasov-Poisson dynamics,
and a semiclassical inequality and convergence harness on the periodic box.

Importing the package runs OpenBLAS on one thread in this process. On grids
up to N = 256 the extra threads buy no wall time, only CPU, and oversubscribe
the cores under a member pool; with one thread the dense kernels also give
the same bits whatever the caller's OPENBLAS_NUM_THREADS.
"""


def _single_blas_thread() -> None:
    """Run OpenBLAS on one thread.

    OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, and starts
    that many threads, whose spin-wait costs CPU even when they are pinned
    down later. So numpy is loaded here with the variable at 1, and the
    caller's value (or its absence) is put back afterwards. Where numpy came
    first, its thread count is set to 1 through the symbol that numpy's
    bundled scipy-openblas exports; nothing is done where that is absent.
    """
    import os
    import sys

    if "numpy" not in sys.modules:
        caller = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy  # noqa: F401
        finally:
            if caller is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = caller
        return
    try:
        import ctypes

        from numpy._core import _multiarray_umath

        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


_single_blas_thread()

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
