"""phaselab: phase-space quantization, Hartree / Vlasov-Poisson dynamics,
and a semiclassical inequality and convergence harness on the periodic box."""

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
from .operators import DensityOperator, identity_operator, outer_projector
from .transforms import exchange, swap_symbol, weyl_quantize, wigner_transform

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
    "exchange",
    "gaussian_phase_kernel",
    "identity_operator",
    "make_grid",
    "outer_projector",
    "sample_field",
    "swap_symbol",
    "weyl_quantize",
    "wigner_transform",
]
