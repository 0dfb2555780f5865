"""Exception hierarchy for the laboratory."""

from __future__ import annotations


class PhaselabError(Exception):
    """Base class for all package errors. ``probe`` and ``t`` name the series
    probe whose per-snapshot consumer raised it in a sweep member, and the
    snapshot time, when one did."""

    probe: str | None = None
    t: float | None = None


class ConfigurationError(PhaselabError):
    """Invalid grid, config, or argument combination."""


class TruncationError(PhaselabError):
    """Profile support leaks through the momentum box boundary."""


class WrapAmbiguityError(PhaselabError):
    """Operator kernel carries mass near the antipodal cut |x-y| = L_x/2."""


class NotPositiveError(PhaselabError):
    """Operator expected positive has a genuinely negative eigenvalue."""


class SupportEscapeError(PhaselabError):
    """Kinetic solution reached the momentum box boundary."""


class IncompatibleGridError(PhaselabError):
    """Operation requires matching grids."""
