"""Exception hierarchy for the laboratory."""

from __future__ import annotations


class PhaselabError(Exception):
    """Base class for all package errors. ``t`` is the snapshot time at which
    a sweep member's flows raised it, when they did."""

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
