"""Exception hierarchy for the laboratory."""


class PhaselabError(Exception):
    """Base class for all package errors."""


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
