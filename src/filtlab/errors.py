"""Exception types shared across filtlab modules."""


class FiltlabError(Exception):
    """Base class for all filtlab errors."""


class StructuralError(FiltlabError):
    """Malformed input: wrong shape, negative entries, mismatched sizes or specs."""


class DegenerateBlockError(FiltlabError):
    """A point pair touches a zero-mass block (`LevelSemimetric.point_distance`)."""


class SizeCapError(FiltlabError):
    """An enumeration or simulation would exceed its configured size guard."""


class DomainError(FiltlabError):
    """A numeric argument is outside the operation's domain (e.g. epsilon <= 0)."""


class InsufficientDataError(FiltlabError):
    """Not enough valid data points remain for a fit or estimate."""

