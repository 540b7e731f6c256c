"""Exception hierarchy shared by all solver modules."""


class SepkitError(Exception):
    """Base class for all package errors."""


class ParseError(SepkitError):
    """Malformed dataset or stream input."""


class ValidationError(SepkitError):
    """Input violates a precondition (general position, vertical line, ...)."""


class DuplicateCoordinate(ValidationError):
    pass


class CollinearPointsError(ValidationError):
    pass


class UnknownId(SepkitError):
    pass


class EmptyInput(SepkitError):
    pass


class EmptyColor(EmptyInput):
    pass


class ScheduleViolation(SepkitError):
    """A semi-online update broke its deletion schedule.

    A deletion may arrive at or after its promised update, never before.
    Raised when a deletion arrives earlier than promised, when a line
    inserted without a promised time is deleted, and when an insertion's
    promised time is not after the insertion itself.
    """


class NonPositiveEps(SepkitError):
    pass


class CapExceeded(SepkitError):
    """Oracle input exceeds its configured size cap."""


class VerticalSeparator(SepkitError):
    """The geometrically required separator is vertical and unrepresentable."""


def check_k(k: int) -> None:
    """Refuse a negative outlier budget k."""
    if k < 0:
        raise ValueError("k must be >= 0")
