"""Exception hierarchy shared by the whole package, and the check that a
count argument is an integer."""

import operator


class TilelabError(Exception):
    """Base class for all library-raised errors."""


class DomainError(TilelabError, ValueError):
    """An input value is outside the mathematical domain of the operation."""


class ArgumentError(TilelabError, ValueError):
    """Arguments are structurally invalid (wrong kind, not coprime, ...)."""


class GeometryError(TilelabError):
    """A geometric quantity degenerated (zero area, underflowed scale)."""


class ResourceError(TilelabError):
    """A configured size cap would be exceeded."""


class NumericError(TilelabError):
    """An iterative numeric procedure failed to converge or lost precision."""


class InternalError(TilelabError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def as_count(value, name: str = "n") -> int:
    """``value`` as a Python int, or ArgumentError unless it is an integer:
    anything ``operator.index`` takes (numpy ints too) except a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ArgumentError(f"{name} must be an integer, got {value!r}")
