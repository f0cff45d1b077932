"""Exception types shared across the library."""


class WeyrlabError(Exception):
    """Base class for all library-level errors."""


class DimensionMismatch(WeyrlabError):
    """Operands have incompatible shapes or ambient dimensions."""


class SingularMatrixError(WeyrlabError):
    """A matrix required to be invertible is singular."""


class ZeroPolynomialError(WeyrlabError):
    """The zero polynomial was passed where a nonzero one is required."""


class NotRegularError(WeyrlabError):
    """The pencil has an identically vanishing determinant polynomial."""


class NotResolventPointError(WeyrlabError):
    """The supplied point is not a resolvent point."""


class NoResolventPointError(WeyrlabError):
    """The relation admits no resolvent point (singular chains present)."""


class ParseError(WeyrlabError):
    """Malformed scalar, vector, or file input."""
