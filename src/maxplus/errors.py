"""Exception types shared across the package."""

from __future__ import annotations


class MaxplusError(Exception):
    """Base class for errors raised by this package."""


class ParseError(MaxplusError):
    """Malformed text input.  Carries 1-based line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}"
            if column is not None:
                where += f", column {column}"
        super().__init__(message + where)


class DimensionError(MaxplusError):
    """Operands whose shapes do not match."""


class ClassificationError(MaxplusError):
    """A degenerate half-space (Everything or BottomOnly) was passed to
    an operation defined only for proper ones."""


class PointInSetError(MaxplusError):
    """The point already belongs to the set, so the requested
    construction (a separating witness, a best-approximation face
    family) does not exist."""


class InfiniteDistanceError(MaxplusError):
    """The point is at distance +inf from the set, where the requested
    answer would be degenerate (e.g. the whole set minimizes)."""

    def __init__(self, message="distance is +inf"):
        super().__init__(message)


class UnsupportedCaseError(MaxplusError):
    """Input outside the domain this operation is defined on (e.g. a
    +inf coordinate where only lower-bounded data is handled)."""
