"""Exception types shared across the package.

Everything raised on purpose derives from RoiSolveError so callers can catch
one base class; the CLI maps subclasses to exit codes.
"""

from __future__ import annotations


class RoiSolveError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(RoiSolveError):
    """A spec or argument value is out of its legal range."""


class BoundsError(RoiSolveError):
    """A region or offset does not fit inside its parent grid."""


class ShapeError(RoiSolveError):
    """Array dimensions do not line up."""


class SingularSystemError(RoiSolveError):
    """The linear system is singular or numerically unsolvable.

    Attributes:
        condition: condition estimate at the time of failure, if known.
    """

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class SelectionError(RoiSolveError):
    """A spectrum selection is invalid (bad indices, or too few passband entries)."""


class DegenerateInputError(RoiSolveError):
    """Input values make the requested quantity undefined (zero denominator)."""


class InconsistentInputError(RoiSolveError):
    """Inputs are not consistent with a real-valued signal."""


class NoSignalError(RoiSolveError):
    """An image contains no usable signal to localize."""


class FileFormatError(RoiSolveError):
    """A file does not parse as the expected format.

    Attributes:
        offset: byte offset where parsing failed, if known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset
