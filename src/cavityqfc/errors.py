"""Exception types shared across the toolkit.

Plain ``ValueError`` is used for ordinary invalid arguments (negative
powers, out-of-range ratios, ...).  The classes below mark failure modes
that callers, and in particular the command-line front end, need to tell
apart.
"""

__all__ = ["WorkbenchError", "ParseError", "NumericFailure", "ShapeError", "SamplingError",
           "NoPeriodicity", "CoverageError"]


class WorkbenchError(Exception):
    """Base class for toolkit-specific failures."""


class ParseError(WorkbenchError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericFailure(WorkbenchError):
    """An iterative numerical procedure failed to converge."""


class ShapeError(WorkbenchError):
    """Input data does not have the shape a feature extractor requires."""


class SamplingError(WorkbenchError):
    """Series sampling violates a uniformity requirement."""


class NoPeriodicity(WorkbenchError):
    """No significant periodic component found in the series."""


class CoverageError(WorkbenchError):
    """A sampled response does not cover the support of the input spectrum."""
