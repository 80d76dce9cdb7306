"""Exception types shared across the package.

Every error raised by tentmesh derives from :class:`TentMeshError`, so callers
can catch one type at the boundary.  The CLI maps these onto exit codes:
input and validation problems exit with 2, runtime invariant violations
(:class:`ContractViolation`) exit with 3.
"""

from __future__ import annotations


class TentMeshError(Exception):
    """Base class for all tentmesh errors."""


class DegenerateSimplex(TentMeshError):
    """A simplex is too thin to work with (min altitude < 1e-12 x its diameter)."""


class ValidationError(TentMeshError):
    """An input document or structure failed validation.

    ``location`` carries a human-readable pointer (file line, vertex id, ...)
    when one is known; ``reason`` is the message without it.
    """

    def __init__(self, message: str, location: str | None = None):
        self.reason = message
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class NotFound(TentMeshError):
    """A referenced vertex, facet, or element does not exist."""


class OutOfDomain(TentMeshError):
    """A field was evaluated outside its space-time domain."""


class InvalidArgument(TentMeshError):
    """An argument violates a documented precondition (e.g. a negative lift)."""


class ContractViolation(TentMeshError):
    """A run broke an invariant: any run raises it for a wedged vertex or an
    overrun patch guard, and assertion mode for a failed whole-front check."""
