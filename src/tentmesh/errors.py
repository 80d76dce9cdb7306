"""Exception types shared across the package.

Every error raised by tentmesh derives from :class:`TentMeshError`, so callers
can catch one type at the boundary.  The CLI maps these onto exit codes:
input and validation problems exit with 2, runtime invariant violations
(:class:`ContractViolation`) exit with 3.  :func:`check_count` and
:func:`check_vertex` are the integer-argument checks the entry points share,
and :func:`is_number_type` and :func:`is_integer_type` the type rules of
the ones that take numbers and ids.
"""

from __future__ import annotations

import numbers
import operator


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
    overrun patch guard, and assertion mode for a failed invariant check."""


def check_count(name: str, count) -> None:
    """Raise :class:`InvalidArgument` unless ``count`` is an integer >= 0
    (a bool is not a count)."""
    try:
        if operator.index(count) >= 0 and not isinstance(count, bool):
            return
    except TypeError:
        pass
    raise InvalidArgument(f"{name} must be an integer >= 0, got {count!r}")


def check_vertex(p, n_vertices: int) -> int:
    """``p`` as an int: :class:`InvalidArgument` unless it is an integer
    (a bool is not a vertex id), :class:`NotFound` outside ``[0, n)``."""
    try:
        v = operator.index(p)
    except TypeError:
        v = None
    if v is None or isinstance(p, bool):
        raise InvalidArgument(f"vertex id must be an integer, got {p!r}")
    if not 0 <= v < n_vertices:
        raise NotFound(f"vertex {v} does not exist")
    return v


def is_number_type(t: type) -> bool:
    """Whether values of type ``t`` are numbers: Python's and numpy's ints
    and floats are, a bool is not (numpy reads it as 0 or 1), nor is a str
    (numpy parses it)."""
    return issubclass(t, numbers.Real) and not issubclass(t, bool)


def is_integer_type(t: type) -> bool:
    """Whether values of type ``t`` are integers, by the rule of
    :func:`is_number_type`; a float is not, even one with an integral value."""
    return issubclass(t, numbers.Integral) and not issubclass(t, bool)
