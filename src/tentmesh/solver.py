"""Patch-local solve stage: outflow slopes and scripted slope updates.

In a full simulation each pitched patch is solved immediately, and the
solution feeds back a conservative slope for every outflow facet and
possibly new wavespeeds, so the slopes a run sees depend on its own history.
That history belongs to the run.  :class:`SlopeScript` is an immutable
stand-in for solution-driven wavespeed changes: rows ``<element> <trigger>
<sigma>`` rewrite a slope table entry once a patch top reaches the trigger.
:func:`bind_run` gives the run a table of its own, and :func:`fire_rows`
fires rows into it in (trigger, element) order, after the triggering
patch's own slopes are sampled (by the star check that accepted it), so a
patch never sees updates it caused.  :func:`solve_patch`, sample then fire,
is library API and the reference the tests hold the run's slopes to.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, ValidationError
from .fields import CompositeMinField, SlopeField, SpatialConeField, TableField, \
    numbered_lines, require_finite, sampled_min_simplices
from .mesh import SpaceMesh


class ScriptRow(NamedTuple):
    element: int
    trigger: float
    sigma: float


@dataclass(frozen=True)
class SlopeScript:
    """Slope-table rewrites in firing order; see the module docstring."""

    rows: tuple[ScriptRow, ...]

    def __post_init__(self):
        for row in self.rows:
            require_finite(f"trigger of script row for element {row.element}",
                           row.trigger)
            require_finite(f"sigma of script row for element {row.element}",
                           row.sigma)
        rows = tuple(sorted(self.rows, key=lambda r: (r.trigger, r.element)))
        seen = set()
        for row in rows:
            key = (row.element, row.trigger)
            if key in seen:
                raise ValidationError(
                    f"duplicate script row for element {row.element} "
                    f"at trigger {row.trigger}"
                )
            seen.add(key)
            if row.trigger < 0.0:
                raise ValidationError("script triggers must be >= 0")
            if row.sigma <= 0.0:
                raise ValidationError("slopes must be positive")
        object.__setattr__(self, "rows", rows)


def parse_script(text: str, source: str = "<script>") -> SlopeScript:
    """Parse script rows, one ``<element> <trigger> <sigma>`` per line.

    Errors name ``source:line``, or ``source`` alone for a script that
    is wrong as a whole (duplicate rows, bad values).
    """
    rows = []
    for lineno, raw in numbered_lines(text):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(
                "expected '<element> <trigger> <sigma>'",
                location=f"{source}:{lineno}",
            )
        try:
            elem = int(parts[0])
            trigger = float(parts[1])
            sigma = float(parts[2])
        except ValueError as exc:
            raise ValidationError(str(exc), location=f"{source}:{lineno}") from exc
        rows.append(ScriptRow(elem, trigger, sigma))
    try:
        return SlopeScript(rows)
    except ValidationError as exc:
        raise ValidationError(exc.reason, location=source) from exc


def load_script(path) -> SlopeScript:
    """Parse a script file; see :func:`parse_script`."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read script document: {exc}", str(path)) from None
    return parse_script(text, source=str(path))


def _leaves(field: SlopeField):
    """The non-composite fields of a field tree, depth first."""
    if isinstance(field, CompositeMinField):
        for child in field.children:
            yield from _leaves(child)
    else:
        yield field


def _find_table(field: SlopeField) -> TableField | None:
    return next((f for f in _leaves(field) if isinstance(f, TableField)), None)


def _replace(field: SlopeField, old: SlopeField, new: SlopeField) -> SlopeField:
    """``field`` with ``old`` swapped for ``new``, composites rebuilt."""
    if field is old:
        return new
    if isinstance(field, CompositeMinField):
        return CompositeMinField([_replace(c, old, new) for c in field.children])
    return field


def check_fit(mesh: SpaceMesh, field: SlopeField) -> None:
    """Raise :class:`ValidationError` unless every table of ``field`` holds
    one slope per simplex of ``mesh`` and every cone centre ``mesh.dim``
    coordinates at a finite squared distance from every vertex.

    Sample points are convex combinations of vertices, so the vertices
    bound their distances; an infinite square would read as outside.
    """
    for leaf in _leaves(field):
        if isinstance(leaf, TableField) and len(leaf.table) != mesh.n_simplices:
            raise ValidationError(
                f"table field has {len(leaf.table)} slopes, but the mesh has "
                f"{mesh.n_simplices} simplices"
            )
        if not isinstance(leaf, SpatialConeField):
            continue
        if leaf.center.shape != (mesh.dim,):
            raise ValidationError(
                f"cone field centre has {leaf.center.size} coordinate(s), but "
                f"the mesh is {mesh.dim}D"
            )
        with np.errstate(over="ignore"):
            d = mesh.vertices - leaf.center
            far = not np.isfinite((d * d).sum(axis=1)).all()
        if far:
            raise ValidationError(
                f"cone field centre {leaf.center.tolist()} lies too far from "
                "the mesh: its squared distance to a vertex overflows")


def bind_run(mesh: SpaceMesh, field: SlopeField,
             script: SlopeScript | None = None) -> SlopeField:
    """The field a run of ``field`` and ``script`` on ``mesh`` evaluates.

    The one place where the three meet: raises :class:`ValidationError` when
    the field does not fit the mesh (:func:`check_fit`), a script row names
    an element outside the table (:class:`InvalidArgument` when there is no
    table), or the run's ``sigma_max``, script slopes included, has a square
    that overflows (causality squares the slope, and an infinite square
    makes the checks NaN).  Without a script the caller's field is returned.
    With one, a fresh field tree whose (first) table reads a writable copy
    made here, with bounds that cover the script's slopes; nothing the
    caller passed in is changed.
    """
    check_fit(mesh, field)
    if script is not None:
        table = _find_table(field)
        if table is None:
            raise InvalidArgument("slope script requires a table field")
        n = len(table.table)
        for row in script.rows:
            if not 0 <= row.element < n:
                raise ValidationError(
                    f"script element {row.element} outside table of {n}")
        run_table = TableField(table.table,
                               future=[row.sigma for row in script.rows])
        run_table.table.flags.writeable = True  # the run's own copy
        field = _replace(field, table, run_table)
    if math.isinf(field.sigma_max * field.sigma_max):
        raise ValidationError(
            f"slope bound sigma_max = {field.sigma_max!r} is too large: "
            "its square overflows")
    return field


def seal_run(field: SlopeField) -> None:
    """Make the table of a finished run's field read-only.

    The field a run returns is then a value like the caller's own fields:
    a later :func:`bind_run` of it with a script copies the table again.
    """
    table = _find_table(field)
    if table is not None:
        table.table.flags.writeable = False


def solve_patch(field: SlopeField, positions: np.ndarray, times: np.ndarray,
                elements: np.ndarray, t_top: float,
                pending: deque[ScriptRow] | None = None,
                ) -> tuple[np.ndarray, list[ScriptRow]]:
    """Run the solve stage for one patch; returns (slopes, fired rows).

    ``positions``/``times``/``elements`` describe the outflow facets (the
    patch's lifted star facets), whose slopes are sampled first.  Only then
    are the rows at the head of ``pending`` (the run's unfired rows, in
    firing order) with trigger <= ``t_top`` popped and written into the
    table of ``field``, which must be the run's own from :func:`bind_run`.
    The driver keeps its star check's samples and calls :func:`fire_rows`.
    """
    slopes = sampled_min_simplices(field, positions, times, elements=elements)
    return slopes, fire_rows(field, t_top, pending)


def fire_rows(field: SlopeField, t_top: float,
              pending: deque[ScriptRow] | None) -> list[ScriptRow]:
    """The script half of :func:`solve_patch`: pop and write the rows of
    ``pending`` with trigger <= ``t_top``; returns them in firing order."""
    fired = []
    if pending and pending[0].trigger <= t_top:
        table = _find_table(field)
        if table is None or not table.table.flags.writeable:
            raise InvalidArgument("script rows fire only into a bind_run table")
        while pending and pending[0].trigger <= t_top:
            row = pending.popleft()
            table.table[row.element] = row.sigma
            fired.append(row)
    return fired
