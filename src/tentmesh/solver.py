"""Patch-local solve stage: outflow slope refresh and scripted updates.

In a full simulation each pitched patch is solved immediately, and the
solution feeds two things back to the mesh generator: a conservative slope
for every outflow facet, and possibly new wavespeeds for elements whose
material state changed.  This module supplies both halves in a form the
driver can run deterministically:

* :func:`outflow_slopes` evaluates the sampled minimum slope of each lifted
  facet, the value the cone index stores for it.
* :class:`SlopeScript` is a reproducible stand-in for solution-driven
  wavespeed changes: rows ``<element> <trigger> <sigma>`` rewrite a slope
  table entry once a patch top reaches the trigger time.  Rows fire in
  (trigger, element) order, after the triggering patch's own slopes are
  computed, so a patch never sees updates it caused.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .constraints import ConstraintConfig
from .errors import InvalidArgument, ValidationError
from .fields import CompositeMinField, SlopeField, TableField, require_finite, \
    sampled_min_simplices


class ScriptRow(NamedTuple):
    element: int
    trigger: float
    sigma: float


def _find_table(field: SlopeField) -> TableField | None:
    if isinstance(field, TableField):
        return field
    if isinstance(field, CompositeMinField):
        for child in field.children:
            found = _find_table(child)
            if found is not None:
                return found
    return None


def _refresh_composite_bounds(field: SlopeField) -> None:
    if isinstance(field, CompositeMinField):
        for child in field.children:
            _refresh_composite_bounds(child)
        field.sigma_min = min(c.sigma_min for c in field.children)
        field.sigma_max = min(c.sigma_max for c in field.children)


@dataclass
class SlopeScript:
    """Ordered pending slope-table rewrites; see the module docstring."""

    rows: list[ScriptRow]
    _table: TableField | None = dataclass_field(default=None, repr=False)
    _next: int = 0

    def __post_init__(self):
        for row in self.rows:
            require_finite(f"trigger of script row for element {row.element}",
                           row.trigger)
            require_finite(f"sigma of script row for element {row.element}",
                           row.sigma)
        self.rows = sorted(self.rows, key=lambda r: (r.trigger, r.element))
        seen = set()
        for row in self.rows:
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

    def attach(self, field: SlopeField) -> None:
        """Bind to the table inside ``field`` and widen its slope bounds.

        Widening happens up front so the global step floor (and every clamp)
        already accounts for slopes the script will introduce later.
        """
        table = _find_table(field)
        if table is None:
            raise InvalidArgument("slope script requires a table field")
        n = len(table.table)
        for row in self.rows:
            if not 0 <= row.element < n:
                raise ValidationError(
                    f"script element {row.element} outside table of {n}"
                )
        table.note_future_sigma([row.sigma for row in self.rows])
        _refresh_composite_bounds(field)
        self._table = table

    @property
    def pending(self) -> int:
        return len(self.rows) - self._next

    def fire_until(self, t_top: float) -> list[ScriptRow]:
        """Apply every unfired row with trigger <= t_top; returns them."""
        if self._table is None:
            raise InvalidArgument("script is not attached to a field")
        fired = []
        while self._next < len(self.rows) and self.rows[self._next].trigger <= t_top:
            row = self.rows[self._next]
            self._table.set_value(row.element, row.sigma)
            fired.append(row)
            self._next += 1
        return fired


def parse_script(text: str) -> SlopeScript:
    """Parse script rows, one ``<element> <trigger> <sigma>`` per line."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(
                "expected '<element> <trigger> <sigma>'", location=f"line {lineno}"
            )
        try:
            elem = int(parts[0])
            trigger = float(parts[1])
            sigma = float(parts[2])
        except ValueError as exc:
            raise ValidationError(str(exc), location=f"line {lineno}") from exc
        rows.append(ScriptRow(elem, trigger, sigma))
    return SlopeScript(rows)


def load_script(path) -> SlopeScript:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_script(fh.read())


def outflow_slopes(field: SlopeField, config: ConstraintConfig,
                   positions: np.ndarray, times: np.ndarray,
                   elements: np.ndarray) -> np.ndarray:
    """Sampled minimum slope of each lifted facet (cone-store values)."""
    return sampled_min_simplices(field, positions, times,
                                 config.slope_samples, elements=elements)


def solve_patch(field: SlopeField, config: ConstraintConfig,
                positions: np.ndarray, times: np.ndarray,
                elements: np.ndarray, t_top: float,
                script: SlopeScript | None = None,
                ) -> tuple[np.ndarray, list[ScriptRow]]:
    """Run the solve stage for one patch.

    ``positions``/``times``/``elements`` describe the outflow facets (the
    patch's lifted star facets).  Slopes are evaluated against the field
    first; only then do script rows triggered by ``t_top`` fire.
    """
    slopes = outflow_slopes(field, config, positions, times, elements)
    fired = script.fire_until(t_top) if script is not None else []
    return slopes, fired
