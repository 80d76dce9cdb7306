"""Wavespeed slope fields: sigma(x, t) = 1 / wavespeed(x, t).

A slope field is the oracle the mesh generator queries while pitching.  All
built-in fields are defined by global formulas for t >= 0 and report two
global bounds, ``sigma_min`` and ``sigma_max``; the minimum step guarantee is
derived from ``sigma_min``, so it must bound every value the field will ever
return, including scripted table updates (:class:`TableField`'s ``future``).
Fields are immutable values with read-only parameter arrays, so one field
can drive any number of runs; :meth:`SlopeField.attach_domain` is the one
setter, kept for library callers who want off-domain evaluation caught.

``sampled_min_simplices`` is deliberately a *sampled* minimum: the field is
evaluated at the simplex vertices, edge midpoints, centroid, and a fixed set
of ``SLOPE_SAMPLES`` extra barycentric points, and the smallest sample
(clamped to ``sigma_min``) stands in for the true infimum.  For fields whose
variation is resolved by those samples this is conservative;
discontinuities thinner than the sampling are the caller's responsibility.
It takes R rows of vertex times per simplex at once: the sample points are
computed once per simplex (or once per star, as :class:`SampleSites` a
caller keeps), and ``_values`` then gets ``ts`` of shape (R, N) against
``xs`` of shape (N, dim), one row per time row.  Every
``_values`` must return an array that broadcasts to the shape of ``ts``:
elementwise in ``ts`` and per point in ``xs`` (a field that reads only
``xs[:, 0]`` or ``elems`` may return shape (N,)).  Sample points and times
are sums by :func:`~tentmesh.geometry.ordered_dot`, the rule for every small
product, so they keep their bits in every call and on every CPU.

Field documents are line based, ``#`` starts a comment::

    field constant 2.0
    field timestep 5.0 2.0 0.5
    field cone 0.5 0.5 0.0 4.0 1.0 4.0
    field table slopes.txt

``timestep`` takes ascending band boundaries followed by one slope per band
(t exactly on a boundary gets the later band's value).  ``cone`` is
``cx [cy] t_apex sigma_inside sigma_outside cone_slope``: points with
``t - t_apex >= cone_slope * |x - c|`` are inside.  ``table`` rows are
``<element id> <sigma>`` in a separate file.  Several ``field`` lines in one
document combine as the pointwise minimum.

Fields that *drive* a run must not cut budgets the front has already spent:
once the front has advanced somewhere, a later slope drop there can strand
a vertex whose neighbors' time spreads were legitimately built under the
older, larger slope.  Slope rises (slow-downs) are not always safe either:
in 2D the progress half of the star check judges a lifted triangle against
a slope sampled with its middle vertex raised by the floor, which a rising
field over-estimates, and a front can wedge.  The slow-down cone run
``advance_until(grid_mesh(20, 20, skew=0.1), SpatialConeField([0.1, 0.1],
0.0, 2.0, 1.0, 0.05), 0.15)`` raises
:class:`~tentmesh.errors.ContractViolation` at vertex 64; item 1 of
ROADMAP.md tracks the fix.  Level-in-space drops (``timestep``) are safe:
the driver throttles every tent against the drop before crossing it, so
fronts arrive flat and rebuild their spreads under the new slope.  A
spatial speed-up ``cone`` with ``cone_slope <= sigma_inside`` grows its
region at ``1 / cone_slope >= 1 / sigma_inside``, so the speed-up spreads
at least as fast as its own wave; gate c01 draws its 1D speed-up cones in
this range, and 1D runs drive through them, since a stranded vertex can
always catch up to its neighbor.  In 2D even such a cone can leave a vertex
wedged between a facet spread that is suddenly too steep and a progress
budget that is suddenly too small; the driver first looks for a verified
catch-up pitch and raises :class:`~tentmesh.errors.ContractViolation` only
when none exists.
Evaluating any field is always well defined, so the constructors reject
only parameters that are not finite numbers (see :func:`require_finite`).
"""

from __future__ import annotations

import io
import math
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, OutOfDomain, ValidationError, is_number_type
from .geometry import ordered_dot

_TIME_TOL = 0.0  # fields are defined for t >= 0 exactly


def frozen_floats(name: str, values) -> np.ndarray:
    """A read-only float64 copy of ``values``, a number or an array of them.

    The number check of every field parameter and of start times: raises
    :class:`ValidationError` naming ``name`` (and, for an array, the index)
    at the first entry that is not a number by
    :func:`~tentmesh.errors.is_number_type`, where numpy would parse a str
    and read a bool as 0 or 1.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        items = np.array(values, dtype=object)
        if not all(map(is_number_type, set(map(type, items.flat)))):
            i, v = next((i, v) for i, v in enumerate(items.flat)
                        if not is_number_type(type(v)))
            if items.ndim == 0:
                raise ValidationError(f"{name} must be a number, got {v!r}")
            raise ValidationError(f"{name} must be numbers, got {v!r} at index {i}")
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def require_finite(name: str, value) -> np.ndarray:
    """:func:`frozen_floats` of ``value``, which must be a finite number or
    an array of them, or :class:`ValidationError` naming ``name``.

    For an array the message names the index of the first bad entry.
    """
    arr = frozen_floats(name, value)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        label = name if arr.ndim == 0 else f"{name}[{bad[0]}]"
        raise ValidationError(f"{label} must be finite, got {arr.flat[bad[0]]}")
    return arr


def finite_number(name: str, value) -> float:
    """``value`` as a float; :class:`ValidationError` naming ``name`` unless
    it is one finite number (an array, even of one entry, is not)."""
    arr = frozen_floats(name, value)
    if arr.ndim:
        raise ValidationError(f"{name} must be a number, got {value!r}")
    require_finite(name, arr)
    return float(arr)


class SlopeField:
    """Base class; subclasses implement ``_values`` as a pure vectorized map."""

    def __init__(self, sigma_min: float, sigma_max: float):
        if not (sigma_min > 0.0 and sigma_max >= sigma_min):
            raise ValidationError(
                f"slope bounds must satisfy 0 < sigma_min <= sigma_max, "
                f"got ({sigma_min}, {sigma_max})"
            )
        self.sigma_min = float(sigma_min)
        self.sigma_max = float(sigma_max)
        self.domain: tuple[np.ndarray, np.ndarray] | None = None

    # -- evaluation ---------------------------------------------------------

    def _values(self, xs: np.ndarray, ts: np.ndarray, elems) -> np.ndarray:
        raise NotImplementedError

    def values(self, xs, ts, elems=None) -> np.ndarray:
        """Vectorized slope lookup; ``xs`` is (N, dim), ``elems`` (N,).

        ``ts`` is (N,), or (R, N) for R rows of times at the same N points;
        the result broadcasts to the shape of ``ts`` (a field that reads
        only ``xs`` or ``elems`` may return (N,)).
        """
        xs = np.asarray(xs, dtype=np.float64)
        ts = np.asarray(ts, dtype=np.float64)
        lowest = ts.min(initial=0.0)
        if lowest < -_TIME_TOL:
            raise OutOfDomain(f"field evaluated at negative time {lowest}")
        if self.domain is not None:
            lo, hi = self.domain
            pad = 1e-9 * max(1.0, float(np.max(hi - lo)))
            if np.any(xs < lo - pad) or np.any(xs > hi + pad):
                raise OutOfDomain("field evaluated outside its spatial domain")
        return self._values(xs, ts, elems)

    def attach_domain(self, lo, hi) -> None:
        self.domain = (np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))

    @property
    def is_constant(self) -> bool:
        return False


class ConstantField(SlopeField):
    def __init__(self, sigma: float):
        sigma = finite_number("sigma", sigma)
        super().__init__(sigma, sigma)
        self.sigma = sigma

    def _values(self, xs, ts, elems):
        return np.full(ts.shape, self.sigma)

    @property
    def is_constant(self) -> bool:
        return True


class TimeStepField(SlopeField):
    """Piecewise-constant in time: slope values per band between boundaries."""

    def __init__(self, boundaries, sigmas):
        boundaries = require_finite("boundaries", boundaries)
        sigmas = require_finite("sigmas", sigmas)
        if len(sigmas) != len(boundaries) + 1:
            raise ValidationError(
                f"timestep field needs one more slope than boundaries, "
                f"got {len(sigmas)} slopes for {len(boundaries)} boundaries"
            )
        if len(boundaries) and np.any(np.diff(boundaries) <= 0.0):
            raise ValidationError("timestep boundaries must be strictly ascending")
        if np.any(sigmas <= 0.0):
            raise ValidationError("slopes must be positive")
        super().__init__(float(sigmas.min()), float(sigmas.max()))
        self.boundaries = boundaries
        self.sigmas = sigmas

    def _values(self, xs, ts, elems):
        # side='right' puts a boundary instant into the later band.
        idx = np.searchsorted(self.boundaries, ts, side="right")
        return self.sigmas[idx]


class SpatialConeField(SlopeField):
    """One slope inside an expanding circular region, another outside.

    The region is a cone in spacetime with apex (center, t_apex): a point is
    inside when ``t - t_apex >= cone_slope * |x - center|``.

    When the field drives a run and ``sigma_inside < sigma_outside`` (the
    wave speeds up inside), gate c01 draws 1D cones with ``cone_slope <=
    sigma_inside``: the region then grows at ``1 / cone_slope``, at least
    the inside wave speed ``1 / sigma_inside``, so the speed-up spreads at
    least as fast as the sped-up wave.  Only drive 1D runs with a speed-up
    cone; in 2D it can wedge a front vertex between facet spreads committed
    under the outside slope and the shrunken inside budgets (see the module
    docstring).  Slow-down cones (``sigma_inside > sigma_outside``) can
    wedge a 2D front too (see the module docstring and item 1 of
    ROADMAP.md).
    """

    def __init__(self, center, t_apex: float, sigma_inside: float,
                 sigma_outside: float, cone_slope: float):
        center = require_finite("center", center)
        t_apex, sigma_inside, sigma_outside, cone_slope = (
            finite_number(name, value) for name, value in (
                ("t_apex", t_apex), ("sigma_inside", sigma_inside),
                ("sigma_outside", sigma_outside), ("cone_slope", cone_slope)))
        if sigma_inside <= 0.0 or sigma_outside <= 0.0:
            raise ValidationError("slopes must be positive")
        if cone_slope < 0.0:
            raise ValidationError("cone_slope must be nonnegative")
        super().__init__(min(sigma_inside, sigma_outside),
                         max(sigma_inside, sigma_outside))
        self.center = center
        self.t_apex = t_apex
        self.sigma_inside = sigma_inside
        self.sigma_outside = sigma_outside
        self.cone_slope = cone_slope

    def _values(self, xs, ts, elems):
        # An overflow saturates to inf, which still compares the right way;
        # a zero cone_slope puts every point inside once t >= t_apex, even
        # where the distance overflows (0 * inf would be NaN).
        with np.errstate(over="ignore"):
            # |x - center| by coordinates: the sqrt of d0 * d0 + d1 * d1.
            d = xs.T[:len(self.center)] - self.center[:, None]
            sq = ordered_dot(d, d)
            reach = self.cone_slope * np.sqrt(sq) if self.cone_slope else 0.0
            inside = (ts - self.t_apex) >= reach
        return np.where(inside, self.sigma_inside, self.sigma_outside)


class TableField(SlopeField):
    """Per-element slope table, held as a read-only copy of ``values``.

    ``future`` lists slopes the table may take later (scripted rewrites);
    ``sigma_min``/``sigma_max`` cover them as well as the initial values, so
    the global step floor stays valid.  Only a run writes table entries, and
    only into the copy :func:`~tentmesh.solver.bind_run` makes for it.
    """

    def __init__(self, values, future=()):
        values = frozen_floats("values", values)
        future = frozen_floats("future", future).reshape(-1)
        if values.ndim != 1 or len(values) == 0:
            raise ValidationError("table field needs one slope per element")
        require_finite("values", values)
        require_finite("future", future)
        bounds = np.concatenate([values, future])
        if np.any(bounds <= 0.0):
            raise ValidationError("slopes must be positive")
        super().__init__(float(bounds.min()), float(bounds.max()))
        self.table = values

    def _values(self, xs, ts, elems):
        if elems is None:
            raise InvalidArgument("table field needs element context to evaluate")
        return self.table[np.asarray(elems, dtype=np.int64)]


class CompositeMinField(SlopeField):
    """Pointwise minimum of several fields."""

    def __init__(self, children):
        children = tuple(children)
        if not children:
            raise ValidationError("composite field needs at least one child")
        super().__init__(min(c.sigma_min for c in children),
                         min(c.sigma_max for c in children))
        self.children = children

    def _values(self, xs, ts, elems):
        vals = self.children[0]._values(xs, ts, elems)
        for child in self.children[1:]:
            vals = np.minimum(vals, child._values(xs, ts, elems))
        return vals


# ---------------------------------------------------------------------------
# sampled minimum over a simplex
# ---------------------------------------------------------------------------

# Extra interior points per simplex beyond vertices, midpoints and centroid.
SLOPE_SAMPLES = 4
_EXTRA_BARY_SEED = 20240711
_columns_cache: dict[tuple[int, int], np.ndarray] = {}
# The extra rows a run samples, as _barycentric_columns draws them, kept
# as literals: the draw imports numpy.random, about 15 ms of a process.
# tests/test_fields.py draws them again and compares the bits.
_RUN_EXTRA_BARY = {
    (2, SLOPE_SAMPLES): (
        (0.533252804126094, 0.46674719587390595),
        (0.5547892496266171, 0.4452107503733829),
        (0.3283096475700287, 0.6716903524299712),
        (0.9449962240224007, 0.0550037759775994),
    ),
    (3, SLOPE_SAMPLES): (
        (0.7415855253921163, 0.22288106524186874, 0.03553340936601506),
        (0.31194579017134044, 0.6095125613421898, 0.0785416484864699),
        (0.3127011826345007, 0.6402654419891236, 0.04703337537637566),
        (0.09556602819260593, 0.22891533987652077, 0.6755186319308732),
    ),
}


def _barycentric_columns(k: int, samples: int) -> np.ndarray:
    """Barycentric weights as a (k, S) array: row j weighs vertex j.

    The S samples are the vertices, the edge midpoints, the centroid and
    ``samples`` extra quasi-random interior points drawn once from a fixed
    seed, so every call (and every run) samples the same locations.
    """
    key = (k, samples)
    got = _columns_cache.get(key)
    if got is None:
        eye = np.eye(k)
        rows = [eye, [(eye[i] + eye[j]) / 2 for i, j in combinations(range(k), 2)],
                np.full((1, k), 1.0 / k)]
        if samples > 0:
            extra = _RUN_EXTRA_BARY.get(key)
            if extra is None:
                rng = np.random.default_rng(_EXTRA_BARY_SEED + 1000 * k + samples)
                extra = rng.dirichlet(np.ones(k), size=samples)
            rows.append(np.array(extra))
        got = _columns_cache[key] = np.ascontiguousarray(np.vstack(rows).T)
    return got


def sampled_min_values(field: SlopeField, positions: np.ndarray,
                       times_batch: np.ndarray, samples: int = SLOPE_SAMPLES,
                       element: int | None = None) -> np.ndarray:
    """Clamped sampled minimum for a batch of time assignments.

    ``positions`` is (k, dim); ``times_batch`` is (B, k): the same spatial
    simplex under B different vertex-time assignments.  Returns (B,) slope
    values.  The per-simplex reference that tests hold
    :func:`sampled_min_simplices` to; ``samples`` sets the number of extra
    interior points.
    """
    positions = np.asarray(positions, dtype=np.float64)
    times_batch = np.atleast_2d(np.asarray(times_batch, dtype=np.float64))
    if field.is_constant:
        # Sampling a constant always returns the constant, its sigma_min.
        return np.full(times_batch.shape[0], field.sigma_min)
    cols = _barycentric_columns(positions.shape[0], samples)  # (k, S)
    pts = ordered_dot(cols[:, :, None], positions[:, None, :])  # (S, dim)
    ts = ordered_dot(times_batch.T[:, :, None], cols[:, None, :])  # (B, S)
    B, S = ts.shape
    elems = None
    if element is not None:
        elems = np.full(B * S, int(element), dtype=np.int64)
    flat = field.values(np.tile(pts, (B, 1)), ts.reshape(-1), elems=elems)
    mins = flat.reshape(B, S).min(axis=1)
    return np.maximum(field.sigma_min, mins)


class SampleSites(NamedTuple):
    """Where :func:`sampled_min_simplices` evaluates a field over m simplices.

    ``pts`` holds each simplex's ``S`` sample points, simplex by simplex, as
    an (m * S, dim) array, and ``elems`` the simplex's element id repeated
    once per point (None without ids).  The sites depend on the positions
    only, so a caller that samples the same simplices at many times, such
    as every probe of one star, computes them once with :meth:`of`.
    """

    pts: np.ndarray
    elems: np.ndarray | None

    @classmethod
    def of(cls, positions: np.ndarray, elements=None) -> "SampleSites":
        """The sites of ``positions`` (m, k, dim) and their (m,) ``elements``."""
        positions = np.asarray(positions, dtype=np.float64)
        m, k = positions.shape[:2]
        cols = _barycentric_columns(k, SLOPE_SAMPLES)  # (k, S)
        S = cols.shape[1]
        # Made coordinate by coordinate: pts[:, d] is one contiguous run.
        pts = ordered_dot(positions.transpose(1, 2, 0)[..., None],
                          cols[:, None, None, :]).reshape(-1, m * S).T
        elems = None
        if elements is not None:
            elems = np.repeat(np.asarray(elements, dtype=np.int64), S)
        return cls(pts, elems)


def sampled_min_simplices(field: SlopeField, positions, times: np.ndarray,
                          elements=None) -> np.ndarray:
    """Conservative slope for many simplices at once.

    ``positions`` is (m, k, dim), or their :class:`SampleSites` (which carry
    the ids, so ``elements`` is then not given); ``times`` is (m, k), or
    (m, R, k) for R rows of vertex times per simplex, and ``elements`` an
    optional (m,) id array.  Returns (m,) or (m, R) values with the sample
    points and clamp of :func:`sampled_min_values` at ``SLOPE_SAMPLES``.
    With rows, the field sees ``ts`` of shape (R, N) against ``xs`` of shape
    (N, dim), and its values broadcast to (R, N); a (m, k) call is the
    call with R = 1.
    """
    times = np.asarray(times, dtype=np.float64)
    if field.is_constant:
        return np.full(times.shape[:-1], field.sigma_min)
    sites = positions if isinstance(positions, SampleSites) \
        else SampleSites.of(positions, elements)
    m, k = times.shape[0], times.shape[-1]
    R = times.shape[1] if times.ndim == 3 else 1
    cols = _barycentric_columns(k, SLOPE_SAMPLES)  # (k, S)
    S = cols.shape[1]
    # ts[r, i, s]: row r of simplex i at sample s, contiguous as (R, m * S).
    rows = times.reshape(m, R, k).transpose(2, 1, 0)[..., None]  # (k, R, m, 1)
    ts = ordered_dot(rows, cols[:, None, None, :]).reshape(R, m * S)
    vals = field.values(sites.pts, ts, elems=sites.elems)
    if vals.shape != ts.shape:
        vals = np.broadcast_to(vals, ts.shape)
    mins = vals.reshape(R, m, S).min(axis=2).T
    return np.maximum(field.sigma_min, mins).reshape(times.shape[:-1])


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------


def _parse_field_line(args: list[str], base_dir: Path,
                      n_elements: int | None) -> SlopeField:
    """The field of one document line; :func:`parse_field` adds its location."""
    if not args:
        raise ValidationError("empty field line")
    kind, rest = args[0], args[1:]
    try:
        nums = [float(a) for a in rest]
    except ValueError:
        nums = None
    if kind == "constant":
        if nums is None or len(nums) != 1:
            raise ValidationError("usage: field constant <sigma>")
        return ConstantField(nums[0])
    if kind == "timestep":
        if nums is None or len(nums) < 3 or len(nums) % 2 == 0:
            raise ValidationError(
                "usage: field timestep <boundaries...> <slopes...> "
                "(k-1 boundaries then k slopes)"
            )
        k = (len(nums) + 1) // 2
        return TimeStepField(nums[: k - 1], nums[k - 1 :])
    if kind == "cone":
        if nums is None or len(nums) not in (5, 6):
            raise ValidationError(
                "usage: field cone <cx> [<cy>] <t_apex> <sigma_inside> "
                "<sigma_outside> <cone_slope>"
            )
        center, tail = (nums[:1], nums[1:]) if len(nums) == 5 else (nums[:2], nums[2:])
        return SpatialConeField(center, tail[0], tail[1], tail[2], tail[3])
    if kind == "table":
        if len(rest) != 1:
            raise ValidationError("usage: field table <path>")
        return _load_table(base_dir / rest[0], n_elements)
    raise ValidationError(f"unknown field kind {kind!r}")


def records(text: str):
    """(line number, tokens) of each line of ``text`` that holds a token.

    The one rule for the line-based documents (mesh, field, table and
    script): ``#`` starts a comment that runs to the end of its line, and
    tokens are what ``str.split`` makes of the rest.  Lines are numbered
    from 1 and end where a file read with universal newlines ends them, as
    :func:`~tentmesh.mesh.load_mesh` reads: at ``\\n``, ``\\r\\n`` and
    ``\\r``.  ``str.splitlines`` also ends them at form feeds, vertical
    tabs, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028`` and ``\\u2029``,
    which would number every later line past its place in the file.
    """
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _load_table(path: Path, n_elements: int | None) -> TableField:
    if n_elements is None:
        raise ValidationError("table field needs a mesh for its element count")
    values = np.zeros(n_elements)
    seen = np.zeros(n_elements, dtype=bool)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ValidationError(f"cannot read table: {exc}", str(path)) from None
    for lineno, tokens in records(text):
        where = f"{path}:{lineno}"
        if len(tokens) != 2:
            raise ValidationError("table rows are '<element id> <sigma>'", where)
        try:
            elem, sigma = int(tokens[0]), float(tokens[1])
        except ValueError as exc:
            raise ValidationError(f"bad table row: {exc}", where) from None
        if not 0 <= elem < n_elements:
            raise ValidationError(f"element {elem} out of range", where)
        if seen[elem]:
            raise ValidationError(f"duplicate row for element {elem}", where)
        if not math.isfinite(sigma):
            raise ValidationError(f"values[{elem}] must be finite, got {sigma}", where)
        if sigma <= 0.0:
            raise ValidationError(f"slopes must be positive, got {sigma}", where)
        seen[elem] = True
        values[elem] = sigma
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ValidationError(f"table missing element {missing}", str(path))
    return TableField(values)


def parse_field(text: str, base_dir=".", n_elements: int | None = None,
                source: str = "<field>") -> SlopeField:
    """Parse a field document given as text; see the module docstring grammar."""
    base_dir = Path(base_dir)
    fields: list[SlopeField] = []
    for lineno, tokens in records(text):
        if tokens[0] == "field":
            tokens = tokens[1:]
        try:
            fields.append(_parse_field_line(tokens, base_dir, n_elements))
        except ValidationError as exc:
            # Errors of a table file name that file themselves.
            if exc.location is not None:
                raise
            raise ValidationError(exc.reason, f"{source}:{lineno}") from None
    if not fields:
        raise ValidationError("no field line found", source)
    if len(fields) == 1:
        return fields[0]
    return CompositeMinField(fields)


def load_field(path, n_elements: int | None = None) -> SlopeField:
    """Parse a field document file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ValidationError(f"cannot read field document: {exc}", str(path)) from None
    return parse_field(text, base_dir=path.parent, n_elements=n_elements,
                       source=str(path))
