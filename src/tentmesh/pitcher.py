"""Advancing-front driver: pitch tents until the front clears a target time.

The front is a piecewise-linear time function over the space mesh.  Each step
picks a local-minimum vertex p, lifts it by a greedily chosen height, and
emits one spacetime element per star simplex (the volume between the old and
new front over that simplex).  Heights are chosen so that

* the new front stays causal against the slope field, with remote cone
  slopes capping the causality check (2D) or remote cones avoided outright
  (1D), and
* every 2D star triangle remains *progressive*: future floor-height lifts of
  its lowest vertex keep it causal and within the progress constraint,

while never dropping below the global floor ``tmin`` (``sigma_min * wmin``
in 1D, ``epsilon * sigma_min * wmin`` in 2D), which a local-minimum lift can
always take safely.  That floor is what guarantees termination.

The height search brackets the top between the floor and a closed-form local
cap and accepts the cap if it verifies against the sampled field.  The cap
is where the verifier's own constraints reach zero on p's star for the
smallest cone slope over it: in 1D the neighbor cone walls, in 2D per
triangle the altitude form of causality at apex p and the edge form of
progress with p as the latest vertex, both read from the mesh's cached
:class:`~tentmesh.geometry.ApexGeometry`.  Otherwise
a safeguarded Illinois regula falsi on the star's margin (the smallest
tolerance-adjusted slack the verifier computes, >= 0 exactly when the star
is acceptable) narrows the bracket to ``eta / 8`` and returns its verified
lower end: every height a run takes is a probed, feasible point.  All
choices (vertex selection, tie-breaks, search steps) are deterministic, so a
run is a pure function of its inputs.

Each patch gathers p's star once, as the
:class:`~tentmesh.constraints.Facets` of ``mesh.stars[p]``.  The bracket,
the closed-form cap, every probe of the search, the element emit and the
cone store's update read that record; the search, the bracket and the star
check gather it themselves when called without one.  The spacetime mesh
keeps one current event per vertex, the one on the front, so emitting a
patch's elements needs no lookup by (vertex, time): a base corner is its
vertex's current event, and the lifted vertex's top becomes its next.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintConfig, Facets, facet_verdicts, is_progressive_front
from .errors import ContractViolation, InvalidArgument, ValidationError
from .fields import SlopeField
from .front import BlockedTimes, Front, check_times, initial_front, local_minima
from .geometry import APEX_OTHERS
from .hierarchy import build as build_cones
from .mesh import SpaceMesh
from .solver import SlopeScript, bind_run, fire_rows, seal_run

HEURISTICS = ("lowest", "min-slope", "round-robin")


# ---------------------------------------------------------------------------
# spacetime mesh container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Patch:
    """One tent: the elements created by a single vertex lift."""

    index: int
    vertex: int
    base_time: float
    top_time: float
    height: float
    facets: np.ndarray    # star simplex ids, ascending
    elements: np.ndarray  # spacetime element ids, parallel to facets
    deps: np.ndarray      # patch that last wrote each facet, -1 = initial front


def _off_front(v: int, t: float, current: float) -> InvalidArgument:
    return InvalidArgument(f"base time {t!r} of vertex {v} is not its "
                           f"current event time {current!r}")


class SpacetimeMesh:
    """Simplicial mesh in space x time, grown one patch at a time.

    Every spacetime vertex is an *event* (mesh vertex, time).  Each mesh
    vertex has one current event, the one on the current front: every
    element's base corners lie on that front, so a patch reads its base
    events from the vertices' current events, and the lifted vertex's top
    becomes its new current event.  A tent top shared with later inflow
    therefore appears once.  Event ids are assigned in order of first
    reference.  Each element is the simplex spanned by a space simplex's old
    front facet and the lifted vertex: event order is (apex base, apex top,
    other vertices in space-simplex order).
    """

    def __init__(self, space: SpaceMesh):
        self.space = space
        self.event_vertex: list[int] = []
        self.event_time: list[float] = []
        self.elements: list[list[int]] = []
        self.element_space: list[int] = []
        self.element_patch: list[int] = []
        self.patches: list[Patch] = []
        # Per vertex, the id of its current event (-1: none yet).
        self._current = array("q", [-1]) * space.n_vertices
        self._last_patch_on = array("q", [-1]) * space.n_simplices

    @property
    def n_events(self) -> int:
        return len(self.event_vertex)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def add_patch(self, p: int, t_base: float, t_top: float, height: float,
                  sids: np.ndarray, base_times: np.ndarray,
                  rows: np.ndarray | None = None) -> Patch:
        """Add p's tent over the star simplices ``sids``; return its patch.

        ``base_times`` holds the front's vertex times before the lift, and
        ``rows`` is ``space.simplices[sids]`` when the caller has it.  Each
        base corner, p's at ``t_base`` included, must lie at its vertex's
        current event time (a vertex without events gets one), and
        ``t_top`` must exceed ``t_base``; otherwise :class:`InvalidArgument`
        is raised and nothing is added.
        """
        p, t_base, t_top = int(p), float(t_base), float(t_top)
        if not t_top > t_base:
            raise InvalidArgument(f"tent top {t_top!r} must lie above its "
                                  f"base {t_base!r} at vertex {p}")
        facets = np.array(sids, dtype=np.int64)
        if rows is None:
            rows = self.space.simplices[facets]
        cur, ev_time = self._current, self.event_time
        # The events this patch makes, in id order, and the corner vertices
        # among them; nothing is stored until every corner is checked.
        n = len(ev_time)
        new_v: list[int] = []
        new_t: list[float] = []
        fresh: dict[int, int] = {}
        eb = cur[p]
        if eb < 0:
            eb = n
            new_v.append(p)
            new_t.append(t_base)
        elif ev_time[eb] != t_base:
            raise _off_front(p, t_base, ev_time[eb])
        et = n + len(new_v)
        new_v.append(p)
        new_t.append(t_top)
        elements = []
        for row, ts in zip(rows.tolist(),
                           np.asarray(base_times)[rows].tolist()):
            ev = [eb, et]
            for v, t in zip(row, ts):
                if v == p:
                    continue
                e = cur[v]
                if e < 0:
                    e = fresh.get(v)
                    if e is None:
                        e = fresh[v] = n + len(new_v)
                        new_v.append(v)
                        new_t.append(t)
                elif ev_time[e] != t:
                    raise _off_front(v, t, ev_time[e])
                ev.append(e)
            elements.append(ev)

        self.event_vertex += new_v
        ev_time += new_t
        cur[p] = et
        for v, e in fresh.items():
            cur[v] = e
        pid = len(self.patches)
        first = len(self.elements)
        last = self._last_patch_on
        sid_list = facets.tolist()
        deps = []
        for sid in sid_list:
            deps.append(last[sid])
            last[sid] = pid
        self.elements += elements
        self.element_space += sid_list
        self.element_patch += [pid] * len(sid_list)
        patch = Patch(pid, p, t_base, t_top, float(height), facets,
                      np.arange(first, first + len(sid_list), dtype=np.int64),
                      np.array(deps, dtype=np.int64))
        self.patches.append(patch)
        return patch

    def event_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(coords, times) arrays for all events."""
        vids = np.asarray(self.event_vertex, dtype=np.int64)
        return self.space.vertices[vids], np.asarray(self.event_time)

    def element_array(self) -> np.ndarray:
        return np.asarray(self.elements, dtype=np.int64).reshape(
            self.n_elements, self.space.dim + 2
        )

    def volumes(self) -> np.ndarray:
        """Spacetime volume of each element.

        The element over space simplex s with apex lift dt is a simplex with
        base measure |s| extruded along time: volume = |s| * dt / (d + 1)
        with d the space dimension (d+1 points of the base at fixed times,
        apex split into bottom and top).
        """
        if self.n_elements == 0:
            return np.zeros(0)
        t = np.asarray(self.event_time)
        e = self.element_array()
        dt = t[e[:, 1]] - t[e[:, 0]]
        meas = self.space.measures[np.asarray(self.element_space)]
        return meas * dt / (self.space.dim + 1)

    def total_volume(self) -> float:
        return float(self.volumes().sum())


def front_prism_volume(mesh: SpaceMesh, times0: np.ndarray,
                       times1: np.ndarray) -> float:
    """Volume between two fronts: integral of (t1 - t0) over the mesh.

    Both fronts are piecewise linear, so per simplex the integral is the
    measure times the mean vertex difference.
    """
    diff = np.asarray(times1) - np.asarray(times0)
    return float((mesh.measures * diff[mesh.simplices].mean(axis=1)).sum())


# ---------------------------------------------------------------------------
# greedy height search
# ---------------------------------------------------------------------------


def local_cap(mesh: SpaceMesh, times: np.ndarray, p: int,
              sigma_loc: float, epsilon: float, star: Facets) -> float:
    """Closed-form top-time cap from p's star alone, for slope sigma_loc.

    1D: the neighbor cone walls, t(q) + sigma |pq|.  2D: per star triangle,
    the top at which one of the verifier's own constraints reaches zero,
    read from the star's apex geometry: causality in the altitude form of
    :func:`~tentmesh.constraints.causality_slack` at apex p, and progress in
    the edge form of :func:`~tentmesh.constraints.progress_ok` with p as the
    latest vertex, ``t(b) + |bp| (1 - epsilon) sigma phi(a)`` for the earlier
    end a and the later end b of the opposite edge, ordered by (time, id).
    ``star`` is the :class:`~tentmesh.constraints.Facets` of p's star.
    """
    rows = star.rows.tolist()
    row_times = times[star.rows].tolist()
    cap = math.inf
    if mesh.dim == 1:
        for (a, _), (t_a, t_b), length in zip(rows, row_times,
                                               star.geo.tolist()):
            t_q = t_b if a == p else t_a
            cap = min(cap, t_q + sigma_loc * length)
        return cap
    budget = (1.0 - epsilon) * sigma_loc
    altitude, u_along, qr_len, phi = (col.tolist() for col in star.geo)
    for i, (row, t_row) in enumerate(zip(rows, row_times)):
        k = row.index(p)
        qi, ri = APEX_OTHERS[k]
        t_q, t_r = t_row[qi], t_row[ri]
        length = qr_len[i][k]
        g = abs(t_r - t_q) / length
        w = u_along[i][k] / length
        t_u = t_q * (1.0 - w) + t_r * w
        causal = t_u + altitude[i][k] * math.sqrt(
            max(0.0, sigma_loc * sigma_loc - g * g))
        # Rows are id-sorted, so a time tie leaves q the earlier end.
        a, t_b = (ri, t_q) if t_r < t_q else (qi, t_r)
        progress = t_b + qr_len[i][a] * (budget * phi[i][a])
        cap = min(cap, causal, progress)
    return cap


def star_feasible(mesh: SpaceMesh, times: np.ndarray, p: int, c: float,
                  field: SlopeField, config: ConstraintConfig,
                  cones=None, *, margin: list | None = None,
                  sampled: list | None = None,
                  star: Facets | None = None) -> bool:
    """Whether topping p at time c leaves its star acceptable.

    1D: each lifted segment causal against the field sampled over it.  2D:
    each lifted triangle progressive, with the smallest intersecting remote
    cone slope capping the causality half; the cone query runs with the
    largest slope the star's causality rows sampled as its ceiling.  When
    ``sampled`` is a list, the field slopes sampled over the lifted star
    (before that cap), which a run stores for an accepted top, are appended
    to it; when ``margin`` is a list, the star's
    :meth:`~tentmesh.constraints.FacetVerdicts.margin` from the same
    evaluation is appended to it.  The answer is that margin ``>= 0``, which
    is exactly when every facet is satisfied (a NaN margin is infeasible).
    ``star`` is p's star record, gathered here when not given.
    """
    if star is None:
        star = Facets.of(mesh, mesh.stars[p])
    lifted = times[star.rows]
    lifted[star.rows == p] = c
    remote = None  # 1D tentpoles stay below remote cones outright
    if mesh.dim == 2 and cones is not None:
        # Only a remote slope below the star's own largest sampled slope
        # can tighten the check, so the walk stops at that ceiling.
        remote = functools.partial(cones.min_slope_intersecting, p, c)
    verdicts, sigma = facet_verdicts(star, lifted, field, config, remote)
    if sampled is not None:
        sampled.append(sigma)
    m = verdicts.margin()
    if margin is not None:
        margin.append(m)
    return m >= 0.0


def pitch_bracket(mesh: SpaceMesh, front: Front, field: SlopeField,
                  config: ConstraintConfig, cones, p: int, *,
                  star: Facets | None = None) -> tuple[float, float]:
    """(floor top, cap top) for pitching p.

    The floor is always safe; the cap is the closed-form star cap, reduced in
    1D by the earliest remote cone entry and an eta margin so the tentpole
    never reaches a remote cone at all.  ``star`` is p's star record,
    gathered here when not given.
    """
    if star is None:
        star = Facets.of(mesh, mesh.stars[p])
    times = front.times
    t_p = float(times[p])
    sigma_loc = float(cones.slopes[star.sids].min())
    floor_top = t_p + config.tmin(mesh.dim)
    cap = local_cap(mesh, times, p, sigma_loc, config.epsilon, star)
    if mesh.dim == 1:
        t_rem, _ = cones.ray_shoot(p)
        cap = min(cap, t_rem) - config.eta
    return floor_top, cap


# Steps the bracket may take without halving before a bisection is forced.
STALL_STEPS = 2


def search_top(probe, lo: float, m_lo: float, hi: float, m_hi: float,
               tol: float) -> tuple[float, float, int]:
    """Narrow [feasible lo, infeasible hi] to width ``tol``; (lo, hi, steps).

    ``probe(x)`` returns (feasible, margin) with margin >= 0 exactly when
    feasible; ``m_lo`` and ``m_hi`` are the margins at the ends.  The next
    probe is the Illinois regula falsi point (the secant through the two
    ends, with the end kept twice running halved in weight), clamped to at
    least ``tol / 2`` inside the bracket, so a secant that lands on the root
    is followed by a probe just past it that closes the bracket.  When the
    bracket has not halved over ``STALL_STEPS`` steps, the next probe
    bisects, so margins with kinks or jumps still converge: at most
    ``(STALL_STEPS + 1) * (ceil(log2((hi - lo) / tol)) + 1)`` steps.
    ``lo`` stays a verified-feasible probe and ``hi`` an infeasible one.
    """
    steps = 0
    ref, since = hi - lo, 0    # width when the bracket last halved
    side = 0                   # +1: lo moved last step, -1: hi moved
    while hi - lo > tol:
        x = lo + 0.5 * (hi - lo)
        if since < STALL_STEPS and math.isfinite(m_lo - m_hi) \
                and m_lo >= 0.0 > m_hi:
            x = lo + (hi - lo) * (m_lo / (m_lo - m_hi))
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi:
            x = lo + 0.5 * (hi - lo)
            if not lo < x < hi:
                break  # float resolution exhausted
        ok, m = probe(x)
        steps += 1
        if ok:
            lo, m_lo = x, m
            if side > 0:
                m_hi *= 0.5
            side = 1
        else:
            hi, m_hi = x, m
            if side < 0:
                m_lo *= 0.5
            side = -1
        since += 1
        if hi - lo <= 0.5 * ref or since > STALL_STEPS:
            ref, since = hi - lo, 0
    return lo, hi, steps


def _rescue_foothold(probe, lo: float, hi: float,
                     samples: int = 32) -> tuple[float, float] | None:
    """First feasible probe on a uniform grid over (lo, hi), or None.

    Returns (point, margin).  Used when the floor itself is infeasible: a
    slope drop can shrink the progress budget of a facet after its time
    spread was already built under the old slope, leaving a feasible
    *interval* strictly above the floor (the vertex must catch up in one
    larger step).  Both endpoints are known infeasible, so only interior
    grid points are probed.
    """
    step = (hi - lo) / samples
    for k in range(1, samples):
        x = lo + k * step
        ok, m = probe(x)
        if ok:
            return x, m
    return None


def greedy_height(mesh: SpaceMesh, front: Front, field: SlopeField,
                  config: ConstraintConfig, cones, p: int,
                  stats: dict | None = None, *,
                  slopes: list | None = None,
                  star: Facets | None = None) -> float:
    """Height for pitching p: floor-bounded, verified against the field.

    Accepts the closed-form cap when it verifies directly; otherwise
    :func:`search_top` narrows [floor, cap] to ``eta / 8``, steered by the
    star's margin, and the verified lower end is returned, so the result
    sits within ``eta / 8`` of a feasibility boundary.  If even the floor
    fails -- possible only when a slope drop overtakes the front, shrinking
    a progress budget that was filled under the older, larger slope -- a
    bounded grid scan looks for a verified catch-up height above the floor,
    and the same search narrows from there, before declaring the run
    wedged.  Every returned height h was probed and accepted as the top
    ``t_p + h``, and none is below the floor.  ``stats["bisection_steps"]``
    counts the search's probes.  When ``slopes`` is a list, the field
    slopes the accepted probe sampled over the star lifted to ``t_p + h``
    are appended to it: the slopes its verdict was judged against.  ``star``
    is p's star record, which the bracket and every probe read; it is
    gathered here when not given.
    """
    if star is None:
        star = Facets.of(mesh, mesh.stars[p])
    times = front.times
    t_p = float(times[p])
    floor_top, cap = pitch_bracket(mesh, front, field, config, cones, p,
                                   star=star)
    tmin = config.tmin(mesh.dim)
    tol = config.eta / 8.0
    if slopes is None:
        slopes = []
    at = len(slopes)  # where the latest feasible probe's slopes go

    # The search runs over heights, so every returned height h is exactly
    # the height of a probed top t_p + h, and the latest feasible one (the
    # search's lower end moves only on feasible probes).
    def probe(h: float) -> tuple[bool, float]:
        out: list[float] = []
        got: list[np.ndarray] = []
        ok = star_feasible(mesh, times, p, t_p + h, field, config, cones,
                           margin=out, sampled=got, star=star)
        if ok:
            slopes[at:] = got
        return ok, out[0]

    def count(key: str, n: int = 1) -> None:
        if stats is not None:
            stats[key] += n

    def wedge() -> ContractViolation:
        # A field that changes after the front has passed below the change
        # (a drop, or in 2D also a rise; see the fields module docstring)
        # can strand a vertex with no acceptable lift at all.  Fail loudly
        # instead of emitting an uncausal or unprogressive facet.
        return ContractViolation(
            f"no acceptable lift at vertex {p}: no probed height from the "
            "floor up to the catch-up scan passes the star check; the slope "
            "field changed after the front had advanced beneath it, or the "
            "front was not progressive"
        )

    h_cap = cap - t_p
    if cap > floor_top:
        h_cap = max(tmin, h_cap)
        cap_ok, m_cap = probe(h_cap)
        if cap_ok:
            count("cap_hits")
            return h_cap
    floor_ok, m_floor = probe(tmin)
    if floor_ok:
        if cap <= floor_top:
            count("floor_hits")
            return tmin
        h, _, steps = search_top(probe, tmin, m_floor, h_cap, m_cap, tol)
        count("bisection_steps", steps)
        return h
    # The floor itself failed: a slope drop outpaced the front, shrinking a
    # progress budget that was filled under the older, larger slope.  The
    # closed-form cap shares that collapsed slope, so the catch-up height
    # may sit above it; scan up to the highest star neighbor plus the floor
    # for any verified height before declaring the run wedged.
    nb_max = float(times[star.rows[star.rows != p]].max())
    hi_r = max(cap, nb_max + tmin)
    if hi_r <= floor_top:
        raise wedge()
    h_r = hi_r - t_p
    ok_r, m_r = probe(h_r)
    if ok_r:
        count("floor_rescues")
        return h_r
    foothold = _rescue_foothold(probe, tmin, h_r)
    if foothold is None:
        raise wedge()
    count("floor_rescues")
    h, _, steps = search_top(probe, *foothold, h_r, m_r, tol)
    count("bisection_steps", steps)
    return h


# ---------------------------------------------------------------------------
# vertex selection
# ---------------------------------------------------------------------------


def _select_vertex(heuristic: str, front: Front, cones, last: int,
                   target_time: float, lowest: int) -> int:
    """The vertex ``min-slope`` or ``round-robin`` pitches next.

    ``min-slope``: the local minimum whose star holds the smallest stored
    cone slope, ties to the smallest id (``np.argmin`` takes the first of
    equal scores; one ``reduceat`` over the star ids scores every vertex).
    ``lowest`` is the earliest vertex, the pick when no local minimum lies
    below the target.
    """
    minima = local_minima(front)
    # Vertices already at the target need no further lifting; without this
    # filter a plateau at the top could starve the global minimum.
    minima = minima[front.times[minima] < target_time]
    if minima.size == 0:
        return lowest
    if heuristic == "min-slope":
        stars = front.mesh.stars
        score = np.minimum.reduceat(cones.slopes[stars.ids], stars.offsets[:-1])
        return int(minima[np.argmin(score[minima])])
    later = minima[minima > last]  # round-robin; advance_until checked the name
    return int(later[0]) if later.size else int(minima[0])


# ---------------------------------------------------------------------------
# the advancing loop
# ---------------------------------------------------------------------------


@dataclass
class TentRun:
    """Everything a finished (or truncated) run produced."""

    mesh: SpaceMesh
    field: SlopeField
    config: ConstraintConfig
    stmesh: SpacetimeMesh
    front: Front
    initial_times: np.ndarray
    heights: np.ndarray
    stats: dict


def _frozen(mesh: SpaceMesh, times: np.ndarray) -> Front:
    """A front over a read-only copy of the run's live ``times``."""
    t = times.copy()
    t.setflags(write=False)
    return Front(mesh, t)


def _check_floor_moves(tmin: float, limit: float, what: str) -> None:
    """Raise, naming ``what``, unless a floor lift moves every time below ``limit``.

    Where ``Tmin`` is at most half an ulp, a time plus ``Tmin`` rounds back
    to that time.
    """
    if 2.0 * tmin <= math.ulp(math.nextafter(limit, -math.inf)):
        raise ValidationError(f"{what} is too large for the height floor "
                              f"{tmin!r} to move a vertex")


def _patch_guard(mesh: SpaceMesh, config: ConstraintConfig,
                 target_time: float, span: float) -> int:
    """Runaway guard derived from the height floor.

    Every pitched vertex sat below the target and rose by at least the
    floor, so no vertex is pitched more than ceil(span / Tmin) times and
    the whole run fits in n_vertices * ceil(span / Tmin) patches.  Any
    excess means the floor guarantee broke.  A target so far above the
    front that span / Tmin is not finite is rejected, and so is a target
    so large that a floor lift cannot move a time just below it.
    """
    tmin = config.tmin(mesh.dim)
    sweeps = span / tmin
    if not math.isfinite(sweeps):
        raise ValidationError(f"target time lies {span!r} above the front: "
                              "not a finite number of height floors")
    _check_floor_moves(tmin, target_time, f"target time {target_time!r}")
    return mesh.n_vertices * (math.ceil(sweeps) + 1) + 256


def _assert_front_ok(mesh, front, field, config, patch, height) -> None:
    """Raise unless the height met the floor and the whole front is progressive.

    In 2D the progressive check's unlifted rows re-check causality of every
    facet; in 1D it is the causality check itself.
    """
    tmin = config.tmin(mesh.dim)
    if not height >= tmin:
        raise ContractViolation(
            f"patch {patch.index} height {height!r} fell below floor {tmin!r}"
        )
    ok, violations = is_progressive_front(front, field, config, limit=1)
    if not ok:
        sid, verdict = violations[0]
        raise ContractViolation(
            f"front facet {sid} not progressive after patch {patch.index} "
            f"({verdict.binding} slack {verdict.slack!r})"
        )


def _check_count(name: str, count) -> None:
    """Raise :class:`InvalidArgument` unless ``count`` is an integer >= 0."""
    try:
        if operator.index(count) >= 0:
            return
    except TypeError:
        pass
    raise InvalidArgument(f"{name} must be an integer >= 0, got {count!r}")


def advance_until(mesh: SpaceMesh, field: SlopeField, target_time: float,
                  config: ConstraintConfig | None = None,
                  front: Front | None = None,
                  heuristic: str = "lowest",
                  use_hierarchy: bool = True,
                  assert_invariants: bool = False,
                  script: SlopeScript | None = None,
                  snapshot_every: int = 0,
                  snapshot_cb=None,
                  max_patches: int | None = None) -> TentRun:
    """Pitch tents until every vertex reaches ``target_time``.

    Stops early (without error) after ``max_patches`` patches when that is
    given; otherwise a generous multiple of the worst-case element count acts
    as a runaway guard and overrunning it raises :class:`ContractViolation`.
    ``max_patches`` (unless None) and ``snapshot_every`` must be integers
    >= 0, or :class:`InvalidArgument` is raised.
    The run evaluates the field :func:`~tentmesh.solver.bind_run` makes of
    ``field`` and ``script``, and nothing the caller passed in is written:
    the returned :class:`TentRun` carries the run's own field, with any
    scripted table rewrites applied and its table read-only.

    A given ``front`` must lie over ``mesh`` (same vertices and simplices)
    and hold finite, nonnegative times, or :class:`ValidationError` is
    raised before any work.  The run copies its times once into a
    :class:`~tentmesh.front.BlockedTimes` and lifts that array in place;
    the cone index and the run's checks read it through a read-only view.
    The fronts passed to ``snapshot_cb`` and the returned
    :attr:`TentRun.front` are read-only copies, which later patches leave
    unchanged.
    """
    if heuristic not in HEURISTICS:
        raise InvalidArgument(
            f"unknown heuristic {heuristic!r}; choose from {', '.join(HEURISTICS)}"
        )
    if max_patches is not None:
        _check_count("max_patches", max_patches)
    _check_count("snapshot_every", snapshot_every)
    if math.isnan(target_time):
        raise ValidationError("target time must be a number, got nan")
    if front is not None:
        if front.mesh is not mesh and not (
                np.array_equal(front.mesh.vertices, mesh.vertices)
                and np.array_equal(front.mesh.simplices, mesh.simplices)):
            raise ValidationError(
                f"the front lies over another mesh ({front.mesh.n_vertices} "
                f"vertices, {front.mesh.n_simplices} simplices; the run's "
                f"has {mesh.n_vertices} and {mesh.n_simplices})"
            )
        check_times(mesh, np.asarray(front.times))
    # Script rows rewrite the run's own table; the bound field's bounds
    # already cover them, so the config derived from it holds throughout.
    field = bind_run(mesh, field, script)
    pending = deque(script.rows if script is not None else ())
    if config is None:
        config = ConstraintConfig.for_problem(mesh, field)
    if front is None:
        front = initial_front(mesh)
    if not math.isfinite(target_time) and max_patches is None:
        raise InvalidArgument("an infinite target time needs max_patches")

    initial_times = front.times.copy()
    # The run's one time array; ``front`` reads it through a read-only view.
    index = BlockedTimes(initial_times)
    times = index.times
    front = Front(mesh, times)
    cones = build_cones(mesh, front, field, use_hierarchy=use_hierarchy)
    stmesh = SpacetimeMesh(mesh)
    heights: list[float] = []
    stats = {
        "floor_hits": 0,
        "cap_hits": 0,
        "bisection_steps": 0,
        "floor_rescues": 0,
        "script_rows_fired": 0,
    }
    t_low, v_low = index.lowest()
    span = target_time - t_low
    tmin = config.tmin(mesh.dim)
    guard = math.inf
    if max_patches is not None:
        guard = max_patches
        if target_time == math.inf:
            # No target bounds the times this run reaches; check the first.
            _check_floor_moves(tmin, math.nextafter(t_low, math.inf),
                               f"front time {t_low!r}")
    elif span > 0.0:
        guard = _patch_guard(mesh, config, target_time, span)

    last_rr = -1
    kept: list[np.ndarray] = []  # the star slopes of the accepted top
    while t_low < target_time:
        if len(stmesh.patches) >= guard:
            if max_patches is not None:
                break
            raise ContractViolation(
                f"exceeded {guard} patches without reaching time {target_time}; "
                "the progress guarantee is broken"
            )
        p = v_low
        if heuristic != "lowest":
            p = _select_vertex(heuristic, front, cones, last_rr, target_time,
                               v_low)
        last_rr = p
        t_p = float(times[p])
        star = Facets.of(mesh, mesh.stars[p])
        height = greedy_height(mesh, front, field, config, cones, p, stats,
                               slopes=kept, star=star)
        top = t_p + height
        if top == t_p:
            # A run under max_patches skips the target's floor check, and
            # an infinite target bounds no time: a patch that would not
            # move ends the run before it is emitted.
            raise ValidationError(f"front time {t_p!r} at vertex {p} is too "
                                  f"large for the height {height!r} to move it")
        patch = stmesh.add_patch(p, t_p, top, height, star.sids, times,
                                 star.rows)
        index.lift(p, height)
        # The accepted probe sampled the star at exactly these times
        # (times[p] is now t_p + height), and no row has fired since.
        cones.update_star(star.sids, kept.pop())
        stats["script_rows_fired"] += len(fire_rows(field, top, pending))
        heights.append(height)
        if assert_invariants:
            _assert_front_ok(mesh, front, field, config, patch, height)
        if snapshot_cb is not None and snapshot_every > 0 \
                and len(stmesh.patches) % snapshot_every == 0:
            snapshot_cb(len(stmesh.patches), _frozen(mesh, times))
        t_low, v_low = index.lowest()

    seal_run(field)
    harr = np.asarray(heights)
    stats.update({
        "patches": len(stmesh.patches),
        "elements": stmesh.n_elements,
        "events": stmesh.n_events,
        "target_time": float(target_time) if math.isfinite(target_time) else -1.0,
        "target_reached": bool(t_low >= target_time),
        "front_min_time": t_low,
        "front_max_time": float(times.max()),
        "min_height": float(harr.min()) if harr.size else 0.0,
        "mean_height": float(harr.mean()) if harr.size else 0.0,
        "heuristic": heuristic,
        "hierarchy": use_hierarchy,
    })
    stats.update(cones.stats.as_dict())
    return TentRun(mesh, field, config, stmesh, _frozen(mesh, times),
                   initial_times, harr, stats)
