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
cap and accepts the cap if it verifies against the sampled field.  Otherwise
a safeguarded Illinois regula falsi on the star's margin (the smallest
tolerance-adjusted slack the verifier computes, >= 0 exactly when the star
is acceptable) narrows the bracket to ``eta / 8`` and returns its verified
lower end: every height a run takes is a probed, feasible point.  All
choices (vertex selection, tie-breaks, search steps) are deterministic, so a
run is a pure function of its inputs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .constraints import (
    ConstraintConfig,
    facet_causality,
    front_causality_report,
    is_progressive_front,
    progress_bound_rhs,
    progressive_verdicts,
)
from .errors import ContractViolation, InvalidArgument, ValidationError
from .fields import SlopeField
from .front import Front, advance, initial_front, local_minima
from .hierarchy import build as build_cones
from .mesh import SpaceMesh
from .solver import SlopeScript, bind_run, seal_run, solve_patch

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


class SpacetimeMesh:
    """Simplicial mesh in space x time, grown one patch at a time.

    Every spacetime vertex is an *event* (mesh vertex, time); events are
    deduplicated so a tent top shared with later inflow appears once.  Each
    element is the simplex spanned by a space simplex's old front facet and
    the lifted vertex: event order is (apex base, apex top, other vertices in
    space-simplex order).
    """

    def __init__(self, space: SpaceMesh):
        self.space = space
        self._index: dict[tuple[int, float], int] = {}
        self.event_vertex: list[int] = []
        self.event_time: list[float] = []
        self.elements: list[list[int]] = []
        self.element_space: list[int] = []
        self.element_patch: list[int] = []
        self.patches: list[Patch] = []
        self._last_patch_on = np.full(space.n_simplices, -1, dtype=np.int64)

    @property
    def n_events(self) -> int:
        return len(self.event_vertex)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def _event(self, vid: int, t: float) -> int:
        key = (int(vid), float(t))
        got = self._index.get(key)
        if got is None:
            got = len(self.event_vertex)
            self._index[key] = got
            self.event_vertex.append(int(vid))
            self.event_time.append(float(t))
        return got

    def add_patch(self, p: int, t_base: float, t_top: float, height: float,
                  sids: np.ndarray, base_times: np.ndarray) -> Patch:
        eb = self._event(p, t_base)
        et = self._event(p, t_top)
        pid = len(self.patches)
        elems = []
        deps = []
        for sid in sids:
            row = self.space.simplices[sid]
            ev = [eb, et] + [self._event(int(v), float(base_times[v]))
                             for v in row if v != p]
            deps.append(int(self._last_patch_on[sid]))
            self._last_patch_on[sid] = pid
            elems.append(len(self.elements))
            self.elements.append(ev)
            self.element_space.append(int(sid))
            self.element_patch.append(pid)
        patch = Patch(pid, int(p), float(t_base), float(t_top), float(height),
                      np.asarray(sids, dtype=np.int64).copy(),
                      np.asarray(elems, dtype=np.int64),
                      np.asarray(deps, dtype=np.int64))
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
              sigma_loc: float, epsilon: float) -> float:
    """Closed-form top-time cap from p's star alone, for slope sigma_loc.

    1D: the neighbor cone walls, t(q) + sigma |pq|.  2D: per star triangle,
    the causality cap through the foot of the perpendicular plus the progress
    cap in the same frame; the time at the foot is extrapolated linearly
    along the opposite edge.
    """
    cap = math.inf
    if mesh.dim == 1:
        for sid in mesh.stars[p]:
            row = mesh.simplices[sid]
            q = int(row[1]) if int(row[0]) == p else int(row[0])
            cap = min(cap, float(times[q]) + sigma_loc * float(mesh.measures[sid]))
        return cap
    for sid in mesh.stars[p]:
        row = mesh.simplices[sid]
        a, b = (int(v) for v in row if int(v) != p)
        if (float(times[b]), b) < (float(times[a]), a):
            a, b = b, a
        fr = mesh.simplex_frame(int(sid), p, a, b)
        g = (float(times[b]) - float(times[a])) / fr.qr_len
        t_u = float(times[a]) + fr.u_along * g
        causal = t_u + fr.altitude * math.sqrt(max(0.0, sigma_loc * sigma_loc - g * g))
        progress = t_u + fr.altitude * progress_bound_rhs(fr, g, sigma_loc, epsilon)
        cap = min(cap, causal, progress)
    return cap


def star_feasible(mesh: SpaceMesh, times: np.ndarray, p: int, c: float,
                  field: SlopeField, config: ConstraintConfig,
                  cones=None, *, margin: list | None = None) -> bool:
    """Whether topping p at time c leaves its star acceptable.

    1D: each lifted segment causal against the field sampled over it, the
    slopes :func:`~tentmesh.solver.solve_patch` stores for the same star.
    2D: each lifted triangle progressive, with the smallest intersecting
    remote cone slope capping the causality half.  When ``margin`` is a
    list, the star's :meth:`~tentmesh.constraints.FacetVerdicts.margin` from
    the same evaluation is appended to it (>= 0 exactly when feasible).
    """
    sids = mesh.stars[p]
    rows = mesh.simplices[sids]
    lifted = times[rows]
    lifted[rows == p] = c
    if mesh.dim == 1:
        verdicts, _ = facet_causality(mesh, sids, lifted, field, config)
    else:
        sigma_rem = math.inf if cones is None else cones.min_slope_intersecting(p, c)
        verdicts = progressive_verdicts(
            mesh.vertices[rows], lifted, rows, mesh.apex_geometry.take(sids),
            field, config, elements=sids, sigma_cap=sigma_rem,
        )
    if margin is not None:
        margin.append(verdicts.margin(config.rel_tol))
    return bool(verdicts.satisfied.all())


def pitch_bracket(mesh: SpaceMesh, front: Front, field: SlopeField,
                  config: ConstraintConfig, cones, p: int) -> tuple[float, float]:
    """(floor top, cap top) for pitching p.

    The floor is always safe; the cap is the closed-form star cap, reduced in
    1D by the earliest remote cone entry and an eta margin so the tentpole
    never reaches a remote cone at all.
    """
    times = front.times
    t_p = float(times[p])
    sids = mesh.stars[p]
    sigma_loc = float(cones.slopes[sids].min())
    floor_top = t_p + config.tmin(mesh.dim)
    cap = local_cap(mesh, times, p, sigma_loc, config.epsilon)
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
                  stats: dict | None = None) -> float:
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
    counts the search's probes.
    """
    times = front.times
    t_p = float(times[p])
    floor_top, cap = pitch_bracket(mesh, front, field, config, cones, p)
    tmin = config.tmin(mesh.dim)
    tol = config.eta / 8.0

    # The search runs over heights, so every returned height h is exactly
    # the height of a probed top t_p + h.
    def probe(h: float) -> tuple[bool, float]:
        out: list[float] = []
        ok = star_feasible(mesh, times, p, t_p + h, field, config, cones,
                           margin=out)
        return ok, out[0]

    def count(key: str, n: int = 1) -> None:
        if stats is not None:
            stats[key] += n

    def wedge() -> ContractViolation:
        # Fields whose slope drops after the front has passed below the
        # change can strand a vertex with no acceptable lift at all.  Fail
        # loudly instead of emitting an uncausal or unprogressive facet.
        return ContractViolation(
            f"no acceptable lift at vertex {p}: the slope field dropped "
            "after the front had already advanced beneath it, or the front "
            "was not progressive"
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
    nb_max = max(float(times[v]) for sid in mesh.stars[p]
                 for v in mesh.simplices[sid] if v != p)
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
                   target_time: float) -> int:
    if heuristic == "lowest":
        return front.argmin_vertex()
    minima = local_minima(front)
    # Vertices already at the target need no further lifting; without this
    # filter a plateau at the top could starve the global minimum.
    minima = minima[front.times[minima] < target_time]
    if minima.size == 0:
        return front.argmin_vertex()
    if heuristic == "min-slope":
        best = None
        for v in minima:
            score = (float(cones.slopes[front.mesh.stars[int(v)]].min()), int(v))
            if best is None or score < best:
                best = score
        return best[1]
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


def _patch_guard(mesh: SpaceMesh, config: ConstraintConfig, span: float) -> int:
    """Runaway guard derived from the height floor.

    Every pitched vertex sat below the target and rose by at least the
    floor, so no vertex is pitched more than ceil(span / Tmin) times and
    the whole run fits in n_vertices * ceil(span / Tmin) patches.  Any
    excess means the floor guarantee broke.  A target so far above the
    front that span / Tmin is not finite is rejected.
    """
    sweeps = span / config.tmin(mesh.dim)
    if not math.isfinite(sweeps):
        raise ValidationError(f"target time lies {span!r} above the front: "
                              "not a finite number of height floors")
    return mesh.n_vertices * (math.ceil(sweeps) + 1) + 256


def _assert_front_ok(mesh, front, field, config, patch, height) -> None:
    tmin = config.tmin(mesh.dim)
    if not height >= tmin:
        raise ContractViolation(
            f"patch {patch.index} height {height!r} fell below floor {tmin!r}"
        )
    report = front_causality_report(mesh, front.times, field, config)
    bad = np.flatnonzero(~report["satisfied"])
    if bad.size:
        sid = int(bad[0])
        raise ContractViolation(
            f"front facet {sid} uncausal after patch {patch.index} "
            f"(slack {float(report['slack'][sid])!r})"
        )
    if mesh.dim == 2:
        ok, violations = is_progressive_front(front, field, config, limit=1)
        if not ok:
            sid, verdict = violations[0]
            raise ContractViolation(
                f"front facet {sid} not progressive after patch {patch.index} "
                f"({verdict.binding} slack {verdict.slack!r})"
            )


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
    The run evaluates the field :func:`~tentmesh.solver.bind_run` makes of
    ``field`` and ``script``, and nothing the caller passed in is written:
    the returned :class:`TentRun` carries the run's own field, with any
    scripted table rewrites applied and its table read-only.
    """
    if heuristic not in HEURISTICS:
        raise InvalidArgument(
            f"unknown heuristic {heuristic!r}; choose from {', '.join(HEURISTICS)}"
        )
    if math.isnan(target_time):
        raise ValidationError("target time must be a number, got nan")
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
    cones = build_cones(mesh, front, field, config, use_hierarchy)
    stmesh = SpacetimeMesh(mesh)
    heights: list[float] = []
    stats = {
        "floor_hits": 0,
        "cap_hits": 0,
        "bisection_steps": 0,
        "floor_rescues": 0,
        "script_rows_fired": 0,
    }
    span = target_time - front.min_time()
    guard = math.inf
    if max_patches is not None:
        guard = max_patches
    elif span > 0.0:
        guard = _patch_guard(mesh, config, span)

    last_rr = -1
    while front.min_time() < target_time:
        if len(stmesh.patches) >= guard:
            if max_patches is not None:
                break
            raise ContractViolation(
                f"exceeded {guard} patches without reaching time {target_time}; "
                "the progress guarantee is broken"
            )
        p = _select_vertex(heuristic, front, cones, last_rr, target_time)
        last_rr = p
        t_p = float(front.times[p])
        height = greedy_height(mesh, front, field, config, cones, p, stats)
        top = t_p + height
        sids = mesh.stars[p]
        new_front = advance(front, p, height)
        patch = stmesh.add_patch(p, t_p, top, height, sids, front.times)
        rows = mesh.simplices[sids]
        slopes, fired = solve_patch(
            field, config, mesh.vertices[rows], new_front.times[rows],
            sids, top, pending,
        )
        stats["script_rows_fired"] += len(fired)
        cones.set_front(new_front)
        for sid, s in zip(sids, slopes):
            cones.update_leaf(int(sid), float(s))
        front = new_front
        heights.append(height)
        if assert_invariants:
            _assert_front_ok(mesh, front, field, config, patch, height)
        if snapshot_cb is not None and snapshot_every > 0 \
                and len(stmesh.patches) % snapshot_every == 0:
            snapshot_cb(len(stmesh.patches), front)

    seal_run(field)
    harr = np.asarray(heights)
    stats.update({
        "patches": len(stmesh.patches),
        "elements": stmesh.n_elements,
        "events": stmesh.n_events,
        "target_time": float(target_time) if math.isfinite(target_time) else -1.0,
        "target_reached": bool(front.min_time() >= target_time),
        "front_min_time": front.min_time(),
        "front_max_time": front.max_time(),
        "min_height": float(harr.min()) if harr.size else 0.0,
        "mean_height": float(harr.mean()) if harr.size else 0.0,
        "heuristic": heuristic,
        "hierarchy": use_hierarchy,
    })
    stats.update(cones.stats.as_dict())
    return TentRun(mesh, field, config, stmesh, front, initial_times,
                   harr, stats)
