"""Causality and progress constraints for advancing fronts.

A front is a piecewise-linear time function t over the space mesh.  Two
families of constraints govern how far a vertex may be lifted:

* Causality: the time gradient over every facet stays within the local slope,
  ``|t(b) - t(a)| <= sigma |ab|`` on segments and ``|grad t| <= sigma`` on
  triangles.  The triangle check is expressed through the foot-of-altitude
  form: with u the foot of the perpendicular from the apex p onto qr and g
  the gradient magnitude along qr, causality holds iff
  ``|t(p) - t(u)| <= |pu| sqrt(sigma^2 - g^2)`` (and g <= sigma).
* Progress: ordering a triangle's vertices by time as lo <= mid <= hi,
  ``(t(hi) - t(mid)) / |mid hi| <= (1 - epsilon) sigma phi(lo)`` where
  |mid hi| and phi come from :func:`tentmesh.geometry.frame` with apex lo,
  the same base edge the causality check at lo measures.  This reserves a
  fraction of the slope budget so the next pitch at the low vertex can raise
  it by at least the global floor.

A triangle is *progressive* when lifting its lowest vertex by any amount up
to the floor keeps it causal and keeps the progress constraint satisfied
against the slope sampled over the companion triangle whose mid vertex is
lifted by the floor.  The "any amount" quantifier is checked at the interval
endpoints plus ``INTERIOR_LIFTS`` evenly spaced interior samples; for the
built-in fields the constraints vary monotonically between samples, so the
endpoints carry the guarantee.

Causality has one array kernel, :func:`causality_slack`: the altitude form
at an apex for triangles, the budget form for segments.  Every causality
check calls it: :func:`facet_causality` (1D stars, 1D fronts and
:func:`front_causality_report`) and the progressive check below.
:func:`facet_verdicts` picks the check for the mesh's dimension, for star
verification and :func:`is_progressive_front` alike.  Both take a
:class:`Facets` record, the one gather of facets' rows, sample sites and
geometry: the pitcher gathers p's star once per patch and checks every
probe of it against that record, so the field's sample points are
computed once per patch.

One numpy kernel, :func:`progressive_verdicts`, makes the progressive check
for F triangles at once; 2D star verification, :func:`is_progressive_front`
and :func:`is_progressive_triangle` (F = 1) all call it.  Per triangle it

* orders the unlifted vertices by (time, id) into lo, mid, hi;
* builds one (F, 2n, 3) block of times for the n lift samples dt: rows
  k < n lift lo by dt_k, and row n + k is that lift's companion, with mid
  also raised by the full floor.  One
  :func:`~tentmesh.fields.sampled_min_simplices` call samples the slope
  over all F * 2n rows, computing each triangle's sample points once, and
  row 0 (dt = 0, the triangle at its own times) is returned with the
  verdicts;
* checks causality of row k at apex lo (q and r in local-index order)
  against ``min(slope of row k, cap)``, where the cap comes from the
  caller's ``remote(ceiling)`` hook (the star check's remote cone query),
  called once with the largest slope the causality rows sampled: a cap at
  or above that ceiling lowers no row's slope.  Progress of row k, with
  its vertices re-ordered by (time, id), is checked against the slope of
  row n + k.
* returns, beside the verdicts, those without the cap, which
  :func:`is_progressive_front` makes; the run's invariant check reads
  them from the probe that accepted a height instead of judging p's star
  again.

Sample times are one matrix product over all rows (see
:func:`~tentmesh.fields.sampled_min_simplices`), so a facet's verdict has
the same bits in a star probe and in a whole-front check at the same
times.

The per-(triangle, apex) geometry comes from
:class:`~tentmesh.geometry.ApexGeometry`, the
:func:`~tentmesh.geometry.frame` scalars :func:`causal_triangle` and
:func:`progress_ok` read (one base-edge length, ``qr_len``, for both
families), and the kernel repeats their float operations in their order,
so it agrees with those single-triangle checks bit for bit.  Worst-verdict
rule: a triangle's verdict is the first minimum slack in the order causal
0, progress 0, causal 1, progress 1, ..., judged against its own scale.

The pitcher's closed-form star cap, :func:`tentmesh.pitcher.local_cap`,
solves the same two constraints for the top of the pitched vertex p, from
the same :class:`~tentmesh.geometry.ApexGeometry` columns: the altitude form
of :func:`causality_slack` at apex p, and the edge form of
:func:`progress_ok` with p as the latest vertex.

Every check returns a :class:`ConstraintVerdict` with a signed slack in time
units; ``satisfied`` applies the relative tolerance ``REL_TOL`` = 1e-12
(slack down to ``-REL_TOL * scale`` still passes, with scale at least 1,
so exact-equality designs are stable under roundoff).  In 1D there is no
progress constraint: causal fronts already guarantee full-height steps,
and the progressive notions degenerate to causality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, ValidationError, check_count
from .fields import SampleSites, SlopeField, sampled_min_simplices
from .geometry import APEX_OTHERS, ApexGeometry, apex_geometry, frame
from .mesh import SpaceMesh

BINDING_CAUSALITY = "causality"
BINDING_PROGRESS = "progress"

REL_TOL = 1e-12     # a slack down to -REL_TOL * scale still passes
INTERIOR_LIFTS = 3  # lift samples strictly between 0 and the floor


@dataclass(frozen=True)
class ConstraintVerdict:
    satisfied: bool
    slack: float       # signed, in time units; negative means violated
    binding: str       # "causality" or "progress": the family that binds
    scale: float = 1.0  # magnitude the tolerance was measured against


@dataclass(frozen=True)
class ConstraintConfig:
    """Pitching parameters derived from the mesh and field.

    ``tmin_1d = sigma_min * wmin`` and ``tmin_2d = epsilon * sigma_min *
    wmin`` are the guaranteed step floors.  ``eta`` is the resolution of the
    greedy height search, which stops once its bracket is narrower than
    ``eta / 8`` and returns the verified lower end; in 1D it is also the
    margin by which a tentpole stays below the earliest remote cone entry.
    """

    epsilon: float
    eta: float
    tmin_1d: float
    tmin_2d: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.5:
            raise ValidationError(f"epsilon must be in (0, 1/2], got {self.epsilon}")
        # Checked before eta, whose default derives from the same product.
        for name in ("tmin_1d", "tmin_2d"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(
                    f"height floor {name} must be positive and finite, got {value!r}"
                )
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValidationError(f"eta must be positive and finite, got {self.eta}")

    @classmethod
    def for_problem(cls, mesh: SpaceMesh, field: SlopeField,
                    epsilon: float = 0.5,
                    eta: float | None = None) -> "ConstraintConfig":
        base = field.sigma_min * mesh.wmin
        if eta is None:
            eta = 1e-9 * base
            if base > 0.0 and eta == 0.0:
                raise ValidationError(
                    f"height floor tmin_1d = {base!r} is too small: the default "
                    f"eta = 1e-9 * tmin_1d underflows to 0")
        return cls(epsilon=epsilon, eta=eta, tmin_1d=base, tmin_2d=epsilon * base)

    def tmin(self, dim: int) -> float:
        return self.tmin_1d if dim == 1 else self.tmin_2d

    def with_eta(self, eta: float) -> "ConstraintConfig":
        return replace(self, eta=eta)


def _verdict(slack: float, binding: str, scale: float) -> ConstraintVerdict:
    scale = max(1.0, scale)
    return ConstraintVerdict(
        satisfied=bool(slack >= -REL_TOL * scale),
        slack=float(slack),
        binding=binding,
        scale=scale,
    )


# ---------------------------------------------------------------------------
# single-facet checks
# ---------------------------------------------------------------------------


def causality_slack(sigma, t_q, t_r, length, t_p=None, altitude=None,
                    u_along=None):
    """(slack, raw scale) of causality for facets; arguments broadcast.

    Budget form (``t_p`` None): segment qr, ``|t_r - t_q| <= sigma *
    length``.  Altitude form: triangle with apex p over edge qr of the given
    length, ``altitude`` = |pu| and ``u_along`` as in
    :class:`~tentmesh.geometry.TriangleFrame`; the slack is a time margin at
    p, or the budget form of qr when that edge alone exceeds the slope.  Bit
    for bit equal to :func:`causal_segment` and :func:`causal_triangle`.
    """
    abs_dt = np.abs(t_r - t_q)
    if t_p is None:
        budget = sigma * length
        return budget - abs_dt, np.maximum(budget, abs_dt)
    g = abs_dt / length
    w = u_along / length
    t_u = t_q * (1.0 - w) + t_r * w
    rhs = altitude * np.sqrt(np.maximum(0.0, sigma * sigma - g * g))
    lhs = np.abs(t_p - t_u)
    slack, scale = rhs - lhs, np.maximum(rhs, lhs)
    steep = g > sigma
    if steep.any():
        budget = sigma * length
        slack = np.where(steep, budget - abs_dt, slack)
        scale = np.where(steep, np.maximum(budget, abs_dt), scale)
    return slack, scale


def causal_segment(t_a: float, t_b: float, length: float,
                   sigma: float) -> ConstraintVerdict:
    """Causality of a 1D facet: |t_b - t_a| <= sigma * length."""
    if length <= 0.0 or sigma <= 0.0:
        raise InvalidArgument("segment length and slope must be positive")
    budget = sigma * length
    diff = abs(t_b - t_a)
    return _verdict(budget - diff, BINDING_CAUSALITY, max(budget, diff))


def causal_triangle(points, times, sigma: float,
                    apex: int = 0) -> ConstraintVerdict:
    """Causality of a triangle facet, checked from the given apex.

    ``points`` is (3, 2) and ``times`` the matching vertex times; ``apex``
    indexes the vertex playing p.  The verdict is equivalent to the gradient
    test |grad t| <= sigma (for any apex choice); the slack is reported in
    the altitude form, so it is a time margin at the apex.
    """
    points = np.asarray(points, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    others = [i for i in range(3) if i != apex]
    qi, ri = others
    fr = frame(points[apex], points[qi], points[ri])
    dt_qr = times[ri] - times[qi]
    g = abs(dt_qr) / fr.qr_len
    if g > sigma:
        # The base edge alone exceeds the slope: no apex time can fix it.
        budget = sigma * fr.qr_len
        return _verdict(budget - abs(dt_qr), BINDING_CAUSALITY,
                        max(budget, abs(dt_qr)))
    w = fr.u_along / fr.qr_len
    t_u = times[qi] * (1.0 - w) + times[ri] * w
    rhs = fr.altitude * math.sqrt(max(0.0, sigma * sigma - g * g))
    lhs = abs(times[apex] - t_u)
    return _verdict(rhs - lhs, BINDING_CAUSALITY, max(rhs, lhs))


def _order_by_time(times, ids) -> tuple[int, int, int]:
    """Local indices sorted by (time, id): the deterministic vertex order."""
    return tuple(sorted(range(3), key=lambda i: (times[i], ids[i])))


def progress_ok(points, times, sigma: float, epsilon: float,
                ids=(0, 1, 2)) -> ConstraintVerdict:
    """Progress constraint for one triangle at the given vertex times.

    Vertices are ordered by (time, id); the constraint bounds the gradient
    along the edge between the two later vertices by ``(1 - epsilon) * sigma``
    times the shape factor of the earliest vertex.
    """
    points = np.asarray(points, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    lo, mid, hi = _order_by_time(times, ids)
    fr = frame(points[lo], points[mid], points[hi])
    bound = (1.0 - epsilon) * sigma * fr.phi * fr.qr_len
    diff = float(times[hi] - times[mid])
    return _verdict(bound - diff, BINDING_PROGRESS, max(bound, diff))


# ---------------------------------------------------------------------------
# progressive triangles and fronts
# ---------------------------------------------------------------------------


_OTHERS = np.array(APEX_OTHERS)
# Binding of slack column j of progressive_verdicts, by j % 2.
_BINDINGS = np.array([BINDING_CAUSALITY, BINDING_PROGRESS])
# One-element binding arrays that judge repeats; np.broadcast_to of a str
# costs several times more.
_ONE_BINDING = {BINDING_CAUSALITY: _BINDINGS[:1], BINDING_PROGRESS: _BINDINGS[1:]}


class FacetVerdicts(NamedTuple):
    """Worst verdict of each of F triangles, as (F,) arrays."""

    slack: np.ndarray
    scale: np.ndarray
    binding: np.ndarray    # BINDING_CAUSALITY or BINDING_PROGRESS
    satisfied: np.ndarray

    @classmethod
    def judge(cls, slack: np.ndarray, scale: np.ndarray,
              binding) -> "FacetVerdicts":
        """Verdicts from slack and raw scale, as :func:`_verdict` makes them."""
        scale = np.maximum(1.0, scale)
        if isinstance(binding, str):
            binding = _ONE_BINDING[binding].repeat(len(slack))
        return cls(slack, scale, binding, slack >= -REL_TOL * scale)

    def margin(self) -> float:
        """``min(slack + REL_TOL * scale)``: >= 0 exactly when all are satisfied.

        A rounded sum of two finite floats has the sign of the exact sum, so
        for finite slacks this agrees with ``satisfied`` facet for facet; a
        NaN slack gives a NaN margin.
        """
        return float((self.slack + REL_TOL * self.scale).min())

    def verdict(self, i: int) -> ConstraintVerdict:
        return ConstraintVerdict(bool(self.satisfied[i]), float(self.slack[i]),
                                 str(self.binding[i]), float(self.scale[i]))


@functools.lru_cache(maxsize=4)
def _lift_samples(tmin: float) -> np.ndarray:
    """The lifts ``progressive_verdicts`` samples, 0 to ``tmin``; read-only."""
    dts = np.linspace(0.0, tmin, INTERIOR_LIFTS + 2)
    dts.setflags(write=False)
    return dts


def progressive_verdicts(points, times: np.ndarray,
                         ids: np.ndarray, geometry: ApexGeometry,
                         field: SlopeField, config: ConstraintConfig,
                         elements=None, remote=None,
                         ) -> tuple[FacetVerdicts, np.ndarray, FacetVerdicts]:
    """Batched progressive-triangle check; see the module docstring.

    ``points`` is (F, 3, 2), or the triangles'
    :class:`~tentmesh.fields.SampleSites`; ``times`` and ``ids`` are
    (F, 3), ``geometry`` is the triangles' :class:`ApexGeometry` and
    ``elements`` their (F,) mesh ids (required by table-backed fields unless
    the sites carry them).  ``remote``, when given, is called once with the
    largest slope the causality rows sampled (the ceiling) and returns the
    slope that further limits the causality half, such as ``min(ceiling,
    remote cone slope)``; a cap at or above the ceiling changes no verdict.
    Progress always uses the field's own sampled slope.  Returns the
    verdicts, row 0's (F,) slopes (dt = 0, each triangle at its own times)
    and the verdicts without the remote cap, which a call without
    ``remote`` makes for the same rows.  Only a cap below the ceiling judges
    the causality half a second time; otherwise the two verdicts are one
    object.
    """
    F = times.shape[0]
    tmin = config.tmin_2d
    dts = _lift_samples(tmin)
    n = len(dts)
    f = np.arange(F)
    order = np.lexsort((ids, times))
    lo, mid = order[:, 0], order[:, 1]
    t_lo, t_mid, t_hi = times[f[:, None], order].T[:, :, None]
    id_lo, id_mid = ids[f[:, None], order[:, :2]].T[:, :, None]
    t_lift = t_lo + dts  # (F, n): lo lifted by each sample

    # Rows 0..n-1 lift lo by each sample; rows n..2n-1 are the companions,
    # which also raise mid by the full floor.
    block = times[:, None, :].repeat(2 * n, axis=1)
    block[f, :n, lo] = t_lift
    block[f, n:, lo] = t_lift
    block[f, n:, mid] = t_mid + tmin
    sig = sampled_min_simplices(field, points, block, elements=elements)
    slack = np.empty((F, n, 2))
    scale = np.empty((F, n, 2))

    # Progress of each lifted triangle, re-ordered by (time, id).  Only lo
    # moved, so the order is lo, mid, hi until the lift passes mid, then
    # mid, lo, hi until it passes hi, then mid, hi, lo.  The gradient edge
    # joins the later two: t_hi - t_mid, t_hi - t_lift, then t_lift - t_hi,
    # which is |t_hi - max(t_lift, t_mid)| in each case, bit for bit (a
    # time tie makes the two candidates equal).
    alt, u_along, qr_len, phi_lo = (a[f, lo][:, None] for a in geometry)
    past_mid = (t_lift > t_mid) | ((t_lift == t_mid) & (id_lo > id_mid))
    phi = np.where(past_mid, geometry.phi[f, mid][:, None], phi_lo)
    length = np.where(past_mid, geometry.qr_len[f, mid][:, None], qr_len)
    bound = (1.0 - config.epsilon) * sig[:, n:] * phi * length
    diff = np.abs(t_hi - np.maximum(t_lift, t_mid))
    slack[..., 1] = bound - diff
    scale[..., 1] = np.maximum(bound, diff)

    t_qr = times[f[:, None], _OTHERS[lo]]

    def judge(sigma: np.ndarray) -> FacetVerdicts:
        # Causality of each lifted triangle, in the altitude form at apex
        # lo, against ``sigma``; then the first minimum in the order
        # causal 0, progress 0, causal 1, ...
        slack[..., 0], scale[..., 0] = causality_slack(
            sigma, t_qr[:, :1], t_qr[:, 1:], qr_len, t_lift, alt, u_along,
        )
        flat = slack.reshape(F, 2 * n)
        k = flat.argmin(axis=1)
        return FacetVerdicts.judge(
            flat[f, k], scale.reshape(F, 2 * n)[f, k], _BINDINGS[k & 1],
        )

    sig_c = sig[:, :n]
    verdicts = uncapped = judge(sig_c)
    if remote is not None:
        ceiling = float(sig_c.max())
        cap = remote(ceiling)
        if not cap >= ceiling:
            verdicts = judge(np.minimum(sig_c, cap))
    return verdicts, sig[:, 0], uncapped


def is_progressive_triangle(points, times, field: SlopeField,
                            config: ConstraintConfig, ids=(0, 1, 2),
                            element: int | None = None,
                            sigma_cap: float = math.inf) -> ConstraintVerdict:
    """Whether one triangle stays causal and within progress under floor lifts.

    ``points`` is (3, 2), ``times`` the matching vertex times and ``ids``
    the vertex ids that break time ties; ``element`` is the mesh id a table
    field needs, and ``sigma_cap`` a slope capping the causality half.
    Returns the worst verdict of :func:`progressive_verdicts`.
    """
    points = np.asarray(points, dtype=np.float64)[None]
    return progressive_verdicts(
        points, np.asarray(times, dtype=np.float64)[None],
        np.asarray(ids)[None], apex_geometry(points), field, config,
        elements=None if element is None else np.array([element]),
        remote=lambda ceiling: sigma_cap,
    )[0].verdict(0)


def is_progressive_front(front, field: SlopeField,
                         config: ConstraintConfig,
                         limit: int = 5) -> tuple[bool, list]:
    """Check every facet of a front; returns (ok, first ``limit`` violations).

    ``ok`` covers every facet, whatever ``limit`` (an integer >= 0, or
    :class:`InvalidArgument`) keeps of the violations.  In 1D "progressive"
    coincides with "causal", so segments are checked for causality only.
    """
    check_count("limit", limit)
    mesh: SpaceMesh = front.mesh
    facets = Facets.of(mesh, np.arange(mesh.n_simplices))
    verdicts = facet_verdicts(facets, front.times[facets.rows], field,
                              config)[0]
    violations = [(int(sid), verdicts.verdict(sid))
                  for sid in np.flatnonzero(~verdicts.satisfied)[:limit]]
    return bool(verdicts.satisfied.all()), violations


# ---------------------------------------------------------------------------
# gathered facets: whole fronts and stars
# ---------------------------------------------------------------------------


class Facets(NamedTuple):
    """Facets ``sids`` of a mesh, gathered once for every check of them.

    ``rows`` is ``mesh.simplices[sids]``, ``sites`` the
    :class:`~tentmesh.fields.SampleSites` of the facets' points and ids,
    where every check samples the field, and ``geo`` the geometry the
    checks read: the segment lengths (``mesh.measures[sids]``) in 1D, the
    triangles' :class:`~tentmesh.geometry.ApexGeometry` rows in 2D.  Every
    array is gathered from the mesh, which no run writes, so a record stays
    valid while the front moves.
    """

    sids: np.ndarray
    rows: np.ndarray
    sites: SampleSites
    geo: np.ndarray | ApexGeometry

    @classmethod
    def of(cls, mesh: SpaceMesh, sids: np.ndarray) -> "Facets":
        rows = mesh.simplices[sids]
        geo = (mesh.measures[sids] if mesh.dim == 1
               else mesh.apex_geometry.take(sids))
        return cls(sids, rows, SampleSites.of(mesh.vertices[rows], sids), geo)


def facet_causality(facets: Facets, T: np.ndarray,
                    field: SlopeField) -> tuple[FacetVerdicts, np.ndarray]:
    """Causality verdicts and sampled slopes of ``facets`` at times ``T``.

    Row i of ``T`` holds the times of facet i's vertices in id order.  The
    rows share one :func:`sampled_min_simplices` call, as in
    :func:`~tentmesh.solver.solve_patch`.  Triangles are checked at their
    latest vertex (ties to the larger id).
    """
    sigma = sampled_min_simplices(field, facets.sites, T)
    geo = facets.geo
    if facets.rows.shape[1] == 2:
        slack, scale = causality_slack(sigma, T[:, 0], T[:, 1], geo)
    else:
        # Reversed argmax breaks time ties toward the larger local index,
        # i.e. the larger vertex id (rows are id-sorted).
        apex = 2 - np.argmax(T[:, ::-1], axis=1)
        f = np.arange(T.shape[0])
        t_qr = T[f[:, None], _OTHERS[apex]]
        slack, scale = causality_slack(
            sigma, t_qr[:, 0], t_qr[:, 1], geo.qr_len[f, apex], T[f, apex],
            geo.altitude[f, apex], geo.u_along[f, apex],
        )
    return FacetVerdicts.judge(slack, scale, BINDING_CAUSALITY), sigma


def facet_verdicts(facets: Facets, T: np.ndarray, field: SlopeField,
                   config: ConstraintConfig, remote=None,
                   ) -> tuple[FacetVerdicts, np.ndarray, FacetVerdicts]:
    """The acceptance check of ``facets`` at times ``T``, per dimension.

    Row i of ``T`` holds the times of facet i's vertices in id order;
    returns the verdicts, each facet's slope sampled at ``T`` and the
    verdicts without the ``remote`` cap (the whole-front check's).
    1D: :func:`facet_causality`.  2D: :func:`progressive_verdicts`, whose
    ``remote`` hook (the remote cone slope below a ceiling) caps the
    causality half; 1D ignores it, as tentpoles there stay below remote
    cones outright, and its two verdicts are one object.
    """
    if facets.rows.shape[1] == 2:
        verdicts, sigma = facet_causality(facets, T, field)
        return verdicts, sigma, verdicts
    return progressive_verdicts(facets.sites, T, facets.rows, facets.geo,
                                field, config, remote=remote)


def front_causality_report(mesh: SpaceMesh, times: np.ndarray,
                           field: SlopeField,
                           config: ConstraintConfig | None = None) -> dict:
    """Causality slack of every facet at the given vertex times.

    Returns arrays keyed ``slack``, ``scale``, ``sigma``, ``satisfied``; see
    :func:`facet_causality`.  ``config`` is not read: causality has no floor.
    """
    facets = Facets.of(mesh, np.arange(mesh.n_simplices))
    verdicts, sigma = facet_causality(facets, times[facets.rows], field)
    return {
        "slack": verdicts.slack,
        "scale": verdicts.scale,
        "sigma": sigma,
        "satisfied": verdicts.satisfied,
    }
