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
  ``(t(hi) - t(mid)) / |mid hi| <= (1 - epsilon) sigma phi(lo)`` where phi is
  the shape factor from :func:`tentmesh.geometry.phi`.  This reserves a
  fraction of the slope budget so the next pitch at the low vertex can raise
  it by at least the global floor.

A triangle is *progressive* when lifting its lowest vertex by any amount up
to the floor keeps it causal and keeps the progress constraint satisfied
against the slope sampled over the companion triangle whose mid vertex is
lifted by the floor.  The "any amount" quantifier is checked at the interval
endpoints plus a few interior samples; for the built-in fields the
constraints vary monotonically between samples, so the endpoints carry the
guarantee.

Causality has one array kernel, :func:`causality_slack`: the altitude form
at an apex for triangles, the budget form for segments.  Every causality
check calls it: :func:`facet_causality` (1D stars, 1D fronts and
:func:`front_causality_report`) and the progressive check below.

One numpy kernel, :func:`progressive_verdicts`, makes the progressive check
for F triangles at once; 2D star verification, :func:`is_progressive_front`
and :func:`is_progressive_triangle` (F = 1) all call it.  Per triangle it

* orders the unlifted vertices by (time, id) into lo, mid, hi;
* builds 2n rows of times for the n lift samples dt: rows k < n lift lo by
  dt_k, and row n + k is that lift's companion, with mid also raised by the
  full floor.  One :func:`~tentmesh.fields.sampled_min_simplices` call
  samples the slope over all F * 2n rows;
* checks causality of row k at apex lo (q and r in local-index order)
  against ``min(slope of row k, sigma_cap)``, and progress of row k, with
  its vertices re-ordered by (time, id), against the slope of row n + k.

The per-(triangle, apex) geometry comes from
:class:`~tentmesh.geometry.ApexGeometry`, the same scalars
:func:`causal_triangle` and :func:`progress_ok` compute, and the kernel
repeats their float operations in their order, so it agrees with those
single-triangle checks bit for bit.  Worst-verdict rule: a triangle's
verdict is the first minimum slack in the order causal 0, progress 0,
causal 1, progress 1, ..., judged against its own scale.

Every check returns a :class:`ConstraintVerdict` with a signed slack in time
units; ``satisfied`` applies the relative tolerance ``rel_tol`` (slack down
to ``-rel_tol * scale`` still passes, so exact-equality designs are stable
under roundoff).  In 1D there is no progress constraint: causal fronts
already guarantee full-height steps, and the progressive notions degenerate
to causality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, ValidationError
from .fields import SlopeField, sampled_min_simplices
from .geometry import (
    APEX_OTHERS,
    ApexGeometry,
    TriangleFrame,
    apex_geometry,
    frame,
    phi,
)
from .mesh import SpaceMesh

BINDING_CAUSALITY = "causality"
BINDING_PROGRESS = "progress"


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
    dt_interior_samples: int = 3
    slope_samples: int = 4
    rel_tol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.5:
            raise ValidationError(f"epsilon must be in (0, 1/2], got {self.epsilon}")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValidationError(f"eta must be positive and finite, got {self.eta}")
        if self.dt_interior_samples < 0:
            raise ValidationError("dt_interior_samples must be nonnegative")

    @classmethod
    def for_problem(cls, mesh: SpaceMesh, field: SlopeField,
                    epsilon: float = 0.5, eta: float | None = None,
                    **kwargs) -> "ConstraintConfig":
        base = field.sigma_min * mesh.wmin
        if eta is None:
            eta = 1e-9 * base
        return cls(
            epsilon=epsilon,
            eta=eta,
            tmin_1d=base,
            tmin_2d=epsilon * base,
            **kwargs,
        )

    def tmin(self, dim: int) -> float:
        return self.tmin_1d if dim == 1 else self.tmin_2d

    def with_eta(self, eta: float) -> "ConstraintConfig":
        return replace(self, eta=eta)


def _verdict(slack: float, binding: str, scale: float,
             rel_tol: float) -> ConstraintVerdict:
    scale = max(1.0, scale)
    return ConstraintVerdict(
        satisfied=bool(slack >= -rel_tol * scale),
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
    budget = sigma * length
    if t_p is None:
        return budget - abs_dt, np.maximum(budget, abs_dt)
    g = abs_dt / length
    w = u_along / length
    t_u = t_q * (1.0 - w) + t_r * w
    rhs = altitude * np.sqrt(np.maximum(0.0, sigma * sigma - g * g))
    lhs = np.abs(t_p - t_u)
    steep = g > sigma
    return (np.where(steep, budget - abs_dt, rhs - lhs),
            np.where(steep, np.maximum(budget, abs_dt), np.maximum(rhs, lhs)))


def causal_segment(t_a: float, t_b: float, length: float, sigma: float,
                   rel_tol: float = 1e-12) -> ConstraintVerdict:
    """Causality of a 1D facet: |t_b - t_a| <= sigma * length."""
    if length <= 0.0 or sigma <= 0.0:
        raise InvalidArgument("segment length and slope must be positive")
    budget = sigma * length
    diff = abs(t_b - t_a)
    return _verdict(budget - diff, BINDING_CAUSALITY, max(budget, diff), rel_tol)


def causal_triangle(points, times, sigma: float, apex: int = 0,
                    rel_tol: float = 1e-12,
                    fr: TriangleFrame | None = None) -> ConstraintVerdict:
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
    if fr is None:
        fr = frame(points[apex], points[qi], points[ri])
    dt_qr = times[ri] - times[qi]
    g = abs(dt_qr) / fr.qr_len
    if g > sigma:
        # The base edge alone exceeds the slope: no apex time can fix it.
        budget = sigma * fr.qr_len
        return _verdict(budget - abs(dt_qr), BINDING_CAUSALITY,
                        max(budget, abs(dt_qr)), rel_tol)
    w = fr.u_along / fr.qr_len
    t_u = times[qi] * (1.0 - w) + times[ri] * w
    rhs = fr.altitude * math.sqrt(max(0.0, sigma * sigma - g * g))
    lhs = abs(times[apex] - t_u)
    return _verdict(rhs - lhs, BINDING_CAUSALITY, max(rhs, lhs), rel_tol)


def _order_by_time(times, ids) -> tuple[int, int, int]:
    """Local indices sorted by (time, id): the deterministic vertex order."""
    return tuple(sorted(range(3), key=lambda i: (times[i], ids[i])))


def progress_ok(points, times, sigma: float, epsilon: float,
                ids=(0, 1, 2), rel_tol: float = 1e-12) -> ConstraintVerdict:
    """Progress constraint for one triangle at the given vertex times.

    Vertices are ordered by (time, id); the constraint bounds the gradient
    along the edge between the two later vertices by ``(1 - epsilon) * sigma``
    times the shape factor of the earliest vertex.
    """
    points = np.asarray(points, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    lo, mid, hi = _order_by_time(times, ids)
    length = float(np.linalg.norm(points[hi] - points[mid]))
    bound = (1.0 - epsilon) * sigma * phi(points[lo], points[mid], points[hi]) * length
    diff = float(times[hi] - times[mid])
    return _verdict(bound - diff, BINDING_PROGRESS, max(bound, diff), rel_tol)


def progress_bound_rhs(fr: TriangleFrame, g: float, sigma_prog: float,
                       epsilon: float) -> float:
    """Upper bound on (t'(p) - t(u)) / |pu| imposed by the progress constraint.

    ``fr`` is the frame of triangle (p, q, r) with q the earlier end of the
    opposite edge and ``g = (t(r) - t(q)) / |qr| >= 0`` the gradient along
    it.  Lifting p to the top of the triangle tilts the facet; rotating the
    gradient onto the edge rp turns the progress bound into this cap on the
    perpendicular rate at p.  Equivalently (and exactly): t'(p) may not
    exceed ``t(r) + |rp| (1 - epsilon) sigma_prog phi_q``.
    """
    if g < 0.0:
        raise InvalidArgument("gradient along qr must be nonnegative (q is earlier)")
    c = fr.cos_nn
    s = math.sqrt(max(0.0, 1.0 - c * c))
    # Shape factor of q: larger sine of the angles at r and at p.
    sin_at_r = fr.altitude / fr.rp_len
    sin_at_p = fr.altitude * fr.qr_len / (fr.pq_len * fr.rp_len)
    phi_q = min(1.0, max(sin_at_r, sin_at_p))
    return ((1.0 - epsilon) * sigma_prog * phi_q - g * c) / s


# ---------------------------------------------------------------------------
# progressive triangles and fronts
# ---------------------------------------------------------------------------


def _dt_samples(tmin: float, interior: int) -> np.ndarray:
    """Deterministic lift samples {0, ..., tmin} with `interior` inner points."""
    return np.linspace(0.0, tmin, interior + 2)


_OTHERS = np.array(APEX_OTHERS)
_LOCAL = np.arange(3)


class FacetVerdicts(NamedTuple):
    """Worst verdict of each of F triangles, as (F,) arrays."""

    slack: np.ndarray
    scale: np.ndarray
    binding: np.ndarray    # BINDING_CAUSALITY or BINDING_PROGRESS
    satisfied: np.ndarray

    @classmethod
    def judge(cls, slack: np.ndarray, scale: np.ndarray, binding,
              rel_tol: float) -> "FacetVerdicts":
        """Verdicts from slack and raw scale, as :func:`_verdict` makes them."""
        scale = np.maximum(1.0, scale)
        return cls(slack, scale, np.broadcast_to(binding, slack.shape),
                   slack >= -rel_tol * scale)

    def margin(self, rel_tol: float) -> float:
        """``min(slack + rel_tol * scale)``: >= 0 exactly when all are satisfied.

        A rounded sum of two finite floats has the sign of the exact sum, so
        for finite slacks this agrees with ``satisfied`` facet for facet; a
        NaN slack gives a NaN margin.
        """
        return float(np.min(self.slack + rel_tol * self.scale))

    def verdict(self, i: int) -> ConstraintVerdict:
        return ConstraintVerdict(bool(self.satisfied[i]), float(self.slack[i]),
                                 str(self.binding[i]), float(self.scale[i]))


def progressive_verdicts(points: np.ndarray, times: np.ndarray,
                         ids: np.ndarray, geometry: ApexGeometry,
                         field: SlopeField, config: ConstraintConfig,
                         elements=None,
                         sigma_cap: float = math.inf) -> FacetVerdicts:
    """Batched progressive-triangle check; see the module docstring.

    ``points`` is (F, 3, 2), ``times`` and ``ids`` are (F, 3), ``geometry``
    is the triangles' :class:`ApexGeometry` and ``elements`` their (F,) mesh
    ids (required by table-backed fields).  ``sigma_cap`` further limits
    the slope used for the causality half; progress always uses the field's
    own sampled slope.
    """
    F = times.shape[0]
    tmin = config.tmin_2d
    dts = _dt_samples(tmin, config.dt_interior_samples)
    n = len(dts)
    f = np.arange(F)
    order = np.lexsort((ids, times))
    lo, mid = order[:, 0], order[:, 1]
    t_lo, t_mid, t_hi = times[f[:, None], order].T[:, :, None]
    id_lo, id_mid, id_hi = ids[f[:, None], order].T[:, :, None]
    t_lift = t_lo + dts  # (F, n): lo lifted by each sample

    # Rows 0..n-1 lift lo by each sample; rows n..2n-1 are the companions,
    # which also raise mid by the full floor.
    lifted = np.where((_LOCAL == lo[:, None])[:, None, :], t_lift[:, :, None],
                      times[:, None, :])
    companion = np.where((_LOCAL == mid[:, None])[:, None, :],
                         (t_mid + tmin)[:, :, None], lifted)
    if elements is not None:
        elements = np.repeat(elements, 2 * n)
    sig = sampled_min_simplices(
        field, np.repeat(points, 2 * n, axis=0),
        np.concatenate((lifted, companion), axis=1).reshape(F * 2 * n, 3),
        config.slope_samples, elements=elements,
    ).reshape(F, 2 * n)

    # Causality of each lifted triangle, in the altitude form at apex lo.
    t_qr = times[f[:, None], _OTHERS[lo]]
    alt, u_along, qr_len, phi_lo, len_lo = (a[f, lo][:, None] for a in geometry)
    slack = np.empty((F, n, 2))
    scale = np.empty((F, n, 2))
    slack[..., 0], scale[..., 0] = causality_slack(
        np.minimum(sig[:, :n], sigma_cap), t_qr[:, :1], t_qr[:, 1:], qr_len,
        t_lift, alt, u_along,
    )

    # Progress of each lifted triangle, re-ordered by (time, id).  Only lo
    # moved, so the order is lo, mid, hi until the lift passes mid, then
    # mid, lo, hi until it passes hi, then mid, hi, lo.
    past_mid = (t_lift > t_mid) | ((t_lift == t_mid) & (id_lo > id_mid))
    past_hi = (t_lift > t_hi) | ((t_lift == t_hi) & (id_lo > id_hi))
    phi = np.where(past_mid, geometry.phi[f, mid][:, None], phi_lo)
    length = np.where(past_mid, geometry.edge_len[f, mid][:, None], len_lo)
    bound = (1.0 - config.epsilon) * sig[:, n:] * phi * length
    diff = np.where(past_hi, t_lift - t_hi,
                    np.where(past_mid, t_hi - t_lift, t_hi - t_mid))
    slack[..., 1] = bound - diff
    scale[..., 1] = np.maximum(bound, diff)

    # First minimum in the order causal 0, progress 0, causal 1, ...
    slack = slack.reshape(F, 2 * n)
    k = np.argmin(slack, axis=1)
    return FacetVerdicts.judge(
        slack[f, k], scale.reshape(F, 2 * n)[f, k],
        np.where(k % 2 == 1, BINDING_PROGRESS, BINDING_CAUSALITY),
        config.rel_tol,
    )


def is_progressive_triangle(points, times, field: SlopeField,
                            config: ConstraintConfig, ids=(0, 1, 2),
                            element: int | None = None,
                            sigma_cap: float = math.inf) -> ConstraintVerdict:
    """Whether one triangle stays causal and within progress under floor lifts.

    ``points`` is (3, 2), ``times`` the matching vertex times and ``ids``
    the vertex ids that break time ties; ``element`` is the mesh id a table
    field needs.  Returns the worst verdict of :func:`progressive_verdicts`.
    """
    points = np.asarray(points, dtype=np.float64)[None]
    return progressive_verdicts(
        points, np.asarray(times, dtype=np.float64)[None],
        np.asarray(ids)[None], apex_geometry(points), field, config,
        elements=None if element is None else np.array([element]),
        sigma_cap=sigma_cap,
    ).verdict(0)


def is_progressive_front(front, field: SlopeField,
                         config: ConstraintConfig,
                         limit: int = 5) -> tuple[bool, list]:
    """Check every facet of a front; returns (ok, first few violations).

    In 1D "progressive" coincides with "causal", so segments are checked for
    causality only.
    """
    mesh: SpaceMesh = front.mesh
    rows = mesh.simplices
    sids = np.arange(mesh.n_simplices)
    if mesh.dim == 1:
        verdicts, _ = facet_causality(mesh, sids, front.times[rows], field,
                                      config)
    else:
        verdicts = progressive_verdicts(
            mesh.vertices[rows], front.times[rows], rows, mesh.apex_geometry,
            field, config, elements=sids,
        )
    violations = [(int(sid), verdicts.verdict(sid))
                  for sid in np.flatnonzero(~verdicts.satisfied)[:limit]]
    return len(violations) == 0, violations


# ---------------------------------------------------------------------------
# causality of whole fronts and stars
# ---------------------------------------------------------------------------


def facet_causality(mesh: SpaceMesh, sids: np.ndarray, T: np.ndarray,
                    field: SlopeField, config: ConstraintConfig,
                    ) -> tuple[FacetVerdicts, np.ndarray]:
    """Causality verdicts and sampled slopes of facets ``sids`` at times ``T``.

    Row i of ``T`` holds the times of simplex ``sids[i]``'s vertices in id
    order.  The rows share one :func:`sampled_min_simplices` call, as in
    :func:`~tentmesh.solver.solve_patch`, so a star sees the slopes the cone
    store takes for it.  Triangles are checked at their latest vertex (ties
    to the larger id).
    """
    rows = mesh.simplices[sids]
    sigma = sampled_min_simplices(field, mesh.vertices[rows], T,
                                  config.slope_samples, elements=sids)
    if mesh.dim == 1:
        slack, scale = causality_slack(sigma, T[:, 0], T[:, 1],
                                       mesh.measures[sids])
    else:
        # Reversed argmax breaks time ties toward the larger local index,
        # i.e. the larger vertex id (rows are id-sorted).
        apex = 2 - np.argmax(T[:, ::-1], axis=1)
        f = np.arange(T.shape[0])
        t_qr = T[f[:, None], _OTHERS[apex]]
        geo = mesh.apex_geometry
        slack, scale = causality_slack(
            sigma, t_qr[:, 0], t_qr[:, 1], geo.qr_len[sids, apex], T[f, apex],
            geo.altitude[sids, apex], geo.u_along[sids, apex],
        )
    return FacetVerdicts.judge(slack, scale, BINDING_CAUSALITY,
                               config.rel_tol), sigma


def front_causality_report(mesh: SpaceMesh, times: np.ndarray,
                           field: SlopeField,
                           config: ConstraintConfig) -> dict:
    """Causality slack of every facet at the given vertex times.

    Returns arrays keyed ``slack``, ``scale``, ``sigma``, ``satisfied``; see
    :func:`facet_causality`.
    """
    verdicts, sigma = facet_causality(mesh, np.arange(mesh.n_simplices),
                                      times[mesh.simplices], field, config)
    return {
        "slack": verdicts.slack,
        "scale": verdicts.scale,
        "sigma": sigma,
        "satisfied": verdicts.satisfied,
    }
