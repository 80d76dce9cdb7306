"""Flat 2D triangle geometry used by the causality and progress checks.

Conventions used throughout the package:

* A space point is a numpy float64 array of length ``dim`` (1 or 2).
* A triangle is passed as three points ``p, q, r``.  The argument order
  carries meaning: ``p`` is the vertex a check treats as the apex (the one
  being lifted), ``q`` and ``r`` span the opposite edge, and for checks that
  care, ``q`` is the one with the earlier time.
* ``u`` is the foot of the perpendicular from ``p`` onto the line through
  ``q`` and ``r``.  ``u`` may fall outside the segment ``qr``.

A simplex counts as degenerate when its minimum altitude is smaller than
``DEGENERACY_RATIO`` times its diameter (longest edge).  All functions here
raise :class:`DegenerateSimplex` rather than return garbage for such inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSimplex

# A simplex thinner than this ratio (min altitude / diameter) is rejected.
DEGENERACY_RATIO = 1e-12

# Local indices of the two non-apex vertices, in local-index order, per apex.
APEX_OTHERS = ((1, 2), (0, 2), (0, 1))


class EventPoint(NamedTuple):
    """A point in spacetime: spatial position plus a time coordinate."""

    position: np.ndarray
    time: float


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Coerce ``coords`` to a float64 space point, checking dimension if given."""
    p = np.asarray(coords, dtype=np.float64).reshape(-1)
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"expected a {dim}-dimensional point, got shape {p.shape}")
    return p


def _area2(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Twice the unsigned area of triangle pqr."""
    return abs(
        (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    )


def _edge_lengths(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> tuple[float, float, float]:
    """Lengths (|qr|, |rp|, |pq|), i.e. each edge named by the opposite vertex."""
    return (
        math.hypot(r[0] - q[0], r[1] - q[1]),
        math.hypot(p[0] - r[0], p[1] - r[1]),
        math.hypot(q[0] - p[0], q[1] - p[1]),
    )


def _require_nondegenerate(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """Return (twice area, longest edge), raising if the triangle is degenerate.

    Minimum altitude equals 2*area / longest edge, so the degeneracy test
    ``min_altitude < ratio * diameter`` becomes ``2*area < ratio * diameter^2``.
    """
    area2 = _area2(p, q, r)
    longest = max(_edge_lengths(p, q, r))
    if area2 < DEGENERACY_RATIO * longest * longest or longest == 0.0:
        raise DegenerateSimplex(
            f"triangle with vertices {tuple(p)}, {tuple(q)}, {tuple(r)} is degenerate"
        )
    return area2, longest


def project_onto_line(p, q, r) -> tuple[np.ndarray, float]:
    """Foot of the perpendicular from ``p`` onto line ``qr`` and its distance.

    Returns ``(u, altitude)`` where ``u`` may lie outside the segment ``qr``
    and ``altitude = |pu| > 0``.  Raises :class:`DegenerateSimplex` when
    ``q == r`` or ``p`` is (numerically) collinear with ``q`` and ``r``.
    """
    p, q, r = as_point(p, 2), as_point(q, 2), as_point(r, 2)
    area2, _ = _require_nondegenerate(p, q, r)
    d = r - q
    # Parametrize with the exact squared length; hypot(d)**2 would round.
    t = float((p - q) @ d) / float(d @ d)
    u = q + t * d
    altitude = area2 / math.hypot(d[0], d[1])
    return u, altitude


def phi(p, q, r) -> float:
    """Sine bound ``max(sin(angle at q), sin(angle at r))`` for triangle pqr.

    This is the shape factor of vertex ``p``: the larger of the sines of the
    two angles not at ``p``.  It lies in (0, 1] for nondegenerate triangles
    and equals 1 exactly when one of those angles is right.
    """
    p, q, r = as_point(p, 2), as_point(q, 2), as_point(r, 2)
    area2, _ = _require_nondegenerate(p, q, r)
    qr, rp, pq = _edge_lengths(p, q, r)
    sin_q = area2 / (pq * qr)  # angle at q, between edges qp and qr
    sin_r = area2 / (rp * qr)  # angle at r, between edges rp and rq
    return min(1.0, max(sin_q, sin_r))


@dataclass(frozen=True)
class TriangleFrame:
    """Scalars of a triangle pqr for the altitude form of causality at apex p.

    ``altitude = |pu|`` with ``u`` the foot of the perpendicular from ``p``
    onto line qr; ``u_along`` is the signed coordinate of ``u`` on the qr
    axis measured from ``q`` (so ``u_along < 0`` or ``> qr_len`` when ``u``
    falls outside the segment).  :func:`~tentmesh.constraints.causal_triangle`
    reads them directly; :func:`apex_geometry` collects them per (triangle,
    apex) for the batched checks and the pitcher's star cap.
    """

    altitude: float
    u_along: float
    qr_len: float


def frame(p, q, r) -> TriangleFrame:
    """Build the :class:`TriangleFrame` for triangle pqr.

    Raises :class:`DegenerateSimplex` for degenerate triangles.
    """
    p, q, r = as_point(p, 2), as_point(q, 2), as_point(r, 2)
    area2, _ = _require_nondegenerate(p, q, r)
    d_qr = r - q
    qr_len = math.hypot(d_qr[0], d_qr[1])
    return TriangleFrame(
        altitude=area2 / qr_len,
        u_along=float((p - q) @ (d_qr / qr_len)),
        qr_len=qr_len,
    )


class ApexGeometry(NamedTuple):
    """Per-(triangle, apex) shape data, each field an (F, 3) array.

    Column ``a`` describes the triangle with local vertex ``a`` as the apex p
    and the other two, in local-index order, as q and r.  The first three
    fields come from :func:`frame`, ``phi`` from :func:`phi` and
    ``edge_len`` is ``np.linalg.norm(r - q)``: exactly the scalars the
    single-triangle checks compute, so batched checks that read them agree
    with those checks bit for bit.
    """

    altitude: np.ndarray  # |pu|
    u_along: np.ndarray   # signed position of the foot u on the qr axis
    qr_len: np.ndarray    # |qr| by hypot, as the frame measures it
    phi: np.ndarray       # shape factor of the apex
    edge_len: np.ndarray  # |qr| by np.linalg.norm, as the progress check measures it

    def take(self, rows) -> "ApexGeometry":
        """The rows ``rows`` of every field."""
        return ApexGeometry(*(a[rows] for a in self))


def apex_geometry(corners) -> ApexGeometry:
    """:class:`ApexGeometry` of F triangles given as an (F, 3, 2) array.

    Raises :class:`DegenerateSimplex` for a degenerate triangle.
    """
    corners = np.asarray(corners, dtype=np.float64)
    out = np.empty((5, corners.shape[0], 3))
    for f, pts in enumerate(corners):
        for a, (qi, ri) in enumerate(APEX_OTHERS):
            p, q, r = pts[a], pts[qi], pts[ri]
            fr = frame(p, q, r)
            out[:, f, a] = (fr.altitude, fr.u_along, fr.qr_len, phi(p, q, r),
                            float(np.linalg.norm(r - q)))
    return ApexGeometry(*out)


def triangle_width(p, q, r=None) -> float:
    """Minimum altitude of triangle pqr, or the length of segment pq if ``r`` is None.

    The width is the diameter of the largest inscribed ball up to a shape
    factor; it is what the per-step progress guarantee is proportional to.
    """
    if r is None:
        p, q = as_point(p), as_point(q)
        length = float(np.linalg.norm(q - p))
        if length == 0.0:
            raise DegenerateSimplex("zero-length segment")
        return length
    p, q, r = as_point(p, 2), as_point(q, 2), as_point(r, 2)
    area2, longest = _require_nondegenerate(p, q, r)
    return area2 / longest


def simplex_width(points: np.ndarray) -> float:
    """Width of a 1- or 2-simplex given as a (k, dim) array of vertex coordinates."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] == 2:
        return triangle_width(pts[0], pts[1])
    if pts.shape[0] == 3:
        return triangle_width(pts[0], pts[1], pts[2])
    raise ValueError(f"expected 2 or 3 vertices, got {pts.shape[0]}")
