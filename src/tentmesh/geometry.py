"""Flat 2D triangle geometry used by the causality and progress checks.

Conventions used throughout the package:

* A space point is a numpy float64 array of length ``dim`` (1 or 2).
* A triangle is passed as three points ``p, q, r``.  The argument order
  carries meaning: ``p`` is the vertex a check treats as the apex (the one
  being lifted), ``q`` and ``r`` span the opposite edge, and for checks that
  care, ``q`` is the one with the earlier time.
* ``u`` is the foot of the perpendicular from ``p`` onto the line through
  ``q`` and ``r``.  ``u`` may fall outside the segment ``qr``.

:func:`frame` is the one routine that measures a triangle from an apex: one
degeneracy test, then the altitude, the foot ``u``, the base edge |qr| and
the shape factor of the apex.  :func:`apex_geometry` computes the same
fields for every (triangle, apex) of a mesh in array form, bit for bit.

:func:`ordered_dot` is the rule for every small product in the package,
never ``@``, ``dot``, ``vecdot``, ``einsum`` or ``linalg.norm``: those go
to BLAS, whose kernel, picked per CPU at run time, sets their last bits.

A simplex counts as degenerate when its minimum altitude is smaller than
``DEGENERACY_RATIO`` times its diameter (longest edge).  All functions here
raise :class:`DegenerateSimplex` rather than return garbage for such inputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSimplex

# A simplex thinner than this ratio (min altitude / diameter) is rejected.
DEGENERACY_RATIO = 1e-12

# Local indices of the two non-apex vertices, in local-index order, per apex.
APEX_OTHERS = ((1, 2), (0, 2), (0, 1))
# The same as two index columns: q and r of apex 0, 1, 2.
_Q, _R = (list(col) for col in zip(*APEX_OTHERS))


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Coerce ``coords`` to a float64 space point, checking dimension if given."""
    p = np.asarray(coords, dtype=np.float64).reshape(-1)
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"expected a {dim}-dimensional point, got shape {p.shape}")
    return p


def ordered_dot(x, w):
    """``x[0] * w[0] + x[1] * w[1] + ...`` over the first axis of ``x`` and
    ``w`` (broadcast together), added in that order by unfused ufuncs: the
    bits of the same loop over Python floats, on any CPU."""
    out, *rest = np.multiply(x, w, order="C")
    for term in rest:
        out += term  # in place, in the first term's row of the products
    return out


def _area2(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Twice the unsigned area of triangle pqr."""
    return abs(
        (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    )


def _side_lengths(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> tuple[float, float, float]:
    """Lengths (|qr|, |rp|, |pq|), i.e. each edge named by the opposite vertex."""
    return (
        math.hypot(r[0] - q[0], r[1] - q[1]),
        math.hypot(p[0] - r[0], p[1] - r[1]),
        math.hypot(q[0] - p[0], q[1] - p[1]),
    )


def _require_nondegenerate(p: np.ndarray, q: np.ndarray,
                           r: np.ndarray) -> tuple[float, tuple[float, float, float]]:
    """Return (twice area, (|qr|, |rp|, |pq|)), raising if the triangle is degenerate.

    Minimum altitude equals 2*area / longest edge, so the degeneracy test
    ``min_altitude < ratio * diameter`` becomes ``2*area < ratio * diameter^2``.
    """
    area2 = _area2(p, q, r)
    lengths = _side_lengths(p, q, r)
    longest = max(lengths)
    if area2 < DEGENERACY_RATIO * longest * longest or longest == 0.0:
        raise DegenerateSimplex(
            f"triangle with vertices {tuple(p)}, {tuple(q)}, {tuple(r)} is degenerate"
        )
    return area2, lengths


class TriangleFrame(NamedTuple):
    """Shape of a triangle pqr seen from its apex p.

    ``altitude = |pu|`` with ``u`` the foot of the perpendicular from ``p``
    onto line qr; ``u_along`` is the signed coordinate of ``u`` on the qr
    axis measured from ``q`` (so ``u_along < 0`` or ``> qr_len`` when ``u``
    falls outside the segment); ``qr_len`` is the base edge |qr| by
    ``math.hypot``; ``phi`` is the shape factor of p,
    ``max(sin(angle at q), sin(angle at r))``, which lies in (0, 1] and
    equals 1 exactly when one of those angles is right.  Causality at apex p
    reads the first three; progress with p = lo reads ``qr_len`` as
    |mid hi| and ``phi`` as phi(lo).
    """

    altitude: float
    u_along: float
    qr_len: float
    phi: float


def frame(p, q, r) -> TriangleFrame:
    """Build the :class:`TriangleFrame` for triangle pqr.

    The one routine that measures a triangle from an apex.  Swapping q and
    r changes only ``u_along``, which is measured from q; the other fields
    keep their bits.  Raises :class:`DegenerateSimplex` for degenerate
    triangles.
    """
    p, q, r = as_point(p, 2), as_point(q, 2), as_point(r, 2)
    area2, (qr_len, rp_len, pq_len) = _require_nondegenerate(p, q, r)
    sin_q = area2 / (pq_len * qr_len)  # angle at q, between edges qp and qr
    sin_r = area2 / (rp_len * qr_len)  # angle at r, between edges rp and rq
    return TriangleFrame(
        altitude=area2 / qr_len,
        u_along=float(ordered_dot(p - q, (r - q) / qr_len)),
        qr_len=qr_len,
        phi=min(1.0, max(sin_q, sin_r)),
    )


class ApexGeometry(NamedTuple):
    """Per-(triangle, apex) :class:`TriangleFrame` fields, each an (F, 3) array.

    Column ``a`` is ``frame`` of the triangle with local vertex ``a`` as the
    apex p and the other two, in local-index order, as q and r: exactly the
    scalars the single-triangle checks compute, so batched checks that read
    them agree with those checks bit for bit.
    """

    altitude: np.ndarray  # |pu|
    u_along: np.ndarray   # signed position of the foot u on the qr axis
    qr_len: np.ndarray    # |qr|
    phi: np.ndarray       # shape factor of the apex

    def take(self, rows) -> "ApexGeometry":
        """The rows ``rows`` of every field."""
        return ApexGeometry(*(a[rows] for a in self))


def apex_geometry(corners) -> ApexGeometry:
    """:class:`ApexGeometry` of F triangles given as an (F, 3, 2) array.

    Every column carries the bits of :func:`frame`: each edge length is one
    ``math.hypot`` (symmetric in the edge's direction, so each edge serves
    all three apexes), and the areas, shape factors, altitudes and
    ``u_along`` are the same elementwise float operations in array form.
    Raises :class:`DegenerateSimplex` for a degenerate triangle, with
    ``frame``'s message for its first degenerate apex.
    """
    corners = np.asarray(corners, dtype=np.float64)
    hypot = math.hypot
    # Column a: the edge opposite local vertex a, which is apex a's qr.
    qr_len = np.array(
        [[hypot(x2 - x1, y2 - y1), hypot(x2 - x0, y2 - y0),
          hypot(x1 - x0, y1 - y0)]
         for (x0, y0), (x1, y1), (x2, y2) in corners.tolist()],
        dtype=np.float64,
    ).reshape(-1, 3)
    p = corners
    q, r = corners[:, _Q], corners[:, _R]
    dq, dr = q - p, r - p
    area2 = np.abs(dq[..., 0] * dr[..., 1] - dq[..., 1] * dr[..., 0])
    longest = qr_len.max(axis=1)[:, None]
    bad = (area2 < DEGENERACY_RATIO * longest * longest) | (longest == 0.0)
    if bad.any():
        f, a = np.argwhere(bad)[0]
        frame(p[f, a], q[f, a], r[f, a])  # raises DegenerateSimplex
    rq = (r - q) / qr_len[..., None]
    u_along = ordered_dot(np.moveaxis(p - q, -1, 0), np.moveaxis(rq, -1, 0))
    sin_q = area2 / (qr_len[:, _R] * qr_len)
    sin_r = area2 / (qr_len[:, _Q] * qr_len)
    return ApexGeometry(area2 / qr_len, u_along, qr_len,
                        np.minimum(1.0, np.maximum(sin_q, sin_r)))


def triangle_width(p, q, r=None) -> float:
    """Minimum altitude of triangle pqr, or the length of segment pq if ``r`` is None.

    The width is the diameter of the largest inscribed ball up to a shape
    factor; it is what the per-step progress guarantee is proportional to.
    """
    if r is None:
        p, q = as_point(p), as_point(q)
        length = math.sqrt(ordered_dot(q - p, q - p))
        if length == 0.0:
            raise DegenerateSimplex("zero-length segment")
        return length
    p, q, r = as_point(p, 2), as_point(q, 2), as_point(r, 2)
    area2, lengths = _require_nondegenerate(p, q, r)
    return area2 / max(lengths)
