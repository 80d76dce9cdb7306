"""Tests for the flat triangle geometry kernel.

Hand-checked reference values are frozen below.  Derivations for the
non-obvious ones:

* Unit right triangle p=(0,0), q=(1,0), r=(0,1): the line qr is x+y=1, the
  foot of the perpendicular from the origin is u=(1/2, 1/2), the altitude is
  sqrt(2)/2 = 0.7071067811865476.  Both base angles are 45 degrees so the
  shape factor of p is sin(45) = sqrt(2)/2.
* Equilateral side-1 triangle: every shape factor is sin(60) =
  0.8660254037844386, which is also its width (the minimum altitude).
* Skewed obtuse triangle p=(0,0), q=(4,0), r=(3,1): the angle at r is obtuse
  (cos = -1/sqrt(5)), so the foot u=(2,2) lies beyond r, and |uq| = |pu| =
  2*sqrt(2).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tentmesh.errors import DegenerateSimplex
from tentmesh.geometry import (
    APEX_OTHERS,
    apex_geometry,
    frame,
    ordered_dot,
    triangle_width,
)

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

coordinate = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def triangles(draw):
    """Three points forming a comfortably nondegenerate triangle.

    Borderline-thin triangles are excluded because every function under test
    is documented to reject them; their behavior near the threshold is pinned
    by the explicit degeneracy tests instead.
    """
    pts = np.array([[draw(coordinate), draw(coordinate)] for _ in range(3)])
    area2 = abs(
        (pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
        - (pts[1, 1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0])
    )
    longest = max(
        np.linalg.norm(pts[1] - pts[0]),
        np.linalg.norm(pts[2] - pts[1]),
        np.linalg.norm(pts[0] - pts[2]),
    )
    assume(longest > 1e-3)
    assume(area2 > 1e-6 * longest * longest)
    return pts


# ---------------------------------------------------------------------------
# frozen reference values
# ---------------------------------------------------------------------------


def _foot(p, q, r):
    """Foot u of the altitude from p onto line qr, and |pu|, read from frame."""
    f = frame(p, q, r)
    q, r = np.asarray(q, dtype=float), np.asarray(r, dtype=float)
    return q + f.u_along * ((r - q) / f.qr_len), f.altitude


class TestProjectOntoLine:
    # frame places the foot at u_along from q on the qr axis; the point is
    # rebuilt from it with two more roundings, hence rel=1e-15, not exact.
    def test_unit_right_triangle(self):
        u, altitude = _foot((0, 0), (1, 0), (0, 1))
        assert u == pytest.approx([0.5, 0.5], rel=1e-15)
        assert altitude == pytest.approx(SQRT2_OVER_2, rel=1e-15)

    def test_foot_may_fall_outside_segment(self):
        u, altitude = _foot((0, 0), (4, 0), (3, 1))
        assert u == pytest.approx([2.0, 2.0], rel=1e-12)
        assert altitude == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


class TestPhi:
    def test_unit_right_triangle_apex_at_right_angle(self):
        # Base angles are both 45 degrees.
        assert frame((0, 0), (1, 0), (0, 1)).phi == pytest.approx(SQRT2_OVER_2,
                                                                  rel=1e-15)

    def test_equilateral(self):
        eq = [(0, 0), (1, 0), (0.5, math.sqrt(3.0) / 2.0)]
        assert frame(*eq).phi == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)

    def test_right_angle_opposite_gives_one(self):
        # Angle at q is the right angle, so the factor saturates at 1.
        assert frame((0, 0), (1, 0), (1, 1)).phi == pytest.approx(1.0, abs=0.0)

    def test_symmetric_in_base_vertices(self):
        t = [(0.3, 0.1), (2.0, 0.4), (1.1, 1.7)]
        assert frame(t[0], t[1], t[2]).phi == frame(t[0], t[2], t[1]).phi


class TestFrame:
    def test_obtuse_at_r_puts_foot_beyond_r(self):
        f = frame((0, 0), (4, 0), (3, 1))
        assert f.u_along == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert f.u_along > f.qr_len
        assert f.altitude == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_unit_right_triangle_fields(self):
        f = frame((0, 0), (1, 0), (0, 1))
        # The foot u = (1/2, 1/2) is the midpoint of qr.
        assert f.u_along == pytest.approx(SQRT2_OVER_2, rel=1e-15)
        assert f.altitude == pytest.approx(SQRT2_OVER_2, rel=1e-15)
        assert f.qr_len == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateSimplex):
            frame((2, 2), (0, 0), (1, 1))

    def test_coincident_base_raises(self):
        with pytest.raises(DegenerateSimplex):
            frame((0, 1), (3, 3), (3, 3))

    def test_swapping_base_vertices_keeps_length_and_shape_bits(self):
        # ApexGeometry takes q and r in local-index order, progress_ok in
        # time order; both must read the same qr_len and phi.
        p, q, r = np.array([0.3, 0.1]), np.array([2.0, 0.4]), np.array([1.1, 1.7])
        f, g = frame(p, q, r), frame(p, r, q)
        assert (f.altitude, f.qr_len, f.phi) == (g.altitude, g.qr_len, g.phi)
        assert f.qr_len == math.hypot(*(r - q))
        assert g.u_along == pytest.approx(f.qr_len - f.u_along, rel=1e-12)


class TestApexGeometry:
    def test_columns_are_frames_bit_for_bit(self):
        # The array form must give every (triangle, apex) the bits of its
        # frame, over magnitudes 1e-8 to 1e8 and with offsets several sizes
        # away from the origin, where the coordinate differences round.
        rng = np.random.default_rng(41)
        for exponent in range(-8, 9):
            scale = 10.0 ** exponent
            corners = (rng.uniform(-1.0, 1.0, (200, 3, 2))
                       + rng.uniform(-4.0, 4.0, 2)) * scale
            geo = apex_geometry(corners)
            for f, pts in enumerate(corners):
                for a, (qi, ri) in enumerate(APEX_OTHERS):
                    want = frame(pts[a], pts[qi], pts[ri])
                    assert [float(col[f, a]).hex() for col in geo] == \
                        [float(v).hex() for v in want]

    def test_degenerate_triangle_raises_frames_error(self):
        good = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        bad = np.array([[[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]])
        with pytest.raises(DegenerateSimplex) as got:
            apex_geometry(np.concatenate([good, bad]))
        with pytest.raises(DegenerateSimplex) as want:
            frame(*bad[0])
        assert str(got.value) == str(want.value)

    def test_no_triangles(self):
        geo = apex_geometry(np.zeros((0, 3, 2)))
        assert [col.shape for col in geo] == [(0, 3)] * 4


class TestWidth:
    def test_unit_right_triangle(self):
        assert triangle_width((0, 0), (1, 0), (0, 1)) == pytest.approx(
            SQRT2_OVER_2, rel=1e-15
        )

    def test_equilateral(self):
        w = triangle_width((0, 0), (1, 0), (0.5, math.sqrt(3.0) / 2.0))
        assert w == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)

    def test_segment(self):
        assert triangle_width((0.0,), (2.0,)) == 2.0

    def test_degenerate_triangle_raises(self):
        with pytest.raises(DegenerateSimplex):
            triangle_width((0, 0), (1, 0), (2, 1e-14))

    def test_zero_segment_raises(self):
        with pytest.raises(DegenerateSimplex):
            triangle_width((1.0,), (1.0,))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(triangles())
@settings(max_examples=200, deadline=None)
def test_altitude_matches_area_formula(pts):
    # |pu| * |qr| must equal twice the triangle area.
    p, q, r = pts
    altitude = frame(p, q, r).altitude
    qr = np.linalg.norm(r - q)
    area2 = abs((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
    assert altitude * qr == pytest.approx(area2, rel=1e-9)


@given(triangles(), st.floats(min_value=-math.pi, max_value=math.pi), coordinate, coordinate, st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_phi_invariant_under_similarity(pts, angle, dx, dy, scale):
    # The shape factor depends only on angles, so rigid motions plus uniform
    # scaling must leave it unchanged.
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    moved = scale * (pts @ rot.T) + np.array([dx, dy])
    assert frame(*moved).phi == pytest.approx(frame(*pts).phi, rel=1e-9)


@given(triangles())
@settings(max_examples=200, deadline=None)
def test_frame_sign_conventions(pts):
    p, q, r = pts
    f = frame(p, q, r)
    assert f.altitude > 0.0
    # u_along is measured from q toward r, and the foot it places on line qr
    # sits one altitude from p.
    u = q + f.u_along * (r - q) / f.qr_len
    assert float(np.linalg.norm(p - u)) == pytest.approx(
        f.altitude, rel=1e-6, abs=1e-9 * float(np.linalg.norm(r - q))
    )


@given(triangles())
@example(np.array([[0.0, 0.05], [-219.0, -219.0], [-327.0, -327.0]]))
@settings(max_examples=200, deadline=None)
def test_width_is_smallest_altitude(pts):
    p, q, r = pts
    w = triangle_width(p, q, r)
    alts = [
        frame(p, q, r).altitude,
        frame(q, r, p).altitude,
        frame(r, p, q).altitude,
    ]
    assert w == pytest.approx(min(alts), rel=1e-9)
    # Both sides are twice the area over an edge length, but the area is a
    # cross product taken at a different vertex: at p for the width, at the
    # apex for an altitude.  The cross product at a vertex with edges e1, e2
    # rounds the two coordinate differences, the two products and their
    # difference, an absolute error of a few ulps of |e1| * |e2|; relative
    # to twice the area that is a few ulps times |e1| * |e2| / area2, large
    # for a near-collinear triangle.  The edge lengths add an ulp or two.
    (a, b), (c, d) = q - p, r - p
    area2 = abs(a * d - b * c)
    ratio = [np.linalg.norm(b - a) * np.linalg.norm(c - a) / area2
             for a, b, c in ((p, q, r), (q, r, p), (r, p, q))]
    k = int(np.argmin(alts))
    bound = 4.0 * np.finfo(float).eps * (ratio[0] + ratio[k] + 2.0)
    assert w <= min(alts) * (1.0 + bound)


# Finite doubles of every magnitude, with zeros and the extremes drawn often.
any_double = st.floats(allow_nan=False, allow_infinity=False, width=64) \
    | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e154, 1.7e308])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_ordered_dot_adds_like_a_python_float_loop(data):
    # CPython rounds every product and every sum of floats and never fuses
    # them, so the loop below has the same bits on any CPU; so must the
    # helper, whatever BLAS kernel numpy would pick for a matrix product.
    k = data.draw(st.integers(1, 6))
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    x = np.array(data.draw(st.lists(any_double, min_size=k * m,
                                    max_size=k * m))).reshape(k, m, 1)
    w = np.array(data.draw(st.lists(any_double, min_size=k * n,
                                    max_size=k * n))).reshape(k, 1, n)
    if data.draw(st.booleans()):  # one vector pair, a scalar result
        x, w = x[:, 0, 0], w[:, 0, 0]
    with np.errstate(all="ignore"):  # overflow, and inf - inf
        got = np.asarray(ordered_dot(x, w))
    xs, ws = x.reshape(k, -1, 1).tolist(), w.reshape(k, 1, -1).tolist()
    want = []
    for i in range(len(xs[0])):
        for c in range(len(ws[0][0])):
            s = xs[0][i][0] * ws[0][0][c]
            for j in range(1, k):
                s = s + xs[j][i][0] * ws[j][0][c]
            want.append(s.hex())
    assert [v.hex() for v in got.ravel().tolist()] == want
