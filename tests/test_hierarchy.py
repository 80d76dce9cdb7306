"""Cone index tests: entry-time kernel oracles, tree/scan agreement."""

import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tentmesh import hierarchy
from tentmesh.constraints import ConstraintConfig
from tentmesh.errors import InvalidArgument, NotFound
from tentmesh.fields import (
    ConstantField,
    SpatialConeField,
    TableField,
    TimeStepField,
    load_field,
    sampled_min_simplices,
)
from tentmesh.front import Front, initial_front
from tentmesh.hierarchy import (
    ConeHierarchy,
    ExhaustiveCones,
    build,
    entry_times,
    leaf_entry_time,
    min_slope_intersecting,
    ray_shoot,
    update_leaf,
)
from tentmesh.mesh import build_mesh, grid_mesh, interval_mesh, load_mesh, strip_mesh

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _cones(mesh, times, slopes, use_hierarchy):
    front = Front(mesh, np.asarray(times, dtype=float))
    cls = ConeHierarchy if use_hierarchy else ExhaustiveCones
    return cls(mesh, front, np.asarray(slopes, dtype=float))


# -- entry-time kernel, frozen oracles ---------------------------------------


def test_entry_segment_flat():
    # Segment [1, 2] at time 0, slope 1, query x = 0: the cone wall from the
    # near endpoint arrives at 0 + 1 * |0 - 1| = 1.
    mesh = interval_mesh([0.0, 1.0, 2.0])
    T = entry_times(mesh, np.zeros(3), np.ones(2), np.array([0.0]),
                    np.array([1]))
    assert float(T[0]) == 1.0


def test_entry_segment_sloped_times():
    # Segment [1, 2] with times (0.5, 0.1), slope 2, query x = 0:
    # endpoint candidates 0.5 + 2*1 = 2.5 and 0.1 + 2*2 = 4.1; min = 2.5.
    mesh = interval_mesh([0.0, 1.0, 2.0])
    T = entry_times(mesh, np.array([0.0, 0.5, 0.1]), np.array([1.0, 2.0]),
                    np.array([0.0]), np.array([1]))
    assert float(T[0]) == 2.5


def test_entry_triangle_flat_edge():
    # Unit right triangle at time 0, slope 1, query (1, 1).  The closest
    # point of the triangle is (1/2, 1/2) on the hypotenuse, at distance
    # sqrt(1/2), so the cone arrives at sqrt(1/2).
    mesh = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )
    T = entry_times(mesh, np.zeros(3), np.ones(1), np.array([1.0, 1.0]),
                    np.array([0]))
    assert float(T[0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_entry_triangle_refraction_edge():
    # Bottom edge from (0,0) at t=0 to (2,0) at t=1, slope 1, query (1, 1).
    # Entry along the edge minimizes f(s) = s + sqrt((1-2s)^2 + 1) where the
    # wall leaves (2s, 0).  Stationarity gives 2z/sqrt(z^2+1) = 1 with
    # z = 1-2s, so z = 1/sqrt(3) and f = 1/2 + sqrt(3)/2.  The far apex at
    # t = 100 keeps the other edges and vertices out of the minimum
    # (best vertex candidate is sqrt(2) > f).
    mesh = build_mesh(
        np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 5.0]]),
        np.array([[0, 1, 2]]),
    )
    T = entry_times(mesh, np.array([0.0, 1.0, 100.0]), np.ones(1),
                    np.array([1.0, 1.0]), np.array([0]))
    assert float(T[0]) == pytest.approx(0.5 + math.sqrt(3.0) / 2.0, abs=1e-14)


def test_entry_triangle_steep_edge_endpoint():
    # When an edge's time difference outruns sigma * length the edge minimum
    # collapses to its slow endpoint.  Edge (0,0) t=0 to (1,0) t=9 with
    # sigma 1: entry from x=(0.5, 1) through that edge is at the s=0 end,
    # t=0 + dist((0.5,1),(0,0)) = sqrt(1.25).
    mesh = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 40.0]]),
        np.array([[0, 1, 2]]),
    )
    T = entry_times(mesh, np.array([0.0, 9.0, 90.0]), np.ones(1),
                    np.array([0.5, 1.0]), np.array([0]))
    assert float(T[0]) == pytest.approx(math.sqrt(1.25), abs=1e-14)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_entry_segment_matches_dense_scan(data):
    # For a causal segment the kernel is the exact minimum of
    # t(y) + sigma |x - y| over the segment; a dense sample scan can beat it
    # by at most the Lipschitz bound 2 * sigma * step.
    a = data.draw(st.floats(-5, 5))
    L = data.draw(st.floats(0.1, 5))
    sigma = data.draw(st.floats(0.2, 3))
    ta = data.draw(st.floats(0, 4))
    dt = data.draw(st.floats(-1, 1)) * sigma * L
    x = data.draw(st.floats(-8, 8))
    if a <= x <= a + L:
        x = a + L + 0.5  # query off the facet, as in real queries
    mesh = interval_mesh([a, a + L])
    times = np.array([ta, ta + dt])
    val = float(entry_times(mesh, times, np.array([sigma]),
                            np.array([x]), np.array([0]))[0])
    ys = np.linspace(a, a + L, 2001)
    ty = ta + (ys - a) / L * dt
    dense = float((ty + sigma * np.abs(x - ys)).min())
    step = L / 2000.0
    assert val <= dense + 1e-12
    assert dense - val <= 2 * sigma * step + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_entry_triangle_matches_dense_scan(data):
    # Same Lipschitz argument on a triangle with causal vertex times.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-2, 2, size=(3, 2))
    e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
    area2 = abs(e1[0] * e2[1] - e1[1] * e2[0])
    if area2 < 0.3:
        return
    sigma = float(rng.uniform(0.3, 2.0))
    # Causal times: a plane with gradient norm below sigma.
    g = rng.uniform(-0.6, 0.6, size=2) * sigma
    times = pts @ g + 1.0
    times = times - times.min() + 0.1
    x = rng.uniform(2.5, 4.0, size=2) * rng.choice([-1.0, 1.0], size=2)
    mesh = build_mesh(pts, np.array([[0, 1, 2]]))
    val = float(entry_times(mesh, times, np.array([sigma]), x,
                            np.array([0]))[0])
    k = 60
    bary = [(i / k, j / k, (k - i - j) / k)
            for i in range(k + 1) for j in range(k + 1 - i)]
    bary = np.array(bary)
    ys = bary @ pts
    ty = bary @ times
    dense = float((ty + sigma * np.hypot(*(x - ys).T)).min())
    diam = max(np.hypot(*(pts[i] - pts[j])) for i in range(3) for j in range(3))
    assert val <= dense + 1e-12
    assert dense - val <= 2 * (sigma + np.hypot(*g)) * diam / k + 1e-9


def _entry_times_per_edge(mesh, times, slopes, x, fids):
    # Reference: the kernel with one pass per triangle edge and np.clip.
    rows = mesh.simplices[fids]
    pts = mesh.vertices[rows]
    T = times[rows]
    sig = slopes[fids]
    diff = pts - x[None, None, :]
    best = (T + sig[:, None] * np.sqrt((diff * diff).sum(axis=2))).min(axis=1)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        A, B = pts[:, i, :], pts[:, j, :]
        tA, tB = T[:, i], T[:, j]
        e = B - A
        L2 = (e * e).sum(axis=1)
        w = x[None, :] - A
        u = (w * e).sum(axis=1) / L2
        dperp2 = np.maximum(0.0, (w * w).sum(axis=1) - u * u * L2)
        dt = tB - tA
        disc = sig * sig * L2 - dt * dt
        safe = np.where(disc > 0.0, disc, 1.0)
        v = np.where(disc > 0.0, dt * np.sqrt(dperp2) / np.sqrt(L2 * safe),
                     np.where(dt > 0.0, np.inf, -np.inf))
        s = np.clip(u - v, 0.0, 1.0)
        y = A + s[:, None] * e
        dy = x[None, :] - y
        val = tA + s * dt + sig * np.sqrt((dy * dy).sum(axis=1))
        best = np.minimum(best, val)
    return best


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_entry_triangle_stacked_edges_match_per_edge_reference(data):
    # The (F, 3) edge pass must reproduce the per-edge loop bit for bit on
    # obtuse triangles, at a vertex, on an edge and on steep edges whose
    # time difference reaches sigma * length (disc <= 0).
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    F = data.draw(st.integers(1, 6))
    pts = rng.uniform(-2.0, 2.0, size=(F, 3, 2))
    if data.draw(st.booleans()):   # flatten the apex: obtuse triangles
        pts[:, 2] = 0.5 * (pts[:, 0] + pts[:, 1]) + rng.uniform(0.01, 0.1) * \
            (pts[:, 1] - pts[:, 0])[:, ::-1] * np.array([1.0, -1.0])
    if data.draw(st.booleans()):   # a unit edge with |dt| = sigma * |e|
        pts[0] = [[0.0, 0.0], [1.0, 0.0], [0.25, 2.0]]
    e1, e2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
    if np.any(np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) < 1e-6):
        return
    sigma = rng.uniform(0.2, 2.0, size=F)
    times = rng.uniform(0.0, data.draw(st.sampled_from([0.1, 1.0, 10.0])),
                        size=(F, 3))
    if np.array_equal(pts[0, :2], [[0.0, 0.0], [1.0, 0.0]]):
        sigma[0], times[0, :2] = 1.0, [0.5, 1.5]
    mesh = build_mesh(pts.reshape(-1, 2), np.arange(3 * F).reshape(F, 3))
    f, c = data.draw(st.integers(0, F - 1)), data.draw(st.integers(0, 2))
    where = data.draw(st.sampled_from(["free", "vertex", "edge"]))
    if where == "vertex":
        x = pts[f, c].copy()
    elif where == "edge":
        a = float(rng.uniform(0.0, 1.0))
        x = pts[f, c] + a * (pts[f, (c + 1) % 3] - pts[f, c])
    else:
        x = rng.uniform(-4.0, 4.0, size=2)
    t = times.ravel()
    fids = np.arange(F)
    want = _entry_times_per_edge(mesh, t, sigma, x, fids)
    assert entry_times(mesh, t, sigma, x, fids).tobytes() == want.tobytes()
    for fid in range(F):   # one facet at a time, as the tree's leaves ask
        got = entry_times(mesh, t, sigma, x, np.array([fid]))
        assert got.tobytes() == want[fid:fid + 1].tobytes()
        # The tree's scalar twin, on Python floats.
        leaf = leaf_entry_time(mesh, t, sigma, x.tolist(), fid)
        assert leaf.hex() == float(got[0]).hex()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_entry_segment_scalar_twin_matches_kernel_bitwise(data):
    # The scalar leaf kernel repeats entry_times' operations on segments: at
    # a vertex, inside a segment and off the mesh, with any vertex times.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(2, 8))
    xs = np.cumsum(rng.uniform(0.01, 3.0, size=n)) - 4.0
    mesh = interval_mesh(xs)
    times = rng.uniform(0.0, data.draw(st.sampled_from([0.1, 1.0, 10.0])),
                        size=n)
    slopes = rng.uniform(0.2, 2.0, size=n - 1)
    where = data.draw(st.sampled_from(["free", "vertex", "segment"]))
    i = data.draw(st.integers(0, n - 2))
    if where == "vertex":
        x = np.array([xs[i]])
    elif where == "segment":
        x = np.array([xs[i] + float(rng.uniform(0.0, 1.0)) * (xs[i + 1] - xs[i])])
    else:
        x = rng.uniform(-8.0, 8.0, size=1)
    want = entry_times(mesh, times, slopes, x, np.arange(n - 1))
    for fid in range(n - 1):
        got = leaf_entry_time(mesh, times, slopes, x.tolist(), fid)
        assert got.hex() == float(want[fid]).hex()


# -- ray shooting and slope queries, frozen fixture --------------------------


def _fixture_1d():
    # Vertices 0..3, flat front, slope 1 except the far segment [2, 3] at 0.2.
    mesh = interval_mesh([0.0, 1.0, 2.0, 3.0])
    slopes = np.array([1.0, 1.0, 0.2])
    return mesh, np.zeros(4), slopes


@pytest.mark.parametrize("use_hierarchy", [False, True])
def test_ray_shoot_fixture(use_hierarchy):
    # From vertex 0 the remote facets are [1,2] (entry 0 + 1*1 = 1.0) and
    # [2,3] (entry 0 + 0.2*2 = 0.4): the shallow far cone wins.
    mesh, times, slopes = _fixture_1d()
    cones = _cones(mesh, times, slopes, use_hierarchy)
    T, fid = ray_shoot(cones, 0)
    assert T == 0.4
    assert fid == 2


@pytest.mark.parametrize("use_hierarchy", [False, True])
def test_min_slope_fixture(use_hierarchy):
    mesh, times, slopes = _fixture_1d()
    cones = _cones(mesh, times, slopes, use_hierarchy)
    assert min_slope_intersecting(cones, 0, 0.3) == math.inf
    assert min_slope_intersecting(cones, 0, 0.4) == 0.2  # boundary counts
    assert min_slope_intersecting(cones, 0, 0.5) == 0.2
    assert min_slope_intersecting(cones, 0, 1.5) == 0.2
    # From the middle vertex 1 both neighbors are in the star; only [2,3]
    # is remote, entering at 0.2 * 1 = 0.2.
    assert min_slope_intersecting(cones, 1, 0.1) == math.inf
    assert min_slope_intersecting(cones, 1, 0.2) == 0.2


@pytest.mark.parametrize("use_hierarchy", [False, True])
def test_star_only_mesh_has_no_remote_cones(use_hierarchy):
    mesh = interval_mesh([0.0, 1.0])
    cones = _cones(mesh, [0.0, 0.0], [1.0], use_hierarchy)
    assert ray_shoot(cones, 0) == (math.inf, None)
    assert min_slope_intersecting(cones, 0, 100.0) == math.inf


@pytest.mark.parametrize("use_hierarchy", [False, True])
def test_ray_shoot_tie_prefers_smaller_fid(use_hierarchy):
    # Symmetric mesh around vertex 2: remote facets [0,1] and [3,4] both
    # enter at time 1 from x=2; the smaller facet id wins.
    mesh = interval_mesh([0.0, 1.0, 2.0, 3.0, 4.0])
    cones = _cones(mesh, np.zeros(5), np.ones(4), use_hierarchy)
    T, fid = ray_shoot(cones, 2)
    assert T == 1.0
    assert fid == 0


def test_update_leaf_validates():
    mesh, times, slopes = _fixture_1d()
    cones = _cones(mesh, times, slopes, True)
    with pytest.raises(NotFound):
        update_leaf(cones, 99, 1.0)
    with pytest.raises(InvalidArgument):
        update_leaf(cones, 0, 0.0)


@pytest.mark.parametrize("use_hierarchy", [False, True])
@pytest.mark.parametrize("slope", [math.nan, math.inf, -math.inf, -1.0])
def test_update_leaf_rejects_nonfinite_or_nonpositive(use_hierarchy, slope):
    # A NaN slope used to enter the store, after which tree and scan
    # answered differently; the store is left untouched on rejection.
    rng = np.random.default_rng(0)
    mesh = interval_mesh(np.arange(9.0))
    cones = _cones(mesh, rng.uniform(0.0, 1.0, 9), np.ones(8), use_hierarchy)
    with pytest.raises(InvalidArgument):
        update_leaf(cones, 5, slope)
    assert cones.slopes.tolist() == [1.0] * 8


@pytest.mark.parametrize("cls", [ExhaustiveCones, ConeHierarchy])
def test_index_owns_a_copy_of_its_slopes(cls):
    mesh = interval_mesh(np.arange(6.0))
    slopes = np.ones(5)
    cones = cls(mesh, initial_front(mesh), slopes)
    update_leaf(cones, 2, 0.5)
    assert slopes.tolist() == [1.0] * 5
    assert cones.slopes.tolist() == [1.0, 1.0, 0.5, 1.0, 1.0]


@pytest.mark.parametrize("cls", [ExhaustiveCones, ConeHierarchy])
@pytest.mark.parametrize("slopes", [
    [1.0, math.nan, 1.0, 1.0, 1.0],
    [1.0, 1.0, math.inf, 1.0, 1.0],
    [1.0, 1.0, 1.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 1.0, -2.0],
    [1.0, 1.0],
    [[1.0] * 5],
])
def test_index_rejects_bad_initial_slopes(cls, slopes):
    # A NaN used to be stored, after which the tree's ray_shoot(0) answered
    # (inf, None) and the scan (nan, 1); a short array failed only later
    # with IndexError.
    mesh = interval_mesh(np.arange(6.0))
    with pytest.raises(InvalidArgument):
        cls(mesh, initial_front(mesh), np.array(slopes))


@pytest.mark.parametrize("use_hierarchy", [False, True])
def test_queries_reject_bad_vertices_and_nan_top(use_hierarchy):
    mesh, times, slopes = _fixture_1d()
    cones = _cones(mesh, times, slopes, use_hierarchy)
    for p in (-1, mesh.n_vertices, 99):
        with pytest.raises(NotFound):
            ray_shoot(cones, p)
        with pytest.raises(NotFound):
            min_slope_intersecting(cones, p, 1.0)
    # A vertex id must be an integer, and a bool is not one.
    for p in (1.5, 1.0, True, np.float64(0.0), "0", None):
        with pytest.raises(InvalidArgument, match="vertex id"):
            ray_shoot(cones, p)
        with pytest.raises(InvalidArgument, match="vertex id"):
            min_slope_intersecting(cones, p, 1.0)
    with pytest.raises(InvalidArgument):
        min_slope_intersecting(cones, 0, math.nan)
    with pytest.raises(InvalidArgument, match="ceiling"):
        min_slope_intersecting(cones, 0, 1.0, math.nan)
    assert cones.stats.entry_queries == cones.stats.slope_queries == 0
    # Infinite tops are fine: every remote cone is entered eventually.
    assert min_slope_intersecting(cones, 0, math.inf) == 0.2


@pytest.mark.parametrize("use_hierarchy", [False, True])
def test_update_leaf_changes_answers(use_hierarchy):
    mesh, times, slopes = _fixture_1d()
    cones = _cones(mesh, times, slopes, use_hierarchy)
    assert ray_shoot(cones, 0) == (0.4, 2)
    update_leaf(cones, 2, 1.0)  # steepen the far cone
    assert ray_shoot(cones, 0) == (1.0, 1)  # tie at 1.0 -> smaller fid


def test_build_constant_field_slopes():
    mesh = interval_mesh([0.0, 1.0, 2.0])
    front = initial_front(mesh)
    cones = build(mesh, front, ConstantField(0.7))
    assert isinstance(cones, ConeHierarchy)
    assert list(cones.slopes) == [0.7, 0.7]
    scan = build(mesh, front, ConstantField(0.7), use_hierarchy=False)
    assert isinstance(scan, ExhaustiveCones)
    assert list(scan.slopes) == [0.7, 0.7]


def test_build_shares_sampling_with_field_minima():
    # Both index flavors must start from identical slope stores.
    mesh = grid_mesh(2, 2)
    front = initial_front(mesh)
    field = TimeStepField([0.5], [2.0, 1.0])
    field.attach_domain(mesh.vertices.min(axis=0), mesh.vertices.max(axis=0))
    cfg = ConstraintConfig.for_problem(mesh, field)
    a = build(mesh, front, field, cfg)
    b = build(mesh, front, field, cfg, use_hierarchy=False)
    assert a.slopes.tolist() == b.slopes.tolist()


def _cone_interval(m):
    xs = np.cumsum(np.r_[0.0, np.linspace(1.0, 3.0, m)]) / (2.0 * m)
    return interval_mesh(xs), SpatialConeField([0.4], 0.0, 0.5, 1.0, 0.5)


def _table_grid(m):
    # 2 * nx * ny triangles.
    nx, ny = {28: (2, 7), 30: (3, 5), 36: (3, 6)}[m]
    mesh = grid_mesh(nx, ny, skew=0.1)
    return mesh, TableField(1.0 + 0.125 * (np.arange(m) % 5))


@pytest.mark.parametrize("make, m", [
    (_cone_interval, 21), (_cone_interval, 22), (_cone_interval, 23),
    (_table_grid, 28), (_table_grid, 36), (_table_grid, 30),
])
def test_blocked_initial_slopes_match_one_call(monkeypatch, make, m):
    # With blocks of 7 the facet counts leave a tail of 0, 1 and 2 rows;
    # a one-row block samples with the bits of the one call too.
    mesh, field = make(m)
    assert mesh.n_simplices == m
    rng = np.random.default_rng(m)
    front = Front(mesh, rng.uniform(0.0, 0.5, mesh.n_vertices))
    want = sampled_min_simplices(field, mesh.vertices[mesh.simplices],
                                 front.times[mesh.simplices],
                                 elements=np.arange(m))
    calls = []

    def counted(field, positions, times, elements):
        calls.append(len(times))
        return sampled_min_simplices(field, positions, times, elements=elements)

    monkeypatch.setattr(hierarchy, "SLOPE_BLOCK", 7)
    monkeypatch.setattr(hierarchy, "sampled_min_simplices", counted)
    for use_hierarchy in (True, False):
        cones = build(mesh, front, field, use_hierarchy=use_hierarchy)
        assert cones.slopes.tobytes() == want.tobytes()
    assert sum(calls) == 2 * m and max(calls) <= 7


# -- hierarchy vs scan agreement ---------------------------------------------


def _random_instance(rng, dim):
    if dim == 1:
        n = int(rng.integers(3, 18))
        xs = np.sort(rng.uniform(-5, 5, size=n))
        xs = xs[np.concatenate([[True], np.diff(xs) > 1e-3])]
        if len(xs) < 3:
            xs = np.array([0.0, 1.0, 2.0])
        mesh = interval_mesh(xs)
    else:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            mesh = grid_mesh(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        elif kind == 1:
            mesh = strip_mesh(int(rng.integers(2, 7)))
        else:
            mesh = grid_mesh(3, 2, lx=2.0, ly=1.0, skew=0.2)
    times = rng.uniform(0.0, 2.0, size=mesh.n_vertices)
    slopes = rng.uniform(0.1, 2.0, size=mesh.n_simplices)
    return mesh, times, slopes


@pytest.mark.parametrize("dim", [1, 2])
def test_hierarchy_matches_scan_exactly(dim):
    rng = np.random.default_rng(97 + dim)
    for _ in range(40):
        mesh, times, slopes = _random_instance(rng, dim)
        tree = _cones(mesh, times, slopes, True)
        scan = _cones(mesh, times, slopes, False)
        for p in range(mesh.n_vertices):
            T_t, fid_t = ray_shoot(tree, p)
            T_s, fid_s = ray_shoot(scan, p)
            assert T_t == T_s  # bitwise: same kernel, order-free min
            assert fid_t == fid_s
            tops = [T_s - 0.05, T_s, T_s + 0.05, float(rng.uniform(0, 3))]
            for t_top in tops:
                if not math.isfinite(t_top):
                    continue
                assert min_slope_intersecting(tree, p, t_top) == \
                    min_slope_intersecting(scan, p, t_top)


@pytest.mark.parametrize("dim", [1, 2])
def test_hierarchy_matches_scan_after_updates(dim):
    rng = np.random.default_rng(211 + dim)
    for _ in range(20):
        mesh, times, slopes = _random_instance(rng, dim)
        tree = _cones(mesh, times, slopes, True)
        scan = _cones(mesh, times, slopes, False)
        for _ in range(8):
            fid = int(rng.integers(0, mesh.n_simplices))
            s = float(rng.uniform(0.05, 3.0))
            update_leaf(tree, fid, s)
            update_leaf(scan, fid, s)
        for p in range(mesh.n_vertices):
            assert ray_shoot(tree, p) == ray_shoot(scan, p)
            t_top = float(rng.uniform(0, 3))
            assert min_slope_intersecting(tree, p, t_top) == \
                min_slope_intersecting(scan, p, t_top)


@pytest.mark.parametrize("dim", [1, 2])
def test_ceiling_caps_the_answer_and_only_prunes(dim):
    # min_slope_intersecting(p, c, ceiling) is min(ceiling, the answer
    # without one), on the tree and the scan alike; the tree only skips
    # subtrees whose slopes reach the ceiling, so it visits no more nodes.
    rng = np.random.default_rng(331 + dim)
    for _ in range(30):
        mesh, times, slopes = _random_instance(rng, dim)
        tree = _cones(mesh, times, slopes, True)
        scan = _cones(mesh, times, slopes, False)
        for p in range(mesh.n_vertices):
            t_top = float(rng.uniform(0, 3))
            want = min_slope_intersecting(scan, p, t_top)
            ceilings = [math.inf, float(rng.uniform(0.05, 2.5)),
                        float(slopes.min()), want]
            for ceiling in ceilings:
                for cones in (tree, scan):
                    got = min_slope_intersecting(cones, p, t_top, ceiling)
                    assert got == min(ceiling, want)
            before = tree.stats.nodes_visited
            min_slope_intersecting(tree, p, t_top)
            free = tree.stats.nodes_visited - before
            for ceiling in ceilings[1:]:
                before = tree.stats.nodes_visited
                min_slope_intersecting(tree, p, t_top, ceiling)
                assert tree.stats.nodes_visited - before <= free


def _node_ranges(m):
    """(node, lo, hi) of every node of the implicit preorder layout."""
    out = []

    def walk(node, lo, hi):
        out.append((node, lo, hi))
        if hi - lo > 1:
            mid = (lo + hi) // 2
            walk(node + 1, lo, mid)
            walk(node + 2 * (mid - lo), mid, hi)

    walk(0, 0, m)
    return out


def test_update_leaf_matches_rebuild():
    # Incremental bound repair (slope updates and front lifts) must leave the
    # same node bounds as a rebuild, and every node's bounds must be the
    # min / max over its facet range.
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        mesh, times, slopes = _random_instance(rng, dim)
        tree = _cones(mesh, times, slopes, True)
        new_t, new_s = times.copy(), slopes.copy()
        for step in range(12):
            if step % 3 == 2:
                p = int(rng.integers(0, mesh.n_vertices))
                new_t[p] += float(rng.uniform(0.0, 0.5))
                tree.set_front(Front(mesh, new_t.copy()))
                for fid in mesh.stars[p]:
                    update_leaf(tree, int(fid), float(new_s[fid]))
            else:
                fid = int(rng.integers(0, mesh.n_simplices))
                new_s[fid] = float(rng.uniform(0.05, 3.0))
                update_leaf(tree, fid, new_s[fid])
        fresh = _cones(mesh, new_t, new_s, True)
        assert tree.node_tmin == fresh.node_tmin
        assert tree.node_smin == fresh.node_smin
        assert tree.node_lo == fresh.node_lo
        assert tree.node_hi == fresh.node_hi

        ranges = _node_ranges(mesh.n_simplices)
        assert sorted(n for n, _, _ in ranges) == list(range(len(tree.node_tmin)))
        for node, lo, hi in ranges:
            fids = np.array(tree.order[lo:hi])
            rows = mesh.simplices[fids]
            pts = mesh.vertices[rows].reshape(-1, mesh.dim)
            assert tree.node_tmin[node] == float(new_t[rows].min())
            assert tree.node_smin[node] == float(new_s[fids].min())
            assert [c[node] for c in tree.node_lo] == pts.min(axis=0).tolist()
            assert [c[node] for c in tree.node_hi] == pts.max(axis=0).tolist()
            if hi - lo == 1:
                assert int(tree.rank[fids[0]]) == lo


@pytest.mark.parametrize("dim", [1, 2])
def test_built_bounds_are_range_min_max(dim):
    # The build fills the leaves, then each parent from its two children,
    # deepest level first; every node's bounds must equal a direct min / max
    # over its facet range, on meshes whose levels hold leaves and inner
    # nodes side by side.
    rng = np.random.default_rng(23)
    for _ in range(12):
        if dim == 1:
            xs = np.cumsum(rng.uniform(0.1, 1.0, size=int(rng.integers(2, 80))))
            mesh = interval_mesh(np.concatenate([[0.0], xs]))
        else:
            mesh = grid_mesh(int(rng.integers(1, 8)), int(rng.integers(1, 8)),
                             skew=0.2)
        times = rng.uniform(-1.0, 2.0, size=mesh.n_vertices).round(1)
        slopes = rng.uniform(0.1, 2.0, size=mesh.n_simplices).round(1)
        tree = _cones(mesh, times, slopes, True)
        ranges = _node_ranges(mesh.n_simplices)
        assert len(tree.node_tmin) == len(ranges) == 2 * mesh.n_simplices - 1
        for node, lo, hi in ranges:
            fids = np.array(tree.order[lo:hi])
            pts = mesh.vertices[mesh.simplices[fids]].reshape(-1, dim)
            assert tree.node_tmin[node] == times[mesh.simplices[fids]].min()
            assert tree.node_smin[node] == slopes[fids].min()
            assert [c[node] for c in tree.node_lo] == pts.min(axis=0).tolist()
            assert [c[node] for c in tree.node_hi] == pts.max(axis=0).tolist()


# sha256 of order, rank and every node array (node_tmin, node_smin, then
# node_lo and node_hi per coordinate) of the tree built over each benchmark
# workload's mesh and field at seed 7 and its initial front.
WORKLOAD_TREES = {
    "line1d-100k": "8282cad7dda39f99f40d80e625684a19c7ce714f825d4c48798d04bc6db17da5",
    "grid2d-cone": "c99c2e47776fedf585a06a260387797c3c8df7db982d831c847c1eba8ed7f854",
    "strip2d-checked": "50635ad240e69c4d727d83807c8f7f2cf1871abb548188fff3b3f19e66f84890",
}


def test_workload_trees_keep_their_bytes(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
        for workload, digest in WORKLOAD_TREES.items():
            case = gen.make_case(workload, 7, str(tmp_path / workload))
            mesh = load_mesh(case.files["mesh"])
            field = load_field(case.files["field"], mesh.n_simplices)
            tree = build(mesh, initial_front(mesh), field)
            h = hashlib.sha256()
            for a in (tree.order, tree.rank, tree.node_tmin, tree.node_smin,
                      *tree.node_lo, *tree.node_hi):
                h.update(memoryview(a).cast("B"))
            assert h.hexdigest() == digest, workload
    finally:
        del sys.modules[spec.name]


def _star_updates(rng, mesh, times, slopes, steps):
    """Random star refreshes: (times, star facets, new slopes, all slopes)."""
    times, slopes = times.copy(), slopes.copy()
    for _ in range(steps):
        p = int(rng.integers(0, mesh.n_vertices))
        times[p] += float(rng.uniform(0.0, 0.5))
        sids = mesh.stars[p]
        new = rng.uniform(0.05, 3.0, size=len(sids))
        slopes[sids] = new
        yield times.copy(), sids, new, slopes


@pytest.mark.parametrize("dim", [1, 2])
def test_update_star_matches_update_leaf_and_rebuild(dim):
    # One batched root-path repair per star leaves the same node bounds as
    # the same slopes stored one update_leaf at a time, and as a rebuild.
    rng = np.random.default_rng(41 + dim)
    for _ in range(12):
        mesh, times, slopes = _random_instance(rng, dim)
        star = _cones(mesh, times, slopes, True)
        leafwise = _cones(mesh, times, slopes, True)
        for t, sids, new, now in _star_updates(rng, mesh, times, slopes, 10):
            star.set_front(Front(mesh, t))
            star.update_star(sids, new)
            leafwise.set_front(Front(mesh, t))
            for fid, s in zip(sids, new):
                update_leaf(leafwise, int(fid), float(s))
            assert star.node_tmin == leafwise.node_tmin
            assert star.node_smin == leafwise.node_smin
            assert star.slopes.tolist() == leafwise.slopes.tolist()
        fresh = _cones(mesh, t, now, True)
        assert star.node_tmin == fresh.node_tmin
        assert star.node_smin == fresh.node_smin
        assert star.slopes.tolist() == fresh.slopes.tolist()


@pytest.mark.parametrize("use_hierarchy", [False, True])
@pytest.mark.parametrize("bad_fid, bad_slope, error", [
    (None, math.nan, InvalidArgument),
    (None, 0.0, InvalidArgument),
    (None, math.inf, InvalidArgument),
    (99, 1.0, NotFound),
    (-1, 1.0, NotFound),
    # Facet ids must be integers: a float id array, even an integral one,
    # or a bool one is refused rather than cast.
    (1.5, 1.0, InvalidArgument),
    (2.0, 1.0, InvalidArgument),
    (True, 1.0, InvalidArgument),
])
def test_update_star_is_atomic(use_hierarchy, bad_fid, bad_slope, error):
    # A bad pair in the middle of a star leaves the store and the node
    # bounds as they were, even after the front moved.  An empty star is
    # no error and writes nothing.
    rng = np.random.default_rng(5)
    mesh = grid_mesh(3, 3, skew=0.1)
    times = rng.uniform(0.0, 1.0, mesh.n_vertices)
    cones = _cones(mesh, times, np.ones(mesh.n_simplices), use_hierarchy)
    before = cones.slopes.copy()
    bounds = (list(getattr(cones, "node_tmin", [])),
              list(getattr(cones, "node_smin", [])))
    sids = mesh.stars[4].copy()
    slopes = np.full(len(sids), 0.5)
    if bad_fid is not None:
        if isinstance(bad_fid, (bool, float)):
            sids = sids.astype(type(bad_fid))
        sids[len(sids) // 2] = bad_fid
    slopes[len(sids) // 2] = bad_slope
    lifted = times.copy()
    lifted[4] += 0.5
    cones.set_front(Front(mesh, lifted))
    with pytest.raises(error):
        cones.update_star(sids, slopes)
    if isinstance(bad_fid, (bool, float)):
        with pytest.raises(InvalidArgument, match="facet ids"):
            cones.update_star([bad_fid], [2.0])
        with pytest.raises(InvalidArgument, match="facet ids"):
            cones.update_leaf(bad_fid, 3.0)
    cones.update_star([], [])
    cones.update_star(np.array([], dtype=np.int64), [])
    assert cones.slopes.tobytes() == before.tobytes()
    assert (list(getattr(cones, "node_tmin", [])),
            list(getattr(cones, "node_smin", []))) == bounds


def test_tree_counters_pinned():
    # The tree walk (split, visit order, pruning tests) is fixed: a fixed
    # query sequence visits exactly these numbers of nodes and leaves.
    def run(mesh, seed):
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.0, 1.0, mesh.n_vertices)
        slopes = rng.uniform(0.2, 2.0, mesh.n_simplices)
        tree = _cones(mesh, times, slopes, True)
        for p in range(0, mesh.n_vertices, 3):
            T, _ = ray_shoot(tree, p)
            min_slope_intersecting(tree, p, T + 0.25)
            if p % 2:
                update_leaf(tree, int(rng.integers(0, mesh.n_simplices)),
                            float(rng.uniform(0.2, 2.0)))
        return tree.stats.as_dict()

    xs = np.cumsum(np.random.default_rng(5).uniform(0.5, 1.5, 301))
    assert run(interval_mesh(xs), 11) == {
        "cone_entry_queries": 101, "cone_slope_queries": 101,
        "cone_nodes_visited": 4371, "cone_leaves_evaluated": 349}
    assert run(grid_mesh(9, 7, skew=0.1), 12) == {
        "cone_entry_queries": 27, "cone_slope_queries": 27,
        "cone_nodes_visited": 3661, "cone_leaves_evaluated": 361}


def test_tree_prunes_versus_scan():
    # On a long flat interval the nearest cone bounds the search and distant
    # subtrees prune: the tree touches far fewer nodes than the scan.
    xs = np.arange(201.0)
    mesh = interval_mesh(xs)
    tree = _cones(mesh, np.zeros(201), np.ones(200), True)
    scan = _cones(mesh, np.zeros(201), np.ones(200), False)
    assert ray_shoot(tree, 0) == ray_shoot(scan, 0)
    assert tree.stats.nodes_visited < scan.stats.nodes_visited
    assert tree.stats.leaves_evaluated < scan.stats.leaves_evaluated
    assert scan.stats.entry_queries == tree.stats.entry_queries == 1
    d = tree.stats.as_dict()
    assert d["cone_entry_queries"] == 1


def _shuffled_interval(rng, n):
    """An interval of n jittered segments with shuffled vertex and segment ids."""
    xs = np.cumsum(rng.uniform(0.5, 1.5, n + 1))
    at = rng.permutation(n + 1)          # vertex id v sits at xs[at[v]]
    vid = np.argsort(at)                 # position -> vertex id
    segs = np.column_stack([vid[:-1], vid[1:]])[rng.permutation(n)]
    return build_mesh(xs[at][:, None], segs)


@pytest.mark.parametrize("far", ["valley", "slope"])
def test_walk_reaches_a_far_earliest_cone(far):
    # The 1D walk stops climbing once the root's smallest time and slope at
    # x's distance to the climbed subtree's nearer end exceed the best entry
    # so far.  The earliest cone may still lie many subtrees away: a deep
    # low-time valley, or one segment with a tiny slope.
    rng = np.random.default_rng(23)
    mesh = _shuffled_interval(rng, 1200)
    x = mesh.vertices[:, 0]
    c = float(np.median(x))
    if far == "valley":
        times = np.where(np.abs(x - c) < 2.0, 0.0, 200.0 + rng.uniform(0, 1, len(x)))
        slopes = rng.uniform(0.8, 1.2, mesh.n_simplices)
    else:
        times = rng.uniform(0.0, 0.5, len(x))
        slopes = np.ones(mesh.n_simplices)
        slopes[np.argmin(np.abs(mesh.centroids[:, 0] - c))] = 1e-3
    tree = _cones(mesh, times, slopes, True)
    scan = _cones(mesh, times, slopes, False)
    far_answers = 0
    for p in range(0, mesh.n_vertices, 5):
        got = ray_shoot(tree, p)
        assert got == ray_shoot(scan, p)
        far_answers += abs(mesh.centroids[got[1], 0] - x[p]) > 64.0
    assert far_answers >= 50


def test_flat_front_walk_does_not_grow_with_n():
    # A flat front of unit segments at 2**11 (about 10**3) and 2**17 (about
    # 10**5) segments: the first 1 024 segments form a subtree of one shape
    # in both trees, and every walk from them stops inside it, so each query
    # visits exactly as many nodes at either size.
    def visits(n):
        mesh = interval_mesh(np.arange(n + 1.0))
        tree = _cones(mesh, np.zeros(n + 1), np.ones(n), True)
        counts = []
        for p in range(1001):
            before = tree.stats.nodes_visited
            # Both remote neighbours enter at 1.0; the tie goes to p - 2.
            assert ray_shoot(tree, p) == (1.0, p - 2 if p >= 2 else p + 1)
            counts.append(tree.stats.nodes_visited - before)
        return counts

    small, large = visits(2**11), visits(2**17)
    assert small == large
    assert sum(small) / len(small) < 13


@pytest.mark.parametrize("dim", [1, 2])
def test_interleaved_queries_and_star_updates_match_scan(dim):
    # Walks and repairs resume from the last root path they walked; answers
    # and node bounds must not depend on where that was.
    rng = np.random.default_rng(61 + dim)
    if dim == 1:
        mesh = _shuffled_interval(rng, 300)
    else:
        mesh = grid_mesh(8, 7, skew=0.1)
    times = rng.uniform(0.0, 1.0, mesh.n_vertices)
    slopes = rng.uniform(0.2, 2.0, mesh.n_simplices)
    tree = _cones(mesh, times, slopes, True)
    scan = _cones(mesh, times, slopes, False)
    for t, sids, new, now in _star_updates(rng, mesh, times, slopes, 60):
        for cones in (tree, scan):
            cones.set_front(Front(mesh, t))
            cones.update_star(sids, new)
        for p in rng.integers(0, mesh.n_vertices, 3).tolist():
            T, fid = ray_shoot(tree, p)
            assert (T, fid) == ray_shoot(scan, p)
            assert min_slope_intersecting(tree, p, T + 0.25) == \
                min_slope_intersecting(scan, p, T + 0.25)
    fresh = _cones(mesh, t, now, True)
    assert tree.node_tmin == fresh.node_tmin
    assert tree.node_smin == fresh.node_smin


def test_repeat_queries_deterministic():
    rng = np.random.default_rng(3)
    mesh, times, slopes = _random_instance(rng, 2)
    tree = _cones(mesh, times, slopes, True)
    first = [ray_shoot(tree, p) for p in range(mesh.n_vertices)]
    second = [ray_shoot(tree, p) for p in range(mesh.n_vertices)]
    assert first == second
