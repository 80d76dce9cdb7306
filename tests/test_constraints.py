"""Tests for the causality and progress constraint checks.

Frozen reference values, derived by hand:

* Flat unit right triangle p=(0,0), q=(1,0), r=(0,1), sigma=1: the causal
  slack at p is the altitude sqrt(2)/2 (no gradient along qr, so the whole
  cone radius is available).  Raising p to exactly sqrt(2)/2 lands on the
  cone boundary (slack 0, still satisfied); raising it to 1 violates.
* Same triangle with times (1, 0, 1): the plane is t = 1 - x with gradient
  norm exactly 1 = sigma, slack 0.
* Equilateral side-1 triangle, sigma=1, epsilon=1/2: the progress bound on
  the late edge is (1/2) * sin(60) * 1 = 0.4330127018922193.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import plane_fit_gradient, random_front

from tentmesh.constraints import (
    BINDING_CAUSALITY,
    BINDING_PROGRESS,
    INTERIOR_LIFTS,
    REL_TOL,
    ConstraintConfig,
    FacetVerdicts,
    Facets,
    causal_segment,
    causal_triangle,
    facet_verdicts,
    front_causality_report,
    is_progressive_front,
    is_progressive_triangle,
    progress_ok,
    progressive_verdicts,
    _lift_samples,
)
from tentmesh.errors import ValidationError
from tentmesh.fields import (
    CompositeMinField,
    ConstantField,
    SpatialConeField,
    TableField,
    TimeStepField,
    sampled_min_values,
)
from tentmesh.front import Front, advance, initial_front, local_minima
from tentmesh.geometry import DEGENERACY_RATIO, apex_geometry, frame
from tentmesh.mesh import build_mesh, grid_mesh, interval_mesh, strip_mesh
from tentmesh.pitcher import advance_until

RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
SQRT2_OVER_2 = math.sqrt(2.0) / 2.0
PROGRESS_EDGE_BOUND = 0.5 * math.sqrt(3.0) / 2.0  # equilateral, sigma=1, eps=1/2


def make_config(**kw):
    defaults = dict(epsilon=0.5, eta=1e-9, tmin_1d=1.0, tmin_2d=0.5)
    defaults.update(kw)
    return ConstraintConfig(**defaults)


class TestConfig:
    def test_for_problem_defaults(self):
        mesh = interval_mesh(np.arange(11.0))
        cfg = ConstraintConfig.for_problem(mesh, ConstantField(1.0))
        assert cfg.tmin_1d == 1.0
        assert cfg.tmin_2d == 0.5
        assert cfg.eta == 1e-9
        assert cfg.epsilon == 0.5
        assert cfg.tmin(1) == 1.0 and cfg.tmin(2) == 0.5

    def test_epsilon_range_enforced(self):
        for bad in (0.0, -0.1, 0.6, 1.0):
            with pytest.raises(ValidationError):
                make_config(epsilon=bad)

    def test_eta_positive(self):
        with pytest.raises(ValidationError):
            make_config(eta=0.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_eta_finite(self, eta):
        with pytest.raises(ValidationError, match="finite"):
            make_config(eta=eta)

    @pytest.mark.parametrize("name", ["tmin_1d", "tmin_2d"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_height_floor_positive_and_finite(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be positive"):
            make_config(**{name: value})

    def test_underflowing_floor_is_named(self):
        # sigma_min * wmin = 1e-200 * 1e-150 underflows to 0.
        mesh = interval_mesh([0.0, 1e-150, 2e-150])
        with pytest.raises(ValidationError, match="tmin_1d"):
            ConstraintConfig.for_problem(mesh, ConstantField(1e-200))
        # A subnormal floor is positive, but the default eta = 1e-9 * floor
        # underflows; the error names the floor, not an eta nobody gave.
        with pytest.raises(ValidationError, match="height floor tmin_1d"):
            ConstraintConfig.for_problem(interval_mesh([0.0, 1.0]),
                                         ConstantField(1e-320))


class TestCausalSegment:
    def test_slack_formula(self):
        v = causal_segment(0.0, 1.0, 2.0, 0.75)
        assert v.slack == pytest.approx(0.5)
        assert v.satisfied and v.binding == BINDING_CAUSALITY

    def test_boundary_is_satisfied(self):
        v = causal_segment(0.0, 1.0, 1.0, 1.0)
        assert v.slack == 0.0 and v.satisfied

    def test_violation(self):
        v = causal_segment(0.0, 1.5, 1.0, 1.0)
        assert v.slack == pytest.approx(-0.5) and not v.satisfied

    def test_symmetric_in_endpoint_times(self):
        assert causal_segment(3.0, 1.0, 1.0, 1.0).slack == causal_segment(
            1.0, 3.0, 1.0, 1.0
        ).slack


class TestCausalTriangle:
    def test_flat_slack_is_cone_radius(self):
        v = causal_triangle(RIGHT, np.zeros(3), 1.0)
        assert v.slack == pytest.approx(SQRT2_OVER_2, rel=1e-12)
        assert v.satisfied

    def test_apex_on_cone_boundary(self):
        v = causal_triangle(RIGHT, np.array([SQRT2_OVER_2, 0.0, 0.0]), 1.0)
        assert v.slack == pytest.approx(0.0, abs=1e-15)
        assert v.satisfied

    def test_apex_above_cone(self):
        v = causal_triangle(RIGHT, np.array([1.0, 0.0, 0.0]), 1.0)
        assert not v.satisfied
        assert v.slack == pytest.approx(SQRT2_OVER_2 - 1.0, rel=1e-12)

    def test_gradient_along_base_consumes_budget(self):
        # Plane t = 1 - x has gradient norm exactly sigma = 1.
        v = causal_triangle(RIGHT, np.array([1.0, 0.0, 1.0]), 1.0)
        assert v.slack == pytest.approx(0.0, abs=1e-12)
        assert v.satisfied

    def test_base_edge_steeper_than_slope(self):
        v = causal_triangle(RIGHT, np.array([0.0, 0.0, 2.0]), 1.0)
        assert not v.satisfied
        assert v.binding == BINDING_CAUSALITY
        assert v.slack == pytest.approx(math.sqrt(2.0) - 2.0, rel=1e-12)

    def test_perpendicular_and_offset_forms_agree(self):
        # When the foot of the altitude falls before q (so t(u) < t(q) for a
        # rising base), the slack can also be written against t(q) directly:
        # slack = alt * (sqrt(sigma^2 - g^2) - beta * g) - (t(p) - t(q))
        # with beta = |uq| / alt.  Both forms must agree to near machine
        # precision.
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(500):
            pts = rng.uniform(-2.0, 2.0, size=(3, 2))
            fr_ok = True
            try:
                fr = frame(pts[0], pts[1], pts[2])
            except Exception:
                fr_ok = False
            if not fr_ok or fr.u_along > -1e-3:
                continue  # need the foot strictly beyond q
            t_q, sigma = 0.0, rng.uniform(0.5, 2.0)
            g = rng.uniform(0.0, 0.9) * sigma
            t_r = t_q + g * fr.qr_len
            t_p = rng.uniform(0.0, 2.0)
            direct = causal_triangle(pts, np.array([t_p, t_q, t_r]), sigma)
            beta = abs(fr.u_along) / fr.altitude
            offset = fr.altitude * (
                math.sqrt(sigma * sigma - g * g) - beta * g
            ) - (t_p - t_q)
            assert direct.slack == pytest.approx(offset, abs=1e-9, rel=1e-9)
            checked += 1
        assert checked > 50


class TestProgress:
    def test_equilateral_edge_bound(self):
        times = np.array([0.0, 0.0, PROGRESS_EDGE_BOUND])
        v = progress_ok(EQUILATERAL, times, 1.0, 0.5)
        assert v.slack == pytest.approx(0.0, abs=1e-15)
        assert v.satisfied and v.binding == BINDING_PROGRESS

    def test_equilateral_violation(self):
        v = progress_ok(EQUILATERAL, np.array([0.0, 0.0, 0.44]), 1.0, 0.5)
        assert not v.satisfied
        assert v.slack == pytest.approx(PROGRESS_EDGE_BOUND - 0.44, rel=1e-9)

    def test_time_ties_broken_by_id(self):
        # All-equal times: lo/mid/hi ordering falls back to vertex ids, and
        # the flat triangle trivially satisfies progress.
        v = progress_ok(EQUILATERAL, np.zeros(3), 1.0, 0.5)
        assert v.satisfied and v.slack == pytest.approx(PROGRESS_EDGE_BOUND)


class TestProgressiveTriangle:
    def test_flat_equilateral_is_progressive_with_zero_margin(self):
        cfg = make_config(tmin_2d=PROGRESS_EDGE_BOUND)  # matches eps*sigma*wmin
        v = is_progressive_triangle(EQUILATERAL, np.zeros(3), ConstantField(1.0), cfg)
        assert v.satisfied
        # The floor lift lands exactly on the progress bound.
        assert v.slack == pytest.approx(0.0, abs=1e-12)

    def test_overlifted_triangle_is_not_progressive(self):
        cfg = make_config(tmin_2d=PROGRESS_EDGE_BOUND)
        v = is_progressive_triangle(
            EQUILATERAL, np.array([0.0, 0.0, 0.44]), ConstantField(1.0), cfg
        )
        assert not v.satisfied and v.binding == BINDING_PROGRESS

    def test_slope_drop_between_samples_binds_causality(self):
        # The field loses most of its slope at t = 0.3; a triangle already at
        # the old cone boundary stops being progressive.
        field = TimeStepField([0.3], [1.0, 0.2])
        cfg = make_config(tmin_2d=0.2)
        v = is_progressive_triangle(
            RIGHT, np.array([0.0, 0.3, 0.3]), field, cfg
        )
        assert not v.satisfied


class TestFrontChecks:
    def test_report_matches_scalar_checks_1d(self):
        mesh = interval_mesh(np.array([0.0, 1.0, 3.0]))
        cfg = make_config()
        field = ConstantField(0.5)
        times = np.array([0.0, 0.4, 1.6])
        rep = front_causality_report(mesh, times, field, cfg)
        for sid in range(mesh.n_simplices):
            a, b = mesh.simplices[sid]
            v = causal_segment(times[a], times[b], mesh.measures[sid], 0.5)
            assert (rep["slack"][sid], rep["scale"][sid]) == (v.slack, v.scale)
            assert bool(rep["satisfied"][sid]) == v.satisfied

    def test_report_matches_scalar_checks_2d(self):
        mesh = grid_mesh(3, 3, skew=0.4)
        cfg = make_config()
        field = ConstantField(1.0)
        rng = np.random.default_rng(3)
        # Spread wide enough that some base edges alone exceed the slope.
        times = rng.uniform(0.0, 2.0, size=mesh.n_vertices)
        times[:4] = times[4]  # time ties pick the apex by id
        rep = front_causality_report(mesh, times, field, cfg)
        assert 0 < rep["satisfied"].sum() < mesh.n_simplices
        for sid in range(mesh.n_simplices):
            row = mesh.simplices[sid]
            t3 = times[row]
            # Apex = latest vertex, ties to larger id (row is id-sorted).
            apex = max(range(3), key=lambda i: (t3[i], i))
            v = causal_triangle(mesh.vertices[row], t3, 1.0, apex=apex)
            assert (rep["slack"][sid], rep["scale"][sid]) == (v.slack, v.scale)
            assert bool(rep["satisfied"][sid]) == v.satisfied

    def test_progressive_front_1d_is_causality(self):
        mesh = interval_mesh(np.arange(5.0))
        field = ConstantField(1.0)
        cfg = ConstraintConfig.for_problem(mesh, field)
        fr = initial_front(mesh, times=np.array([0.0, 0.5, 0.0, 0.9, 0.2]),
                           field=field)
        ok, bad = is_progressive_front(fr, field, cfg)
        assert ok and bad == []

    def test_progressive_front_detects_violation(self):
        mesh = grid_mesh(2, 2)
        field = ConstantField(1.0)
        cfg = ConstraintConfig.for_problem(mesh, field)
        fr = initial_front(mesh)
        # Force a non-progressive state by writing times directly.
        times = fr.times.copy()
        times[4] = 10.0
        bad_front = type(fr)(mesh=mesh, times=times)
        ok, bad = is_progressive_front(bad_front, field, cfg)
        assert not ok and len(bad) >= 1
        assert all(not v.satisfied for _, v in bad)


# ---------------------------------------------------------------------------
# the batched kernel against the per-sample scalar check it replaced
# ---------------------------------------------------------------------------


def _reference_verdict(points, times, field, config, ids, element=None,
                       sigma_cap=math.inf):
    """One triangle, one lift sample at a time, through the scalar checks."""
    points = np.asarray(points, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    tmin = config.tmin_2d
    lo, mid, _ = sorted(range(3), key=lambda i: (times[i], ids[i]))
    dts = np.linspace(0.0, tmin, INTERIOR_LIFTS + 2)
    n = len(dts)
    batch = np.tile(times, (2 * n, 1))
    batch[:n, lo] += dts
    batch[n:, lo] += dts
    batch[n:, mid] = times[mid] + tmin
    sig = sampled_min_values(field, points, batch, element=element)
    worst = None
    for k in range(n):
        v = causal_triangle(points, batch[k], min(float(sig[k]), sigma_cap),
                            apex=lo)
        if worst is None or v.slack < worst.slack:
            worst = v
        v = progress_ok(points, batch[k], float(sig[n + k]), config.epsilon,
                        ids)
        if v.slack < worst.slack:
            worst = v
    return worst


def _bits(v):
    return (v.satisfied, float(v.slack).hex(), v.binding, float(v.scale).hex())


def _nondegenerate(pts) -> bool:
    d = [np.hypot(*(pts[i] - pts[j])) for i, j in ((0, 1), (1, 2), (2, 0))]
    area2 = abs((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                - (pts[1, 1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0]))
    return area2 > 1e3 * DEGENERACY_RATIO * max(d) ** 2


# Grid values make exact time ties and sample points on cone boundaries.
_coord = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5]) | st.floats(-2.0, 2.0)
_random_triangle = st.lists(st.tuples(_coord, _coord), min_size=3, max_size=3)
# Strip-like triangles: the angle at the apex (b, h) is obtuse.
_obtuse_triangle = st.builds(
    lambda a, b, h: [(0.0, 0.0), (a, 0.0), (b * a, h * a)],
    st.floats(0.5, 2.0), st.floats(0.2, 0.8), st.floats(0.05, 0.45),
)
_triangle = (_random_triangle | _obtuse_triangle).map(
    lambda t: np.array(t, dtype=np.float64)).filter(_nondegenerate)


def _field(data, n_elements):
    kind = data.draw(st.sampled_from(["constant", "cone", "table", "composite"]))
    slope = st.floats(0.5, 3.0)
    if kind == "constant":
        return ConstantField(data.draw(slope))
    table = TableField(data.draw(st.lists(slope, min_size=n_elements,
                                          max_size=n_elements)))
    if kind == "table":
        return table
    cone = SpatialConeField(
        (data.draw(_coord), data.draw(_coord)),
        data.draw(st.sampled_from([-0.5, 0.0, 0.25]) | st.floats(-1.0, 1.0)),
        data.draw(slope), data.draw(slope),
        data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0)),
    )
    return cone if kind == "cone" else CompositeMinField([cone, table])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_scalar_reference_bit_for_bit(data):
    F = data.draw(st.integers(1, 5))
    points = np.stack([data.draw(_triangle) for _ in range(F)])
    tmin = data.draw(st.sampled_from([0.125, 0.5]) | st.floats(0.01, 1.0))
    cfg = make_config(
        epsilon=data.draw(st.sampled_from([0.5, 0.25]) | st.floats(0.05, 0.5)),
        tmin_2d=tmin,
    )
    # Offsets within a few floors make ties and (time, id) flips under lifts.
    offset = st.sampled_from([0.0, 0.25 * tmin, 0.5 * tmin, tmin]) \
        | st.floats(0.0, 3.0 * tmin)
    times = np.array([[data.draw(offset) for _ in range(3)] for _ in range(F)])
    ids = np.array([data.draw(st.lists(st.integers(0, 50), min_size=3,
                                       max_size=3, unique=True))
                    for _ in range(F)])
    field = _field(data, F)
    cap = data.draw(st.just(math.inf) | st.floats(0.2, 3.0))
    got, _ = progressive_verdicts(points, times, ids, apex_geometry(points),
                                  field, cfg, elements=np.arange(F),
                                  remote=lambda ceiling: min(ceiling, cap))
    for i in range(F):
        want = _reference_verdict(points[i], times[i], field, cfg,
                                  tuple(ids[i]), element=i, sigma_cap=cap)
        assert _bits(got.verdict(i)) == _bits(want)
    single = is_progressive_triangle(points[0], times[0], field, cfg,
                                     ids=tuple(ids[0]), element=0,
                                     sigma_cap=cap)
    assert _bits(single) == _bits(got.verdict(0))


@pytest.mark.parametrize("tmin", [0.125, 0.03, 1.0 / 3.0])
def test_lift_samples_made_once_per_floor_and_read_only(tmin):
    # Every star probe reads the same cached samples; nobody may write them.
    dts = _lift_samples(tmin)
    assert dts is _lift_samples(tmin)
    assert dts.tobytes() == np.linspace(0.0, tmin, INTERIOR_LIFTS + 2).tobytes()
    with pytest.raises(ValueError):
        dts[1] = 0.0


@given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 3.0])
                          | st.floats(0.0, 1e6),
                          st.integers(-4, 4)), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_margin_is_nonnegative_exactly_when_all_satisfied(facets):
    # Slacks a few ulps either side of the tolerance edge -REL_TOL * scale,
    # where the search's margin and the verdicts could disagree.
    raw = np.array([scale for scale, _ in facets])
    slack = -REL_TOL * np.maximum(1.0, raw)
    for i, (_, ulps) in enumerate(facets):
        for _ in range(abs(ulps)):
            slack[i] = np.nextafter(slack[i], math.copysign(math.inf, ulps))
    verdicts = FacetVerdicts.judge(slack, raw, BINDING_CAUSALITY)
    assert (verdicts.margin() >= 0.0) == bool(verdicts.satisfied.all())
    assert verdicts.satisfied.tolist() == [ulps >= 0 for _, ulps in facets]


@pytest.mark.parametrize("binding", [BINDING_CAUSALITY, BINDING_PROGRESS])
@pytest.mark.parametrize("F", [0, 1, 3])
def test_judge_gives_every_facet_the_named_binding(binding, F):
    verdicts = FacetVerdicts.judge(np.full(F, -1.0), np.ones(F), binding)
    assert verdicts.binding.shape == (F,)
    assert [verdicts.verdict(i).binding for i in range(F)] == [binding] * F
    assert all(type(verdicts.verdict(i).binding) is str for i in range(F))


@pytest.mark.parametrize("ids, binding", [((5, 2, 9), BINDING_PROGRESS),
                                         ((1, 2, 9), BINDING_CAUSALITY)])
def test_kernel_breaks_exact_lift_ties_by_id(ids, binding):
    # The floor lift takes vertex 0 exactly to vertex 1's time; only the ids
    # decide whether it has passed, which picks the shape factor progress uses.
    cfg = make_config(tmin_2d=0.25)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.6]])
    times = np.array([0.0, 0.25, 0.5])
    field = ConstantField(1.0)
    want = _reference_verdict(pts, times, field, cfg, ids)
    got = is_progressive_triangle(pts, times, field, cfg, ids=ids)
    assert _bits(got) == _bits(want)
    assert got.binding == binding


@pytest.mark.parametrize("kind", ["cone", "table"])
def test_progressive_front_violations_match_scalar_loop(kind):
    mesh = strip_mesh(6) if kind == "table" else grid_mesh(3, 3)
    if kind == "table":
        field = TableField(np.linspace(1.0, 2.0, mesh.n_simplices))
    else:
        field = SpatialConeField((0.5, 0.5), 0.0, 2.0, 1.0, 0.5)
    cfg = ConstraintConfig.for_problem(mesh, field)
    fr = random_front(mesh, cfg, np.random.default_rng(11), pitches=30)
    times = fr.times.copy()
    times[[1, 5]] += 3.0 * cfg.tmin_2d  # plant non-progressive facets
    planted = Front(mesh=mesh, times=times)
    want = []
    for sid, row in enumerate(mesh.simplices):
        v = _reference_verdict(mesh.vertices[row], times[row], field, cfg,
                               tuple(int(i) for i in row), element=sid)
        if not v.satisfied:
            want.append((sid, _bits(v)))
    assert len(want) >= 3
    for limit in (1, 3, mesh.n_simplices):
        ok, got = is_progressive_front(planted, field, cfg, limit=limit)
        assert not ok
        assert [(sid, _bits(v)) for sid, v in got] == want[:limit]


# ---------------------------------------------------------------------------
# preservation properties: floor-bounded pitches keep fronts healthy
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_floor_lift_preserves_causality_1d(seed):
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.5, 2.0, size=rng.integers(3, 9)))
    mesh = interval_mesh(xs)
    field = ConstantField(float(rng.uniform(0.3, 2.0)))
    cfg = ConstraintConfig.for_problem(mesh, field)
    fr = random_front(mesh, cfg, rng, pitches=int(rng.integers(0, 20)))
    rep = front_causality_report(mesh, fr.times, field, cfg)
    assert rep["satisfied"].all()
    # One more floor-bounded pitch at a local minimum stays causal.
    p = int(rng.choice(local_minima(fr)))
    fr2 = advance(fr, p, float(rng.uniform(0.0, cfg.tmin_1d)))
    rep2 = front_causality_report(mesh, fr2.times, field, cfg)
    assert rep2["satisfied"].all()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_floor_lift_preserves_progressive_2d(seed):
    rng = np.random.default_rng(seed)
    mesh = strip_mesh(3) if seed % 2 else grid_mesh(2, 2)
    field = ConstantField(float(rng.uniform(0.5, 2.0)))
    cfg = ConstraintConfig.for_problem(mesh, field)
    fr = random_front(mesh, cfg, rng, pitches=int(rng.integers(0, 12)))
    ok, bad = is_progressive_front(fr, field, cfg)
    assert ok, f"random floor-pitched front not progressive: {bad}"
    p = int(rng.choice(local_minima(fr)))
    fr2 = advance(fr, p, float(rng.uniform(0.0, cfg.tmin_2d)))
    ok2, bad2 = is_progressive_front(fr2, field, cfg)
    assert ok2, f"floor lift broke progressiveness: {bad2}"


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.3, max_value=2.5))
@settings(max_examples=100, deadline=None)
def test_causal_triangle_equals_gradient_norm_test(seed, sigma):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(3, 2))
    area2 = abs(
        (pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
        - (pts[1, 1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0])
    )
    assume(area2 > 1e-3)
    times = rng.uniform(0.0, 2.0, size=3)
    grad = np.linalg.norm(plane_fit_gradient(pts, times))
    assume(abs(grad - sigma) > 1e-6 * max(1.0, sigma))  # skip knife-edge cases
    for apex in range(3):
        v = causal_triangle(pts, times, sigma, apex=apex)
        assert v.satisfied == (grad <= sigma)


# ---------------------------------------------------------------------------
# pinned bits of the whole-front checks
# ---------------------------------------------------------------------------


# sha256 prefixes of the whole-front checks' arrays on the fronts below, as
# the checks computed them before they shared one facets record.
WHOLE_FRONT_PINS = {
    (1, "constant"): "bc6d6425fadb0576",
    (1, "timestep"): "4f92b9fa44d0e6cb",
    (1, "cone"): "a4c98b6af2a9d7f7",
    (1, "table"): "c5305b38a4c85f81",
    (2, "constant"): "45d037f1e0f55556",
    (2, "timestep"): "3fad4ac0adedf4e3",
    (2, "cone"): "91283ccc98f059e5",
    (2, "table"): "714aa826bcbcc908",
}


def _pin_field(kind, dim, mesh, rng):
    if kind == "constant":
        return ConstantField(0.8)
    if kind == "timestep":  # the boundary falls inside the run's front
        return TimeStepField([1.5 if dim == 1 else 0.2], [0.7, 1.2])
    if kind == "cone":
        if dim == 1:
            return SpatialConeField([6.0], 0.0, 0.5, 1.0, 0.4)
        return SpatialConeField([0.5, 0.5], 0.0, 0.6, 1.0, 0.5)
    return TableField(rng.uniform(0.6, 1.4, size=mesh.n_simplices))


@pytest.mark.parametrize("dim, kind", sorted(WHOLE_FRONT_PINS))
def test_whole_front_checks_keep_their_bits(dim, kind):
    # The front of a seeded run is causal; three times its spread is not,
    # which reaches the violated and steep-edge branches too.
    rng = np.random.default_rng(100 * dim + len(kind))
    if dim == 1:
        mesh = interval_mesh(np.cumsum(rng.uniform(0.5, 1.5, size=25)))
    else:
        base = grid_mesh(5, 5)
        mesh = build_mesh(base.vertices + rng.uniform(
            -0.04, 0.04, size=base.vertices.shape), base.simplices)
    field = _pin_field(kind, dim, mesh, rng)
    cfg = ConstraintConfig.for_problem(mesh, field)
    run = advance_until(mesh, field, 1.0, config=cfg, max_patches=40 * dim)
    assert front_causality_report(mesh, run.front.times, field, cfg)[
        "satisfied"].all()
    h = hashlib.sha256()
    for times in (run.front.times, 3.0 * run.front.times):
        rep = front_causality_report(mesh, times, field, cfg)
        verdicts, _ = facet_verdicts(Facets.of(mesh, np.arange(mesh.n_simplices)),
                                     times[mesh.simplices], field, cfg)
        for a in (rep["slack"], rep["scale"], rep["sigma"], rep["satisfied"],
                  verdicts.slack, verdicts.scale):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update("".join(verdicts.binding).encode())
    assert h.hexdigest()[:16] == WHOLE_FRONT_PINS[dim, kind]
