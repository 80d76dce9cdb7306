"""Tests for slope fields, the sampled simplex minimum, and field documents."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentmesh import fields
from tentmesh.errors import InvalidArgument, OutOfDomain, ValidationError
from tentmesh.fields import (
    SLOPE_SAMPLES,
    CompositeMinField,
    ConstantField,
    SlopeField,
    SpatialConeField,
    TableField,
    TimeStepField,
    load_field,
    parse_field,
    sampled_min_simplices,
    sampled_min_values,
)
from tentmesh.mesh import interval_mesh
from tentmesh.pitcher import advance_until


class LinearInX(SlopeField):
    """sigma(x, t) = 1 + x[0]; a smooth test field on the unit interval."""

    def __init__(self):
        super().__init__(1.0, 2.0)

    def _values(self, xs, ts, elems):
        return 1.0 + xs[:, 0]


class DipsBelowBound(SlopeField):
    """sigma(x, t) = 0.5 + x[0], under a declared sigma_min of 1."""

    def __init__(self):
        super().__init__(1.0, 2.0)

    def _values(self, xs, ts, elems):
        return 0.5 + xs[:, 0]


class TestBuiltinFields:
    def test_constant(self):
        f = ConstantField(2.5)
        assert f.values([[0.3, 0.4]], [1.0]).tolist() == [2.5]
        assert (f.sigma_min, f.sigma_max) == (2.5, 2.5)

    def test_timestep_boundary_belongs_to_later_band(self):
        f = TimeStepField([5.0], [2.0, 0.5])
        assert f.values(np.zeros((3, 1)), [4.9, 5.0, 7.0]).tolist() == [2.0, 0.5, 0.5]
        assert (f.sigma_min, f.sigma_max) == (0.5, 2.0)

    def test_timestep_multiband(self):
        f = TimeStepField([1.0, 2.0], [1.0, 0.25, 4.0])
        got = f.values(np.zeros((4, 1)), np.array([0.5, 1.0, 1.5, 2.0]))
        assert got.tolist() == [1.0, 0.25, 0.25, 4.0]

    def test_cone_membership_boundary_is_inside(self):
        f = SpatialConeField([0.5, 0.5], 0.0, 4.0, 1.0, 4.0)
        xs = [[0.5, 0.5], [0.5, 0.75], [0.5, 0.75]]
        # apex, outside, exactly on the cone
        assert f.values(xs, [0.0, 0.5, 1.0]).tolist() == [4.0, 1.0, 4.0]
        assert (f.sigma_min, f.sigma_max) == (1.0, 4.0)

    @pytest.mark.parametrize("cone, x, t, want", [
        # 2 * 1e308 overflows to inf: outside.
        ((0.0, 0.5, 1.0, 1e308), 2.0, 1.0, 1.0),
        # 1e308 - (-1e308) overflows to inf: inside.
        ((-1e308, 0.5, 1.0, 1.0), 2.0, 1e308, 0.5),
        # The distance overflows, but a zero cone_slope reaches every point.
        ((0.0, 0.5, 1.0, 0.0), 1e200, 1.0, 0.5),
    ])
    def test_cone_membership_past_the_float_range(self, cone, x, t, want):
        # The suite turns RuntimeWarnings into errors, so none is raised.
        f = SpatialConeField([0.0], *cone)
        assert f.values([[x]], [t]).tolist() == [want]

    def test_run_under_a_cone_too_steep_to_evaluate_finitely(self):
        run = advance_until(interval_mesh([0.0, 1.0, 2.0]),
                            SpatialConeField([0.0], 0.0, 0.5, 1.0, 1e308), 1.0)
        assert run.stats["target_reached"]

    def test_table_requires_elements(self):
        f = TableField([1.0, 0.5, 2.0])
        with pytest.raises(InvalidArgument):
            f.values(np.zeros((1, 2)), np.zeros(1))
        got = f.values(np.zeros((3, 2)), np.zeros(3), elems=[2, 0, 1])
        assert got.tolist() == [2.0, 1.0, 0.5]

    def test_table_future_values_widen_bounds(self):
        f = TableField([1.0, 1.0], future=[0.25, 3.0])
        assert (f.sigma_min, f.sigma_max) == (0.25, 3.0)
        assert f.table.tolist() == [1.0, 1.0]
        with pytest.raises(ValidationError, match="positive"):
            TableField([1.0, 1.0], future=[0.0])

    def test_fields_are_read_only_copies(self):
        values, center = np.array([1.0, 2.0]), np.array([0.5, 0.5])
        table = TableField(values)
        cone = SpatialConeField(center, 0.0, 2.0, 1.0, 0.5)
        step = TimeStepField(np.array([1.0]), np.array([1.0, 2.0]))
        for arr in (table.table, cone.center, step.boundaries, step.sigmas):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 9.0
        values[0] = center[0] = 9.0  # the caller's arrays stay theirs
        assert table.table.tolist() == [1.0, 2.0]
        assert cone.center.tolist() == [0.5, 0.5]
        assert values.flags.writeable and center.flags.writeable

    def test_composite_is_pointwise_min(self):
        f = CompositeMinField([ConstantField(2.0), TimeStepField([1.0], [3.0, 0.5])])
        assert f.values(np.zeros((2, 1)), [0.0, 1.5]).tolist() == [2.0, 0.5]
        assert (f.sigma_min, f.sigma_max) == (0.5, 2.0)

    def test_positive_slope_required(self):
        with pytest.raises(ValidationError):
            ConstantField(0.0)
        with pytest.raises(ValidationError):
            TimeStepField([1.0], [1.0, -2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_parameters_rejected_by_name(self, bad):
        makers = {
            "sigma": lambda: ConstantField(bad),
            "boundaries[1]": lambda: TimeStepField([0.5, bad], [1.0, 2.0, 3.0]),
            "sigmas[0]": lambda: TimeStepField([0.5], [bad, 2.0]),
            "center[1]": lambda: SpatialConeField([0.0, bad], 0.0, 1.0, 2.0, 0.5),
            "t_apex": lambda: SpatialConeField([0.0], bad, 1.0, 2.0, 0.5),
            "sigma_inside": lambda: SpatialConeField([0.0], 0.0, bad, 2.0, 0.5),
            "sigma_outside": lambda: SpatialConeField([0.0], 0.0, 1.0, bad, 0.5),
            "cone_slope": lambda: SpatialConeField([0.0], 0.0, 1.0, 2.0, bad),
            "values[1]": lambda: TableField([1.0, bad]),
        }
        for name, make in makers.items():
            with pytest.raises(ValidationError, match=rf"^{re.escape(name)} must be finite"):
                make()
        with pytest.raises(ValidationError, match=r"^future\[1\] must be finite"):
            TableField([1.0, 2.0], future=[0.5, bad])

    def test_negative_time_raises(self):
        with pytest.raises(OutOfDomain):
            ConstantField(1.0).values([[0.0]], [-0.1])

    def test_attached_domain_is_enforced(self):
        f = ConstantField(1.0)
        f.attach_domain([0.0, 0.0], [1.0, 1.0])
        assert f.values([[0.5, 0.5]], [0.0]).tolist() == [1.0]
        with pytest.raises(OutOfDomain):
            f.values([[2.0, 0.5]], [0.0])

    def test_vectorized_matches_pointwise(self):
        f = SpatialConeField([0.0, 0.0], 1.0, 3.0, 1.0, 2.0)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-2, 2, size=(50, 2))
        ts = rng.uniform(0, 5, size=50)
        batch = f.values(xs, ts)
        single = [f.values(x[None], [t])[0] for x, t in zip(xs, ts)]
        assert batch.tolist() == single


class TestMinSlopeOver:
    SEG = np.array([[0.0], [1.0]])

    def test_constant_field_returns_constant(self):
        f = ConstantField(1.7)
        assert sampled_min_values(f, self.SEG, np.array([0.0, 2.0]))[0] == 1.7

    def test_linear_field_min_at_vertex_sample(self):
        # sigma = 1 + x on [0, 1]: the x = 0 vertex is among the samples, so
        # the sampled minimum is exactly 1.
        f = LinearInX()
        assert sampled_min_values(f, self.SEG, np.array([0.0, 0.0]))[0] == 1.0

    def test_samples_below_sigma_min_are_clamped(self):
        # On [0, 1] the vertex x = 0 samples 0.5, below the declared floor;
        # on [0.75, 1] every sample sits above it and passes through.
        f = DipsBelowBound()
        times = np.zeros((1, 2))
        assert sampled_min_values(f, self.SEG, times).tolist() == [1.0]
        assert sampled_min_values(f, np.array([[0.75], [1.0]]), times).tolist() \
            == [1.25]
        segs = np.array([self.SEG, [[0.75], [1.0]]])
        assert sampled_min_simplices(f, segs, np.zeros((2, 2))).tolist() \
            == [1.0, 1.25]

    def test_time_variation_is_sampled_through_lifts(self):
        f = TimeStepField([1.0], [2.0, 0.5])
        flat = sampled_min_values(f, self.SEG, np.array([0.0, 0.0]))[0]
        lifted = sampled_min_values(f, self.SEG, np.array([2.0, 0.0]))[0]
        assert flat == 2.0
        assert lifted == 0.5  # one vertex sits past the drop

    def test_batch_matches_single(self):
        f = SpatialConeField([0.5], 0.0, 2.0, 1.0, 1.0)
        tri = np.array([[0.0], [1.0]])
        batch_times = np.array([[0.0, 0.0], [1.0, 0.5], [3.0, 3.0]])
        batch = sampled_min_values(f, tri, batch_times)
        singles = [sampled_min_values(f, tri, t)[0] for t in batch_times]
        assert batch.tolist() == singles

    def test_many_simplices_sample_the_batch_points(self):
        # The many-simplex sampler must evaluate the field at the same points,
        # bit for bit, as the one-simplex batch sampler: an ulp apart, a
        # point can sit on either side of a cone boundary.
        class Recorder(SlopeField):
            def __init__(self):
                super().__init__(1.0, 1.0)
                self.calls = []

            def _values(self, xs, ts, elems):
                self.calls.append((xs.copy(), ts.copy()))
                return np.ones(ts.shape)

        rng = np.random.default_rng(7)
        tris = rng.uniform(-2.0, 2.0, size=(9, 3, 2))
        times = rng.uniform(0.0, 3.0, size=(9, 10, 3))  # 10 lifts per triangle
        f = Recorder()
        sampled_min_simplices(f, np.repeat(tris, 10, axis=0),
                              times.reshape(90, 3))
        (xs, ts), = f.calls
        f.calls.clear()
        for tri, batch in zip(tris, times):
            sampled_min_values(f, tri, batch)
        assert xs.tobytes() == np.concatenate([c[0] for c in f.calls]).tobytes()
        assert ts.tobytes() == np.concatenate([c[1] for c in f.calls]).tobytes()

    def test_more_samples_resolve_narrow_feature(self):
        # A narrow low-slope pocket between mesh points: midpoints miss it at
        # samples=0 unless a quasi-random extra point lands inside.
        class Pocket(SlopeField):
            def __init__(self):
                super().__init__(0.1, 1.0)

            def _values(self, xs, ts, elems):
                inside = np.abs(xs[:, 0] - 0.37) < 0.015
                return np.where(inside, 0.1, 1.0)

        f = Pocket()
        coarse = sampled_min_values(f, self.SEG, np.zeros(2), samples=0)[0]
        fine = sampled_min_values(f, self.SEG, np.zeros(2), samples=400)[0]
        assert coarse == 1.0
        assert fine == pytest.approx(0.1)

    def test_sampling_is_deterministic(self):
        f = SpatialConeField([0.3, 0.3], 0.0, 2.0, 0.7, 3.0)
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        a = sampled_min_values(f, tri, np.array([0.1, 0.2, 0.3]))[0]
        b = sampled_min_values(f, tri, np.array([0.1, 0.2, 0.3]))[0]
        assert a == b


class TestDocuments:
    def test_parse_constant(self):
        f = parse_field("field constant 2.0")
        assert isinstance(f, ConstantField) and f.sigma == 2.0

    def test_parse_timestep(self):
        f = parse_field("field timestep 5.0 2.0 0.5")
        assert isinstance(f, TimeStepField)
        assert f.boundaries.tolist() == [5.0] and f.sigmas.tolist() == [2.0, 0.5]

    def test_parse_cone_1d_and_2d(self):
        f1 = parse_field("field cone 0.5 0.0 4.0 1.0 4.0")
        assert isinstance(f1, SpatialConeField) and f1.center.tolist() == [0.5]
        f2 = parse_field("field cone 0.5 0.5 0.0 4.0 1.0 4.0")
        assert f2.center.tolist() == [0.5, 0.5]

    def test_parse_composite_and_comments(self):
        f = parse_field("# two parts\nfield constant 2.0\n\nfield timestep 1.0 9.0 0.5\n")
        assert isinstance(f, CompositeMinField)

    def test_parse_table(self, tmp_path):
        (tmp_path / "slopes.txt").write_text("0 1.0\n2 0.5\n1 2.0\n")
        doc = tmp_path / "field.txt"
        doc.write_text("field table slopes.txt\n")
        f = load_field(doc, n_elements=3)
        assert isinstance(f, TableField)
        assert f.table.tolist() == [1.0, 2.0, 0.5]

    def test_table_missing_element(self, tmp_path):
        (tmp_path / "slopes.txt").write_text("0 1.0\n")
        doc = tmp_path / "field.txt"
        doc.write_text("field table slopes.txt\n")
        with pytest.raises(ValidationError, match="missing element"):
            load_field(doc, n_elements=2)

    def test_parse_errors(self):
        for bad in (
            "field constant",
            "field timestep 1.0 2.0",
            "field cone 1 2 3",
            "field warp 9",
            "",
        ):
            with pytest.raises(ValidationError):
                parse_field(bad)

    @pytest.mark.parametrize("line, reason", [
        ("field cone 0.5 0 nan 1 1", "sigma_inside must be finite, got nan"),
        ("field timestep 2 1 1 1 1", "timestep boundaries must be strictly ascending"),
        ("field constant 0", "slope bounds must satisfy"),
    ])
    def test_field_value_errors_name_their_line(self, line, reason):
        with pytest.raises(ValidationError, match=reason) as err:
            parse_field(f"# header\n{line}\n", source="doc.txt")
        assert err.value.location == "doc.txt:2"

    @pytest.mark.parametrize("row, reason", [
        ("1 nan", r"values\[1\] must be finite"),
        ("1 inf", r"values\[1\] must be finite"),
        ("1 0.0", "slopes must be positive"),
        ("1 -2", "slopes must be positive"),
    ])
    def test_table_slope_errors_name_their_row(self, tmp_path, row, reason):
        table = tmp_path / "slopes.txt"
        table.write_text(f"0 1.0\n\n{row}\n")
        doc = tmp_path / "field.txt"
        doc.write_text("field table slopes.txt\n")
        with pytest.raises(ValidationError, match=reason) as err:
            load_field(doc, n_elements=2)
        assert err.value.location == f"{table}:3"

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_field_errors_number_lines_as_files_do(self, tmp_path, sep):
        # str.splitlines also breaks at these; a file read does not, so the
        # bad second line is line 2 of the document.
        doc = tmp_path / "f.txt"
        doc.write_text(f"field constant 1.0{sep}\nfield bogus 2\n",
                       encoding="utf-8")
        with pytest.raises(ValidationError, match="bogus") as err:
            load_field(doc)
        assert err.value.location == f"{doc}:2"

    @pytest.mark.parametrize("sep", ["\x0c", "\u2028"])
    def test_table_errors_number_lines_as_files_do(self, tmp_path, sep):
        table = tmp_path / "t.txt"
        table.write_text(f"0 1.0{sep}\n1 x\n", encoding="utf-8")
        doc = tmp_path / "field.txt"
        doc.write_text("field table t.txt\n")
        with pytest.raises(ValidationError, match="bad table row") as err:
            load_field(doc, n_elements=2)
        assert err.value.location == f"{table}:2"


@given(
    st.lists(st.floats(min_value=0.05, max_value=5.0, width=64), min_size=1,
             max_size=5),
    st.floats(min_value=0.0, max_value=20.0, width=64),
)
@settings(max_examples=100, deadline=None)
def test_timestep_values_stay_within_declared_bounds(sigmas, t):
    boundaries = [float(i + 1) for i in range(len(sigmas) - 1)]
    f = TimeStepField(boundaries, sigmas)
    v = f.values([[0.0]], [t])[0]
    assert f.sigma_min <= v <= f.sigma_max
    assert v in sigmas


@pytest.mark.parametrize("k", [2, 3])
def test_run_extra_points_are_the_seeded_draws(k):
    # The extra sample points a run uses are kept as literals; they must be
    # the seeded Dirichlet draws bit for bit.
    rng = np.random.default_rng(fields._EXTRA_BARY_SEED + 1000 * k
                                + SLOPE_SAMPLES)
    drawn = rng.dirichlet(np.ones(k), size=SLOPE_SAMPLES)
    kept = np.array(fields._RUN_EXTRA_BARY[k, SLOPE_SAMPLES])
    assert kept.tobytes() == drawn.tobytes()
    assert fields._barycentric_columns(k, SLOPE_SAMPLES)[:, -SLOPE_SAMPLES:] \
        .T.tobytes() == drawn.tobytes()


def _any_field(data, dim, m):
    """A constant, timestep, cone, table, composite or custom field."""
    kind = data.draw(st.sampled_from(
        ["constant", "timestep", "cone", "table", "composite", "custom"]))
    slope = st.floats(0.5, 3.0)
    if kind == "constant":
        return ConstantField(data.draw(slope))
    if kind == "custom":
        return LinearInX()  # reads xs[:, 0] alone and returns (N,)
    # Grid values put sample points and times on band and cone boundaries.
    at = st.sampled_from([0.0, 0.25, 0.5]) | st.floats(-1.0, 1.0)
    step = TimeStepField([data.draw(st.sampled_from([0.25, 0.5])
                                    | st.floats(0.0, 1.0))],
                         [data.draw(slope), data.draw(slope)])
    if kind == "timestep":
        return step
    cone = SpatialConeField([data.draw(at) for _ in range(dim)],
                            data.draw(at), data.draw(slope), data.draw(slope),
                            data.draw(st.sampled_from([0.0, 0.5, 1.0])
                                      | st.floats(0.0, 2.0)))
    if kind == "cone":
        return cone
    table = TableField(data.draw(st.lists(slope, min_size=m, max_size=m)))
    return table if kind == "table" else CompositeMinField([cone, table, step])


class _Seen(SlopeField):
    """Evaluates ``inner`` and keeps copies of the points and times it got."""

    def __init__(self, inner):
        super().__init__(inner.sigma_min, inner.sigma_max)
        self.inner, self.seen = inner, []

    def _values(self, xs, ts, elems):
        self.seen.append((xs.copy(), ts.copy()))
        return self.inner._values(xs, ts, elems)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rows_axis_sampler_matches_the_flattened_call(data):
    # R rows of times per simplex, sampled with each simplex's points once,
    # give the bits of the call that repeats every simplex R times, and the
    # field sees the same points and times, one row of ts per time row.
    dim = data.draw(st.sampled_from([1, 2]))
    m, R = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 10))
    k = dim + 1
    at = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-1.0, 1.0)
    positions = np.array(data.draw(st.lists(at, min_size=m * k * dim,
                                            max_size=m * k * dim)))
    positions = positions.reshape(m, k, dim)
    when = st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0)
    times = np.array(data.draw(st.lists(when, min_size=m * R * k,
                                        max_size=m * R * k))).reshape(m, R, k)
    field = _any_field(data, dim, m)
    elements = np.arange(m)
    got = sampled_min_simplices(field, positions, times, elements=elements)
    want = sampled_min_simplices(
        field, np.repeat(positions, R, axis=0), times.reshape(m * R, k),
        elements=np.repeat(elements, R)).reshape(m, R)
    assert got.shape == (m, R)
    assert [x.hex() for x in got.ravel().tolist()] == \
        [x.hex() for x in want.ravel().tolist()]
    seen = _Seen(field)
    sampled_min_simplices(seen, positions, times, elements=elements)
    sampled_min_simplices(seen, np.repeat(positions, R, axis=0),
                          times.reshape(m * R, k),
                          elements=np.repeat(elements, R))
    (xs, ts), (xs_flat, ts_flat) = seen.seen
    S = xs.shape[0] // m
    assert ts.shape == (R, m * S)
    assert ts.reshape(R, m, S).transpose(1, 0, 2).tobytes() == ts_flat.tobytes()
    assert np.broadcast_to(xs.reshape(m, 1, S, dim), (m, R, S, dim)).tobytes() \
        == xs_flat.tobytes()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_sites_and_single_rows_sample_the_bits_of_one_call(data):
    # Sites computed once give every later call the bits of a call from
    # positions, and a call of one simplex samples at the times the same
    # simplex gets inside a call of many, to the last bit.
    dim = data.draw(st.sampled_from([1, 2]))
    m = data.draw(st.integers(2, 6))
    k = dim + 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    positions = rng.uniform(-1.0, 1.0, (m, k, dim))
    times = rng.uniform(0.0, 1.0, (m, k))
    field = _any_field(data, dim, m)
    elements = np.arange(m)
    sites = fields.SampleSites.of(positions, elements)
    want = sampled_min_simplices(field, positions, times, elements=elements)
    assert sampled_min_simplices(field, sites, times).tobytes() == want.tobytes()
    rows = times[:, None, :].repeat(2, axis=1)
    assert sampled_min_simplices(field, sites, rows).tobytes() \
        == want.repeat(2).tobytes()
    seen = _Seen(LinearInX())
    sampled_min_simplices(seen, positions, times)
    for i in range(m):
        one = sampled_min_simplices(field, positions[i:i + 1], times[i:i + 1],
                                    elements=elements[i:i + 1])
        assert one.tobytes() == want[i:i + 1].tobytes()
        sampled_min_simplices(seen, positions[i:i + 1], times[i:i + 1])
    (_, ts), *singles = seen.seen
    assert ts.tobytes() == np.concatenate([t for _, t in singles]).tobytes()


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=30, deadline=None)
def test_sampled_min_never_below_sigma_min(samples):
    f = SpatialConeField([0.25, 0.25], 0.0, 0.3, 1.0, 2.0)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    got = sampled_min_values(f, tri, np.array([5.0, 0.0, 0.0]), samples)[0]
    assert f.sigma_min <= got <= f.sigma_max
