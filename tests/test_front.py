"""Tests for the advancing front structure and its exports."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentmesh.errors import InvalidArgument, NotFound, ValidationError
from tentmesh.fields import ConstantField, SpatialConeField, TableField
from tentmesh.front import (
    BlockedTimes,
    advance,
    export_snapshot,
    export_terrain,
    initial_front,
    local_minima,
)
from tentmesh.mesh import build_mesh, grid_mesh, interval_mesh

SQUARE = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])


class TestInitialFront:
    def test_defaults_to_zero(self):
        fr = initial_front(SQUARE)
        assert fr.times.tolist() == [0.0] * 4
        assert fr.min_time() == 0.0

    def test_explicit_causal_times_accepted(self):
        mesh = interval_mesh(np.arange(3.0))
        fr = initial_front(mesh, times=[0.0, 0.5, 0.0], field=ConstantField(1.0))
        assert fr.times.tolist() == [0.0, 0.5, 0.0]

    def test_non_causal_times_rejected(self):
        mesh = interval_mesh(np.arange(3.0))
        with pytest.raises(ValidationError, match="not causal"):
            initial_front(mesh, times=[0.0, 5.0, 0.0], field=ConstantField(1.0))

    def test_times_require_field(self):
        with pytest.raises(InvalidArgument):
            initial_front(SQUARE, times=[0.0, 0.0, 0.0, 0.0])

    def test_negative_times_rejected(self):
        with pytest.raises(ValidationError, match=">= 0"):
            initial_front(SQUARE, times=[0.0, -1.0, 0.0, 0.0],
                          field=ConstantField(1.0))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError, match="4 vertex times"):
            initial_front(SQUARE, times=[0.0], field=ConstantField(1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected_before_the_causality_check(self, bad):
        # NaN used to pass the ">= 0" test and reach the causality report,
        # which called it "not causal: slack nan" with a RuntimeWarning.
        mesh = interval_mesh(np.arange(3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=rf"finite and >= 0, got {bad!r} at vertex 0"):
                initial_front(mesh, times=[bad, 0.0, 0.0],
                              field=ConstantField(1.0))

    @pytest.mark.parametrize("times", [["a", "b", "c"], [[0.0], 0.0, 0.0],
                                       [{}, 0.0, 0.0], ["0", "0.5", "0"],
                                       [0.0, True, 0.0]])
    def test_times_that_are_not_numbers_rejected(self, times):
        # These used to escape as numpy's ValueError or TypeError, or, as
        # numeric strs and bools, to be read as numbers.
        with pytest.raises(ValidationError, match="vertex times must be numbers"):
            initial_front(interval_mesh(np.arange(3.0)), times=times,
                          field=ConstantField(1.0))

    @pytest.mark.parametrize("mesh, field, match", [
        (interval_mesh(np.arange(3.0)), TableField([1.0]),
         "table field has 1 slopes"),
        (interval_mesh(np.arange(3.0)),
         SpatialConeField([0.5, 0.5], 0.0, 1.0, 2.0, 0.5), "centre has 2"),
        (SQUARE, SpatialConeField([0.5], 0.0, 1.0, 2.0, 0.5), "centre has 1"),
        (SQUARE, SpatialConeField([1e200, 0.0], 0.0, 0.5, 1.0, 0.0),
         "too far from the mesh"),
    ])
    def test_field_that_does_not_fit_the_mesh_rejected(self, mesh, field,
                                                       match):
        times = np.zeros(mesh.n_vertices)
        times[1] = 0.5
        with pytest.raises(ValidationError, match=match):
            initial_front(mesh, times=times, field=field)

    def test_causal_times_accepted_where_the_height_floor_underflows(self):
        # sigma_min * wmin = 1e-350 rounds to 0, so no config exists for
        # this problem; the causality of a flat front needs none.
        mesh = interval_mesh([0.0, 1e-150, 2e-150])
        fr = initial_front(mesh, times=[0.5, 0.5, 0.5],
                           field=ConstantField(1e-200))
        assert fr.times.tolist() == [0.5, 0.5, 0.5]


class TestLocalMinima:
    def test_flat_front_everything_is_minimal(self):
        fr = initial_front(SQUARE)
        assert local_minima(fr).tolist() == [0, 1, 2, 3]

    def test_strict_minima(self):
        mesh = interval_mesh(np.arange(4.0))
        fr = initial_front(mesh, times=[0.0, 0.7, 0.1, 0.9],
                           field=ConstantField(1.0))
        assert local_minima(fr).tolist() == [0, 2]

    def test_plateau_ties_included(self):
        mesh = interval_mesh(np.arange(4.0))
        fr = initial_front(mesh, times=[0.0, 0.0, 0.5, 0.5],
                           field=ConstantField(1.0))
        # 0 and 1 tie each other; 3 ties its only neighbor 2.
        assert local_minima(fr).tolist() == [0, 1, 3]

    def test_never_empty(self):
        mesh = interval_mesh(np.arange(4.0))
        fr = initial_front(mesh, times=[0.9, 0.3, 0.8, 0.2],
                           field=ConstantField(1.0))
        assert len(local_minima(fr)) > 0


class TestAdvance:
    def test_is_persistent(self):
        fr = initial_front(SQUARE)
        fr2 = advance(fr, 2, 0.25)
        assert fr.times[2] == 0.0
        assert fr2.times[2] == 0.25
        assert fr2.times[0] == 0.0

    def test_total_time_increases_by_lift(self):
        fr = initial_front(SQUARE)
        fr2 = advance(fr, 1, 0.125)
        assert fr2.times.sum() - fr.times.sum() == pytest.approx(0.125, rel=1e-12)

    def test_zero_lift_allowed(self):
        fr = initial_front(SQUARE)
        assert advance(fr, 0, 0.0).times.tolist() == fr.times.tolist()

    @pytest.mark.parametrize("dt", [-1.0, math.nan, math.inf])
    def test_negative_lift_rejected(self, dt):
        # Non-finite lifts are rejected too: a NaN or infinite time would
        # otherwise enter the front.
        with pytest.raises(InvalidArgument):
            advance(initial_front(SQUARE), 0, dt)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(NotFound):
            advance(initial_front(SQUARE), 17, 0.1)

    @pytest.mark.parametrize("p", [True, False, 1.5, "1", None])
    def test_vertex_id_that_is_not_an_integer_rejected(self, p):
        # True used to index every vertex and lift them all; 1.5 raised
        # IndexError.
        with pytest.raises(InvalidArgument, match="vertex id must be an integer"):
            advance(initial_front(SQUARE), p, 0.5)

    def test_numpy_integer_vertex_accepted(self):
        assert advance(initial_front(SQUARE), np.int32(3), 0.5).times.tolist() \
            == [0.0, 0.0, 0.0, 0.5]

    def test_lift_that_overflows_rejected(self):
        # A finite lift whose sum is not finite used to store inf with a
        # RuntimeWarning.
        fr = advance(initial_front(SQUARE), 1, 1e308)
        with pytest.raises(InvalidArgument, match="overflows"):
            advance(fr, 1, 1e308)
        with pytest.raises(InvalidArgument, match="overflows"):
            advance(fr, 1, np.float64(1e308))

    def test_argmin_breaks_ties_to_smallest_id(self):
        mesh = interval_mesh(np.arange(4.0))
        fr = initial_front(mesh, times=[0.4, 0.1, 0.1, 0.4],
                           field=ConstantField(1.0))
        assert fr.argmin_vertex() == 1


class TestExports:
    def test_snapshot_format_and_determinism(self, tmp_path):
        mesh = interval_mesh(np.arange(3.0))
        fr = initial_front(mesh, times=[0.0, 0.5, 0.25], field=ConstantField(1.0))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        export_snapshot(fr, a)
        export_snapshot(fr, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines() == ["t 0 0.0", "t 1 0.5", "t 2 0.25"]

    def test_terrain_obj_2d(self, tmp_path):
        fr = advance(initial_front(SQUARE), 0, 0.5)
        path = tmp_path / "front.obj"
        export_terrain(fr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "v 0.0 0.0 0.5"
        assert lines[4] == "f 1 2 3"

    def test_terrain_obj_1d(self, tmp_path):
        mesh = interval_mesh(np.arange(2.0))
        path = tmp_path / "front.obj"
        export_terrain(initial_front(mesh), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "v 0.0 0.0 0.0"
        assert lines[-1] == "l 1 2"


@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0, width=64), min_size=9,
             max_size=9)
)
@settings(max_examples=100, deadline=None)
def test_local_minima_nonempty_and_correct(times):
    mesh = grid_mesh(2, 2)
    fr = type(initial_front(mesh))(mesh=mesh, times=np.array(times))
    mins = local_minima(fr)
    assert len(mins) > 0
    t = np.array(times)
    for v in range(9):
        neigh = mesh.neighbor_matrix[v][mesh.neighbor_matrix[v] >= 0]
        is_min = bool((t[v] <= t[neigh]).all())
        assert (v in mins) == is_min


# n = 1, 2, B*B - 1, B*B, B*B + 1 for a block size B, or any size.
_SIZES = (st.sampled_from([1, 2])
          | st.integers(2, 12).flatmap(
              lambda b: st.sampled_from([b * b - 1, b * b, b * b + 1]))
          | st.integers(1, 300))


@st.composite
def _lift_cases(draw):
    """(start times, lifts): all tied or random starts, (vertex, dt) lifts."""
    n = draw(_SIZES)
    if draw(st.booleans()):
        start = [0.0] * n
    else:
        start = draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n))
    lifts = draw(st.lists(
        st.tuples(st.integers(0, n - 1),
                  st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 2.0)),
        max_size=60,
    ))
    return start, lifts


@given(_lift_cases())
@settings(max_examples=200, deadline=None)
def test_blocked_times_lowest_matches_argmin(case):
    start, lifts = case
    index = BlockedTimes(np.array(start))
    ref = np.array(start)
    assert not index.times.flags.writeable
    assert index.lowest() == (ref.min(), int(np.argmin(ref)))
    for p, dt in lifts:
        index.lift(p, dt)
        ref[p] += dt
        assert index.times.tobytes() == ref.tobytes()
        assert index.lowest() == (ref.min(), int(np.argmin(ref)))
