"""Tests for mesh construction, validation, stats, and the text format.

Reference values: the unit square split into two right triangles has
wmin = sqrt(2)/2 (each triangle has legs 1 and hypotenuse sqrt(2), so the
minimum altitude is 1/sqrt(2)) and every vertex belongs to at most two
triangles except the diagonal ends, giving max degree 2.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentmesh.errors import NotFound, ValidationError
from tentmesh.mesh import (
    build_mesh,
    grid_mesh,
    interval_mesh,
    load_mesh,
    mesh_stats,
    save_mesh,
    vertex_star,
)

SQUARE_VERTS = [(0, 0), (1, 0), (1, 1), (0, 1)]
SQUARE_TRIS = [(0, 1, 2), (0, 2, 3)]


def test_two_triangle_square_stats():
    mesh = build_mesh(SQUARE_VERTS, SQUARE_TRIS)
    wmin, diameter, max_degree = mesh_stats(mesh)
    assert wmin == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
    assert diameter == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert max_degree == 2

def test_interval_mesh_stats():
    mesh = interval_mesh(np.arange(11.0))
    wmin, diameter, max_degree = mesh_stats(mesh)
    assert (wmin, diameter, max_degree) == (1.0, 10.0, 2)
    assert mesh.dim == 1
    assert mesh.n_simplices == 10


def test_grid_mesh_stats():
    mesh = grid_mesh(10, 10, 10.0, 10.0)
    assert mesh.wmin == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)
    assert mesh.diameter == pytest.approx(math.sqrt(200.0), rel=1e-12)
    assert mesh.max_degree == 6
    assert mesh.n_simplices == 200


def test_simplices_stored_sorted_with_orientation():
    mesh = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
    assert tuple(mesh.simplices[0]) == (0, 1, 2)
    # Sorted order (0,1,2) is counterclockwise for this geometry.
    assert mesh.orientations[0] == 1
    flipped = build_mesh([(0, 0), (0, 1), (1, 0)], [(0, 1, 2)])
    assert flipped.orientations[0] == -1


def test_vertex_star_and_neighbors():
    mesh = interval_mesh(np.arange(4.0))
    assert list(vertex_star(mesh, 1)) == [0, 1]
    assert list(vertex_star(mesh, 0)) == [0]
    assert list(mesh.neighbors[1]) == [0, 2]
    with pytest.raises(NotFound):
        vertex_star(mesh, 99)
    # Padded adjacency rows end in -1 for low-degree vertices.
    assert mesh.neighbor_matrix[0, 1] == -1


class TestValidation:
    def test_out_of_range_vertex(self):
        with pytest.raises(ValidationError, match="out of range"):
            build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 7)])

    def test_repeated_vertex_in_simplex(self):
        with pytest.raises(ValidationError, match="repeated"):
            build_mesh([(0,), (1,)], [(1, 1)])

    def test_duplicate_simplex(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (2, 1, 0)])

    def test_degenerate_simplex(self):
        with pytest.raises(ValidationError, match="degenerate"):
            build_mesh([(0, 0), (1, 0), (2, 1e-14), (0, 1)], [(0, 1, 2), (0, 1, 3)])

    def test_unused_vertex(self):
        with pytest.raises(ValidationError, match="vertex 3"):
            build_mesh([(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2)])

    def test_non_manifold_edge(self):
        verts = [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, -1)]
        tris = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]  # edge (0,1) in three triangles
        with pytest.raises(ValidationError, match="non-manifold"):
            build_mesh(verts, tris)

    def test_non_manifold_1d_vertex(self):
        with pytest.raises(ValidationError, match="non-manifold"):
            build_mesh([(0,), (1,), (2,), (3,)], [(0, 1), (1, 2), (1, 3)])

    def test_overlapping_segments(self):
        with pytest.raises(ValidationError, match="overlap"):
            build_mesh([(0,), (2,), (1,), (3,)], [(0, 1), (2, 3)])

    def test_empty_mesh(self):
        with pytest.raises(ValidationError, match="no simplices"):
            build_mesh(np.zeros((3, 2)), [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coordinate_names_the_vertex(self, bad):
        with pytest.raises(ValidationError, match="vertex 2"):
            build_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, bad)], [(0, 1, 2)])
        with pytest.raises(ValidationError, match="vertex 1"):
            build_mesh([(0.0,), (bad,), (2.0,)], [(0, 1), (1, 2)])


class TestTextFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        mesh = build_mesh(
            [(0.1, 0.2), (1.0 / 3.0, 0.0), (0.7, 1e-17 + 0.9)], [(0, 1, 2)]
        )
        path = tmp_path / "m.mesh"
        save_mesh(mesh, path)
        again = load_mesh(path)
        assert np.array_equal(again.vertices, mesh.vertices)
        assert np.array_equal(again.simplices, mesh.simplices)
        # Canonical documents are a fixed point of save . load.
        path2 = tmp_path / "m2.mesh"
        save_mesh(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "m.mesh"
        path.write_text("# header\ndim 1\n\nv 0.0 # origin\nv 1.0\ns 0 1\n")
        mesh = load_mesh(path)
        assert mesh.n_vertices == 2

    def test_missing_vertex_reports_line(self, tmp_path):
        path = tmp_path / "m.mesh"
        path.write_text("dim 1\nv 0.0\nv 1.0\ns 0 3\n")
        with pytest.raises(ValidationError, match=r"m\.mesh:4"):
            load_mesh(path)

    def test_unknown_directive_reports_line(self, tmp_path):
        path = tmp_path / "m.mesh"
        path.write_text("dim 1\nq 1 2\n")
        with pytest.raises(ValidationError, match=r"m\.mesh:2"):
            load_mesh(path)

    def test_dim_required_first(self, tmp_path):
        path = tmp_path / "m.mesh"
        path.write_text("v 0.0\n")
        with pytest.raises(ValidationError, match="dim"):
            load_mesh(path)

    def test_wrong_coordinate_count(self, tmp_path):
        path = tmp_path / "m.mesh"
        path.write_text("dim 2\nv 0.0\n")
        with pytest.raises(ValidationError, match="coordinates"):
            load_mesh(path)


@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
        min_size=2,
        max_size=30,
        unique=True,
    )
)
@settings(max_examples=100, deadline=None)
def test_interval_mesh_stats_match_gaps(xs):
    xs = sorted(xs)
    gaps = np.diff(xs)
    if gaps.min() < 1e-6:
        return  # skip near-degenerate spacings, covered by validation tests
    mesh = interval_mesh(xs)
    wmin, diameter, max_degree = mesh_stats(mesh)
    assert wmin == pytest.approx(gaps.min(), rel=1e-12)
    assert diameter == pytest.approx(xs[-1] - xs[0], rel=1e-12)
    assert max_degree == (2 if len(xs) > 2 else 1)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
@settings(max_examples=50, deadline=None)
def test_grid_mesh_is_valid_and_round_trips(tmp_path_factory, nx, ny):
    mesh = grid_mesh(nx, ny, skew=0.3)
    assert mesh.n_simplices == 2 * nx * ny
    path = tmp_path_factory.mktemp("meshes") / "g.mesh"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.simplices, mesh.simplices)
