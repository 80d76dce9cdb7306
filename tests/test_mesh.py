"""Tests for mesh construction, validation, stats, and the text format.

Reference values: the unit square split into two right triangles has
wmin = sqrt(2)/2 (each triangle has legs 1 and hypotenuse sqrt(2), so the
minimum altitude is 1/sqrt(2)) and every vertex belongs to at most two
triangles except the diagonal ends, giving max degree 2.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesh_reference import reference_build_mesh
from tentmesh.errors import ValidationError
from tentmesh.mesh import (
    build_mesh,
    grid_mesh,
    interval_mesh,
    load_mesh,
    save_mesh,
)

SQUARE_VERTS = [(0, 0), (1, 0), (1, 1), (0, 1)]
SQUARE_TRIS = [(0, 1, 2), (0, 2, 3)]


def test_two_triangle_square_stats():
    mesh = build_mesh(SQUARE_VERTS, SQUARE_TRIS)
    assert mesh.wmin == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)

def test_interval_mesh_stats():
    mesh = interval_mesh(np.arange(11.0))
    assert mesh.wmin == 1.0
    assert mesh.dim == 1
    assert mesh.n_simplices == 10


def test_grid_mesh_stats():
    mesh = grid_mesh(10, 10, 10.0, 10.0)
    assert mesh.wmin == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)
    assert mesh.n_simplices == 200


def test_simplices_stored_sorted_with_orientation():
    # Rows are stored sorted whether the input order is clockwise or not.
    mesh = build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
    assert tuple(mesh.simplices[0]) == (0, 1, 2)
    flipped = build_mesh([(0, 0), (0, 1), (1, 0)], [(2, 1, 0)])
    assert tuple(flipped.simplices[0]) == (0, 1, 2)


def test_vertex_star_and_neighbors():
    mesh = interval_mesh(np.arange(4.0))
    assert list(mesh.neighbor_matrix[1]) == [0, 2]
    # Padded adjacency rows end in -1 for low-degree vertices.
    assert mesh.neighbor_matrix[0, 1] == -1


@pytest.mark.parametrize("make", [
    lambda: interval_mesh(np.cumsum(np.r_[0.0, np.arange(1.0, 9.0)])),
    lambda: grid_mesh(4, 3, skew=0.1),
], ids=["interval", "grid"])
def test_stars_are_a_read_only_sequence(make):
    mesh = make()
    want = reference_build_mesh(mesh.vertices, mesh.simplices).stars
    stars = mesh.stars
    n = mesh.n_vertices
    assert len(stars) == n == len(want)
    # Iteration and indexing give each vertex's star, in vertex order.
    listed = list(stars)
    assert len(listed) == n
    for v, (got, ref) in enumerate(zip(listed, want)):
        for s in (got, stars[v], stars[v - n]):
            assert s.dtype == ref.dtype and s.tobytes() == ref.tobytes()
            assert not s.flags.writeable
            with pytest.raises(ValueError):
                s[...] = 0
    assert stars[np.int64(1)].tolist() == want[1].tolist()
    for bad in (n, n + 5, -n - 1):
        with pytest.raises(IndexError):
            stars[bad]


@pytest.mark.parametrize("verts", [
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),   # (n, 2) float64
    np.array([0.0, 1.0, 3.0]),                        # flat 1D
])
def test_build_mesh_copies_caller_vertices(verts):
    simplices = [(0, 1, 2)] if verts.ndim == 2 else [(0, 1), (1, 2)]
    mesh = build_mesh(verts, simplices)
    assert verts.flags.writeable
    assert not np.shares_memory(verts, mesh.vertices)
    assert not mesh.vertices.flags.writeable


def test_interval_mesh_copies_caller_breakpoints():
    xs = np.arange(4.0)
    mesh = interval_mesh(xs)
    xs[2] = 2.5
    assert mesh.vertices[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]


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

    @pytest.mark.parametrize("verts, simplices, width", [
        ([(0.0,), (1e308,), (1.7e308,)], [(0, 1), (1, 2)], "inf"),
        ([(0.0, 0.0), (1e308, 0.0), (0.0, 1e308)], [(0, 1, 2)], "nan"),
    ])
    def test_finite_coordinates_whose_size_overflows(self, verts, simplices,
                                                     width):
        # The squared edge lengths overflow: such a mesh used to build with
        # infinite or NaN widths, with RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                build_mesh(verts, simplices)
        assert str(err.value) == (
            f"simplex {simplices[0]} is too large: its size overflows "
            f"(width {width}, measure inf) (at simplex 0)")

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

    def test_loaded_vertices_are_read_only_float64(self, tmp_path):
        # The loader hands its parsed array to the mesh uncopied; the mesh
        # still freezes it like every other vertex array it owns.
        path = tmp_path / "m.mesh"
        path.write_text("dim 2\nv 0 0\nv 1 0\nv 0 1\ns 2 0 1\n")
        mesh = load_mesh(path)
        assert mesh.vertices.dtype == np.float64
        assert mesh.vertices.shape == (3, 2)
        assert not mesh.vertices.flags.writeable
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 5.0

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

    def test_huge_vertex_id_reports_missing_vertex(self, tmp_path):
        path = tmp_path / "m.mesh"
        path.write_text("dim 1\nv 0.0\nv 1.0\ns 0 1\ns 1 99999999999999999999\n")
        with pytest.raises(ValidationError,
                           match=r"missing vertex 99999999999999999999 \(at .*m\.mesh:5\)"):
            load_mesh(path)

    def test_overflowing_coordinate_names_the_vertex(self, tmp_path):
        path = tmp_path / "m.mesh"
        path.write_text("dim 1\nv 0.0\nv 1e999\ns 0 1\n")
        with pytest.raises(ValidationError,
                           match=r"non-finite coordinates \[inf\] \(at vertex 1 of .*m\.mesh\)$"):
            load_mesh(path)

    def test_structural_error_names_file_and_simplex_once(self, tmp_path):
        path = tmp_path / "m.mesh"
        path.write_text("dim 2\nv 0 0\nv 1 0\nv 0 1\nv 2 0\ns 0 1 2\ns 0 1 3\n")
        with pytest.raises(ValidationError) as info:
            load_mesh(path)
        assert str(info.value) == (
            f"degenerate simplex (0, 1, 3) (width 0) (at simplex 1 of {path})")

    def test_tokens_parse_as_python_float_and_int(self, tmp_path):
        path = tmp_path / "m.mesh"
        path.write_text("dim 1\nv 0.0\nv 1_0#ten\nv +2.5e1\ns 0 0_1# first\ns 2 1\n")
        mesh = load_mesh(path)
        assert mesh.vertices[:, 0].tolist() == [0.0, 10.0, 25.0]
        assert mesh.simplices.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("text, error", [
        ("dim 1\nv 0.0\nv x\nq\n", r"bad coordinate.*m\.mesh:3"),
        ("dim 1\nv 0.0\nv 1.0\ns 0 y\nv z\n", r"bad vertex id.*m\.mesh:4"),
        ("dim 1\nv a\ns 0 b\n", r"bad coordinate.*m\.mesh:2"),
        ("dim 1\ns 0 b\nv a\n", r"bad vertex id.*m\.mesh:2"),
        ("dim 1\nv 0\nv 1\ns 0 5\ns 0 x\n", r"bad vertex id.*m\.mesh:5"),
        ("dim 1\nv 0\nv 1\ns 0 1 2\nv w\n", r"needs 2 vertex ids.*m\.mesh:4"),
        ("dim 2\nv 0 0\nv 1 0\nv 0 1\ns 0 1 2\ndim 2\n", r"duplicate dim.*m\.mesh:6"),
    ])
    def test_first_bad_line_is_reported(self, tmp_path, text, error):
        path = tmp_path / "m.mesh"
        path.write_text(text)
        with pytest.raises(ValidationError, match=error):
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
    assert mesh.wmin == pytest.approx(gaps.min(), rel=1e-12)
    assert max(map(len, mesh.stars)) == (2 if len(xs) > 2 else 1)


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


# ---------------------------------------------------------------------------
# the array build against the scalar reference
# ---------------------------------------------------------------------------

FIELDS = ("vertices", "simplices", "neighbor_matrix", "widths", "measures",
          "centroids")


def _assert_same_mesh(got, want):
    assert got.dim == want.dim
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert len(got.stars) == len(want.stars)
    for a, b in zip(got.stars, want.stars):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _is_id(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _outcome(build, verts, simps):
    """The mesh ``build`` returns, or the (message, location) it raises."""
    try:
        return build(np.array(verts, dtype=np.float64), simps)
    except ValidationError as exc:
        return str(exc), exc.location


def _assert_same_outcome(verts, simps):
    """Both builds give the same mesh or raise the same error, for the
    sequence input and, where its integer ids form one int64 array, the
    array."""
    want = _outcome(reference_build_mesh, verts, simps)
    inputs = [simps]
    try:
        if all(_is_id(v) for row in simps for v in row):
            inputs.append(np.array(simps, dtype=np.int64))
    except (ValueError, OverflowError):
        pass
    for rows in inputs:
        got = _outcome(build_mesh, verts, rows)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_mesh(got, want)
    return want


@st.composite
def valid_meshes(draw):
    """(vertices, simplices) of a valid 1D or 2D mesh, ids and rows shuffled.

    1D: graded and jittered breakpoints.  2D: a jittered, skewed grid with
    random cell diagonals, or a strip of obtuse triangles.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["line", "grid", "strip"]))
    if kind == "line":
        n = draw(st.integers(1, 40))
        grade = draw(st.floats(0.0, 3.0))
        u = np.arange(n + 1) / n
        xs = u * (1.0 + grade * u)
        xs[1:-1] += draw(st.floats(0.0, 0.4)) * rng.uniform(-1, 1, n - 1) \
            * np.diff(xs).min()
        verts = xs[:, None]
        simps = [(i, i + 1) for i in range(n)]
    elif kind == "grid":
        nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        skew, jitter = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.3))
        j, i = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
        verts = np.stack([i / nx + skew * j / ny, j / ny], axis=1)
        verts += jitter * rng.uniform(-0.5, 0.5, verts.shape) / max(nx, ny)
        simps = []
        for cj in range(ny):
            for ci in range(nx):
                a = cj * (nx + 1) + ci
                b, c, d = a + 1, a + nx + 1, a + nx + 2
                simps += [(a, b, d), (a, d, c)] if rng.random() < 0.5 \
                    else [(a, b, c), (b, d, c)]
    else:
        cells = draw(st.integers(1, 10))
        height = draw(st.floats(0.05, 0.45))
        verts = np.array([(float(i), 0.0) for i in range(cells + 1)]
                         + [(i + 0.5, height) for i in range(cells)])
        top = cells + 1
        simps = []
        for i in range(cells):
            simps.append((i, i + 1, top + i))
            if i + 1 < cells:
                simps.append((top + i, i + 1, top + i + 1))
    perm = rng.permutation(len(verts))
    verts = verts[np.argsort(perm)]
    simps = [tuple(int(perm[v]) for v in rng.permutation(row))
             for row in simps]
    order = rng.permutation(len(simps))
    return verts.tolist(), [simps[s] for s in order]


DEFECTS = ("range", "repeated", "duplicate", "degenerate", "unused",
           "non-manifold", "overlap", "arity", "overflow", "non-integer")


def _inject(rng, verts, simps, defect):
    """Add one defect of the named kind to the mesh lists, in place."""
    n, m = len(verts), len(simps)
    dim = len(verts[0])
    # Id defects may stack on one row; geometric ones need a row whose ids
    # an earlier defect left intact.
    rows = [s for s, row in enumerate(simps) if len(row) == dim + 1
            and (defect in ("range", "repeated", "duplicate", "arity", "non-integer")
                 or all(_is_id(v) and 0 <= v < n for v in row))]
    if not rows:
        return
    r = rows[int(rng.integers(len(rows)))]
    row = list(simps[r])
    if defect == "range":
        row[int(rng.integers(len(row)))] = int(rng.choice(
            [n, n + 2, -1, -3, 2**63 + 5, -(10**30)]))
        simps[r] = tuple(row)
    elif defect == "repeated":
        i, j = rng.choice(len(row), 2, replace=False)
        row[j] = row[i]
        simps[r] = tuple(row)
    elif defect == "duplicate":
        simps.insert(int(rng.integers(r + 1, m + 1)), tuple(rng.permutation(row)))
    elif defect == "degenerate":
        a, b = row[0], row[1]
        if dim == 1:
            verts[b] = list(verts[a])
        else:
            t = rng.uniform(-1.0, 2.0)
            verts[row[2]] = [verts[a][d] + t * (verts[b][d] - verts[a][d])
                             for d in range(2)]
    elif defect == "unused":
        verts.append([float(x) for x in rng.uniform(-1.0, 2.0, dim)])
    elif defect == "non-manifold":
        verts.append([float(x) for x in rng.uniform(-1.0, 2.0, dim)])
        shared = [int(v) for v in rng.permutation(row)[:dim]]
        simps.insert(int(rng.integers(m + 1)), tuple(shared) + (n,))
    elif defect == "overlap" and dim == 1:
        lo, hi = sorted(verts[v][0] for v in row)
        verts += [[lo + 0.25 * (hi - lo)], [hi + 0.5 * (hi - lo)]]
        simps.append((n, n + 1))
    elif defect == "arity":
        simps[r] = tuple(row[:-1]) if rng.random() < 0.5 else tuple(row) + (row[0],)
    elif defect == "non-integer":
        # A float equal to the id is what numpy truncated back to the id.
        i = int(rng.integers(len(row)))
        v = int(row[i]) if _is_id(row[i]) else 0
        wrong = [float(v), v + 0.5, True, False, np.True_, str(v), None]
        row[i] = wrong[int(rng.integers(len(wrong)))]
        simps[r] = tuple(row)
    elif defect == "overflow":
        # Finite, but the squares of the row's edges overflow.
        verts[row[-1]] = [float(rng.choice([-1.0, 1.0])) * 1e308] * dim


@given(valid_meshes())
@settings(max_examples=150, deadline=None)
def test_build_matches_scalar_reference(mesh):
    verts, simps = mesh
    assert not isinstance(_assert_same_outcome(verts, simps), tuple)


@given(valid_meshes(), st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_defects_raise_what_the_reference_raises(mesh, defects, seed):
    verts, simps = mesh
    rng = np.random.default_rng(seed)
    for defect in defects:
        _inject(rng, verts, simps, defect)
    _assert_same_outcome(verts, simps)


DEFECT_MESSAGES = {"range": "out of range", "repeated": "repeated vertex",
                   "duplicate": "duplicate simplex", "degenerate": "degenerate",
                   "unused": "not part of any simplex", "non-manifold": "non-manifold",
                   "overlap": "overlap", "arity": "vertices, expected",
                   "overflow": "too large", "non-integer": "not an integer"}


# Triangles are not checked for overlap.
@pytest.mark.parametrize("dim, defect", [(d, k) for d in (1, 2) for k in DEFECTS
                                         if (d, k) != (2, "overlap")])
def test_each_defect_is_reported(dim, defect):
    """Each kind of injected defect, alone, shows up as its own error."""
    if dim == 1:
        verts, simps = [[0.0], [1.0], [2.5], [3.0], [4.5]], \
            [(0, 1), (2, 1), (2, 3), (3, 4)]
    else:
        verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
        simps = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    messages = []
    for seed in range(20):
        v, s = [list(x) for x in verts], list(simps)
        _inject(np.random.default_rng(seed), v, s, defect)
        got = _assert_same_outcome(v, s)
        if isinstance(got, tuple):
            messages.append(got[0])
    assert any(DEFECT_MESSAGES[defect] in msg for msg in messages)
