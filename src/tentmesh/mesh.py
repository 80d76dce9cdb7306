"""Simplicial space meshes in one and two dimensions.

A mesh is a set of vertices plus segments (1D) or triangles (2D).  Simplices
are stored with their vertex ids sorted ascending and a parallel orientation
flag recording whether that sorted order is positively oriented, so identical
inputs always produce identical in-memory structures and output files.

The text format is line based::

    # comment
    dim 2
    v 0.0 0.0
    v 1.0 0.0
    v 0.0 1.0
    s 0 1 2

``v`` lines assign vertex ids in file order starting at 0.  ``save_mesh``
writes the canonical form of this format (floats via ``repr``, so coordinates
round-trip bit-exactly).

Validation is strict: every vertex must be used, simplices must be
nondegenerate and pairwise distinct, and the mesh must be manifold (a vertex
in at most two segments in 1D, an edge in at most two triangles in 2D).
Boundary vertices are ordinary vertices; nothing here treats them specially.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NotFound, ValidationError
from .geometry import DEGENERACY_RATIO, ApexGeometry, TriangleFrame, frame
from .geometry import apex_geometry as _apex_geometry


class MeshStats(NamedTuple):
    """Quantities the pitching step-size guarantee is built from."""

    wmin: float        # smallest simplex width (min altitude / segment length)
    diameter: float    # largest vertex-to-vertex distance
    max_degree: int    # largest number of simplices sharing one vertex


@dataclass
class SpaceMesh:
    """An immutable simplicial mesh with precomputed adjacency and geometry.

    Treat instances as frozen after construction; the advancing front stores
    times separately and never mutates the mesh.
    """

    dim: int
    vertices: np.ndarray          # (n, dim) float64
    simplices: np.ndarray         # (m, dim+1) int64, rows sorted ascending
    orientations: np.ndarray      # (m,) int8, +1 if sorted order positively oriented

    # Derived structure, filled in by build_mesh.
    stars: list[np.ndarray] = field(default_factory=list)      # vertex -> simplex ids
    neighbors: list[np.ndarray] = field(default_factory=list)  # vertex -> vertex ids
    neighbor_matrix: np.ndarray | None = None                  # (n, maxdeg), -1 padded
    widths: np.ndarray | None = None                           # (m,)
    measures: np.ndarray | None = None                         # (m,) length or area
    centroids: np.ndarray | None = None                        # (m, dim)

    _frame_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]

    @property
    def wmin(self) -> float:
        return float(self.widths.min())

    @property
    def diameter(self) -> float:
        return _diameter(self.vertices)

    @property
    def max_degree(self) -> int:
        return max(len(s) for s in self.stars)

    @functools.cached_property
    def apex_geometry(self) -> ApexGeometry:
        """2D only: :class:`ApexGeometry` of every triangle, row = simplex id.

        Built on first use, by the first 2D causality or progressive check
        of a run, so building a mesh and 1D runs never pay for it.
        """
        return _apex_geometry(self.vertices[self.simplices])

    def simplex_frame(self, sid: int, p: int, q: int, r: int) -> TriangleFrame:
        """Memoized triangle frame for simplex ``sid`` with roles (p, q, r).

        The vertex ids must be the three vertices of the simplex; the roles
        (which vertex is the apex, which end of the opposite edge is q) select
        one of six frames per triangle.
        """
        key = (sid, p, q, r)
        got = self._frame_cache.get(key)
        if got is None:
            got = frame(self.vertices[p], self.vertices[q], self.vertices[r])
            self._frame_cache[key] = got
        return got


def _diameter(vertices: np.ndarray) -> float:
    if vertices.shape[1] == 1:
        return float(vertices.max() - vertices.min())
    # Pairwise distances, blockwise to bound memory on larger meshes.
    best = 0.0
    n = vertices.shape[0]
    step = 1024
    for i in range(0, n, step):
        block = vertices[i : i + step]
        d2 = ((block[:, None, :] - vertices[None, :, :]) ** 2).sum(axis=2)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def _simplex_width_and_measure(pts: np.ndarray) -> tuple[float, float, float]:
    """Width, measure (length/area), and diameter of one simplex."""
    if pts.shape[0] == 2:
        length = float(np.linalg.norm(pts[1] - pts[0]))
        return length, length, length
    e = [pts[1] - pts[0], pts[2] - pts[1], pts[0] - pts[2]]
    lengths = [float(np.linalg.norm(v)) for v in e]
    area2 = abs(float(e[0][0] * (-e[2][1]) - e[0][1] * (-e[2][0])))
    longest = max(lengths)
    width = area2 / longest if longest > 0.0 else 0.0
    return width, 0.5 * area2, longest


def build_mesh(vertices, simplices) -> SpaceMesh:
    """Validate raw arrays and assemble a :class:`SpaceMesh`.

    ``vertices`` is (n, dim) with dim 1 or 2; ``simplices`` is a sequence of
    (dim+1)-tuples of vertex ids in any order.  Raises
    :class:`ValidationError` describing the first problem found.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    if verts.ndim == 1:
        verts = verts[:, None]
    if verts.ndim != 2 or verts.shape[1] not in (1, 2):
        raise ValidationError(f"vertex array must be (n, 1) or (n, 2), got {verts.shape}")
    dim = int(verts.shape[1])
    n = verts.shape[0]
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if bad.size:
        raise ValidationError(f"non-finite coordinates {verts[bad[0]].tolist()}",
                              f"vertex {bad[0]}")

    raw = [tuple(int(v) for v in s) for s in simplices]
    if not raw:
        raise ValidationError("mesh has no simplices")
    m = len(raw)

    sorted_rows = np.empty((m, dim + 1), dtype=np.int64)
    orientations = np.empty(m, dtype=np.int8)
    seen: dict[tuple[int, ...], int] = {}
    for k, row in enumerate(raw):
        where = f"simplex {k}"
        if len(row) != dim + 1:
            raise ValidationError(
                f"simplex has {len(row)} vertices, expected {dim + 1}", where
            )
        for v in row:
            if not 0 <= v < n:
                raise ValidationError(f"vertex id {v} out of range 0..{n - 1}", where)
        key = tuple(sorted(row))
        if len(set(key)) != dim + 1:
            raise ValidationError(f"repeated vertex in simplex {row}", where)
        if key in seen:
            raise ValidationError(
                f"duplicate simplex {row}, same vertices as simplex {seen[key]}", where
            )
        seen[key] = k
        sorted_rows[k] = key
        if dim == 1:
            orientations[k] = 1
        else:
            a, b, c = (verts[i] for i in key)
            signed2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            orientations[k] = 1 if signed2 > 0.0 else -1

    widths = np.empty(m)
    measures = np.empty(m)
    for k in range(m):
        pts = verts[sorted_rows[k]]
        width, measure, diam = _simplex_width_and_measure(pts)
        if width < DEGENERACY_RATIO * diam or diam == 0.0:
            raise ValidationError(
                f"degenerate simplex {tuple(sorted_rows[k])} (width {width:g})",
                f"simplex {k}",
            )
        widths[k] = width
        measures[k] = measure

    stars: list[list[int]] = [[] for _ in range(n)]
    for k in range(m):
        for v in sorted_rows[k]:
            stars[int(v)].append(k)
    for v in range(n):
        if not stars[v]:
            raise ValidationError(f"vertex {v} is not part of any simplex", f"vertex {v}")

    if dim == 1:
        for v in range(n):
            if len(stars[v]) > 2:
                raise ValidationError(
                    f"non-manifold: vertex {v} belongs to {len(stars[v])} segments",
                    f"vertex {v}",
                )
        # Segments may meet only at endpoints: sort by interval and check overlap.
        intervals = sorted(
            (min(verts[a, 0], verts[b, 0]), max(verts[a, 0], verts[b, 0]), k)
            for k, (a, b) in enumerate(sorted_rows)
        )
        for (lo1, hi1, k1), (lo2, hi2, k2) in zip(intervals, intervals[1:]):
            if lo2 < hi1:
                raise ValidationError(
                    f"segments {k1} and {k2} overlap geometrically", f"simplex {k2}"
                )
    else:
        faces_of_edge: dict[tuple[int, int], list[int]] = {}
        for k, row in enumerate(sorted_rows):
            for a, b in itertools.combinations(row, 2):
                faces_of_edge.setdefault((int(a), int(b)), []).append(k)
        for (a, b), faces in faces_of_edge.items():
            if len(faces) > 2:
                raise ValidationError(
                    f"non-manifold: edge ({a}, {b}) belongs to {len(faces)} triangles",
                    f"edge ({a}, {b})",
                )

    neighbors: list[np.ndarray] = []
    for v in range(n):
        adj = set()
        for k in stars[v]:
            adj.update(int(w) for w in sorted_rows[k] if w != v)
        neighbors.append(np.array(sorted(adj), dtype=np.int64))
    maxdeg = max(len(a) for a in neighbors)
    neighbor_matrix = np.full((n, maxdeg), -1, dtype=np.int64)
    for v, adj in enumerate(neighbors):
        neighbor_matrix[v, : len(adj)] = adj

    centroids = verts[sorted_rows].mean(axis=1)

    mesh = SpaceMesh(
        dim=dim,
        vertices=verts,
        simplices=sorted_rows,
        orientations=orientations,
        stars=[np.array(s, dtype=np.int64) for s in stars],
        neighbors=neighbors,
        neighbor_matrix=neighbor_matrix,
        widths=widths,
        measures=measures,
        centroids=centroids,
    )
    verts.setflags(write=False)
    sorted_rows.setflags(write=False)
    return mesh


def vertex_star(mesh: SpaceMesh, v: int) -> np.ndarray:
    """Ids of the simplices containing vertex ``v``, ascending."""
    if not 0 <= v < mesh.n_vertices:
        raise NotFound(f"vertex {v} does not exist (mesh has {mesh.n_vertices})")
    return mesh.stars[v]


def mesh_stats(mesh: SpaceMesh) -> MeshStats:
    """(wmin, diameter, max_degree) for the mesh; see :class:`MeshStats`."""
    return MeshStats(mesh.wmin, mesh.diameter, mesh.max_degree)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def load_mesh(path) -> SpaceMesh:
    """Parse a mesh document; raise :class:`ValidationError` with the offending line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    dim: int | None = None
    verts: list[list[float]] = []
    simps: list[tuple[int, ...]] = []
    simp_lines: list[int] = []

    for lineno, rawline in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        tag, args = tokens[0], tokens[1:]
        if tag == "dim":
            if dim is not None:
                raise ValidationError("duplicate dim line", where)
            if len(args) != 1 or args[0] not in ("1", "2"):
                raise ValidationError(f"dim must be 1 or 2, got {args!r}", where)
            dim = int(args[0])
        elif tag == "v":
            if dim is None:
                raise ValidationError("dim line must come before vertices", where)
            if len(args) != dim:
                raise ValidationError(
                    f"vertex needs {dim} coordinates, got {len(args)}", where
                )
            try:
                verts.append([float(a) for a in args])
            except ValueError as exc:
                raise ValidationError(f"bad coordinate: {exc}", where) from None
        elif tag == "s":
            if dim is None:
                raise ValidationError("dim line must come before simplices", where)
            if len(args) != dim + 1:
                raise ValidationError(
                    f"simplex needs {dim + 1} vertex ids, got {len(args)}", where
                )
            try:
                simps.append(tuple(int(a) for a in args))
            except ValueError as exc:
                raise ValidationError(f"bad vertex id: {exc}", where) from None
            simp_lines.append(lineno)
        else:
            raise ValidationError(f"unknown directive {tag!r}", where)

    if dim is None:
        raise ValidationError("missing dim line", str(path))
    nv = len(verts)
    for row, lineno in zip(simps, simp_lines):
        for v in row:
            if not 0 <= v < nv:
                raise ValidationError(
                    f"simplex references missing vertex {v}", f"{path}:{lineno}"
                )
    try:
        return build_mesh(np.array(verts, dtype=np.float64).reshape(nv, dim), simps)
    except ValidationError as exc:
        # Re-point structural errors at the file (line unknown past parsing).
        raise ValidationError(str(exc), str(path)) from None


def save_mesh(mesh: SpaceMesh, path) -> None:
    """Write the canonical text form (load . save is the identity)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {mesh.dim}\n")
        for row in mesh.vertices:
            fh.write("v " + " ".join(repr(float(x)) for x in row) + "\n")
        for row in mesh.simplices:
            fh.write("s " + " ".join(str(int(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# constructors for common meshes
# ---------------------------------------------------------------------------


def interval_mesh(xs) -> SpaceMesh:
    """1D mesh over the given sorted breakpoints, one segment per gap."""
    xs = np.asarray(xs, dtype=np.float64)
    segs = [(i, i + 1) for i in range(len(xs) - 1)]
    return build_mesh(xs[:, None], segs)


def strip_mesh(cells: int, height: float = 0.3) -> SpaceMesh:
    """A triangle strip of isoceles triangles, all obtuse when height < 1/2.

    Bottom vertices sit at (i, 0), top vertices at (i + 1/2, height);
    triangles alternate pointing up and down.  With a flat profile every
    triangle's widest angle exceeds 90 degrees, which exercises the
    constraint cases where the edge normals of a triangle agree in direction.
    """
    if cells < 1:
        raise ValidationError("strip needs at least one cell")
    bottom = [(float(i), 0.0) for i in range(cells + 1)]
    top = [(i + 0.5, height) for i in range(cells)]
    verts = bottom + top
    t0 = cells + 1  # index of the first top vertex
    simps = []
    for i in range(cells):
        simps.append((i, i + 1, t0 + i))
        if i + 1 < cells:
            simps.append((t0 + i, i + 1, t0 + i + 1))
    return build_mesh(np.array(verts), simps)


def grid_mesh(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0,
              skew: float = 0.0) -> SpaceMesh:
    """Structured triangulated grid on [0, lx] x [0, ly] with nx x ny cells.

    Each cell is split along its lower-left to upper-right diagonal.  A
    nonzero ``skew`` shears the vertex rows in x, which makes the triangles
    increasingly obtuse; handy for stressing the angle-dependent bounds.
    """
    verts = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            verts.append((lx * i / nx + skew * j, ly * j / ny))
    simps = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + (nx + 1)
            d = c + 1
            simps.append((a, b, d))
            simps.append((a, d, c))
    return build_mesh(np.array(verts), simps)
