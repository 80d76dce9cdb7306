"""Scalar reference for :func:`tentmesh.mesh.build_mesh`.

One simplex, one vertex and one edge at a time, with tuple keys, a ``seen``
dict and one ``np.linalg.norm`` per edge.  ``tests/test_mesh.py`` holds the
array build to it: every field must match in bytes and dtype, and every
invalid input must raise the same message at the same location.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from tentmesh.errors import ValidationError
from tentmesh.geometry import DEGENERACY_RATIO
from tentmesh.mesh import SpaceMesh


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


def reference_build_mesh(vertices, simplices) -> SpaceMesh:
    """The per-simplex build; raises :class:`ValidationError` on the first problem."""
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

    widths = np.empty(m)
    measures = np.empty(m)
    for k in range(m):
        pts = verts[sorted_rows[k]]
        with np.errstate(over="ignore", invalid="ignore"):
            width, measure, diam = _simplex_width_and_measure(pts)
        if not all(math.isfinite(v) for v in (width, measure, diam)):
            raise ValidationError(
                f"simplex {tuple(sorted_rows[k].tolist())} is too large: its size "
                f"overflows (width {width:g}, measure {measure:g})",
                f"simplex {k}",
            )
        if width < DEGENERACY_RATIO * diam or diam == 0.0:
            raise ValidationError(
                f"degenerate simplex {tuple(sorted_rows[k].tolist())} (width {width:g})",
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

    return SpaceMesh(
        dim=dim,
        vertices=verts,
        simplices=sorted_rows,
        stars=[np.array(s, dtype=np.int64) for s in stars],
        neighbor_matrix=neighbor_matrix,
        widths=widths,
        measures=measures,
        centroids=centroids,
    )
