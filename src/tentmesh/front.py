"""The advancing front: a piecewise-linear time function over mesh vertices.

A front assigns one time to every vertex; each mesh simplex lifted to those
times is a facet of the evolving spacetime terrain.  Fronts are persistent
values: :func:`advance` returns a new front and never mutates its input, so
the pitching driver can keep hierarchy state and front snapshots consistent
without defensive copies.

Fronts start at time zero everywhere (or at caller-provided times, which are
validated for causality against the field before being accepted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintConfig, front_causality_report
from .errors import InvalidArgument, NotFound, ValidationError
from .fields import SlopeField
from .mesh import SpaceMesh


@dataclass(frozen=True)
class Front:
    mesh: SpaceMesh
    times: np.ndarray  # (n_vertices,), read-only

    def min_time(self) -> float:
        return float(self.times.min())

    def max_time(self) -> float:
        return float(self.times.max())

    def argmin_vertex(self) -> int:
        """Vertex with the smallest time; ties go to the smallest id."""
        return int(np.argmin(self.times))


def initial_front(mesh: SpaceMesh, times=None, field: SlopeField | None = None,
                  config: ConstraintConfig | None = None) -> Front:
    """Front at the initial times (zero by default).

    When explicit ``times`` are given, a field is required and the front is
    validated to be causal; a non-causal start would poison every guarantee
    downstream, so it is rejected with :class:`ValidationError`.
    """
    if times is None:
        t = np.zeros(mesh.n_vertices)
    else:
        t = np.asarray(times, dtype=np.float64).copy()
        if t.shape != (mesh.n_vertices,):
            raise ValidationError(
                f"need {mesh.n_vertices} vertex times, got shape {t.shape}"
            )
        if t.min() < 0.0:
            raise ValidationError(f"vertex times must be >= 0, got {t.min()}")
        if field is None:
            raise InvalidArgument("validating explicit start times requires a field")
        if config is None:
            config = ConstraintConfig.for_problem(mesh, field)
        report = front_causality_report(mesh, t, field, config)
        bad = np.flatnonzero(~report["satisfied"])
        if bad.size:
            sid = int(bad[0])
            raise ValidationError(
                f"start times are not causal: facet {sid} has slack "
                f"{report['slack'][sid]:.3e}"
            )
    t.setflags(write=False)
    return Front(mesh=mesh, times=t)


def local_minima(front: Front) -> np.ndarray:
    """Vertices no later than all their neighbors, ascending by id.

    Ties count: a vertex at the same time as its earliest neighbor is still a
    local minimum (so plateaus are pitchable and the set is never empty).
    """
    mat = front.mesh.neighbor_matrix
    neighbor_times = np.where(mat >= 0, front.times[mat], np.inf)
    return np.flatnonzero(front.times <= neighbor_times.min(axis=1))


def advance(front: Front, p: int, dt: float) -> Front:
    """New front with vertex ``p`` lifted by a finite ``dt >= 0``."""
    if not 0 <= p < front.mesh.n_vertices:
        raise NotFound(f"vertex {p} does not exist")
    if not (dt >= 0.0 and math.isfinite(dt)):
        raise InvalidArgument(f"lift must be finite and nonnegative, got {dt}")
    t = front.times.copy()
    t[p] += dt
    t.setflags(write=False)
    return Front(mesh=front.mesh, times=t)


def export_snapshot(front: Front, path) -> None:
    """Write the front as ``t <vertex> <time>`` lines (times via repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        for v, t in enumerate(front.times):
            fh.write(f"t {v} {float(t)!r}\n")


def export_terrain(front: Front, path) -> None:
    """Write the front as a Wavefront OBJ surface (time as the last axis).

    1D fronts become polylines (``l`` records), 2D fronts triangle surfaces
    (``f`` records); any standard mesh viewer can display the result.
    """
    mesh = front.mesh
    with open(path, "w", encoding="utf-8") as fh:
        for v in range(mesh.n_vertices):
            x = mesh.vertices[v]
            t = float(front.times[v])
            if mesh.dim == 1:
                fh.write(f"v {float(x[0])!r} {t!r} 0.0\n")
            else:
                fh.write(f"v {float(x[0])!r} {float(x[1])!r} {t!r}\n")
        tag = "l" if mesh.dim == 1 else "f"
        for row in mesh.simplices:
            ids = " ".join(str(int(v) + 1) for v in row)  # OBJ is 1-based
            fh.write(f"{tag} {ids}\n")
