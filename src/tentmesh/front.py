"""The advancing front: a piecewise-linear time function over mesh vertices.

A front assigns one time to every vertex; each mesh simplex lifted to those
times is a facet of the evolving spacetime terrain.  A :class:`Front` is a
value: :func:`advance` returns a new front and never mutates its input.  The
pitching driver does not copy a front per patch; a run owns one mutable time
array, a :class:`BlockedTimes`, lifts it in place and reads its lowest vertex
from a blocked minimum.  The run's own front and the cone index read that
array through a read-only view, and the fronts a run hands out (snapshots,
the final front) are frozen copies.

Fronts start at time zero everywhere (or at caller-provided times, which are
validated for causality against the field before being accepted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import front_causality_report
from .errors import InvalidArgument, ValidationError, check_vertex
from .fields import SlopeField
from .mesh import SpaceMesh
from .solver import check_fit


@dataclass(frozen=True)
class Front:
    mesh: SpaceMesh
    times: np.ndarray  # (n_vertices,), read-only

    def min_time(self) -> float:
        return float(self.times.min())

    def argmin_vertex(self) -> int:
        """Vertex with the smallest time; ties go to the smallest id."""
        return int(np.argmin(self.times))


def check_times(mesh: SpaceMesh, times: np.ndarray) -> None:
    """Raise :class:`ValidationError` unless ``times`` are one finite,
    nonnegative time per vertex of ``mesh``."""
    if times.shape != (mesh.n_vertices,):
        raise ValidationError(
            f"need {mesh.n_vertices} vertex times, got shape {times.shape}"
        )
    bad = np.flatnonzero(~((times >= 0.0) & (times < math.inf)))
    if bad.size:
        v = int(bad[0])
        raise ValidationError(f"vertex times must be finite and >= 0, got "
                              f"{float(times[v])!r} at vertex {v}")


def initial_front(mesh: SpaceMesh, times=None,
                  field: SlopeField | None = None) -> Front:
    """Front at the initial times (zero by default).

    When explicit ``times`` are given, a field that fits the mesh is
    required and the front is validated to be causal; a non-causal start
    would poison every guarantee downstream, so it is rejected with
    :class:`ValidationError`, as is a field that does not fit.
    """
    if times is None:
        t = np.zeros(mesh.n_vertices)
    else:
        t = np.asarray(times, dtype=np.float64).copy()
        check_times(mesh, t)
        if field is None:
            raise InvalidArgument("validating explicit start times requires a field")
        check_fit(mesh, field)
        report = front_causality_report(mesh, t, field)
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
    """New front with vertex ``p`` lifted by a finite ``dt >= 0``.

    ``p`` is an integer vertex id (see :func:`~tentmesh.errors.check_vertex`)
    and the lifted time must be finite, or :class:`InvalidArgument` is
    raised.
    """
    p = check_vertex(p, front.mesh.n_vertices)
    if not (dt >= 0.0 and math.isfinite(dt)):
        raise InvalidArgument(f"lift must be finite and nonnegative, got {dt}")
    top = float(front.times[p]) + float(dt)
    if not math.isfinite(top):
        raise InvalidArgument(f"lifting vertex {p} by {dt!r} overflows its time")
    t = front.times.copy()
    t[p] = top
    t.setflags(write=False)
    return Front(mesh=front.mesh, times=t)


class BlockedTimes:
    """One mutable time array with a blocked minimum, owned by a run.

    The n times live in a ``(nb, B)`` block array, ``B = isqrt(n)``, padded
    with ``+inf``; ``bmin`` holds each block's minimum.  ``times`` is a
    read-only view of the first n entries, so readers see every lift.  A
    lift rescans one block and :meth:`lowest` scans ``bmin`` and one block:
    O(sqrt n) numpy work per patch.  The times must be finite (see
    :func:`check_times`).
    """

    def __init__(self, times: np.ndarray):
        n = len(times)
        self.B = max(1, math.isqrt(n))
        self.blocks = np.full((-(-n // self.B), self.B), math.inf)
        self._flat = self.blocks.reshape(-1)
        self._flat[:n] = times
        self.times = self._flat[:n]
        self.times.flags.writeable = False
        self.bmin = self.blocks.min(axis=1)

    def lift(self, p: int, dt: float) -> None:
        """Raise vertex ``p`` by ``dt >= 0`` (``times[p] += dt``)."""
        b = p // self.B
        old = self._flat[p]
        self._flat[p] += dt
        if old == self.bmin[b]:
            self.bmin[b] = self.blocks[b].min()

    def lowest(self) -> tuple[float, int]:
        """(time, vertex) of the earliest vertex; ties go to the smallest id,
        as with ``np.argmin(times)``."""
        b = int(np.argmin(self.bmin))
        j = int(np.argmin(self.blocks[b]))
        return float(self.bmin[b]), b * self.B + j


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
