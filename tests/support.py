"""Shared helpers for the test suite."""

from __future__ import annotations

import hashlib

import numpy as np

from tentmesh.constraints import (
    ConstraintConfig,
    Facets,
    facet_verdicts,
    front_causality_report,
)
from tentmesh.fields import ConstantField, SpatialConeField, TableField, TimeStepField
from tentmesh.front import Front, advance, initial_front, local_minima
from tentmesh.mesh import build_mesh, grid_mesh, interval_mesh
from tentmesh.pitcher import advance_until


def random_front(mesh, config: ConstraintConfig, rng: np.random.Generator,
                 pitches: int) -> Front:
    """A front reached by random floor-bounded pitches from the zero front.

    Every lift stays within the guaranteed step floor, so by the preservation
    guarantees the result is causal (1D) and progressive (2D) no matter which
    local minima the generator picks.
    """
    fr = initial_front(mesh)
    tmin = config.tmin(mesh.dim)
    for _ in range(pitches):
        mins = local_minima(fr)
        p = int(rng.choice(mins))
        fr = advance(fr, p, float(rng.uniform(0.0, tmin)))
    return fr


def plane_fit_gradient(points: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Least-squares gradient of the linear interpolant (independent oracle)."""
    k = points.shape[0]
    A = np.hstack([points, np.ones((k, 1))])
    coef, *_ = np.linalg.lstsq(A, times, rcond=None)
    return coef[:-1]


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


def whole_front_digest(dim: int, kind: str) -> str:
    """sha256 prefix of the whole-front checks' arrays after a seeded run.

    The front of the run is causal; three times its spread is not, which
    reaches the violated and steep-edge branches too.  ``kind`` is
    ``constant``, ``timestep``, ``cone`` or ``table``.
    """
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
        verdicts = facet_verdicts(Facets.of(mesh, np.arange(mesh.n_simplices)),
                                  times[mesh.simplices], field, cfg)[0]
        for a in (rep["slack"], rep["scale"], rep["sigma"], rep["satisfied"],
                  verdicts.slack, verdicts.scale):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update("".join(verdicts.binding).encode())
    return h.hexdigest()[:16]


def jittered_widths_digest(n: int = 40) -> str:
    """sha256 prefix of the widths of an n x n grid with seeded jitter."""
    base = grid_mesh(n, n)
    rng = np.random.default_rng(n)
    mesh = build_mesh(base.vertices + rng.uniform(
        -0.3 / n, 0.3 / n, size=base.vertices.shape), base.simplices)
    return hashlib.sha256(mesh.widths.tobytes()).hexdigest()[:16]
