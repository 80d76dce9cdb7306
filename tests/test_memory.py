"""What the structures that grow with the mesh hold once built.

``tracemalloc`` sees numpy's buffers as well as Python objects.  Each
structure is built once on a small mesh first, so one-time imports and
caches do not count.  The bound sits above the flat-array layout (about 94
bytes per simplex for the mesh, 93 per facet for the cone tree) and well
below a mesh holding one numpy view per vertex star (about 206) and a tree
holding its bounds in lists of Python floats (about 312).
"""

import tracemalloc

import numpy as np
import pytest

from tentmesh.constraints import ConstraintConfig
from tentmesh.fields import SpatialConeField
from tentmesh.front import initial_front
from tentmesh.hierarchy import build
from tentmesh.mesh import interval_mesh

SEGMENTS = 20_000
BYTES_PER_SIMPLEX = 128


def _breakpoints(m):
    xs = np.cumsum(np.r_[0.0, np.linspace(1.0, 4.0, m)])
    return xs / xs[-1]


def _held(make):
    """(result of ``make()``, bytes it still holds once it returns)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = make()
        return got, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def field():
    return SpatialConeField([0.013], -0.003, 0.5, 1.0, 0.5)


def test_built_mesh_holds_few_bytes_per_simplex():
    interval_mesh(_breakpoints(50))
    xs = _breakpoints(SEGMENTS)
    mesh, held = _held(lambda: interval_mesh(xs))
    assert mesh.n_simplices == SEGMENTS
    assert held <= BYTES_PER_SIMPLEX * SEGMENTS


def test_cone_tree_holds_few_bytes_per_facet(field):
    def setup(m):
        mesh = interval_mesh(_breakpoints(m))
        return mesh, initial_front(mesh), ConstraintConfig.for_problem(mesh, field)

    small = setup(50)
    build(small[0], small[1], field, small[2])
    mesh, front, cfg = setup(SEGMENTS)
    cones, held = _held(lambda: build(mesh, front, field, cfg))
    assert len(cones.slopes) == SEGMENTS
    assert held <= BYTES_PER_SIMPLEX * SEGMENTS
