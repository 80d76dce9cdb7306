"""Wrappers installed from outside the program for the traced run.

Each traced function is replaced at every name a ``tentmesh`` module binds it
under (``pitcher.build_cones`` is ``hierarchy.build``), or on its class for
methods, so every call the program makes goes through the wrapper.  A wrapper
counts calls exactly and accumulates *self time*: its wall time minus the
wall time of wrapped calls made inside it.  Count-only targets add no timing,
so their time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import time

# (metric prefix, defining module, attribute path, timed)
TARGETS = (
    ("mesh.load_mesh", "mesh", "load_mesh", True),
    ("mesh.build_mesh", "mesh", "build_mesh", True),
    ("hierarchy.build", "hierarchy", "build", True),
    ("hierarchy.entry_times", "hierarchy", "entry_times", True),
    ("hierarchy.ConeHierarchy.ray_shoot", "hierarchy", "ConeHierarchy.ray_shoot", True),
    ("hierarchy.ConeHierarchy.update_leaf", "hierarchy", "ConeHierarchy.update_leaf", True),
    ("hierarchy.ConeHierarchy.min_slope_intersecting", "hierarchy",
     "ConeHierarchy.min_slope_intersecting", True),
    ("front.advance", "front", "advance", True),
    ("front.Front.argmin_vertex", "front", "Front.argmin_vertex", True),
    ("front.Front.min_time", "front", "Front.min_time", True),
    ("pitcher.advance_until", "pitcher", "advance_until", True),
    ("pitcher.star_feasible", "pitcher", "star_feasible", True),
    ("pitcher.SpacetimeMesh.add_patch", "pitcher", "SpacetimeMesh.add_patch", True),
    ("constraints.causal_segment", "constraints", "causal_segment", True),
    ("constraints.is_progressive_triangle", "constraints", "is_progressive_triangle", True),
    ("constraints.front_causality_report", "constraints", "front_causality_report", True),
    ("constraints.is_progressive_front", "constraints", "is_progressive_front", True),
    ("geometry.frame", "geometry", "frame", False),
    ("fields.sampled_min_values", "fields", "sampled_min_values", True),
    ("fields.sampled_min_simplices", "fields", "sampled_min_simplices", True),
    ("solver.solve_patch", "solver", "solve_patch", True),
    ("cli.export_spacetime_mesh", "cli", "export_spacetime_mesh", True),
    ("cli.export_vtk", "cli", "export_vtk", True),
    ("cli.write_stats", "cli", "write_stats", True),
)

_MODULES = ("cli", "constraints", "fields", "front", "geometry", "hierarchy",
            "mesh", "pitcher", "solver")


class Tracer:
    """Call counts, self times and truthy-result counts per traced name."""

    def __init__(self):
        self.calls = {name: 0 for name, *_ in TARGETS}
        self.self_s = {name: 0.0 for name, _, _, timed in TARGETS if timed}
        self.truthy = {name: 0 for name, *_ in TARGETS}
        self._child_s: list[float] = []  # wrapped-child time per open frame

    def _timed(self, name, fn):
        calls, self_s, truthy, stack = self.calls, self.self_s, self.truthy, self._child_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
            if result is True:
                truthy[name] += 1
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every traced function inside the imported ``tentmesh``."""
        mods = [importlib.import_module(f"tentmesh.{m}") for m in _MODULES]
        mods.append(importlib.import_module("tentmesh"))
        for name, modname, path, timed in TARGETS:
            owner = importlib.import_module(f"tentmesh.{modname}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, parts[-1])
            wrapped = (self._timed if timed else self._counted)(name, orig)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapped)  # a method: patch the class
                continue
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)


def install_split(cli, marks: dict) -> None:
    """Untraced runs: record when ``cli.run`` enters and leaves ``advance_until``.

    This single wrapper separates setup (parsing, mesh build) from the patch
    loop; nothing else is wrapped.
    """
    inner = cli.advance_until
    clock = time.perf_counter

    def advance_until(*args, **kwargs):
        marks["loop_start"] = clock()
        try:
            return inner(*args, **kwargs)
        finally:
            marks["loop_end"] = clock()

    cli.advance_until = advance_until
