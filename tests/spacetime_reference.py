"""Dict-keyed reference for :class:`tentmesh.pitcher.SpacetimeMesh`.

Every event is looked up by its ``(vertex, float time)`` key in a dict and
made on first reference, one element corner at a time.  ``tests/test_pitcher.py``
feeds it the same ``add_patch`` calls as real runs and holds the per-vertex
event table to it: events, elements, patches and deps must all be equal.
"""

from __future__ import annotations

import numpy as np

from tentmesh.mesh import SpaceMesh


class ReferenceSpacetimeMesh:
    def __init__(self, space: SpaceMesh):
        self.space = space
        self._index: dict[tuple[int, float], int] = {}
        self.event_vertex: list[int] = []
        self.event_time: list[float] = []
        self.elements: list[list[int]] = []
        self.element_space: list[int] = []
        self.element_patch: list[int] = []
        self.patches: list[tuple] = []
        self._last_patch_on = np.full(space.n_simplices, -1, dtype=np.int64)

    def _event(self, vid: int, t: float) -> int:
        key = (int(vid), float(t))
        got = self._index.get(key)
        if got is None:
            got = len(self.event_vertex)
            self._index[key] = got
            self.event_vertex.append(int(vid))
            self.event_time.append(float(t))
        return got

    def add_patch(self, p, t_base, t_top, height, sids, base_times):
        """Add one patch; returns (index, vertex, base, top, height,
        facets, elements, deps) as Python values."""
        eb = self._event(p, t_base)
        et = self._event(p, t_top)
        pid = len(self.patches)
        elems = []
        deps = []
        for sid in sids:
            row = self.space.simplices[sid]
            ev = [eb, et] + [self._event(int(v), float(base_times[v]))
                             for v in row if v != p]
            deps.append(int(self._last_patch_on[sid]))
            self._last_patch_on[sid] = pid
            elems.append(len(self.elements))
            self.elements.append(ev)
            self.element_space.append(int(sid))
            self.element_patch.append(pid)
        patch = (pid, int(p), float(t_base), float(t_top), float(height),
                 [int(s) for s in sids], elems, deps)
        self.patches.append(patch)
        return patch
