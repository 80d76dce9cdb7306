"""Dict-keyed reference for :class:`tentmesh.pitcher.SpacetimeMesh`.

The reference keeps its own front array, and every event is looked up by
its ``(vertex, float time)`` key in a dict and made on first reference, one
element corner at a time.  ``tests/test_pitcher.py`` feeds it the same
``add_patch(p, height)`` calls as real runs and holds the per-vertex event
table to it: events, elements, patches and deps must all be equal.
"""

from __future__ import annotations

import numpy as np

from tentmesh.mesh import SpaceMesh


class ReferenceSpacetimeMesh:
    def __init__(self, space: SpaceMesh, times):
        self.space = space
        self.front = np.array(times, dtype=np.float64)
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

    def add_patch(self, p, height):
        """Lift p by ``height`` over its star; returns (index, vertex, base,
        top, height, facets, elements, deps) as Python values."""
        t_base = float(self.front[p])
        t_top = t_base + float(height)
        eb = self._event(p, t_base)
        et = self._event(p, t_top)
        pid = len(self.patches)
        sids = [int(s) for s in self.space.stars[p]]
        elems = []
        deps = []
        for sid in sids:
            row = self.space.simplices[sid]
            ev = [eb, et] + [self._event(int(v), float(self.front[v]))
                             for v in row if v != p]
            deps.append(int(self._last_patch_on[sid]))
            self._last_patch_on[sid] = pid
            elems.append(len(self.elements))
            self.elements.append(ev)
            self.element_space.append(sid)
            self.element_patch.append(pid)
        self.front[p] = t_top
        patch = (pid, int(p), t_base, t_top, float(height), sids, elems, deps)
        self.patches.append(patch)
        return patch
