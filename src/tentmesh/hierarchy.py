"""Bounding cone queries for nonlocal causality.

Every front facet owns an influence cone in spacetime: the union of upward
cones of slope ``sigma_f`` with apexes on the lifted facet.  A pitch at a
vertex p must not push the tentpole top into any *remote* cone (one whose
facet is outside p's star), and the conservative slope available to a pitch
is capped by the slopes of the remote cones the tentpole does enter.

Two interchangeable index structures answer those queries:

* :class:`ExhaustiveCones` scans every facet (the reference oracle).
* :class:`ConeHierarchy` is a balanced binary tree over the facets (ordered
  along the line in 1D, by Morton code of centroids in 2D).  Each node keeps
  the spatial bounding box, minimum vertex time, and minimum slope of its
  subtree; ``node_tmin + node_slope * dist(x, bbox)`` then lower-bounds every
  entry time in the subtree, which prunes traversal.  The slope query
  starts its running minimum at the caller's ``ceiling``, so a subtree
  whose smallest slope reaches the ceiling is skipped as well.

The scan evaluates its facets with the vectorized kernel
:func:`entry_times`; the tree evaluates one leaf at a time with its scalar
twin :func:`leaf_entry_time`, which repeats the kernel's IEEE operations in
the same order on Python floats (the tests compare the two by
``float.hex``).  With order-independent min / lexicographic-min combinators
the two structures' answers agree bit for bit; the tree only changes how
much work is done (see the visit counters in :class:`ConeStats`).

Tree layout.  Nodes are numbered in preorder over ranges of ``order``, the
sorted facet ids: the node of [lo, hi) splits at ``mid = (lo + hi) // 2``,
its left child is ``node + 1`` and its right child ``node + 2 * (mid - lo)``
(the left subtree holds ``2 * (mid - lo) - 1`` nodes); a one-facet range is
the leaf of ``order[lo]``.  Traversals carry ``(node, lo, hi)``, and a
leaf's root path comes from the integer descent over these ranges, resumed
at the deepest node of the last path walked whose range holds the leaf, so
no child, parent or leaf arrays exist.  The bounds are built bottom-up one
level of ranges at a time with numpy, each parent the elementwise min / max
of its two children (O(m) in all), and kept, like ``order``, in typed Python
arrays (``array('d')``, ``array('q')``): queries read them one node at a
time, and indexing an ``array`` costs far less than a numpy call on a
one-element slice while holding 8 bytes per entry where a list of Python
floats holds 32.

Walks.  The slope query descends from the root, depth first.  The entry
query starts at the leaf of p's first star facet, since the earliest cone
is usually a near one, and climbs that leaf's root path.  At each level it
searches the off-path sibling depth first, nearer child first, skipping
every subtree whose bound exceeds the best entry so far (a subtree that
only ties it may hold a smaller facet id).  In 1D the climb also stops
once ``node_tmin[0] + node_smin[0] * gap`` exceeds the best entry, where
``gap`` is x's distance to the nearer end of the climbed subtree's
interval that has facets beyond it: segments do not overlap and ``order``
sorts them along the line, so every facet outside the subtree's order range
lies beyond one of its ends, and the root's minima bound them all.  A 1D
query then reads a handful of nodes whatever n is.  Triangles' Morton
boxes overlap, so a facet outside a subtree's range may lie inside its box,
and in 2D the walk climbs to the root.  :meth:`ConeHierarchy.update_star`
climbs each updated leaf's root path, recomputing ancestors until one does
not move.

Entry-time kernel.  The time at which facet f's cone reaches a point x is
``min_y (t_f(y) + sigma_f |x - y|)`` over the facet.  On segments the
minimum sits at an endpoint (the time function is linear with slope within
``sigma_f``).  On triangles it sits at a vertex or on an edge, where the
one-dimensional convex problem has the closed form below; an interior
minimum would need the facet gradient to reach ``sigma_f`` exactly, in which
case the same value is attained on the boundary.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintConfig
from .errors import InvalidArgument, NotFound
from .fields import SlopeField, sampled_min_simplices
from .mesh import SpaceMesh

# Facets per sampling call when build takes the initial cone slopes.
SLOPE_BLOCK = 4096

# Triangle edges (0, 1), (0, 2), (1, 2) as start and end corner indices.
_EDGE_A = np.array([0, 0, 1])
_EDGE_B = np.array([1, 2, 2])


@dataclass
class ConeStats:
    """Work counters; totals since construction.

    ``entry_queries`` and ``slope_queries`` count :meth:`ray_shoot` and
    ``min_slope_intersecting`` calls; ``nodes_visited`` the nodes whose
    bounds they read and ``leaves_evaluated`` the facets whose entry time
    they computed.  The scan counts every remote facet as both.  The tree
    counts what its pruning leaves.  An entry query reads each node it
    takes up in an off-path sibling's subtree, pruned or not, and in 1D
    each node of the climbed path whose end it tests for the stop; the
    integer descent to the star leaf reads no bounds and counts nothing.
    A slope query reads each node it takes off its stack, which depends on
    its ceiling: one whose ceiling is at most the root's smallest slope
    visits only the root.
    """

    entry_queries: int = 0
    slope_queries: int = 0
    nodes_visited: int = 0
    leaves_evaluated: int = 0

    def as_dict(self) -> dict:
        return {
            "cone_entry_queries": self.entry_queries,
            "cone_slope_queries": self.slope_queries,
            "cone_nodes_visited": self.nodes_visited,
            "cone_leaves_evaluated": self.leaves_evaluated,
        }


def entry_times(mesh: SpaceMesh, times: np.ndarray, slopes: np.ndarray,
                x: np.ndarray, fids: np.ndarray) -> np.ndarray:
    """Cone entry times at point ``x`` for the given facets (vectorized).

    This is the single kernel both index structures use; see the module
    docstring for the math.
    """
    fids = np.atleast_1d(np.asarray(fids, dtype=np.int64))
    rows = mesh.simplices[fids]          # (F, k)
    # Coordinates first, so every sum over coordinates is one elementwise
    # add across the outer axis rather than a reduction per point.
    pts = mesh.vertices.T[:, rows]       # (d, F, k)
    T = times[rows]                      # (F, k)
    sig = slopes[fids][:, None]          # (F, 1)
    xc = x[:, None, None]

    diff = pts - xc
    vert_dist = np.sqrt((diff * diff).sum(axis=0))      # (F, k)
    best = (T + sig * vert_dist).min(axis=1)            # vertex candidates

    if mesh.dim == 2:
        # The three edges as one (F, 3) pass.
        A, B = np.take(pts, _EDGE_A, axis=2), np.take(pts, _EDGE_B, axis=2)
        tA, tB = np.take(T, _EDGE_A, axis=1), np.take(T, _EDGE_B, axis=1)
        e = B - A
        L2 = (e * e).sum(axis=0)
        w = xc - A
        u = (w * e).sum(axis=0) / L2
        dperp2 = np.maximum(0.0, (w * w).sum(axis=0) - u * u * L2)
        dt = tB - tA
        disc = sig * sig * L2 - dt * dt
        safe = np.where(disc > 0.0, disc, 1.0)
        v = np.where(disc > 0.0, dt * np.sqrt(dperp2) / np.sqrt(L2 * safe),
                     np.where(dt > 0.0, np.inf, -np.inf))
        s = np.minimum(np.maximum(u - v, 0.0), 1.0)
        dy = xc - (A + s * e)
        val = tA + s * dt + sig * np.sqrt((dy * dy).sum(axis=0))
        best = np.minimum(best, val.min(axis=1))
    return best


def leaf_entry_time(mesh: SpaceMesh, times: np.ndarray, slopes: np.ndarray,
                    x: list[float], fid: int) -> float:
    """:func:`entry_times` of one facet, on Python floats, bit for bit.

    ``x`` is the query point as a list.  Every sum, product and branch
    repeats the kernel's operation in the kernel's order, and the branches
    that stand for ``np.maximum`` and ``np.minimum`` keep their results,
    signed zeros included; only the facet's own corners, times and slope are
    read.
    """
    sqrt, inf = math.sqrt, math.inf
    sig = slopes.item(fid)
    verts, simplices = mesh.vertices, mesh.simplices
    best = inf
    if mesh.dim == 1:
        (x0,) = x
        # Flat indices: row fid of the (m, 2) simplices, row v of the
        # (n, 1) vertices.
        for v in (simplices.item(2 * fid), simplices.item(2 * fid + 1)):
            d = verts.item(v) - x0
            val = times.item(v) + sig * sqrt(d * d)
            if val < best:
                best = val
        return best

    corners = [(*verts[v].tolist(), times.item(v))
               for v in simplices[fid].tolist()]
    x0, x1 = x
    for a0, a1, t in corners:
        d0, d1 = a0 - x0, a1 - x1
        val = t + sig * sqrt(d0 * d0 + d1 * d1)
        if val < best:
            best = val
    c0, c1, c2 = corners
    for (a0, a1, tA), (b0, b1, tB) in ((c0, c1), (c0, c2), (c1, c2)):
        e0, e1 = b0 - a0, b1 - a1
        L2 = e0 * e0 + e1 * e1
        w0, w1 = x0 - a0, x1 - a1
        u = (w0 * e0 + w1 * e1) / L2
        dperp2 = (w0 * w0 + w1 * w1) - u * u * L2
        dt = tB - tA
        disc = sig * sig * L2 - dt * dt
        if disc > 0.0:
            v = dt * sqrt(dperp2 if dperp2 > 0.0 else 0.0) / sqrt(L2 * disc)
        else:
            v = inf if dt > 0.0 else -inf
        s = u - v
        if s < 0.0:
            s = 0.0
        elif s > 1.0:
            s = 1.0
        y0, y1 = x0 - (a0 + s * e0), x1 - (a1 + s * e1)
        val = tA + s * dt + sig * sqrt(y0 * y0 + y1 * y1)
        if val < best:
            best = val
    return best


class _ConesBase:
    """Shared state: the mutable slope store, the current front, counters.

    The store is the index's own copy of ``slopes``, one positive finite
    slope per facet; :meth:`update_star` writes only that copy.
    """

    def __init__(self, mesh: SpaceMesh, front, slopes: np.ndarray):
        slopes = np.array(slopes, dtype=np.float64)
        if slopes.shape != (mesh.n_simplices,):
            raise InvalidArgument(f"expected {mesh.n_simplices} facet slopes, "
                                  f"got shape {slopes.shape}")
        bad = np.flatnonzero(~((slopes > 0.0) & (slopes < math.inf)))
        if bad.size:
            raise InvalidArgument(f"slope must be positive and finite, got "
                                  f"{slopes[bad[0]]} at facet {bad[0]}")
        self.mesh = mesh
        self.front = front
        self.slopes = slopes
        self.stats = ConeStats()

    def set_front(self, front) -> None:
        """Rebind the front; then :meth:`update_star` the facets that moved."""
        self.front = front

    def _check_vertex(self, p: int) -> None:
        if not 0 <= p < self.mesh.n_vertices:
            raise NotFound(f"vertex {p} does not exist")

    def _store(self, sids, slopes) -> list[int]:
        """Check every (facet, slope) pair, then write them; return the ids."""
        ids = np.asarray(sids, dtype=np.int64)
        vals = np.asarray(slopes, dtype=np.float64)
        if ids.ndim != 1 or vals.shape != ids.shape:
            raise InvalidArgument(f"expected one slope per facet, got shapes "
                                  f"{ids.shape} and {vals.shape}")
        ids, vals = ids.tolist(), vals.tolist()
        m = self.mesh.n_simplices
        for fid in ids:
            if not 0 <= fid < m:
                raise NotFound(f"facet {fid} does not exist")
        for fid, s in zip(ids, vals):
            if not 0.0 < s < math.inf:
                raise InvalidArgument(f"slope must be positive and finite, "
                                      f"got {s} at facet {fid}")
        for fid, s in zip(ids, vals):
            self.slopes[fid] = s
        return ids

    def update_star(self, sids, slopes) -> None:
        """Store the cone slopes of facets ``sids``, each positive and finite.

        All pairs are checked before any is written, so a rejected call
        leaves the index as it was.
        """
        self._store(sids, slopes)

    def update_leaf(self, fid: int, slope: float) -> None:
        """:meth:`update_star` of the one facet ``fid``."""
        self.update_star([fid], [slope])

    def _check_slope_query(self, p: int, t_top: float, ceiling: float) -> None:
        self._check_vertex(p)
        if math.isnan(t_top):
            raise InvalidArgument("tentpole top time is NaN")
        if math.isnan(ceiling):
            raise InvalidArgument("slope ceiling is NaN")


class ExhaustiveCones(_ConesBase):
    """Reference implementation: scan all facets for every query."""

    def _remote_entry_times(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        mask = np.ones(self.mesh.n_simplices, dtype=bool)
        mask[self.mesh.stars[p]] = False
        remote = np.flatnonzero(mask)
        self.stats.nodes_visited += len(remote)
        self.stats.leaves_evaluated += len(remote)
        vals = entry_times(self.mesh, self.front.times, self.slopes,
                           self.mesh.vertices[p], remote)
        return remote, vals

    def ray_shoot(self, p: int) -> tuple[float, int | None]:
        """Earliest remote cone above vertex p: (entry time, facet id).

        Ties resolve to the smallest facet id; (inf, None) when p's star
        covers the whole mesh.
        """
        self._check_vertex(p)
        self.stats.entry_queries += 1
        remote, vals = self._remote_entry_times(p)
        if remote.size == 0:
            return math.inf, None
        k = int(np.argmin(vals))  # first minimum = smallest facet id
        return float(vals[k]), int(remote[k])

    def min_slope_intersecting(self, p: int, t_top: float,
                               ceiling: float = math.inf) -> float:
        """Smallest slope among remote cones entered by the tentpole at p.

        A cone counts as intersecting when its entry time at p is <= t_top.
        The answer is ``min(ceiling, that slope)``: ``ceiling`` when the
        tentpole stays clear of all remote cones, +inf by default.  A
        caller that only needs slopes below some value passes it as the
        ceiling, and the tree skips every subtree whose slopes reach it.
        """
        self._check_slope_query(p, t_top, ceiling)
        self.stats.slope_queries += 1
        remote, vals = self._remote_entry_times(p)
        hit = vals <= t_top
        if not hit.any():
            return float(ceiling)
        return min(float(ceiling), float(self.slopes[remote[hit]].min()))


def _packed(typecode: str, values: np.ndarray) -> array:
    """A 1D numpy array as a Python ``array`` of ``typecode``, one copy."""
    out = array(typecode)
    out.frombytes(np.ascontiguousarray(values).view(np.uint8))
    return out


def _morton_order(centroids: np.ndarray) -> np.ndarray:
    """Facet order along a Morton (Z-order) curve of the centroids."""
    lo = centroids.min(axis=0)
    span = centroids.max(axis=0) - lo
    span[span == 0.0] = 1.0
    scaled = ((centroids - lo) / span * 0xFFFF).astype(np.uint64)

    def spread(bits):
        bits = (bits | (bits << 8)) & np.uint64(0x00FF00FF)
        bits = (bits | (bits << 4)) & np.uint64(0x0F0F0F0F)
        bits = (bits | (bits << 2)) & np.uint64(0x33333333)
        bits = (bits | (bits << 1)) & np.uint64(0x55555555)
        return bits

    key = spread(scaled[:, 0]) | (spread(scaled[:, 1]) << np.uint64(1))
    return np.argsort(key, kind="stable")


class ConeHierarchy(_ConesBase):
    """Balanced binary tree over facet cones; see the module docstring."""

    def __init__(self, mesh: SpaceMesh, front, slopes: np.ndarray):
        super().__init__(mesh, front, slopes)
        if mesh.dim == 1:
            order = np.argsort(mesh.centroids[:, 0], kind="stable")
        else:
            order = _morton_order(mesh.centroids)
        m = mesh.n_simplices
        self.order = _packed("q", order)
        self.rank = np.empty(m, dtype=np.int64)  # facet id -> position in order
        self.rank[order] = np.arange(m)

        # Per bound, its facet values in tree order and the elementwise op
        # that combines two of them: tmin, smin, then per coordinate the
        # box's low ends and its high ends.  Each facet value is an
        # elementwise min or max over the k corner columns; a reduction
        # over an axis of length 2 or 3 costs far more.
        cols = mesh.simplices[order].T                  # (k, m)

        def corners(op, values):
            out = op(values[cols[0]], values[cols[1]])
            for c in cols[2:]:
                op(out, values[c], out=out)
            return out

        bounds = [(corners(np.minimum, front.times), np.minimum),
                  (self.slopes[order], np.minimum)]
        bounds += [(corners(np.minimum, x), np.minimum) for x in mesh.vertices.T]
        bounds += [(corners(np.maximum, x), np.maximum) for x in mesh.vertices.T]
        del cols

        # The levels of ranges, root first: each level's nodes, range
        # starts and leaf mask.  A level lists the children of the inner
        # nodes above it as (left, right) pairs, in order.
        levels = []
        node = lo = np.zeros(1, dtype=np.int64)
        hi = np.full(1, m, dtype=np.int64)
        while node.size:
            leaf = hi - lo == 1
            levels.append((node, lo, leaf))
            inner = ~leaf
            node, lo, hi = node[inner], lo[inner], hi[inner]
            mid = (lo + hi) // 2
            node = np.column_stack([node + 1, node + 2 * (mid - lo)]).ravel()
            lo, hi = (np.column_stack([lo, mid]).ravel(),
                      np.column_stack([mid, hi]).ravel())

        # Deepest level first: a leaf takes its facet's bounds and an inner
        # node the elementwise min / max of its two children.  Both are
        # exact, so each bound is the min / max over the node's range.  One
        # 1D array per bound: numpy indexes those far faster than the
        # columns of a 2D block.
        nodes = [np.empty(2 * m - 1) for _ in bounds]
        below = None
        for node, lo, leaf in reversed(levels):
            at_leaf, at_inner = np.flatnonzero(leaf), np.flatnonzero(~leaf)
            leaf_lo = lo[at_leaf]
            level = []
            for i, (facet_values, op) in enumerate(bounds):
                values = np.empty(node.size)
                values[at_leaf] = facet_values[leaf_lo]
                if below is not None:
                    values[at_inner] = op(below[i][0::2], below[i][1::2])
                nodes[i][node] = values
                level.append(values)
            below = level
        del levels, below, bounds

        packed = [_packed("d", values) for values in nodes]
        self.node_tmin, self.node_smin = packed[0], packed[1]
        # Per coordinate, one array over the nodes.
        self.node_lo = packed[2:2 + mesh.dim]
        self.node_hi = packed[2 + mesh.dim:]
        # The last leaf path _leaf_path walked, root first.
        self._path = [(0, 0, m)]

    def _leaf_path(self, r: int) -> list[tuple[int, int, int]]:
        """``(node, lo, hi)`` of the leaf at position r and of its ancestors.

        Root first, leaf last.  The integer descent resumes at the deepest
        node of the last path whose range holds r: the tree's shape never
        changes, so that node is an ancestor of r's leaf as well.  The
        leaves of one star, and of consecutive patches, often sit close in
        ``order``, so most levels are not walked again.  The list is reused
        by the next call.
        """
        path = self._path
        while len(path) > 1 and not path[-1][1] <= r < path[-1][2]:
            path.pop()
        node, lo, hi = path[-1]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if r < mid:
                node, hi = node + 1, mid
            else:
                node, lo = node + 2 * (mid - lo), mid
            path.append((node, lo, hi))
        return path

    def update_star(self, sids, slopes) -> None:
        """Refresh the facets' slopes and time bounds, then their root paths.

        Facet by facet, the leaf climbs its root path, recomputing each
        ancestor from its two children, and stops at the first node whose
        (tmin, smin) did not move: the tree was consistent before that
        leaf changed, so nothing above such a node can move either.
        """
        ids = self._store(sids, slopes)
        tmin, smin, rank = self.node_tmin, self.node_smin, self.rank
        times, simplices, store = self.front.times, self.mesh.simplices, self.slopes
        for fid in ids:
            path = self._leaf_path(rank.item(fid))
            # The corner times' minimum, ties to the later corner as in the
            # build's np.minimum.
            corners = simplices[fid].tolist()
            t = times.item(corners[0])
            for v in corners[1:]:
                u = times.item(v)
                if u <= t:
                    t = u
            s = store.item(fid)
            for node, lo, hi in reversed(path):
                if hi - lo > 1:  # an ancestor: recompute it from its children
                    a, b = node + 1, node + 2 * ((lo + hi) // 2 - lo)
                    # min(x, y), without the builtin's call overhead.
                    ta, tb, sa, sb = tmin[a], tmin[b], smin[a], smin[b]
                    t = tb if tb < ta else ta
                    s = sb if sb < sa else sa
                moved = t != tmin[node] or s != smin[node]
                tmin[node], smin[node] = t, s
                if not moved:
                    break

    def ray_shoot(self, p: int) -> tuple[float, int | None]:
        """Same contract as :meth:`ExhaustiveCones.ray_shoot`.

        The walk starts at the leaf of p's first star facet and climbs its
        root path; see the module docstring.
        """
        self._check_vertex(p)
        self.stats.entry_queries += 1
        mesh, times, slopes = self.mesh, self.front.times, self.slopes
        xl = mesh.vertices[p].tolist()
        star = mesh.stars[p].tolist()
        order, tmin, smin = self.order, self.node_tmin, self.node_smin
        sqrt, inf = math.sqrt, math.inf
        m = mesh.n_simplices

        path = self._leaf_path(self.rank.item(star[0]))
        one_d = mesh.dim == 1
        x0, t0, s0 = xl[0], tmin[0], smin[0]
        blo, bhi = self.node_lo[0], self.node_hi[0]
        boxes = list(zip(xl, self.node_lo, self.node_hi))
        visited = leaves = 0
        best_T = inf
        best_fid: int | None = None
        for i in range(len(path) - 1, 0, -1):
            node, lo, hi = path[i]
            if one_d and best_T < inf:
                # Every facet outside [lo, hi) lies beyond this subtree's
                # interval, at least `gap` from x on the sides with facets.
                # sqrt(gap * gap) rounds as the kernel's distances do.
                visited += 1
                gap = x0 - blo[node] if lo > 0 else inf
                if hi < m and bhi[node] - x0 < gap:
                    gap = bhi[node] - x0
                if t0 + s0 * sqrt(gap * gap) > best_T:
                    break
            parent, plo, phi = path[i - 1]
            # Depth first, the child nearer the path on top; in 1D it is
            # also the child nearer x.
            after = lo == plo   # the sibling's range follows the path's
            if after:
                stack = [(parent + 2 * (hi - plo), hi, phi)]
            else:
                stack = [(parent + 1, plo, lo)]
            while stack:
                nd, a, b = stack.pop()
                visited += 1
                sq = 0.0  # squared distance from x to the node's box
                for xi, clo, chi in boxes:
                    gap = clo[nd] - xi
                    if gap <= 0.0:
                        gap = xi - chi[nd]
                    if gap > 0.0:
                        sq += gap * gap
                if tmin[nd] + smin[nd] * sqrt(sq) > best_T:
                    continue
                if b - a == 1:
                    fid = order[a]
                    if fid in star:
                        continue
                    leaves += 1
                    T = leaf_entry_time(mesh, times, slopes, xl, fid)
                    if T < best_T or (T == best_T and
                                      (best_fid is None or fid < best_fid)):
                        best_T, best_fid = T, fid
                else:
                    mid = (a + b) // 2
                    left = (nd + 1, a, mid)
                    right = (nd + 2 * (mid - a), mid, b)
                    stack += (right, left) if after else (left, right)
        self.stats.nodes_visited += visited
        self.stats.leaves_evaluated += leaves
        return best_T, best_fid

    def min_slope_intersecting(self, p: int, t_top: float,
                               ceiling: float = math.inf) -> float:
        """Same contract as :meth:`ExhaustiveCones.min_slope_intersecting`."""
        self._check_slope_query(p, t_top, ceiling)
        self.stats.slope_queries += 1
        mesh, times, slopes = self.mesh, self.front.times, self.slopes
        xl = mesh.vertices[p].tolist()
        star = mesh.stars[p].tolist()
        order, tmin, smin = self.order, self.node_tmin, self.node_smin
        boxes = list(zip(xl, self.node_lo, self.node_hi))
        sqrt = math.sqrt
        visited = leaves = 0
        best = float(ceiling)
        stack = [(0, 0, mesh.n_simplices)]
        while stack:
            node, lo, hi = stack.pop()
            visited += 1
            s = smin[node]
            if s >= best:
                continue  # nothing below can lower the running minimum
            sq = 0.0  # squared distance from x to the node's box
            for xi, blo, bhi in boxes:
                gap = blo[node] - xi
                if gap <= 0.0:
                    gap = xi - bhi[node]
                if gap > 0.0:
                    sq += gap * gap
            if tmin[node] + s * sqrt(sq) > t_top:
                continue  # no cone in this subtree reaches the tentpole
            if hi - lo == 1:
                fid = order[lo]
                if fid in star:
                    continue
                leaves += 1
                if leaf_entry_time(mesh, times, slopes, xl, fid) <= t_top:
                    best = min(best, slopes.item(fid))
            else:
                mid = (lo + hi) // 2
                # Left subtree on top of the stack so it is explored first.
                stack.append((node + 2 * (mid - lo), mid, hi))
                stack.append((node + 1, lo, mid))
        self.stats.nodes_visited += visited
        self.stats.leaves_evaluated += leaves
        return best


def build(mesh: SpaceMesh, front, field: SlopeField,
          config: ConstraintConfig | None = None,
          use_hierarchy: bool = True) -> _ConesBase:
    """Create the cone index with initial per-facet slopes from the field.

    Initial slopes are the conservative sampled minima over each facet at the
    front's current times, sampled in blocks of :data:`SLOPE_BLOCK` facets
    with the bits of one call over all facets; thereafter the driver
    refreshes them through :meth:`update_star` with the slopes its accepted
    star check sampled, so both index flavors always read the same store.
    ``config`` is not read (the sampling density is the constant
    :data:`~tentmesh.fields.SLOPE_SAMPLES`); it stays for callers that pass
    it by position.
    """
    m = mesh.n_simplices
    slopes = np.empty(m)
    # Blocks of SLOPE_BLOCK rows bound the sampling transients.  A one-row
    # call rounds differently (see sampled_min_simplices), so a one-row
    # tail joins the block before it.
    starts = list(range(0, m, SLOPE_BLOCK))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [m]):
        rows = mesh.simplices[lo:hi]
        slopes[lo:hi] = sampled_min_simplices(
            field, mesh.vertices[rows], front.times[rows],
            elements=np.arange(lo, hi))
    cls = ConeHierarchy if use_hierarchy else ExhaustiveCones
    return cls(mesh, front, slopes)


# Function forms of the index methods; the acceptance tests import these.
def update_leaf(index: _ConesBase, fid: int, slope: float) -> None:
    index.update_leaf(fid, slope)


def ray_shoot(index: _ConesBase, p: int) -> tuple[float, int | None]:
    return index.ray_shoot(p)


def min_slope_intersecting(index: _ConesBase, p: int, t_top: float,
                           ceiling: float = math.inf) -> float:
    return index.min_slope_intersecting(p, t_top, ceiling)
