"""Output checks that rely only on the generated inputs, never on the program.

:class:`Checker` reads an ``--out`` file with its own parser and tests it
against properties every tent-pitching run must have:

* ``volume``: the element volumes, recomputed from the ``--out`` coordinates,
  sum to the prism between the initial (all-zero) front and the final front
  within 1e-9 relative;
* ``height_floor``: every tentpole is at least ``Tmin`` tall, with ``Tmin``
  computed here from the generated mesh and field (``sigma_min * w_min`` in
  1D, ``epsilon * sigma_min * w_min`` in 2D);
* ``causality``: the top facet of every element is no steeper than the
  smallest slope the field gives at that facet's vertices, evaluated from
  this file's own copy of the field formula (for a scripted table, the
  largest value the element ever takes);
* ``end_of_run``: every vertex reaches the target time, or, for a run cut
  off by ``--max-patches``, exactly that many patches were made;
* ``format``: the file parses, events sit on mesh vertices, and each element
  is a lifted mesh simplex whose first two events are its tentpole;
* ``determinism``: every ``--out`` a checker sees has the bytes of the first.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from gen import EPSILON, Case

VOLUME_RTOL = 1e-9
SLOPE_RTOL = 1e-9    # float noise in gradients recomputed from text
FLOOR_RTOL = 1e-9    # Tmin here and in the program round differently

CHECKS = ("format", "volume", "height_floor", "causality", "end_of_run",
          "determinism")


class CheckFailed(Exception):
    pass


def parse_out(text: str):
    """(stdim, events (N, stdim), elements (E, stdim + 1), simplex ids (E,), patch ids (E,))."""
    lines = text.split("\n")
    try:
        stdim = int(lines[0].split()[1])
        n_ev = int(lines[1].split()[1])
        ev_lines = lines[2:2 + n_ev]
        if any(not ln.startswith("v ") for ln in ev_lines):
            raise CheckFailed("bad event line")
        events = np.array([[float(x) for x in ln.split()[1:]] for ln in ev_lines])
        at = 2 + n_ev
        if not lines[at].startswith("elements "):
            raise CheckFailed("missing elements header")
        n_el = int(lines[at].split()[1])
        el_lines = lines[at + 1:at + 1 + n_el]
        if len(el_lines) != n_el or any(not ln.startswith("e ") for ln in el_lines):
            raise CheckFailed("element count does not match its header")
        rows = np.array([[int(x) for x in ln.split()[1:]] for ln in el_lines],
                        dtype=np.int64).reshape(n_el, stdim + 3)
    except (IndexError, ValueError) as exc:
        raise CheckFailed(f"unparsable --out: {exc}") from None
    if events.shape != (n_ev, stdim):
        raise CheckFailed("event coordinates have the wrong width")
    return stdim, events, rows[:, :stdim + 1], rows[:, -2], rows[:, -1]


class Checker:
    """Checks for one generated :class:`Case`; build once, call per round."""

    def __init__(self, case: Case):
        self.case = case
        v, s = case.vertices, case.simplices
        pts = v[s]                                   # (m, k, d)
        if case.dim == 1:
            self.measures = np.abs(pts[:, 1, 0] - pts[:, 0, 0])
            widths = self.measures
        else:
            e1, e2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
            area2 = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
            edges = np.stack([e1, e2, pts[:, 2] - pts[:, 1]], axis=1)
            longest = np.sqrt((edges ** 2).sum(axis=2)).max(axis=1)
            self.measures = area2 / 2.0
            widths = area2 / longest
        scale = 1.0 if case.dim == 1 else EPSILON
        self.tmin = scale * case.sigma_min() * float(widths.min())
        self.vertex_of = {tuple(row): k for k, row in enumerate(v.tolist())}
        self.simplex_of = {tuple(sorted(row)): k for k, row in enumerate(s.tolist())}
        if case.field_kind == "table":
            self.sigma_cap = case.sigma_max_per_element()
        self.first_digest: str | None = None

    def sigma(self, x: np.ndarray, t: np.ndarray, elem: np.ndarray) -> np.ndarray:
        """Field slope at points ``x`` (N, d), times ``t`` (N,), elements (N,)."""
        if self.case.field_kind == "table":
            return self.sigma_cap[elem]
        c = self.case.cone
        dist = np.linalg.norm(x - np.asarray(c["center"])[None, :], axis=1)
        inside = (t - c["t_apex"]) >= c["cone_slope"] * dist
        return np.where(inside, c["sigma_inside"], c["sigma_outside"])

    def check(self, text: str) -> tuple[dict, dict]:
        """Run every check on ``--out`` text of one run.

        Returns (failures by check name, summary with ``elements``,
        ``patches``, ``mean_height`` and ``mean_height_ratio``).
        """
        fails: dict[str, list[str]] = {name: [] for name in CHECKS}
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            fails["determinism"].append(
                f"--out sha256 {digest} differs from the first run's {self.first_digest}")
        try:
            stdim, events, elems, sids, pids = parse_out(text)
        except CheckFailed as exc:
            fails["format"].append(str(exc))
            return fails, {}
        d = stdim - 1
        if d != self.case.dim or elems.size == 0 or (elems >= len(events)).any():
            fails["format"].append("wrong dimension, no elements or bad event id")
            return fails, {}
        xs, ts = events[:, :d], events[:, d]
        vid = np.array([self.vertex_of.get(tuple(row), -1) for row in xs.tolist()])
        if (vid < 0).any():
            fails["format"].append("event off the mesh vertices")
            return fails, {}

        # Structure: (apex base, apex top, others); others + apex = a simplex.
        ev_v = vid[elems]
        own_sid = np.array([self.simplex_of.get(tuple(sorted(r)), -1)
                            for r in ev_v[:, 1:].tolist()])
        if (ev_v[:, 0] != ev_v[:, 1]).any() or (own_sid != sids).any():
            fails["format"].append("element is not a lifted mesh simplex")
            return fails, {}
        heights_el = ts[elems[:, 1]] - ts[elems[:, 0]]
        first = np.unique(pids, return_index=True)[1]
        patch_of = np.searchsorted(np.unique(pids), pids)
        if ((elems[:, :2] != elems[first][patch_of, :2]).any()):
            fails["format"].append("elements of one patch disagree on the tentpole")
        heights = heights_el[first]

        # Volume: |det| / (d+1)! of each spacetime simplex vs the swept prism.
        sim = events[elems]                            # (E, d+2, d+1)
        vols = np.abs(np.linalg.det(sim[:, 1:] - sim[:, :1])) / math.factorial(d + 1)
        final = np.zeros(len(self.case.vertices))
        np.maximum.at(final, vid, ts)
        prism = float((self.measures * final[self.case.simplices].mean(axis=1)).sum())
        total = float(vols.sum())
        if not abs(total - prism) <= VOLUME_RTOL * abs(prism):
            fails["volume"].append(f"element volumes {total!r} vs prism {prism!r}")

        # Height floor.
        low = heights < self.tmin * (1.0 - FLOOR_RTOL)
        if low.any():
            fails["height_floor"].append(
                f"{int(low.sum())} tentpoles below Tmin {self.tmin!r} "
                f"(lowest {float(heights.min())!r})")

        # Causality of every element's top facet (events 1 .. d+1).
        top = sim[:, 1:]                               # (E, d+1, d+1)
        dx = top[:, 1:, :d] - top[:, :1, :d]           # (E, d, d)
        dt = top[:, 1:, d] - top[:, :1, d]             # (E, d)
        grad = np.linalg.solve(dx, dt[:, :, None])[:, :, 0]
        steep = np.sqrt((grad ** 2).sum(axis=1))
        k = d + 1
        bound = self.sigma(top[:, :, :d].reshape(-1, d), top[:, :, d].reshape(-1),
                           np.repeat(sids, k)).reshape(-1, k).min(axis=1)
        bad = steep > bound * (1.0 + SLOPE_RTOL)
        if bad.any():
            i = int(np.argmax(steep / bound))
            fails["causality"].append(
                f"{int(bad.sum())} top facets steeper than the field "
                f"(worst element {i}: {float(steep[i])!r} > {float(bound[i])!r})")

        # End of run.
        n_patches = len(heights)
        if self.case.max_patches is not None:
            if n_patches != self.case.max_patches or pids.max() != n_patches - 1:
                fails["end_of_run"].append(
                    f"{n_patches} patches, expected {self.case.max_patches}")
        elif final.min() < self.case.target_time:
            fails["end_of_run"].append(
                f"front minimum {float(final.min())!r} below target "
                f"{self.case.target_time!r}")

        mean_h = float(heights.mean())
        summary = {"elements": len(elems), "patches": n_patches,
                   "mean_height": mean_h, "mean_height_ratio": mean_h / self.tmin}
        return fails, summary
