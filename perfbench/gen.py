"""Seeded input generator for the benchmark workloads.

``make_case(workload, seed, workdir)`` writes the workload's mesh, field and
(where used) table and script files into ``workdir`` and returns a
:class:`Case` holding the same data as arrays, so the output checker can work
from the benchmark's own copy of the inputs instead of the program's answers.
The program reads only the files.

Each workload's shape (grading, vertex jitter, slope table, script) is drawn
from a fixed per-workload generator.  ``--seed`` moves the whole domain, and
the field's cone centre with it, by a seeded offset along each axis: a
multiple of 1/64 chosen so that every coordinate lands in one fixed binade
([4, 8) for a unit extent).  Coordinates are snapped to multiples of 2**-40
first, so the shifted coordinates, every difference between them, and the
rounding of any point computed between two of them are the same for every
seed.  Tent pitching depends only on such quantities, so every seed gives the
same patches, heights, element counts and cone-tree visits, while a program
that came to depend on absolute position would show it.  The seed does not
perturb the shape itself because the work is chaotic in it: a 1 % vertex
jitter moved grid2d-cone's bisection steps by about +-10 % between seeds, and
its run time with them.

Floats are written with ``repr`` so the program parses exactly the values the
checker holds; that lets the checker map ``--out`` event coordinates back to
mesh vertices by exact match.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("line1d-100k", "grid2d-cone", "strip2d-checked")

EPSILON = 0.5  # passed to the program explicitly; Tmin in 2D depends on it
_SNAP = 2.0 ** -40


@dataclass
class Case:
    """One generated input set and the command-line flags that run it."""

    workload: str
    dim: int
    vertices: np.ndarray          # (n, dim)
    simplices: np.ndarray         # (m, dim + 1), file order = program ids
    field_kind: str               # "cone" or "table"
    cone: dict | None             # center, t_apex, sigma_inside/outside, cone_slope
    table: np.ndarray | None      # (m,) initial per-element slopes
    script: list[tuple[int, float, float]] = field(default_factory=list)
    target_time: float = 0.0
    max_patches: int | None = None
    assert_invariants: bool = False
    files: dict = field(default_factory=dict)

    def sigma_min(self) -> float:
        """The field's global minimum slope over all time."""
        if self.field_kind == "cone":
            return min(self.cone["sigma_inside"], self.cone["sigma_outside"])
        return min([float(self.table.min())] + [s for _, _, s in self.script])

    def sigma_max_per_element(self) -> np.ndarray:
        """Largest slope each table element ever takes (initial or scripted)."""
        top = self.table.copy()
        for elem, _, sigma in self.script:
            top[elem] = max(top[elem], sigma)
        return top

    def cli_args(self, out: str, vtk: str, stats: str) -> list[str]:
        args = ["--mesh", self.files["mesh"], "--field", self.files["field"],
                "--target-time", repr(self.target_time),
                "--epsilon", repr(EPSILON),
                "--out", out, "--vtk", vtk, "--stats", stats]
        if self.max_patches is not None:
            args += ["--max-patches", str(self.max_patches)]
        if self.script:
            args += ["--script", self.files["script"]]
        if self.assert_invariants:
            args.append("--assert-invariants")
        return args


def _snap(a) -> np.ndarray:
    return np.round(np.asarray(a, dtype=np.float64) / _SNAP) * _SNAP


def _line1d(rng: np.random.Generator) -> Case:
    # 10^5 segments on [0, 1], spacing graded 1:4 from left to right with
    # +-20 % jitter.  A speed-up cone (slope 1 -> 0.5, spreading at the
    # inside wavespeed) already covers a band around x = 0.013 at t = 0, so
    # the left-to-right sweep that --max-patches allows runs into it.
    n = 100_000
    grade = 1.0 + 3.0 * np.arange(n) / n
    h = grade * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, n))
    xs = np.concatenate([[0.0], np.cumsum(h)])
    xs = _snap(xs / xs[-1])
    segs = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    cone = {"center": [0.013], "t_apex": -0.003, "sigma_inside": 0.5,
            "sigma_outside": 1.0, "cone_slope": 0.5}
    return Case("line1d-100k", 1, xs[:, None], segs, "cone", cone, None,
                target_time=1.0, max_patches=3000)


def _grid2d(rng: np.random.Generator) -> Case:
    # The 16 x 16 grid of grid_mesh (512 triangles) with interior vertices
    # jittered by up to 10 % of the spacing; on the regular grid every
    # closed-form cap verifies and bisection never runs.  A slow-down cone
    # (slope 1 -> 2) starts near the origin corner and crosses the square
    # before the target time.
    nx = ny = 16
    h = 1.0 / nx
    verts = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            x, y = i * h, j * h
            if 0 < i < nx and 0 < j < ny:
                dx, dy = 0.1 * h * rng.uniform(-1.0, 1.0, 2)
                x, y = x + dx, y + dy
            verts.append((x, y))
    simps = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b, c = a + 1, a + nx + 1
            simps += [(a, b, c + 1), (a, c + 1, c)]
    target = 0.6 * h   # about two patches per vertex
    cone = {"center": [0.05, 0.05], "t_apex": 0.0, "sigma_inside": 2.0,
            "sigma_outside": 1.0, "cone_slope": target / 1.6}
    return Case("grid2d-cone", 2, _snap(verts), np.array(simps), "cone",
                cone, None, target_time=target)


def _strip2d(rng: np.random.Generator) -> Case:
    # strip_mesh geometry (all-obtuse triangles) with jittered top-row
    # vertices, a per-element slope table, and a script that only raises
    # slopes, fired while the front sweeps to the target.  Run with
    # --assert-invariants, so whole-front re-checks take most of the time.
    cells = 24
    bottom = [(float(i), 0.0) for i in range(cells + 1)]
    top = [(i + 0.5 + 0.05 * rng.uniform(-1.0, 1.0),
            0.3 + 0.02 * rng.uniform(-1.0, 1.0)) for i in range(cells)]
    t0 = cells + 1
    simps = []
    for i in range(cells):
        simps.append((i, i + 1, t0 + i))
        if i + 1 < cells:
            simps.append((t0 + i, i + 1, t0 + i + 1))
    m = len(simps)
    table = rng.uniform(1.0, 2.0, m)
    target = 2.0
    elems = np.sort(rng.choice(m, size=m // 2, replace=False))
    script = [(int(e), float(rng.uniform(0.1, 0.8) * target),
               float(table[e] * rng.uniform(1.2, 1.6))) for e in elems]
    return Case("strip2d-checked", 2, _snap(bottom + top), np.array(simps),
                "table", None, table, script, target_time=target,
                assert_invariants=True)


_BUILDERS = {"line1d-100k": _line1d, "grid2d-cone": _grid2d,
             "strip2d-checked": _strip2d}
_SHAPE_SEEDS = {"line1d-100k": 8040946, "grid2d-cone": 20081,
                "strip2d-checked": 7}


def _offset(rng: np.random.Generator, vertices: np.ndarray) -> np.ndarray:
    """Per-axis shift keeping each axis inside one binade [low, 2 low)."""
    extent = vertices.max(axis=0) - vertices.min(axis=0)
    low = 4.0 * 2.0 ** np.ceil(np.log2(np.maximum(extent, 1.0)))
    steps = ((low - extent) * 64).astype(np.int64)
    return low + rng.integers(0, steps) / 64.0


def make_case(workload: str, seed: int, workdir: str) -> Case:
    """Generate ``workload``, shifted by the offset ``seed`` selects, into ``workdir``."""
    case = _BUILDERS[workload](np.random.default_rng(_SHAPE_SEEDS[workload]))
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    offset = _offset(rng, case.vertices)
    case.vertices = case.vertices + offset
    if case.cone is not None:
        case.cone["center"] = (_snap(case.cone["center"]) + offset).tolist()
    return write_case(case, workdir)


def _write_mesh(path: str, vertices: np.ndarray, simplices: np.ndarray) -> None:
    dim = vertices.shape[1]
    lines = [f"dim {dim}"]
    lines += ["v " + " ".join(repr(float(x)) for x in row) for row in vertices]
    lines += ["s " + " ".join(str(int(v)) for v in row) for row in simplices]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_case(case: Case, workdir: str) -> Case:
    """Write the case's input files into ``workdir`` and record their paths."""
    os.makedirs(workdir, exist_ok=True)
    files = {"mesh": os.path.join(workdir, "mesh.txt"),
             "field": os.path.join(workdir, "field.txt")}
    _write_mesh(files["mesh"], case.vertices, case.simplices)
    if case.field_kind == "cone":
        c = case.cone
        nums = c["center"] + [c["t_apex"], c["sigma_inside"],
                              c["sigma_outside"], c["cone_slope"]]
        field_text = "field cone " + " ".join(repr(float(v)) for v in nums)
    else:
        files["table"] = os.path.join(workdir, "table.txt")
        with open(files["table"], "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} {float(s)!r}\n" for k, s in enumerate(case.table))
        field_text = "field table table.txt"
    with open(files["field"], "w", encoding="utf-8") as fh:
        fh.write(field_text + "\n")
    if case.script:
        files["script"] = os.path.join(workdir, "script.txt")
        with open(files["script"], "w", encoding="utf-8") as fh:
            fh.writelines(f"{e} {t!r} {s!r}\n" for e, t, s in case.script)
    case.files = files
    return case
