"""Print the sha256 of every artifact of a fixed set of small CLI runs.

Run from the repository root, against the tree whose bytes you want::

    PYTHONPATH=src python3 tools/fixture_hashes.py [--check]

Each fixture writes its mesh, field, table and script files into a temporary
directory, calls ``tentmesh.cli.main`` once with ``--out``, ``--vtk`` and
``--stats``, and prints one ``<fixture> <artifact> <sha256>`` line per file.
A refactor that must keep behaviour keeps every line.  The lines are pinned
in ``fixture_hashes.txt`` next to this script; ``--check`` compares against
it, prints each line that differs (``-`` pinned, ``+`` now) and exits 1 on
any difference.  ``tests/test_fixture_hashes.py`` runs the check.  A change
that moves bytes on purpose re-pins by writing this script's output to that
file and lists the old and new hashes in CHANGES.md.  The inputs are written
here as text, not through the library, so a change to the mesh writer cannot
move them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from tentmesh.cli import main


def _interval(n: int, jitter: float = 0.0) -> str:
    # Graded breakpoints on [0, 1]: spacing grows 1:3 from left to right.
    # A jitter moves each interior breakpoint by up to that fraction of its
    # local spacing, in a fixed pseudo-random pattern.
    xs = [(i / n) * (0.5 + 0.5 * i / n) for i in range(n + 1)]
    if jitter:
        for i in range(1, n):
            xs[i] += jitter * (xs[i + 1] - xs[i]) * (((37 * i) % 11) - 5) / 5.0
    lines = ["dim 1"] + [f"v {x!r}" for x in xs]
    lines += [f"s {i} {i + 1}" for i in range(n)]
    return "\n".join(lines) + "\n"


def _grid(nx: int, ny: int, jitter: float) -> str:
    # grid_mesh's layout with a fixed, deterministic interior jitter.
    lines = ["dim 2"]
    for j in range(ny + 1):
        for i in range(nx + 1):
            x, y = i / nx, j / ny
            if 0 < i < nx and 0 < j < ny:
                x += jitter / nx * (((7 * i + 3 * j) % 5) - 2) / 2.0
                y += jitter / ny * (((3 * i + 5 * j) % 7) - 3) / 3.0
            lines.append(f"v {x!r} {y!r}")
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b, c = a + 1, a + nx + 1
            lines.append(f"s {a} {b} {c + 1}")
            lines.append(f"s {a} {c + 1} {c}")
    return "\n".join(lines) + "\n"


def _strip(cells: int, height: float = 0.3) -> str:
    # strip_mesh's all-obtuse layout.
    lines = ["dim 2"]
    lines += [f"v {float(i)!r} 0.0" for i in range(cells + 1)]
    lines += [f"v {i + 0.5!r} {height!r}" for i in range(cells)]
    top = cells + 1
    for i in range(cells):
        lines.append(f"s {i} {i + 1} {top + i}")
        if i + 1 < cells:
            lines.append(f"s {top + i} {i + 1} {top + i + 1}")
    return "\n".join(lines) + "\n"


def _table(n: int) -> str:
    return "".join(f"{e} {1.0 + 0.125 * (e % 5)!r}\n" for e in range(n))


def _script(n: int, dt: float = 0.05) -> str:
    # Every third element slows down (its slope rises) at a staggered time.
    rows = [(e, 0.1 + dt * e, 1.5 + 0.125 * (e % 3)) for e in range(0, n, 3)]
    return "".join(f"{e} {t!r} {s!r}\n" for e, t, s in rows)


CELLS = 12

# name -> (files, extra argv); every fixture also gets --out/--vtk/--stats.
FIXTURES = {
    "cone-1d": (
        {"mesh.txt": _interval(60),
         "field.txt": "cone 0.3 0.0 0.5 1.0 0.5\n"},
        ["--target-time", "0.4"],
    ),
    "cone-2d-tree": (
        {"mesh.txt": _grid(8, 8, 0.1),
         "field.txt": "cone 0.1 0.1 0.0 2.0 1.0 0.05\n"},
        ["--target-time", "0.1"],
    ),
    "cone-2d-scan": (
        {"mesh.txt": _grid(8, 8, 0.1),
         "field.txt": "cone 0.1 0.1 0.0 2.0 1.0 0.05\n"},
        ["--target-time", "0.1", "--no-hierarchy"],
    ),
    "strip-table-script-checked": (
        {"mesh.txt": _strip(CELLS),
         "field.txt": "table table.txt\n",
         "table.txt": _table(2 * CELLS - 1),
         "script.txt": _script(2 * CELLS - 1)},
        ["--target-time", "1.0", "--script", "{dir}/script.txt",
         "--assert-invariants"],
    ),
    "table-1d-script-checked": (
        {"mesh.txt": _interval(40, jitter=0.2),
         "field.txt": "table table.txt\n",
         "table.txt": _table(40),
         "script.txt": _script(40, dt=0.02)},
        ["--target-time", "1.0", "--script", "{dir}/script.txt",
         "--assert-invariants"],
    ),
    # A composite of table and cone under a script; the extra row drops a
    # slope below the table's minimum, so the widened sigma_min and tmin are
    # pinned too.
    "table-cone-1d-script": (
        {"mesh.txt": _interval(40, jitter=0.2),
         "field.txt": "table table.txt\ncone 0.5 0.0 2.0 1.0 0.5\n",
         "table.txt": _table(40),
         "script.txt": _script(40, dt=0.02) + "7 0.3 0.75\n"},
        ["--target-time", "1.0", "--script", "{dir}/script.txt"],
    ),
    "timestep-min-slope": (
        {"mesh.txt": _grid(6, 6, 0.1),
         "field.txt": "timestep 0.15 2.0 1.0\n"},
        ["--target-time", "0.3", "--heuristic", "min-slope"],
    ),
    # Deep trees of uneven shape: facet counts that are not powers of two.
    "cone-1d-deep": (
        {"mesh.txt": _interval(5000, jitter=0.3),
         "field.txt": "cone 0.02 0.0 0.5 1.0 0.5\n"},
        ["--target-time", "1.0", "--max-patches", "500"],
    ),
    "cone-2d-tree-min-slope": (
        {"mesh.txt": _grid(10, 9, 0.15),
         "field.txt": "cone 0.2 0.3 0.0 2.0 1.0 0.05\n"},
        ["--target-time", "0.08", "--heuristic", "min-slope"],
    ),
    # The uniform rerun of --compare-global-min keeps the run's epsilon.
    "timestep-2d-compare-eps": (
        {"mesh.txt": _grid(6, 6, 0.1),
         "field.txt": "timestep 0.3 1.0 0.5\n"},
        ["--target-time", "0.6", "--compare-global-min", "--epsilon", "0.25"],
    ),
    # More facets than one block of initial slope sampling (hierarchy's
    # SLOPE_BLOCK, 4096), with a one-row tail; the cone covers facets at t = 0.
    "cone-1d-blocks": (
        {"mesh.txt": _interval(8193, jitter=0.3),
         "field.txt": "cone 0.004 -0.002 0.5 1.0 0.5\n"},
        ["--target-time", "1.0", "--max-patches", "400"],
    ),
}

ARTIFACTS = ("out", "vtk", "stats")


def run_fixture(name: str, workdir: Path) -> list[tuple[str, str]]:
    """Run one fixture in ``workdir``; returns (artifact, sha256) pairs."""
    files, extra = FIXTURES[name]
    for fname, text in files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    argv = ["--mesh", str(workdir / "mesh.txt"),
            "--field", str(workdir / "field.txt")]
    argv += [a.format(dir=workdir) for a in extra]
    for art in ARTIFACTS:
        argv += [f"--{art}", str(workdir / f"result.{art}")]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    if code != 0:
        raise SystemExit(f"fixture {name} exited {code}: {err.getvalue()}")
    return [(art, hashlib.sha256((workdir / f"result.{art}").read_bytes()).hexdigest())
            for art in ARTIFACTS]


PINNED = Path(__file__).with_name("fixture_hashes.txt")


def current_lines() -> list[str]:
    """One ``<fixture> <artifact> <sha256>`` line per artifact, fixture order."""
    lines = []
    for name in FIXTURES:
        with tempfile.TemporaryDirectory() as tmp:
            lines += [f"{name} {art} {digest}"
                      for art, digest in run_fixture(name, Path(tmp))]
    return lines


def differing_lines(lines: list[str]) -> list[str]:
    """Pinned lines missing from ``lines`` (``-``), then new ones (``+``)."""
    pinned = PINNED.read_text(encoding="utf-8").splitlines()
    return ([f"- {ln}" for ln in pinned if ln not in lines]
            + [f"+ {ln}" for ln in lines if ln not in pinned])


def main_hashes(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {PINNED.name}; exit 1 on a difference")
    args = parser.parse_args(argv)
    lines = current_lines()
    if not args.check:
        print("\n".join(lines))
        return 0
    diff = differing_lines(lines)
    print("\n".join(diff) if diff else f"all {len(lines)} hashes match {PINNED.name}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main_hashes())
