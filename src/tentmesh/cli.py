"""Command-line driver: mesh + slope field in, spacetime mesh out.

Outputs are byte-deterministic for identical inputs: floats are written with
``repr`` (shortest round-trip form), element order follows patch creation
order, and nothing time- or machine-dependent goes to stdout or any output
file.  Wall-clock time is reported on stderr only.

Exit codes: 0 success; 2 bad input (parse, validation, missing files);
3 broken run invariant (a :class:`ContractViolation` from the driver).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .constraints import ConstraintConfig
from .errors import ContractViolation, TentMeshError, ValidationError
from .fields import ConstantField, load_field
from .front import export_snapshot
from .mesh import load_mesh
from .pitcher import HEURISTICS, SpacetimeMesh, TentRun, advance_until, \
    front_prism_volume
from .solver import bind_run, load_script


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# spacetime mesh text format
# ---------------------------------------------------------------------------


def export_spacetime_mesh(stmesh: SpacetimeMesh, path) -> None:
    """Write the spacetime mesh: events then elements.

    Format: ``stdim <d+1>``, ``events <N>``, one ``v <coords...> <t>`` line
    per event, ``elements <E>``, one ``e <event ids...> <space simplex>
    <patch>`` line per element.
    """
    coords, times = stmesh.event_table()
    lines = [f"stdim {stmesh.space.dim + 1}", f"events {stmesh.n_events}"]
    for row, t in zip(coords, times):
        xs = " ".join(_fmt(x) for x in row)
        lines.append(f"v {xs} {_fmt(t)}")
    lines.append(f"elements {stmesh.n_elements}")
    for ev, sid, pid in zip(stmesh.elements, stmesh.element_space,
                            stmesh.element_patch):
        ids = " ".join(str(i) for i in ev)
        lines.append(f"e {ids} {sid} {pid}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_spacetime_mesh(path):
    """Read the text format back; returns a dict of arrays.

    Raises :class:`ValidationError` on malformed input and on a file cut
    short: the counts must match the records, and the last record must end
    with the newline the writer puts there.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    at = 0

    def take(tag: str, n: int, width: int, kind) -> np.ndarray:
        nonlocal at
        rows, at = lines[at:at + n], at + n
        try:
            if len(rows) == n and all(r[0] == tag and len(r) == width + 1
                                      for r in rows):
                return np.array([[kind(x) for x in r[1:]] for r in rows],
                                dtype=kind).reshape(n, width)
        except (ValueError, OverflowError):
            pass
        raise ValidationError(f"expected {n} '{tag}' record(s) of {width} "
                              "number(s)", location=str(path))

    if not text.endswith("\n"):
        raise ValidationError("cut short: no final newline", location=str(path))
    stdim = int(take("stdim", 1, 1, int)[0, 0])
    if stdim not in (2, 3):
        raise ValidationError(f"stdim must be 2 or 3, got {stdim}",
                              location=str(path))
    events = take("v", int(take("events", 1, 1, int)[0, 0]), stdim, float)
    elems = take("e", int(take("elements", 1, 1, int)[0, 0]), stdim + 3, int)
    return {
        "stdim": stdim,
        "points": events[:, :-1],
        "times": events[:, -1],
        "elements": elems[:, :-2],
        "space_simplex": elems[:, -2],
        "patch": elems[:, -1],
    }


def simplex_volumes(points: np.ndarray, times: np.ndarray,
                    elements: np.ndarray) -> np.ndarray:
    """Volumes recomputed from spacetime coordinates alone.

    Triangles in (x, t) or tetrahedra in (x, y, t): |det| / d! of the edge
    matrix.  Serves as an independent check against the incremental volumes
    the driver tracks.
    """
    full = np.concatenate([points, times[:, None]], axis=1)
    sim = full[elements]                       # (E, d+1, d)
    edges = sim[:, 1:, :] - sim[:, :1, :]      # (E, d, d)
    d = edges.shape[1]
    if d == 2:
        det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
        return np.abs(det) / 2.0
    det = (
        edges[:, 0, 0] * (edges[:, 1, 1] * edges[:, 2, 2]
                          - edges[:, 1, 2] * edges[:, 2, 1])
        - edges[:, 0, 1] * (edges[:, 1, 0] * edges[:, 2, 2]
                            - edges[:, 1, 2] * edges[:, 2, 0])
        + edges[:, 0, 2] * (edges[:, 1, 0] * edges[:, 2, 1]
                            - edges[:, 1, 1] * edges[:, 2, 0])
    )
    return np.abs(det) / 6.0


def export_vtk(stmesh: SpacetimeMesh, path) -> None:
    """Legacy-format VTK unstructured grid with per-cell patch ids."""
    coords, times = stmesh.event_table()
    n = stmesh.n_events
    e = stmesh.n_elements
    k = stmesh.space.dim + 2
    cell_type = 5 if stmesh.space.dim == 1 else 10  # triangle / tetra
    lines = [
        "# vtk DataFile Version 3.0",
        "tentmesh spacetime mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n} double",
    ]
    for row, t in zip(coords, times):
        xyz = list(row) + [t]
        while len(xyz) < 3:
            xyz.insert(len(xyz) - 1, 0.0)  # pad space coords before time
        lines.append(" ".join(_fmt(x) for x in xyz))
    lines.append(f"CELLS {e} {e * (k + 1)}")
    for ev in stmesh.elements:
        lines.append(f"{k} " + " ".join(str(i) for i in ev))
    lines.append(f"CELL_TYPES {e}")
    lines.extend(str(cell_type) for _ in range(e))
    lines.append(f"CELL_DATA {e}")
    lines.append("SCALARS patch int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(p) for p in stmesh.element_patch)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_stats(stats: dict, path) -> None:
    """Sorted ``key value`` lines; values via repr for reproducibility."""
    lines = []
    for key in sorted(stats):
        val = stats[key]
        if isinstance(val, bool):
            text = str(val)
        elif isinstance(val, float):
            text = _fmt(val)
        else:
            text = str(val)
        lines.append(f"{key} {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument handling and the run
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tentmesh",
        description="Advancing-front spacetime mesh generator.",
    )
    p.add_argument("--mesh", required=True, help="space mesh file")
    p.add_argument("--field", required=True, help="slope field description file")
    p.add_argument("--target-time", type=float, required=True,
                   help="advance every vertex to at least this time")
    p.add_argument("--epsilon", type=float, default=0.5,
                   help="progress parameter in (0, 1/2] (default 0.5)")
    p.add_argument("--eta", type=float, default=None,
                   help="height-search resolution and 1D remote-cone margin "
                        "(default 1e-9 * sigma_min * wmin)")
    p.add_argument("--heuristic", choices=HEURISTICS, default="lowest",
                   help="vertex selection rule (default lowest)")
    p.add_argument("--no-hierarchy", action="store_true",
                   help="answer cone queries by exhaustive scan")
    p.add_argument("--assert-invariants", action="store_true",
                   help="re-verify the front after every patch")
    p.add_argument("--max-patches", type=int, default=None,
                   help="stop after this many patches even short of the target")
    p.add_argument("--script", default=None,
                   help="slope script file: '<element> <trigger> <sigma>' rows")
    p.add_argument("--out", default=None, help="write the spacetime mesh here")
    p.add_argument("--vtk", default=None,
                   help="also write a legacy VTK unstructured grid here")
    p.add_argument("--stats", default=None, help="write run statistics here")
    p.add_argument("--snapshot-every", type=int, default=0, metavar="N",
                   help="write a front snapshot every N patches (needs --out)")
    p.add_argument("--compare-global-min", action="store_true",
                   help="rerun with the uniform worst-case slope and record "
                        "the element-count ratio")
    return p


def run(args) -> int:
    t_start = time.perf_counter()
    if args.max_patches is not None and args.max_patches < 0:
        raise ValidationError(f"--max-patches must be >= 0, got {args.max_patches}")
    if args.snapshot_every < 0:
        raise ValidationError(
            f"--snapshot-every must be >= 0, got {args.snapshot_every}")
    mesh = load_mesh(args.mesh)
    field = load_field(args.field, n_elements=mesh.n_simplices)
    script = load_script(args.script) if args.script else None
    if args.snapshot_every and not args.out:
        raise ValidationError("--snapshot-every needs --out for file naming")
    # The bound field's bounds cover the script, so the config fits the run.
    field = bind_run(mesh, field, script)
    config = ConstraintConfig.for_problem(mesh, field, epsilon=args.epsilon,
                                          eta=args.eta)

    snapshot_cb = None
    if args.snapshot_every:
        def snapshot_cb(k, front):
            export_snapshot(front, f"{args.out}.front{k:06d}")

    run_result: TentRun = advance_until(
        mesh, field, args.target_time,
        config=config,
        heuristic=args.heuristic,
        use_hierarchy=not args.no_hierarchy,
        assert_invariants=args.assert_invariants,
        script=script,
        snapshot_every=args.snapshot_every,
        snapshot_cb=snapshot_cb,
        max_patches=args.max_patches,
    )

    stats = dict(run_result.stats)
    volume = run_result.stmesh.total_volume()
    expected = front_prism_volume(mesh, run_result.initial_times,
                                  run_result.front.times)
    stats["volume"] = volume
    stats["volume_expected"] = expected
    stats["epsilon"] = config.epsilon
    stats["eta"] = config.eta
    stats["tmin"] = config.tmin(mesh.dim)

    if args.compare_global_min:
        uniform = advance_until(
            mesh, ConstantField(field.sigma_min), args.target_time,
            heuristic=args.heuristic,
            use_hierarchy=not args.no_hierarchy,
            max_patches=args.max_patches,
        )
        stats["uniform_elements"] = uniform.stats["elements"]
        stats["uniform_mean_height"] = uniform.stats["mean_height"]
        # Below 1 when exploiting fast regions beats the uniform worst case.
        stats["element_ratio_vs_uniform"] = (
            stats["elements"] / uniform.stats["elements"]
            if uniform.stats["elements"] else math.inf
        )

    if args.out:
        export_spacetime_mesh(run_result.stmesh, args.out)
    if args.vtk:
        export_vtk(run_result.stmesh, args.vtk)
    if args.stats:
        write_stats(stats, args.stats)

    print(f"patches {stats['patches']} elements {stats['elements']} "
          f"events {stats['events']} front_min {_fmt(stats['front_min_time'])} "
          f"volume {_fmt(volume)}")
    print(f"wall time {time.perf_counter() - t_start:.3f}s", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ContractViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except (TentMeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
