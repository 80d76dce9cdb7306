"""Benchmark entry point: fixed-work rounds of the ``tentmesh`` command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid2d-cone --seed 1 --seconds 30 --trace 0

One invocation generates the workload's inputs from ``--seed``, then runs
rounds until ``--seconds`` have passed, always finishing the round it is in.
A round is one fresh single-threaded process (``worker.py``) that calls
``tentmesh.cli.main`` with ``--out``, ``--vtk`` and ``--stats`` on those
inputs.  Every round does the same fixed work (a fixed target time or a fixed
``--max-patches``), so counts repeat exactly and only times vary.  Each
round's ``--out`` is checked by :mod:`check`, and all rounds of an invocation
must write identical ``--out`` bytes.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end medians over the rounds.  With ``--trace 1`` rounds alternate
between untraced and traced (every wrapper in :mod:`tracing`), and the
metrics are the per-layer figures of the traced rounds plus the tracing
overhead against the untraced median.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen
from check import Checker
from tracing import TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; a round still going at this point is failed.
DEADLINE_S = 170.0
# Single-threaded: the numeric libraries must not start their own pools.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# Traced functions that run on every workload report self time; the others
# (1D-only, 2D-only or invariant-check-only) report calls, and their time
# shows in their module's self time.
EVERYWHERE = {
    "mesh.load_mesh", "mesh.build_mesh", "hierarchy.build",
    "hierarchy.entry_times", "hierarchy.ConeHierarchy.update_leaf",
    "front.advance", "front.Front.argmin_vertex", "front.Front.min_time",
    "pitcher.advance_until", "pitcher.star_feasible",
    "pitcher.SpacetimeMesh.add_patch", "fields.sampled_min_values",
    "fields.sampled_min_simplices", "solver.solve_patch",
    "cli.export_spacetime_mesh", "cli.export_vtk", "cli.write_stats",
}
LAYERS = ("mesh", "hierarchy", "front", "pitcher", "constraints", "fields",
          "solver", "cli")

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "total_s": "s", "ms_per_patch": "ms",
    "peak_rss_mb": "MB", "elements": "count", "mean_height_ratio": "1",
}


def per_layer_units() -> dict:
    units = {}
    for name, *_ in TARGETS:
        units[f"{name}.calls"] = "count"
        if name in EVERYWHERE:
            units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "hierarchy.nodes_per_query": "1", "hierarchy.leaf_ratio": "1",
        "pitcher.probes_per_patch": "1", "pitcher.feasible_ratio": "1",
        "pitcher.cap_hit_ratio": "1", "pitcher.bisection_steps_per_patch": "1",
        "solver.script_rows_fired": "count", "cli.out_bytes": "B",
        "cli.vtk_bytes": "B", "trace.overhead_s": "s",
    })
    return units


def read_stats(path: str) -> dict:
    stats = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, val = line.strip().partition(" ")
            stats[key] = val
    return stats


def run_round(root: str, case: gen.Case, workdir: str, traced: bool,
              timeout: float) -> dict:
    """One worker process; returns its result dict (``rc`` != 0 on failure)."""
    out = os.path.join(workdir, "out.txt")
    paths = {"out": out, "vtk": out + ".vtk", "stats": out + ".stats",
             "result": out + ".json"}
    for p in paths.values():
        if os.path.exists(p):
            os.remove(p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           os.path.join(root, "src"), paths["result"], "1" if traced else "0"]
    cmd += case.cli_args(paths["out"], paths["vtk"], paths["stats"])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"rc": -1, "error": f"round still running after {timeout:.0f} s"}
    if proc.returncode != 0 or not os.path.exists(paths["result"]):
        return {"rc": proc.returncode or -1, "error": proc.stderr[-2000:]}
    with open(paths["result"], encoding="utf-8") as fh:
        res = json.load(fh)
    if res["rc"] != 0:
        res["error"] = proc.stderr[-2000:]
        return res
    with open(paths["out"], "rb") as fh:
        res["out_bytes"] = fh.read()
    res["vtk_size"] = os.path.getsize(paths["vtk"])
    res["stats"] = read_stats(paths["stats"])
    return res


def end_to_end(rounds: list[dict]) -> dict:
    ok = [r for r in rounds if not r["traced"]]
    vals = {
        "setup_s": [r["setup_s"] for r in ok],
        "run_s": [r["run_s"] for r in ok],
        "total_s": [r["total_s"] for r in ok],
        "ms_per_patch": [1000.0 * r["run_s"] / r["summary"]["patches"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "elements": [r["summary"]["elements"] for r in ok],
        "mean_height_ratio": [r["summary"]["mean_height_ratio"] for r in ok],
    }
    return {k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]}
            for k, v in vals.items()}


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    units = per_layer_units()
    vals: dict[str, list[float]] = {k: [] for k in units}
    for r in traced:
        calls, self_s, st = r["calls"], r["self_s"], r["stats"]
        patches = r["summary"]["patches"]
        for name, *_ in TARGETS:
            vals[f"{name}.calls"].append(calls[name])
            if name in EVERYWHERE:
                vals[f"{name}.self_s"].append(self_s[name])
        for layer in LAYERS:
            vals[f"{layer}.self_s"].append(
                sum(v for k, v in self_s.items() if k.split(".")[0] == layer))
        nodes = int(st["cone_nodes_visited"])
        queries = int(st["cone_entry_queries"]) + int(st["cone_slope_queries"])
        probes = calls["pitcher.star_feasible"]
        vals["hierarchy.nodes_per_query"].append(nodes / queries)
        vals["hierarchy.leaf_ratio"].append(int(st["cone_leaves_evaluated"]) / nodes)
        vals["pitcher.probes_per_patch"].append(probes / patches)
        vals["pitcher.feasible_ratio"].append(
            r["truthy"]["pitcher.star_feasible"] / probes)
        vals["pitcher.cap_hit_ratio"].append(int(st["cap_hits"]) / patches)
        vals["pitcher.bisection_steps_per_patch"].append(
            int(st["bisection_steps"]) / patches)
        vals["solver.script_rows_fired"].append(int(st["script_rows_fired"]))
        vals["cli.out_bytes"].append(len(r["out_bytes"]))
        vals["cli.vtk_bytes"].append(r["vtk_size"])
        vals["trace.overhead_s"].append(
            r["total_s"] - statistics.median(p["total_s"] for p in plain))
    return {k: {"value": statistics.median(v), "unit": units[k]}
            for k, v in vals.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tentmesh", "cli.py")):
        print("error: run from the repository root (src/tentmesh not found)",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return bench(args, root, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, root: str, workdir: str, started: float) -> int:
    case = gen.make_case(args.workload, args.seed, workdir)
    checker = Checker(case)
    rounds: list[dict] = []
    failed = 0
    correct = True
    start = time.monotonic()
    while True:
        # Traced invocations alternate untraced and traced rounds, so both
        # halves of the overhead figure come from the same stretch of time.
        traced = bool(args.trace) and len(rounds) % 2 == 1
        res = run_round(root, case, workdir, traced,
                        max(1.0, DEADLINE_S - (time.monotonic() - started)))
        res["traced"] = traced
        if res["rc"] != 0:
            failed += 1
            print(f"round {len(rounds)} failed: {res.get('error', '')}", file=sys.stderr)
        else:
            text = res["out_bytes"].decode("utf-8")
            fails, res["summary"] = checker.check(text)
            for name, msgs in fails.items():
                for msg in msgs:
                    correct = False
                    print(f"round {len(rounds)} check {name} failed: {msg}",
                          file=sys.stderr)
            s = res["summary"]
            print(f"round {len(rounds)} traced={int(traced)} total_s={res['total_s']:.4f} "
                  f"run_s={res.get('run_s', float('nan')):.4f} "
                  f"patches={s.get('patches')} elements={s.get('elements')}")
        rounds.append(res)
        done = time.monotonic() - start >= args.seconds
        have_both = not args.trace or len(rounds) >= 2
        if done and have_both:
            break

    good = [r for r in rounds if r["rc"] == 0 and r.get("summary")]
    if {r["traced"] for r in good} != ({False, True} if args.trace else {False}):
        print("error: no round completed", file=sys.stderr)
        return 1
    traced_calls = [r["calls"] for r in good if r["traced"]]
    if any(calls != traced_calls[0] for calls in traced_calls):
        correct = False
        print("check determinism failed: traced call counts differ between rounds",
              file=sys.stderr)
    metrics = per_layer(good) if args.trace else end_to_end(good)
    print(json.dumps({"correct": correct, "attempted": len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
