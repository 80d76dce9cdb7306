"""The benchmark tracer's targets must name functions the package still has.

``perfbench/tracing.py`` patches each ``TARGETS`` entry by ``getattr`` when a
traced run starts, so a renamed or deleted function breaks ``--trace`` only
there.  The first test reads ``TARGETS`` and resolves each path without
installing anything; the second runs one traced benchmark round, whose
per-layer figures divide by the wrapped functions' call counts.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from tentmesh.mesh import grid_mesh, save_mesh

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, module, path, _timed in tracing.TARGETS:
        obj = importlib.import_module(f"tentmesh.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []


def test_a_traced_worker_round_counts_every_patch(tmp_path):
    save_mesh(grid_mesh(2, 1), tmp_path / "mesh.txt")
    (tmp_path / "field.txt").write_text("cone 0.5 0.5 0.0 2.0 1.0 0.05\n")
    result, stats = tmp_path / "result.json", tmp_path / "stats.txt"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           str(ROOT / "src"), str(result), "1",
           "--mesh", str(tmp_path / "mesh.txt"),
           "--field", str(tmp_path / "field.txt"), "--target-time", "0.3",
           "--out", str(tmp_path / "out.txt"), "--stats", str(stats)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(result.read_text())
    assert got["rc"] == 0
    patches = int(dict(line.split() for line in
                       stats.read_text().splitlines())["patches"])
    assert patches > 0
    assert got["calls"]["pitcher.SpacetimeMesh.add_patch"] == patches
    # load_mesh builds the mesh through the one public entry point.
    assert got["calls"]["mesh.build_mesh"] == 1
    assert got["calls"]["pitcher.star_feasible"] >= patches
    assert got["truthy"]["pitcher.star_feasible"] >= patches
