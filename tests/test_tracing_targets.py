"""The benchmark tracer's targets must name functions the package still has.

``perfbench/tracing.py`` patches each ``TARGETS`` entry by ``getattr`` when a
traced run starts, so a renamed or deleted function breaks ``--trace`` only
there.  This reads ``TARGETS`` and resolves each path without installing
anything.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
