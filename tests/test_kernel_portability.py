"""No artifact depends on the BLAS kernel numpy picks at run time.

numpy's OpenBLAS, where it is a ``DYNAMIC_ARCH`` build, picks a kernel for
the CPU it loads on, and ``OPENBLAS_CORETYPE`` overrides the pick.  Child
processes under the Haswell (AVX2) and Nehalem (SSE) kernels compute the
artifact hashes of the two 2D ``timestep`` fixtures, the four 2D
whole-front digests and the widths of a jittered 40x40 grid, and must print
what this process computes under the kernel it picked.  Where numpy's BLAS
is not a ``DYNAMIC_ARCH`` OpenBLAS the variable selects nothing, so the
test is skipped.  Run as a script, this file prints its digests as JSON.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from support import jittered_widths_digest, whole_front_digest

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ("timestep-min-slope", "timestep-2d-compare-eps")
CORETYPES = ("Haswell", "Nehalem")


def digests() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location(
        "fixture_hashes", ROOT / "tools" / "fixture_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    got = {}
    for name in FIXTURES:
        with tempfile.TemporaryDirectory() as tmp:
            for art, digest in tool.run_fixture(name, Path(tmp)):
                got[f"{name} {art}"] = digest
    for kind in ("constant", "timestep", "cone", "table"):
        got[f"whole-front 2d {kind}"] = whole_front_digest(2, kind)
    got["widths 40x40"] = jittered_widths_digest(40)
    return got


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                           "OPENBLAS_CORETYPE selects no other kernel")
def test_artifacts_keep_their_bits_under_other_blas_kernels():
    children = {}
    for core in CORETYPES:
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONPATH=os.pathsep.join(
                       [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        children[core] = subprocess.Popen(
            [sys.executable, __file__], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    want = digests()
    for core, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        got = json.loads(out)
        moved = {k: (want[k], v) for k, v in got.items() if want[k] != v}
        assert moved == {}, f"digests that move under {core}: (here, there)"


if __name__ == "__main__":
    print(json.dumps(digests()))
