"""Each output check passes a real run and rejects a corrupted ``--out``.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from tentmesh import cli  # noqa: E402

import gen  # noqa: E402
from check import Checker  # noqa: E402


def _grid_case() -> gen.Case:
    n, h = 4, 0.25
    verts = [(i * h, j * h) for j in range(n + 1) for i in range(n + 1)]
    simps = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            simps += [(a, a + 1, a + n + 2), (a, a + n + 2, a + n + 1)]
    cone = {"center": [0.1, 0.1], "t_apex": 0.0, "sigma_inside": 2.0,
            "sigma_outside": 1.0, "cone_slope": 0.2}
    return gen.Case("grid", 2, np.array(verts), np.array(simps), "cone", cone,
                    None, target_time=0.3)


def _line_case() -> gen.Case:
    xs = np.linspace(0.0, 1.0, 41)[:, None]
    segs = np.stack([np.arange(40), np.arange(1, 41)], axis=1)
    cone = {"center": [0.3], "t_apex": -0.05, "sigma_inside": 0.5,
            "sigma_outside": 1.0, "cone_slope": 0.5}
    return gen.Case("line", 1, xs, segs, "cone", cone, None, target_time=1.0,
                    max_patches=25)


def _strip_case() -> gen.Case:
    verts = [(float(i), 0.0) for i in range(5)] + [(i + 0.5, 0.3) for i in range(4)]
    simps = [(0, 1, 5), (5, 1, 6), (1, 2, 6), (6, 2, 7), (2, 3, 7), (7, 3, 8),
             (3, 4, 8)]
    table = np.linspace(1.0, 1.6, len(simps))
    script = [(1, 0.2, 2.5), (4, 0.4, 2.0)]
    return gen.Case("strip", 2, np.array(verts), np.array(simps), "table", None,
                    table, script, target_time=1.0, assert_invariants=True)


@pytest.fixture(scope="module", params=["grid", "line", "strip"])
def run(request, tmp_path_factory):
    """(case, --out text) of one real run."""
    case = {"grid": _grid_case, "line": _line_case, "strip": _strip_case}[request.param]()
    d = str(tmp_path_factory.mktemp(request.param))
    gen.write_case(case, d)
    out = os.path.join(d, "out.txt")
    assert cli.main(case.cli_args(out, out + ".vtk", out + ".stats")) == 0
    with open(out, encoding="utf-8") as fh:
        return case, fh.read()


def _failed(case, text) -> set:
    fails, _ = Checker(case).check(text)
    return {name for name, msgs in fails.items() if msgs}


def _split(text):
    lines = text.rstrip("\n").split("\n")
    n_ev = int(lines[1].split()[1])
    return lines, 2 + n_ev  # index of the "elements" header


def _set_time(lines, event: int, t: float) -> None:
    parts = lines[2 + event].split()
    parts[-1] = repr(t)
    lines[2 + event] = " ".join(parts)


def _time(lines, event: int) -> float:
    return float(lines[2 + event].split()[-1])


def _join(lines) -> str:
    return "\n".join(lines) + "\n"


def test_real_run_passes_every_check(run):
    case, text = run
    checker = Checker(case)
    for _ in range(2):
        fails, summary = checker.check(text)
        assert not any(fails.values()), fails
    assert summary["elements"] > 0 and summary["mean_height_ratio"] >= 1.0


def test_different_bytes_fail_determinism(run):
    case, text = run
    checker = Checker(case)
    checker.check(text)
    fails, _ = checker.check(text.replace("\n", "\n\n", 1))
    assert fails["determinism"]


def test_dropped_element_fails_volume(run):
    case, text = run
    lines, at = _split(text)
    n_el = int(lines[at].split()[1])
    lines[at] = f"elements {n_el - 1}"
    del lines[at + 1 + n_el // 2]
    assert "volume" in _failed(case, _join(lines))


def test_lowered_tent_top_fails_height_floor(run):
    case, text = run
    lines, at = _split(text)
    base, top = (int(x) for x in lines[at + 1].split()[1:3])
    tmin = Checker(case).tmin
    _set_time(lines, top, _time(lines, base) + 0.5 * tmin)
    assert "height_floor" in _failed(case, _join(lines))


def test_raised_tent_top_fails_causality(run):
    case, text = run
    lines, at = _split(text)
    top = int(lines[at + 1].split()[2])
    _set_time(lines, top, _time(lines, top) + 10.0)
    assert "causality" in _failed(case, _join(lines))


def test_short_run_fails_end_of_run(run):
    case, text = run
    lines, at = _split(text)
    if case.max_patches is not None:
        # Drop every element of the last patch.
        last = lines[-1].split()[-1]
        keep = [ln for ln in lines[at + 1:] if ln.split()[-1] != last]
        lines = lines[:at] + [f"elements {len(keep)}"] + keep
    else:
        # Pull the last tent top back below the target time.
        top = int(lines[-1].split()[2])
        _set_time(lines, top, 0.5 * case.target_time)
    assert "end_of_run" in _failed(case, _join(lines))
