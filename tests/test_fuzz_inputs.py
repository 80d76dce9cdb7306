"""Fuzz the input parsers and the command line with small generated documents.

Whatever the bytes of a mesh, field, table, script or spacetime-mesh file,
the library may raise only :class:`TentMeshError` (the CLI's exit 2), and
``main`` returns 0, 2 or 3.  A value of the wrong type handed to a library
entry point (a str, a bool or None for a number, a float for an id) raises
a :class:`TentMeshError` too.  Documents are drawn line by line from each
format's own tags and from number-like tokens (negative, huge, NaN,
infinite, malformed, a byte that is not UTF-8), with a share of well-formed
inputs so that runs happen too.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tentmesh.cli import load_spacetime_mesh, main
from tentmesh.errors import TentMeshError, ValidationError
from tentmesh.fields import ConstantField, SpatialConeField, TableField, \
    TimeStepField, load_field, parse_field
from tentmesh.front import initial_front
from tentmesh.mesh import build_mesh, interval_mesh, load_mesh
from tentmesh.pitcher import advance_until
from tentmesh.solver import ScriptRow, SlopeScript, parse_script

SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

NUMBERS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["0.5", "1.0", "2", "0", "-1", "nan", "inf", "-inf",
                     "1e999", "1e308", "1e-320", "99999999999999999999",
                     "-0.0", "1_0", "0x1", "abc", "#", "\udcff"]),
    st.floats(-4.0, 4.0, allow_nan=False).map(repr),
)


def _lines(tags):
    """Documents of up to 8 lines: a tag (or none) and up to 6 tokens."""
    line = st.tuples(st.sampled_from(tags + ["", "x"]),
                     st.lists(NUMBERS, max_size=6))
    return st.lists(line, max_size=8).map(
        lambda ls: "".join(" ".join([t, *args]).strip() + "\n" for t, args in ls))


@st.composite
def valid_meshes(draw):
    """Well-formed mesh text: an interval or a unit-square grid."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        lines = ["dim 1"] + [f"v {i / n!r}" for i in range(n + 1)]
        lines += [f"s {i} {i + 1}" for i in range(n)]
    else:
        nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        lines = ["dim 2"] + [f"v {i / nx!r} {j / ny!r}"
                             for j in range(ny + 1) for i in range(nx + 1)]
        for j in range(ny):
            for i in range(nx):
                a = j * (nx + 1) + i
                lines += [f"s {a} {a + 1} {a + nx + 2}",
                          f"s {a} {a + nx + 2} {a + nx + 1}"]
    return "\n".join(lines) + "\n"


MESHES = st.one_of(valid_meshes(), _lines(["dim", "v", "s"]))
VALID_FIELDS = st.sampled_from([
    "constant 1.0\n", "timestep 0.05 1.0 2.0\n", "cone 0.5 0.0 2.0 1.0 0.5\n",
    "cone 0.5 0.5 0.0 2.0 1.0 0.5\n", "table t.txt\n",
    "table t.txt\ncone 0.5 0.0 2.0 1.0 0.5\n", "table t.txt\nconstant 0.75\n"])
FIELDS = st.one_of(VALID_FIELDS,
                   _lines(["field", "constant", "timestep", "cone", "table t.txt"]))
TABLES = st.one_of(
    st.integers(1, 20).map(lambda n: "".join(f"{e} 1.0\n" for e in range(n))),
    _lines([str(e) for e in range(4)]),
)
SCRIPTS = _lines([str(e) for e in range(4)])
SPACETIME = _lines(["stdim", "events", "elements", "v", "e"])


def _write(root: Path, **docs: str) -> None:
    """Write each document; the token ``\\udcff`` becomes the byte 0xff."""
    for name, text in docs.items():
        (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))


@given(FIELDS, TABLES, st.one_of(st.none(), st.integers(0, 20)))
@settings(max_examples=100, **SETTINGS)
def test_field_parsers_raise_only_tentmesh_errors(field, table, n_elements):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root, **{"f.txt": field, "t.txt": table})
        for parse in (lambda: parse_field(field, root, n_elements),
                      lambda: load_field(root / "f.txt", n_elements)):
            try:
                parse()
            except TentMeshError:
                pass


@given(SCRIPTS)
@settings(max_examples=100, **SETTINGS)
def test_parse_script_raises_only_tentmesh_errors(text):
    try:
        parse_script(text)
    except TentMeshError:
        pass


@given(MESHES, SPACETIME)
@settings(max_examples=100, **SETTINGS)
def test_mesh_loaders_raise_only_tentmesh_errors(mesh, spacetime):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root, **{"m.txt": mesh, "st.txt": spacetime})
        for load, name in ((load_mesh, "m.txt"), (load_spacetime_mesh, "st.txt")):
            try:
                load(root / name)
            except TentMeshError:
                pass


@st.composite
def cli_cases(draw):
    """(mesh, field, table, script or None) texts; mostly well formed, so
    that most cases run, with the table sized for the mesh."""
    def mostly(valid, junk):
        return draw(valid if draw(st.integers(0, 4)) else junk)

    mesh = mostly(valid_meshes(), MESHES)
    n = sum(line.startswith("s ") for line in mesh.splitlines())
    slopes = st.sampled_from(["0.5", "1.0", "1.25", "2.0"] * 3 + ["nan", "0"])
    table = mostly(st.lists(slopes, min_size=n, max_size=n).map(
        lambda col: "".join(f"{e} {s}\n" for e, s in enumerate(col))), TABLES)
    rows = st.lists(st.tuples(st.integers(-1, n), st.sampled_from(
        ["0", "0.02", "0.1", "-0.5"]), slopes), max_size=4).map(
        lambda rs: "".join(f"{e} {t} {s}\n" for e, t, s in rs))
    script = draw(st.one_of(st.none(), rows, SCRIPTS))
    return mesh, mostly(VALID_FIELDS, FIELDS), table, script


@given(cli_cases(), st.sampled_from(["0.05", "0.3", "-1", "inf", "1e308"]),
       st.sampled_from([[], ["--assert-invariants"], ["--heuristic", "min-slope"],
                        ["--epsilon", "0.25"], ["--no-hierarchy"]]))
@settings(max_examples=60, **SETTINGS)
def test_main_exits_0_2_or_3(case, target, extra):
    mesh, field, table, script = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root, **{"m.txt": mesh, "f.txt": field, "t.txt": table,
                        "s.txt": script or ""})
        argv = ["--mesh", str(root / "m.txt"), "--field", str(root / "f.txt"),
                "--target-time", target, "--max-patches", "30",
                "--out", str(root / "out.txt"), *extra]
        if script is not None:
            argv += ["--script", str(root / "s.txt")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3)


@pytest.mark.parametrize("name", ["mesh", "field", "table", "script", "spacetime"])
def test_bytes_that_are_not_utf8_exit_2(tmp_path, capsys, name):
    # The bad byte reads as U+FFFD, and the error quotes the token holding it.
    files = {"mesh": "dim 1\nv 0.0\nv 1.0\ns 0 1\n", "field": "table table\n",
             "table": "0 1.0\n", "script": "0 0.1 2.0\n",
             "spacetime": "stdim 2\nevents 0\nelements 0\n"}
    files[name] = "\udcff" + files[name]
    _write(tmp_path, **files)
    if name == "spacetime":
        with pytest.raises(ValidationError, match="stdim"):
            load_spacetime_mesh(tmp_path / "spacetime")
        return
    argv = ["--mesh", str(tmp_path / "mesh"), "--field", str(tmp_path / "field"),
            "--script", str(tmp_path / "script"), "--target-time", "0.2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "\ufffd" in err
    if name == "script":
        assert f"(at {tmp_path / 'script'}:1)" in err


NOT_NUMBERS = st.sampled_from(["1", "0.5", "nan", "x", "", True, False,
                               np.True_, None])
NOT_SCALARS = st.one_of(NOT_NUMBERS, st.just([1.0]))
NOT_IDS = st.one_of(NOT_NUMBERS, st.sampled_from([0.0, 1.0, 2.5, np.float64(1.0)]))


def _with(draw, values, bad):
    """``values`` as a list with the entry at a drawn index set to ``bad``."""
    values = list(values)
    values[draw(st.integers(0, len(values) - 1))] = bad
    return values


def _wrong_type_call(entry, draw):
    """A call of ``entry`` with one drawn argument or entry of the wrong type."""
    if entry == "build_mesh":
        verts, rows = ([[0.0], [1.0], [2.0]], [0, 1, 1, 2]) if draw(st.booleans()) \
            else ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 1, 3, 0, 3, 2])
        bad = draw(NOT_IDS)
        ids, k = _with(draw, rows, bad), len(verts[0]) + 1
        simps = [tuple(ids[i:i + k]) for i in range(0, len(ids), k)]
        if not isinstance(bad, (bool, np.bool_)) and draw(st.booleans()):
            simps = np.array(simps)  # float, str or object rows
        return lambda: build_mesh(verts, simps)
    if entry == "SlopeScript":
        row = [1, 0.01, 2.0]
        i = draw(st.integers(0, 2))
        row[i] = draw(NOT_IDS if i == 0 else NOT_SCALARS)
        return lambda: SlopeScript((ScriptRow(*row),))
    if entry == "ConstantField":
        bad = draw(NOT_SCALARS)
        return lambda: ConstantField(bad)
    bad = draw(NOT_NUMBERS)
    if entry == "TimeStepField":
        args = _with(draw, [0.5, 1.0, 2.0], bad)
        return lambda: TimeStepField(args[:1], args[1:])
    if entry == "TableField":
        args = _with(draw, [1.0, 2.0, 1.5, 0.5], bad)
        return lambda: TableField(args[:3], future=args[3:])
    if entry == "SpatialConeField":
        args = _with(draw, [0.5, 0.5, 0.0, 2.0, 1.0, 0.5], bad)
        return lambda: SpatialConeField(args[:2], *args[2:])
    mesh = interval_mesh(np.arange(3.0))
    if entry == "advance_until":
        bad = draw(NOT_SCALARS)
        return lambda: advance_until(mesh, ConstantField(1.0), bad)
    times = _with(draw, [0.0, 0.25, 0.0], bad)
    return lambda: initial_front(mesh, times=times, field=ConstantField(1.0))


@pytest.mark.parametrize("entry", [
    "build_mesh", "SlopeScript", "ConstantField", "TimeStepField", "TableField",
    "SpatialConeField", "advance_until", "initial_front"])
@given(st.data())
@settings(max_examples=40, **SETTINGS)
def test_values_of_the_wrong_type_raise_tentmesh_errors(entry, data):
    # numpy used to truncate float ids, read bools as 0 or 1 (a bool script
    # element as a mask over the whole table) and parse numeric strs.
    with pytest.raises(TentMeshError):
        _wrong_type_call(entry, data.draw)()
