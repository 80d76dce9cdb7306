"""The mesh document's two readers: bulk for ``save_mesh``'s layout, line by
line for every other document and for every error.

The line reader is the reference: whatever reads a document in bulk must give
the arrays it gives, bit for bit, and any document the bulk reader cannot
take exactly must reach it.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tentmesh.mesh as mesh_mod
from tentmesh.cli import load_spacetime_mesh
from tentmesh.errors import ValidationError
from tentmesh.fields import load_field
from tentmesh.mesh import build_mesh, grid_mesh, interval_mesh, load_mesh, save_mesh
from tentmesh.solver import load_script
from test_mesh import valid_meshes


def _refuse(text, path):
    raise AssertionError(f"{path} went to the line reader")


def _spy():
    """Patch the line reader with a wrapper that records its calls."""
    return mock.patch.object(mesh_mod, "_read_lines", wraps=mesh_mod._read_lines)


def _same_arrays(got, mesh):
    assert got.vertices.dtype == np.float64 and got.simplices.dtype == np.int64
    assert got.vertices.shape == mesh.vertices.shape
    assert got.simplices.shape == mesh.simplices.shape
    assert got.vertices.tobytes() == mesh.vertices.tobytes()
    assert got.simplices.tobytes() == mesh.simplices.tobytes()


@st.composite
def saved_meshes(draw):
    """A valid 1D or 2D mesh; one 1D kind spans the float range, so repr
    writes subnormals, exponents, -0.0 and every digit count."""
    if draw(st.booleans()):
        xs = draw(st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=30))
        try:
            return interval_mesh(np.unique(xs))
        except ValidationError:
            pass                # one point, or a gap whose square underflows
    return build_mesh(*draw(valid_meshes()))


def _lines_of(path):
    return path.read_text(encoding="utf-8").split("\n")[:-1]


def _unlayout(lines: list[str], kind: str, at: int) -> str:
    """The document's lines made non-canonical in one way, at line ``at``."""
    nv = sum(line.startswith("v ") for line in lines)
    at = 1 + at % (len(lines) - 1)               # a v or s line
    if kind == "comment":
        lines = ["# written by hand"] + lines
    elif kind == "blank":
        lines = lines[:at] + [""] + lines[at:]
    elif kind == "tab":
        lines[at] = lines[at].replace(" ", "\t", 1)
    elif kind == "trailing space":
        lines[at] = lines[at] + " "
    elif kind == "s among v":
        first_s = lines.pop(1 + nv)
        lines.insert(1 + at % nv, first_s)
    elif kind == "crlf":                          # from line ``at`` on
        return "".join(line + ("\r\n" if i >= at else "\n")
                       for i, line in enumerate(lines))
    return "\n".join(lines) + "\n"


NOT_IN_LAYOUT = ("comment", "blank", "tab", "crlf", "trailing space", "s among v")


@given(saved_meshes())
@settings(max_examples=150, deadline=None)
def test_saved_documents_load_in_bulk_bit_for_bit(tmp_path_factory, mesh):
    path = tmp_path_factory.mktemp("bulk") / "m.txt"
    save_mesh(mesh, path)
    with mock.patch.object(mesh_mod, "_read_lines", _refuse):
        got = load_mesh(path)
    _same_arrays(got, mesh)


@given(saved_meshes(), st.sampled_from(NOT_IN_LAYOUT), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_documents_out_of_layout_load_line_by_line_to_the_same_arrays(
        tmp_path_factory, mesh, kind, at):
    path = tmp_path_factory.mktemp("lines") / "m.txt"
    save_mesh(mesh, path)
    path.write_bytes(_unlayout(_lines_of(path), kind, at).encode("utf-8"))
    with _spy() as spy:
        got = load_mesh(path)
    assert spy.call_count == 1
    _same_arrays(got, mesh)


def _outcome(path):
    """(vertices, simplices) as lists, or the error's message."""
    try:
        m = load_mesh(path)
    except ValidationError as exc:
        return str(exc)
    return m.vertices.tolist(), m.simplices.tolist()


def _line_reader_outcome(path):
    """What the line reader alone makes of the document."""
    with mock.patch.object(mesh_mod, "_read_in_layout", lambda text: None):
        return _outcome(path)


# A canonical 1D document with one token replaced: the third vertex's
# coordinate ("v", line 4) or the second segment's second id ("s", line 6).
# Python's float and int accept some spellings numpy's reader rejects, and
# numpy reads some ids Python reads as numbers out of range.
SPELLINGS = [
    ("v", "1_0", ([[0.0], [1.0], [10.0]], [[0, 1], [1, 2]])),
    ("v", "٣", ([[0.0], [1.0], [3.0]], [[0, 1], [1, 2]])),
    ("v", "inf", "non-finite coordinates [inf] (at vertex 2 of {path})"),
    ("v", "1e400", "non-finite coordinates [inf] (at vertex 2 of {path})"),
    ("v", "-0.0", "segments 0 and 1 overlap geometrically (at simplex 1 of {path})"),
    ("v", ".5", "segments 0 and 1 overlap geometrically (at simplex 1 of {path})"),
    ("v", "2", ([[0.0], [1.0], [2.0]], [[0, 1], [1, 2]])),
    ("s", "9223372036854775808",
     "simplex references missing vertex 9223372036854775808 (at {path}:6)"),
    ("s", "+1", ([[0.0], [1.0], [2.0]], [[0, 1], [1, 2]])),
    ("s", "001", ([[0.0], [1.0], [2.0]], [[0, 1], [1, 2]])),
    ("s", "007", "simplex references missing vertex 7 (at {path}:6)"),
    ("s", "1_0", "simplex references missing vertex 10 (at {path}:6)"),
    ("s", "1.0", "bad vertex id: invalid literal for int() with base 10: '1.0' "
                 "(at {path}:6)"),
    ("s", "١", ([[0.0], [1.0], [2.0]], [[0, 1], [1, 2]])),
]


@pytest.mark.parametrize("tag, token, want", SPELLINGS,
                         ids=[f"{t} {tok!a}" for t, tok, _ in SPELLINGS])
def test_spellings_give_the_line_readers_value_or_error(tmp_path, tag, token, want):
    lines = ["dim 1", "v 0.0", "v 1.0", "v 2.0", "s 0 1", "s 2 1"]
    if tag == "v":
        lines[3] = f"v {token}"
    else:
        lines[5] = f"s 2 {token}"
    path = tmp_path / "m.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = _outcome(path)
    assert got == _line_reader_outcome(path)
    if isinstance(want, str):
        want = want.format(path=path)
    assert got == want


# Documents close to the layout, each with a defect a check of the layout
# must see: numpy would read every one of them without an error.
NEAR_LAYOUT = [
    ("dim 1\nv 0.0\nx 1.0\ns 0 1\n", "unknown directive 'x' (at {path}:3)"),
    ("dim 1\nv 0.0\nv 1.0 7.0\ns 0 1\n",
     "vertex needs 1 coordinates, got 2 (at {path}:3)"),
    ("dim 2\nv 0 0 0\nv 1\nv 0 1\ns 0 1 2\n",
     "vertex needs 2 coordinates, got 3 (at {path}:2)"),
    ("dim 1\nv 0.0\nv 1.0\ns 0 1 \n", ([[0.0], [1.0]], [[0, 1]])),
    ("dim 1\nv 0.0\nv 1.0\ns 0 1\nv 2.0\ns 1 2\n",
     ([[0.0], [1.0], [2.0]], [[0, 1], [1, 2]])),
    ("dim 1\nv 0.0\n\nv 1.0\ns 0 1\n", ([[0.0], [1.0]], [[0, 1]])),
    ("dim 1\nv 0.0\nv 1.0\ns 0 1\ndim 1\n", "duplicate dim line (at {path}:5)"),
    ("dim 1\nv 0.0\nv 1.0\ns 0 2\n",
     "simplex references missing vertex 2 (at {path}:4)"),
    ("dim 1\nv 0.0\nv 1.0\ns -1 1\n",
     "simplex references missing vertex -1 (at {path}:4)"),
]


@pytest.mark.parametrize("text, want", NEAR_LAYOUT)
def test_documents_near_the_layout_give_the_line_readers_outcome(tmp_path, text, want):
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    got = _outcome(path)
    assert got == _line_reader_outcome(path)
    assert got == (want.format(path=path) if isinstance(want, str) else want)


def test_negative_zero_keeps_its_sign(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("dim 1\nv -0.0\nv 1.0\ns 0 1\n")
    with mock.patch.object(mesh_mod, "_read_lines", _refuse):
        got = load_mesh(path)
    assert np.signbit(got.vertices[0, 0])


@pytest.mark.parametrize("make", [
    lambda: interval_mesh(np.cumsum(np.linspace(1.0, 2.0, 10**4 + 1))),
    lambda: grid_mesh(20, 20),
], ids=["interval-1e4", "grid-20x20"])
def test_saved_documents_never_enter_the_line_reader(tmp_path, monkeypatch, make):
    mesh = make()
    path = tmp_path / "m.txt"
    save_mesh(mesh, path)
    text = path.read_text(encoding="utf-8")
    monkeypatch.setattr(mesh_mod, "_read_lines", _refuse)
    _same_arrays(load_mesh(path), mesh)
    # One comment line takes the same document out of the layout.
    path.write_text("# saved\n" + text, encoding="utf-8")
    with pytest.raises(AssertionError, match="went to the line reader"):
        load_mesh(path)


@pytest.mark.parametrize("load, what", [
    (load_mesh, "mesh document"),
    (lambda p: load_field(p, 4), "field document"),
    (load_script, "script document"),
    (load_spacetime_mesh, "spacetime mesh document"),
], ids=["mesh", "field", "script", "spacetime-mesh"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_paths_raise_validation_errors(tmp_path, load, what, where):
    path = tmp_path / "nope.txt" if where == "missing" else tmp_path
    with pytest.raises(ValidationError, match=f"^cannot read {what}: ") as info:
        load(path)
    assert info.value.location == str(path)
