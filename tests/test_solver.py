"""Solve-stage tests: binding a run's slope state, outflow slopes and
scripted slope-table rewrites."""

from collections import deque

import numpy as np
import pytest

from tentmesh.errors import InvalidArgument, ValidationError
from tentmesh.fields import (
    CompositeMinField,
    ConstantField,
    SpatialConeField,
    TableField,
    sampled_min_simplices,
)
from tentmesh.mesh import grid_mesh, interval_mesh
from tentmesh.solver import (
    ScriptRow,
    SlopeScript,
    bind_run,
    load_script,
    parse_script,
    solve_patch,
)


# -- parsing -----------------------------------------------------------------


def test_parse_script_basic():
    s = parse_script("1 0.5 2.0\n0 0.25 0.8\n# comment\n\n2 0.5 1.5  # note\n")
    assert s.rows == (
        ScriptRow(0, 0.25, 0.8),
        ScriptRow(1, 0.5, 2.0),
        ScriptRow(2, 0.5, 1.5),
    )  # sorted by (trigger, element)


def test_parse_script_rejects_bad_rows():
    with pytest.raises(ValidationError, match="at <script>:1"):
        parse_script("1 0.5\n")
    with pytest.raises(ValidationError, match="at rows.txt:2"):
        parse_script("0 0.5 1.0\n1 abc 1.0\n", source="rows.txt")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_script("1 0.5 2.0\n1 0.5 0.3\n")
    with pytest.raises(ValidationError, match="positive"):
        parse_script("0 0.5 0.0\n")
    with pytest.raises(ValidationError, match=">= 0"):
        parse_script("0 -0.5 1.0\n")
    for text, name in [("0 0.5 1.0\n3 nan 1.0\n", "trigger"),
                       ("3 inf 1.0\n", "trigger"),
                       ("3 0.5 nan\n", "sigma"),
                       ("3 0.5 inf\n", "sigma")]:
        with pytest.raises(ValidationError,
                           match=f"{name} of script row for element 3 must be finite"):
            parse_script(text)


@pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028", "\u2029"])
def test_script_errors_number_lines_as_files_do(tmp_path, sep):
    # The first row ends in a character str.splitlines breaks at; a file
    # read does not, so the bad row is line 2 of the file.
    path = tmp_path / "s.txt"
    path.write_text(f"0 0.1 2.0{sep}\n0 0.2\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="expected") as err:
        load_script(path)
    assert err.value.location == f"{path}:2"
    with pytest.raises(ValidationError, match="expected") as err:
        parse_script(f"0 0.1 2.0{sep}\r\n0 0.2\r\n", source="s.txt")
    assert err.value.location == "s.txt:2"


# -- binding -----------------------------------------------------------------


def _line(n):
    """A unit-spaced interval of n segments."""
    return interval_mesh(np.arange(n + 1.0))


def test_attach_widens_table_bounds():
    # Attaching a script to a run (bind_run) widens the run table's bounds
    # to cover the script's slopes and leaves the caller's table alone.
    table = TableField([1.0, 1.0])
    script = parse_script("0 0.5 0.25\n1 0.75 4.0\n")
    bound = bind_run(_line(2), table, script)
    assert (bound.sigma_min, bound.sigma_max) == (0.25, 4.0)
    assert (table.sigma_min, table.sigma_max) == (1.0, 1.0)


def test_attach_refreshes_composite_bounds():
    table = TableField([1.0, 1.0])
    combo = CompositeMinField([ConstantField(2.0), table])
    bound = bind_run(_line(2), combo, parse_script("0 0.5 0.25\n"))
    assert isinstance(bound, CompositeMinField) and bound is not combo
    assert bound.sigma_min == 0.25
    assert bound.children[0] is combo.children[0]  # formula fields are shared
    assert combo.sigma_min == 1.0


def test_attach_requires_table():
    script = parse_script("0 0.5 0.25\n")
    with pytest.raises(InvalidArgument, match="table"):
        bind_run(_line(2), ConstantField(1.0), script)


def test_attach_checks_element_range():
    for elem in (2, -1):
        with pytest.raises(ValidationError, match=f"element {elem} outside table of 2"):
            bind_run(_line(2), TableField([1.0, 1.0]),
                     SlopeScript([ScriptRow(elem, 0.5, 0.25)]))


def test_bind_run_without_script_returns_callers_field():
    field = CompositeMinField([TableField([1.0, 2.0]),
                               SpatialConeField([0.5], 0.0, 2.0, 1.0, 0.5)])
    assert bind_run(_line(2), field) is field


@pytest.mark.parametrize("mesh, field, error", [
    (grid_mesh(2, 2), TableField([1.0, 1.0]), "table field has 2 slopes, but the mesh has 8"),
    (_line(2), TableField([1.0, 1.0, 1.0]), "table field has 3 slopes, but the mesh has 2"),
    (grid_mesh(3, 3), SpatialConeField([0.5], 0.0, 2.0, 1.0, 0.5),
     r"cone field centre has 1 coordinate\(s\), but the mesh is 2D"),
    (_line(2), SpatialConeField([0.5, 0.0], 2.0, 1.0, 0.5, 1.0),
     r"cone field centre has 2 coordinate\(s\), but the mesh is 1D"),
    (_line(2), CompositeMinField([ConstantField(1.0), TableField([1.0])]),
     "table field has 1 slopes"),
])
def test_bind_run_rejects_a_field_that_does_not_fit_the_mesh(mesh, field, error):
    for script in (None, SlopeScript([])):
        with pytest.raises(ValidationError, match=f"^{error}"):
            bind_run(mesh, field, script)


def test_bind_run_rejects_a_slope_whose_square_overflows():
    with pytest.raises(ValidationError, match="sigma_max = 1e[+]160 is too large"):
        bind_run(_line(2), ConstantField(1e160))
    # A script slope counts; a composite is bounded by its smallest child.
    with pytest.raises(ValidationError, match="sigma_max = 1e[+]160 is too large"):
        bind_run(_line(2), TableField([1.0, 1.0]), parse_script("0 0.5 1e160\n"))
    field = CompositeMinField([ConstantField(1e160), TableField([1.0, 1.0])])
    assert bind_run(_line(2), field) is field


def test_bind_run_gives_each_run_its_own_table():
    table = TableField([1.0, 2.0])
    script = parse_script("1 0.5 0.5\n")
    first, second = (bind_run(_line(2), table, script) for _ in range(2))
    assert first.table is not table.table and second.table is not first.table
    assert first.table.flags.writeable and not table.table.flags.writeable
    solve_patch(first, np.zeros((1, 2, 1)), np.ones((1, 2)), np.array([0]), 1.0,
                deque(script.rows))
    assert first.table.tolist() == [1.0, 0.5]
    assert second.table.tolist() == table.table.tolist() == [1.0, 2.0]


# -- firing ------------------------------------------------------------------


def _fire(field, pending, t_top):
    """Run solve_patch on element 0 of a one-segment star; returns fired rows."""
    pos = np.array([[[0.0], [1.0]]])
    return solve_patch(field, pos, np.zeros((1, 2)), np.array([0]), t_top,
                       pending)[1]


def test_solve_patch_fires_due_rows_in_order():
    script = parse_script("2 0.5 0.4\n1 0.5 0.6\n0 0.2 0.8\n")
    field = bind_run(_line(3), TableField([1.0, 1.0, 1.0]), script)
    pending = deque(script.rows)
    assert _fire(field, pending, 0.1) == []
    fired = _fire(field, pending, 0.5)  # boundary triggers fire
    assert [(r.element, r.trigger) for r in fired] == [(0, 0.2), (1, 0.5), (2, 0.5)]
    assert field.table.tolist() == [0.8, 0.6, 0.4]
    assert not pending
    assert _fire(field, pending, 9.9) == []


def test_solve_patch_fires_only_into_a_bound_table():
    script = parse_script("0 0.5 0.25\n")
    pending = deque(script.rows)
    for field in (TableField([1.0]), ConstantField(1.0)):
        with pytest.raises(InvalidArgument, match="bind_run"):
            _fire(field, pending, 1.0)
    assert len(pending) == 1


def test_same_element_fires_in_trigger_order():
    script = SlopeScript([ScriptRow(0, 0.8, 0.5), ScriptRow(0, 0.4, 1.5)])
    field = bind_run(_line(1), TableField([2.0]), script)
    _fire(field, deque(script.rows), 1.0)
    assert field.table[0] == 0.5  # the later trigger's value lands last


# -- solve stage -------------------------------------------------------------


def test_outflow_slopes_match_sampled_minima():
    mesh = interval_mesh([0.0, 1.0, 2.0])
    field = TableField([2.0, 0.5])
    pos = mesh.vertices[mesh.simplices]          # both segments
    tms = np.array([[0.0, 0.3], [0.3, 0.1]])
    got, fired = solve_patch(field, pos, tms, np.array([0, 1]), 0.3)
    want = sampled_min_simplices(field, pos, tms, elements=np.array([0, 1]))
    assert got.tolist() == want.tolist()
    assert got.tolist() == [2.0, 0.5]
    assert fired == []


def test_solve_patch_computes_slopes_before_firing():
    # The patch that trips a script row must not see its own update.
    mesh = interval_mesh([0.0, 1.0])
    script = parse_script("0 1.0 0.5\n")
    field = bind_run(mesh, TableField([2.0]), script)
    pending = deque(script.rows)
    pos = mesh.vertices[mesh.simplices]
    tms = np.array([[1.5, 0.0]])
    slopes, fired = solve_patch(field, pos, tms, np.array([0]),
                                t_top=1.5, pending=pending)
    assert slopes.tolist() == [2.0]          # pre-update table value
    assert [r.sigma for r in fired] == [0.5]
    assert field.table[0] == 0.5             # visible to the next patch
    slopes2, fired2 = solve_patch(field, pos, tms, np.array([0]),
                                  t_top=1.6, pending=pending)
    assert slopes2.tolist() == [0.5]
    assert fired2 == []


def test_solve_patch_without_script():
    mesh = interval_mesh([0.0, 1.0])
    field = ConstantField(1.25)
    pos = mesh.vertices[mesh.simplices]
    slopes, fired = solve_patch(field, pos, np.array([[0.2, 0.0]]),
                                np.array([0]), t_top=0.2)
    assert slopes.tolist() == [1.25]
    assert fired == []
