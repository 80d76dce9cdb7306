"""Solve-stage tests: outflow slopes and scripted slope-table rewrites."""

import numpy as np
import pytest

from tentmesh.constraints import ConstraintConfig
from tentmesh.errors import InvalidArgument, ValidationError
from tentmesh.fields import (
    CompositeMinField,
    ConstantField,
    TableField,
    sampled_min_simplices,
)
from tentmesh.mesh import interval_mesh
from tentmesh.solver import (
    ScriptRow,
    SlopeScript,
    outflow_slopes,
    parse_script,
    solve_patch,
)


def _config(mesh, field):
    return ConstraintConfig.for_problem(mesh, field)


# -- parsing -----------------------------------------------------------------


def test_parse_script_basic():
    s = parse_script("1 0.5 2.0\n0 0.25 0.8\n# comment\n\n2 0.5 1.5  # note\n")
    assert s.rows == [
        ScriptRow(0, 0.25, 0.8),
        ScriptRow(1, 0.5, 2.0),
        ScriptRow(2, 0.5, 1.5),
    ]  # sorted by (trigger, element)
    assert s.pending == 3


def test_parse_script_rejects_bad_rows():
    with pytest.raises(ValidationError, match="line 1"):
        parse_script("1 0.5\n")
    with pytest.raises(ValidationError, match="line 2"):
        parse_script("0 0.5 1.0\n1 abc 1.0\n")
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


# -- attach ------------------------------------------------------------------


def test_attach_widens_table_bounds():
    table = TableField([1.0, 1.0])
    script = parse_script("0 0.5 0.25\n1 0.75 4.0\n")
    script.attach(table)
    assert table.sigma_min == 0.25
    assert table.sigma_max == 4.0
    # set_value now accepts the scripted extremes.
    table.set_value(0, 0.25)
    table.set_value(1, 4.0)


def test_attach_refreshes_composite_bounds():
    table = TableField([1.0, 1.0])
    combo = CompositeMinField([ConstantField(2.0), table])
    script = parse_script("0 0.5 0.25\n")
    script.attach(combo)
    assert combo.sigma_min == 0.25


def test_attach_requires_table():
    script = parse_script("0 0.5 0.25\n")
    with pytest.raises(InvalidArgument, match="table"):
        script.attach(ConstantField(1.0))


def test_attach_checks_element_range():
    script = parse_script("5 0.5 0.25\n")
    with pytest.raises(ValidationError, match="element 5"):
        script.attach(TableField([1.0, 1.0]))


# -- firing ------------------------------------------------------------------


def test_fire_until_order_and_threshold():
    table = TableField([1.0, 1.0, 1.0])
    script = parse_script("2 0.5 0.4\n1 0.5 0.6\n0 0.2 0.8\n")
    script.attach(table)
    assert script.fire_until(0.1) == []
    fired = script.fire_until(0.5)  # boundary triggers fire
    assert [(r.element, r.trigger) for r in fired] == [(0, 0.2), (1, 0.5), (2, 0.5)]
    assert table.table.tolist() == [0.8, 0.6, 0.4]
    assert script.pending == 0
    assert script.fire_until(9.9) == []


def test_fire_requires_attach():
    script = parse_script("0 0.5 0.25\n")
    with pytest.raises(InvalidArgument, match="attach"):
        script.fire_until(1.0)


def test_same_element_fires_in_trigger_order():
    table = TableField([2.0])
    script = SlopeScript([ScriptRow(0, 0.8, 0.5), ScriptRow(0, 0.4, 1.5)])
    script.attach(table)
    script.fire_until(1.0)
    assert table.table[0] == 0.5  # the later trigger's value lands last


# -- solve stage -------------------------------------------------------------


def test_outflow_slopes_match_sampled_minima():
    mesh = interval_mesh([0.0, 1.0, 2.0])
    field = TableField([2.0, 0.5])
    cfg = _config(mesh, field)
    pos = mesh.vertices[mesh.simplices]          # both segments
    tms = np.array([[0.0, 0.3], [0.3, 0.1]])
    got = outflow_slopes(field, cfg, pos, tms, np.array([0, 1]))
    want = sampled_min_simplices(field, pos, tms, cfg.slope_samples,
                                 elements=np.array([0, 1]))
    assert got.tolist() == want.tolist()
    assert got.tolist() == [2.0, 0.5]


def test_solve_patch_computes_slopes_before_firing():
    # The patch that trips a script row must not see its own update.
    mesh = interval_mesh([0.0, 1.0])
    field = TableField([2.0])
    script = parse_script("0 1.0 0.5\n")
    script.attach(field)
    cfg = _config(mesh, field)
    pos = mesh.vertices[mesh.simplices]
    tms = np.array([[1.5, 0.0]])
    slopes, fired = solve_patch(field, cfg, pos, tms, np.array([0]),
                                t_top=1.5, script=script)
    assert slopes.tolist() == [2.0]          # pre-update table value
    assert [r.sigma for r in fired] == [0.5]
    assert field.table[0] == 0.5             # visible to the next patch
    slopes2, fired2 = solve_patch(field, cfg, pos, tms, np.array([0]),
                                  t_top=1.6, script=script)
    assert slopes2.tolist() == [0.5]
    assert fired2 == []


def test_solve_patch_without_script():
    mesh = interval_mesh([0.0, 1.0])
    field = ConstantField(1.25)
    cfg = _config(mesh, field)
    pos = mesh.vertices[mesh.simplices]
    slopes, fired = solve_patch(field, cfg, pos, np.array([[0.2, 0.0]]),
                                np.array([0]), t_top=0.2)
    assert slopes.tolist() == [1.25]
    assert fired == []
