"""End-to-end command-line tests: formats, determinism, exit codes."""

import numpy as np
import pytest

from tentmesh.cli import (
    export_spacetime_mesh,
    load_spacetime_mesh,
    main,
    simplex_volumes,
)
from tentmesh.constraints import ConstraintConfig
from tentmesh.errors import ValidationError
from tentmesh.fields import ConstantField
from tentmesh.mesh import grid_mesh, interval_mesh, save_mesh, strip_mesh
from tentmesh.pitcher import advance_until


@pytest.fixture()
def case_1d(tmp_path):
    save_mesh(interval_mesh([0.0, 1.0, 2.5, 4.0]), tmp_path / "mesh.txt")
    (tmp_path / "field.txt").write_text("constant 1.0\n")
    return tmp_path


@pytest.fixture()
def case_2d(tmp_path):
    save_mesh(strip_mesh(4), tmp_path / "mesh.txt")
    (tmp_path / "field.txt").write_text("timestep 0.4 1.0 0.5\n")
    return tmp_path


def _argv(d, *extra):
    return ["--mesh", str(d / "mesh.txt"), "--field", str(d / "field.txt"),
            "--target-time", "0.8", *extra]


# -- exports and round trips -------------------------------------------------


def test_spacetime_roundtrip_volume(tmp_path):
    run = advance_until(grid_mesh(2, 2), ConstantField(1.0), 0.4)
    path = tmp_path / "st.txt"
    export_spacetime_mesh(run.stmesh, path)
    back = load_spacetime_mesh(path)
    assert back["stdim"] == 3
    assert back["points"].shape == (run.stmesh.n_events, 2)
    assert back["elements"].shape == (run.stmesh.n_elements, 4)
    # Volumes recomputed from coordinates match the driver's incremental sum.
    vol = simplex_volumes(back["points"], back["times"], back["elements"]).sum()
    assert vol == pytest.approx(run.stmesh.total_volume(), rel=1e-12)


def test_spacetime_roundtrip_1d(tmp_path):
    run = advance_until(interval_mesh([0.0, 1.0, 2.0]), ConstantField(1.0), 1.0)
    path = tmp_path / "st.txt"
    export_spacetime_mesh(run.stmesh, path)
    back = load_spacetime_mesh(path)
    assert back["stdim"] == 2
    vol = simplex_volumes(back["points"], back["times"], back["elements"]).sum()
    assert vol == pytest.approx(run.stmesh.total_volume(), rel=1e-12)
    assert back["patch"].tolist() == run.stmesh.element_patch


def test_load_spacetime_rejects_bad_header(tmp_path):
    bad = tmp_path / "junk.txt"
    bad.write_text("hello\n")
    with pytest.raises(ValidationError, match="stdim"):
        load_spacetime_mesh(bad)


# --out of advance_until(interval_mesh([0.0, 1.0, 2.0]), ConstantField(1.0), 1.0)
SMALL_OUT = """\
stdim 2
events 6
v 0.0 0.0
v 0.0 1.0
v 1.0 0.0
v 1.0 1.0
v 2.0 0.0
v 2.0 1.999999999
elements 4
e 0 1 2 0 0
e 2 3 1 0 1
e 2 3 4 1 1
e 4 5 3 1 2
"""
# Every line end and every 7th character, short of the whole file.
SMALL_OUT_CUTS = sorted(
    ({i + 1 for i, c in enumerate(SMALL_OUT) if c == "\n"}
     | set(range(0, len(SMALL_OUT), 7))) - {len(SMALL_OUT)}
)


def test_load_spacetime_whole_small_file(tmp_path):
    path = tmp_path / "st.txt"
    path.write_text(SMALL_OUT)
    back = load_spacetime_mesh(path)
    assert back["elements"].tolist()[-1] == [4, 5, 3]
    assert back["patch"].tolist() == [0, 1, 1, 2]


@pytest.mark.parametrize("cut", SMALL_OUT_CUTS)
def test_load_spacetime_rejects_truncated_file(tmp_path, cut):
    path = tmp_path / "st.txt"
    path.write_text(SMALL_OUT[:cut])
    with pytest.raises(ValidationError):
        load_spacetime_mesh(path)


@pytest.mark.parametrize("event", ["99", "-1"])
def test_load_spacetime_rejects_event_id_out_of_range(tmp_path, event):
    # 99 would index past the 3 events; -1 would wrap to the last one.
    path = tmp_path / "st.txt"
    path.write_text("stdim 2\nevents 3\nv 0.0 0.0\nv 0.0 1.0\nv 1.0 0.0\n"
                    f"elements 1\ne 0 1 {event} 0 0\n")
    with pytest.raises(ValidationError, match=r"\[0, 3\)") as info:
        load_spacetime_mesh(path)
    assert str(path) in str(info.value)


# -- the command ------------------------------------------------------------


def test_cli_run_writes_outputs(case_1d, capsys):
    d = case_1d
    code = main(_argv(d, "--out", str(d / "st.txt"),
                      "--stats", str(d / "stats.txt")))
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("patches ")
    text = (d / "st.txt").read_text()
    assert text.startswith("stdim 2\n")
    stats = (d / "stats.txt").read_text().splitlines()
    keys = [ln.split()[0] for ln in stats]
    assert keys == sorted(keys)
    assert "volume" in keys and "patches" in keys
    assert not any("wall" in k for k in keys)  # timing goes to stderr only


def test_cli_reruns_byte_identical(case_2d):
    d = case_2d
    for tag in ("a", "b"):
        code = main(_argv(d, "--out", str(d / f"st.{tag}"),
                          "--stats", str(d / f"stats.{tag}")))
        assert code == 0
    assert (d / "st.a").read_bytes() == (d / "st.b").read_bytes()
    assert (d / "stats.a").read_bytes() == (d / "stats.b").read_bytes()


def test_cli_hierarchy_toggle_identical_output(case_2d):
    d = case_2d
    assert main(_argv(d, "--out", str(d / "st.tree"))) == 0
    assert main(_argv(d, "--no-hierarchy", "--out", str(d / "st.scan"))) == 0
    assert (d / "st.tree").read_bytes() == (d / "st.scan").read_bytes()


def test_cli_vtk_export(case_2d):
    d = case_2d
    code = main(_argv(d, "--vtk", str(d / "st.vtk")))
    assert code == 0
    lines = (d / "st.vtk").read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    n_pts = int(lines[4].split()[1])
    assert all(len(ln.split()) == 3 for ln in lines[5:5 + n_pts])
    assert "CELL_TYPES" in " ".join(lines)


def test_cli_snapshots(case_1d):
    d = case_1d
    code = main(_argv(d, "--out", str(d / "st.txt"), "--snapshot-every", "2"))
    assert code == 0
    snaps = sorted(d.glob("st.txt.front*"))
    assert snaps, "snapshots were not written"
    first = snaps[0].read_text().splitlines()
    assert all(ln.startswith("t ") for ln in first)


def test_cli_snapshot_needs_out(case_1d, capsys):
    code = main(_argv(case_1d, "--snapshot-every", "2"))
    assert code == 2
    assert "--out" in capsys.readouterr().err


def test_cli_compare_global_min(case_2d):
    d = case_2d
    code = main(_argv(d, "--stats", str(d / "stats.txt"),
                      "--compare-global-min"))
    assert code == 0
    stats = dict(ln.split(None, 1)
                 for ln in (d / "stats.txt").read_text().splitlines())
    assert "element_ratio_vs_uniform" in stats
    assert "uniform_elements" in stats
    ratio = float(stats["element_ratio_vs_uniform"])
    # The field starts at slope 1.0 > sigma_min 0.5: exploiting the early
    # fast band must beat the uniform worst case.
    assert 0.0 < ratio < 1.0


def test_cli_compare_global_min_keeps_epsilon_and_eta(tmp_path):
    # The uniform rerun must use the run's --epsilon and --eta: its count is
    # that of advance_until with the same config, not the epsilon 0.5 one.
    mesh = grid_mesh(6, 6, skew=0.1)
    save_mesh(mesh, tmp_path / "mesh.txt")
    (tmp_path / "field.txt").write_text("timestep 0.3 1.0 0.5\n")
    stats = tmp_path / "stats.txt"
    code = main(["--mesh", str(tmp_path / "mesh.txt"),
                 "--field", str(tmp_path / "field.txt"), "--target-time", "0.6",
                 "--epsilon", "0.25", "--eta", "1e-6", "--compare-global-min",
                 "--stats", str(stats)])
    assert code == 0
    got = dict(ln.split(None, 1) for ln in stats.read_text().splitlines())
    uniform = ConstantField(0.5)
    want = advance_until(mesh, uniform, 0.6, config=ConstraintConfig.for_problem(
        mesh, uniform, epsilon=0.25, eta=1e-6)).stats["elements"]
    default = advance_until(mesh, uniform, 0.6).stats["elements"]
    assert int(got["uniform_elements"]) == want != default


def test_cli_assert_invariants_ok(case_2d):
    assert main(_argv(case_2d, "--assert-invariants")) == 0


def test_cli_max_patches(case_1d, capsys):
    code = main(_argv(case_1d, "--max-patches", "3",
                      "--stats", str(case_1d / "stats.txt")))
    assert code == 0
    stats = dict(ln.split(None, 1)
                 for ln in (case_1d / "stats.txt").read_text().splitlines())
    assert stats["patches"] == "3"
    assert stats["target_reached"] == "False"


def test_cli_missing_mesh_exit_2(tmp_path, capsys):
    code = main(["--mesh", str(tmp_path / "nope.txt"),
                 "--field", str(tmp_path / "nope.txt"),
                 "--target-time", "1.0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_field_exit_2(case_1d, capsys):
    (case_1d / "field.txt").write_text("wavespeed fast\n")
    code = main(_argv(case_1d))
    assert code == 2


def test_cli_nan_eta_exit_2(case_1d, capsys):
    assert main(_argv(case_1d, "--eta", "nan")) == 2
    assert "eta" in capsys.readouterr().err


@pytest.mark.parametrize("eta", [[], ["--eta", "1e-9"]])
def test_cli_nan_vertex_exit_2(case_1d, capsys, eta):
    (case_1d / "mesh.txt").write_text("dim 1\nv 0.0\nv nan\nv 2.0\ns 0 1\ns 1 2\n")
    assert main(_argv(case_1d, *eta)) == 2
    assert "vertex 1" in capsys.readouterr().err


@pytest.mark.parametrize("mesh_text", [
    "dim 1\nv 0\nv 1e308\nv 1.7e308\ns 0 1\ns 1 2\n",
    "dim 2\nv 0 0\nv 1e308 0\nv 0 1e308\ns 0 1 2\n",
], ids=["1d", "2d"])
def test_cli_mesh_whose_size_overflows_exit_2(tmp_path, capsys, mesh_text):
    # Finite coordinates whose squared edge lengths overflow used to reach
    # the height floor check ("tmin_1d ... got inf/nan", even in 2D).
    (tmp_path / "mesh.txt").write_text(mesh_text)
    (tmp_path / "field.txt").write_text("constant 1.0\n")
    assert main(_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "is too large: its size overflows" in err
    assert "(at simplex 0 of " in err and "mesh.txt)" in err
    assert "tmin" not in err and "Warning" not in err
    assert len(err.strip().splitlines()) == 1


def test_cli_underflowing_height_floor_exit_2(tmp_path, capsys):
    # sigma_min * wmin = 1e-200 * 1e-150 underflows to a zero floor.
    (tmp_path / "mesh.txt").write_text(
        "dim 1\nv 0.0\nv 1e-150\nv 2e-150\ns 0 1\ns 1 2\n")
    (tmp_path / "field.txt").write_text("constant 1e-200\n")
    assert main(_argv(tmp_path, "--eta", "1e-9")) == 2
    err = capsys.readouterr().err
    assert "tmin_1d must be positive and finite" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_nan_target_exit_2(case_1d, capsys):
    code = main(["--mesh", str(case_1d / "mesh.txt"),
                 "--field", str(case_1d / "field.txt"),
                 "--target-time", "nan", "--max-patches", "5"])
    assert code == 2
    assert "target time" in capsys.readouterr().err


def test_cli_table_field_with_script(tmp_path):
    mesh = interval_mesh([0.0, 1.0, 2.0])
    save_mesh(mesh, tmp_path / "mesh.txt")
    (tmp_path / "table.txt").write_text("0 1.0\n1 1.0\n")
    (tmp_path / "field.txt").write_text("table table.txt\n")
    (tmp_path / "script.txt").write_text("0 0.5 0.5\n")
    code = main(["--mesh", str(tmp_path / "mesh.txt"),
                 "--field", str(tmp_path / "field.txt"),
                 "--target-time", "1.5",
                 "--script", str(tmp_path / "script.txt"),
                 "--stats", str(tmp_path / "stats.txt")])
    assert code == 0
    stats = dict(ln.split(None, 1)
                 for ln in (tmp_path / "stats.txt").read_text().splitlines())
    assert stats["script_rows_fired"] == "1"


@pytest.mark.parametrize("field_text, name", [
    ("constant inf\n", "sigma"),
    ("timestep nan 1.0 0.5\n", "boundaries[0]"),
    ("timestep 0.4 1.0 inf\n", "sigmas[1]"),
    ("cone nan 0 1 2 0.5\n", "center[0]"),
    ("cone 0 inf 1 2 0.5\n", "t_apex"),
    ("cone 0 0 -inf 2 0.5\n", "sigma_inside"),
    ("cone 0 0 1 nan 0.5\n", "sigma_outside"),
    ("cone 0 0 1 2 nan\n", "cone_slope"),
    ("table table.txt\n", "values[2]"),
])
def test_cli_nonfinite_field_parameter_exit_2(case_1d, capsys, field_text, name):
    (case_1d / "field.txt").write_text(field_text)
    (case_1d / "table.txt").write_text("0 1.0\n1 1.0\n2 nan\n")
    assert main(_argv(case_1d)) == 2
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("row, name", [("0 nan 0.5\n", "trigger"),
                                       ("0 0.5 inf\n", "sigma")])
def test_cli_nonfinite_script_row_exit_2(case_1d, capsys, row, name):
    (case_1d / "field.txt").write_text("table table.txt\n")
    (case_1d / "table.txt").write_text("0 1.0\n1 1.0\n2 1.0\n")
    (case_1d / "script.txt").write_text(row)
    assert main(_argv(case_1d, "--script", str(case_1d / "script.txt"))) == 2
    assert f"{name} of script row for element 0 must be finite" \
        in capsys.readouterr().err


@pytest.mark.parametrize("text,line", [("0 0.1 2.0\n0 0.2\n", ":2)"),
                                       ("0 0.1 two\n", ":1)"),
                                       ("0 0.1 2.0\n0 0.1 3.0\n", ")")])
def test_cli_bad_script_row_names_the_file(case_1d, capsys, text, line):
    # Row errors read path:line; a duplicate is an error of the whole file.
    (case_1d / "field.txt").write_text("table table.txt\n")
    (case_1d / "table.txt").write_text("0 1.0\n1 1.0\n2 1.0\n")
    script = case_1d / "script.txt"
    script.write_text(text)
    assert main(_argv(case_1d, "--script", str(script))) == 2
    assert f"(at {script}{line}" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--max-patches", "-1"],
                                   ["--snapshot-every", "-3", "--out", "o.txt"]])
def test_cli_negative_count_exit_2(case_1d, capsys, extra):
    extra = [str(case_1d / a) if a == "o.txt" else a for a in extra]
    assert main(_argv(case_1d, *extra)) == 2
    assert f"{extra[0]} must be >= 0" in capsys.readouterr().err
    assert not (case_1d / "o.txt").exists()


def test_cli_max_patches_zero_runs_no_patch(case_1d):
    code = main(_argv(case_1d, "--max-patches", "0",
                      "--stats", str(case_1d / "stats.txt")))
    assert code == 0
    stats = dict(ln.split(None, 1)
                 for ln in (case_1d / "stats.txt").read_text().splitlines())
    assert stats["patches"] == "0"


@pytest.mark.parametrize("mesh, field_text, error", [
    (grid_mesh(3, 3), "cone 0.5 0.0 2.0 1.0 0.5\n",
     "cone field centre has 1 coordinate(s), but the mesh is 2D"),
    (interval_mesh([0.0, 0.5, 1.0]), "cone 0.5 0.0 0.0 2.0 1.0 0.5\n",
     "cone field centre has 2 coordinate(s), but the mesh is 1D"),
    (grid_mesh(3, 3), "cone 1e200 0.0 0.0 0.5 1.0 0.0\n",
     "cone field centre [1e+200, 0.0] lies too far from the mesh"),
])
def test_cli_field_that_does_not_fit_mesh_exit_2(tmp_path, capsys, mesh,
                                                 field_text, error):
    save_mesh(mesh, tmp_path / "mesh.txt")
    (tmp_path / "field.txt").write_text(field_text)
    assert main(_argv(tmp_path, "--out", str(tmp_path / "o.txt"))) == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


def test_cli_slope_whose_square_overflows_exit_2(tmp_path, capsys):
    # Causality squares the slope: at 1e160 the square is inf, every check
    # turned NaN and the run wedged at vertex 0 (exit 3).  1e150 squares to
    # a finite 1e300 and runs.
    save_mesh(grid_mesh(1, 1), tmp_path / "mesh.txt")
    for sigma, code in (("1e160", 2), ("1e150", 0)):
        (tmp_path / "field.txt").write_text(f"field constant {sigma}\n")
        assert main(["--mesh", str(tmp_path / "mesh.txt"),
                     "--field", str(tmp_path / "field.txt"),
                     "--target-time", sigma]) == code
        err = capsys.readouterr().err
        assert ("sigma_max = 1e+160 is too large: its square overflows"
                in err) == (code == 2)


def test_cli_unreachable_target_exit_2(tmp_path, capsys):
    # Spacing 0.5: span / Tmin = 1e308 / 0.5 overflows to inf.  Spacing 1:
    # span / Tmin is finite, but 1e308 + Tmin == 1e308.
    (tmp_path / "field.txt").write_text("constant 1.0\n")
    for xs in ([0.0, 0.5, 1.0], [0.0, 1.0, 2.0]):
        save_mesh(interval_mesh(xs), tmp_path / "mesh.txt")
        code = main(["--mesh", str(tmp_path / "mesh.txt"),
                     "--field", str(tmp_path / "field.txt"),
                     "--target-time", "1e308"])
        assert code == 2
        assert "target time" in capsys.readouterr().err
