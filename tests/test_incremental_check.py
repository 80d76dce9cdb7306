"""The incremental invariant check reports what the whole-front check reports.

``advance_until(..., assert_invariants=True)`` runs the whole-front check
(``pitcher._assert_front_ok``) after the first patch only; after every later
patch ``pitcher._assert_patch_ok`` judges the facets the patch changed: p's
star, with the verdicts of the probe that accepted the height, and the
facets a fired script row rewrote.  Here every incremental check also runs
the whole-front check on the same front, and the two outcomes (pass, or the
``ContractViolation`` text) must be equal, patch after patch.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tentmesh import cli, constraints, pitcher
from tentmesh.errors import ContractViolation
from tentmesh.fields import SpatialConeField, TableField, TimeStepField
from tentmesh.front import Front
from tentmesh.mesh import grid_mesh, interval_mesh, strip_mesh
from tentmesh.pitcher import HEURISTICS, advance_until
from tentmesh.solver import SlopeScript, ScriptRow

ROOT = Path(__file__).resolve().parents[1]


def _outcome(check, *args) -> str | None:
    try:
        check(*args)
    except ContractViolation as exc:
        return str(exc)
    return None


def _mirror(mp) -> list[tuple]:
    """Make every incremental check run the whole-front check beside it.

    Returns the list of (patch index, incremental outcome, whole-front
    outcome) the run appends to; the run raises what the incremental check
    raised.
    """
    real = pitcher._assert_patch_ok
    seen = []

    def both(mesh, times, field, config, patch, height, star, accepted, fired):
        want = _outcome(pitcher._assert_front_ok, mesh, Front(mesh, times),
                        field, config, patch, height)
        got = _outcome(real, mesh, times, field, config, patch, height, star,
                       accepted, fired)
        seen.append((patch.index, got, want))
        if got is not None:
            raise ContractViolation(got)

    mp.setattr(pitcher, "_assert_patch_ok", both)
    return seen


def _accept_unverified(mp, at_patch: int) -> None:
    """Make patch ``at_patch`` take a height its star check did not verify.

    That patch's closed-form cap is raised by three floors and its first
    probe, the cap's, is accepted whatever it found; its verdicts are the
    ones the run hands to the invariant check.
    """
    real_bracket, real_probe = pitcher.pitch_bracket, pitcher.star_feasible
    patches, forced = [0], [False]

    def bracket(mesh, front, field, config, cones, p, **kw):
        lo, hi = real_bracket(mesh, front, field, config, cones, p, **kw)
        forced[0] = patches[0] == at_patch
        patches[0] += 1
        if forced[0]:
            hi += 3.0 * config.tmin(mesh.dim)
        return lo, hi

    def probe(*args, **kw):
        ok = real_probe(*args, **kw)
        if forced[0]:
            forced[0] = False
            return True
        return ok

    mp.setattr(pitcher, "pitch_bracket", bracket)
    mp.setattr(pitcher, "star_feasible", probe)


def _scripted_table(rng, mesh):
    """A table field and a script with slope-raising and slope-lowering rows."""
    m = mesh.n_simplices
    table = rng.uniform(0.8, 2.0, m)
    rows = []
    for e in rng.integers(m, size=m).tolist():
        factor = (rng.uniform(0.3, 0.9) if len(rows) % 2
                  else rng.uniform(1.1, 2.0))
        rows.append(ScriptRow(e, float(rng.uniform(0.0, 0.6)),
                              float(table[e] * factor)))
    script = SlopeScript(tuple({(r.element, r.trigger): r
                                for r in rows}.values()))
    return TableField(table), script


def _case(rng, dim: int, kind: str):
    if dim == 1:
        mesh = interval_mesh(np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.3, 2.0, int(rng.integers(2, 7))))]))
    else:
        mesh = (grid_mesh(2, 2), strip_mesh(5),
                grid_mesh(3, 3, skew=0.2))[int(rng.integers(3))]
    if kind == "cone":
        inside, outside = (1.5, 0.5) if rng.integers(2) else (0.5, 1.0)
        return mesh, SpatialConeField(mesh.vertices.mean(axis=0), 0.0,
                                      inside, outside, 0.5), None
    if kind == "timestep":
        levels = [float(rng.uniform(0.8, 1.5)), float(rng.uniform(0.2, 0.5))]
        if dim == 2 and rng.integers(2):
            levels.reverse()
        return mesh, TimeStepField([float(rng.uniform(0.05, 0.4))], levels), None
    return (mesh, *_scripted_table(rng, mesh))


def _run(mesh, field, script, heuristic="lowest", target=0.8):
    """Run with the mirrored check; (outcomes, the error the run raised)."""
    with pytest.MonkeyPatch.context() as mp:
        seen = _mirror(mp)
        try:
            advance_until(mesh, field, target, script=script,
                          heuristic=heuristic, assert_invariants=True,
                          max_patches=80)
        except ContractViolation as exc:
            return seen, str(exc)
    return seen, None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incremental_check_reports_what_the_whole_front_check_reports(data):
    dim = data.draw(st.sampled_from([1, 2]))
    kind = data.draw(st.sampled_from(["cone", "timestep", "table+script"]))
    heuristic = data.draw(st.sampled_from(HEURISTICS))
    at_patch = data.draw(st.none() | st.integers(1, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mesh, field, script = _case(rng, dim, kind)
    with pytest.MonkeyPatch.context() as mp:
        if at_patch is not None:
            _accept_unverified(mp, at_patch)
        seen, _ = _run(mesh, field, script, heuristic)
    assert [(i, got) for i, got, _ in seen] == [(i, want) for i, _, want in seen]


def test_incremental_check_fires_where_the_whole_front_check_fires():
    # Patch 6 of a strip run takes a top three floors above its cap: both
    # checks name the same facet, and the run stops there.
    mesh = strip_mesh(6)
    field = TableField(np.linspace(1.0, 2.0, mesh.n_simplices))
    with pytest.MonkeyPatch.context() as mp:
        _accept_unverified(mp, 6)
        seen, raised = _run(mesh, field, None)
    index, got, want = seen[-1]
    assert index == 6 and got == want == raised
    assert raised.startswith("front facet ") and "after patch 6 " in raised
    assert all(got is None for _, got, _ in seen[:-1])


def _accept_where_only_the_cap_fails(mp) -> list[int]:
    """Make every star probe that fails only under the remote cap pass.

    The run then takes tops whose capped verdicts hold a violation that
    the whole-front check, which applies no cap, does not see.  Returns a
    one-element list counting those probes.
    """
    real = pitcher.star_feasible
    forced = [0]

    def probe(*args, probes=None, **kw):
        seen = [] if probes is None else probes
        ok = real(*args, probes=seen, **kw)
        if not ok and seen[-1].uncapped.satisfied.all():
            forced[0] += 1
            return True
        return ok

    mp.setattr(pitcher, "star_feasible", probe)
    return forced


def test_incremental_check_reads_the_verdicts_without_the_remote_cap():
    # A speed-up cone over a jittered grid: remote cones cap the causality
    # half of many probes, and the whole-front check never does.  Tops that
    # fail only under that cap are accepted here, so reading the capped
    # verdicts would report violations the whole-front check does not.
    mesh = grid_mesh(4, 4, skew=0.1)
    field = SpatialConeField([0.5, 0.5], 0.0, 0.5, 1.0, 0.5)
    with pytest.MonkeyPatch.context() as mp:
        forced = _accept_where_only_the_cap_fails(mp)
        seen, raised = _run(mesh, field, None, target=1.0)
    assert forced[0] > 5 and raised is None
    assert len(seen) == 79
    assert [got for _, got, _ in seen] == [None] * 79 == [w for _, _, w in seen]
    for at_patch in (5, 20, 35, 60):
        with pytest.MonkeyPatch.context() as mp:
            _accept_unverified(mp, at_patch)
            seen, _ = _run(mesh, field, None, target=1.0)
        assert [got for _, got, _ in seen] == [want for _, _, want in seen]


def test_a_top_other_than_the_accepted_one_is_refused():
    # The star verdicts belong to the accepted top; a height that was never
    # probed leaves times[p] elsewhere, and the check says so.
    real = pitcher._pitch
    calls = [0]

    def height(*args, **kw):
        h, accepted = real(*args, **kw)
        calls[0] += 1
        return (h * 1.25 if calls[0] == 3 else h), accepted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pitcher, "_pitch", height)
        with pytest.raises(ContractViolation,
                           match="patch 2 top .* is not the top .* accepted"):
            advance_until(strip_mesh(4), TableField(np.ones(7)), 1.0,
                          assert_invariants=True)


def _load_gen(mp):
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, spec.name, gen)  # its dataclasses look it up
    spec.loader.exec_module(gen)
    return gen


def test_a_checked_run_makes_no_extra_kernel_call_per_patch(tmp_path, capsys,
                                                            monkeypatch):
    # The benchmark's strip2d-checked inputs: a checked run calls the 2D
    # kernel once more than a plain run for the whole-front check after
    # the first patch, and once more for each later patch that fired
    # script rows.
    case = _load_gen(monkeypatch).make_case("strip2d-checked", 7, str(tmp_path))
    args = case.cli_args(str(tmp_path / "out.txt"), str(tmp_path / "out.vtk"),
                         str(tmp_path / "stats.txt"))
    assert "--assert-invariants" in args
    counts = {}
    real_kernel, real_fire = constraints.progressive_verdicts, pitcher.fire_rows
    for name, argv in (("checked", args),
                       ("plain", [a for a in args if a != "--assert-invariants"])):
        kernel_calls, firing = [0], []   # firing: patch index per firing patch
        patch = iter(range(10**6))

        def kernel(*a, **kw):
            kernel_calls[0] += 1
            return real_kernel(*a, **kw)

        def fire(*a, **kw):
            fired = real_fire(*a, **kw)
            index = next(patch)
            if fired:
                firing.append(index)
            return fired

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constraints, "progressive_verdicts", kernel)
            mp.setattr(pitcher, "fire_rows", fire)
            assert cli.main(argv) == 0
        counts[name] = kernel_calls[0], firing
    capsys.readouterr()
    (plain, firing), (checked, firing_checked) = counts["plain"], counts["checked"]
    assert firing_checked == firing and len(firing) > 1
    assert checked == plain + 1 + sum(1 for index in firing if index > 0)
