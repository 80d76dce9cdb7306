"""Driver tests: greedy heights, patch bookkeeping, and full runs.

Derivations for the frozen values are spelled out at each test; eta below
always means the configured height-search resolution and 1D remote-cone
margin (1e-9 * sigma_min * wmin unless a test overrides it).
"""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tentmesh.constraints import (
    ConstraintConfig,
    Facets,
    causal_triangle,
    facet_verdicts,
    front_causality_report,
    is_progressive_front,
    progress_ok,
)
from tentmesh.cli import export_spacetime_mesh
from tentmesh.errors import ContractViolation, InvalidArgument, ValidationError
from tentmesh.fields import (
    CompositeMinField,
    ConstantField,
    SpatialConeField,
    TableField,
    TimeStepField,
)
from tentmesh.front import Front, initial_front, local_minima
from tentmesh.hierarchy import ConeHierarchy, build as build_cones
from tentmesh.mesh import build_mesh, grid_mesh, interval_mesh, strip_mesh
from tentmesh import pitcher
from tentmesh.pitcher import (
    HEURISTICS,
    STALL_STEPS,
    SpacetimeMesh,
    advance_until,
    front_prism_volume,
    greedy_height,
    local_cap,
    pitch_bracket,
    search_top,
    star_feasible,
)
from tentmesh.solver import parse_script, solve_patch

from spacetime_reference import ReferenceSpacetimeMesh
from support import random_front


def _star(mesh, p):
    return Facets.of(mesh, mesh.stars[p])


def _setup(mesh, field, **kw):
    cfg = ConstraintConfig.for_problem(mesh, field, **kw)
    front = initial_front(mesh)
    field.attach_domain(mesh.vertices.min(axis=0), mesh.vertices.max(axis=0))
    cones = build_cones(mesh, front, field, cfg)
    return cfg, front, cones


# -- spacetime mesh container ------------------------------------------------


def test_container_dedup_deps_volume():
    # Interval [0,1,2]; pitch v0 to 1, v2 to 1, then v1 to 1.5.  Events:
    # v0 adds (0,0),(0,1),(1,0); v2 adds (2,0),(2,1) and reuses (1,0); v1
    # adds only its top (1,1.5), reusing (1,0),(0,1),(2,1): 6 events total.
    # The middle patch depends on both earlier ones through the shared
    # segments.  Volumes: 2 * (1*1)/2 + 2 * (1*1.5)/2 = 2.5, matching the
    # prism under the final front (1, 1.5, 1).
    mesh = interval_mesh([0.0, 1.0, 2.0])
    sm = SpacetimeMesh(mesh)
    zeros = np.zeros(3)
    p0 = sm.add_patch(0, 0.0, 1.0, 1.0, mesh.stars[0], zeros)
    p1 = sm.add_patch(2, 0.0, 1.0, 1.0, mesh.stars[2], zeros)
    mid = np.array([1.0, 0.0, 1.0])
    p2 = sm.add_patch(1, 0.0, 1.5, 1.5, mesh.stars[1], mid)
    assert sm.n_events == 6
    assert sm.n_elements == 4
    assert p0.deps.tolist() == [-1]
    assert p1.deps.tolist() == [-1]
    assert p2.deps.tolist() == [0, 1]
    assert p2.elements.tolist() == [2, 3]
    assert sm.element_array().shape == (4, 3)
    assert sm.total_volume() == 2.5
    final = np.array([1.0, 1.5, 1.0])
    assert front_prism_volume(mesh, np.zeros(3), final) == 2.5


def test_container_element_event_order():
    # Element rows are (apex base, apex top, other vertices in row order).
    mesh = interval_mesh([0.0, 1.0])
    sm = SpacetimeMesh(mesh)
    patch = sm.add_patch(1, 0.0, 0.25, 0.25, mesh.stars[1], np.zeros(2))
    assert sm.elements == [[0, 1, 2]]
    assert sm.event_vertex == [1, 1, 0]
    assert sm.event_time == [0.0, 0.25, 0.0]
    assert patch.facets.tolist() == [0]
    coords, times = sm.event_table()
    assert coords.tolist() == [[1.0], [1.0], [0.0]]
    assert times.tolist() == [0.0, 0.25, 0.0]


def test_container_rejects_a_base_off_the_front():
    # After v0's patch its current event is its top (0, 1.0): a base at 0.0
    # is a stale event, and so is a corner of v1 at 0.5 where its current
    # event sits at 0.0.  Neither call adds anything.
    mesh = interval_mesh([0.0, 1.0, 2.0])
    sm = SpacetimeMesh(mesh)
    sm.add_patch(0, 0.0, 1.0, 1.0, mesh.stars[0], np.zeros(3))
    before = (list(sm.event_vertex), list(sm.event_time),
              [list(e) for e in sm.elements], len(sm.patches))
    with pytest.raises(InvalidArgument, match="vertex 0 is not its current"):
        sm.add_patch(0, 0.0, 2.0, 2.0, mesh.stars[0], np.zeros(3))
    with pytest.raises(InvalidArgument, match="vertex 1 is not its current"):
        sm.add_patch(2, 0.0, 1.0, 1.0, mesh.stars[2],
                     np.array([1.0, 0.5, 0.0]))
    assert (sm.event_vertex, sm.event_time, sm.elements, len(sm.patches)) \
        == before
    # The same calls on the front itself go through.
    sm.add_patch(2, 0.0, 1.0, 1.0, mesh.stars[2], np.array([1.0, 0.0, 0.0]))
    sm.add_patch(0, 1.0, 2.0, 1.0, mesh.stars[0], np.array([1.0, 0.0, 1.0]))
    assert sm.event_vertex == [0, 0, 1, 2, 2, 0]


@pytest.mark.parametrize("top", [0.0, -1.0, math.nan])
def test_container_rejects_a_top_not_above_its_base(top):
    mesh = interval_mesh([0.0, 1.0])
    sm = SpacetimeMesh(mesh)
    with pytest.raises(InvalidArgument, match="must lie above its base"):
        sm.add_patch(1, 0.0, top, 0.0, mesh.stars[1], np.zeros(2))
    assert sm.n_events == sm.n_elements == len(sm.patches) == 0


def _patch_fields(patch):
    return (patch.index, patch.vertex, patch.base_time, patch.top_time,
            patch.height, patch.facets.tolist(), patch.elements.tolist(),
            patch.deps.tolist())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_event_table_matches_dict_reference(data):
    # Every add_patch call of a run goes to the dict-keyed reference too:
    # events (in id order), elements and patches must be equal after each.
    dim = data.draw(st.sampled_from([1, 2]))
    kind = data.draw(st.sampled_from(["constant", "timestep", "cone",
                                      "table+script"]))
    heuristic = data.draw(st.sampled_from(HEURISTICS))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mesh, field, script = _random_case(rng, dim, kind)
    front, target = None, 0.6
    if data.draw(st.booleans()):
        cfg = ConstraintConfig.for_problem(mesh, field)
        front = random_front(mesh, cfg, rng, pitches=int(rng.integers(1, 6)))
        # A floor-bounded front can already lie above 0.6 everywhere; the
        # target sits above its highest vertex so the run adds patches.
        target = float(front.times.max()) + 0.6
    real = SpacetimeMesh.add_patch
    refs = {}
    calls = [0]

    def add_patch(sm, p, t_base, t_top, height, sids, base_times, *rest):
        ref = refs.setdefault(id(sm), ReferenceSpacetimeMesh(sm.space))
        want = ref.add_patch(p, t_base, t_top, height, sids, base_times)
        got = real(sm, p, t_base, t_top, height, sids, base_times, *rest)
        assert _patch_fields(got) == want
        assert sm.event_vertex == ref.event_vertex
        assert [t.hex() for t in sm.event_time] == \
            [t.hex() for t in ref.event_time]
        assert sm.elements == ref.elements
        assert sm.element_space == ref.element_space
        assert sm.element_patch == ref.element_patch
        calls[0] += 1
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SpacetimeMesh, "add_patch", add_patch)
        try:
            run = advance_until(mesh, field, target, front=front,
                                heuristic=heuristic, script=script,
                                max_patches=30)
        except ContractViolation:
            return  # a scripted drop can wedge a run after checked patches
    assert calls[0] == run.stats["patches"] > 0
    assert run.stats["events"] == len(refs[id(run.stmesh)].event_vertex)


# -- closed-form caps --------------------------------------------------------


def test_local_cap_1d():
    # p=1 with neighbor times (0, 0.3) and sigma 2: walls at 0 + 2*1 = 2
    # and 0.3 + 2*1 = 2.3; the cap is the lower wall.
    mesh = interval_mesh([0.0, 1.0, 2.0])
    times = np.array([0.0, 0.0, 0.3])
    assert local_cap(mesh, times, 1, 2.0, 0.5, _star(mesh, 1)) == 2.0


def test_local_cap_2d_progress_binds():
    # Unit right triangle, apex at the right angle, flat base, sigma 1,
    # epsilon 1/2.  Causality cap: t_u + alt * sigma = sqrt(2)/2 ~ 0.707.
    # Progress cap: with the base flat it equals t_r + |rp| (1-eps) sigma
    # phi_q = 0 + 1 * 0.5 * 1 = 0.5 (phi_q caps at 1), which binds.
    mesh = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )
    cap = local_cap(mesh, np.zeros(3), 0, 1.0, 0.5, _star(mesh, 0))
    assert cap == pytest.approx(0.5, abs=1e-15)


def test_local_cap_2d_causality_binds_with_small_epsilon():
    # Same triangle but epsilon -> small makes the progress cap 1 * (1-eps),
    # larger than the causality cap sqrt(2)/2, which then binds.
    mesh = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )
    cap = local_cap(mesh, np.zeros(3), 0, 1.0, 0.01, _star(mesh, 0))
    assert cap == pytest.approx(math.sqrt(0.5), abs=1e-15)


@given(st.integers(min_value=5, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.5, max_value=2.0),
       st.floats(min_value=0.05, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_local_cap_2d_is_where_the_star_constraints_bind(k, seed, sigma, epsilon):
    # A jittered star of k triangles around p = vertex 0, constant slope.
    # The ring times spread by at most 0.05 sigma, well below any cap, so p
    # is the latest vertex of each lifted triangle.  At the cap every
    # triangle is causal at apex p and within the edge-form progress bound,
    # the tightest one exactly; just above it one fails.
    rng = np.random.default_rng(seed)
    angles = 2.0 * math.pi * (np.arange(k) + rng.uniform(-0.25, 0.25, k)) / k
    radii = rng.uniform(0.7, 1.3, k)
    ring = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    mesh = build_mesh(np.vstack(([0.0, 0.0], ring)),
                      np.array([[0, 1 + i, 1 + (i + 1) % k] for i in range(k)]))
    times = np.concatenate(([0.0], 0.05 * sigma * rng.uniform(0.0, 1.0, k)))
    cap = local_cap(mesh, times, 0, sigma, epsilon, _star(mesh, 0))

    def verdicts(top):
        lifted = times.copy()
        lifted[0] = top
        out = []
        for row in mesh.simplices:
            pts, t = mesh.vertices[row], lifted[row]
            apex = int(np.flatnonzero(row == 0)[0])
            out.append(causal_triangle(pts, t, sigma, apex=apex))
            out.append(progress_ok(pts, t, sigma, epsilon, ids=row))
        return out

    at_cap = verdicts(cap)
    assert all(v.satisfied for v in at_cap)
    tightest = min(at_cap, key=lambda v: v.slack)
    assert abs(tightest.slack) <= 1e-12 * tightest.scale
    above = verdicts(cap + 1e-9 * max(1.0, cap))
    assert min(v.slack for v in above) < 0.0
    assert not all(v.satisfied for v in above)


# -- greedy heights, 1D ------------------------------------------------------


def test_greedy_1d_uniform_floor():
    # Uniform spacing: the cap sigma*|pq| - eta sits just below the floor
    # sigma*wmin, so every pitch takes exactly the floor height.
    mesh = interval_mesh([0.0, 1.0, 2.0])
    field = ConstantField(1.0)
    cfg, front, cones = _setup(mesh, field)
    stats = {"floor_hits": 0, "cap_hits": 0, "bisection_steps": 0}
    h = greedy_height(mesh, front, field, cfg, cones, 1, stats)
    assert h == cfg.tmin_1d == 1.0
    assert stats["floor_hits"] == 1


def test_greedy_1d_long_edge_cap():
    # Vertex 2 only touches the length-1.5 segment; remote entry from the
    # far segment is 0 + 1*1.5 = 1.5 as well, so the cap is 1.5 - eta with
    # eta = 1e-9 * wmin * sigma = 1e-9, and it verifies directly.
    mesh = interval_mesh([0.0, 1.0, 2.5])
    field = ConstantField(1.0)
    cfg, front, cones = _setup(mesh, field)
    stats = {"floor_hits": 0, "cap_hits": 0, "bisection_steps": 0}
    h = greedy_height(mesh, front, field, cfg, cones, 2, stats)
    assert h == 1.5 - 1e-9
    assert stats["cap_hits"] == 1


def test_greedy_1d_remote_cone_blocks():
    # Shallow far cone: slopes (1, 0.2) on [0,1],[1,3].  From vertex 0 the
    # remote cone of [1,3] enters at 0 + 0.2*1 = 0.2, well under the local
    # wall 0 + 1*1; the greedy stops eta short of 0.2 (floor is
    # tmin = 0.2 * 1 = 0.2, so the floor and the cap coincide here and the
    # floor wins).
    mesh = interval_mesh([0.0, 1.0, 3.0])
    field = TableField([1.0, 0.2])
    cfg, front, cones = _setup(mesh, field)
    floor_top, cap = pitch_bracket(mesh, front, field, cfg, cones, 0)
    assert cap == pytest.approx(0.2, abs=1e-9)
    h = greedy_height(mesh, front, field, cfg, cones, 0, None)
    assert h == cfg.tmin_1d


def test_greedy_1d_bisects_against_time_step():
    # Slope drops from 1 to 0.25 at t=0.5.  Initial stored slopes sample the
    # flat front (all 1.0), so the bracket cap is 1.5 - eta, but candidates
    # at or past 0.5 sample the late band and fail causality over the
    # length-1.5 segment (0.25 * 1.5 = 0.375 < 0.5).  Feasibility is exactly
    # c < 0.5, so the greedy lands within eta below 0.5.
    mesh = interval_mesh([0.0, 1.0, 2.5])
    field = TimeStepField([0.5], [1.0, 0.25])
    cfg, front, cones = _setup(mesh, field)
    assert cfg.tmin_1d == 0.25
    stats = {"floor_hits": 0, "cap_hits": 0, "bisection_steps": 0}
    h = greedy_height(mesh, front, field, cfg, cones, 2, stats)
    assert stats["bisection_steps"] > 10
    assert 0.5 - 2.0 * cfg.eta <= h < 0.5


def test_greedy_uses_updated_cone_slopes():
    # Dropping a stored neighbor slope tightens the local cap.
    mesh = interval_mesh([0.0, 1.0, 2.5])
    field = ConstantField(1.0)
    cfg, front, cones = _setup(mesh, field)
    _, cap_before = pitch_bracket(mesh, front, field, cfg, cones, 2)
    cones.update_leaf(1, 0.5)
    _, cap_after = pitch_bracket(mesh, front, field, cfg, cones, 2)
    assert cap_before == 1.5 - cfg.eta
    assert cap_after == 0.75 - cfg.eta  # 0 + 0.5 * 1.5, remote unchanged


# -- greedy heights, 2D ------------------------------------------------------


class _RecordingCone(SpatialConeField):
    """A cone field that keeps the bytes of the points and times it samples."""

    def __init__(self, *args):
        super().__init__(*args)
        self.xs, self.ts = [], []

    def _values(self, xs, ts, elems):
        self.xs.append(xs.tobytes())
        self.ts.append(ts.tobytes())
        return super()._values(xs, ts, elems)

    def take(self) -> tuple[bytes, bytes]:
        got = b"".join(self.xs), b"".join(self.ts)
        self.xs, self.ts = [], []
        return got


def test_star_check_1d_samples_what_solve_patch_stores():
    # The verified slope of a lifted 1D star and the slope the cone store
    # takes for it must come from the same field samples, or at a cone
    # boundary a facet could be verified against one slope and stored with
    # another.
    mesh = interval_mesh(np.linspace(0.0, 1.0, 41))
    field = _RecordingCone([0.4], 0.0, 0.5, 1.0, 0.5)
    cfg = ConstraintConfig.for_problem(mesh, field)
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = int(rng.integers(mesh.n_vertices))
        times = rng.uniform(0.0, 0.5, mesh.n_vertices)
        top = float(times[p] + rng.uniform(0.0, 0.1))
        star_feasible(mesh, times, p, top, field, cfg)
        checked = field.take()
        sids = mesh.stars[p]
        lifted = times.copy()
        lifted[p] = top
        rows = mesh.simplices[sids]
        solve_patch(field, mesh.vertices[rows], lifted[rows], sids, top)
        assert checked == field.take()


def test_run_1d_stores_the_slopes_solve_patch_would_sample(monkeypatch):
    # A 1D run keeps the slopes its accepted probe sampled instead of
    # sampling the lifted star again.  Each stored star must equal a fresh
    # solve_patch sample at the run's lifted times, bit for bit, and those
    # times must be ones a probe of this patch sampled.  The cone sweeps
    # the graded interval, so caps and bisections both occur.
    mesh = interval_mesh(np.linspace(0.0, 1.0, 41) ** 1.3)
    field = _RecordingCone([0.4], 0.0, 0.5, 1.0, 0.5)
    cfg = ConstraintConfig.for_problem(mesh, field)
    real_update = ConeHierarchy.update_star
    patches = [0]

    def update_star(cones, sids, slopes):
        probed = field.take()[1]
        rows = mesh.simplices[sids]
        # No script rows are pending, so the top time is never read.
        fresh, _ = solve_patch(field, mesh.vertices[rows],
                               cones.front.times[rows], sids, math.inf)
        assert field.take()[1] in probed
        assert [float(s).hex() for s in slopes] == \
            [float(s).hex() for s in fresh]
        patches[0] += 1
        real_update(cones, sids, slopes)

    monkeypatch.setattr(ConeHierarchy, "update_star", update_star)
    run = advance_until(mesh, field, 0.8, config=cfg)
    assert patches[0] == run.stats["patches"] > 40
    assert run.stats["bisection_steps"] > 0 and run.stats["cap_hits"] > 0


def test_star_check_2d_keeps_the_slope_it_verified():
    # The speed-up cone's apex time sits on the triangle's centre sample,
    # so the last bit of that sample's time decides inside (0.5) or outside
    # (1.0).  The star check samples 10 rows per triangle and rounds it
    # inside; solve_patch's one-row call rounds it outside.  That is why the
    # driver stores the check's own row-0 sample, not solve_patch's: storing
    # 1.0 would keep a cone slope above the one the triangle was verified at.
    mesh = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )
    times = np.array([float.fromhex("0x1.aa6348a432ee3p-11"),
                      float.fromhex("0x1.de8bfad446251p-11"),
                      float.fromhex("0x1.3e0d468a3f577p-11")])
    field = SpatialConeField([0.6095125613421898, 0.0785416484864699],
                             float.fromhex("0x1.c1aba51eb00d8p-11"),
                             0.5, 1.0, 1e6)
    cfg = ConstraintConfig.for_problem(mesh, field)
    rows = mesh.simplices
    for p in range(3):
        got = []
        star_feasible(mesh, times, p, float(times[p]), field, cfg, sampled=got)
        assert got[0].tolist() == [0.5]
        stored, _ = solve_patch(field, mesh.vertices[rows], times[rows],
                                mesh.stars[p], float(times[p]))
        assert stored.tolist() == [1.0]


def test_run_2d_stores_the_slopes_its_accepted_probe_sampled(monkeypatch):
    # A 2D run keeps the row-0 slopes (each triangle at its lifted times)
    # of the star check that accepted the height.  Each stored star must
    # be, by float.hex, the slopes of a feasible probe of that patch at the
    # patch's top, and a fresh check at the lifted times must sample the
    # bytes some probe of the patch sampled.  The slow-down cone sweeps the
    # jittered grid, so caps and bisections both occur.
    mesh = grid_mesh(6, 6, skew=0.1)
    field = _RecordingCone([0.1, 0.1], 0.0, 2.0, 1.0, 0.05)
    cfg = ConstraintConfig.for_problem(mesh, field)
    real_check, real_update = pitcher.star_feasible, ConeHierarchy.update_star
    accepted = {}   # (vertex, top) -> slopes of a feasible probe, as hex
    patches = [0]

    def star_feasible(mesh_, times, p, c, *args, sampled, **kw):
        ok = real_check(mesh_, times, p, c, *args, sampled=sampled, **kw)
        if ok:
            accepted[p, c] = [s.hex() for s in sampled[-1].tolist()]
        return ok

    def update_star(cones, sids, slopes):
        probed = field.take()[1]
        (p,) = {v for v, _ in accepted}
        times = cones.front.times
        _, fresh = facet_verdicts(Facets.of(mesh, sids),
                                  times[mesh.simplices[sids]], field, cfg)
        assert field.take()[1] in probed
        stored = [float(s).hex() for s in slopes]
        assert stored == [s.hex() for s in fresh.tolist()]
        assert stored == accepted[p, float(times[p])]
        accepted.clear()
        patches[0] += 1
        real_update(cones, sids, slopes)

    monkeypatch.setattr(pitcher, "star_feasible", star_feasible)
    monkeypatch.setattr(ConeHierarchy, "update_star", update_star)
    run = advance_until(mesh, field, 0.1, config=cfg)
    assert patches[0] == run.stats["patches"] > 40
    assert run.stats["bisection_steps"] > 0 and run.stats["cap_hits"] > 0


def test_greedy_2d_single_triangle_cap():
    # The progress cap 0.5 from test_local_cap_2d_progress_binds verifies
    # against the constant field, so the height is the cap itself.
    mesh = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )
    field = ConstantField(1.0)
    cfg, front, cones = _setup(mesh, field)
    stats = {"floor_hits": 0, "cap_hits": 0, "bisection_steps": 0}
    h = greedy_height(mesh, front, field, cfg, cones, 0, stats)
    assert h == pytest.approx(0.5, abs=1e-14)
    assert stats["cap_hits"] == 1


def test_greedy_2d_bisects_against_time_step():
    # Slope falls 1 -> 0.2 at t=0.3: candidates below 0.3 verify against
    # sigma=1 (cap 0.5 region), at or above 0.3 they sample the late band
    # and fail, so the supremum is 0.3 and the greedy lands just under it.
    mesh = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )
    field = TimeStepField([0.3], [1.0, 0.2])
    cfg, front, cones = _setup(mesh, field)
    stats = {"floor_hits": 0, "cap_hits": 0, "bisection_steps": 0}
    h = greedy_height(mesh, front, field, cfg, cones, 0, stats)
    assert stats["bisection_steps"] > 10
    assert 0.3 - 2.0 * cfg.eta <= h < 0.3


@pytest.mark.parametrize("dim", [1, 2])
def test_greedy_within_eta_of_scan(dim):
    # With a coarse eta the greedy must agree with a brute-force scan of the
    # same bracket (step eta/4, walking while feasible) to within eta.
    rng = np.random.default_rng(42 + dim)
    for trial in range(12):
        if dim == 1:
            xs = np.sort(rng.uniform(0, 3, size=4))
            xs = xs[np.concatenate([[True], np.diff(xs) > 0.3])]
            if len(xs) < 3:
                continue
            mesh = interval_mesh(xs)
        else:
            mesh = grid_mesh(2, 2) if trial % 2 else strip_mesh(3)
        drop_t = float(rng.uniform(0.05, 0.4))
        field = TimeStepField([drop_t], [float(rng.uniform(0.8, 1.5)),
                                         float(rng.uniform(0.2, 0.5))])
        cfg, front, cones = _setup(mesh, field)
        cfg = cfg.with_eta(1e-2 * cfg.tmin(dim))
        front = random_front(mesh, cfg, rng, pitches=int(rng.integers(0, 4)))
        cones = build_cones(mesh, front, field, cfg)
        p = front.argmin_vertex()
        h = greedy_height(mesh, front, field, cfg, cones, p, None)
        floor_top, cap = pitch_bracket(mesh, front, field, cfg, cones, p)
        t_p = float(front.times[p])
        # Scan: largest feasible candidate on the eta/4 grid, stopping at the
        # first infeasible one (contiguous prefix from the floor).
        best = floor_top
        c = floor_top
        step = cfg.eta / 4.0
        while c + step <= cap:
            c += step
            if not star_feasible(mesh, front.times, p, c, field, cfg, cones):
                break
            best = c
        scan_h = max(cfg.tmin(dim), best - t_p)
        assert abs(h - scan_h) <= cfg.eta * (1.0 + 1e-9)
        assert h >= cfg.tmin(dim)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_greedy_never_below_floor(data):
    dim = data.draw(st.sampled_from([1, 2]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if dim == 1:
        mesh = interval_mesh(np.cumsum(rng.uniform(0.5, 2.0, size=4)))
        field = ConstantField(float(rng.uniform(0.3, 2.0)))
    else:
        mesh = grid_mesh(2, 2)
        field = TimeStepField([0.2], [1.0, float(rng.uniform(0.3, 1.0))])
    cfg, front, cones = _setup(mesh, field)
    front = random_front(mesh, cfg, rng, pitches=int(rng.integers(0, 5)))
    cones = build_cones(mesh, front, field, cfg)
    p = front.argmin_vertex()
    h = greedy_height(mesh, front, field, cfg, cones, p, None)
    assert h >= cfg.tmin(dim)


# -- the height search -------------------------------------------------------


_TOL = 1e-9 / 8.0


def _step_bound(lo, hi, tol):
    """search_top's stated worst case over the bracket [lo, hi]."""
    return (STALL_STEPS + 1) * (math.ceil(math.log2((hi - lo) / tol)) + 1)


_MARGINS = {
    "line": lambda r: lambda x: 0.7 * (r - x),
    # The shallow line binds far from the root, the steep one near it.
    "kink": lambda r: lambda x: min(2.0 * (r - x), 0.05 + 0.01 * (r - x)),
    "step": lambda r: lambda x: 0.3 if x < r else -0.8,
    "flat-zero": lambda r: lambda x: 0.0 if x <= r else r - x,
}


@pytest.mark.parametrize("shape", sorted(_MARGINS))
@settings(max_examples=60, deadline=None)
@given(root=st.floats(0.001, 0.999))
def test_search_top_on_synthetic_margins(shape, root):
    margin = _MARGINS[shape](root)
    probed = []

    def probe(x):
        probed.append(x)
        m = margin(x)
        return m >= 0.0, m

    lo, hi, steps = search_top(probe, 0.0, margin(0.0), 1.0, margin(1.0), _TOL)
    assert margin(lo) >= 0.0 > margin(hi)
    assert 0.0 < hi - lo <= _TOL
    assert steps == len(probed) <= _step_bound(0.0, 1.0, _TOL)
    assert lo in probed and hi in probed
    if shape == "line":
        assert steps <= 3


def _check_heights(mp) -> list[int]:
    """Make every greedy height assert that it is a probed, feasible top.

    Wraps ``pitcher.star_feasible`` (to record accepted probes) and
    ``pitcher.greedy_height`` through the monkeypatch ``mp``; returns a
    one-element list counting the checked heights.
    """
    real_probe, real_height = pitcher.star_feasible, pitcher.greedy_height
    accepted = []
    checked = [0]

    def probe(mesh, times, p, c, *rest, **kw):
        ok = real_probe(mesh, times, p, c, *rest, **kw)
        if ok:
            accepted.append(c)
        return ok

    def height(mesh, front, field, config, cones, p, stats=None, **kw):
        accepted.clear()
        h = real_height(mesh, front, field, config, cones, p, stats, **kw)
        top = float(front.times[p]) + h
        assert h >= config.tmin(mesh.dim)
        assert top in accepted
        assert real_probe(mesh, front.times, p, top, field, config, cones) is True
        checked[0] += 1
        return h

    mp.setattr(pitcher, "star_feasible", probe)
    mp.setattr(pitcher, "greedy_height", height)
    return checked


def _random_case(rng, dim, kind):
    if dim == 1:
        mesh = interval_mesh(np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.3, 2.0, size=int(rng.integers(2, 6))))]))
    else:
        mesh = (grid_mesh(2, 2), strip_mesh(4),
                grid_mesh(3, 3, skew=0.2))[int(rng.integers(3))]
    script = None
    if kind == "constant":
        field = ConstantField(float(rng.uniform(0.4, 1.5)))
    elif kind == "timestep":
        levels = [float(rng.uniform(0.8, 1.5)), float(rng.uniform(0.2, 0.5))]
        if dim == 2 and rng.integers(2):
            levels.reverse()
        field = TimeStepField([float(rng.uniform(0.05, 0.4))], levels)
    elif kind == "cone":
        field = SpatialConeField(mesh.vertices.mean(axis=0), 0.0, 1.5, 0.5, 0.5)
    else:
        m = mesh.n_simplices
        field = TableField(rng.uniform(0.8, 2.0, m))
        script = parse_script("".join(
            f"{e} {t!r} {s!r}\n" for e, t, s in
            zip(rng.integers(m, size=m).tolist(), rng.uniform(0.0, 1.0, m).tolist(),
                rng.uniform(0.05, 2.0, m).tolist())))
    return mesh, field, script


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_greedy_heights_are_probed_feasible_tops(data):
    # c07-style random fronts (coarse eta), then every height of a short
    # run: each is a top the search probed and accepted, never below tmin.
    dim = data.draw(st.sampled_from([1, 2]))
    kind = data.draw(st.sampled_from(["constant", "timestep", "cone",
                                      "table+script"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mesh, field, script = _random_case(rng, dim, kind)
    with pytest.MonkeyPatch.context() as mp:
        checked = _check_heights(mp)
        if script is None:
            cfg, _, _ = _setup(mesh, field)
            cfg = cfg.with_eta(1e-2 * cfg.tmin(dim))
            front = random_front(mesh, cfg, rng, pitches=int(rng.integers(0, 4)))
            cones = build_cones(mesh, front, field, cfg)
            pitcher.greedy_height(mesh, front, field, cfg, cones,
                                  front.argmin_vertex())
            assert checked[0] == 1
            checked[0] = 0
        try:
            run = advance_until(mesh, field, 0.6, script=script, max_patches=25)
        except ContractViolation:
            return  # a scripted drop can wedge a run after checked heights
    assert checked[0] == run.stats["patches"] > 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_star_record_gives_the_answers_of_a_fresh_gather(data):
    # star_feasible, pitch_bracket and greedy_height read a prebuilt star
    # record or gather one themselves; the answers must agree by float.hex,
    # and a probe's answer must be its facets' verdict.
    dim = data.draw(st.sampled_from([1, 2]))
    kind = data.draw(st.sampled_from(["constant", "timestep", "cone",
                                      "table"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mesh, field, _ = _random_case(rng, dim, kind)
    cfg, _, _ = _setup(mesh, field)
    cfg = cfg.with_eta(1e-2 * cfg.tmin(dim))
    front = random_front(mesh, cfg, rng, pitches=int(rng.integers(0, 5)))
    cones = build_cones(mesh, front, field, cfg)
    times, tmin = front.times, cfg.tmin(dim)
    for p in range(mesh.n_vertices):
        star = _star(mesh, p)
        brackets = [pitch_bracket(mesh, front, field, cfg, cones, p),
                    pitch_bracket(mesh, front, field, cfg, cones, p, star=star)]
        assert [[x.hex() for x in b] for b in brackets][0] == \
            [x.hex() for x in brackets[1]]
        for h in (0.0, 0.5 * tmin, tmin, 3.0 * tmin):
            c = float(times[p]) + h
            answers = []
            for kw in ({}, {"star": star}):
                margin, sampled = [], []
                ok = star_feasible(mesh, times, p, c, field, cfg, cones,
                                   margin=margin, sampled=sampled, **kw)
                answers.append((ok, margin[0].hex(),
                                [x.hex() for x in sampled[0].tolist()]))
            assert answers[0] == answers[1]
            assert type(answers[0][0]) is bool
            lifted = times.copy()
            lifted[p] = c
            sids = mesh.stars[p]
            remote = None
            if dim == 2:
                remote = functools.partial(cones.min_slope_intersecting, p, c)
            verdicts, _ = facet_verdicts(Facets.of(mesh, sids),
                                         lifted[mesh.simplices[sids]],
                                         field, cfg, remote)
            assert answers[0][0] == bool(verdicts.satisfied.all())
    for p in np.flatnonzero(times == times.min()).tolist():
        heights = []
        for kw in ({}, {"star": _star(mesh, p)}):
            stats = dict.fromkeys(("floor_hits", "cap_hits", "bisection_steps",
                                   "floor_rescues"), 0)
            slopes = []
            try:
                h = greedy_height(mesh, front, field, cfg, cones, p, stats,
                                  slopes=slopes, **kw)
            except ContractViolation as exc:
                heights.append(str(exc))
                continue
            # The one entry is what a fresh probe of the returned top samples.
            sampled = []
            assert star_feasible(mesh, times, p, float(times[p]) + h, field,
                                 cfg, cones, sampled=sampled)
            assert len(slopes) == 1
            assert sampled[0].tobytes() == slopes[0].tobytes()
            heights.append((h.hex(), stats, [x.hex() for x in slopes[0].tolist()]))
        assert heights[0] == heights[1]


def test_floor_rescue_heights_are_probed_feasible_tops():
    # Interval [0, 1, 3], slopes 1.  Vertex 0 rises to 1 - eta; its patch
    # fires the row that drops segment [0, 1] to slope 0.2, so tmin = 0.2.
    # Vertex 1 (at 0) then needs |1 - eta - c| <= 0.2: its floor 0.2 and its
    # cap of about 2 (stored slope 1 over both segments) both fail, so the
    # rescue probes the cap again, then a grid over (0.2, 2) finds a
    # foothold, and the search narrows to just under 1.2 - eta.
    mesh = interval_mesh([0.0, 1.0, 3.0])
    with pytest.MonkeyPatch.context() as mp:
        checked = _check_heights(mp)
        run = advance_until(mesh, TableField([1.0, 1.0]), 1.5,
                            script=parse_script("0 0.5 0.2\n"))
    assert run.stats["floor_rescues"] == 1
    assert run.stats["bisection_steps"] > 0
    assert checked[0] == run.stats["patches"]
    eta = run.config.eta
    assert run.heights[1] == pytest.approx(1.2 - eta, abs=eta / 8)
    assert run.heights[1] <= 1.2 - eta


# -- full runs ---------------------------------------------------------------


def test_run_1d_uniform_sweeps():
    # Five unit segments, sigma 1, target 2.  Interior pitches are floor
    # pitches of height exactly 1 (the cap sigma*|pq| - eta sits just below
    # the floor sigma*wmin); a boundary vertex whose lone neighbor already
    # rose can catch up with a taller wall-riding tent of height 2 - O(eta).
    # Counts: 10 patches, elements = sum of star sizes = 2*(1+2+2+2+1) = 16.
    mesh = interval_mesh([0.0, 1.0, 2.0, 3.0, 4.0])
    run = advance_until(mesh, ConstantField(1.0), 2.0, assert_invariants=True)
    assert run.stats["patches"] == 10
    assert run.stats["elements"] == 16
    assert run.heights.min() == 1.0
    assert set(np.round(run.heights, 6).tolist()) <= {1.0, 2.0}
    assert run.front.min_time() >= 2.0
    want = front_prism_volume(mesh, run.initial_times, run.front.times)
    assert run.stmesh.total_volume() == pytest.approx(want, rel=1e-12)
    assert run.stats["target_reached"] is True


def test_run_volume_matches_front_prism():
    for mesh, field in [
        (interval_mesh([0.0, 0.7, 1.9, 3.0]), ConstantField(0.8)),
        (grid_mesh(2, 2), TimeStepField([0.2], [1.0, 0.6])),
        (strip_mesh(4), ConstantField(1.2)),
    ]:
        run = advance_until(mesh, field, 0.5)
        got = run.stmesh.total_volume()
        want = front_prism_volume(mesh, run.initial_times, run.front.times)
        assert got == pytest.approx(want, rel=1e-12)


def test_run_2d_invariants_hold():
    run = advance_until(grid_mesh(2, 2), ConstantField(1.0), 0.6,
                        assert_invariants=True)
    assert run.stats["target_reached"]
    assert run.heights.min() >= run.config.tmin_2d


def test_run_2d_obtuse_strip_invariants():
    run = advance_until(strip_mesh(5), ConstantField(1.0), 0.7,
                        assert_invariants=True)
    assert run.stats["target_reached"]
    assert run.heights.min() >= run.config.tmin_2d


def test_run_deterministic():
    a = advance_until(grid_mesh(2, 2), TimeStepField([0.25], [1.0, 0.5]), 0.6)
    b = advance_until(grid_mesh(2, 2), TimeStepField([0.25], [1.0, 0.5]), 0.6)
    assert a.heights.tolist() == b.heights.tolist()
    assert a.front.times.tolist() == b.front.times.tolist()
    assert a.stmesh.elements == b.stmesh.elements
    assert a.stats == b.stats


def test_run_hierarchy_and_scan_identical():
    for dim_mesh in (interval_mesh(np.linspace(0, 4, 6)), strip_mesh(4)):
        field = TimeStepField([0.3], [1.0, 0.5])
        a = advance_until(dim_mesh, field, 0.8, use_hierarchy=True)
        field2 = TimeStepField([0.3], [1.0, 0.5])
        b = advance_until(dim_mesh, field2, 0.8, use_hierarchy=False)
        assert a.heights.tolist() == b.heights.tolist()
        assert a.stmesh.elements == b.stmesh.elements
        assert a.front.times.tolist() == b.front.times.tolist()


def test_run_max_patches_truncates():
    run = advance_until(interval_mesh([0.0, 1.0, 2.0]), ConstantField(1.0),
                        math.inf, max_patches=5)
    assert run.stats["patches"] == 5
    assert run.stats["target_reached"] is False


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_run_under_an_infinite_target_emits_no_patch_that_does_not_move(heuristic):
    # At 1e300 a floor lift of 0.25 rounds back to the base time, so each
    # patch would have top == base and volume 0.  The run is rejected before
    # it emits one: at once when the front starts there, and in the loop
    # when a patch takes a vertex there.
    mesh = interval_mesh(np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValidationError, match="front time 1e\\+300 is too large"):
        advance_until(mesh, ConstantField(1.0), math.inf,
                      front=Front(mesh, np.full(5, 1e300)), max_patches=4,
                      heuristic=heuristic)
    emitted = []
    real = SpacetimeMesh.add_patch

    def add_patch(sm, p, t_base, t_top, *rest):
        emitted.append(t_top > t_base)
        return real(sm, p, t_base, t_top, *rest)

    times = np.full(5, 1e300)
    times[0] = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SpacetimeMesh, "add_patch", add_patch)
        with pytest.raises(ValidationError, match="too large for the height"):
            advance_until(mesh, ConstantField(1.0), math.inf,
                          front=Front(mesh, times), max_patches=4,
                          heuristic=heuristic)
    assert emitted and all(emitted)


def test_run_infinite_target_needs_max_patches():
    with pytest.raises(InvalidArgument, match="max_patches"):
        advance_until(interval_mesh([0.0, 1.0]), ConstantField(1.0), math.inf)


def test_run_rejects_unknown_heuristic():
    with pytest.raises(InvalidArgument, match="heuristic"):
        advance_until(interval_mesh([0.0, 1.0]), ConstantField(1.0), 1.0,
                      heuristic="fastest")


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_run_heuristics_reach_target(heuristic):
    run = advance_until(grid_mesh(2, 2), ConstantField(1.0), 0.5,
                        heuristic=heuristic, assert_invariants=True)
    assert run.stats["target_reached"]
    assert run.stats["heuristic"] == heuristic


def test_min_slope_heuristic_prefers_shallow_star():
    # Table slopes (2.0 on [0,1], 1.0 on [1,2]): vertices 1 and 2 share the
    # shallow segment (score 1.0), vertex 1 wins the id tie-break.
    mesh = interval_mesh([0.0, 1.0, 2.0])
    run = advance_until(mesh, TableField([2.0, 1.0]), 0.9,
                        heuristic="min-slope")
    assert run.stmesh.patches[0].vertex == 1


def _min_slope_by_loop(front, cones, target_time, lowest):
    """Reference ``min-slope`` pick: score each local minimum in turn."""
    minima = local_minima(front)
    minima = minima[front.times[minima] < target_time]
    best = None
    for v in minima.tolist():
        score = (float(cones.slopes[front.mesh.stars[v]].min()), v)
        if best is None or score < best:
            best = score
    return lowest if best is None else best[1]


@pytest.mark.parametrize("dim", [1, 2])
def test_min_slope_pick_matches_the_per_minimum_loop(dim):
    rng = np.random.default_rng(29 + dim)
    checked = ties = filtered = 0
    for _ in range(40):
        if dim == 1:
            mesh = interval_mesh(np.cumsum(rng.uniform(0.2, 1.0, 30)))
        else:
            mesh = grid_mesh(int(rng.integers(2, 7)), int(rng.integers(2, 7)),
                             skew=0.2)
        field = ConstantField(1.0)
        cfg = ConstraintConfig.for_problem(mesh, field)
        front = random_front(mesh, cfg, rng, pitches=int(rng.integers(0, 60)))
        cones = build_cones(mesh, front, field)
        cones.slopes[:] = rng.uniform(0.05, 2.0, mesh.n_simplices)
        if rng.random() < 0.5:
            cones.slopes[:] = np.maximum(0.1, np.round(cones.slopes, 1))
        lowest = int(np.argmin(front.times))
        minima = local_minima(front)
        mtimes = np.unique(front.times[minima])
        for target in (math.inf, *mtimes[1:].tolist(), float(mtimes[0])):
            want = _min_slope_by_loop(front, cones, target, lowest)
            got = pitcher._select_vertex("min-slope", front, cones, -1,
                                         target, lowest)
            assert type(got) is int and got == want
            kept = minima[front.times[minima] < target]
            scores = [cones.slopes[mesh.stars[v]].min() for v in kept.tolist()]
            ties += len(scores) > len(set(scores))
            filtered += 0 < kept.size < minima.size
            checked += 1
    # The draws exercised score ties and targets that drop some minima.
    assert checked > 100 and ties > 10 and filtered > 10


def test_round_robin_cycles_minima():
    # Flat start: minima are (0,1,2); round-robin visits them in id order.
    mesh = interval_mesh([0.0, 1.0, 2.0])
    run = advance_until(mesh, ConstantField(1.0), 1.9,
                        heuristic="round-robin")
    first_three = [p.vertex for p in run.stmesh.patches[:3]]
    assert first_three == [0, 1, 2]


def test_run_script_fires_and_changes_slopes():
    mesh = interval_mesh([0.0, 1.0, 2.0])
    field = TableField([1.0, 1.0])
    script = parse_script("0 0.5 0.5\n")
    run = advance_until(mesh, field, 2.0, script=script)
    assert run.stats["script_rows_fired"] == 1
    # The run rewrote its own copy of the table, not the caller's.
    assert run.field.table.tolist() == [0.5, 1.0]
    assert field.table.tolist() == [1.0, 1.0]
    # The script widened sigma_min before the config was derived.
    assert run.config.tmin_1d == 0.5
    assert run.stats["target_reached"]


def test_run_leaves_caller_field_and_script_reusable(tmp_path):
    # Every row fires at 0.1, well before the target, in both runs; the
    # second run must not see the first run's table rewrites or cursor.
    mesh = strip_mesh(10)
    field = TableField(np.ones(mesh.n_simplices))
    script = parse_script("".join(f"{e} 0.1 1.5\n" for e in range(10)))
    outputs = []
    for k in range(2):
        run = advance_until(mesh, field, 0.5, script=script)
        assert run.stats["script_rows_fired"] == 10
        export_spacetime_mesh(run.stmesh, tmp_path / f"run{k}.txt")
        outputs.append((tmp_path / f"run{k}.txt").read_bytes())
    assert outputs[0] == outputs[1]
    assert field.table.tolist() == [1.0] * mesh.n_simplices
    assert field.sigma_max == 1.0 and field.domain is None
    assert script.rows == parse_script("".join(f"{e} 0.1 1.5\n"
                                               for e in range(10))).rows


def _composite_case():
    """A 2D composite of table and slow-down cone, with a script whose rows
    all fire before the target; built afresh on every call."""
    mesh = grid_mesh(4, 4, skew=0.1)
    rng = np.random.default_rng(5)
    table = TableField(rng.uniform(1.0, 1.5, mesh.n_simplices))
    field = CompositeMinField([table, SpatialConeField([0.2, 0.2], 0.0, 2.0,
                                                       1.25, 0.1)])
    script = parse_script("".join(f"{e} {0.02 * (e % 5)!r} {1.6 + 0.1 * (e % 3)!r}\n"
                                  for e in range(0, mesh.n_simplices, 3)))
    return mesh, field, script


def test_rerun_identity_with_composite_field_and_script(tmp_path):
    # One set of input objects drives two runs: the heights and --out bytes
    # agree, and afterwards every input equals a freshly built one.
    mesh, field, script = _composite_case()
    outputs, heights = [], []
    for k in range(2):
        run = advance_until(mesh, field, 0.12, script=script)
        assert run.stats["script_rows_fired"] == len(script.rows)
        export_spacetime_mesh(run.stmesh, tmp_path / f"run{k}.txt")
        outputs.append((tmp_path / f"run{k}.txt").read_bytes())
        heights.append(run.heights.tobytes())
    assert outputs[0] == outputs[1] and heights[0] == heights[1]
    _, fresh, fresh_script = _composite_case()
    for got, want in zip(field.children, fresh.children):
        assert (got.sigma_min, got.sigma_max) == (want.sigma_min, want.sigma_max)
        assert got.domain is None
    assert field.children[0].table.tobytes() == fresh.children[0].table.tobytes()
    assert (field.sigma_min, field.sigma_max) == (fresh.sigma_min, fresh.sigma_max)
    assert field.domain is None
    assert script.rows == fresh_script.rows
    # The run's own field carries the rewrites and the widened bounds.
    assert run.field.children[0].table.tolist() != field.children[0].table.tolist()
    assert run.field.sigma_max > field.sigma_max


def test_finished_run_field_is_read_only_and_rebinds():
    # The run's table is frozen when advance_until returns; running again
    # from run.field with a script binds a fresh writable copy, and the
    # first run's table keeps its rewrites.
    mesh, field, script = _composite_case()
    run = advance_until(mesh, field, 0.12, script=script)
    table = run.field.children[0].table
    before = table.copy()
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 9.0
    again = advance_until(mesh, run.field, 0.2, script=script)
    assert again.stats["script_rows_fired"] == len(script.rows)
    assert again.field.children[0].table is not table
    assert not again.field.children[0].table.flags.writeable
    assert table.tobytes() == before.tobytes()


@pytest.mark.parametrize("mesh, field", [
    (grid_mesh(2, 2), TableField([1.0, 1.0])),
    (interval_mesh([0.0, 1.0]), TableField([1.0, 1.0])),
    (grid_mesh(3, 3), SpatialConeField([0.5], 0.0, 2.0, 1.0, 0.5)),
    (interval_mesh([0.0, 0.5, 1.0]), SpatialConeField([0.5, 0.0], 2.0, 1.0, 0.5, 1.0)),
    # A centre whose squared distance overflows: with cone_slope 0 every
    # point read as outside (0 * inf is NaN), at slope 1.0 instead of 0.5.
    (grid_mesh(3, 3), SpatialConeField([1e200, 0.0], 0.0, 0.5, 1.0, 0.0)),
    (interval_mesh([0.0, 0.5, 1.0]), SpatialConeField([-1e160], 0.0, 0.5, 1.0, 0.0)),
])
def test_run_rejects_field_that_does_not_fit_mesh(mesh, field):
    with pytest.raises(ValidationError, match="^(table|cone) field"):
        advance_until(mesh, field, 0.5)


@pytest.mark.parametrize("kw", [{"max_patches": -3}, {"max_patches": 2.5},
                                {"max_patches": "2"}, {"snapshot_every": -1},
                                {"snapshot_every": 1.5}])
def test_run_rejects_a_count_that_is_not_an_integer_at_least_zero(kw):
    (name, value), = kw.items()
    with pytest.raises(InvalidArgument,
                       match=f"^{name} must be an integer >= 0, got {value!r}"):
        advance_until(interval_mesh([0.0, 1.0, 2.0]), ConstantField(1.0),
                      1.0, **kw)


def test_run_takes_any_integer_count():
    run = advance_until(interval_mesh([0.0, 1.0, 2.0]), ConstantField(1.0),
                        math.inf, max_patches=np.int64(2),
                        snapshot_every=np.int32(0))
    assert run.stats["patches"] == 2


def test_run_rejects_target_beyond_finite_floor_count():
    # Tmin 0.5: span / Tmin = 1e308 / 0.5 overflows to inf.
    with pytest.raises(ValidationError, match="target time"):
        advance_until(interval_mesh([0.0, 0.5, 1.0]), ConstantField(1.0), 1e308)
    # Tmin 1: span / Tmin is finite, but 1e308 + 1 == 1e308, so a floor lift
    # no longer moves a vertex near the target and the run would not end.
    with pytest.raises(ValidationError, match="target time"):
        advance_until(interval_mesh([0.0, 1.0, 2.0]), ConstantField(1.0), 1e308)
    # Tmin 1.  Just below 2**53 + 2 the ulp is 2, so a lift by half an ulp
    # leaves a time with an even last bit where it was, although
    # (2**53 + 2) + 1 rounds up to 2**53 + 4; the run used to spin until
    # its patch guard and raise ContractViolation.
    mesh, field = interval_mesh([0.0, 1.0, 2.0]), ConstantField(1.0)
    start = initial_front(mesh, np.full(3, 2.0**53), field=field)
    with pytest.raises(ValidationError, match="target time"):
        advance_until(mesh, field, 2.0**53 + 2, front=start)


def test_run_reaches_target_where_floor_lifts_still_move():
    # 2**53 + 1 == 2**53, but below 2**53 the ulp is 1 and a lift by Tmin 1
    # moves every time: this target used to be rejected.
    mesh, field = interval_mesh([0.0, 1.0, 2.0]), ConstantField(1.0)
    start = initial_front(mesh, np.full(3, 2.0**53 - 8), field=field)
    run = advance_until(mesh, field, 2.0**53, front=start)
    assert run.stats["target_reached"]
    assert run.stats["patches"] == 14


@pytest.mark.parametrize("mesh, vertex, time, sid, binding", [
    (interval_mesh([0.0, 1.0, 2.0, 3.0]), 3, 1.5, 2, "causality"),
    (grid_mesh(2, 2), 2, 0.45, 2, "causality"),   # uncausal
    (grid_mesh(2, 2), 2, 0.3, 2, "progress"),     # causal, not progressive
])
def test_invariant_check_names_the_bad_facet(mesh, vertex, time, sid, binding):
    field = ConstantField(1.0)
    cfg = ConstraintConfig.for_problem(mesh, field)
    times = np.zeros(mesh.n_vertices)
    times[vertex] = time
    front = Front(mesh, times)
    patch = SimpleNamespace(index=7)
    causal = front_causality_report(mesh, times, field, cfg)["satisfied"].all()
    assert causal == (binding == "progress")
    ok, violations = is_progressive_front(front, field, cfg)
    assert [(s, v.binding) for s, v in violations] == [(sid, binding)]
    with pytest.raises(ContractViolation, match=rf"front facet {sid} .*patch 7"):
        pitcher._assert_front_ok(mesh, front, field, cfg, patch, cfg.tmin(mesh.dim))


def test_run_rejects_nan_target():
    with pytest.raises(ValidationError, match="target"):
        advance_until(interval_mesh([0.0, 1.0]), ConstantField(1.0), math.nan,
                      max_patches=5)


def test_run_snapshot_callback():
    seen = []
    advance_until(interval_mesh([0.0, 1.0, 2.0]), ConstantField(1.0), 2.0,
                  snapshot_every=2,
                  snapshot_cb=lambda k, front: seen.append((k, front.min_time())))
    assert [k for k, _ in seen] == [2, 4, 6]
    assert all(t >= 0.0 for _, t in seen)


@pytest.mark.parametrize("make", [
    lambda mesh: initial_front(interval_mesh([0.0, 1.0, 2.0, 3.0])),
    lambda mesh: Front(mesh, np.zeros(mesh.n_vertices + 1)),
    lambda mesh: Front(mesh, np.array([0.0, math.nan, 0.0])),
    lambda mesh: Front(mesh, np.array([0.0, math.inf, 0.0])),
    lambda mesh: Front(mesh, np.array([0.0, -0.5, 0.0])),
], ids=["other-mesh", "vertex-count", "nan", "inf", "negative"])
def test_run_rejects_a_front_it_cannot_start_from(make):
    # These used to raise IndexError (another mesh) or, with NaN, return
    # at once with 0 patches and no error.
    mesh = interval_mesh([0.0, 1.0, 2.0])
    with pytest.raises(ValidationError,
                       match="another mesh|vertex times|finite and >= 0"):
        advance_until(mesh, ConstantField(1.0), 1.0, front=make(mesh))


def test_run_accepts_a_front_over_an_equal_mesh():
    front = initial_front(interval_mesh([0.0, 1.0, 2.0]))
    run = advance_until(interval_mesh([0.0, 1.0, 2.0]), ConstantField(1.0),
                        1.0, front=front)
    assert run.stats["target_reached"]


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_no_live_view_escapes_a_run(heuristic, monkeypatch):
    # The run lifts one array in place; the caller's front, the snapshot
    # fronts and the returned front must all be frozen values.
    indexes = []

    class Recorded(pitcher.BlockedTimes):
        def __init__(self, times):
            super().__init__(times)
            indexes.append(self)

    monkeypatch.setattr(pitcher, "BlockedTimes", Recorded)
    mesh, field = strip_mesh(4), ConstantField(1.0)
    start = random_front(mesh, ConstraintConfig.for_problem(mesh, field),
                         np.random.default_rng(3), pitches=4)
    before = start.times.tobytes()
    snaps = []
    run = advance_until(mesh, field, 0.5, front=start, heuristic=heuristic,
                        snapshot_every=3,
                        snapshot_cb=lambda k, fr: snaps.append(
                            (fr, fr.times.tobytes())))
    assert start.times.tobytes() == before
    assert len(snaps) == run.stats["patches"] // 3 > 2
    for fr, seen in snaps:
        assert fr.times.tobytes() == seen
        assert not fr.times.flags.writeable
    assert snaps[0][1] != snaps[-1][1]
    (index,) = indexes
    assert index.times.tobytes() == run.front.times.tobytes()
    assert not run.front.times.flags.writeable
    for fr in [run.front] + [fr for fr, _ in snaps]:
        assert not np.shares_memory(fr.times, index.blocks)


def test_run_makes_no_whole_front_copy_or_scan_per_patch(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("O(n) front call inside the patch loop")

    for name in ("argmin_vertex", "min_time"):
        monkeypatch.setattr(Front, name, forbidden)
    monkeypatch.setattr(ConeHierarchy, "set_front", forbidden)
    for heuristic in HEURISTICS:
        for mesh in (interval_mesh(np.linspace(0.0, 1.0, 9)), strip_mesh(3)):
            run = advance_until(mesh, ConstantField(1.0), 0.4,
                                heuristic=heuristic)
            assert run.stats["target_reached"]


def test_run_stats_counters_present():
    run = advance_until(strip_mesh(3), ConstantField(1.0), 0.4)
    for key in ("patches", "elements", "events", "cone_slope_queries",
                "floor_hits", "cap_hits", "bisection_steps", "min_height"):
        assert key in run.stats
    assert run.stats["patches"] == len(run.stmesh.patches)
    assert run.stats["elements"] == run.stmesh.n_elements
