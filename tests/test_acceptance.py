"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines inline.
"""

import math
import time

import numpy as np
import pytest

import nulldist as nd
from nulldist.curves import (
    EncodesVerdict,
    PiecewiseCausalCurve,
    SegmentSense,
    curve_from_grid_path,
    grid_distance_oracle,
)
from nulldist.grid import GridParams
from nulldist.isometry import RigidityVerdict, identity_map
from nulldist.optical import (
    build_chart,
    chart_inverse,
    grad_norm_omega,
    lipschitz_estimate,
)
from nulldist.spacetime import TimeSense


def _line(n, ok, detail):
    print(f"CRITERION {n:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_minkowski_spacelike_pair():
    """Equal-time unit-separation pair: estimate within 5% of 1, under 10 s."""
    t0 = time.perf_counter()
    st = nd.builtin("minkowski", dim=2)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(-0.3, 0.3), (-0.2, 1.2)], 0.05,
                         nd.StencilSpec(radius=2))
    est, _ = nd.shortest_null_path(grid, grid.node_of([0, 0]), grid.node_of([0, 1]))
    elapsed = time.perf_counter() - t0
    ok = abs(est - 1.0) <= 0.05 and elapsed < 10.0
    assert _line(1, ok, f"estimate {est:.6g} vs 1 (5% band), {elapsed:.2f}s < 10s")
    assert abs(est - 1.0) <= 0.05
    assert elapsed < 10.0


def test_criterion_02_cubed_time_degeneracy():
    """Zigzag witnesses match 2j(D/2j)^3 exactly; grid estimate collapses."""
    st = nd.builtin("minkowski", dim=2)
    tau = nd.cubed_time(st)
    D = 1.0
    witness_ok = True
    for j in (1, 2, 4):
        verts = [[0.0, 0.0]]
        senses = []
        for i in range(1, 2 * j + 1):
            t = D / (2 * j) if i % 2 == 1 else 0.0
            verts.append([t, i * D / (2 * j)])
            senses.append(SegmentSense.FUTURE if i % 2 == 1 else SegmentSense.PAST)
        beta = PiecewiseCausalCurve(st, verts, tuple(senses))
        expect = (2 * j) * (D / (2 * j)) ** 3
        witness_ok &= abs(nd.null_length(beta, tau) - expect) <= 1e-15
    box = [(-0.04, 0.08), (-0.08, 1.08)]
    sched = nd.refine_schedule(st, tau, [0, 0], [0, 1], [0.04, 0.02, 0.01], box)
    est = sched["estimates"]
    grid_ok = est[-1] <= 0.05
    decreasing = all(b < a for a, b in zip(est, est[1:]))
    ok = witness_ok and grid_ok and decreasing
    assert _line(2, ok, f"witnesses exact for j=1,2,4; estimates {est} decreasing, "
                        f"final {est[-1]:.2e} <= 0.05 at h=0.01")
    assert witness_ok and grid_ok and decreasing


def test_criterion_03_missing_ray_violation():
    """Excised-ray pair: MissingCausal verdict with q unreachable at h=0.25.

    With the h/2 edge clearance no directed path survives, so every lattice
    route pays at least one past step and the lattice minimum is exactly
    2 + 2h = 2.5.  The estimate within 5% of 2 comes from the certified
    off-lattice refinement of that witness: a validated curve that misses
    the ray itself, whose null length upper-bounds the continuum infimum 2.
    """
    t0 = time.perf_counter()
    st = nd.builtin("missing_ray", dim=4)
    tau = nd.coordinate_time(st)
    params = GridParams(box=((0.5, 3.5), (-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)),
                        h=0.25)
    grid = nd.build_grid(st, tau, params.box, params.h, params.stencil)
    rep = nd.encodes_causality_test(grid, [1, -1, 0, 0], [3, 1, 0, 0])
    elapsed = time.perf_counter() - t0
    est = rep.result.estimate
    verdict_ok = rep.verdict is EncodesVerdict.VIOLATION_MISSING_CAUSAL
    unreachable_ok = not rep.reachable
    runtime_ok = elapsed < 60.0
    five_percent_ok = abs(est - 2.0) <= 0.10
    ok = verdict_ok and unreachable_ok and runtime_ok and five_percent_ok
    _line(3, ok, f"verdict {rep.verdict.value}, unreachable={unreachable_ok}, "
                 f"estimate {est:.6g} (5% band around 2 requires <= 2.1; lattice "
                 f"minimum is 2+2h = {2 + 2 * params.h}), {elapsed:.1f}s < 60s")
    assert verdict_ok
    assert unreachable_ok
    assert runtime_ok
    # The lattice alone gives 2+2h here (see docstring); the refined witness closes the gap.
    assert five_percent_ok, (
        f"estimate {est} (lattice estimate {rep.result.lattice_estimate}) is outside "
        f"the 5% band around 2; the off-lattice refinement did not certify a curve")


def test_criterion_04_causal_case_exactness():
    """200 random causally related pairs: estimate equals dtau to 1e-12."""
    st = nd.builtin("upper_half_minkowski", dim=2)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(0.5, 2.5), (-1.0, 1.0)], 0.05)
    rng = np.random.default_rng(12345)
    worst = 0.0
    checked = 0
    while checked < 200:
        a = int(rng.integers(0, grid.n_nodes))
        members = np.flatnonzero(nd.reach(grid, a).members)
        members = members[members != a]
        if members.size == 0:
            continue
        b = int(members[rng.integers(0, members.size)])
        est, _ = nd.shortest_null_path(grid, a, b)
        worst = max(worst, abs(est - (grid.tau_values[b] - grid.tau_values[a])))
        checked += 1
    ok = worst <= 1e-12
    assert _line(4, ok, f"200 causal pairs, worst |estimate - dtau| = {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_criterion_05_ball_cylinder():
    """Unit ball boundary: top on the tau level set, side at unit spatial distance."""
    st = nd.builtin("minkowski", dim=2)
    tau = nd.coordinate_time(st)
    h = 0.05
    params = GridParams(box=((-1.3, 1.3), (-1.3, 1.3)), h=h)
    grid = nd.build_grid(st, tau, params.box, params.h, params.stencil)
    rows = nd.ball_boundary_sample(grid, [0.0, 0.0], 1.0, 8)
    ok = True
    for row in rows:
        u, b = row[:2], row[2:]
        if abs(u[0]) >= abs(u[1]):  # causal direction: boundary on |tau| = 1
            ok &= abs(abs(b[0]) - 1.0) <= 2 * h
        else:  # spacelike direction: boundary at spatial distance 1
            ok &= abs(abs(b[1]) - 1.0) <= 2 * h
    ok = bool(ok)
    assert _line(5, ok, f"8 rays: causal tops on |tau|=1 +- {2*h}, sides at |x|=1 +- {2*h}")
    assert ok


def test_criterion_06_optical_function():
    """Chart inversion reproduces omega = x0 - r; gradient and Lipschitz bounds."""
    st = nd.builtin("minkowski", dim=4)
    chart = build_chart(st, [0, 0, 0, 0], TimeSense.FUTURE, eps=0.5)
    rng = np.random.default_rng(99)
    worst = 0.0
    n_done = 0
    while n_done < 100:
        q = rng.uniform(-0.3, 0.3, size=4)
        r = np.linalg.norm(q[1:])
        if r < 0.05 or abs(q[0] - r) > 0.45:  # keep omega inside the chart range
            continue
        val = chart_inverse(chart, q)
        worst = max(worst, abs(val.omega - (q[0] - r)))
        n_done += 1
    omega_ok = worst <= 1e-6
    grads = []
    n_done = 0
    while n_done < 10:
        q = rng.uniform(-0.25, 0.25, size=4)
        if np.linalg.norm(q[1:]) < 0.08:
            continue
        grads.append(grad_norm_omega(chart, q))
        n_done += 1
    grad_ok = all(abs(g - math.sqrt(2.0)) <= 1e-3 for g in grads)
    ratio = lipschitz_estimate(chart, n_pairs=1000, seed=0, lattice_n=7)
    lip_ok = ratio < 2.0
    ok = omega_ok and grad_ok and lip_ok
    assert _line(6, ok, f"omega error {worst:.2e} <= 1e-6 over 100 points; "
                        f"grad norm within 1e-3 of sqrt2; Lipschitz ratio {ratio:.4f} < 2")
    assert omega_ok and grad_ok and lip_ok


def test_criterion_07_curve_lemmas():
    """Telescoping identity to 1e-12; rectifiable = null length on grid paths."""
    st = nd.builtin("minkowski", dim=2)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(-0.5, 0.5), (-0.5, 0.5)], 0.1)
    oracle = grid_distance_oracle(grid)
    rng = np.random.default_rng(77)
    nbr, wt, _ = grid.csr_undirected()
    deg = np.isfinite(wt).sum(axis=1)  # a row's slots past its degree are padding
    worst_tel = 0.0
    worst_rect = 0.0
    done = 0
    while done < 20:
        node = int(rng.integers(0, grid.n_nodes))
        path = [node]
        for _ in range(8):
            k = deg[path[-1]]
            if k == 0:
                break
            nxt = int(nbr[path[-1], rng.integers(0, k)])
            if nxt != path[-1]:
                path.append(nxt)
        if len(path) < 3:
            continue
        curve = curve_from_grid_path(grid, path)
        f, p = nd.zigzag_decompose(curve, tau)
        dtau = grid.tau_values[path[-1]] - grid.tau_values[path[0]]
        worst_tel = max(worst_tel, abs((f - p) - dtau))
        nl = nd.null_length(curve, tau)
        rl = nd.rectifiable_length(curve, oracle, depth=3)
        worst_rect = max(worst_rect, abs(rl - nl))
        done += 1
    ok = worst_tel <= 1e-12 and worst_rect <= 2 * grid.h
    assert _line(7, ok, f"20 paths: telescoping residual {worst_tel:.2e} <= 1e-12, "
                        f"|rectifiable - null| {worst_rect:.2e} within grid tolerance")
    assert worst_tel <= 1e-12
    assert worst_rect <= 2 * grid.h


def test_criterion_08_conformal_invariance():
    """g vs 4g with the same tau: identical edges, weights, estimates."""
    st1 = nd.builtin("minkowski", dim=2)
    st2 = nd.builtin("conformal", base="minkowski", dim=2, factor=2.0)
    tau1, tau2 = nd.coordinate_time(st1), nd.coordinate_time(st2)
    box = [(-0.3, 0.3), (-0.2, 1.2)]
    g1 = nd.build_grid(st1, tau1, box, 0.05)
    g2 = nd.build_grid(st2, tau2, box, 0.05)
    edges_ok = (np.array_equal(g1.edge_u, g2.edge_u)
                and np.array_equal(g1.edge_v, g2.edge_v)
                and np.array_equal(g1.edge_w, g2.edge_w))
    e1, _ = nd.shortest_null_path(g1, g1.node_of([0, 0]), g1.node_of([0, 1]))
    e2, _ = nd.shortest_null_path(g2, g2.node_of([0, 0]), g2.node_of([0, 1]))
    est_ok = e1 == e2
    ok = edges_ok and est_ok
    assert _line(8, ok, f"edge sets/weights identical: {edges_ok}; "
                        f"estimates bit-equal: {est_ok}")
    assert edges_ok and est_ok


def test_criterion_09_rigidity_rehearsal():
    """Coarea volumes (8, 4) to 1e-9 relative; the conformal trap is exposed
    by recomputing cosmological time on the rescaled side."""
    st = nd.builtin("minkowski", dim=4)
    region = [(1.0, 2.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
    res2 = nd.coarea_volume_compare(st, lambda pts: np.full(pts.shape[0], 2.0),
                                    region, 0.25)
    res1 = nd.coarea_volume_compare(st, lambda pts: np.ones(pts.shape[0]),
                                    region, 0.25)
    vols_ok = (abs(res2.vol_n - 8.0) <= 1e-9 * 8.0
               and abs(res2.vol_nm1 - 4.0) <= 1e-9 * 4.0
               and res1.vol_n == res1.vol_nm1)
    # end-to-end rehearsal
    box = [(0.5, 1.5), (-0.5, 0.5)]
    stu = nd.builtin("upper_half_minkowski", dim=2)
    stc = nd.builtin("conformal", base="upper_half_minkowski", dim=2, factor=2.0)
    tau1, tau2 = nd.coordinate_time(stu), nd.coordinate_time(stc)
    gu = nd.build_grid(stu, tau1, box, 0.1)
    gc = nd.build_grid(stc, tau2, box, 0.1)
    pres = nd.check_preserving(identity_map(), gu, gc, n_pairs=80)
    tau2_numeric = nd.cosmological_time_numeric(gc)
    node = gc.node_of([1.0, 0.0])
    tau1_val = gu.tau_values[gu.node_of([1.0, 0.0])]
    rehearsal_ok = (pres.passed
                    and abs(tau2_numeric[node] - 2.0) <= 4 * gc.h
                    and abs(tau1_val - tau2_numeric[node]) > 0.5)
    ok = vols_ok and rehearsal_ok
    assert _line(9, ok, f"vol_n {res2.vol_n:.12g}, vol_nm1 {res2.vol_nm1:.12g} "
                        f"(= 8, 4 to 1e-9); trap passes d-hat/tau checks but "
                        f"fails against recomputed cosmological time")
    assert vols_ok and rehearsal_ok


def test_criterion_10_anti_lipschitz_discrimination():
    """lambda_best ~ 1/sqrt(2) for tau = t on the cone sample; ~0 for t^3."""
    st = nd.builtin("minkowski", dim=4)
    tau = nd.coordinate_time(st)
    box = [(0.5, 1.5), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)]
    grid = nd.build_grid(st, tau, box, 0.25)
    rep = nd.check_anti_lipschitz(grid, box, n_sources=48, seed=0)
    lam_ok = rep.lambda_best >= 0.6 and abs(rep.lambda_best - 1 / math.sqrt(2)) <= 0.05
    st2 = nd.builtin("minkowski", dim=2)
    tau3 = nd.cubed_time(st2)
    box2 = [(-0.03, 0.03), (-0.05, 0.05)]
    grid2 = nd.build_grid(st2, tau3, box2, 0.01)
    rep3 = nd.check_anti_lipschitz(grid2, box2, n_sources=64, seed=1)
    cubed_ok = rep3.lambda_best <= 0.05
    ok = lam_ok and cubed_ok
    assert _line(10, ok, f"tau=t: lambda_best {rep.lambda_best:.4f} "
                         f"(target 0.7071 +- 0.05, >= 0.6); "
                         f"tau=t^3: lambda_best {rep3.lambda_best:.2e} <= 0.05")
    assert lam_ok and cubed_ok
