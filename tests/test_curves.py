"""Curve machinery: null length, zigzags, verdicts, ball boundaries."""

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
from nulldist.errors import BallExitsGrid, InvalidSegment
from nulldist.grid import GridParams


def mink(dim=2):
    st = nd.builtin("minkowski", dim=dim)
    return st, nd.coordinate_time(st)


def beta_j(st, j, D=1.0):
    """Zigzag with 2j null segments between equal-time points D apart."""
    verts = [[0.0, 0.0]]
    senses = []
    for i in range(1, 2 * j + 1):
        t = D / (2 * j) if i % 2 == 1 else 0.0
        verts.append([t, i * D / (2 * j)])
        senses.append(SegmentSense.FUTURE if i % 2 == 1 else SegmentSense.PAST)
    return PiecewiseCausalCurve(st, verts, tuple(senses))


def eps_path(eps):
    st = nd.builtin("missing_ray", dim=4)
    verts = [[1, -1, 0, 0], [1 - eps, -1, eps, 0], [3 - eps, 1, eps, 0], [3, 1, 0, 0]]
    senses = (SegmentSense.PAST, SegmentSense.FUTURE, SegmentSense.FUTURE)
    return st, PiecewiseCausalCurve(st, verts, senses)


def test_null_length_cubed_witness():
    st, _ = mink()
    tau3 = nd.cubed_time(st)
    assert nd.null_length(beta_j(st, 1), tau3) == pytest.approx(0.25, abs=1e-15)
    for j in (1, 2, 4):
        expect = (2 * j) * (1.0 / (2 * j)) ** 3
        assert nd.null_length(beta_j(st, j), tau3) == pytest.approx(expect, abs=1e-15)


def test_null_length_single_future_segment():
    st, tau = mink()
    c = PiecewiseCausalCurve(st, [[0, 0], [2, 1]], (SegmentSense.FUTURE,))
    assert nd.null_length(c, tau) == pytest.approx(2.0, abs=1e-15)


def test_null_length_eps_path():
    st, curve = eps_path(0.1)
    tau = nd.coordinate_time(st)
    assert nd.null_length(curve, tau) == pytest.approx(2.2, abs=1e-12)


def test_invalid_segments():
    st, tau = mink()
    bad = PiecewiseCausalCurve(st, [[0, 0], [0.1, 1.0]], (SegmentSense.FUTURE,))
    with pytest.raises(InvalidSegment):
        nd.null_length(bad, tau)  # spacelike displacement
    wrong_sense = PiecewiseCausalCurve(st, [[0, 0], [1.0, 0.0]], (SegmentSense.PAST,))
    with pytest.raises(InvalidSegment):
        nd.null_length(wrong_sense, tau)
    moving_degenerate = PiecewiseCausalCurve(st, [[0, 0], [1.0, 0.0]],
                                             (SegmentSense.DEGENERATE,))
    with pytest.raises(InvalidSegment):
        moving_degenerate.validate()


@pytest.mark.parametrize("verts, message", [
    ([[0.0, 0.0], [1.0, np.nan]], "event coordinates must be a finite 1-d vector"),
    ([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]], "event dimension 3 != spacetime dimension 2"),
], ids=["nan", "wrong-width"])
def test_curve_vertices_are_points(verts, message):
    st, _ = mink()
    with pytest.raises(ValueError, match=message):
        PiecewiseCausalCurve(st, np.array(verts), (SegmentSense.FUTURE,))


@pytest.mark.parametrize("box", [[(0.6, -0.1), (-0.1, 1.1)], [(-0.1, 0.6), (np.nan, 1.1)]],
                         ids=["lo-above-hi", "nan"])
def test_refine_witness_rejects_malformed_box(box):
    st, tau = mink()
    with pytest.raises(ValueError, match="region pair"):
        nd.refine_witness(beta_j(st, 2), tau, 2.0, 0.05, box)


def test_degenerate_segments_allowed():
    st, tau = mink()
    c = PiecewiseCausalCurve(st, [[0, 0], [0, 0], [1, 0]],
                             (SegmentSense.DEGENERATE, SegmentSense.FUTURE))
    assert nd.null_length(c, tau) == pytest.approx(1.0)
    f, p = nd.zigzag_decompose(c, tau)
    assert (f, p) == (1.0, 0.0)


def test_zigzag_eps_path():
    st, curve = eps_path(0.1)
    tau = nd.coordinate_time(st)
    f, p = nd.zigzag_decompose(curve, tau)
    assert f == pytest.approx(2.1, abs=1e-12)
    assert p == pytest.approx(0.1, abs=1e-12)


def test_zigzag_beta_balance():
    st, _ = mink()
    tau3 = nd.cubed_time(st)
    f, p = nd.zigzag_decompose(beta_j(st, 1), tau3)
    assert f == pytest.approx(0.125, abs=1e-15)
    assert p == pytest.approx(0.125, abs=1e-15)


def test_telescoping_identity_random_grid_paths():
    st, tau = mink()
    grid = nd.build_grid(st, tau, [(-0.5, 0.5), (-0.5, 0.5)], 0.1)
    rng = np.random.default_rng(2)
    nbr, wt, _ = grid.csr_undirected()
    deg = np.isfinite(wt).sum(axis=1)  # a row's slots past its degree are padding
    for _ in range(25):
        node = int(rng.integers(0, grid.n_nodes))
        path = [node]
        for _ in range(12):
            k = deg[path[-1]]
            if k == 0:
                break
            path.append(int(nbr[path[-1], rng.integers(0, k)]))
        if len(path) < 2:
            continue
        curve = curve_from_grid_path(grid, path)
        f, p = nd.zigzag_decompose(curve, tau)
        dtau = grid.tau_values[path[-1]] - grid.tau_values[path[0]]
        assert abs((f - p) - dtau) <= 1e-12
        assert abs((f + p) - nd.null_length(curve, tau)) <= 1e-12


def test_small_zags():
    st, tau = mink()
    causal = PiecewiseCausalCurve(st, [[0, 0], [1, 0.5]], (SegmentSense.FUTURE,))
    ok, rep = nd.small_zags_check(causal, 1.0, tau)
    assert ok and rep["past_len"] == 0.0
    st4, curve = eps_path(0.1)
    tau4 = nd.coordinate_time(st4)
    ok, rep = nd.small_zags_check(curve, 2.0, tau4)
    assert ok and rep["past_len"] == pytest.approx(0.1, abs=1e-12)
    # near-minimizer with excess 0.02 has past content exactly 0.01
    near = PiecewiseCausalCurve(
        st, [[0.0, 0.0], [0.51, 0.5], [0.5, 0.5], [1.0, 0.6]],
        (SegmentSense.FUTURE, SegmentSense.PAST, SegmentSense.FUTURE))
    f, p = nd.zigzag_decompose(near, tau)
    assert p == pytest.approx(0.01, abs=1e-12)
    ok, _ = nd.small_zags_check(near, 1.0, tau, tol=1e-9)
    assert ok


def test_rectifiable_causal_segment_depth0():
    st, tau = mink()
    grid = nd.build_grid(st, tau, [(-0.2, 1.2), (-0.2, 1.2)], 0.1)
    oracle = grid_distance_oracle(grid)
    c = PiecewiseCausalCurve(st, [[0, 0], [1.0, 0.5]], (SegmentSense.FUTURE,))
    val = nd.rectifiable_length(c, oracle, depth=0)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert val == pytest.approx(nd.null_length(c, tau), abs=1e-12)


def test_rectifiable_limit_curve_spacelike():
    # the C^0 limit of collapsing zigzags: a straight equal-time segment.
    # Sub-lattice partition points cost an O(h) parity surcharge per pair
    # on the lattice metric, so the tolerance scales with n_pairs * h.
    st, tau = mink()
    grid = nd.build_grid(st, tau, [(-0.3, 0.3), (-0.2, 1.2)], 0.05)
    oracle = grid_distance_oracle(grid)
    val = nd.rectifiable_length(np.array([[0.0, 0.0], [0.0, 1.0]]), oracle, depth=4)
    assert val >= 1.0 - 1e-12
    assert val == pytest.approx(1.0, abs=8 * grid.h)
    # at the lattice-aligned partition the value is exact
    val0 = nd.rectifiable_length(np.array([[0.0, 0.0], [0.0, 1.0]]), oracle, depth=0)
    assert val0 == pytest.approx(1.0, abs=1e-12)


def test_rectifiable_monotone_in_depth():
    st, tau = mink()
    grid = nd.build_grid(st, tau, [(-0.3, 0.3), (-0.2, 1.2)], 0.05)
    oracle = grid_distance_oracle(grid)
    c = PiecewiseCausalCurve(st, [[0, 0], [0.25, 0.25], [0.0, 0.5]],
                             (SegmentSense.FUTURE, SegmentSense.PAST))
    vals = [nd.rectifiable_length(c, oracle, depth=d) for d in range(4)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= nd.null_length(c, tau) + 1e-9


def test_rectifiable_equals_null_length_on_grid_paths():
    st, tau = mink()
    grid = nd.build_grid(st, tau, [(-0.5, 0.5), (-0.5, 0.5)], 0.1)
    oracle = grid_distance_oracle(grid)
    rng = np.random.default_rng(4)
    nbr, wt, _ = grid.csr_undirected()
    deg = np.isfinite(wt).sum(axis=1)  # a row's slots past its degree are padding
    done = 0
    while done < 20:
        node = int(rng.integers(0, grid.n_nodes))
        path = [node]
        for _ in range(6):
            k = deg[path[-1]]
            if k == 0:
                break
            nxt = int(nbr[path[-1], rng.integers(0, k)])
            if nxt != path[-1]:
                path.append(nxt)
        if len(path) < 3:
            continue
        curve = curve_from_grid_path(grid, path)
        nl = nd.null_length(curve, tau)
        rl = nd.rectifiable_length(curve, oracle, depth=2)
        # lattice edges are below the refinement floor, so the partition is
        # the vertex chain and each consecutive pair realizes |dtau| exactly
        assert abs(rl - nl) <= 1e-12
        done += 1


def test_dhat_lower_bounds_any_grid_path():
    st, tau = mink()
    grid = nd.build_grid(st, tau, [(-0.4, 0.4), (-0.4, 0.4)], 0.1)
    rng = np.random.default_rng(6)
    nbr, wt, _ = grid.csr_undirected()
    deg = np.isfinite(wt).sum(axis=1)  # a row's slots past its degree are padding
    for _ in range(20):
        node = int(rng.integers(0, grid.n_nodes))
        path = [node]
        for _ in range(8):
            k = deg[path[-1]]
            if k == 0:
                break
            path.append(int(nbr[path[-1], rng.integers(0, k)]))
        if len(path) < 2:
            continue
        curve = curve_from_grid_path(grid, path)
        est, _ = nd.shortest_null_path(grid, path[0], path[-1])
        assert est <= nd.null_length(curve, tau) + 1e-12


def test_reversal_invariance():
    st, curve = eps_path(0.2)
    tau = nd.coordinate_time(st)
    rev = curve.reverse()
    rev.validate()
    assert nd.null_length(rev, tau) == pytest.approx(nd.null_length(curve, tau), abs=1e-15)


def test_encodes_verdicts_upper_half():
    st = nd.builtin("upper_half_minkowski", dim=2)
    tau = nd.coordinate_time(st)
    params = GridParams(box=((0.1, 2.1), (-1.0, 1.0)), h=0.1)
    grid = nd.build_grid(st, tau, params.box, params.h, params.stencil)
    causal = nd.encodes_causality_test(grid, [0.5, 0.0], [1.5, 0.5])
    assert causal.verdict is EncodesVerdict.CAUSAL_AND_EQUAL
    spacelike = nd.encodes_causality_test(grid, [0.5, -0.9], [0.5, 0.9])
    assert spacelike.verdict is EncodesVerdict.SPACELIKE_AND_STRICT
    assert spacelike.result.estimate - spacelike.result.lower_bound > spacelike.tol_eq
    past = nd.encodes_causality_test(grid, [1.5, 0.5], [0.5, 0.0])
    assert past.verdict is EncodesVerdict.CAUSAL_AND_EQUAL  # past branch via swap


def test_encodes_missing_ray_violation():
    st = nd.builtin("missing_ray", dim=4)
    tau = nd.coordinate_time(st)
    params = GridParams(box=((0.5, 3.5), (-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)), h=0.25)
    grid = nd.build_grid(st, tau, params.box, params.h, params.stencil)
    rep = nd.encodes_causality_test(grid, [1, -1, 0, 0], [3, 1, 0, 0])
    assert rep.verdict is EncodesVerdict.VIOLATION_MISSING_CAUSAL
    assert not rep.reachable
    assert rep.result.encodes_equality
    assert not rep.properness_claimed  # verdict computed under unproven properness
    # the refined witness is a certified curve around the ray, below the lattice value
    res = rep.result
    res.witness.validate()
    assert nd.null_length(res.witness, tau) == pytest.approx(res.estimate, abs=1e-12)
    v = res.witness.vertices
    assert np.array_equal(v[0], [1, -1, 0, 0]) and np.array_equal(v[-1], [3, 1, 0, 0])
    ray, = st.excisions
    assert np.all(ray.segment_distance(v[:-1], v[1:]) > 0.0)
    assert res.lattice_estimate == 2 + 2 * params.h
    assert res.lower_bound <= res.estimate < res.lattice_estimate
    back = nd.encodes_causality_test(grid, [3, 1, 0, 0], [1, -1, 0, 0])
    assert back.result.estimate == res.estimate
    # a spacelike pair's surplus zigzags collapse and are merged away; the
    # refined length approaches the continuum distance |dx| from above
    far = nd.encodes_causality_test(grid, [1, -1, 0, 0], [1, 1, 0.5, 0])
    assert far.verdict is EncodesVerdict.SPACELIKE_AND_STRICT
    far.result.witness.validate()
    assert far.result.lattice_estimate == 2.5
    assert np.hypot(2.0, 0.5) <= far.result.estimate <= np.hypot(2.0, 0.5) + 1e-3


def test_encodes_verdict_conformal_invariance():
    box = ((0.1, 2.1), (-1.0, 1.0))
    params = GridParams(box=box, h=0.1)
    st1 = nd.builtin("upper_half_minkowski", dim=2)
    st2 = nd.builtin("conformal", base="upper_half_minkowski", dim=2, factor=2.0)
    g1 = nd.build_grid(st1, nd.coordinate_time(st1), params.box, params.h, params.stencil)
    g2 = nd.build_grid(st2, nd.coordinate_time(st2), params.box, params.h, params.stencil)
    for p, q in ([[0.5, 0.0], [1.5, 0.5]], [[0.5, -0.9], [0.5, 0.9]]):
        r1 = nd.encodes_causality_test(g1, p, q)
        r2 = nd.encodes_causality_test(g2, p, q)
        assert r1.verdict == r2.verdict
        assert r1.result.estimate == r2.result.estimate


def test_ball_examples():
    st, tau = mink()
    params = GridParams(box=((-1.3, 1.3), (-1.3, 1.3)), h=0.05)
    grid = nd.build_grid(st, tau, params.box, params.h, params.stencil)
    rows = nd.ball_boundary_sample(grid, [0.0, 0.0], 1.0, 8)
    h = 0.05
    by_dir = {tuple(np.round(r[:2], 6)): r[2:] for r in rows}
    top = by_dir[(1.0, 0.0)]
    assert abs(top[0] - 1.0) <= 2 * h  # top of the cylinder: tau level set
    side = by_dir[(0.0, 1.0)]
    assert abs(side[1] - 1.0) <= 2 * h  # side: unit spatial distance
    diag = by_dir[tuple(np.round([np.sqrt(0.5), np.sqrt(0.5)], 6))]
    assert abs(diag[0] - 1.0) <= 2 * h and abs(diag[1] - 1.0) <= 2 * h  # cone edge


def test_ball_exits_grid():
    st, tau = mink()
    params = GridParams(box=((-0.3, 0.3), (-0.3, 0.3)), h=0.05)
    grid = nd.build_grid(st, tau, params.box, params.h, params.stencil)
    with pytest.raises(BallExitsGrid):
        nd.ball_boundary_sample(grid, [0.0, 0.0], 1.0, 4)
