"""Causal lattice: stencils, edge construction, reach, shortest paths."""

import math

import numpy as np
import pytest

import nulldist as nd
from nulldist.errors import Disconnected, GridTooLarge, NodeNotInGrid
from nulldist.grid import MAX_NODES, StencilSpec
from nulldist.spacetime import CausalKind, TimeSense


def mink_grid(dim=2, box=None, h=0.05, radius=2):
    st = nd.builtin("minkowski", dim=dim)
    tau = nd.coordinate_time(st)
    box = box or [(-0.3, 0.3), (-0.2, 1.2)]
    return st, tau, nd.build_grid(st, tau, box, h, StencilSpec(radius=radius))


def out_offsets(grid, node):
    indptr, nbr, _ = grid.csr_out()
    c = grid.coords[node]
    return {tuple(np.rint((grid.coords[v] - c) / grid.h).astype(int))
            for v in nbr[indptr[node]:indptr[node + 1]]}


def test_stencil_offsets_exclude_zero_and_pair_up():
    offs = StencilSpec(radius=2).offsets(2)
    assert not any(tuple(o) == (0, 0) for o in offs)
    # one representative per +- pair
    as_set = {tuple(o) for o in offs}
    assert all(tuple(-o) not in as_set for o in offs)
    with pytest.raises(ValueError):
        StencilSpec(radius=0)


def test_radius1_future_offsets_minkowski():
    st = nd.builtin("minkowski", dim=4)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(-0.2, 0.2)] * 4, 0.1, StencilSpec(radius=1))
    node = grid.node_of([0.0, 0.0, 0.0, 0.0])
    offs = out_offsets(grid, node)
    assert (1, 0, 0, 0) in offs
    assert (1, 1, 0, 0) in offs and (1, -1, 0, 0) in offs
    assert (1, 0, 0, 1) in offs
    assert (0, 1, 0, 0) not in offs  # spacelike
    assert (1, 1, 1, 0) not in offs  # outside the cone
    assert all(o[0] > 0 for o in offs)  # all future edges advance t


def test_missing_ray_nodes_and_edges_removed():
    st = nd.builtin("missing_ray", dim=4)
    tau = nd.coordinate_time(st)
    box = [(0.5, 3.5), (-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)]
    grid = nd.build_grid(st, tau, box, 0.25)
    for t in (2.0, 2.25, 3.0):
        with pytest.raises(NodeNotInGrid):
            grid.node_of([t, 0.0, 0.0, 0.0])
    # the ray tip's past neighbour survives but cannot hop the excision
    below = grid.node_of([1.75, -0.25, 0.0, 0.0])
    assert (2, 2, 0, 0) not in out_offsets(grid, below)
    # ...while the same hop is fine elsewhere
    clear = grid.node_of([1.75, -0.25, 1.0, 0.0])
    assert (2, 2, 0, 0) in out_offsets(grid, clear)


def test_warped_diagonal_closes_with_expansion():
    # at t=2 the warp factor f=t makes the unit spatial diagonal spacelike
    st = nd.builtin("warped_product", dim=2)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(0.25, 3.0), (-1.0, 1.0)], 0.25, StencilSpec(radius=1))
    early = grid.node_of([0.25, 0.0])  # f(t_mid) < 1: diagonal still causal
    assert (1, 1) in out_offsets(grid, early)
    late = grid.node_of([2.0, 0.0])
    assert (1, 1) not in out_offsets(grid, late)
    assert (1, 0) in out_offsets(grid, late)


def test_edge_midpoint_classification_matches_causal_character():
    st, tau, grid = mink_grid()
    rng = np.random.default_rng(0)
    idx = rng.integers(0, grid.n_edges, size=50)
    for e in idx:
        u, v = grid.edge_u[e], grid.edge_v[e]
        mid = 0.5 * (grid.coords[u] + grid.coords[v])
        cc = nd.causal_character(st, mid, grid.coords[v] - grid.coords[u])
        assert cc.kind in (CausalKind.TIMELIKE, CausalKind.NULL)
        assert cc.time_sense is TimeSense.FUTURE


def test_node_count_matches_box():
    st = nd.builtin("upper_half_minkowski", dim=2)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(0.5, 1.5), (0.0, 1.0)], 0.25)
    assert grid.n_nodes == 5 * 5


def test_reach_examples():
    st, tau, grid = mink_grid(box=[(-0.5, 2.5), (-0.5, 2.5)], h=0.25, radius=1)
    origin = grid.node_of([0.0, 0.0])
    r = nd.reach(grid, origin)
    assert origin in r  # reflexive
    assert grid.node_of([2.0, 1.0]) in r
    assert grid.node_of([1.0, 2.0]) not in r
    assert grid.node_of([2.0, 0.0]) in r


def test_reach_missing_ray_blocked():
    st = nd.builtin("missing_ray", dim=4)
    tau = nd.coordinate_time(st)
    box = [(0.5, 3.5), (-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)]
    grid = nd.build_grid(st, tau, box, 0.25)
    p = grid.node_of([1.0, -1.0, 0.0, 0.0])
    q = grid.node_of([3.0, 1.0, 0.0, 0.0])
    assert q not in nd.reach(grid, p)
    # the same pair in the same box without the excision is causally related
    st2 = nd.builtin("upper_half_minkowski", dim=4)
    grid2 = nd.build_grid(st2, nd.coordinate_time(st2), box, 0.25)
    assert grid2.node_of([3.0, 1.0, 0.0, 0.0]) in nd.reach(grid2, grid2.node_of([1.0, -1.0, 0.0, 0.0]))


def test_shortest_path_spacelike_pair():
    st, tau, grid = mink_grid()
    est, path = nd.shortest_null_path(grid, grid.node_of([0, 0]), grid.node_of([0, 1]))
    assert est == pytest.approx(1.0, abs=0.05)
    assert path[0] == grid.node_of([0, 0]) and path[-1] == grid.node_of([0, 1])


def test_shortest_path_causal_pair_exact():
    st, tau, grid = mink_grid(box=[(-0.5, 2.5), (-0.5, 2.5)], h=0.25)
    est, _ = nd.shortest_null_path(grid, grid.node_of([0, 0]), grid.node_of([2, 1]))
    assert abs(est - 2.0) <= 1e-12


def test_shortest_path_missing_ray():
    st = nd.builtin("missing_ray", dim=4)
    tau = nd.coordinate_time(st)
    h = 0.25
    grid = nd.build_grid(st, tau, [(0.5, 3.5), (-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)], h)
    est, _ = nd.shortest_null_path(grid, grid.node_of([1, -1, 0, 0]),
                                   grid.node_of([3, 1, 0, 0]))
    assert 2.0 - 1e-12 <= est <= 2.0 + 2 * h + 1e-12


def test_disconnected_raises():
    # two nodes separated by a ball that swallows the middle of a thin strip
    st = nd.Spacetime(
        dim=2, name="split",
        metric_batch=nd.builtin("minkowski", dim=2).metric_batch,
        domain_batch=lambda pts: np.abs(pts[:, 1]) < 0.15,
        excisions=(nd.BallExcision(center=[0.0, 0.0], radius=0.3),),
    )
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(-1.0, 1.0), (-0.1, 0.1)], 0.1)
    # the ball cuts the strip into two halves of 21 nodes
    with pytest.raises(Disconnected, match=r"^nodes 4 and 37 are not connected: "
                                           r"node 4's component holds 21 of 42 nodes$"):
        nd.shortest_null_path(grid, grid.node_of([-0.9, 0.0]), grid.node_of([0.9, 0.0]))


def test_guardrail():
    st = nd.builtin("minkowski", dim=4)
    tau = nd.coordinate_time(st)
    with pytest.raises(GridTooLarge):
        nd.build_grid(st, tau, [(0, 100)] * 4, 0.01)
    assert MAX_NODES == 20_000_000


def test_empty_grid_and_swallowed_box():
    from nulldist.errors import EmptyGrid, ExcisionSwallowsBox

    st = nd.builtin("upper_half_minkowski", dim=2)
    tau = nd.coordinate_time(st)
    with pytest.raises(EmptyGrid):
        nd.build_grid(st, tau, [(-2.0, -1.0), (0.0, 1.0)], 0.25)
    swallowed = nd.Spacetime(
        dim=2, name="swallowed",
        metric_batch=nd.builtin("minkowski", dim=2).metric_batch,
        domain_batch=lambda pts: np.ones(pts.shape[0], dtype=bool),
        excisions=(nd.BallExcision(center=[0.0, 0.0], radius=10.0),),
    )
    with pytest.raises(ExcisionSwallowsBox):
        nd.build_grid(swallowed, tau, [(-1.0, 1.0), (-1.0, 1.0)], 0.25)


@pytest.mark.parametrize("name", ["minkowski", "upper_half_minkowski",
                                  "missing_ray", "warped_product"])
def test_lower_bound_all_builtins(name):
    st = nd.builtin(name, dim=2 if name != "missing_ray" else 4)
    tau = nd.coordinate_time(st)
    if name == "missing_ray":
        box = [(0.5, 3.0), (-1.0, 1.0), (-0.5, 0.5), (-0.5, 0.5)]
        h = 0.25
    else:
        box = [(0.25, 1.5), (-0.75, 0.75)]
        h = 0.125
    grid = nd.build_grid(st, tau, box, h)
    rng = np.random.default_rng(13)
    sources = rng.integers(0, grid.n_nodes, size=8)
    pairs = 0
    for s in sources:
        dist = nd.null_distances_from(grid, int(s))
        gap = np.abs(grid.tau_values - grid.tau_values[s])
        mask = np.isfinite(dist)
        assert np.all(dist[mask] >= gap[mask] - 1e-12)
        pairs += int(mask.sum())
    assert pairs >= 1000


def test_refine_schedule_cubed_time():
    st = nd.builtin("minkowski", dim=2)
    tau = nd.cubed_time(st)
    box = [(-0.1, 0.3), (-0.1, 1.1)]
    h_list = [0.1, 0.05, 0.025]
    out = nd.refine_schedule(st, tau, [0, 0], [0, 1], h_list, box)
    # at spacing h the analytic zigzag bound is 2j (D/2j)^3 with j = 1/(2h)
    for h, est in zip(h_list, out["estimates"]):
        j = 1.0 / (2.0 * h)
        assert est <= 2 * j * (1.0 / (2 * j)) ** 3 + 1e-12
    assert out["monotone_nonincreasing"]
    assert out["estimates"][-1] < 0.01


def test_refine_schedule_spacelike_and_causal():
    st = nd.builtin("minkowski", dim=2)
    tau = nd.coordinate_time(st)
    box = [(-0.4, 0.4), (-0.4, 1.2)]  # lattice-compatible with every h below
    out = nd.refine_schedule(st, tau, [0, 0], [0, 1], [0.2, 0.1, 0.05], box)
    assert all(e >= 1.0 - 1e-12 for e in out["estimates"])
    assert out["estimates"][-1] == pytest.approx(1.0, abs=1e-12)
    causal = nd.refine_schedule(st, tau, [0, 0], [0.2, 0.1], [0.1, 0.05], [(-0.4, 0.4), (-0.4, 0.6)])
    assert all(abs(e - 0.2) <= 1e-12 for e in causal["estimates"])
    with pytest.raises(ValueError):
        nd.refine_schedule(st, tau, [0, 0], [0, 1], [0.05, 0.1], box)


def test_lower_bound_symmetry_triangle():
    st, tau, grid = mink_grid(box=[(-0.4, 0.6), (-0.4, 0.6)], h=0.1)
    rng = np.random.default_rng(42)
    nodes = rng.integers(0, grid.n_nodes, size=(60, 3))
    for a, b, c in nodes:
        eab, _ = nd.shortest_null_path(grid, int(a), int(b))
        eba, _ = nd.shortest_null_path(grid, int(b), int(a))
        assert eab == eba  # exact symmetry of the undirected search
        assert eab >= abs(grid.tau_values[a] - grid.tau_values[b]) - 1e-12
        ebc, _ = nd.shortest_null_path(grid, int(b), int(c))
        eac, _ = nd.shortest_null_path(grid, int(a), int(c))
        assert eac <= eab + ebc + 1e-12


def test_causal_case_equality_random_pairs():
    st, tau, grid = mink_grid(box=[(0.0, 2.0), (-1.0, 1.0)], h=0.1)
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 100:
        a = int(rng.integers(0, grid.n_nodes))
        members = np.flatnonzero(nd.reach(grid, a).members)
        members = members[members != a]
        if members.size == 0:
            continue
        b = int(members[rng.integers(0, members.size)])
        est, _ = nd.shortest_null_path(grid, a, b)
        assert abs(est - (grid.tau_values[b] - grid.tau_values[a])) <= 1e-12
        checked += 1


def test_conformal_edge_invariance_exact():
    box = [(-0.3, 0.3), (-0.2, 1.2)]
    st1 = nd.builtin("minkowski", dim=2)
    st2 = nd.builtin("conformal", base="minkowski", dim=2, factor=3.0)
    tau1, tau2 = nd.coordinate_time(st1), nd.coordinate_time(st2)
    g1 = nd.build_grid(st1, tau1, box, 0.05)
    g2 = nd.build_grid(st2, tau2, box, 0.05)
    assert np.array_equal(g1.edge_u, g2.edge_u)
    assert np.array_equal(g1.edge_v, g2.edge_v)
    assert np.array_equal(g1.edge_w, g2.edge_w)
    e1, _ = nd.shortest_null_path(g1, g1.node_of([0, 0]), g1.node_of([0, 1]))
    e2, _ = nd.shortest_null_path(g2, g2.node_of([0, 0]), g2.node_of([0, 1]))
    assert e1 == e2


@pytest.mark.parametrize("box, h, message", [
    ([(-0.3, 0.3), (-0.2, 1.2)], math.nan, "h must be finite and positive, got nan"),
    ([(-0.3, 0.3), (-0.2, 1.2)], math.inf, "h must be finite and positive, got inf"),
    ([(1.0, 0.0), (1.0, 0.0)], 0.1, r"region pair \[1.0, 0.0\] on axis 0"),
    ([(-0.3, 0.3), (math.nan, 1.2)], 0.1, r"region pair \[nan, 1.2\] on axis 1"),
], ids=["h-nan", "h-inf", "lo-above-hi", "lo-nan"])
@pytest.mark.filterwarnings("error")
def test_build_grid_rejects_malformed_box_or_spacing(box, h, message):
    st = nd.builtin("minkowski", dim=2)
    with pytest.raises(ValueError, match=message):
        nd.build_grid(st, nd.coordinate_time(st), box, h)


def test_node_of_rejects_off_lattice():
    st, tau, grid = mink_grid()
    with pytest.raises(NodeNotInGrid):
        grid.node_of([0.013, 0.0])
    with pytest.raises(NodeNotInGrid):
        grid.node_of([5.0, 0.0])


@pytest.mark.parametrize("point", [[0.0], 0.0, [0.0, 0.0, 0.0], [[0.0, 0.0]]])
def test_node_of_rejects_wrong_dimension(point):
    st, tau, grid = mink_grid()
    for lookup in (grid.node_of, grid.node_of_nearest):
        with pytest.raises(NodeNotInGrid, match="2-dimensional"):
            lookup(point)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("point", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, math.nan]])
def test_node_of_rejects_non_finite_points(point):
    st, tau, grid = mink_grid()
    for lookup in (grid.node_of, grid.node_of_nearest):
        with pytest.raises(NodeNotInGrid, match="not a finite point"):
            lookup(point)


def test_node_ids_outside_grid_rejected():
    st, tau, grid = mink_grid()
    members = nd.reach(grid, 0)
    for node in (-1, grid.n_nodes):
        for query in (lambda: nd.null_distances_from(grid, node),
                      lambda: nd.shortest_null_path(grid, 0, node),
                      lambda: nd.reach(grid, node)):
            with pytest.raises(NodeNotInGrid):
                query()
        assert node not in members
    assert grid.n_nodes - 1 in nd.reach(grid, grid.n_nodes - 1)


def test_include_null_exact_filter():
    offs_with = StencilSpec(radius=1, include_null_exact=True).offsets(2)
    offs_without = StencilSpec(radius=1, include_null_exact=False).offsets(2)
    with_set = {tuple(o) for o in offs_with}
    without_set = {tuple(o) for o in offs_without}
    assert (1, 1) in with_set and (1, 1) not in without_set
    assert (1, 0) in without_set


def test_non_finite_metric_or_tau_raises():
    from dataclasses import replace

    from nulldist.errors import NonFiniteValue

    base = nd.builtin("upper_half_minkowski", dim=2)
    tau = nd.coordinate_time(base)
    box = [(0.1, 1.1), (-0.5, 0.5)]
    # phi is NaN on part of the box: a NaN metric entry used to drop the edge
    holey = nd.builtin("conformal", dim=2, base=base,
                       factor=lambda pts: np.where(pts[:, 1] > 0.2, np.nan, 1.0))
    with pytest.raises(NonFiniteValue):
        nd.build_grid(holey, tau, box, 0.05)
    # NaN only outside the box: nothing is evaluated there
    fine = nd.builtin("conformal", dim=2, base=base,
                      factor=lambda pts: np.where(pts[:, 1] > 0.6, np.nan, 1.0))
    assert nd.build_grid(fine, tau, box, 0.05).n_edges == nd.build_grid(base, tau, box, 0.05).n_edges
    tau_inf = replace(tau, batch=lambda pts: np.where(pts[:, 0] > 0.9, np.inf, pts[:, 0]))
    with pytest.raises(NonFiniteValue):
        nd.build_grid(base, tau_inf, box, 0.05)


def test_no_causal_edges_raises():
    from nulldist.errors import NoCausalEdges

    st = nd.builtin("minkowski", dim=2)
    tau = nd.coordinate_time(st)
    # zero time extent: every kept node is on one slice, every offset spacelike
    with pytest.raises(NoCausalEdges):
        nd.build_grid(st, tau, [(0.5, 0.5), (-0.5, 0.5)], 0.1)
