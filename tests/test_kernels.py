"""Graph kernels against the plain heap/queue/loop versions they replaced.

The references below are the straightforward interpreted forms: a binary
heap with (dist, node)-lexicographic pops, a FIFO queue, and a per-node
relaxation in topological order.  The kernels must agree with them bit for
bit on random 1+1, 2+1 and 3+1 lattices, with and without an excised ray,
and Dijkstra also on random CSR graphs with tied, zero and absorbed weights.
Each kernel must also return the same arrays when every node's neighbour
list is shuffled: the lattice's edge order is not part of any result.
Dijkstra reads fixed-width rows: the grid's lattice view, or the padded
table that ``pad`` builds from a CSR graph; the reference reads the CSR
itself.
"""

from functools import lru_cache
from unittest import mock

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

import nulldist as nd
from nulldist import _kernels
from nulldist.grid import StencilSpec


def ref_dijkstra(indptr, nbr, wt, src, target):
    n = indptr.shape[0] - 1
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=np.bool_)
    hd = np.empty(nbr.shape[0] + n + 1)
    hn = np.empty(nbr.shape[0] + n + 1, dtype=np.int64)
    dist[src] = 0.0
    hd[0] = 0.0
    hn[0] = src
    size = 1

    def less(i, j):
        return hd[i] < hd[j] or (hd[i] == hd[j] and hn[i] < hn[j])

    def swap(i, j):
        hd[i], hd[j] = hd[j], hd[i]
        hn[i], hn[j] = hn[j], hn[i]

    while size > 0:
        d, u = hd[0], hn[0]
        size -= 1
        hd[0], hn[0] = hd[size], hn[size]
        i = 0
        while 2 * i + 1 < size:
            best = 2 * i + 1
            if best + 1 < size and less(best + 1, best):
                best += 1
            if not less(best, i):
                break
            swap(i, best)
            i = best
        if done[u]:
            continue
        done[u] = True
        if u == target:
            break
        for e in range(indptr[u], indptr[u + 1]):
            v = nbr[e]
            if done[v]:
                continue
            nd_ = d + wt[e]
            if nd_ < dist[v]:
                dist[v] = nd_
                pred[v] = u
                j = size
                hd[j], hn[j] = nd_, v
                size += 1
                while j > 0 and less(j, (j - 1) >> 1):
                    swap(j, (j - 1) >> 1)
                    j = (j - 1) >> 1
    return dist, pred


def ref_bfs_reach(indptr, nbr, src):
    seen = np.zeros(indptr.shape[0] - 1, dtype=np.bool_)
    seen[src] = True
    queue = [src]
    for u in queue:
        for e in range(indptr[u], indptr[u + 1]):
            v = nbr[e]
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return seen


def ref_longest_path_values(order, indptr, nbr, length, base):
    value = base.copy()
    for u in order:
        if value[u] == -np.inf:
            continue
        for e in range(indptr[u], indptr[u + 1]):
            cand = value[u] + length[e]
            if cand > value[nbr[e]]:
                value[nbr[e]] = cand
    return value


def undirected_csr(n, u, v, w):
    """(indptr, nbr, wt) of the undirected graph of the edges u - v: each
    edge in both directions, every u -> v before every v -> u, sorted stably
    by source."""
    src = np.concatenate([u, v])
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(n + 1))
    return indptr, np.concatenate([v, u])[order], np.concatenate([w, w])[order]


def pad(indptr, nbr, wt, fill=0):
    """(nbr, wt, wout) of a CSR graph as a padded neighbour table: row i
    holds node i's CSR neighbours in CSR order, then neighbour ``fill`` with
    weight +inf up to the largest degree; wout is each row's smallest
    weight."""
    n = indptr.shape[0] - 1
    owner = np.repeat(np.arange(n), np.diff(indptr))
    slot = np.arange(nbr.shape[0]) - indptr[owner]
    table = np.full((n, int(np.diff(indptr).max(initial=0))), fill, dtype=np.int64)
    weights = np.full(table.shape, np.inf)
    table[owner, slot] = nbr
    weights[owner, slot] = wt
    return table, weights, weights.min(axis=1, initial=np.inf)


def shuffle_neighbours(indptr, seed, *per_edge):
    """The per-edge CSR arrays with each node's neighbour list permuted."""
    owner = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    perm = np.lexsort((np.random.default_rng(seed).random(owner.shape[0]), owner))
    return tuple(a[perm] for a in per_edge)


@lru_cache(maxsize=None)
def lattice(name, dim, radius, h, t0, extent, cubed):
    st = nd.builtin(name, dim=dim)
    tau = nd.cubed_time(st) if cubed else nd.coordinate_time(st)
    box = [(t0, t0 + extent)] + [(-0.5 * extent, 0.4 * extent)] * (dim - 1)
    return nd.build_grid(st, tau, box, h, StencilSpec(radius=radius))


# the times each spacetime's boxes start at: the excised ray starts at
# t = 2, so boxes reaching past it cut edges; the warped product's cones
# (a(t) = t) narrow as t grows, and its edges take the per-candidate path
T0 = {"minkowski": [-0.5, 0.0, 0.3], "missing_ray": [1.0, 1.25, 1.5],
      "warped_product": [0.5, 0.75, 1.0]}


@hs.composite
def grids(draw):
    dim = draw(hs.sampled_from([2, 3, 4]))
    h = draw(hs.sampled_from({2: [0.1, 0.125, 0.2], 3: [0.2, 0.25], 4: [0.5]}[dim]))
    names = ["minkowski", "missing_ray"] + (["warped_product"] if dim == 3 else [])
    name = draw(hs.sampled_from(names))
    t0 = draw(hs.sampled_from(T0[name]))
    if dim == 4:
        # 5 nodes a side: at radius 2 the central node has all 80 of its
        # lattice neighbours, and the others have some off the box
        extent, radius = 2.4, 2
    else:
        extent = draw(hs.sampled_from([0.8, 1.2, 1.6]))
        radius = draw(hs.integers(1, 3))
    grid = lattice(name, dim, radius, h, t0, extent, draw(hs.booleans()))
    nodes = hs.integers(0, grid.n_nodes - 1)
    return grid, draw(nodes), draw(nodes)


SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@SETTINGS
@given(grids())
def test_dijkstra_matches_reference(case):
    grid, src, tgt = case
    rise = grid.tau_values[grid.edge_v] - grid.tau_values[grid.edge_u]
    indptr, nbr, wt = undirected_csr(grid.n_nodes, grid.edge_u, grid.edge_v, rise)
    mixed = pad(indptr, *shuffle_neighbours(indptr, src, nbr, wt))
    # a band split over steps of a few slots' rows (one row where a row has
    # more) settles as one band does
    for slots in (_kernels.CHUNK_SLOTS, 1, 40):
        with mock.patch.object(_kernels, "CHUNK_SLOTS", slots):
            for target in (tgt, -1):
                dist, pred = _kernels.dijkstra(*grid.csr_undirected(), src, target)
                ref_dist, ref_pred = ref_dijkstra(indptr, nbr, wt, src, target)
                assert np.array_equal(dist, ref_dist)
                assert np.array_equal(pred, ref_pred)
                dist, pred = _kernels.dijkstra(*mixed, src, target)
                assert np.array_equal(dist, ref_dist)
                assert np.array_equal(pred, ref_pred)


# weights whose sums tie (with or without zeros), differ in the last bit
# (0.1 + 0.2 != 0.3), span eleven decades, or vanish outright or in rounding
# (1e-20 next to 0.5)
WEIGHTS = {
    "tied": hs.integers(1, 3).map(float),
    "tied_zero": hs.integers(0, 3).map(float),
    "decades": hs.floats(-8.0, 3.0).map(lambda x: 10.0 ** x),
    "decimal": hs.sampled_from([0.1, 0.2, 0.3, 0.1 + 0.2]),
    "absorbed": hs.sampled_from([0.0, 1e-20, 0.5, 1.0]),
}


@hs.composite
def csr_graphs(draw):
    """Random directed CSR graphs with multi-edges, self-loops, isolated
    nodes and unreachable targets."""
    n = draw(hs.integers(1, 60))
    node = hs.integers(0, n - 1)
    weight = WEIGHTS[draw(hs.sampled_from(sorted(WEIGHTS)))]
    m = draw(hs.integers(0, 4 * n))
    edges = draw(hs.lists(hs.tuples(node, node, weight), min_size=m, max_size=m))
    u = np.array([a for a, _, _ in edges], dtype=np.int64)
    order = np.argsort(u, kind="stable")
    nbr = np.array([b for _, b, _ in edges], dtype=np.int64)[order]
    wt = np.array([c for _, _, c in edges], dtype=float)[order]
    indptr = np.searchsorted(u[order], np.arange(n + 1))
    return indptr, nbr, wt, draw(node), draw(node)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csr_graphs())
def test_dijkstra_matches_reference_on_random_graphs(case):
    indptr, nbr, wt, src, tgt = case
    graphs = (pad(indptr, nbr, wt), pad(indptr, nbr, wt, fill=-1),
              pad(indptr, *shuffle_neighbours(indptr, tgt, nbr, wt)))
    width = max(graphs[0][1].shape[1], 1)
    # padding ids are never followed: 0, or -1 as the lattice view reads
    # off the box; a band settles whole, or over steps of one row or of
    # two rows, where rows of one step still tie on rank
    for slots in (_kernels.CHUNK_SLOTS, 1, 2 * width):
        with mock.patch.object(_kernels, "CHUNK_SLOTS", slots):
            for target in (tgt, -1):
                ref_dist, ref_pred = ref_dijkstra(indptr, nbr, wt, src, target)
                for graph in graphs:
                    dist, pred = _kernels.dijkstra(*graph, src, target)
                    assert np.array_equal(dist, ref_dist)
                    assert np.array_equal(pred, ref_pred)


@SETTINGS
@given(grids())
def test_undirected_view_layout(case):
    grid, _, _ = case
    nbr, wt, wout = grid.csr_undirected()
    n, k = grid.n_nodes, grid.edge_offsets.shape[0]
    steps = np.concatenate([grid.edge_offsets, -grid.edge_offsets])
    assert wt.shape == (n, 2 * k)
    assert np.array_equal(wout, wt.min(axis=1))
    # the view against lattice arithmetic on coords: -1 off the box or at a
    # removed point
    index = np.rint((grid.coords - grid.lo) / grid.h).astype(np.int64)
    dense = np.full(tuple(grid.shape), -1, dtype=np.int64)
    dense[tuple(index.T)] = np.arange(n)
    there = index[:, None, :] + steps[None]
    off = ((there < 0) | (there >= grid.shape)).any(axis=2)
    want = np.where(off, -1, dense[tuple(np.clip(there, 0, grid.shape - 1).transpose(2, 0, 1))])
    ids = nbr[np.arange(n)]
    assert np.array_equal(ids, want)
    assert np.array_equal(nbr[n // 2], want[n // 2])
    # every edge fills the slot of its step at each end with its rise, and
    # no other slot is finite
    u, v = grid.edge_u, grid.edge_v
    seen = {tuple(s) for s in (index[v] - index[u]).tolist()}
    assert grid.edge_offsets.tolist() == [o for o in grid.offsets_used.tolist()
                                          if tuple(o) in seen or tuple(-c for c in o) in seen]
    slot_of = {tuple(s): j for j, s in enumerate(steps.tolist())}
    slot = np.array([slot_of[tuple(s)] for s in (index[v] - index[u]).tolist()])
    back = (slot + k) % (2 * k)
    rise = grid.tau_values[v] - grid.tau_values[u]
    assert np.array_equal(wt[u, slot], rise)
    assert np.array_equal(wt[v, back], rise)
    assert np.array_equal(ids[u, slot], v)
    assert np.array_equal(ids[v, back], u)
    assert np.isfinite(wt).sum() == 2 * grid.n_edges


@SETTINGS
@given(grids())
def test_bfs_reach_matches_reference_and_networkx(case):
    grid, src, tgt = case
    graph = nx.DiGraph()
    graph.add_nodes_from(range(grid.n_nodes))
    graph.add_edges_from(zip(grid.edge_u.tolist(), grid.edge_v.tolist()))
    # the stored edges are the out-CSR, sorted by source
    indptr, nbr = grid.csr_out()
    assert nbr is grid.edge_v
    assert np.array_equal(np.repeat(np.arange(grid.n_nodes), np.diff(indptr)), grid.edge_u)
    mask = _kernels.bfs_reach(indptr, nbr, src)
    assert np.array_equal(mask, ref_bfs_reach(indptr, nbr, src))
    assert set(np.flatnonzero(mask).tolist()) == nx.descendants(graph, src) | {src}
    assert np.array_equal(_kernels.bfs_reach(indptr, *shuffle_neighbours(indptr, src, nbr), src),
                          mask)
    # asked for one target, the search marks part of the closure, nothing
    # later than the target in tau, and the target iff the closure holds it
    tau = grid.tau_values
    for target in (tgt, src):
        found = _kernels.bfs_reach(indptr, nbr, src, target, tau)
        assert found[target] == mask[target]
        assert not (found & ~mask).any()
        assert not (found & (tau > tau[target])).any()
        assert np.array_equal(_kernels.bfs_reach(indptr, *shuffle_neighbours(indptr, src, nbr),
                                                 src, target, tau)[target], found[target])


# the scenes of test_grid.py's test_causal_case_equality_random_pairs, then
# the criterion-3 box in 2+1, its ray excised from t = 2 on
REACH_SCENES = [
    ("minkowski", 2, nd.coordinate_time, ((0.0, 2.0), (-1.0, 1.0)), 0.1),
    ("minkowski", 2, nd.cubed_time, ((-0.5, 1.0), (-1.0, 1.0)), 0.05),
    ("upper_half_minkowski", 3, nd.coordinate_time, ((0.1, 1.1), (-0.5, 0.5), (-0.5, 0.5)), 0.1),
    ("missing_ray", 3, nd.coordinate_time, ((0.5, 3.5), (-1.0, 1.0), (-1.0, 1.0)), 0.25),
    ("warped_product", 3, nd.coordinate_time, ((0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)), 0.125),
    ("missing_ray", 3, nd.coordinate_time, ((0.5, 3.5), (-1.5, 1.5), (-1.5, 1.5)), 0.25),
]


@lru_cache(maxsize=None)
def reach_scene(i):
    name, dim, time, box, h = REACH_SCENES[i]
    st = nd.builtin(name, dim=dim)
    return nd.build_grid(st, time(st), box, h)


@hs.composite
def membership_queries(draw):
    """(grid, p, q): q is p, earlier than p in tau, in p's time layer, in
    J+(p), any node, or an id outside the grid."""
    grid = reach_scene(draw(hs.integers(0, len(REACH_SCENES) - 1)))
    n, tau = grid.n_nodes, grid.tau_values
    p = draw(hs.integers(0, n - 1))
    kind = draw(hs.sampled_from(["self", "past", "layer", "future", "any", "outside"]))
    if kind == "outside":
        return grid, p, draw(hs.sampled_from([-1, -n, n, n + 7]))
    pool = {"self": np.array([p]), "past": np.flatnonzero(tau < tau[p]),
            "layer": np.flatnonzero(grid.coords[:, 0] == grid.coords[p, 0]),
            "future": np.flatnonzero(nd.reach(grid, p).members),
            "any": np.arange(n)}[kind]
    if not pool.size:
        pool = np.array([p])
    return grid, p, int(pool[draw(hs.integers(0, pool.size - 1))])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(membership_queries())
def test_membership_matches_full_closure(query):
    """``q in reach(grid, p)``, a search for q alone, answers as the whole
    closure does, both as ``members`` and as the plain queue search."""
    grid, p, q = query
    found = nd.reach(grid, p)
    if not 0 <= q < grid.n_nodes:
        assert q not in found
        return
    ref = ref_bfs_reach(*grid.csr_out(), p)
    assert np.array_equal(found.members, ref)
    assert (q in found) is bool(ref[q])
    if q == p:
        assert q in found
    elif grid.tau_values[q] <= grid.tau_values[p]:
        assert q not in found


def test_membership_marks_nothing_later_than_the_target(monkeypatch):
    """``q in reach(grid, p)`` marks part of J+(p) and no node later than q
    in tau: none when q is earlier than p, p alone when q is p or another
    node of p's time layer."""
    marked = []
    search = _kernels.bfs_reach

    def counted(*args):
        mask = search(*args)
        marked.append(mask)
        return mask

    monkeypatch.setattr("nulldist._kernels.bfs_reach", counted)
    st = nd.builtin("minkowski", dim=2)
    grid = nd.build_grid(st, nd.coordinate_time(st), [(0.0, 2.0), (-1.0, 1.0)], 0.1)
    tau = grid.tau_values
    p = grid.node_of([0.5, 0.0])
    closure = search(*grid.csr_out(), p)
    cases = [([1.5, 0.4], True, None), ([1.0, 0.9], False, None), ([0.2, 0.0], False, 0),
             ([0.5, 0.0], True, 1), ([0.5, 0.3], False, 1)]
    for point, inside, count in cases:
        q = grid.node_of(point)
        marked.clear()
        assert (q in nd.reach(grid, p)) is inside
        (mask,) = marked
        assert not (mask & (tau > tau[q])).any()
        assert not (mask & ~closure).any()
        if count is not None:
            assert np.count_nonzero(mask) == count


@SETTINGS
@given(grids(), hs.integers(0, 2**32 - 1))
def test_longest_path_matches_reference(case, seed):
    grid, src, tgt = case
    indptr, nbr = grid.csr_out()
    lengths = grid.edge_len
    # a few seeded nodes leave most of the lattice unreached (-inf)
    base = np.full(grid.n_nodes, -np.inf)
    rng = np.random.default_rng(seed)
    base[[src, tgt]] = rng.uniform(0.0, 1.0, size=2)
    order = np.argsort(grid.coords[:, 0], kind="stable")
    value = _kernels.longest_path_values(grid.time_layers(), indptr, nbr, lengths, base)
    assert np.array_equal(value, ref_longest_path_values(order, indptr, nbr, lengths, base))
    assert np.isneginf(value).any()
    mixed = shuffle_neighbours(indptr, seed, nbr, lengths)
    assert np.array_equal(
        _kernels.longest_path_values(grid.time_layers(), indptr, *mixed, base), value)


@SETTINGS
@given(grids())
def test_shortest_null_path_symmetric(case):
    grid, p, q = case
    try:
        forward = nd.shortest_null_path(grid, p, q)
    except nd.errors.Disconnected:
        return
    backward = nd.shortest_null_path(grid, q, p)
    assert forward[0] == backward[0]
    assert forward[1] == backward[1][::-1]
