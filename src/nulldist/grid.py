"""Causal lattice graphs: build, reach, and shortest null-weighted paths.

A box of the spacetime is discretized into a uniform lattice.  For every
stencil offset whose displacement is future causal at the segment midpoint a
directed edge is emitted, weighted by the time-function gap |dtau| and by
the Lorentzian segment length, and stored once, sorted by source: the edge
arrays are the out-CSR, and ``_kernels.table`` builds from them the padded
neighbour table of the undirected graph.  Undirected Dijkstra over the
|dtau| weights gives an upper estimate of the null distance; directed
closure gives J+.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (
    CyclicGraph,
    Disconnected,
    EmptyGrid,
    ExcisionSwallowsBox,
    GridTooLarge,
    NoCausalEdges,
    NodeNotInGrid,
    NonFiniteValue,
)
from .spacetime import NULL_TOL, LightCone, Spacetime, require_finite

MAX_NODES = 20_000_000


@dataclass(frozen=True)
class StencilSpec:
    """Lattice offsets with max-norm <= radius (zero offset excluded).

    ``include_null_exact`` keeps offsets that are exactly null in flat
    coordinates (t-step equals Euclidean space-step, e.g. (1,1,0,0)); setting
    it False filters them out, leaving a strictly timelike candidate set.
    """

    radius: int = 2
    include_null_exact: bool = True

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("stencil radius must be >= 1")

    def offsets(self, dim: int) -> np.ndarray:
        """Candidate offsets, one representative per +-pair, in lexicographic order."""
        out = []
        for o in itertools.product(range(-self.radius, self.radius + 1), repeat=dim):
            if all(c == 0 for c in o):
                continue
            # keep the lexicographically positive representative of {o, -o}
            lead = next(c for c in o if c != 0)
            if lead < 0:
                continue
            if not self.include_null_exact:
                if o[0] * o[0] == sum(c * c for c in o[1:]):
                    continue
            out.append(o)
        return np.array(sorted(out), dtype=np.int64)


@dataclass(frozen=True)
class GridParams:
    """Box + resolution + stencil, the reusable discretization recipe."""

    box: tuple  # ((lo0, hi0), (lo1, hi1), ...)
    h: float
    stencil: StencilSpec = field(default_factory=StencilSpec)

    def lo(self) -> np.ndarray:
        return np.array([b[0] for b in self.box], dtype=float)

    def hi(self) -> np.ndarray:
        return np.array([b[1] for b in self.box], dtype=float)


def box_bounds(box, dim: int):
    """(lo, hi) arrays of ``box``, one (lo, hi) pair per axis of a
    ``dim``-dimensional spacetime; raises ValueError unless it holds ``dim``
    finite pairs with lo <= hi (lo == hi is a legal, flat axis)."""
    b = np.array(box, dtype=float)
    if b.ndim != 2 or b.shape[1] != 2:
        raise ValueError(f"region must be a list of (lo, hi) pairs, got {box!r}")
    if b.shape[0] != dim:
        raise ValueError(f"region dimension {b.shape[0]} != spacetime dimension {dim}")
    bad = ~(np.isfinite(b).all(axis=1) & (b[:, 0] <= b[:, 1]))
    if bad.any():
        axis = int(np.flatnonzero(bad)[0])
        raise ValueError(f"region pair {b[axis].tolist()} on axis {axis} is not "
                         f"finite with lo <= hi")
    return b[:, 0], b[:, 1]


@dataclass(frozen=True, eq=False)
class ReachSet:
    origin: int
    members: np.ndarray  # boolean mask over grid nodes

    def __contains__(self, node: int) -> bool:
        return 0 <= node < self.members.shape[0] and bool(self.members[node])


class CausalGrid:
    """Immutable lattice with directed future-causal edges.

    Edges come sorted stably by source, so the edge arrays are the out-CSR.
    Construction is the only mutating phase; afterwards concurrent queries
    are safe (each query owns its scratch arrays inside the kernels).
    """

    def __init__(self, st, tau, params: GridParams, coords, ids_full, shape,
                 edge_u, edge_v, edge_w, edge_len, tau_values, offsets_used):
        self.st = st
        self.tau = tau
        self.params = params
        self.h = params.h
        self.stencil = params.stencil
        self.lo = params.lo()
        self.shape = shape
        self.coords = coords
        self._ids_full = ids_full
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_w = edge_w
        self.edge_len = edge_len
        self.tau_values = tau_values
        self.offsets_used = offsets_used
        self.n_nodes = coords.shape[0]
        self.n_edges = edge_u.shape[0]
        # worst-case factor by which axis-null zigzags overestimate spacelike
        # separation (L1 corner direction)
        self.spacelike_overestimate_max = math.sqrt(max(1, st.dim - 1))
        self._indptr = np.searchsorted(edge_u, np.arange(self.n_nodes + 1))
        self._table = None

    # -- graph views --------------------------------------------------------

    def csr_out(self):
        """(indptr, nbr, wt) of the directed graph: the edge arrays themselves."""
        return self._indptr, self.edge_v, self.edge_w

    def csr_undirected(self):
        """(nbr, wt, wout) of the undirected graph: ``_kernels.table`` of the
        edges, built on first use."""
        if self._table is None:
            self._table = _kernels.table(self.n_nodes, self.edge_u, self.edge_v, self.edge_w)
        return self._table

    # -- node lookup --------------------------------------------------------

    def _snap(self, coords):
        """(coords, lattice index, node id or -1) of the nearest lattice point."""
        c = np.asarray(coords, dtype=float)
        if c.shape != (self.st.dim,):
            raise NodeNotInGrid(f"{c.tolist()} is not a {self.st.dim}-dimensional point")
        if not np.all(np.isfinite(c)):
            raise NodeNotInGrid(f"{c.tolist()} is not a finite point")
        k = np.rint((c - self.lo) / self.h).astype(np.int64)
        if np.any(k < 0) or np.any(k >= self.shape):
            raise NodeNotInGrid(f"{c.tolist()} is outside the grid box")
        return c, k, int(self._ids_full[tuple(k)])

    def node_of(self, coords) -> int:
        c, k, node = self._snap(coords)
        if np.abs(self.lo + k * self.h - c).max() > 1e-6 * self.h:
            raise NodeNotInGrid(f"{c.tolist()} does not lie on the lattice")
        if node < 0:
            raise NodeNotInGrid(f"lattice point {c.tolist()} was removed from the domain")
        return node

    def node_of_nearest(self, coords) -> int:
        """Snap arbitrary coordinates to the nearest kept lattice node."""
        c, _, node = self._snap(coords)
        if node < 0:
            raise NodeNotInGrid(f"nearest lattice point to {c.tolist()} was removed")
        return node

    def time_layers(self) -> np.ndarray:
        """Node-id boundaries of the time layers: a layered topological order.

        Node ids follow the lattice C-order with coordinate 0 first, so nodes
        ``layers[k]:layers[k+1]`` share one value of coordinate 0.  Raises
        CyclicGraph if a directed edge fails to increase coordinate 0.
        """
        t = self.coords[:, 0]
        if self.n_edges and np.any(t[self.edge_v] <= t[self.edge_u]):
            raise CyclicGraph("a directed edge fails to increase coordinate 0")
        return np.concatenate(([0], np.flatnonzero(np.diff(t)) + 1, [self.n_nodes]))

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_v, minlength=self.n_nodes)


def build_grid(st: Spacetime, tau, box, h: float,
               stencil: Optional[StencilSpec] = None) -> CausalGrid:
    """Discretize ``box`` of ``st`` with spacing ``h``.

    Nodes within h/2 of an excision are dropped, as are edges whose straight
    segment passes within h/2 of one; causality of each candidate edge is
    decided by the metric at the segment midpoint.  When
    ``st.constant_metric`` declares the metric the same everywhere, the cones
    of all stencil offsets are decided in one batch before any pairing, and
    only the causal offsets are paired.  Raises ValueError unless h is
    finite and positive and ``box`` passes box_bounds, NonFiniteValue if
    ``tau`` at a node or the metric at a candidate midpoint is NaN or inf,
    and NoCausalEdges if no causal edge survives.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h!r}")
    stencil = stencil or StencilSpec()
    dim = st.dim
    lo, hi = box_bounds(box, dim)
    params = GridParams(tuple(zip(lo.tolist(), hi.tolist())), float(h), stencil)
    shape = np.floor((hi - lo) / h + 1e-9).astype(np.int64) + 1
    total = int(np.prod(shape))
    if total > MAX_NODES:
        raise GridTooLarge(f"lattice would hold {total} nodes (limit {MAX_NODES})")
    if total == 0:
        raise EmptyGrid("box has no lattice points at this spacing")

    grids = np.meshgrid(*[lo[a] + h * np.arange(shape[a]) for a in range(dim)],
                        indexing="ij")
    coords_full = np.stack([g.ravel() for g in grids], axis=1)
    keep = st.domain_batch(coords_full)
    n_domain = int(keep.sum())
    if n_domain == 0:
        raise EmptyGrid("no lattice point satisfies the domain predicate")
    for exc in st.excisions:
        keep &= exc.distance(coords_full) >= 0.5 * h
    if not np.any(keep):
        raise ExcisionSwallowsBox("thickened excisions removed every node")

    ids_full = np.full(total, -1, dtype=np.int64)
    ids_full[keep] = np.arange(int(keep.sum()))
    ids_full = ids_full.reshape(tuple(shape))
    coords = coords_full[keep]
    tau_values = np.asarray(tau.batch(coords), dtype=float)
    require_finite("time function", tau_values, coords)

    offsets = stencil.offsets(dim)
    deltas = offsets.astype(float) * h
    causal_of = None  # per offset, when one batch decides every offset's cone
    if st.constant_metric:
        # one midpoint per offset decides the cone of every edge along it
        rows = coords[0] + 0.5 * deltas
        try:
            cone = LightCone(st.metric_batch(rows), deltas, rows, NULL_TOL)
        except NonFiniteValue:
            pass  # tested edge by edge below, which names the first candidate's midpoint
        else:
            causal_of = cone.causal
            future_of = cone.future(st.orientation_batch(rows), slice(None))
            length_of = np.sqrt(np.abs(cone.q))
    eu, ev, ew, el = [], [], [], []
    for i, (o, delta) in enumerate(zip(offsets, deltas)):
        if causal_of is not None and not causal_of[i]:
            continue  # spacelike: none of its pairs is an edge
        a_ids, b_ids = offset_pairs(ids_full, o)
        mask = (a_ids >= 0) & (b_ids >= 0)
        if not np.any(mask):
            continue
        a_ids = a_ids[mask]
        b_ids = b_ids[mask]
        if causal_of is not None:
            future = future_of[i]
            length = np.broadcast_to(length_of[i], a_ids.shape)
        else:
            rows = coords[a_ids] + 0.5 * delta
            cone = LightCone(st.metric_batch(rows), delta[None], rows, NULL_TOL)
            causal = cone.causal
            if not np.any(causal):
                continue
            future = cone.future(st.orientation_batch(rows[causal]), causal)
            length = np.sqrt(np.abs(cone.q[causal]))
            a_ids, b_ids = a_ids[causal], b_ids[causal]
        # orient each edge so its displacement is future causal
        u = np.where(future, a_ids, b_ids)
        v = np.where(future, b_ids, a_ids)
        if st.excisions:
            ca, cb = coords[a_ids], coords[b_ids]
            clear = np.ones(a_ids.shape[0], dtype=bool)
            for exc in st.excisions:
                clear &= exc.segment_distance(ca, cb) >= 0.5 * h
            if not np.any(clear):
                continue
            u, v, length = u[clear], v[clear], length[clear]
        eu.append(u)
        ev.append(v)
        ew.append(np.abs(tau_values[v] - tau_values[u]))
        el.append(length)

    if not eu:
        # with no edge every pair is disconnected and every node a source
        raise NoCausalEdges(f"no causal edge joins two of the {coords.shape[0]} kept nodes "
                            f"of box {params.box} at h = {h:g}")
    order = np.argsort(np.concatenate(eu), kind="stable")
    edges = []
    for parts in (eu, ev, ew, el):  # holding every list until all are sorted raises peak memory
        whole = np.concatenate(parts)
        parts.clear()
        edges.append(whole[order])
        del whole
    return CausalGrid(st, tau, params, coords, ids_full, shape, *edges, tau_values, offsets)


def offset_pairs(ids: np.ndarray, offset) -> tuple:
    """Entries of the lattice array ``ids`` at every index pair (k, k + offset)
    inside it: (sources, targets), each raveled in C-order."""
    src = tuple(slice(max(0, -int(c)), n - max(0, int(c))) for c, n in zip(offset, ids.shape))
    dst = tuple(slice(max(0, int(c)), n - max(0, -int(c))) for c, n in zip(offset, ids.shape))
    return ids[src].ravel(), ids[dst].ravel()


def axis_corner_directions(n: int) -> np.ndarray:
    """Unit vectors of R^n: +e_a and -e_a for each axis in turn, then the
    normalized corner diagonals in lexicographic sign order (left out for
    n = 1, where they repeat the axes)."""
    dirs = []
    for a in range(n):
        for sgn in (1.0, -1.0):
            e = np.zeros(n)
            e[a] = sgn
            dirs.append(e)
    if n > 1:
        for corner in itertools.product((1.0, -1.0), repeat=n):
            v = np.array(corner)
            dirs.append(v / np.linalg.norm(v))
    return np.array(dirs)


def reach(grid: CausalGrid, node: int) -> ReachSet:
    """Directed causal closure J+(node), node included; q is in J-(p) iff p is in J+(q)."""
    if not 0 <= node < grid.n_nodes:
        raise NodeNotInGrid(f"node {node} not in grid")
    indptr, nbr, _ = grid.csr_out()
    return ReachSet(origin=node, members=_kernels.bfs_reach(indptr, nbr, node))


def shortest_null_path(grid: CausalGrid, p_node: int, q_node: int):
    """Dijkstra over the undirected |dtau|-weighted support graph.

    Returns (estimate, path) where path is the node-id witness chain from
    p to q.  The estimate always dominates |tau(q) - tau(p)| and upper-bounds
    the continuum null distance up to discretization error.
    """
    for node in (p_node, q_node):
        if not 0 <= node < grid.n_nodes:
            raise NodeNotInGrid(f"node {node} not in grid")
    if p_node == q_node:
        return 0.0, [p_node]
    # canonical source: makes estimate(p,q) == estimate(q,p) bit-exact
    src, tgt = (p_node, q_node) if p_node < q_node else (q_node, p_node)
    dist, pred = _kernels.dijkstra(*grid.csr_undirected(), src, tgt)
    if not np.isfinite(dist[tgt]):
        # the search ran out, so it reached exactly the source's component
        size = int(np.isfinite(dist).sum())
        raise Disconnected(f"nodes {p_node} and {q_node} are not connected: "
                           f"node {src}'s component holds {size} of {grid.n_nodes} nodes")
    path = [tgt]
    while path[-1] != src:
        path.append(int(pred[path[-1]]))
    path.reverse()
    if src != p_node:
        path.reverse()
    return float(dist[tgt]), path


def null_distances_from(grid: CausalGrid, node: int) -> np.ndarray:
    """Single-source variant of shortest_null_path (full sweep)."""
    if not 0 <= node < grid.n_nodes:
        raise NodeNotInGrid(f"node {node} not in grid")
    dist, _ = _kernels.dijkstra(*grid.csr_undirected(), node, -1)
    return dist


def refine_schedule(st: Spacetime, tau, p, q, h_list: Sequence[float], box,
                    stencil: Optional[StencilSpec] = None) -> dict:
    """Null-distance estimates across a decreasing spacing schedule.

    Reports the per-h estimates, whether they decrease monotonically, and a
    linear-in-h Richardson extrapolation from the finest two levels.
    """
    h_list = list(h_list)
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be strictly decreasing")
    estimates = []
    for h in h_list:
        grid = build_grid(st, tau, box, h, stencil)
        est, _ = shortest_null_path(grid, grid.node_of(p), grid.node_of(q))
        estimates.append(est)
    extrapolated = estimates[-1]
    if len(h_list) >= 2 and h_list[-2] != h_list[-1]:
        h0, h1 = h_list[-2], h_list[-1]
        e0, e1 = estimates[-2], estimates[-1]
        extrapolated = (e1 * h0 - e0 * h1) / (h0 - h1)
    mono = all(b <= a + 1e-12 for a, b in zip(estimates, estimates[1:]))
    return {
        "h": h_list,
        "estimates": estimates,
        "monotone_nonincreasing": mono,
        "extrapolated": extrapolated,
    }
