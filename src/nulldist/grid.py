"""Causal lattice graphs: build, reach, and shortest null-weighted paths.

A box of the spacetime is discretized into a uniform ``Lattice``.  For every
stencil offset whose displacement is future causal at the segment midpoint a
directed edge u -> v is emitted with its Lorentzian segment length and stored
once, sorted by source: the edge arrays are the out-CSR.  tau must rise along
every edge; the undirected graph holds the rises tau(v) - tau(u) in one slot
per lattice direction.  Undirected Dijkstra over the rises gives an upper
estimate of the null distance, with a witness that is directed iff one end
lies in J+ of the other; directed closure gives J+.
"""

from __future__ import annotations

import copy
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
    NotATimeFunction,
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


class Lattice:
    """Node ids where the boolean array ``keep`` is true, in C-order, padded
    with -1 by ``pad`` = min(radius, n - 1) on an axis of n points, raveled:
    node i sits at ``ids[at[i]]``.  Offsets with |o| <= pad stay inside and
    have distinct flat steps; a view (``undirected``) gathers at its ``steps``."""

    def __init__(self, keep: np.ndarray, radius: int):
        self.pad = np.minimum(radius, np.array(keep.shape) - 1)
        padded = np.full(np.add(keep.shape, 2 * self.pad), -1, dtype=np.int64)
        padded[tuple(slice(p, p + n) for p, n in zip(self.pad, keep.shape))][keep] = \
            np.arange(np.count_nonzero(keep))
        self.ids = padded.ravel()
        self.at = np.flatnonzero(self.ids >= 0)
        self.strides = np.array(padded.strides) // padded.itemsize  # flat, per axis

    def node_at(self, index: np.ndarray) -> int:
        """Node id at the (unpadded) lattice index, -1 if removed."""
        return int(self.ids[(index + self.pad) @ self.strides])

    def pairs(self, offset: np.ndarray) -> tuple:
        """(a, b): every node a with a node b at a + offset, in node order;
        none for an offset that does not fit the box."""
        if np.any(np.abs(offset) > self.pad):
            return (np.empty(0, dtype=np.int64),) * 2
        b = self.ids[self.at + offset @ self.strides]
        return np.flatnonzero(b >= 0), b[b >= 0]

    def undirected(self, offsets: np.ndarray, u, v, w) -> tuple:
        """(nbr, wt, wout): the edges u - v weighted w, v at +-``offsets`` from
        u, as rows of slots.  Slot j of node i stands for the offsets and then
        their negatives; ``nbr[nodes]`` gives the neighbours there, -1 off the
        box or removed, ``wt`` the edge's weight or +inf, ``wout`` the minima."""
        k = offsets.shape[0]
        nbr = copy.copy(self)
        nbr.steps = np.concatenate([offsets, -offsets]) @ self.strides
        order = np.argsort(nbr.steps)  # an edge's slot at u: its flat step's
        slot = order[np.searchsorted(nbr.steps[order], self.at[v] - self.at[u])]
        wt = np.full((self.at.shape[0], 2 * k), np.inf)
        wt[u, slot] = w
        wt[v, (slot + k) % (2 * k)] = w
        return nbr, wt, wt.min(axis=1)

    def __getitem__(self, nodes):
        return self.ids[self.at[nodes][..., None] + self.steps]


class CausalGrid:
    """Immutable lattice with directed future-causal edges.

    Edges come sorted stably by source, so the edge arrays are the out-CSR;
    edge e rises by ``tau_values[edge_v[e]] - tau_values[edge_u[e]]`` > 0.
    ``edge_offsets`` are the ``offsets_used`` that carry an edge, in emission
    order.  Construction is the only mutating phase; afterwards concurrent
    queries are safe (each query owns its scratch arrays inside the kernels).
    """

    def __init__(self, st, tau, params: GridParams, coords, lattice, shape,
                 edge_u, edge_v, edge_len, tau_values, offsets_used, edge_offsets):
        self.st = st
        self.tau = tau
        self.params = params
        self.h = params.h
        self.stencil = params.stencil
        self.lo = params.lo()
        self.shape = shape
        self.coords = coords
        self.lattice = lattice
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_len = edge_len
        self.tau_values = tau_values
        self.offsets_used = offsets_used
        self.edge_offsets = edge_offsets
        self.n_nodes = coords.shape[0]
        self.n_edges = edge_u.shape[0]
        # worst-case factor by which axis-null zigzags overestimate spacelike
        # separation (L1 corner direction)
        self.spacelike_overestimate_max = math.sqrt(max(1, st.dim - 1))
        self._indptr = np.searchsorted(edge_u, np.arange(self.n_nodes + 1))
        self._undirected = None

    # -- graph views --------------------------------------------------------

    def csr_out(self):
        """(indptr, nbr) of the directed graph: the edge arrays themselves."""
        return self._indptr, self.edge_v

    def csr_undirected(self):
        """``Lattice.undirected`` of the edges weighted by their rises, built on first use."""
        if self._undirected is None:
            rise = self.tau_values[self.edge_v] - self.tau_values[self.edge_u]
            self._undirected = self.lattice.undirected(self.edge_offsets, self.edge_u,
                                                       self.edge_v, rise)
        return self._undirected

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
        return c, k, self.lattice.node_at(k)

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
    NotATimeFunction if ``tau`` fails to rise strictly along an edge, and
    NoCausalEdges if no causal edge survives.
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

    lattice = Lattice(keep.reshape(tuple(shape)), stencil.radius)
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
            future_of = cone.future(slice(None))
            length_of = np.sqrt(np.abs(cone.q))
    eu, ev, el, carriers = [], [], [], []
    for i, (o, delta) in enumerate(zip(offsets, deltas)):
        if causal_of is not None and not causal_of[i]:
            continue  # spacelike: none of its pairs is an edge
        a_ids, b_ids = lattice.pairs(o)
        if not a_ids.size:
            continue
        if causal_of is not None:
            future = future_of[i]
            length = np.broadcast_to(length_of[i], a_ids.shape)
        else:
            rows = coords[a_ids] + 0.5 * delta
            cone = LightCone(st.metric_batch(rows), delta[None], rows, NULL_TOL)
            causal = cone.causal
            if not np.any(causal):
                continue
            future = cone.future(causal)
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
        rise = tau_values[v] - tau_values[u]
        if not np.all(rise > 0.0):
            k = int(np.argmin(rise > 0.0))
            raise NotATimeFunction(f"tau rises by {rise[k]:g} along the future-causal edge "
                                   f"{coords[u[k]].tolist()} -> {coords[v[k]].tolist()}")
        eu.append(u)
        ev.append(v)
        el.append(length)
        carriers.append(i)

    if not eu:
        # with no edge every pair is disconnected and every node a source
        raise NoCausalEdges(f"no causal edge joins two of the {coords.shape[0]} kept nodes "
                            f"of box {params.box} at h = {h:g}")
    order = np.argsort(np.concatenate(eu), kind="stable")
    edges = []
    for parts in (eu, ev, el):  # holding every list until all are sorted raises peak memory
        whole = np.concatenate(parts)
        parts.clear()
        edges.append(whole[order])
        del whole
    return CausalGrid(st, tau, params, coords, lattice, shape, *edges, tau_values, offsets,
                      offsets[carriers])


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
    indptr, nbr = grid.csr_out()
    return ReachSet(origin=node, members=_kernels.bfs_reach(indptr, nbr, node))


def shortest_null_path(grid: CausalGrid, p_node: int, q_node: int):
    """Dijkstra over the undirected rise-weighted support graph.

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
                           f"node {src}'s component holds {size} of {grid.n_nodes} nodes; "
                           f"edges run along {len(grid.edge_offsets)} of the "
                           f"{len(grid.offsets_used)} stencil offsets")
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
