"""Causal lattice graphs: build, reach, and shortest null-weighted paths.

A box of the spacetime is discretized into a uniform ``Lattice``.  For every
stencil offset whose displacement is future causal at the segment midpoint a
directed edge u -> v is emitted with its Lorentzian segment length, and the
edges are stored once, as the out-CSR (``indptr``, ``edge_v``, ``edge_len``):
on a constant metric read node by node off the (causal offset x node) table
of lattice neighbours, on any other sorted stably by source.  tau must rise
along every edge; the undirected graph holds the rises tau(v) - tau(u) in one
slot per lattice direction.  Undirected Dijkstra over the rises gives an
upper estimate of the null distance, with a witness that is directed iff one
end lies in J+ of the other; directed closure gives J+.
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
# lattice points times candidate offsets: 8.9 million on the 3+1 boxes at radius 2
MAX_CANDIDATES = 100_000_000


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
        r = self.radius
        every = np.indices((2 * r + 1,) * dim).reshape(dim, -1).T - r  # C order: lexicographic
        # the zero offset sits in the middle; the lexicographically positive follow it
        out = every[every.shape[0] // 2 + 1:]
        if not self.include_null_exact:
            out = out[out[:, 0] ** 2 != (out[:, 1:] ** 2).sum(axis=1)]
        return np.ascontiguousarray(out, dtype=np.int64)


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
    """J+(origin) on ``grid``, origin included.  ``q in`` searches for q
    alone, through nodes no later than q in tau, and stops once it is found;
    ``members``, the whole closure as a boolean mask over the grid's nodes,
    is computed on each read.  An id that is no node of the grid is no member."""

    grid: CausalGrid
    origin: int

    def __contains__(self, node) -> bool:
        if not _is_node(self.grid, node):
            return False
        indptr, nbr = self.grid.csr_out()
        found = _kernels.bfs_reach(indptr, nbr, self.origin, int(node), self.grid.tau_values)
        return bool(found[node])

    @property
    def members(self) -> np.ndarray:
        return _kernels.bfs_reach(*self.grid.csr_out(), self.origin)


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
    """Immutable lattice with directed future-causal edges, held as an out-CSR.

    The out-edges of node i are ``edge_v[indptr[i]:indptr[i + 1]]`` with
    lengths ``edge_len``, in ``directions`` order; ``edge_u``, each edge's
    source, is derived from ``indptr`` on every access and never stored.
    Edge e rises by ``tau_values[edge_v[e]] - tau_values[edge_u[e]]`` > 0.
    ``edge_offsets`` are the ``offsets_used`` that carry an edge, in emission
    order; ``directions`` are the signed offsets, u to v, along which edges run.
    Construction is the only mutating phase; afterwards concurrent queries
    are safe (each query owns its scratch arrays inside the kernels).
    """

    def __init__(self, st, tau, params: GridParams, coords, lattice, shape,
                 indptr, edge_v, edge_len, tau_values, offsets_used, edge_offsets, directions):
        self.st = st
        self.tau = tau
        self.params = params
        self.h = params.h
        self.stencil = params.stencil
        self.lo = params.lo()
        self.shape = shape
        self.coords = coords
        self.lattice = lattice
        self.edge_v = edge_v
        self.edge_len = edge_len
        self.tau_values = tau_values
        self.offsets_used = offsets_used
        self.edge_offsets = edge_offsets
        self.directions = directions
        self.n_nodes = coords.shape[0]
        self.n_edges = edge_v.shape[0]
        # worst-case factor by which axis-null zigzags overestimate spacelike
        # separation (L1 corner direction)
        self.spacelike_overestimate_max = math.sqrt(max(1, st.dim - 1))
        self._indptr = indptr
        self._undirected = None

    @property
    def edge_u(self) -> np.ndarray:
        """Source of each edge, expanded from the out-CSR's row pointers."""
        return np.repeat(np.arange(self.n_nodes), np.diff(self._indptr))

    # -- graph views --------------------------------------------------------

    def csr_out(self):
        """(indptr, nbr) of the directed graph: the stored edge arrays."""
        return self._indptr, self.edge_v

    def csr_undirected(self):
        """``Lattice.undirected`` of the edges weighted by their rises, built on first use."""
        if self._undirected is None:
            u = self.edge_u
            rise = self.tau_values[self.edge_v] - self.tau_values[u]
            self._undirected = self.lattice.undirected(self.edge_offsets, u, self.edge_v, rise)
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
        CyclicGraph if a directed edge fails to increase coordinate 0: some
        direction steps coordinate 0 by <= 0, or the lattice's time axis
        ``lo + h k``, which holds every node's coordinate 0, fails to rise
        strictly.
        """
        axis = self.lo[0] + self.h * np.arange(self.shape[0])
        if np.any(self.directions[:, 0] <= 0) or np.any(np.diff(axis) <= 0):
            raise CyclicGraph("a directed edge fails to increase coordinate 0")
        t = self.coords[:, 0]
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
    of all stencil offsets are decided in one batch, and the out-CSR is read
    node by node off one gather of the (causal offset x node) table of lattice
    neighbours (``_table_edges``); any other metric is tested pair by pair
    (``_paired_edges``).  Raises ValueError unless h is finite and positive
    and ``box`` passes box_bounds, GridTooLarge if the lattice holds more than
    MAX_NODES points or points times candidate offsets exceed MAX_CANDIDATES
    (checked before any offset is enumerated), NonFiniteValue if ``tau`` at
    a node or the metric at a candidate midpoint is NaN or inf,
    NotATimeFunction if ``tau`` fails to rise strictly along an edge, and
    NoCausalEdges if no causal edge survives.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h!r}")
    stencil = stencil or StencilSpec()
    dim = st.dim
    lo, hi = box_bounds(box, dim)
    params = GridParams(tuple(zip(lo.tolist(), hi.tolist())), float(h), stencil)
    with np.errstate(over="ignore"):  # counted in floats: a tiny h overflows an int cast
        extent = np.floor((hi - lo) / h + 1e-9) + 1
        total = float(np.prod(extent))
    if total > MAX_NODES:
        raise GridTooLarge(f"lattice would hold {total:.15g} nodes (limit {MAX_NODES})")
    candidates = int(total) * (((2 * stencil.radius + 1) ** dim - 1) // 2)
    if candidates > MAX_CANDIDATES:
        raise GridTooLarge(f"{int(total)} lattice points times the radius-{stencil.radius} "
                           f"stencil give {candidates} candidate edges (limit {MAX_CANDIDATES})")
    shape = extent.astype(np.int64)

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
    cone = None
    if st.constant_metric:
        # one midpoint per offset decides the cone of every edge along it
        deltas = offsets.astype(float) * h
        rows = coords[0] + 0.5 * deltas
        try:
            cone = LightCone(st.metric_batch(rows), deltas, rows, NULL_TOL)
        except NonFiniteValue:
            pass  # tested pair by pair, which names the first candidate's midpoint
    if cone is None:
        out = _paired_edges(st, h, lattice, coords, tau_values, offsets)
    else:
        out = _table_edges(st, h, lattice, coords, tau_values, offsets, cone)
    indptr, edge_v, edge_len, carriers, directions = out
    if not carriers.size:
        # with no edge every pair is disconnected and every node a source
        raise NoCausalEdges(f"no causal edge joins two of the {coords.shape[0]} kept nodes "
                            f"of box {params.box} at h = {h:g}")
    return CausalGrid(st, tau, params, coords, lattice, shape, indptr, edge_v, edge_len,
                      tau_values, offsets, offsets[carriers], directions)


def _table_edges(st, h, lattice, coords, tau_values, offsets, cone):
    """Out-CSR of a constant metric whose offsets' cones ``cone`` decided.

    Row c of the (causal offset x node) table holds every node's neighbour
    along the c-th causal offset, signed to point to the future, or -1.
    Masked by excision clearance and read node by node, the table gives
    ``edge_v`` sorted by source and, within a node, in offset order.
    Returns (indptr, edge_v, edge_len, carrier indices, directions).
    """
    carry = np.flatnonzero(cone.causal & np.all(np.abs(offsets) <= lattice.pad, axis=1))
    sign = np.where(cone.future(carry), 1, -1)
    directions = sign[:, None] * offsets[carry]
    length = np.sqrt(np.abs(cone.q[carry]))
    table = lattice.ids[(directions @ lattice.strides)[:, None] + lattice.at]
    live = table >= 0
    for c in range(carry.size):
        if st.excisions:
            u = np.flatnonzero(live[c])
            v = table[c, u]
            a, b = (u, v) if sign[c] > 0 else (v, u)  # tested as the pair (a, a + offset)
            live[c, u[~_clear(st.excisions, coords[a], coords[b], h)]] = False
        # a -1 in the table reads the last node's tau, behind a False in live;
        # for finite tau, tau(v) > tau(u) exactly when the rise is positive
        fails = live[c] & ~(tau_values[table[c]] > tau_values)
        if fails.any():
            u = np.flatnonzero(fails)[:1]
            _require_rise(tau_values, coords, u, table[c, u])
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(live, axis=0))))
    carried = live.any(axis=1)  # excision clearance may cut every edge of a direction
    return (indptr, table.T[live.T], np.broadcast_to(length, table.T.shape)[live.T],
            carry[carried], directions[carried])


def _paired_edges(st, h, lattice, coords, tau_values, offsets):
    """Out-CSR of any metric, tested pair by pair: every offset's edges in
    pair order, then sorted stably by source.  Returns as ``_table_edges``."""
    eu, ev, el, carriers, directions = [], [], [], [], []
    for i, (o, delta) in enumerate(zip(offsets, offsets.astype(float) * h)):
        a_ids, b_ids = lattice.pairs(o)
        if not a_ids.size:
            continue
        rows = coords[a_ids] + 0.5 * delta
        cone = LightCone(st.metric_batch(rows), delta[None], rows, NULL_TOL)
        causal = cone.causal
        if not np.any(causal):
            continue
        future = cone.future(causal)
        length = np.sqrt(np.abs(cone.q[causal]))
        a_ids, b_ids = a_ids[causal], b_ids[causal]
        if st.excisions:
            clear = _clear(st.excisions, coords[a_ids], coords[b_ids], h)
            if not np.any(clear):
                continue
            a_ids, b_ids, future, length = a_ids[clear], b_ids[clear], future[clear], length[clear]
        # orient each edge so its displacement is future causal
        u = np.where(future, a_ids, b_ids)
        v = np.where(future, b_ids, a_ids)
        _require_rise(tau_values, coords, u, v)
        eu.append(u)
        ev.append(v)
        el.append(length)
        carriers.append(i)
        # a node's edge to its past pair partner precedes the one to its future partner
        if not future.all():
            directions.append(-o)
        if future.any():
            directions.append(o)
    if not eu:
        return None, None, None, np.empty(0, dtype=np.int64), None
    u = np.concatenate(eu)
    eu.clear()
    indptr = np.concatenate(([0], np.cumsum(np.bincount(u, minlength=coords.shape[0]))))
    order = np.argsort(u, kind="stable")
    del u
    edges = []
    for parts in (ev, el):  # holding every list until all are sorted raises peak memory
        whole = np.concatenate(parts)
        parts.clear()
        edges.append(whole[order])
        del whole
    return indptr, *edges, np.array(carriers), np.array(directions)


def _clear(excisions, a, b, h) -> np.ndarray:
    """Whether each segment a -> b stays at least h/2 from every excision."""
    clear = np.ones(a.shape[0], dtype=bool)
    for exc in excisions:
        clear &= exc.segment_distance(a, b) >= 0.5 * h
    return clear


def _require_rise(tau_values, coords, u, v) -> None:
    """NotATimeFunction naming the first edge u -> v along which tau fails to rise."""
    rise = tau_values[v] - tau_values[u]
    if not np.all(rise > 0.0):
        k = int(np.argmin(rise > 0.0))
        raise NotATimeFunction(f"tau rises by {rise[k]:g} along the future-causal edge "
                               f"{coords[u[k]].tolist()} -> {coords[v[k]].tolist()}")


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


def _is_node(grid: CausalGrid, node) -> bool:
    """Whether ``node`` is an integer id (a bool is not) of one of grid's nodes."""
    return (isinstance(node, (int, np.integer)) and not isinstance(node, bool)
            and 0 <= node < grid.n_nodes)


def _node_id(grid: CausalGrid, node) -> int:
    """``node`` as a plain int; NodeNotInGrid unless it is a node id of grid."""
    if not _is_node(grid, node):
        raise NodeNotInGrid(f"node {node!r} not in grid")
    return int(node)


def reach(grid: CausalGrid, node: int) -> ReachSet:
    """Directed causal closure J+(node), node included, searched for when
    asked (see ReachSet); q is in J-(p) iff p is in J+(q)."""
    return ReachSet(grid, _node_id(grid, node))


def shortest_null_path(grid: CausalGrid, p_node: int, q_node: int):
    """Dijkstra over the undirected rise-weighted support graph.

    Returns (estimate, path) where path is the node-id witness chain from
    p to q.  The estimate always dominates |tau(q) - tau(p)| and upper-bounds
    the continuum null distance up to discretization error.
    """
    p_node, q_node = _node_id(grid, p_node), _node_id(grid, q_node)
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
    dist, _ = _kernels.dijkstra(*grid.csr_undirected(), _node_id(grid, node), -1)
    return dist


def refine_schedule(st: Spacetime, tau, p, q, h_list: Sequence[float], box,
                    stencil: Optional[StencilSpec] = None) -> dict:
    """Null-distance estimates across a decreasing spacing schedule: the
    dict {"h": h_list, "estimates": the estimate at each h}."""
    h_list = list(h_list)
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be strictly decreasing")
    estimates = []
    for h in h_list:
        grid = build_grid(st, tau, box, h, stencil)
        est, _ = shortest_null_path(grid, grid.node_of(p), grid.node_of(q))
        estimates.append(est)
    return {"h": h_list, "estimates": estimates}
