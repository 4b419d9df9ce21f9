"""Hot graph kernels: Dijkstra, BFS reachability, longest-path relaxation.

Each kernel does its per-edge work in numpy, one group of nodes per step:

- Dijkstra settles a whole distance band per step (the OUT criterion of
  Crauser, Mehlhorn, Meyer and Sanders, MFCS 1998).  With ``wout[u]`` the
  smallest weight leaving u, the bound ``T = min(dist[u] + wout[u])`` over
  the open (reached, unsettled) nodes is a floor on every distance still to
  be found, since rounded addition is monotone; so every open node with
  ``dist < T`` is final.  The band is relaxed in ``(dist, node)`` order, the
  order a binary heap of ``(dist, node)`` pairs pops it, and an edge
  improves a node only strictly, the smallest rank winning a tie, so
  ``dist`` and ``pred`` are bit for bit those of the heap.  When no open
  node lies below T (a zero weight, or one lost in rounding), the step
  settles only the ``(dist, node)``-smallest open node, the heap's next pop.
  Zero-weight ties therefore settle one node per step, the kernel's worst
  case; on a causal grid only a time function that is not strictly
  increasing along causal edges gives zero weights.
- Reachability runs breadth first, one level per step.
- The longest-path pass relaxes one time layer per step.
"""

import numpy as np


def csr(n, u, v, w):
    """(indptr, nbr, wt) of the undirected n-node graph of the edges u - v
    weighted w: each edge is stored in both directions, every u -> v before
    every v -> u, and sorted stably by source."""
    src = np.concatenate([u, v])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, np.concatenate([v, u])[order], np.concatenate([w, w])[order]


def dijkstra(indptr, nbr, wt, src, target):
    """Single-source shortest paths over a CSR graph with weights >= 0.

    Returns what a binary heap of ``(dist, node)`` pairs returns, bit for
    bit: nodes settle in ``(dist, node)``-lexicographic order, so ties are
    broken by node index (smaller first), and a node's pred is the first
    settled node to reach its final distance.  Stops early once ``target``
    is settled unless it is -1; nodes left open then keep their tentative
    dist and pred.  Returns (dist, pred); nodes that were never reached keep
    dist = inf and pred = -1.
    """
    n = indptr.shape[0] - 1
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    deg = np.diff(indptr)
    wout = np.full(n, np.inf)  # smallest weight leaving each node
    wout[deg > 0] = np.minimum.reduceat(wt, indptr[:-1][deg > 0])
    is_open = np.zeros(n, dtype=np.bool_)
    rank = np.full(n, n, dtype=np.int64)  # tie-break scratch, n = unset
    dist[src] = 0.0
    is_open[src] = True
    while (front := np.flatnonzero(is_open)).size:
        d = dist[front]
        band = np.flatnonzero(d < (d + wout[front]).min())
        if band.size:  # in the heap's pop order: front is sorted by node
            band = band[np.argsort(d[band], kind="stable")]
        else:  # a zero or absorbed weight: settle the heap's next pop only
            band = d.argmin(keepdims=True)
        batch, d = front[band], d[band]
        is_open[batch] = False
        stop = False
        if target >= 0:  # the heap stops on popping the target
            hit = np.flatnonzero(batch == target)
            if hit.size:
                batch, d, stop = batch[:hit[0]], d[:hit[0]], True
        if batch.size:
            counts = deg[batch]
            e = _gather(indptr, batch)
            v = nbr[e]
            nd = np.repeat(d, counts) + wt[e]
            # strict improvements only; of equal ones the lowest rank wins
            better = nd < dist[v]
            v, nd = v[better], nd[better]
            r = np.repeat(np.arange(batch.size), counts)[better]
            np.minimum.at(dist, v, nd)
            won = nd == dist[v]
            v, r = v[won], r[won]
            np.minimum.at(rank, v, r)
            pred[v] = batch[rank[v]]
            rank[v] = n
            is_open[v] = True
        if stop:
            break
    return dist, pred


def _gather(indptr, nodes):
    """CSR edge indices leaving ``nodes``, node by node."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])


def bfs_reach(indptr, nbr, src):
    """Reflexive-transitive closure of the directed edge relation from src."""
    seen = np.zeros(indptr.shape[0] - 1, dtype=np.bool_)
    seen[src] = True
    frontier = np.array([src], dtype=np.int64)
    while frontier.size:
        fresh = np.zeros_like(seen)
        fresh[nbr[_gather(indptr, frontier)]] = True
        fresh &= ~seen
        frontier = np.flatnonzero(fresh)
        seen |= fresh
    return seen


def longest_path_values(layers, indptr, nbr, length, base):
    """Longest-path DP over a DAG whose nodes come in time layers.

    Nodes ``layers[k]:layers[k+1]`` form layer k, and every edge leads from a
    layer to a strictly later one, so a layer's values are final once the
    layers before it are relaxed.  ``base`` holds initial values (boundary
    seeds at sources, -inf elsewhere); relaxation maximizes
    value[u] + length[e] along outgoing edges.
    """
    value = base.copy()
    for a, b in zip(layers[:-1], layers[1:]):
        e0, e1 = indptr[a], indptr[b]
        cand = np.repeat(value[a:b], np.diff(indptr[a:b + 1]))
        cand += length[e0:e1]
        np.maximum.at(value, nbr[e0:e1], cand)
    return value
