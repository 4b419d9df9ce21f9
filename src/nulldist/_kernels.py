"""Hot graph kernels: Dijkstra, BFS reachability, longest-path relaxation.

Written for the interpreter: Dijkstra walks the CSR arrays through
``memoryview`` (plain Python scalars, no copies) with a ``heapq`` of
``(dist, node)`` tuples; reachability and the longest-path pass do their
per-edge work in numpy, one BFS level or one time layer per step.
"""

import heapq

import numpy as np


def dijkstra(indptr, nbr, wt, src, target):
    """Single-source shortest paths over a CSR graph.

    Pops the ``(dist, node)``-lexicographic minimum, so ties are broken by
    node index (smaller pops first) and results are deterministic.  Stops
    early once ``target`` is settled unless it is -1.  Returns (dist, pred);
    nodes that were never reached keep dist = inf and pred = -1.
    """
    n = indptr.shape[0] - 1
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    dv, pv = memoryview(dist), memoryview(pred)
    ip, nb, w = memoryview(indptr), memoryview(nbr), memoryview(wt)
    done = bytearray(n)
    src, target = int(src), int(target)
    dv[src] = 0.0
    heap = [(0.0, src)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if done[u]:
            continue
        done[u] = 1
        if u == target:
            break
        a, b = ip[u], ip[u + 1]
        for v, c in zip(nb[a:b], w[a:b]):
            if done[v]:
                continue
            nd = d + c
            if nd < dv[v]:
                dv[v] = nd
                pv[v] = u
                push(heap, (nd, v))
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
        nxt = np.unique(nbr[_gather(indptr, frontier)])
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
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
