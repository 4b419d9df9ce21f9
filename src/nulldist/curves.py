"""Piecewise causal curves and the operations built on them.

Null length, rectifiable length against a distance oracle, the zigzag
(future/past) decomposition with its telescoping identity, the grid-backed
causality-encoding verdict, and metric-ball boundary sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from operator import add
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BallExitsGrid, InvalidSegment, NodeNotInGrid, SamePoint
from .grid import (
    CausalGrid,
    axis_corner_directions,
    box_bounds,
    null_distances_from,
    shortest_null_path,
)
from .spacetime import NULL_TOL, LightCone, Spacetime, as_point


@dataclass(frozen=True, eq=False)
class PiecewiseCausalCurve:
    """Vertex chain of straight segments.  A segment's time sense is the
    sign of its change of any time function, so the curve stores none."""

    st: Spacetime
    vertices: np.ndarray  # (k+1, dim)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("need at least two vertices")
        bad = ~np.isfinite(v).all(axis=1) | (v.shape[1] != self.st.dim)
        if bad.any():  # as_point names what is wrong with the first bad vertex
            as_point(v[np.argmax(bad)], self.st.dim)
        object.__setattr__(self, "vertices", v)

    @property
    def n_segments(self) -> int:
        return self.vertices.shape[0] - 1

    def validate(self, tol: float = NULL_TOL) -> None:
        """Check that every segment that moves is causal at its midpoint, one
        metric evaluation for the whole curve.  InvalidSegment names the first
        spacelike segment; a non-finite midpoint metric raises NonFiniteValue."""
        v = self.vertices
        d = np.diff(v, axis=0)
        rows = np.flatnonzero(np.abs(d).max(axis=1) > 0.0)
        mid = 0.5 * (v[:-1][rows] + v[1:][rows])
        cone = LightCone(self.st.metric_batch(mid), d[rows], mid, tol)
        if not cone.causal.all():
            k = int(np.argmin(cone.causal))
            raise InvalidSegment(f"segment {rows[k]} is spacelike (g(d,d)={cone.q[k]:g})")

    def reverse(self) -> "PiecewiseCausalCurve":
        return PiecewiseCausalCurve(self.st, self.vertices[::-1].copy())


def curve_from_grid_path(grid: CausalGrid, path: Sequence[int]) -> PiecewiseCausalCurve:
    """Wrap ``path``, a chain of grid edges as shortest_null_path returns it,
    as a curve.  Every edge changes tau, so a step that keeps tau fixed is
    no edge and raises ValueError; validate() rejects a spacelike step of
    any other chain that is no path of edges."""
    path = np.asarray(path, dtype=int)
    rise = np.diff(grid.tau_values[path])
    if not np.all(rise != 0.0):
        i = int(np.argmin(rise != 0.0))
        raise ValueError(f"step {i} of the path, node {path[i]} -> {path[i + 1]}, keeps tau fixed")
    return PiecewiseCausalCurve(grid.st, grid.coords[path])


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------

def null_length(curve: PiecewiseCausalCurve, tau) -> float:
    """Sum of |dtau| over the segment breakpoints."""
    curve.validate()
    return _null_length(tau.batch(curve.vertices))


def _null_length(vals: np.ndarray) -> float:
    return float(np.abs(np.diff(vals)).sum())


def rectifiable_length(curve, dhat: Callable, depth: int = 6) -> float:
    """Supremum of partition sums of the distance oracle along the curve.

    Accepts a PiecewiseCausalCurve or a bare vertex array: the rectifiable
    length is defined for any curve of the metric space, causal or not
    (limit curves of null zigzags are typically spacelike).  Partitions
    refine dyadically within each straight segment (where the restricted
    distance behaves affinely), up to ``depth`` levels; the returned value
    is the maximum over levels so it is nondecreasing in depth by
    construction.

    An oracle may expose a ``resolution`` attribute (grid oracles do):
    sub-segments are never refined below four times that scale, where a
    lattice metric stops approximating the continuum one (snapping scatters
    partition points by up to h/2 and adjacent equal-time nodes sit at
    distance 2h on the lattice, parity artifacts that would otherwise
    inflate fine partition sums without bound).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    vertices = curve.vertices if hasattr(curve, "vertices") else np.asarray(curve, dtype=float)
    resolution = float(getattr(dhat, "resolution", 0.0) or 0.0)
    best = 0.0
    for level in range(depth + 1):
        pts = _partition(vertices, 2 ** level, resolution)
        total = 0.0
        for i in range(pts.shape[0] - 1):
            total += float(dhat(pts[i], pts[i + 1]))
        best = max(best, total)
    return best


def _partition(vertices: np.ndarray, per_segment: int, resolution: float = 0.0) -> np.ndarray:
    chunks = [vertices[:1]]
    for i in range(vertices.shape[0] - 1):
        a, b = vertices[i], vertices[i + 1]
        n_sub = per_segment
        if resolution > 0.0:
            seg_len = float(np.linalg.norm(b - a))
            while n_sub > 1 and seg_len / n_sub < 4.0 * resolution:
                n_sub //= 2
        ts = np.linspace(0.0, 1.0, n_sub + 1)[1:]
        chunks.append(a + ts[:, None] * (b - a))
    return np.concatenate(chunks, axis=0)


def grid_distance_oracle(grid: CausalGrid) -> Callable:
    """Distance oracle backed by the grid: snaps to the nearest kept node
    and runs the undirected null-weight search.  Advertises the lattice
    spacing as its resolution so partition refinement stops above it."""

    def dhat(a, b) -> float:
        na = grid.node_of_nearest(np.asarray(a, dtype=float))
        nb = grid.node_of_nearest(np.asarray(b, dtype=float))
        est, _ = shortest_null_path(grid, na, nb)
        return est

    dhat.resolution = grid.h
    return dhat


def zigzag_decompose(curve: PiecewiseCausalCurve, tau) -> tuple:
    """(future_len, past_len): the rises and the falls of tau along the
    segments, so future - past = tau(end) - tau(start)."""
    curve.validate()
    return _zigzags(tau.batch(curve.vertices))


def _zigzags(vals: np.ndarray) -> tuple:
    """Sums of the rises and of the falls of ``vals``, each added in order."""
    gaps = np.diff(vals)
    return reduce(add, gaps[gaps > 0.0], 0.0), reduce(add, -gaps[gaps < 0.0], 0.0)


def small_zags_check(curve: PiecewiseCausalCurve, dhat_pq: float, tau,
                     tol: float = 1e-9):
    """Past content of a near-minimizer is bounded by its excess length.

    Hypothesis: dhat(p, q) = tau(q) - tau(p) at the ends p, q of the curve;
    the telescoping identity then gives past_len = (null_length - dhat)/2 <
    null_length - dhat + tol.  A spacelike pair breaks it: criterion 2's
    lattice minimizer reads False, past content 5e-5 against a bound of 1e-9.
    """
    curve.validate()
    vals = tau.batch(curve.vertices)
    future, past = _zigzags(vals)
    total = _null_length(vals)
    bound = total - dhat_pq + tol
    report = {
        "future_len": future,
        "past_len": past,
        "null_length": total,
        "dhat_pq": dhat_pq,
        "bound": bound,
        "telescope_residual": abs((future - past) - (vals[-1] - vals[0])),
    }
    return past < bound, report


# ---------------------------------------------------------------------------
# off-lattice witness refinement
# ---------------------------------------------------------------------------

REFINE_CAUSAL_SLACK = 1e-4  # refined segments keep -g(d,d)/max|g| >= slack*|d|^2
REFINE_CLEARANCE = 1e-3     # ... and stay this many h away from every excision
REFINE_MERGE = 1e-5         # segments shorter than this many h are merged away


def refine_witness(curve: PiecewiseCausalCurve, tau, ceiling: float, h: float, box):
    """Move the interior break points of ``curve`` to lower its null length.

    Every segment keeps sign_i, the sign of its tau change, so the null
    length is the linear form sum(sign_i * (tau(v_{i+1}) - tau(v_i))) and,
    by the telescoping identity, falls exactly when the past content does.
    SLSQP minimizes it with the endpoints fixed, each segment strictly
    inside its cone at the midpoint (slack REFINE_CAUSAL_SLACK, so the
    result survives validate() after rounding), at least REFINE_CLEARANCE *
    h from every excision, and every vertex inside ``box``, which must pass
    box_bounds.  Zigzags that the optimum does not need shrink to near-zero
    length; segments shorter than REFINE_MERGE * h are then merged into
    their successor.

    Returns ``(refined_curve, null_length)`` only for a certified result:
    the endpoints are those of ``curve``, validate() passes, every segment
    misses every excision (segment_distance > 0), every vertex lies in the
    domain, and the null length is strictly below ``ceiling``.  Returns
    None otherwise.  Zero-length input segments are dropped first.
    """
    from scipy.optimize import minimize

    st = curve.st
    lo, hi = box_bounds(box, st.dim)
    moving = np.abs(np.diff(curve.vertices, axis=0)).max(axis=1) > 0.0
    verts = curve.vertices[np.concatenate([[True], moving])]
    if verts.shape[0] < 3:
        return None
    sign = np.sign(np.diff(tau.batch(verts)))
    dim = st.dim

    def chain(x):
        return np.concatenate([verts[:1], x.reshape(-1, dim), verts[-1:]])

    def null_len(x):
        return float(sign @ np.diff(tau.batch(chain(x))))

    def in_cone(x):
        v = chain(x)
        d = np.diff(v, axis=0)
        mid = 0.5 * (v[:-1] + v[1:])
        cone = LightCone(st.metric_batch(mid), d, mid, NULL_TOL)
        s = cone.time_component(slice(None))
        slack = REFINE_CAUSAL_SLACK * np.einsum("mi,mi->m", d, d)
        return np.concatenate([-cone.q / cone.scale - slack, -sign * s / cone.scale])

    def clear(x):
        v = chain(x)
        return np.concatenate([exc.segment_distance(v[:-1], v[1:]) - REFINE_CLEARANCE * h
                               for exc in st.excisions])

    cons = [{"type": "ineq", "fun": in_cone}]
    if st.excisions:
        cons.append({"type": "ineq", "fun": clear})
    bounds = list(zip(lo.tolist(), hi.tolist())) * (verts.shape[0] - 2)
    res = minimize(null_len, verts[1:-1].ravel(), method="SLSQP", bounds=bounds,
                   constraints=cons, options={"maxiter": 200, "ftol": 1e-10})

    refined = _merge_short_segments(st, chain(res.x), REFINE_MERGE * h)
    v = refined.vertices
    try:
        length = null_length(refined, tau)
    except InvalidSegment:
        return None
    if not all(np.all(exc.segment_distance(v[:-1], v[1:]) > 0.0) for exc in st.excisions):
        return None
    if not (np.all(st.domain_batch(v)) and length < ceiling):
        return None
    return refined, length


def _merge_short_segments(st: Spacetime, v: np.ndarray, min_len: float) -> PiecewiseCausalCurve:
    """Drop each vertex reached by a segment shorter than ``min_len`` so the
    next segment absorbs the short one; a short final segment moves its
    start onto the fixed endpoint instead."""
    keep = [v[0]]
    for i in range(1, v.shape[0]):
        if np.abs(v[i] - keep[-1]).max() >= min_len:
            keep.append(v[i])
        elif i == v.shape[0] - 1 and len(keep) > 1:
            keep[-1] = v[-1]
    return PiecewiseCausalCurve(st, np.array(keep) if len(keep) > 1 else v)


# ---------------------------------------------------------------------------
# causality-encoding verdict
# ---------------------------------------------------------------------------

class EncodesVerdict(Enum):
    CAUSAL_AND_EQUAL = "CausalAndEqual"
    SPACELIKE_AND_STRICT = "SpacelikeAndStrict"
    VIOLATION_MISSING_CAUSAL = "Violation(MissingCausal)"


@dataclass(frozen=True, eq=False)
class NullDistanceResult:
    """``estimate`` is the null length of ``witness``; ``lattice_estimate`` is
    the Dijkstra value, the same number unless the witness was refined off
    the lattice.  ``encodes_equality`` is decided on ``lattice_estimate``:
    it is ``lattice_estimate - lower_bound <= default_tol_eq(grid)``.
    ``reachable``: tau changes one way along every lattice witness segment."""

    estimate: float
    lower_bound: float
    witness: Optional[PiecewiseCausalCurve]
    encodes_equality: bool
    lattice_estimate: float
    reachable: bool


@dataclass(frozen=True, eq=False)
class EncodesReport:
    verdict: EncodesVerdict
    result: NullDistanceResult
    tol_eq: float
    properness_claimed: bool


def default_tol_eq(grid: CausalGrid) -> float:
    """Discretization-scale equality band: 3h times the stencil radius."""
    return 3.0 * grid.h * grid.stencil.radius


def null_distance_result(grid: CausalGrid, p_node: int, q_node: int) -> NullDistanceResult:
    """Lattice null distance between nodes ``p_node`` and ``q_node`` of
    ``grid``, with its witness curve, the |dtau| lower bound, the equality flag
    at the band default_tol_eq(grid) and reachable.  Raises SamePoint for one node."""
    est, path = shortest_null_path(grid, p_node, q_node)
    if len(path) < 2:
        raise SamePoint(f"p and q are the same point {grid.coords[p_node].tolist()}: "
                        f"no witness curve joins it to itself")
    lower = abs(float(grid.tau_values[q_node] - grid.tau_values[p_node]))
    witness = curve_from_grid_path(grid, path)
    senses = np.sign(np.diff(grid.tau_values[path]))
    return NullDistanceResult(estimate=est, lower_bound=lower, witness=witness,
                              encodes_equality=(est - lower) <= default_tol_eq(grid),
                              lattice_estimate=est, reachable=bool(np.all(senses == senses[0])))


def _refined_result(grid: CausalGrid, res: NullDistanceResult,
                    swapped: bool) -> NullDistanceResult:
    """Swap in a certified off-lattice witness when one beats the lattice.

    The witness is refined from the canonical source (the smaller node id,
    as in shortest_null_path), so estimate(p,q) == estimate(q,p) bit-exact.
    """
    canon = res.witness.reverse() if swapped else res.witness
    out = refine_witness(canon, grid.tau, res.estimate, grid.h, grid.params.box)
    if out is None:
        return res
    curve, length = out
    return replace(res, estimate=length, witness=curve.reverse() if swapped else curve)


def encodes_causality_test(grid: CausalGrid, p, q) -> EncodesReport:
    """Compare null-distance equality against directed reachability on
    ``grid`` between the lattice points ``p`` and ``q``, both read from one
    search: SpacelikeAndStrict off the |dtau| floor (by more than
    default_tol_eq(grid), reported as tol_eq), else CausalAndEqual if the
    lattice witness is directed and MissingCausal, the counterexample class,
    if not.

    A witness that is not directed is refined off the lattice
    (refine_witness); a certified refinement becomes the result's estimate
    and witness, and the Dijkstra value stays in lattice_estimate.  The
    verdict is decided on the lattice estimate either way.
    ``properness_claimed`` is what grid.tau claims about itself.
    """
    p_node = grid.node_of(np.asarray(p, dtype=float))
    q_node = grid.node_of(np.asarray(q, dtype=float))
    res = null_distance_result(grid, p_node, q_node)
    if not res.reachable:
        res = _refined_result(grid, res, swapped=p_node > q_node)
    if not res.encodes_equality:
        verdict = EncodesVerdict.SPACELIKE_AND_STRICT
    elif res.reachable:
        verdict = EncodesVerdict.CAUSAL_AND_EQUAL
    else:
        verdict = EncodesVerdict.VIOLATION_MISSING_CAUSAL
    return EncodesReport(verdict=verdict, result=res, tol_eq=default_tol_eq(grid),
                         properness_claimed=bool(grid.tau.claims.proper))


# ---------------------------------------------------------------------------
# metric-ball boundary
# ---------------------------------------------------------------------------

def ray_directions(dim: int, n_dirs: int) -> np.ndarray:
    """Deterministic unit directions: evenly spaced in 1+1, axes then
    corner diagonals in higher dimensions."""
    if dim == 2:
        angles = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    dirs = axis_corner_directions(dim)
    reps = int(np.ceil(n_dirs / dirs.shape[0]))
    return np.tile(dirs, (reps, 1))[:n_dirs]


def ball_boundary_sample(grid: CausalGrid, center, R: float, n_dirs: int) -> np.ndarray:
    """Points where the null-distance ball of radius R about the lattice
    point ``center`` of ``grid`` crosses coordinate rays.

    Returns an (n_dirs, 2*dim) array of [direction..., boundary coords...];
    the crossing is located by stepping then bisecting the grid-snapped
    distance field, so it is accurate to about one lattice spacing.  Raises
    ValueError unless R is finite and positive and n_dirs at least 1.
    """
    if not (math.isfinite(R) and R > 0 and n_dirs >= 1):
        raise ValueError(f"need a finite R > 0 and n_dirs >= 1, got R = {R!r}, n_dirs = {n_dirs!r}")
    center = np.asarray(center, dtype=float)
    c_node = grid.node_of(center)
    dist = null_distances_from(grid, c_node)
    h = grid.h
    dim = grid.st.dim

    def f(s, u):
        try:
            node = grid.node_of_nearest(center + s * u)
        except NodeNotInGrid:
            return None
        return dist[node]

    out = np.empty((n_dirs, 2 * dim))
    for k, u in enumerate(ray_directions(dim, n_dirs)):
        s = 0.0
        bracket = None
        while True:
            s_next = s + 0.5 * h
            val = f(s_next, u)
            if val is None:
                raise BallExitsGrid(
                    f"ray {u.tolist()} leaves the grid before reaching distance {R}")
            if val >= R:
                bracket = (s, s_next)
                break
            s = s_next
        a, b = bracket
        for _ in range(40):
            m = 0.5 * (a + b)
            val = f(m, u)
            if val is not None and val >= R:
                b = m
            else:
                a = m
        boundary = center + 0.5 * (a + b) * u
        out[k, :dim] = u
        out[k, dim:] = boundary
    return out
