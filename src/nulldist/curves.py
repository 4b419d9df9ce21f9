"""Piecewise causal curves and the operations built on them.

Null length, rectifiable length against a distance oracle, the zigzag
(future/past) decomposition with its telescoping identity, the grid-backed
causality-encoding verdict, and metric-ball boundary sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
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


class SegmentSense(Enum):
    FUTURE = "future"
    PAST = "past"
    DEGENERATE = "degenerate"


@dataclass(frozen=True, eq=False)
class PiecewiseCausalCurve:
    """Vertex chain with a declared time sense per straight segment."""

    st: Spacetime
    vertices: np.ndarray  # (k+1, dim)
    senses: tuple

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("need at least two vertices")
        if len(self.senses) != v.shape[0] - 1:
            raise ValueError("need one sense per segment")
        bad = ~np.isfinite(v).all(axis=1) | (v.shape[1] != self.st.dim)
        if bad.any():  # as_point names what is wrong with the first bad vertex
            as_point(v[np.argmax(bad)], self.st.dim)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "senses", tuple(self.senses))

    @property
    def n_segments(self) -> int:
        return self.vertices.shape[0] - 1

    def validate(self, tol: float = NULL_TOL) -> None:
        """Check every segment against its midpoint metric, one metric
        evaluation for the whole curve.  InvalidSegment names the first
        failing segment; a non-finite midpoint metric raises NonFiniteValue."""
        v = self.vertices
        d = np.diff(v, axis=0)
        step = np.abs(d).max(axis=1)
        rows = [i for i, s in enumerate(self.senses)
                if s is not SegmentSense.DEGENERATE and step[i] > 0.0]
        mid = 0.5 * (v[:-1][rows] + v[1:][rows])
        cone = LightCone(self.st.metric_batch(mid), d[rows], mid, tol)
        causal = cone.causal
        runs_future = iter(cone.future(self.st.orientation_batch(mid[causal]), causal))
        k = 0  # row of segment i in cone
        for i, sense in enumerate(self.senses):
            if sense is SegmentSense.DEGENERATE:
                if step[i] > 1e-12 * max(1.0, np.abs(v[i]).max()):
                    raise InvalidSegment(f"segment {i} declared degenerate but moves")
                continue
            if step[i] == 0.0:
                raise InvalidSegment(f"segment {i} has coincident endpoints but sense {sense}")
            if not causal[k]:
                raise InvalidSegment(f"segment {i} is spacelike (g(d,d)={cone.q[k]:g})")
            want_future = sense is SegmentSense.FUTURE
            if next(runs_future) != want_future:
                raise InvalidSegment(f"segment {i} runs {'past' if want_future else 'future'} "
                                     f"but is declared {sense.value}")
            k += 1

    def reverse(self) -> "PiecewiseCausalCurve":
        flip = {SegmentSense.FUTURE: SegmentSense.PAST,
                SegmentSense.PAST: SegmentSense.FUTURE,
                SegmentSense.DEGENERATE: SegmentSense.DEGENERATE}
        return PiecewiseCausalCurve(self.st, self.vertices[::-1].copy(),
                                    tuple(flip[s] for s in reversed(self.senses)))


def curve_from_grid_path(grid: CausalGrid, path: Sequence[int]) -> PiecewiseCausalCurve:
    """Wrap ``path``, a chain of grid edges as shortest_null_path returns it,
    as a curve: tau rises along every edge, so a step is FUTURE where tau
    rises and PAST where it falls.  A step that keeps tau fixed is no edge
    and raises ValueError; validate() rejects a spacelike step of any other
    chain that is no path of edges."""
    path = np.asarray(path, dtype=int)
    rise = np.diff(grid.tau_values[path])
    if not np.all(rise != 0.0):
        i = int(np.argmin(rise != 0.0))
        raise ValueError(f"step {i} of the path, node {path[i]} -> {path[i + 1]}, keeps tau fixed")
    senses = np.where(rise > 0.0, SegmentSense.FUTURE, SegmentSense.PAST)
    return PiecewiseCausalCurve(grid.st, grid.coords[path], tuple(senses))


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------

def null_length(curve: PiecewiseCausalCurve, tau) -> float:
    """Sum of |dtau| over the segment breakpoints."""
    curve.validate()
    vals = tau.batch(curve.vertices)
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
    """(future_len, past_len) with future - past = dtau(end) - dtau(start)."""
    curve.validate()
    vals = tau.batch(curve.vertices)
    future = 0.0
    past = 0.0
    for i, sense in enumerate(curve.senses):
        gap = vals[i + 1] - vals[i]
        if sense is SegmentSense.FUTURE:
            future += gap
        elif sense is SegmentSense.PAST:
            past += -gap
    return future, past


def small_zags_check(curve: PiecewiseCausalCurve, dhat_pq: float, tau,
                     tol: float = 1e-9):
    """Past content of a near-minimizer is bounded by its excess length.

    For a curve from p to q with tau(q) >= tau(p), the telescoping identity
    gives past_len = (null_length - dtau)/2, so a curve within eps of the
    infimum has past_len < null_length - dhat(p,q) + tol.
    """
    future, past = zigzag_decompose(curve, tau)
    total = null_length(curve, tau)
    vals = tau.batch(curve.vertices)
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

    Every segment keeps its declared sense, so the null length is the
    linear form sum(sign_i * (tau(v_{i+1}) - tau(v_i))) and, by the
    telescoping identity, falls exactly when the past content does.  SLSQP
    minimizes it with the endpoints fixed, each segment strictly inside its
    cone at the midpoint (slack REFINE_CAUSAL_SLACK, so the result survives
    validate() after rounding), at least REFINE_CLEARANCE * h from every
    excision, and every vertex inside ``box``, which must pass box_bounds.
    Zigzags that the optimum does not need shrink to near-zero length;
    segments shorter than REFINE_MERGE * h are then merged into their
    successor.

    Returns ``(refined_curve, null_length)`` only for a certified result:
    the endpoints are those of ``curve``, validate() passes, every segment
    misses every excision (segment_distance > 0), every vertex lies in the
    domain, and the null length is strictly below ``ceiling``.  Returns
    None otherwise.  Degenerate input segments are dropped first.
    """
    from scipy.optimize import minimize

    st = curve.st
    lo, hi = box_bounds(box, st.dim)
    moving = [s is not SegmentSense.DEGENERATE for s in curve.senses]
    verts = curve.vertices[[True] + moving]
    senses = tuple(s for s, m in zip(curve.senses, moving) if m)
    if len(senses) < 2:
        return None
    sign = np.array([1.0 if s is SegmentSense.FUTURE else -1.0 for s in senses])
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
        s = cone.time_component(st.orientation_batch(mid), slice(None))
        slack = REFINE_CAUSAL_SLACK * np.einsum("mi,mi->m", d, d)
        return np.concatenate([-cone.q / cone.scale - slack, -sign * s / cone.scale])

    def clear(x):
        v = chain(x)
        return np.concatenate([exc.segment_distance(v[:-1], v[1:]) - REFINE_CLEARANCE * h
                               for exc in st.excisions])

    cons = [{"type": "ineq", "fun": in_cone}]
    if st.excisions:
        cons.append({"type": "ineq", "fun": clear})
    bounds = list(zip(lo.tolist(), hi.tolist())) * (len(senses) - 1)
    res = minimize(null_len, verts[1:-1].ravel(), method="SLSQP", bounds=bounds,
                   constraints=cons, options={"maxiter": 200, "ftol": 1e-10})

    refined = _merge_short_segments(st, chain(res.x), senses, REFINE_MERGE * h)
    v = refined.vertices
    try:
        refined.validate()
    except InvalidSegment:
        return None
    if not all(np.all(exc.segment_distance(v[:-1], v[1:]) > 0.0) for exc in st.excisions):
        return None
    if not np.all(st.domain_batch(v)):
        return None
    length = null_length(refined, tau)
    if not length < ceiling:
        return None
    return refined, length


def _merge_short_segments(st: Spacetime, v: np.ndarray, senses: tuple,
                          min_len: float) -> PiecewiseCausalCurve:
    """Drop each vertex reached by a segment shorter than ``min_len`` so the
    next segment, with its own sense, absorbs the short one; a short final
    segment moves its start onto the fixed endpoint instead."""
    keep_v = [v[0]]
    keep_s = []
    for i, sense in enumerate(senses):
        if np.abs(v[i + 1] - keep_v[-1]).max() >= min_len:
            keep_v.append(v[i + 1])
            keep_s.append(sense)
        elif i == len(senses) - 1 and keep_s:
            keep_v[-1] = v[-1]
    if not keep_s:
        return PiecewiseCausalCurve(st, v, senses)
    return PiecewiseCausalCurve(st, np.array(keep_v), tuple(keep_s))


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
    ``reachable``: the lattice witness is directed, all segments of one sense."""

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
    return NullDistanceResult(estimate=est, lower_bound=lower, witness=witness,
                              encodes_equality=(est - lower) <= default_tol_eq(grid),
                              lattice_estimate=est, reachable=len(set(witness.senses)) == 1)


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
