"""Time functions: evaluation, numeric cosmological time, anti-Lipschitz checks.

A TimeFunction is a scalar field, given by one batch evaluator, with
declared claims (anti-Lipschitz, proper, cosmological).
Claims are declarations, not inferences: properness in particular cannot be
decided from samples, so it is carried as metadata and only heuristically
spot-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .errors import NoCausalPairs
from .grid import CausalGrid, box_bounds, reach
from .spacetime import Spacetime, as_point

INTEGRAL_ROWS = 16384  # metric evaluations per chunk of the boundary length integral


@dataclass(frozen=True)
class TimeClaims:
    anti_lipschitz: bool = False
    proper: bool = False
    cosmological: bool = False


@dataclass(frozen=True, eq=False)
class TimeFunction:
    """Batch evaluator with claim flags.

    ``batch`` maps an (m, dim) coordinate array to the m values of tau and is
    the only evaluator: ``tau(p)`` is the batch of one, so scalar and batch
    values agree bit for bit.  ``tau(p)`` raises as_point's ValueError unless p
    is a finite 1-d vector, of any length: tau does not know its dimension.
    """

    batch: Callable[[np.ndarray], np.ndarray]
    claims: TimeClaims
    name: str = "tau"

    def __call__(self, coords) -> float:
        c = np.asarray(coords, dtype=float)
        return float(self.batch(as_point(c, c.size)[None, :])[0])


def _t_claims(spec: dict) -> TimeClaims:
    """The claims of tau = t on a built-in, given as its params plus its
    name (the shape of a conformal spacetime's ``params["base"]``).

    t is cosmological exactly where ``cosmological_time_analytic`` is t, and
    proper only on upper-half-type domains (the missing-ray level sets are
    noncompact near the ray).  A conformal spacetime keeps its base's claims,
    its cosmological time scaled by the factor; other names claim nothing.
    """
    name = spec.get("name")
    if name == "conformal":
        base = _t_claims(spec.get("base", {}))
        return replace(base, cosmological=base.cosmological and spec.get("factor") == 1.0)
    if name == "warped_product":
        return TimeClaims(True, True, spec.get("slope") == 1.0 and spec.get("offset") == 0.0)
    return TimeClaims(*{
        "minkowski": (True, False, False),
        "upper_half_minkowski": (True, True, True),
        "missing_ray": (True, False, True),
    }.get(name, ()))


def coordinate_time(st: Spacetime) -> TimeFunction:
    """tau(p) = coordinate 0 of p, with the claims of tau = t on ``st``."""
    return TimeFunction(
        batch=lambda pts: pts[:, 0].copy(),
        claims=_t_claims(st.params | {"name": st.name}), name="t",
    )


def cubed_time(st: Spacetime) -> TimeFunction:
    """tau(p) = t^3; strictly increasing but not anti-Lipschitz across t=0."""
    return TimeFunction(batch=lambda pts: pts[:, 0] ** 3, claims=TimeClaims(), name="t^3")


def affine_time(st: Spacetime, scale: float = 1.0, offset: float = 0.0) -> TimeFunction:
    """tau(p) = scale*t + offset: the claims of tau = t on ``st``,
    cosmological only when tau is t itself.  Raises ValueError unless scale
    is finite and positive and offset is finite."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset!r}")
    claims = _t_claims(st.params | {"name": st.name})
    return TimeFunction(
        batch=lambda pts: scale * pts[:, 0] + offset,
        claims=replace(claims, cosmological=claims.cosmological and scale == 1.0 and offset == 0.0),
        name=f"{scale:g}*t+{offset:g}",
    )


# ---------------------------------------------------------------------------
# numeric cosmological time
# ---------------------------------------------------------------------------

def _boundary_base(grid: CausalGrid, node_coords: np.ndarray) -> np.ndarray:
    """Lorentzian length from the past domain boundary to each of the (n, dim)
    source nodes.

    Bisects the domain predicate down the orientation line below every node
    at once; where the domain never ends within a generous horizon the box
    face acts as the clamp.  The length integral uses a fixed-step midpoint
    rule, in chunks of at most INTEGRAL_ROWS metric evaluations.
    """
    st = grid.st
    lo_t = grid.params.lo()[0]
    extent_t = grid.params.hi()[0] - lo_t
    t_node = node_coords[:, 0]
    t_low = lo_t - 2.0 * max(extent_t, grid.h)

    pts = node_coords.copy()
    pts[:, 0] = t_low
    unbounded = st.domain_batch(pts)  # unbounded past within the horizon
    a = np.full(t_node.shape, t_low)
    b = t_node.copy()
    for _ in range(80):
        m = 0.5 * (a + b)
        pts[:, 0] = m
        inside = st.domain_batch(pts)
        b = np.where(inside, m, b)
        a = np.where(inside, a, m)
    t_bound = np.where(unbounded, lo_t, b)

    base = np.zeros(t_node.shape)
    nstep = 64
    live = np.flatnonzero(t_bound < t_node)
    chunk = INTEGRAL_ROWS // nstep
    for start in range(0, live.size, chunk):
        rows = live[start:start + chunk]
        ts = np.linspace(t_bound[rows], t_node[rows], nstep + 1, axis=1)
        pts = np.repeat(node_coords[rows, None, :], nstep, axis=1)
        pts[:, :, 0] = 0.5 * (ts[:, :-1] + ts[:, 1:])
        g = st.metric_batch(pts.reshape(-1, st.dim))
        speed = np.sqrt(np.abs(g[:, 0, 0])).reshape(rows.size, nstep)
        base[rows] = np.sum(speed, axis=1) * (t_node[rows] - t_bound[rows]) / nstep
    return base


def cosmological_time_numeric(grid: CausalGrid) -> np.ndarray:
    """Longest Lorentzian path to each node over the directed lattice.

    Source nodes (no incoming edge) are seeded with the exact length of the
    vertical segment down to the past domain boundary, which removes the
    O(h) deficit of a bare lattice supremum.  Raises CyclicGraph if an edge
    fails to advance coordinate 0.
    """
    layers = grid.time_layers()
    base = np.full(grid.n_nodes, -np.inf)
    sources = np.flatnonzero(grid.in_degrees() == 0)
    base[sources] = _boundary_base(grid, grid.coords[sources])
    indptr, nbr = grid.csr_out()
    return _kernels.longest_path_values(layers, indptr, nbr, grid.edge_len, base)


# ---------------------------------------------------------------------------
# anti-Lipschitz and regularity reports
# ---------------------------------------------------------------------------

@dataclass
class AntiLipschitzReport:
    region: tuple
    lambda_best: float
    violations: list
    pairs_tested: int
    worst_pair: Optional[tuple] = None


def check_anti_lipschitz(grid: CausalGrid, region, n_sources: int = 64,
                         seed: int = 0) -> AntiLipschitzReport:
    """Best constant lambda with tau(q) - tau(q') >= lambda * |q - q'| over
    directed pairs inside ``region``, one (lo, hi) pair per axis.

    d_U is the coordinate Euclidean distance; the condition only pins lambda
    up to rescaling, so the report carries the best constant rather than a
    boolean.  Every reachable pair from each sampled source is scored, which
    guarantees the extremal (null-chain) pairs are seen.  Raises ValueError
    unless ``region`` passes box_bounds.
    """
    lo, hi = box_bounds(region, grid.st.dim)
    region = tuple(zip(lo.tolist(), hi.tolist()))
    inside = np.all((grid.coords >= lo - 1e-12) & (grid.coords <= hi + 1e-12), axis=1)
    candidates = np.flatnonzero(inside)
    if candidates.size == 0:
        raise NoCausalPairs("region contains no grid nodes")
    rng = np.random.default_rng(seed)
    n_pick = min(n_sources, candidates.size)
    sources = candidates[rng.permutation(candidates.size)[:n_pick]]
    tau_vals = grid.tau_values

    best = math.inf
    worst_pair = None
    pairs = 0
    violations = []
    for s in sources:
        members = reach(grid, int(s)).members & inside
        members[s] = False
        idx = np.flatnonzero(members)
        if idx.size == 0:
            continue
        gaps = tau_vals[idx] - tau_vals[s]
        dists = np.linalg.norm(grid.coords[idx] - grid.coords[s], axis=1)
        ratios = gaps / dists
        pairs += idx.size
        k = int(np.argmin(ratios))
        if ratios[k] < best:
            best = float(ratios[k])
            worst_pair = (grid.coords[s].tolist(), grid.coords[idx[k]].tolist(),
                          float(gaps[k]), float(dists[k]))
        bad = np.flatnonzero(ratios <= 1e-12)
        for b in bad[:16]:
            violations.append((grid.coords[s].tolist(), grid.coords[idx[b]].tolist(),
                               float(gaps[b]), float(dists[b])))
    if pairs == 0:
        raise NoCausalPairs("no directed pairs inside the region at this spacing")
    return AntiLipschitzReport(
        region=region, lambda_best=max(0.0, best),
        violations=violations, pairs_tested=pairs, worst_pair=worst_pair,
    )


@dataclass
class RegularityReport:
    ok: bool
    eps_reg: float
    worst_source_tau: float
    n_sources: int


def check_regularity(grid: CausalGrid) -> RegularityReport:
    """Numeric surrogate for regularity of the grid's time function: tau
    close to 0 at the final node of every maximal past-directed chain.

    Sources of the directed grid (no incoming edge) are exactly those final
    nodes; each must satisfy |tau| <= eps_reg = 2h * max stencil Euclidean
    length, so a box reaching the past domain boundary passes while shifted
    or unbounded time functions fail.
    """
    tau_vals = grid.tau_values
    offs = grid.offsets_used
    max_len = float(np.sqrt((offs.astype(float) ** 2).sum(axis=1).max())) if offs.size else 1.0
    eps_reg = 2.0 * grid.h * max_len
    sources = np.flatnonzero(grid.in_degrees() == 0)
    worst = float(np.abs(tau_vals[sources]).max()) if sources.size else 0.0
    return RegularityReport(ok=worst <= eps_reg, eps_reg=eps_reg, worst_source_tau=worst,
                            n_sources=int(sources.size))
