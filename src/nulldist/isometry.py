"""Rigidity checks: distance/time-preserving maps, conformal factors, and
the coarea volume comparison that forces a conformal factor to be 1.

A map preserving the null distance and the time function between two
spacetimes carrying *cosmological* time functions must be an isometry; with
a non-cosmological time the identity between g and phi^2 g slips through
(the conformal trap), which the volume comparison detects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import MapLeavesGrid, NodeNotInGrid, NonPositivePhi, SingularJacobian
from .grid import CausalGrid, box_bounds, null_distances_from
from .spacetime import NULL_TOL, LightCone, Spacetime, central_probes


class RigidityVerdict(Enum):
    ISOMETRY = "Isometry"
    CONFORMAL_NOT_ISOMETRIC = "ConformalNotIsometric"
    NOT_CONFORMAL = "NotConformal"


@dataclass(frozen=True, eq=False)
class PointMap:
    """Coordinate map between spacetimes; closed-form or a node table.

    ``forward`` maps an (m, dim) array of points to their m images, row by
    row; calling the map on one point evaluates the batch of one.  A call
    raises ValueError unless the images have the points' shape.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    closed_form: bool = True

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        c = np.asarray(coords, dtype=float)
        pts = c[None, :] if c.ndim == 1 else c
        images = np.asarray(self.forward(pts), dtype=float)
        if pts.ndim != 2 or images.shape != pts.shape:
            raise ValueError(f"map images have shape {images.shape}, "
                             f"their points {pts.shape}")
        return images.reshape(c.shape)


def identity_map() -> PointMap:
    return PointMap(forward=lambda c: c)


def translation_map(shift) -> PointMap:
    shift = np.asarray(shift, dtype=float)
    return PointMap(forward=lambda c: c + shift)


def dilation_map(scale: float) -> PointMap:
    return PointMap(forward=lambda c: scale * c)


def rotation_map(axis_i: int, axis_j: int, theta: float) -> PointMap:
    """Rotation by ``theta`` in the plane of two different, non-negative axes."""
    if axis_i < 0 or axis_j < 0 or axis_i == axis_j:
        raise ValueError(f"rotation axes must be two different non-negative integers, "
                         f"got {axis_i} and {axis_j}")

    def fwd(c):
        out = c.copy()
        # copies: the columns of ``out`` are views, and both are written
        ci, cj = out[:, axis_i].copy(), out[:, axis_j].copy()
        out[:, axis_i] = math.cos(theta) * ci - math.sin(theta) * cj
        out[:, axis_j] = math.sin(theta) * ci + math.cos(theta) * cj
        return out

    return PointMap(forward=fwd)


def table_map(src_coords: np.ndarray, dst_coords: np.ndarray) -> PointMap:
    """Bijection given by matched coordinate rows (snapped on lookup).

    Points are looked up one at a time: a nearest-row search of the whole
    batch at once would hold an (m, N) distance array."""
    src = np.asarray(src_coords, dtype=float)
    dst = np.asarray(dst_coords, dtype=float)

    def fwd(pts):
        out = np.empty_like(pts)
        for r, c in enumerate(pts):
            d = np.abs(src - c).max(axis=1)
            k = int(np.argmin(d))
            if d[k] > 1e-9 * max(1.0, float(np.abs(c).max())):
                raise MapLeavesGrid(f"{c.tolist()} is not a row of the map table")
            out[r] = dst[k]
        return out

    return PointMap(forward=fwd, closed_form=False)


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

@dataclass
class PreservationReport:
    max_dhat_dev: float
    max_tau_dev: float
    pairs_tested: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dhat_dev <= self.tol and self.max_tau_dev <= self.tol


def check_preserving(pmap: PointMap, grid1: CausalGrid, grid2: CausalGrid,
                     n_pairs: int = 100, tol: float = 1e-9,
                     seed: int = 0) -> PreservationReport:
    """Deviation of d-hat and tau under the map over sampled node pairs."""
    rng = np.random.default_rng(seed)
    n_sources = max(1, int(math.ceil(n_pairs / 16)))
    sources = rng.integers(0, grid1.n_nodes, size=n_sources)
    max_d = 0.0
    max_t = 0.0
    pairs = 0
    for s in sources:
        img_s = _map_node(pmap, grid1, grid2, int(s))
        d1 = null_distances_from(grid1, int(s))
        d2 = null_distances_from(grid2, img_s)
        max_t = max(max_t, abs(float(grid1.tau_values[s])
                               - float(grid2.tau_values[img_s])))
        targets = rng.integers(0, grid1.n_nodes, size=16)
        for t in targets:
            img_t = _map_node(pmap, grid1, grid2, int(t))
            if not (np.isfinite(d1[t]) and np.isfinite(d2[img_t])):
                continue
            max_d = max(max_d, abs(float(d1[t]) - float(d2[img_t])))
            pairs += 1
            if pairs >= n_pairs:
                break
        if pairs >= n_pairs:
            break
    return PreservationReport(max_dhat_dev=max_d, max_tau_dev=max_t,
                              pairs_tested=pairs, tol=tol)


def _map_node(pmap: PointMap, grid1: CausalGrid, grid2: CausalGrid, node: int) -> int:
    img = pmap(grid1.coords[node])
    try:
        return grid2.node_of(img)
    except NodeNotInGrid as exc:
        raise MapLeavesGrid(str(exc)) from exc


# ---------------------------------------------------------------------------
# conformal factor estimation
# ---------------------------------------------------------------------------

def _fd_jacobians(pmap: PointMap, P: np.ndarray, step: float):
    """Central-difference Jacobians (m, dim, dim) of the map at the rows of P
    and the images (m, dim) of those rows, from one map call."""
    m, dim = P.shape
    # p, then p +- step e_a
    pts = np.concatenate([P[:, None], central_probes(P, np.full(m, step))], axis=1)
    img = pmap(pts.reshape(-1, dim)).reshape(pts.shape)
    J = np.swapaxes(img[:, 1::2] - img[:, 2::2], 1, 2) / (2 * step)
    singular = np.flatnonzero(np.abs(np.linalg.det(J)) < 1e-12)
    if singular.size:
        raise SingularJacobian(f"map Jacobian singular at {P[singular[0]].tolist()}")
    return J, img[:, 0]


def conformal_factors(pmap: PointMap, st1: Spacetime, st2: Spacetime, P):
    """Estimate phi with F* g2 = phi^2 g1 at each row of P (m, dim); raises
    nothing on failure but reports dispersion so the caller can flag
    NotConformal.

    Test vectors are the coordinate-time axis and the null combinations
    d0 +- di; ratios are taken where g1(v,v) is away from zero and null
    vectors instead check that the pullback keeps them null.

    Returns (phi, dispersion), two (m,) arrays, with dispersion the relative
    spread across the causal test set; a point without ratios or with one
    that is not positive gets (nan, inf).  Raises SingularJacobian naming the
    first point where the map's Jacobian is singular.
    """
    P = np.asarray(P, dtype=float)
    m, dim = P.shape
    J, img = _fd_jacobians(pmap, P, 1e-6)
    M = np.swapaxes(J, 1, 2) @ st2.metric_batch(img) @ J  # pullback of g2
    e = np.eye(dim)
    V = np.array([e[0]] + [e[0] + s * e[i] for i in range(1, dim) for s in (1.0, -1.0)])
    nv = V.shape[0]
    at_p = np.repeat(P, nv, axis=0)
    cone = LightCone(st1.metric_batch(at_p), np.tile(V, (m, 1)), at_p, NULL_TOL)
    q1, null = cone.q.reshape(m, nv), cone.null.reshape(m, nv)
    # (1,dim) @ (dim,dim) @ (dim,1) per row: the products one vector v @ M @ v takes
    q2 = (V[:, None, :] @ M[:, None] @ V[:, :, None])[..., 0, 0]
    ratio = np.where(null, 0.0, q2 / np.where(null, 1.0, q1))
    null_defect = np.fmax.reduce(
        np.where(null, np.abs(q2) / (cone.scale.reshape(m, nv) * np.einsum("vi,vi->v", V, V)),
                 0.0), axis=1)
    n_ratios = nv - null.sum(axis=1)
    valid = (n_ratios > 0) & ~np.any(~null & (ratio <= 0), axis=1)
    # each point's mean over its own ratios, in vector order: one numpy mean
    # per ratio count, as numpy sums a row by a method that depends on its length
    ratio_first = np.take_along_axis(ratio, np.argsort(null, axis=1, kind="stable"), axis=1)
    phi2 = np.full(m, np.nan)
    for k in np.unique(n_ratios[valid]):
        rows = valid & (n_ratios == k)
        phi2[rows] = ratio_first[rows, :k].mean(axis=1)
    dev = np.where(null, 0.0, np.abs(ratio - phi2[:, None])).max(axis=1)
    spread = np.where(phi2 > 0, dev / phi2, np.inf)
    defect = null_defect / phi2
    dispersion = np.where(defect > spread, defect, spread)
    return np.sqrt(phi2), np.where(valid, dispersion, np.inf)


# ---------------------------------------------------------------------------
# coarea volume comparison
# ---------------------------------------------------------------------------

@dataclass
class CoareaResult:
    vol_n: float
    vol_nm1: float
    verdict: RigidityVerdict
    phi_min: float
    phi_max: float
    n_cells: int


def coarea_volume_compare(st1: Spacetime, phi, region, h: float,
                          tol: float = 1e-3) -> CoareaResult:
    """Midpoint sums of phi^n and phi^{n-1} against the volume element of g1.

    ``phi`` maps an (m, dim) array of cell centres to their m factors, or to
    one factor for all.
    Equality of the two integrals together with pointwise phi ~ 1 is the
    numeric shadow of the rigidity argument: phi^{n-1}(phi - 1) integrates
    to their difference and is sign-definite when phi - 1 is.  Raises
    ValueError unless ``region`` holds one finite lo <= hi pair per axis of
    ``st1`` and h is finite and positive.
    """
    dim = st1.dim
    lo, hi = box_bounds(region, dim)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h!r}")
    n = dim - 1
    counts = np.maximum(1, np.rint((hi - lo) / h)).astype(int)
    axes = [lo[a] + (np.arange(counts[a]) + 0.5) * (hi[a] - lo[a]) / counts[a]
            for a in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    cell_vol = float(np.prod((hi - lo) / counts))
    phi_vals = np.asarray(phi(centers), dtype=float)
    if phi_vals.shape == ():
        phi_vals = np.full(centers.shape[0], float(phi_vals))
    if np.any(phi_vals <= 0):
        raise NonPositivePhi("phi must be strictly positive on the region")
    g = st1.metric_batch(centers)
    dens = np.sqrt(np.abs(np.linalg.det(g)))
    vol_n = float(np.sum(phi_vals ** n * dens) * cell_vol)
    vol_nm1 = float(np.sum(phi_vals ** (n - 1) * dens) * cell_vol)
    equal = abs(vol_n - vol_nm1) <= tol * max(vol_nm1, 1e-300)
    phi_near_one = bool(np.all(np.abs(phi_vals - 1.0) <= tol))
    if equal and phi_near_one:
        verdict = RigidityVerdict.ISOMETRY
    elif equal:
        # integrals agree but phi strays from 1: sign-indefinite factor
        verdict = RigidityVerdict.NOT_CONFORMAL
    else:
        verdict = RigidityVerdict.CONFORMAL_NOT_ISOMETRIC
    return CoareaResult(vol_n=vol_n, vol_nm1=vol_nm1, verdict=verdict,
                        phi_min=float(phi_vals.min()), phi_max=float(phi_vals.max()),
                        n_cells=int(centers.shape[0]))


@dataclass
class ConformalReport:
    phi_samples: list
    vol_n: float
    vol_nm1: float
    verdict: RigidityVerdict
    dimension_ok: bool = True
    note: str = ""


def assess_conformal(pmap: PointMap, st1: Spacetime, st2: Spacetime,
                     region, h: float, n_samples: int = 8, seed: int = 0,
                     tol: float = 1e-3) -> ConformalReport:
    """Sampled conformal factor plus the coarea comparison, as one report.

    Spacetimes of dimension 1+1 are accepted but flagged: the rigidity
    statement's hypotheses require n >= 2 and no counterexample either way is
    known below that.
    """
    lo, hi = box_bounds(region, st1.dim)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h!r}")
    rng = np.random.default_rng(seed)
    pts = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=(n_samples, st1.dim))
    phis, disp = conformal_factors(pmap, st1, st2, pts)
    samples = [(p.tolist(), float(phi_p)) for p, phi_p in zip(pts, phis)]
    worst_disp = float(np.fmax.reduce(disp, initial=0.0))  # a NaN never wins, as in max()
    dimension_ok = st1.dim - 1 >= 2
    if worst_disp > 0.02 or not np.all(np.isfinite(phis)):
        return ConformalReport(phi_samples=samples, vol_n=float("nan"),
                               vol_nm1=float("nan"),
                               verdict=RigidityVerdict.NOT_CONFORMAL,
                               dimension_ok=dimension_ok,
                               note=f"pullback dispersion {worst_disp:.3g}")
    res = coarea_volume_compare(st1, lambda c: conformal_factors(pmap, st1, st2, c)[0],
                                region, h, tol=tol)
    note = ""
    if not dimension_ok:
        note = "spatial dimension below 2: rigidity is not established there"
    return ConformalReport(phi_samples=samples, vol_n=res.vol_n, vol_nm1=res.vol_nm1,
                           verdict=res.verdict, dimension_ok=dimension_ok, note=note)
