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
from .grid import CausalGrid, null_distances_from
from .spacetime import NULL_TOL, LightCone, Spacetime


class RigidityVerdict(Enum):
    ISOMETRY = "Isometry"
    CONFORMAL_NOT_ISOMETRIC = "ConformalNotIsometric"
    NOT_CONFORMAL = "NotConformal"


@dataclass(frozen=True, eq=False)
class PointMap:
    """Coordinate map between spacetimes; closed-form or a node table."""

    forward: Callable[[np.ndarray], np.ndarray]
    closed_form: bool = True

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(self.forward(np.asarray(coords, dtype=float)), dtype=float)


def identity_map() -> PointMap:
    return PointMap(forward=lambda c: c)


def translation_map(shift) -> PointMap:
    shift = np.asarray(shift, dtype=float)
    return PointMap(forward=lambda c: c + shift)


def dilation_map(scale: float) -> PointMap:
    return PointMap(forward=lambda c: scale * c)


def rotation_map(axis_i: int, axis_j: int, theta: float) -> PointMap:
    def fwd(c):
        out = np.asarray(c, dtype=float).copy()
        ci, cj = out[axis_i], out[axis_j]
        out[axis_i] = math.cos(theta) * ci - math.sin(theta) * cj
        out[axis_j] = math.sin(theta) * ci + math.cos(theta) * cj
        return out

    return PointMap(forward=fwd)


def table_map(src_coords: np.ndarray, dst_coords: np.ndarray) -> PointMap:
    """Bijection given by matched coordinate rows (snapped on lookup)."""
    src = np.asarray(src_coords, dtype=float)
    dst = np.asarray(dst_coords, dtype=float)

    def fwd(c):
        d = np.abs(src - c).max(axis=1)
        k = int(np.argmin(d))
        if d[k] > 1e-9 * max(1.0, float(np.abs(c).max())):
            raise MapLeavesGrid(f"{c.tolist()} is not a row of the map table")
        return dst[k]

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
                     tau1, tau2, n_pairs: int = 100, tol: float = 1e-9,
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

def _fd_jacobian(pmap: PointMap, p: np.ndarray, step: float) -> np.ndarray:
    dim = p.shape[0]
    J = np.empty((dim, dim))
    for a in range(dim):
        pp, pm = p.copy(), p.copy()
        pp[a] += step
        pm[a] -= step
        J[:, a] = (pmap(pp) - pmap(pm)) / (2 * step)
    if abs(np.linalg.det(J)) < 1e-12:
        raise SingularJacobian(f"map Jacobian singular at {p.tolist()}")
    return J


def conformal_factor(pmap: PointMap, st1: Spacetime, st2: Spacetime, p):
    """Estimate phi with F* g2 = phi^2 g1 at p; raises nothing on failure but
    reports dispersion so the caller can flag NotConformal.

    Test vectors are the coordinate-time axis and the null combinations
    d0 +- di; ratios are taken where g1(v,v) is away from zero and null
    vectors instead check that the pullback keeps them null.

    Returns (phi, dispersion) with dispersion the relative spread across the
    causal test set.
    """
    p = np.asarray(p, dtype=float)
    J = _fd_jacobian(pmap, p, 1e-6)
    g2 = st2.metric_at(pmap(p))
    M = J.T @ g2 @ J  # pullback of g2
    dim = st1.dim
    vectors = [np.eye(dim)[0]]
    for i in range(1, dim):
        vectors.append(np.eye(dim)[0] + np.eye(dim)[i])
        vectors.append(np.eye(dim)[0] - np.eye(dim)[i])
    at_p = np.tile(p, (len(vectors), 1))
    cone = LightCone(st1.metric_batch(at_p), np.array(vectors), at_p, NULL_TOL)
    ratios = []
    null_defect = 0.0
    for v, q1, null, scale1 in zip(vectors, cone.q, cone.null, cone.scale):
        q2 = float(v @ M @ v)
        if not null:
            ratios.append(q2 / q1)
        else:
            null_defect = max(null_defect, abs(q2) / (scale1 * float(v @ v)))
    ratios = np.array(ratios)
    if ratios.size == 0 or np.any(ratios <= 0):
        return float("nan"), float("inf")
    phi2 = float(ratios.mean())
    spread = float(np.abs(ratios - phi2).max() / phi2) if phi2 > 0 else float("inf")
    dispersion = max(spread, null_defect / phi2)
    return math.sqrt(phi2), dispersion


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


def coarea_volume_compare(st1: Spacetime, phi, tau1, region, h: float,
                          tol: float = 1e-3) -> CoareaResult:
    """Midpoint sums of phi^n and phi^{n-1} against the volume element of g1.

    Equality of the two integrals together with pointwise phi ~ 1 is the
    numeric shadow of the rigidity argument: phi^{n-1}(phi - 1) integrates
    to their difference and is sign-definite when phi - 1 is.
    """
    region = tuple((float(a), float(b)) for a, b in region)
    lo = np.array([r[0] for r in region])
    hi = np.array([r[1] for r in region])
    dim = st1.dim
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


def assess_conformal(pmap: PointMap, st1: Spacetime, st2: Spacetime, tau1,
                     region, h: float, n_samples: int = 8, seed: int = 0,
                     tol: float = 1e-3) -> ConformalReport:
    """Sampled conformal factor plus the coarea comparison, as one report.

    Spacetimes of dimension 1+1 are accepted but flagged: the rigidity
    statement's hypotheses require n >= 2 and no counterexample either way is
    known below that.
    """
    rng = np.random.default_rng(seed)
    lo = np.array([r[0] for r in region], dtype=float)
    hi = np.array([r[1] for r in region], dtype=float)
    pts = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=(n_samples, st1.dim))
    samples = []
    worst_disp = 0.0
    for p in pts:
        phi_p, disp = conformal_factor(pmap, st1, st2, p)
        samples.append((p.tolist(), phi_p))
        worst_disp = max(worst_disp, disp)
    if worst_disp > 0.02 or any(not np.isfinite(s[1]) for s in samples):
        return ConformalReport(phi_samples=samples, vol_n=float("nan"),
                               vol_nm1=float("nan"),
                               verdict=RigidityVerdict.NOT_CONFORMAL,
                               dimension_ok=st1.dim - 1 >= 2,
                               note=f"pullback dispersion {worst_disp:.3g}")
    phi_grid = _phi_field(pmap, st1, st2)
    res = coarea_volume_compare(st1, phi_grid, tau1, region, h, tol=tol)
    note = ""
    dimension_ok = st1.dim - 1 >= 2
    if not dimension_ok:
        note = "spatial dimension below 2: rigidity is not established there"
    return ConformalReport(phi_samples=samples, vol_n=res.vol_n, vol_nm1=res.vol_nm1,
                           verdict=res.verdict, dimension_ok=dimension_ok, note=note)


def _phi_field(pmap: PointMap, st1: Spacetime, st2: Spacetime):
    def phi(pts):
        out = np.empty(pts.shape[0])
        for i, p in enumerate(pts):
            out[i], _ = conformal_factor(pmap, st1, st2, p)
        return out

    return phi
