"""Analytic spacetimes: metric evaluation, causal classification, built-in examples.

Conventions (fixed once for the whole package):

* metric signature is (-, +, ..., +) and the speed of light is 1;
* a vector v is *causal* iff g(v, v) <= tol * max|g| * |v|^2 and *null* iff
  |g(v, v)| is within that band (tol = NULL_TOL unless a caller passes its
  own), timelike iff g(v, v) is below it; LightCone is the one place that
  decides this;
* coordinate 0 is the time coordinate of every built-in chart and the
  future orientation field is the coordinate vector d/dx0, which LightCone
  reads itself (time_component, future).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteValue, NonPositiveConformalFactor, UnknownName

NULL_TOL = 1e-9  # relative tolerance for the null classification band


# ---------------------------------------------------------------------------
# basic value types
# ---------------------------------------------------------------------------

def as_point(p, dim: int) -> np.ndarray:
    """``p`` as a float array, checked to be a finite point (or vector) of a
    ``dim``-dimensional spacetime; raises ValueError otherwise."""
    c = np.asarray(p, dtype=float)
    if c.ndim != 1 or not np.isfinite(c).all():
        raise ValueError("event coordinates must be a finite 1-d vector")
    if c.shape[0] != dim:
        raise ValueError(f"event dimension {c.shape[0]} != spacetime dimension {dim}")
    return c


def central_probes(P: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The (m, 2*dim, dim) central-difference probes around the rows of P:
    p + h[r] e_a at index 2a and p - h[r] e_a at index 2a + 1, for row r."""
    probes = np.repeat(P[:, None], 2 * P.shape[1], axis=1)
    diag = np.arange(P.shape[1])
    probes[:, 2 * diag, diag] += h[:, None]
    probes[:, 2 * diag + 1, diag] -= h[:, None]
    return probes


@dataclass(frozen=True, eq=False)
class MetricForm:
    """Symmetric bilinear form: Lorentzian (-, +, ..., +) for spacetime
    metrics (see signature_ok), positive-definite for derived Riemannian
    ones."""

    entries: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.entries, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("metric entries must be square")
        scale = max(1.0, float(np.abs(g).max()))
        if np.abs(g - g.T).max() > 1e-12 * scale:
            raise ValueError("metric entries must be symmetric within 1e-12")
        object.__setattr__(self, "entries", g)

    def signature_ok(self) -> bool:
        ev = np.linalg.eigvalsh(self.entries)
        return ev[0] < 0 and np.all(ev[1:] > 0)


class TimeSense(Enum):
    FUTURE = "future"
    PAST = "past"


def require_finite(what: str, values: np.ndarray, points: np.ndarray) -> None:
    """NonFiniteValue naming the first of ``points`` whose value is NaN or inf."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise NonFiniteValue(f"{what} is not finite at {points[bad][0].tolist()}")


class LightCone:
    """The cone test of m displacements ``d`` (m, dim), or of one (1, dim)
    displacement at every row, against the metrics ``g`` (m, dim, dim) at
    their base ``points`` (m, dim).

    ``q`` = g(d, d) and ``band`` = tol * max|g| * |d|^2, row by row: d is
    causal iff q <= band and null iff |q| <= band, so the test is exactly
    conformally invariant.  A non-finite q or metric scale raises
    NonFiniteValue.
    """

    def __init__(self, g: np.ndarray, d: np.ndarray, points: np.ndarray, tol: float):
        self.g = g
        self.d = np.broadcast_to(d, g.shape[:2])
        self.q = np.einsum("mij,mi,mj->m", g, self.d, self.d)
        self.scale = np.abs(g).max(axis=(1, 2))
        require_finite("metric", self.q, points)
        require_finite("metric", self.scale, points)
        self.band = tol * self.scale * np.einsum("mi,mi->m", d, d)

    @property
    def causal(self) -> np.ndarray:
        return self.q <= self.band

    @property
    def null(self) -> np.ndarray:
        return np.abs(self.q) <= self.band

    def time_component(self, rows) -> np.ndarray:
        """g(d/dx0, d) on ``rows`` (a mask, indices or a slice): negative where
        d points to the future, positive where it points to the past."""
        d = self.d[rows]
        T = np.zeros(d.shape)
        T[:, 0] = 1.0
        return np.einsum("mij,mi,mj->m", self.g[rows], T, d)

    def future(self, rows) -> np.ndarray:
        """Whether each selected d points to the future (time_component < 0)."""
        return self.time_component(rows) < 0


# ---------------------------------------------------------------------------
# excision primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HalfLine:
    """The ray {origin + s * direction : s >= 0}, removed from the domain."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        d = d / np.linalg.norm(d)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Exact membership test for an (m, d) batch of points."""
        rel = pts - self.origin
        s = rel @ self.direction
        perp = rel - np.outer(s, self.direction)
        return (s >= 0.0) & np.all(perp == 0.0, axis=1)

    def distance(self, pts: np.ndarray) -> np.ndarray:
        rel = pts - self.origin
        s = np.maximum(rel @ self.direction, 0.0)
        foot = self.origin + s[:, None] * self.direction
        return np.linalg.norm(pts - foot, axis=1)

    def segment_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Minimum distance from segments a->b (row-wise) to the ray.

        Minimizes the convex quadratic |a + s(b-a) - origin - u*dir|^2 over
        s in [0,1], u >= 0 by checking the interior critical point and every
        boundary edge of the feasible set.
        """
        ab = b - a
        ao = a - self.origin
        d = self.direction
        aa = np.einsum("ij,ij->i", ab, ab)
        ad = ab @ d
        # interior stationary point of the 2x2 system
        det = aa - ad * ad
        rhs1 = -np.einsum("ij,ij->i", ao, ab)
        rhs2 = ao @ d
        safe = det > 1e-14 * np.maximum(aa, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_int = np.where(safe, (rhs1 + ad * rhs2) / np.where(safe, det, 1.0), -1.0)
            u_int = rhs2 + ad * np.where(safe, s_int, 0.0)

        best = np.minimum(self.distance(a), self.distance(b))
        # u = 0 edge: distance from segment to the ray origin
        with np.errstate(divide="ignore", invalid="ignore"):
            s0 = np.clip(np.where(aa > 0, rhs1 / np.where(aa > 0, aa, 1.0), 0.0), 0.0, 1.0)
        p0 = a + s0[:, None] * ab
        best = np.minimum(best, np.linalg.norm(p0 - self.origin, axis=1))
        # interior candidate where feasible
        ok = safe & (s_int >= 0.0) & (s_int <= 1.0) & (u_int >= 0.0)
        if np.any(ok):
            pi = a[ok] + s_int[ok, None] * ab[ok]
            qi = self.origin + u_int[ok, None] * d
            di = np.linalg.norm(pi - qi, axis=1)
            best[ok] = np.minimum(best[ok], di)
        return best


# ---------------------------------------------------------------------------
# the spacetime object
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Spacetime:
    """A region of a Lorentzian manifold given by analytic callables.

    ``metric_batch`` maps an (m, dim) coordinate array to (m, dim, dim)
    metric matrices; ``domain_batch`` to a boolean mask; ``metric_deriv``,
    if given, to (m, dim, dim, dim) derivatives indexed [m, a, i, j].  Values
    are immutable after construction and safe to share between workers.

    ``constant_metric`` declares that ``metric_batch`` gives the same matrix,
    bit for bit, at every point, so ``build_grid`` decides the cones of all
    stencil offsets in one batch, one midpoint each, before pairing any, and
    applies each answer to every edge along its offset.  A wrong
    declaration yields a wrong grid; ``False`` (the default) tests every edge.
    """

    dim: int
    name: str
    metric_batch: Callable[[np.ndarray], np.ndarray]
    domain_batch: Callable[[np.ndarray], np.ndarray]
    excisions: tuple = ()
    params: dict = field(default_factory=dict)
    metric_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cosmological_time_analytic: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constant_metric: bool = False

    def metric_at(self, coords: np.ndarray) -> np.ndarray:
        return self.metric_batch(np.asarray(coords, float)[None, :])[0]

    def domain_contains(self, coords: np.ndarray) -> bool:
        return bool(self.domain_batch(np.asarray(coords, float)[None, :])[0])

    def metric_derivatives(self, coords: np.ndarray) -> np.ndarray:
        """d g_{ij} / d x^a at (m, dim) points, indexed [m, a, i, j]: the closed
        form if given, else central differences, step 1e-5 * max(1, max|row|)."""
        c = np.asarray(coords, float)
        if self.metric_deriv is not None:
            return self.metric_deriv(c)
        h = 1e-5 * np.maximum(1.0, np.abs(c).max(axis=1))
        pts = central_probes(c, h)
        g = self.metric_batch(pts.reshape(-1, self.dim)).reshape(pts.shape + (self.dim,))
        return (g[:, 0::2] - g[:, 1::2]) / (2.0 * h)[:, None, None, None]


# ---------------------------------------------------------------------------
# built-in spacetimes
# ---------------------------------------------------------------------------

def _make_flat(dim, name):
    """Minkowski space (``minkowski``), its half t > 0
    (``upper_half_minkowski``), or that half without the ray from (2, 0, ...)
    along d/dx0 (``missing_ray``)."""
    e0 = np.eye(dim)[0]
    eta = np.diag([-1.0] + [1.0] * (dim - 1))
    excisions = (HalfLine(2.0 * e0, e0),) if name == "missing_ray" else ()

    def domain(pts):
        inside = np.ones(pts.shape[0], dtype=bool) if name == "minkowski" else pts[:, 0] > 0.0
        for ray in excisions:
            inside &= ~ray.contains(pts)
        return inside

    return Spacetime(
        dim=dim, name=name,
        metric_batch=lambda pts: np.broadcast_to(eta, (pts.shape[0], dim, dim)).copy(),
        domain_batch=domain,
        excisions=excisions,
        metric_deriv=lambda pts: np.zeros((pts.shape[0], dim, dim, dim)),
        cosmological_time_analytic=None if name == "minkowski" else lambda pts: pts[:, 0].copy(),
        params={"dim": dim}, constant_metric=True,
    )


def _make_warped(dim, slope, offset):
    # metric -dt^2 + f(t)^2 (dx^2 + ...) with f(t) = slope*t + offset
    def f(t):
        return slope * t + offset

    space = np.arange(1, dim)

    def metric(pts):
        g = np.zeros((pts.shape[0], dim, dim))
        g[:, 0, 0] = -1.0
        g[:, space, space] = (f(pts[:, 0]) ** 2)[:, None]
        return g

    def deriv(pts):
        out = np.zeros((pts.shape[0], dim, dim, dim))
        out[:, 0, space, space] = (2.0 * f(pts[:, 0]) * slope)[:, None]
        return out

    def domain(pts):
        return f(pts[:, 0]) > 0.0

    analytic = (lambda pts: pts[:, 0].copy()) if (slope == 1.0 and offset == 0.0) else None
    return Spacetime(
        dim=dim, name="warped_product",
        metric_batch=metric, domain_batch=domain, metric_deriv=deriv,
        cosmological_time_analytic=analytic,
        params={"dim": dim, "slope": slope, "offset": offset},
    )


def _make_conformal(base: Spacetime, factor):
    if callable(factor):
        phi = factor
        const = None
    else:
        const = float(factor)
        if not (math.isfinite(const) and const > 0.0):
            raise NonPositiveConformalFactor(f"factor must be finite and > 0, got {const}")
        phi = lambda pts: np.full(pts.shape[0], const)

    def metric(pts):
        g = base.metric_batch(pts)
        return g * (phi(pts) ** 2)[:, None, None]

    deriv = None
    if const is not None and base.metric_deriv is not None:
        base_deriv = base.metric_deriv
        deriv = lambda pts: const * const * base_deriv(pts)

    analytic = None
    if const is not None and base.cosmological_time_analytic is not None:
        base_tau = base.cosmological_time_analytic
        analytic = lambda pts: const * base_tau(pts)

    return Spacetime(
        dim=base.dim, name="conformal",
        metric_batch=metric, domain_batch=base.domain_batch,
        excisions=base.excisions, metric_deriv=deriv,
        cosmological_time_analytic=analytic,
        params={"base": base.params | {"name": base.name},
                "factor": const if const is not None else "callable"},
        constant_metric=base.constant_metric and const is not None,
    )


def builtin(name: str, **params) -> Spacetime:
    """Construct a built-in spacetime by name.

    Names: minkowski, upper_half_minkowski, missing_ray, warped_product
    (f(t) = slope*t + offset), conformal (base= spacetime or name, factor=
    positive constant or callable on coordinate batches).  Raises
    UnknownName for an unknown name, a parameter the name does not take, a
    conformal base or factor that is missing or of another kind, or a dim=
    that differs from a conformal base spacetime's; NonPositiveConformalFactor
    for a constant factor that is not finite and positive; ValueError for a
    slope or offset that is not finite or a dim= that is not an int >= 1.
    """
    dim_given = "dim" in params
    dim = params.pop("dim", 4)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if name in ("minkowski", "upper_half_minkowski", "missing_ray"):
        st = _make_flat(dim, name)
    elif name == "warped_product":
        slope = float(params.pop("slope", 1.0))
        offset = float(params.pop("offset", 0.0))
        for key, value in (("slope", slope), ("offset", offset)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        st = _make_warped(dim, slope, offset)
    elif name == "conformal":
        base = params.pop("base", None)
        if isinstance(base, str):
            base = builtin(base, dim=dim)
        if not isinstance(base, Spacetime):
            raise UnknownName(f"conformal base= must be a spacetime or a spacetime name, "
                              f"got {base!r}")
        if dim_given and dim != base.dim:
            raise UnknownName(f"conformal dim={dim} is not the dimension {base.dim} of its base=")
        if "factor" not in params:
            raise UnknownName("conformal factor= is missing")
        st = _make_conformal(base, params.pop("factor"))
    else:
        raise UnknownName(f"unknown spacetime {name!r}")
    if params:
        raise UnknownName(f"unknown parameters {sorted(params)} for spacetime {name!r}")
    return st
