"""Geodesic shooting: Christoffel symbols and fourth-order Runge-Kutta
integration of the geodesic equation, for one row or a stack of rows, with a
parallel-transported frame riding along and the null constraint monitored on
null shots.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LeftDomain, NonFiniteValue, StepTooLarge
from .spacetime import Spacetime, as_point

NULL_DRIFT_TOL = 1e-6  # relative bound on |g(u,u)| along null shots


def christoffels(st: Spacetime, coords: np.ndarray, *, _g=None) -> np.ndarray:
    """Connection coefficients Gamma^k_{ij} from metric derivatives, at one
    point (dim,) or at each row of an (m, dim) stack (indexed [m, k, i, j]).
    ``_g`` is private: the metric at those rows where the caller has it."""
    pts = np.asarray(coords, float).reshape(-1, st.dim)
    g = st.metric_batch(pts) if _g is None else _g
    dg = st.metric_derivatives(pts)
    # dg_sym[m,l,i,j] = d_i g_{lj} + d_j g_{li} - d_l g_{ij}
    dg_sym = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg
    # a diagonal g's inverse is the reciprocal of its diagonal, and the
    # einsum's sum over the zero terms starts from +0.0 (so no -0.0 there);
    # a stack with off-diagonal entries, or a zero, infinite, NaN or
    # subnormal diagonal entry, goes through the inverse, which decides
    diag = np.diagonal(g, axis1=1, axis2=2)
    with np.errstate(all="ignore"):
        rdiag = 1.0 / diag
        gamma = 0.5 * (rdiag[:, :, None, None] * dg_sym) + 0.0
    # so many nonzeros: every off-diagonal entry is zero, or a diagonal one is
    if np.count_nonzero(g) != diag.size or not (rdiag.all() and np.isfinite(gamma).all()):
        gamma = 0.5 * np.einsum("mkl,mlij->mkij", np.linalg.inv(g), dg_sym)
    return gamma if np.ndim(coords) == 2 else gamma[0]


def _geodesic_rhs(st: Spacetime, x: np.ndarray, u: np.ndarray, *legs, g=None):
    """(dx, du, *dlegs) of the geodesic equation at (m, dim) rows x, u; each
    (m, n, dim) frame in ``legs`` is parallel-transported along u.  ``g`` is
    the metric at x where the caller has already evaluated it."""
    gamma = christoffels(st, x, _g=g)
    return (u, -np.einsum("mkij,mi,mj->mk", gamma, u, u),
            *(-np.einsum("mkij,mi,mnj->mnk", gamma, u, E) for E in legs))


def _rk4_step(st: Spacetime, dt, *state, g=None):
    """One RK4 step of _geodesic_rhs over state (x, u, *legs); ``g`` is the
    metric at x, if known."""
    k1 = _geodesic_rhs(st, *state, g=g)
    k2 = _geodesic_rhs(st, *(y + 0.5 * dt * k for y, k in zip(state, k1)))
    k3 = _geodesic_rhs(st, *(y + 0.5 * dt * k for y, k in zip(state, k2)))
    k4 = _geodesic_rhs(st, *(y + dt * k for y, k in zip(state, k3)))
    return tuple(y + dt / 6.0 * (a + 2 * b + 2 * c + d)
                 for y, a, b, c, d in zip(state, k1, k2, k3, k4))


def _shoot_state(st: Spacetime, x0: np.ndarray, u0: np.ndarray, s: float,
                 step: float, monitor_null: bool):
    """Integrate the geodesic equation for every row of (m, dim) x0, u0.

    Returns final (x, u), per-row errors (None, or what a shot of that row
    alone raises: LeftDomain, NonFiniteValue once x or u is NaN or inf, or
    StepTooLarge; the row stays at its last good step) and the largest
    relative |g(u,u)| of a step that passed the null monitor."""
    if step <= 0:
        raise ValueError("step must be positive")
    n = max(1, int(math.ceil(abs(s) / step)))
    dt = s / n
    x_end, u_end = np.array(x0, dtype=float), np.array(u0, dtype=float)
    x, u, live = x_end, u_end, np.arange(x_end.shape[0])  # live rows only
    errors, drift = [None] * live.size, 0.0
    g = None  # the null monitor's metric at x, which the next step starts from
    for i in range(n):
        nx, nu = _rk4_step(st, dt, x, u, g=g)
        finite = np.isfinite(nx).all(axis=1) & np.isfinite(nu).all(axis=1)
        if finite.all():
            ok = np.array(st.domain_batch(nx), dtype=bool)  # a copy: rows are cleared below
        else:  # a blown-up row is not handed to the domain test
            ok = finite.copy()
            ok[finite] = st.domain_batch(nx[finite])
        failed = not ok.all()  # the per-row bookkeeping runs only on such a step
        if failed:
            for r, fin in zip(live[~ok], finite[~ok]):
                errors[r] = LeftDomain((i + 1) * dt) if fin else NonFiniteValue(
                    f"geodesic state is not finite after step {i + 1}; reduce step")
        if monitor_null and ok.any():
            k = np.flatnonzero(ok) if failed else slice(None)
            uk = nu[k][:, None, :]
            g = st.metric_batch(nx[k])
            q = np.abs((uk @ g @ uk.transpose(0, 2, 1))[:, 0, 0])
            uu = (uk @ uk.transpose(0, 2, 1))[:, 0, 0]
            bad = q > NULL_DRIFT_TOL * uu
            drift = max(drift, float(np.max(q / np.maximum(uu, 1e-300), where=~bad, initial=0)))
            if bad.any():
                k = np.flatnonzero(ok)
                for r in np.flatnonzero(bad):
                    errors[live[k[r]]] = StepTooLarge(
                        f"null constraint drift {q[r]:.2e} after step {i + 1}; reduce step")
                ok[k[bad]] = False
                failed = True
                g = g[~bad]  # the rows that go on
        if failed:  # failed rows keep their last good step
            x_end[live[~ok]], u_end[live[~ok]] = x[~ok], u[~ok]
            nx, nu, live = nx[ok], nu[ok], live[ok]
        x, u = nx, nu
        if live.size == 0:
            break
    x_end[live], u_end[live] = x, u
    return x_end, u_end, errors, drift


def geodesic_shoot(st: Spacetime, p, v, s: float, step: float = 0.05) -> np.ndarray:
    """Exponential-map point exp_p(s*v) by fourth-order Runge-Kutta, as a
    (dim,) array.

    Null initial data is detected automatically and the |g(u,u)| constraint
    is monitored along the trajectory.  Raises LeftDomain when the shot
    leaves the domain, NonFiniteValue when its state overflows, and
    StepTooLarge when the null constraint drifts.
    """
    p, v = as_point(p, st.dim), as_point(v, st.dim)
    g = st.metric_at(p)
    q0 = abs(float(v @ g @ v))
    monitor = q0 <= NULL_DRIFT_TOL * float(v @ v)
    x, _, errors, _ = _shoot_state(st, p[None], v[None], s, step, monitor)
    if errors[0] is not None:
        raise errors[0]
    return x[0]
