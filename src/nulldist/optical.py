"""Null coordinate charts by geodesic shooting.

A chart is anchored to a unit-speed timelike geodesic with a parallel
orthonormal frame; events are reached by null geodesics fired from the axis.
The chart time of an event is the optical function omega, whose level sets
are null cones; its gradient in the derived Riemannian metric g_R is bounded
below 2, which is what makes omega a usable causal indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import LeftDomain, NoConvergence, NullDistError, OnAxisDegenerate
from .grid import Lattice, StencilSpec, axis_corner_directions
from .shooting import _rk4_step, _shoot_state, christoffels
from .spacetime import MetricForm, Spacetime, TimeSense, as_point, central_probes

SHOOT_CHUNK = 128  # rows per batched shot; bounds the RK4 temporaries


# ---------------------------------------------------------------------------
# chart construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OpticalValue:
    """Chart time (omega), radial coordinate, and the unit radial direction,
    which is undefined on the axis."""

    omega: float
    lam: float
    direction: Optional[np.ndarray]
    residual: float = 0.0


class NullChart:
    """Null coordinate chart along a timelike geodesic through p.

    Axis states are stored densely and interpolated with cubic Hermite, so
    flat charts are exact; the frame is parallel-transported alongside the
    axis integration and its orthonormality drift is recorded.  Its work
    counters, like wall-clock fields, are outside the determinism guarantee;
    ``forward_shots`` counts every row shot, the Jacobian probes that Newton
    shoots speculatively beside a full step or a lone candidate included.
    """

    def __init__(self, st, center, sense, eps, e0, frame0, ts, pos, vel,
                 frame, frame_dot, shoot_step):
        self.st = st
        self.center = center
        self.sense = sense
        self.eps = eps
        self.e0 = e0
        self.frame0 = frame0
        self.ts = ts
        self.pos = pos
        self.vel = vel
        self.frame = frame
        self.frame_dot = frame_dot
        self.shoot_step = shoot_step
        self.n_space = frame0.shape[0]
        self.speed_drift = 0.0
        self.frame_drift = 0.0
        self.domain_radius = eps
        self.forward_shots = self.newton_iters = self.multistart_fallbacks = 0
        self.max_null_drift = 0.0

    def state(self, t: float):
        """(position, velocity, frame) on the axis at parameter t."""
        pos, vel, frame = self.states([t])
        return pos[0], vel[0], frame[0]

    def states(self, t):
        """(positions, velocities, frames) on the axis at every parameter in
        t, by cubic Hermite between the stored states; times beyond either
        end take that end's state."""
        t = np.asarray(t, dtype=float)
        ts = self.ts
        tc = np.clip(t, ts[0], ts[-1])  # rows beyond either end are replaced below
        j = np.minimum(np.searchsorted(ts, tc, side="right") - 1, ts.shape[0] - 2)
        j1 = j + 1
        h = (ts[j1] - ts[j])[:, None]
        s = (tc - ts[j])[:, None] / h
        # np.float_power is pow, as in scalar arithmetic; an array's ** 2 is s * s
        r2 = np.float_power(1 - s, 2.0)
        a, b = (1 + 2 * s) * r2, s * r2 * h
        c, d = s * s * (3 - 2 * s), s * s * (s - 1) * h
        # velocity doubles as the position derivative; frame_dot as the frame's
        pos = a * self.pos[j] + b * self.vel[j] + c * self.pos[j1] + d * self.vel[j1]
        vel = self.vel[j] + s * (self.vel[j1] - self.vel[j])
        a, b, c, d = a[:, None], b[:, None], c[:, None], d[:, None]
        frame = (a * self.frame[j] + b * self.frame_dot[j]
                 + c * self.frame[j1] + d * self.frame_dot[j1])
        for end, k in ((t <= ts[0], 0), (t >= ts[-1], -1)):
            if end.any():
                pos[end], vel[end], frame[end] = self.pos[k], self.vel[k], self.frame[k]
        return pos, vel, frame


def _gram_schmidt_frame(st: Spacetime, p: np.ndarray, e0: np.ndarray) -> np.ndarray:
    g = st.metric_at(p)
    dim = st.dim
    frame = []
    for axis in range(dim):
        w = np.zeros(dim)
        w[axis] = 1.0
        w = w - (float(w @ g @ e0) / float(e0 @ g @ e0)) * e0
        for e in frame:
            w = w - float(w @ g @ e) * e
        norm2 = float(w @ g @ w)
        if norm2 < 1e-12:
            continue
        frame.append(w / math.sqrt(norm2))
        if len(frame) == dim - 1:
            break
    if len(frame) != dim - 1:
        raise NullDistError("could not build a spacelike frame at the chart center")
    return np.array(frame)


def build_chart(st: Spacetime, p, sense=TimeSense.FUTURE, eps: float = 0.2,
                shoot_step: float = 0.25, probe: bool = True) -> NullChart:
    """Integrate the chart axis and its parallel frame through p.

    For sense=Past the axis runs along the past-directed unit velocity, so
    chart time increases toward the past.  ``domain_radius`` is set to the
    largest probed radius at which forward/inverse round trips succeed.
    Raises ValueError unless eps and shoot_step are finite and positive.
    """
    for name, value in (("eps", eps), ("shoot_step", shoot_step)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    coords = as_point(p, st.dim)
    if not st.domain_contains(coords):
        raise LeftDomain(0.0)
    g = st.metric_at(coords)
    T = np.eye(st.dim)[0]  # d/dx0, the future orientation
    e0 = T / math.sqrt(abs(float(T @ g @ T)))
    if sense == TimeSense.PAST:
        e0 = -e0
    frame0 = _gram_schmidt_frame(st, coords, e0)
    n_sp = frame0.shape[0]
    n_steps = 128  # RK4 steps along the axis on each side of p
    dt = eps / n_steps
    ts = dt * np.arange(-n_steps, n_steps + 1)
    # both legs as one lockstep state: row 0 shoots the backward leg forward
    # from -e0, which gives the same positions and frames and exactly negated
    # velocities, since IEEE rounding is sign-symmetric (a zero comes out
    # +0.0, as the leg shot backward gives it); the backward leg's LeftDomain
    # wins, so the forward row is dropped once it leaves and raises at the end
    state = (np.stack([coords, coords]), np.stack([-e0, e0]), np.stack([frame0, frame0]))
    back, fwd, left = [], [(coords, e0, frame0)], None  # p's state once, in the forward leg
    for i in range(n_steps):
        state = _rk4_step(st, dt, *state)
        inside = st.domain_batch(state[0])
        if not inside[0]:
            raise LeftDomain((i + 1) * -dt)
        if left is None and not inside[1]:
            left = LeftDomain((i + 1) * dt)
            state = tuple(y[:1] for y in state)
        x, u, E = state
        back.append((x[0], -u[0] + 0.0, E[0]))
        if left is None:
            fwd.append((x[1], u[1], E[1]))
    if left is not None:
        raise left
    pos, vel, frame = (np.array(a) for a in zip(*back[::-1], *fwd))
    frame_dot = -np.einsum("mkij,mi,mnj->mnk", christoffels(st, pos), vel, frame)
    g = st.metric_batch(pos)
    speed_drift = float(np.abs(vel[:, None] @ g @ vel[:, :, None] + 1.0).max())
    gram = frame @ g @ frame.transpose(0, 2, 1)
    frame_drift = max(float(np.abs(gram - np.eye(n_sp)).max()),
                      float(np.abs(frame @ g @ vel[:, :, None]).max()))

    chart = NullChart(st, coords, sense, eps, e0, frame0, ts, pos, vel,
                      frame, frame_dot, shoot_step)
    chart.speed_drift = speed_drift
    chart.frame_drift = frame_drift
    if probe:
        chart.domain_radius = _probe_domain_radius(chart)
    return chart


def _probe_domain_radius(chart: NullChart) -> float:
    """The largest probed radius at which 8 fixed directions all lie in the
    domain and all invert from their own flat-frame candidates, solved in
    lockstep; no coarse multistart, which only real queries pay for."""
    dim = chart.st.dim
    rng = np.random.default_rng(1234)
    dirs = rng.normal(size=(8, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for frac in (0.7, 0.5, 0.35, 0.25, 0.15, 0.08):
        r = frac * chart.eps
        Q = chart.center + r * dirs
        if not np.all(chart.st.domain_batch(Q)):
            continue
        results, scale = _solve_candidates(chart, Q, 1e-8, None)
        vals = [_optical_value(chart, q, res) for q, res in zip(Q, results)]
        if all(not isinstance(v, NoConvergence) and v.residual <= 1e-7 * s
               for v, s in zip(vals, scale)):
            return r
    return 0.05 * chart.eps


def chart_forward(chart: NullChart, t: float, x) -> np.ndarray:
    """The event reached by the null geodesic fired from axis time t with
    transverse chart coordinates x."""
    out, errors = _forward_batch(chart, [t], np.atleast_1d(np.asarray(x, dtype=float))[None])
    if errors[0] is not None:
        raise errors[0]
    return out[0]


def _forward_batch(chart: NullChart, ts, xs):
    """chart_forward at every (ts[r], xs[r]), shot SHOOT_CHUNK rows at a time;
    returns the events, inf on rows whose shot failed, and per-row errors."""
    xs = np.asarray(xs, dtype=float)
    lams = _norms(xs)
    out, vel, frame = chart.states(ts)
    v = (xs[:, None, :] @ frame)[:, 0] + lams[:, None] * vel
    errors = [None] * len(ts)
    rows = np.flatnonzero(lams != 0.0)  # axis points are their own image
    for lo in range(0, rows.size, SHOOT_CHUNK):
        sel = rows[lo:lo + SHOOT_CHUNK]
        out[sel], _, errs, drift = _shoot_state(chart.st, out[sel], v[sel], 1.0,
                                                chart.shoot_step, monitor_null=True)
        for r, err in zip(sel, errs):
            if err is not None:
                out[r], errors[r] = np.inf, err
        chart.max_null_drift = max(chart.max_null_drift, drift)
    chart.forward_shots += rows.size
    return out, errors


def _flat_seed(chart: NullChart, g: np.ndarray, q: np.ndarray):
    """Chart coordinates of q in the flat metric g at the center."""
    delta = q - chart.center
    a0 = -float(delta @ g @ chart.e0)
    a = np.array([float(delta @ g @ e) for e in chart.frame0])
    lam = float(np.linalg.norm(a))
    return a0 - lam, a


def _coarse_seeds(chart: NullChart, radius: float):
    ts = np.linspace(-0.9 * chart.eps, 0.9 * chart.eps, 8)
    dirs = axis_corner_directions(chart.n_space)
    lams = np.linspace(0.1 * radius, 0.95 * radius, 8)
    for t in ts:
        for d in dirs:
            for lam in lams:
                yield t, lam * d


def chart_inverse(chart: NullChart, q, tol: float = 1e-10,
                  seed: Optional[tuple] = None) -> OpticalValue:
    """Damped Newton inversion of chart_forward at the event q: the one-row
    case of chart_inverse_batch, raising its NoConvergence."""
    val = chart_inverse_batch(chart, [as_point(q, chart.st.dim)], tol,
                              None if seed is None else [seed])[0]
    if isinstance(val, NoConvergence):
        raise val
    return val


def chart_inverse_batch(chart: NullChart, Q, tol: float = 1e-10, seeds=None) -> list:
    """chart_inverse at every row of Q: per row an OpticalValue, or the
    NoConvergence that a one-row call raises.

    ``seeds`` holds an optional warm start (omega, x) per row, None for none.
    The closed-form flat-frame seed and the row's own seed are tried first,
    nearest image first; rows left unsolved then try the 24 coarse multistart
    seeds nearest them.  All solves run in lockstep.  On-axis events without
    a seed (radial part below tolerance) return omega by projection onto the
    axis with direction undefined.  A row that is not a finite point raises
    ValueError before any solve.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (0,) and (Q.ndim != 2 or Q.shape[1] != chart.st.dim):
        raise ValueError(f"Q must be an (m, {chart.st.dim}) array of points, got shape {Q.shape}")
    if len(Q) == 0:
        return []
    for q in Q:
        as_point(q, chart.st.dim)
    results, scale = _solve_candidates(chart, Q, tol, seeds)
    rows = [r for r, res in enumerate(results) if res is None]
    for r, res in zip(rows, _multistart(chart, Q[rows], tol, scale[rows])):
        results[r] = res
    return [_optical_value(chart, q, res) for q, res in zip(Q, results)]


def _solve_candidates(chart: NullChart, Q: np.ndarray, tol: float, seeds):
    """Every row's axis projection or Newton solves from its own candidates.

    One batch shoots every candidate, and beside the lone candidate of a row
    without a seed its Jacobian probes, which Newton then takes instead of
    shooting them in its first round; a seeded row's first candidate is known
    only once the batch has sorted its two by miss.  Returns per row an
    OpticalValue (on the axis), a Newton result or None where every
    candidate failed, and the rows' residual scales."""
    n = Q.shape[0]
    seeds = [None] * n if seeds is None else seeds
    scale = np.maximum(1.0, np.abs(Q).max(axis=1))
    axis_tol = 1e-7 * max(1.0, chart.eps)
    g = chart.st.metric_at(chart.center)
    results = [None] * n
    cands = {}  # row -> its candidate starts (t, x...): the flat seed, then its own
    for r in range(n):
        t0, x0 = _flat_seed(chart, g, Q[r])
        if seeds[r] is None and np.linalg.norm(x0) < axis_tol:
            results[r] = _axis_projection(chart, Q[r], tol)
            if results[r] is not None:
                continue
        cands[r] = [np.concatenate([[t0], x0])]
        if seeds[r] is not None:
            cands[r].append(np.concatenate([[float(seeds[r][0])],
                                            np.asarray(seeds[r][1], dtype=float)]))
    if not cands:
        return results, scale
    # the images sort a seeded row's two candidates by miss, and are the
    # residuals its Newton solves start from
    counts = [len(ys) for ys in cands.values()]
    Y = np.array([y for ys in cands.values() for y in ys])
    targets = np.repeat(Q[list(cands)], counts, axis=0)
    single = np.repeat(np.array(counts) == 1, counts)  # per candidate
    dim = Y.shape[1]
    shot = _residuals(chart, np.concatenate([Y, _probes(Y[single]).reshape(-1, dim)]),
                      np.concatenate([targets, np.repeat(targets[single], 2 * dim, axis=0)]))
    F, P = shot[:len(Y)], [None] * len(Y)
    for at, p in zip(np.flatnonzero(single), shot[len(Y):].reshape(-1, 2 * dim, dim)):
        P[at] = p
    miss = _norms(F)
    order, at = {}, 0  # row -> its candidates' rows of Y and F, in the order tried
    for r, ys in cands.items():
        order[r] = list(range(at, at + len(ys)))
        if len(ys) == 2 and miss[at + 1] < miss[at]:  # a tie keeps the order
            order[r].reverse()
        at += len(ys)
    for i in range(2):
        rows = [r for r in order if results[r] is None and len(order[r]) > i]
        if rows:
            k = [order[r][i] for r in rows]
            solved = _newton(chart, Q[rows], Y[k], tol, scale[rows], F=F[k], P=[P[j] for j in k])
            for r, res in zip(rows, solved):
                results[r] = res
    return results, scale


def _multistart(chart: NullChart, Q: np.ndarray, tol: float, scale: np.ndarray) -> list:
    """Newton from the 24 coarse seeds whose images lie nearest each row of
    Q, all in lockstep; per row the first success in seed order, or None."""
    if len(Q) == 0:
        return []
    chart.multistart_fallbacks += len(Q)
    coarse = np.array([np.concatenate([[t], x])
                       for t, x in _coarse_seeds(chart, chart.domain_radius)])
    images, _ = _forward_batch(chart, coarse[:, 0], coarse[:, 1:])
    F = [images - q for q in Q]  # the residuals its Newton solves start from
    nearest = [np.argsort(_norms(f), kind="stable")[:24] for f in F]
    solved = _newton(chart, np.repeat(Q, 24, axis=0), np.concatenate([coarse[k] for k in nearest]),
                     tol, np.repeat(scale, 24), groups=np.repeat(np.arange(len(Q)), 24),
                     F=np.concatenate([f[k] for f, k in zip(F, nearest)]))
    return [next((res for res in solved[24 * r:24 * r + 24] if res is not None), None)
            for r in range(len(Q))]


def _optical_value(chart: NullChart, q: np.ndarray, result):
    """The OpticalValue of one row's result, or its NoConvergence."""
    if result is None:
        return NoConvergence(f"chart inversion failed at {q.tolist()}")
    if isinstance(result, OpticalValue):
        return result
    t, x, res = result
    lam = float(np.linalg.norm(x))
    if lam < 1e-7 * max(1.0, chart.eps):
        return OpticalValue(omega=float(t), lam=lam, direction=None, residual=res)
    return OpticalValue(omega=float(t), lam=lam, direction=x / lam, residual=res)


_RUN, _DONE, _FAILED, _STOPPED = range(4)


def _newton(chart: NullChart, Q, Y, tol: float, scale, groups=None, F=None, P=None,
            max_iter: int = 60) -> list:
    """Damped Newton for chart_forward(y) = Q[r] from Y[r], all rows in lockstep.

    Each round shoots, as one batch, the 2*dim Jacobian probes of the live
    rows that have none yet; then, as another, every row's full step
    together with the probes around it, which are that row's next Jacobian
    if the step is accepted; then the 24 halved steps of only the rows whose
    full step was rejected.  A row takes its first acceptable factor; one
    accepted by a halved step shoots its probes in the next round.  So each
    row's iterates are those of a run of that row alone, and a run of full
    steps costs one batch a round.  Rows sharing a ``groups`` label are
    alternatives for one target, in order: the group stops once its earliest
    row not yet failed has converged.  ``F`` holds the residuals at Y where
    the caller has already shot them, and ``P`` per row the residuals of the
    probes around Y[r] (in _probes order) or None.  Returns per row
    (t, x, residual), or None where the row failed or was stopped."""
    Q = np.asarray(Q, dtype=float)
    Y = np.array(Y, dtype=float)
    n, dim = Y.shape
    tols = tol * np.asarray(scale, dtype=float)
    F = _residuals(chart, Y, Q) if F is None else np.array(F, dtype=float)
    fn = _row_norms(F)
    FP = np.zeros((n, 2 * dim, dim))  # the probe residuals around Y, where shot
    fresh = np.zeros(n, dtype=bool)
    for r, p in enumerate([None] * n if P is None else P):
        if p is not None:
            FP[r], fresh[r] = p, True
    state = np.where(np.isfinite(F).all(axis=1), _RUN, _FAILED)
    results = [None] * n
    factors = 0.5 ** np.arange(1, 25)  # the halved steps
    for it in range(max_iter + 1):
        done = (state == _RUN) & (fn <= tols)
        state[done] = _DONE
        for r in np.flatnonzero(done):
            results[r] = (Y[r, 0], Y[r, 1:].copy(), float(fn[r]))
        if groups is not None:
            _stop_settled_groups(groups, state)
        rows = np.flatnonzero(state == _RUN)
        if it == max_iter or rows.size == 0:
            break
        chart.newton_iters += rows.size
        need = rows[~fresh[rows]]
        if need.size:
            FP[need] = _residuals(chart, _probes(Y[need]).reshape(-1, dim),
                                  np.repeat(Q[need], 2 * dim, axis=0)).reshape(-1, 2 * dim, dim)
        fresh[rows] = False
        y, f, fpm = Y[rows], F[rows], FP[rows]
        h = _probe_steps(y)
        J = (fpm[:, 0::2] - fpm[:, 1::2]).transpose(0, 2, 1) / (2 * h)[:, None, None]
        step, ok = _solve_rows(J, -f, np.isfinite(fpm).all(axis=(1, 2)))
        # the full step first, since it usually succeeds, shot beside the
        # probes around it; then the halved ones
        accepted = np.zeros(rows.size, dtype=bool)
        y_new, f_new, fn_new = y.copy(), f.copy(), fn[rows].copy()
        idx = np.flatnonzero(ok)
        if idx.size:
            trial = y[idx] + step[idx]
            shots = np.concatenate([trial[:, None], _probes(trial)], axis=1)
            ft = _residuals(chart, shots.reshape(-1, dim),
                            np.repeat(Q[rows[idx]], 1 + 2 * dim, axis=0)).reshape(shots.shape)
            fnt = _row_norms(ft[:, 0])
            good = (fnt < fn[rows[idx]] * (1 - 1e-4)) | (fnt <= tols[rows[idx]])
            hit = idx[good]
            accepted[hit] = True
            y_new[hit], f_new[hit], fn_new[hit] = trial[good], ft[good, 0], fnt[good]
            FP[rows[hit]], fresh[rows[hit]] = ft[good, 1:], True
        idx = np.flatnonzero(ok & ~accepted)
        if idx.size:
            trial = y[idx, None] + factors[None, :, None] * step[idx, None]
            ft = _residuals(chart, trial.reshape(-1, dim),
                            np.repeat(Q[rows[idx]], factors.size, axis=0)).reshape(trial.shape)
            fnt = _row_norms(ft.reshape(-1, dim)).reshape(idx.size, factors.size)
            good = (fnt < fn[rows[idx], None] * (1 - 1e-4)) | (fnt <= tols[rows[idx], None])
            hit = np.flatnonzero(good.any(axis=1))
            k = np.argmax(good[hit], axis=1)  # the first acceptable factor
            accepted[idx[hit]] = True
            y_new[idx[hit]], f_new[idx[hit]] = trial[hit, k], ft[hit, k]
            fn_new[idx[hit]] = fnt[hit, k]
        state[rows[~accepted]] = _FAILED
        Y[rows], F[rows], fn[rows] = y_new, f_new, fn_new
    return results


def _probe_steps(Y: np.ndarray) -> np.ndarray:
    """The central-difference step h of the Jacobian probes around each row."""
    return 1e-6 * np.maximum(1.0, np.abs(Y).max(axis=1))


def _probes(Y: np.ndarray) -> np.ndarray:
    """The central_probes around the rows of Y at the steps _probe_steps(Y)."""
    return central_probes(Y, _probe_steps(Y))


def _residuals(chart: NullChart, Y: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """chart_forward(Y[r]) - Q[r] for every row; inf rows where a shot failed."""
    return _forward_batch(chart, Y[:, 0], Y[:, 1:])[0] - Q


def _norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm of every row of X, bit for bit: like it, the square
    root of a dot product (a norm along an axis, or an einsum, sums in
    another order and differs in the last digit)."""
    return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])


def _row_norms(F: np.ndarray) -> np.ndarray:
    """The norm of each finite row, else inf."""
    return np.where(np.isfinite(F).all(axis=1), _norms(F), math.inf)


def _solve_rows(J: np.ndarray, b: np.ndarray, ok: np.ndarray):
    """np.linalg.solve(J[r], b[r]) on every ok row; a singular row alone
    turns not ok (a stacked solve raises for the whole stack)."""
    step = np.zeros_like(b)
    idx = np.flatnonzero(ok)
    try:
        if idx.size:
            step[idx] = np.linalg.solve(J[idx], b[idx, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        for r in idx:
            try:
                step[r] = np.linalg.solve(J[r], b[r])
            except np.linalg.LinAlgError:
                ok[r] = False
    return step, ok


def _stop_settled_groups(groups: np.ndarray, state: np.ndarray) -> None:
    """Stop the running rows of every group whose earliest row not yet
    failed has converged."""
    for g in set(groups[state == _RUN].tolist()):  # np.unique would import numpy.ma
        members = np.flatnonzero(groups == g)
        first = members[state[members] != _FAILED][0]
        if state[first] == _DONE:
            state[members[state[members] == _RUN]] = _STOPPED


def _axis_projection(chart: NullChart, q: np.ndarray, tol: float):
    """Nearest axis point in squared coordinate distance; used for on-axis q."""
    d2 = np.sum((chart.pos - q) ** 2, axis=1)
    j = int(np.argmin(d2))
    a = chart.ts[max(0, j - 1)]
    b = chart.ts[min(chart.ts.shape[0] - 1, j + 1)]
    for _ in range(60):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        p1, p2 = chart.states([m1, m2])[0]
        if float(np.sum((p1 - q) ** 2)) < float(np.sum((p2 - q) ** 2)):
            b = m2
        else:
            a = m1
    t = 0.5 * (a + b)
    pos, _, _ = chart.state(t)
    res = float(np.linalg.norm(pos - q))
    if res <= max(tol, 1e-8) * max(1.0, float(np.abs(q).max())):
        return OpticalValue(omega=float(t), lam=0.0, direction=None, residual=res)
    return None


# ---------------------------------------------------------------------------
# the Riemannian comparison metric and the Lipschitz bound
# ---------------------------------------------------------------------------

def _chart_time_fields(chart: NullChart, vals) -> np.ndarray:
    """The d/dt coordinate field X at each inverted event (the axis velocity
    on the axis), by central differences shot as one batch."""
    axis_band = 1e-5 * max(1.0, chart.eps)
    delta = 1e-4 * chart.eps
    X = chart.states([v.omega for v in vals])[1]  # the axis velocity, kept on the axis
    off = [r for r, v in enumerate(vals) if v.lam > axis_band]
    if off:
        ts = [t for r in off for t in (vals[r].omega + delta, vals[r].omega - delta)]
        xs = [vals[r].lam * vals[r].direction for r in off for _ in (0, 1)]
        fpm, errors = _forward_batch(chart, ts, xs)
        for err in errors:
            if err is not None:
                raise err
        X[off] = (fpm[0::2] - fpm[1::2]) / (2 * delta)
    return X


def _g_R_entries(chart: NullChart, Q: np.ndarray, vals) -> np.ndarray:
    """g_R at every row of Q, given its inverted chart values."""
    X = _chart_time_fields(chart, vals)
    G = chart.st.metric_batch(Q)
    out = np.empty_like(G)
    for r in range(len(Q)):
        gX = G[r] @ X[r]
        qXX = abs(float(X[r] @ gX))
        if qXX < 1e-12:
            raise NullDistError("chart time field degenerated (g(X,X) ~ 0)")
        entries = (2.0 / qXX) * np.outer(gX, gX) + G[r]
        out[r] = 0.5 * (entries + entries.T)
    return out


def g_R_eval(chart: NullChart, q, val: Optional[OpticalValue] = None) -> MetricForm:
    """Riemannian metric 2|g(X,X)|^{-1} g(X,.)g(X,.) + g at q."""
    q = as_point(q, chart.st.dim)
    if val is None:
        val = chart_inverse(chart, q)
    return MetricForm(_g_R_entries(chart, q[None], [val])[0])


def grad_norm_omega(chart: NullChart, q, val: Optional[OpticalValue] = None) -> float:
    """|grad omega| in the g_R metric at an off-axis event.

    Computed from central differences of the inverted chart time, with the
    index raised by g_R; the chart construction guarantees the value stays
    below 2 wherever |g(X,X)| > 1/2; a value of 2 or more raises.  ``val``
    is q's chart value if the caller has already inverted q.
    """
    q = as_point(q, chart.st.dim)
    if val is None:
        val = chart_inverse(chart, q)
    axis_band = 1e-5 * max(1.0, chart.eps)
    if val.lam <= axis_band:
        raise OnAxisDegenerate("omega is not differentiable on the chart axis")
    h = 1e-5 * max(1.0, float(np.abs(q).max()))
    stencil = central_probes(q[None], np.array([h]))[0]
    warm = (val.omega, val.lam * val.direction)
    vals = chart_inverse_batch(chart, stencil, seeds=[warm] * stencil.shape[0])
    for v in vals:
        if isinstance(v, NoConvergence):
            raise v
    omegas = np.array([v.omega for v in vals])
    grad = (omegas[0::2] - omegas[1::2]) / (2 * h)
    gR = g_R_eval(chart, q, val).entries
    norm = math.sqrt(float(grad @ np.linalg.solve(gR, grad)))
    if norm >= 2.0:
        raise NullDistError(f"optical gradient bound violated: {norm:.6f} >= 2")
    return norm


def lipschitz_estimate(chart: NullChart, n_pairs: int = 1000, seed: int = 0,
                       lattice_n: int = 7) -> float:
    """Largest observed |d omega| / d_{g_R} over lattice node pairs.

    d_{g_R} is the shortest-path distance on a fine lattice with g_R edge
    lengths; since lattice paths only overestimate the true Riemannian
    distance, the returned ratio is a safe lower envelope of the true
    supremum and must stay below 2.  Raises ValueError for a lattice of
    fewer than 2 nodes a side.
    """
    if lattice_n < 2:
        raise ValueError(f"lattice_n must be at least 2, got {lattice_n!r}")
    dim = chart.st.dim
    half = 0.9 * chart.domain_radius / math.sqrt(dim)
    axes = [chart.center[a] + np.linspace(-half, half, lattice_n) for a in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    n_nodes = nodes.shape[0]
    # the hyperplanes of constant coordinate 0 are contiguous in raster
    # order; each is inverted as one batch, seeded node by node from the
    # hyperplane before it
    planes = nodes.reshape(lattice_n, -1, dim)
    omegas = np.empty(planes.shape[:2])
    gr = np.empty(planes.shape + (dim,))
    seeds = [None] * planes.shape[1]
    for k, plane in enumerate(planes):
        vals = chart_inverse_batch(chart, plane, seeds=seeds)
        retry = [r for r, v in enumerate(vals)
                 if isinstance(v, NoConvergence) and seeds[r] is not None]
        for r, v in zip(retry, chart_inverse_batch(chart, plane[retry])):
            vals[r] = v
        for v in vals:
            if isinstance(v, NoConvergence):
                raise v
        omegas[k] = [v.omega for v in vals]
        gr[k] = _g_R_entries(chart, plane, vals)
        seeds = [None if v.direction is None else (v.omega, v.lam * v.direction) for v in vals]
    omegas, gr = omegas.ravel(), gr.reshape(n_nodes, dim, dim)

    # undirected lattice edges, one per +- offset pair, max-norm radius 1
    lattice = Lattice(np.ones((lattice_n,) * dim, dtype=bool), 1)
    offsets = StencilSpec(radius=1).offsets(dim)
    u, v = (np.concatenate(ends) for ends in zip(*map(lattice.pairs, offsets)))
    delta = nodes[v] - nodes[u]
    gmid = 0.5 * (gr[u] + gr[v])
    w = np.sqrt(np.einsum("mi,mij,mj->m", delta, gmid, delta))
    graph = lattice.undirected(offsets, u, v, w)

    rng = np.random.default_rng(seed)
    n_sources = max(2, min(n_nodes, int(math.ceil(n_pairs / max(1, n_nodes - 1)))))
    sources = list(rng.permutation(n_nodes)[:n_sources])
    # radial-axis nodes (all transverse coordinates at the center) see the
    # gradient-aligned direction where the supremum is attained
    mid = lattice_n // 2
    for k in (1, lattice_n - 2, lattice_n - 1):
        sources.append(lattice.node_at(np.array([mid, k] + [mid] * (dim - 2))))
    best = 0.0
    for s in sources:
        dist, _ = _kernels.dijkstra(*graph, int(s), -1)
        mask = (dist > 0) & np.isfinite(dist)
        if not np.any(mask):
            continue
        ratios = np.abs(omegas[mask] - omegas[s]) / dist[mask]
        best = max(best, float(ratios.max()))
    return best
