"""Batched geodesic shooting against the one-point-at-a-time code it replaced.

The references below integrate one geodesic at a time: Christoffel symbols
from a single 4x4 inverse, the per-point RK4 loop that raises on the first
non-finite state or failed domain or null-drift check, the axis state
interpolated one time at a time, and chart_forward on top of them, plus the
Newton iteration that shot every probe and line-search step alone, and the
chart inversion that ran one Newton solve after another.  The batched code
must agree with them bit for bit, row by row, and a row that fails must carry
the exception the reference raises for it alone.
"""

import bisect
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import nulldist as nd
from nulldist import optical, shooting
from nulldist.errors import LeftDomain, NoConvergence, NonFiniteValue, StepTooLarge
from nulldist.spacetime import Spacetime, TimeSense


def same_bits(a, b):
    """Equal bit for bit (the sign of a zero included), NaN payloads aside."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


def ref_metric_derivatives(st, c):
    if st.metric_deriv is not None:
        return st.metric_deriv(c[None])[0]
    h = 1e-5 * max(1.0, float(np.abs(c).max()))
    pts = np.repeat(c[None, :], 2 * st.dim, axis=0)
    for a in range(st.dim):
        pts[2 * a, a] += h
        pts[2 * a + 1, a] -= h
    g = st.metric_batch(pts)
    return (g[0::2] - g[1::2]) / (2.0 * h)


def ref_christoffels(st, c):
    g = st.metric_at(c)
    dg = ref_metric_derivatives(st, c)
    ginv = np.linalg.inv(g)
    dg_sym = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, dg_sym)


def ref_rhs(st, x, u):
    return u, -np.einsum("kij,i,j->k", ref_christoffels(st, x), u, u)


def ref_shoot(st, x0, u0, s, step, monitor_null):
    n = max(1, int(math.ceil(abs(s) / step)))
    dt = s / n
    x, u = x0.astype(float).copy(), u0.astype(float).copy()
    for i in range(n):
        k1x, k1u = ref_rhs(st, x, u)
        k2x, k2u = ref_rhs(st, x + 0.5 * dt * k1x, u + 0.5 * dt * k1u)
        k3x, k3u = ref_rhs(st, x + 0.5 * dt * k2x, u + 0.5 * dt * k2u)
        k4x, k4u = ref_rhs(st, x + dt * k3x, u + dt * k3u)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        u = u + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        if not (np.isfinite(x).all() and np.isfinite(u).all()):
            raise NonFiniteValue(f"geodesic state is not finite after step {i + 1}; reduce step")
        if not st.domain_contains(x):
            raise LeftDomain((i + 1) * dt)
        if monitor_null:
            g = st.metric_at(x)
            q = abs(float(u @ g @ u))
            if q > shooting.NULL_DRIFT_TOL * float(u @ u):
                raise StepTooLarge(
                    f"null constraint drift {q:.2e} after step {i + 1}; reduce step")
    return x, u


def ref_axis(st, coords, e0, frame0, eps, n_steps=128):
    """build_chart's axis as it was: the backward leg shot with -dt, then the
    forward one, each alone, raising the LeftDomain of the first leg to leave;
    returns (pos, vel, frame, frame_dot) over both legs."""
    def transport(dt):
        states = [(coords[None], e0[None], frame0[None])]
        for i in range(n_steps):
            states.append(shooting._rk4_step(st, dt, *states[-1]))
            if not st.domain_contains(states[-1][0][0]):
                raise LeftDomain((i + 1) * dt)
        return states

    dt = eps / n_steps
    samples = transport(-dt)[:0:-1] + transport(dt)  # p's state once, in the forward leg
    pos, vel, frame = (np.concatenate(a) for a in zip(*samples))
    gamma = np.array([ref_christoffels(st, x) for x in pos])
    return pos, vel, frame, -np.einsum("mkij,mi,mnj->mnk", gamma, vel, frame)


def ref_states(chart, times):
    """NullChart.state as it was, one time after another: a time at or beyond
    an end takes that end's state; the Hermite weights are scalar arithmetic,
    where (1 - s) ** 2 is pow; then the same products and sums for all rows."""
    ts = chart.ts.tolist()
    out = [np.empty((len(times),) + a.shape[1:]) for a in (chart.pos, chart.vel, chart.frame)]
    rows, js, weights = [], [], []
    for r, t in enumerate(np.asarray(times, dtype=float).tolist()):
        if t <= ts[0] or t >= ts[-1]:
            k = 0 if t <= ts[0] else -1
            for o, a in zip(out, (chart.pos, chart.vel, chart.frame)):
                o[r] = a[k]
            continue
        j = min(bisect.bisect_right(ts, t) - 1, len(ts) - 2)
        h = ts[j + 1] - ts[j]
        s = (t - ts[j]) / h
        rows.append(r)
        js.append(j)
        weights.append(((1 + 2 * s) * (1 - s) ** 2, s * (1 - s) ** 2 * h,
                        s * s * (3 - 2 * s), s * s * (s - 1) * h, s))
    if rows:
        j = np.array(js)
        a, b, c, d, s = (np.array(w)[:, None] for w in zip(*weights))
        out[0][rows] = a * chart.pos[j] + b * chart.vel[j] + c * chart.pos[j + 1] + d * chart.vel[j + 1]
        out[1][rows] = chart.vel[j] + s * (chart.vel[j + 1] - chart.vel[j])
        a, b, c, d = a[:, None], b[:, None], c[:, None], d[:, None]
        out[2][rows] = (a * chart.frame[j] + b * chart.frame_dot[j]
                        + c * chart.frame[j + 1] + d * chart.frame_dot[j + 1])
    return out


def ref_chart_forward(chart, t, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pos, vel, frame = (a[0] for a in ref_states(chart, [float(t)]))
    lam = float(np.linalg.norm(x))
    if lam == 0.0:
        return pos.copy()
    v = x @ frame + lam * vel
    out, _ = ref_shoot(chart.st, pos, v, 1.0, chart.shoot_step, True)
    return out


def ref_forward_safe(chart, t, x):
    try:
        return ref_chart_forward(chart, t, x)
    except (LeftDomain, StepTooLarge):
        return np.full(chart.st.dim, np.inf)


def ref_probe_points(y):
    """The Jacobian probes around y, in the order the old Newton shot them:
    y + h e_a, then y - h e_a, for each axis a."""
    hstep = 1e-6 * max(1.0, float(np.abs(y).max()))
    points = []
    for a in range(y.size):
        yp = y.copy()
        ym = y.copy()
        yp[a] += hstep
        ym[a] -= hstep
        points += [yp, ym]
    return points


def ref_newton(chart, q, t, x, tol, scale, trace, max_iter=60, iterates=None):
    """The old Newton iteration, one shot at a time.  Appends to ``trace``
    each accepted step factor, then the reason of a failure: "start",
    "probe", "singular", "search" or "iterations"; and to ``iterates``, if
    given, each accepted point."""
    y = np.concatenate([[t], np.atleast_1d(x)])
    dim = chart.st.dim

    def F(yy):
        return ref_forward_safe(chart, yy[0], yy[1:]) - q

    f = F(y)
    if not np.all(np.isfinite(f)):
        trace.append("start")
        return None
    fn = float(np.linalg.norm(f))
    for _ in range(max_iter):
        if fn <= tol * scale:
            return y[0], y[1:], fn
        J = np.empty((dim, dim))
        hstep = 1e-6 * max(1.0, float(np.abs(y).max()))
        points = ref_probe_points(y)
        for a in range(dim):
            fp, fm = F(points[2 * a]), F(points[2 * a + 1])
            if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
                trace.append("probe")
                return None
            J[:, a] = (fp - fm) / (2 * hstep)
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            trace.append("singular")
            return None
        lam = 1.0
        for _ in range(25):
            y_new = y + lam * step
            f_new = F(y_new)
            if np.all(np.isfinite(f_new)):
                fn_new = float(np.linalg.norm(f_new))
                if fn_new < fn * (1 - 1e-4) or fn_new <= tol * scale:
                    y, f, fn = y_new, f_new, fn_new
                    trace.append(lam)
                    if iterates is not None:
                        iterates.append(y)
                    break
            lam *= 0.5
        else:
            trace.append("search")
            return None
    if fn <= tol * scale:
        return y[0], y[1:], fn
    trace.append("iterations")
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except (LeftDomain, NonFiniteValue, StepTooLarge) as exc:
        return exc


def assert_same_rows(rows, errors, expected):
    """Batched rows/errors against one reference outcome per row."""
    for r, want in enumerate(expected):
        if isinstance(want, Exception):
            assert type(errors[r]) is type(want) and errors[r].args == want.args
        else:
            assert errors[r] is None
            assert np.array_equal(rows[r], want)


# ---------------------------------------------------------------------------
# random spacetimes, one per derivative path
# ---------------------------------------------------------------------------

def _bump(amp, width):
    def factor(pts):
        return 1.0 + amp * np.exp(-np.sum(pts ** 2, axis=1) / width ** 2)

    return factor


def _push(pts, c):
    out = np.array(pts, dtype=float)
    out[:, 1] += c * out[:, 0]
    return out


def _sheared(base, c):
    """base pulled back by (t, x1, ...) -> (t, x1 + c t, ...): the same time
    domain, and g_01 nonzero wherever the base's g_11 is."""
    def metric(pts):
        g = np.array(base.metric_batch(_push(pts, c)))
        g[:, 0, :] += c * g[:, 1, :]  # A^T g A, A the Jacobian of the push
        g[:, :, 0] += c * g[:, :, 1]
        return g

    return Spacetime(dim=base.dim, name=f"sheared {base.name}", metric_batch=metric,
                     domain_batch=lambda pts: base.domain_batch(_push(pts, c)),
                     params={"base": base, "shear": c})


@hs.composite
def spacetimes(draw):
    """(spacetime, t_min): its domain is t > t_min, whatever the kind."""
    dim = draw(hs.integers(2, 4))
    kind = draw(hs.sampled_from(["minkowski", "warped", "conformal", "callable", "sheared"]))
    if kind == "minkowski":
        return nd.builtin("upper_half_minkowski", dim=dim), 0.0
    slope = draw(hs.floats(0.3, 2.0))
    offset = draw(hs.floats(-0.5, 0.5))
    warped = nd.builtin("warped_product", dim=dim, slope=slope, offset=offset)
    if kind == "warped":
        return warped, -offset / slope
    if kind == "sheared":  # not diagonal: Christoffel symbols take the inverse
        shear = draw(hs.floats(0.1, 0.5)) * draw(hs.sampled_from([-1.0, 1.0]))
        return _sheared(warped, shear), -offset / slope
    if kind == "conformal":
        return nd.builtin("conformal", dim=dim, base=warped,
                          factor=draw(hs.floats(0.5, 3.0))), -offset / slope
    # a callable factor has no closed-form derivative: finite differences
    factor = _bump(draw(hs.floats(0.01, 0.3)), draw(hs.floats(0.2, 1.0)))
    return nd.builtin("conformal", dim=dim, base="upper_half_minkowski",
                      factor=factor), 0.0


def _null_rows(st, x0, rng, scales):
    """Null velocities at x0 (diagonal or sheared metrics), either time sense."""
    if "shear" in st.params:  # the base's null rows, pulled back
        c = st.params["shear"]
        u = _null_rows(st.params["base"], _push(x0, c), rng, scales)
        u[:, 1] -= c * u[:, 0]
        return u
    g = st.metric_batch(x0)
    n = rng.normal(size=(x0.shape[0], st.dim - 1))
    spatial = np.einsum("mi,mi,mi->m", n, np.diagonal(g, axis1=1, axis2=2)[:, 1:], n)
    u = np.concatenate([np.ones((x0.shape[0], 1)),
                        n * np.sqrt(-g[:, 0, 0] / spatial)[:, None]], axis=1)
    sense = rng.choice([-1.0, 1.0], size=(x0.shape[0], 1))
    return u * sense * scales[:, None]


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@SETTINGS
@given(spacetimes(), hs.integers(1, 12), hs.integers(0, 2**32 - 1))
def test_christoffels_batch_matches_points(case, m, seed):
    st, t_min = case
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(m, st.dim))
    pts[:, 0] = t_min + rng.uniform(0.05, 1.5, size=m)
    gam = shooting.christoffels(st, pts)
    assert gam.shape == (m,) + (st.dim,) * 3
    for r in range(m):
        assert np.array_equal(gam[r], ref_christoffels(st, pts[r]))
        assert np.array_equal(shooting.christoffels(st, pts[r]), gam[r])


def test_christoffels_diagonal_and_inverse_paths(monkeypatch):
    # diagonal rows take the reciprocal diagonal alone and the inverse in a
    # batch with a non-diagonal row, bit for bit the same either way
    warped = nd.builtin("warped_product", dim=4)

    def tilted(pts):  # g_01 = 0.1 x1: diagonal where x1 = 0
        g = np.array(warped.metric_batch(pts))
        g[:, 0, 1] = g[:, 1, 0] = 0.1 * pts[:, 1]
        return g

    st = Spacetime(dim=4, name="tilted", metric_batch=tilted,
                   domain_batch=warped.domain_batch)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.0, 1.0, size=(6, 4))
    pts[:, 0] = rng.uniform(0.2, 1.5, size=6)
    pts[:4, 1] = [0.0, -0.0, 0.0, 0.0]
    inverses = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(len(a)) or inv(a))
    gam = shooting.christoffels(st, pts)
    assert inverses == [6]
    assert same_bits(shooting.christoffels(st, pts[:4]), gam[:4]) and inverses == [6]
    for r in range(6):
        assert same_bits(gam[r], ref_christoffels(st, pts[r]))
    # a zero diagonal entry still leaves the inverse to raise, and a
    # subnormal one, whose reciprocal overflows, to decide; no division or
    # overflow warning on the way
    def squeezed(pts):  # g_22 scaled by |x2|
        g = np.array(warped.metric_batch(pts))
        g[:, 2, 2] *= np.abs(pts[:, 2])
        return g

    st = Spacetime(dim=4, name="squeezed", metric_batch=squeezed,
                   domain_batch=warped.domain_batch)
    pts[2, 2] = 0.0
    with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError):
        warnings.simplefilter("error")
        shooting.christoffels(st, pts)
    pts[2, 2] = 5e-320
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gam = shooting.christoffels(st, pts)
    assert same_bits(gam[2], ref_christoffels(st, pts[2]))
    # an overflowing row: infinite diagonal entries go to the inverse, with
    # the same values and no warning beyond the metric's own
    pts = np.array([[1e200, 0.0, 0.0, 0.0], [1.0, 0.1, -0.2, 0.3]])
    with warnings.catch_warnings(record=True) as metric_warnings:
        warnings.simplefilter("always")
        warped.metric_batch(pts), warped.metric_derivatives(pts)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gam = shooting.christoffels(warped, pts)
    assert [(w.category, str(w.message)) for w in caught] == \
        [(w.category, str(w.message)) for w in metric_warnings]
    assert inverses[-1] == 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for r in range(2):
            assert same_bits(gam[r], ref_christoffels(warped, pts[r]))


def test_row_norms_match_per_row_norm():
    # rows that are zero, subnormal, tiny, huge (their squares overflow),
    # infinite or NaN, in 1 to 4 dimensions
    special = np.array([0.0, -0.0, 5e-324, 1e-310, 1e-160, 1e160, 1e200, 1.7e308,
                        np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(4)
    for dim in range(1, 5):
        F = rng.normal(size=(20000, dim)) * np.exp(rng.uniform(-60, 60, size=(20000, 1)))
        mask = rng.random(F.shape) < 0.2
        F[mask] = rng.choice(special, size=mask.sum())
        F[:len(special)] = special[:, None]
        with np.errstate(over="ignore"):
            want = np.array([np.linalg.norm(f) for f in F])
            got, rows = optical._norms(F), optical._row_norms(F)
        assert same_bits(got, want)
        finite = np.isfinite(F).all(axis=1)
        assert same_bits(rows[finite], want[finite]) and np.all(rows[~finite] == np.inf)


# random shots with large steps leave the float range on purpose
@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
@SETTINGS
@given(spacetimes(), hs.integers(1, 10), hs.integers(0, 2**32 - 1),
       hs.sampled_from([0.05, 0.3, 1.0, 2.5]), hs.floats(0.2, 3.0), hs.booleans())
def test_shoot_batch_matches_single_shots(case, m, seed, step, s, null):
    st, t_min = case
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, size=(m, st.dim))
    x0[:, 0] = t_min + rng.uniform(0.05, 1.5, size=m)
    scales = np.exp(rng.uniform(np.log(0.01), np.log(3.0), size=m))
    if null:
        u0 = _null_rows(st, x0, rng, scales)
    else:
        u0 = rng.normal(size=(m, st.dim)) * scales[:, None]
    x, u, errors, _ = shooting._shoot_state(st, x0, u0, s, step, null)
    expected = [outcome(ref_shoot, st, x0[r], u0[r], s, step, null) for r in range(m)]
    assert_same_rows(x, errors, [e if isinstance(e, Exception) else e[0] for e in expected])
    assert_same_rows(u, errors, [e if isinstance(e, Exception) else e[1] for e in expected])


@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
def test_shot_that_blows_up_raises():
    # a spacelike shot in -dt^2 + t^2 dx^2 with a step far too large: the RK4
    # iterates grow to t ~ 8e59 at step 2 and past the float range at step 3
    st = nd.builtin("warped_product", dim=2)
    with pytest.raises(NonFiniteValue, match=r"^geodesic state is not finite after step 3; "
                                             r"reduce step$"):
        nd.geodesic_shoot(st, [0.2, 0.0], [-0.5, 3.0], 3.0, step=1.0)


def test_shoot_batch_mixes_fates():
    # one batch of null shots in -dt^2 + t^2 dx^2: a slow one survives, a
    # past-directed one leaves the domain t > 0, a fast one trips the monitor
    st = nd.builtin("warped_product", dim=2)
    x0 = np.array([[1.0, 0.0], [0.3, 0.0], [0.3, 0.0]])
    u0 = np.array([[0.01, 0.01], [-0.5, 0.5 / 0.3], [1.0, 1.0 / 0.3]])
    evaluated = []  # points whose metric the shot evaluates
    counted = dataclasses.replace(
        st, metric_batch=lambda pts: evaluated.append(len(pts)) or st.metric_batch(pts))
    x, u, errors, drift = shooting._shoot_state(counted, x0, u0, 2.0, 0.5, True)
    # every point's metric once: the 4 stage points of each of 3 rows in the
    # first step and the end points of the 2 rows still in the domain, whose
    # metric the monitor's survivor starts its next step from; then 3 stage
    # points and 1 end point in each of the slow row's 3 further steps
    assert sum(evaluated) == 4 * 3 + 2 + 3 * (3 + 1)
    assert errors[0] is None
    assert isinstance(errors[1], LeftDomain) and isinstance(errors[2], StepTooLarge)
    expected = [outcome(ref_shoot, st, x0[r], u0[r], 2.0, 0.5, True) for r in range(3)]
    assert_same_rows(x, errors, [expected[0][0]] + expected[1:])
    assert 0.0 < drift
    # failed rows stay at their last good step: the start, here
    assert np.array_equal(x[1:], x0[1:]) and np.array_equal(u[1:], u0[1:])
    for r in (1, 2):
        with pytest.raises(type(errors[r])) as info:
            nd.geodesic_shoot(st, x0[r], u0[r], 2.0, step=0.5)
        assert info.value.args == errors[r].args
    # unmonitored, the slow past-directed row leaves t > 0 at its fourth
    # step and keeps the state of its third
    x0, u0 = np.array([[1.0, 0.0], [0.7, 0.0]]), np.array([[0.1, 0.1], [-0.4, 0.0]])
    x, u, errors, _ = shooting._shoot_state(st, x0, u0, 2.0, 0.5, False)
    assert errors[0] is None and errors[1].args == LeftDomain(2.0).args
    assert np.array_equal(x[0], ref_shoot(st, x0[0], u0[0], 2.0, 0.5, False)[0])
    frozen = ref_shoot(st, x0[1], u0[1], 1.5, 0.5, False)
    assert np.array_equal(x[1], frozen[0]) and np.array_equal(u[1], frozen[1])


# forward shots from these charts land, trip the null monitor (warped,
# conformal) or leave the domain (callable, a past chart near t = 0)
CHARTS = {
    "warped": lambda: optical.build_chart(
        nd.builtin("warped_product", dim=3, slope=0.8, offset=0.1), [0.5, 0.1, 0.0],
        TimeSense.PAST, eps=0.3, shoot_step=0.05, probe=False),
    "conformal": lambda: optical.build_chart(
        nd.builtin("conformal", dim=3, base="warped_product", factor=1.5), [1.0, 0.0, 0.0],
        TimeSense.FUTURE, eps=0.3, shoot_step=0.1, probe=False),
    "callable": lambda: optical.build_chart(
        nd.builtin("conformal", dim=2, base="upper_half_minkowski", factor=_bump(0.05, 0.3)),
        [0.4, 0.0], TimeSense.PAST, eps=0.3, shoot_step=0.05, probe=False),
}


def _benchmark_chart():
    # the optical_chart workload's chart; the probe does not touch the axis
    return optical.build_chart(nd.builtin("warped_product", dim=4), [1.0, 0.0, 0.0, 0.0],
                               TimeSense.FUTURE, eps=0.3, probe=False)


@pytest.mark.parametrize("name", sorted(CHARTS) + ["benchmark"])
def test_states_match_scalar_state(name):
    chart = CHARTS[name]() if name in CHARTS else _benchmark_chart()
    ts = chart.ts
    special = np.concatenate([ts, np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf),
                              [0.0, -0.0, ts[0] - 1.0, ts[-1] + 1.0, -1e300, 1e300,
                               -np.inf, np.inf]])
    rng = np.random.default_rng(len(name))
    times = np.concatenate([special, rng.uniform(1.1 * ts[0], 1.1 * ts[-1],
                                                 size=100_000 - special.size)])
    got, want = chart.states(times), ref_states(chart, times)
    for g, w in zip(got, want):
        assert same_bits(g, w)
    for r in range(0, times.size, 499):  # state is the one-row case
        for g, w in zip(chart.state(times[r]), want):
            assert same_bits(g, w[r])


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_forward_batch_matches_reference(name):
    chart = CHARTS[name]()
    rng = np.random.default_rng(len(name))
    m = 24
    ts = rng.uniform(-0.3, 0.3, size=m)
    xs = rng.uniform(-0.8, 0.8, size=(m, chart.n_space)) * rng.uniform(0, 1, size=(m, 1))
    xs[::7] = 0.0  # on-axis rows are returned without a shot
    out, errors = optical._forward_batch(chart, ts, xs)
    assert chart.forward_shots == m - len(xs[::7])
    expected = [outcome(ref_chart_forward, chart, ts[r], xs[r]) for r in range(m)]
    assert_same_rows(out, errors, expected)
    for r in range(m):
        if errors[r] is None:
            assert np.array_equal(optical.chart_forward(chart, ts[r], xs[r]), out[r])
        else:
            assert np.all(np.isinf(out[r]))
            with pytest.raises(type(errors[r])) as info:
                optical.chart_forward(chart, ts[r], xs[r])
            assert info.value.args == errors[r].args
    assert any(e is None for e in errors) and any(e is not None for e in errors)


def _domain_edge(chart, t):
    """Bracket (lo, hi) of the radial coordinate at chart time t where a
    one-space-dimension chart's shots start to fail."""
    lo, hi = 0.0, 2.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if np.all(np.isfinite(ref_forward_safe(chart, t, [mid]))):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _newton_rows(name, chart):
    """(target, start, scale) rows for one lockstep batch."""
    rng = np.random.default_rng(100 + len(name))
    rows = []
    for sd in (0.1, 0.2):
        for _ in range(8):
            t = rng.uniform(-0.15, 0.15)
            x = rng.uniform(-0.15, 0.15, size=chart.n_space)
            q = ref_forward_safe(chart, t, x)
            if np.all(np.isfinite(q)):
                start = np.concatenate([[t + rng.normal(0, sd)],
                                        x + rng.normal(0, sd, size=chart.n_space)])
                rows.append((q, start, max(1.0, float(np.abs(q).max()))))
    # past the axis end chart.state is clamped, so the time column of the
    # Jacobian is exactly zero
    start = np.full(chart.st.dim, 0.05)
    start[0] = chart.eps + 0.2
    q = ref_forward_safe(chart, start[0], start[1:]) + 0.01
    rows.insert(3, (q, start, max(1.0, float(np.abs(q).max()))))
    if chart.n_space == 1:
        # just inside the domain edge: a probe leaves the domain; a little
        # further in, every step factor toward a target beyond it does
        lo, _ = _domain_edge(chart, 0.0)
        for inside, push in ((5e-7, 0.0), (5e-6, 0.1)):
            start = np.array([0.0, lo - inside])
            image = ref_forward_safe(chart, 0.0, start[1:])
            q = ref_forward_safe(chart, 0.0, [0.5 * lo]) if push == 0.0 else image + [-push, push]
            rows.insert(1, (q, start, max(1.0, float(np.abs(q).max()))))
    return rows


def test_newton_matches_reference():
    # one lockstep batch per chart mixes rows that converge after different
    # numbers of steps, damped rows, and rows that fail at the start, on a
    # probe, on a singular Jacobian or in the line search; every row must
    # match the reference run of that row alone
    traces = []
    for name in sorted(CHARTS):
        chart = CHARTS[name]()
        rows = _newton_rows(name, chart)
        Q = np.array([q for q, _, _ in rows])
        got = optical._newton(chart, Q, np.array([y for _, y, _ in rows]), 1e-10,
                              np.array([s for _, _, s in rows]))
        assert len(got) == len(rows)
        for (q, y, scale), res in zip(rows, got):
            trace = []
            want = ref_newton(chart, q, y[0], y[1:], 1e-10, scale, trace)
            traces.append(trace)
            if want is None:
                assert res is None
                continue
            assert res is not None
            assert res[0] == want[0] and np.array_equal(res[1], want[1]) and res[2] == want[2]
    ends = {tr[-1] for tr in traces if tr and isinstance(tr[-1], str)}
    assert {"start", "probe", "singular", "search"} <= ends
    converged = [tr for tr in traces if not tr or not isinstance(tr[-1], str)]
    assert len({len(tr) for tr in converged}) > 1
    assert any(f < 1.0 for tr in converged for f in tr)


def test_newton_takes_probe_residuals_and_reuses_full_step_probes(monkeypatch):
    # rows handed the residuals of the probes around their start (every other
    # row) and rows not, in one lockstep batch per chart: each row matches
    # the reference run of that row alone, bit for bit, and warns of nothing
    # that run does not.  The probes around an accepted full step are shot in
    # its batch and make the next round's Jacobian; a row accepted by a
    # halved step shoots its probes again, in a later batch
    shot = []  # per _forward_batch call, the rows (t, x...) it shot
    forward = optical._forward_batch

    def recording(chart, ts, xs):
        shot.append({np.concatenate([[t], x]).tobytes()
                     for t, x in zip(np.asarray(ts, dtype=float), np.asarray(xs, dtype=float))})
        return forward(chart, ts, xs)

    def batches(points):
        """The calls that shot every one of the points."""
        return [b for b, rows in enumerate(shot) if all(p.tobytes() in rows for p in points)]

    monkeypatch.setattr(optical, "_forward_batch", recording)  # the references shoot alone
    halved = 0
    for name in sorted(CHARTS):
        chart = CHARTS[name]()
        rows = _newton_rows(name, chart)
        Q = np.array([q for q, _, _ in rows])
        Y = np.array([y for _, y, _ in rows])
        with warnings.catch_warnings(record=True) as ref_warned:
            warnings.simplefilter("always")
            F = np.array([ref_forward_safe(chart, y[0], y[1:]) - q for q, y, _ in rows])
            P = [np.array([ref_forward_safe(chart, p[0], p[1:]) - q for p in ref_probe_points(y)])
                 if r % 2 == 0 else None for r, (q, y, _) in enumerate(rows)]
            want, traces, iterates = [], [], []
            for q, y, scale in rows:
                traces.append([])
                iterates.append([])
                want.append(ref_newton(chart, q, y[0], y[1:], 1e-10, scale, traces[-1],
                                       iterates=iterates[-1]))
        shot.clear()
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            got = optical._newton(chart, Q, Y, 1e-10, np.array([s for _, _, s in rows]), F=F, P=P)
        assert ({(w.category, str(w.message)) for w in warned}
                <= {(w.category, str(w.message)) for w in ref_warned})
        for r, (res, w) in enumerate(zip(got, want)):
            assert (res is None) == (w is None)
            if w is not None:
                assert res[0] == w[0] and np.array_equal(res[1], w[1]) and res[2] == w[2]
            trace = traces[r]
            if P[r] is not None or trace in (["start"], []):
                assert batches(ref_probe_points(Y[r])) == []  # handed over, or never needed
            else:
                assert batches(ref_probe_points(Y[r]))
            for j, (factor, y) in enumerate(zip(trace, iterates[r])):
                at = batches([y])[0]
                probed = batches(ref_probe_points(y))
                if factor == 1.0:
                    assert at in probed  # shot beside the step, speculatively
                elif j + 1 < len(trace):  # a halved step, and another round
                    assert probed and min(probed) > at
                    halved += 1
    assert halved > 0


def test_single_query_shoots_one_batch_a_round(monkeypatch):
    # a lone query shoots its flat candidate with the candidate's probes,
    # and each Newton round its full step with the probes around it: I
    # rounds of full steps cost I + 1 shot batches, not 2 I + 1
    chart = _benchmark_chart()
    calls = []
    shoot = optical._shoot_state
    monkeypatch.setattr(optical, "_shoot_state", lambda *args, **kw: calls.append(1) or shoot(*args, **kw))
    for q in ([1.08, 0.05, -0.04, 0.06], [0.93, -0.1, 0.02, 0.03]):
        calls.clear()
        iters = chart.newton_iters
        val = optical.chart_inverse(chart, q)
        rounds = chart.newton_iters - iters
        assert rounds >= 2 and len(calls) == rounds + 1
        want = ref_chart_inverse(chart, np.array(q))
        assert _same_value(val, want)


def test_newton_groups_take_first_success_in_order():
    # rows of a group are alternatives in order: the group waits for its
    # earliest row not yet failed, and stops the rows after it once that
    # row has converged
    chart = CHARTS["warped"]()
    rows = _newton_rows("warped", chart)
    solo, steps = [], []
    for q, y, scale in rows:
        before = chart.newton_iters
        solo.append(optical._newton(chart, q[None], y[None], 1e-10, [scale])[0])
        steps.append(chart.newton_iters - before)
    done = [r for r, res in enumerate(solo) if res is not None]
    slow, fast = max(done, key=steps.__getitem__), min(done, key=steps.__getitem__)
    assert steps[slow] > steps[fast]
    bad = next(r for r, res in enumerate(solo) if res is None)
    order = [slow, fast, bad, fast, fast, slow]
    got = optical._newton(chart, np.array([rows[r][0] for r in order]),
                          np.array([rows[r][1] for r in order]), 1e-10,
                          np.array([rows[r][2] for r in order]),
                          groups=np.array([0, 0, 1, 1, 2, 2]))
    want = [solo[slow], solo[fast], None, solo[fast], solo[fast], None]
    for res, w in zip(got, want):
        assert (res is None) == (w is None)
        if w is not None:
            assert res[0] == w[0] and np.array_equal(res[1], w[1]) and res[2] == w[2]


def ref_sort_by_miss(chart, q, seeds):
    images, _ = optical._forward_batch(chart, [t for t, _ in seeds], [x for _, x in seeds])
    miss = [float(np.linalg.norm(f - q)) for f in images]
    return [seeds[i] for i in sorted(range(len(seeds)), key=miss.__getitem__)]


def ref_chart_inverse(chart, q, tol=1e-10, seed=None):
    """chart_inverse as it was: the flat seed and the given one, then the
    multistart seeds, one Newton run after another."""
    q = np.asarray(q, dtype=float)
    scale = max(1.0, float(np.abs(q).max()))
    axis_tol = 1e-7 * max(1.0, chart.eps)
    t0, x0 = optical._flat_seed(chart, chart.st.metric_at(chart.center), q)
    if seed is None and np.linalg.norm(x0) < axis_tol:
        val = optical._axis_projection(chart, q, tol)
        if val is not None:
            return val
    candidates = [(t0, x0)]
    if seed is not None:
        candidates.append((float(seed[0]), np.asarray(seed[1], dtype=float)))
        candidates = ref_sort_by_miss(chart, q, candidates)

    def first_success(starts):
        for t, x in starts:
            res = optical._newton(chart, q[None], np.concatenate([[t], x])[None], tol, [scale])[0]
            if res is not None:
                return res
        return None

    result = first_success(candidates)
    if result is None:
        chart.multistart_fallbacks += 1
        coarse = list(optical._coarse_seeds(chart, chart.domain_radius))
        result = first_success(ref_sort_by_miss(chart, q, coarse)[:24])
    if result is None:
        raise NoConvergence(f"chart inversion failed at {q.tolist()}")
    t, x, res = result
    lam = float(np.linalg.norm(x))
    if lam < axis_tol:
        return optical.OpticalValue(omega=float(t), lam=lam, direction=None, residual=res)
    return optical.OpticalValue(omega=float(t), lam=lam, direction=x / lam, residual=res)


def ref_grad_norm(chart, q):
    """grad_norm_omega as it was: its stencil inverted point by point."""
    val = ref_chart_inverse(chart, q)
    h = 1e-5 * max(1.0, float(np.abs(q).max()))
    grad = np.empty(chart.st.dim)
    warm = (val.omega, val.lam * val.direction)
    for a in range(chart.st.dim):
        qp, qm = q.copy(), q.copy()
        qp[a] += h
        qm[a] -= h
        grad[a] = (ref_chart_inverse(chart, qp, seed=warm).omega
                   - ref_chart_inverse(chart, qm, seed=warm).omega) / (2 * h)
    gR = optical.g_R_eval(chart, q, val).entries
    return math.sqrt(float(grad @ np.linalg.solve(gR, grad)))


# (spacetime, center, sense, eps, shoot_step), the probed radius as a
# fraction of eps, as before batching, and the probe's multistart count
PROBED_CHARTS = {
    "warped 3+1": (lambda: nd.builtin("warped_product", dim=4), [1.0, 0.0, 0.0, 0.0],
                   TimeSense.FUTURE, 0.3, 0.25, 0.5, 0),
    "warped 1+1": (lambda: nd.builtin("warped_product", dim=2), [1.0, 0.0],
                   TimeSense.FUTURE, 0.3, 0.25, 0.5, 0),
    "warped past 2+1": (lambda: nd.builtin("warped_product", dim=3, slope=0.7, offset=0.2),
                        [0.6, 0.1, 0.0], TimeSense.PAST, 0.3, 0.25, 0.7, 0),
    "flat 3+1": (lambda: nd.builtin("minkowski", dim=4), [0.0] * 4,
                 TimeSense.FUTURE, 0.5, 0.25, 0.7, 0),
    "flat 1+1": (lambda: nd.builtin("minkowski", dim=2), [0.0, 0.0],
                 TimeSense.FUTURE, 0.5, 0.25, 0.7, 0),
    "callable conformal 1+1": (lambda: nd.builtin("conformal", dim=2, base="upper_half_minkowski",
                                                  factor=_bump(0.05, 0.3)),
                               [0.5, 0.0], TimeSense.FUTURE, 0.3, 0.05, 0.7, 0),
    "callable conformal 2+1": (lambda: nd.builtin("conformal", dim=3, base="minkowski",
                                                  factor=_bump(0.01, 0.5)),
                               [0.0, 0.0, 0.0], TimeSense.FUTURE, 0.3, 0.05, 0.7, 0),
    "constant conformal 2+1": (lambda: nd.builtin("conformal", dim=3, base="warped_product",
                                                  factor=1.5),
                               [1.0, 0.0, 0.0], TimeSense.FUTURE, 0.3, 0.25, 0.35, 0),
}

# per chart: points whose own candidates fail, and whether the multistart
# then solves them
MULTISTART = {
    "warped 3+1": [([0.905, 0.045, -0.005, 0.145], True)],
    "warped 1+1": [([0.816, -0.143], True)],
    "warped past 2+1": [([0.757, -0.134, -0.071], False)],
    "flat 1+1": [([0.0, 2.0], False)],
    "flat 3+1": [([0.0, 2.0, 0.0, 0.0], False)],
    "constant conformal 2+1": [([0.91, -0.016, -0.119], True)],
}


def _same_value(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and got.args == want.args
    if isinstance(got, Exception):
        return False
    same_dir = (got.direction is None and want.direction is None) or (
        got.direction is not None and want.direction is not None
        and np.array_equal(got.direction, want.direction))
    return (got.omega == want.omega and got.lam == want.lam and same_dir
            and got.residual == want.residual)


@pytest.mark.parametrize("name", list(PROBED_CHARTS))
def test_chart_inverse_batch_matches_loop(name):
    make, center, sense, eps, step, frac, fallbacks = PROBED_CHARTS[name]
    chart = optical.build_chart(make(), center, sense, eps=eps, shoot_step=step)
    assert chart.domain_radius == frac * eps
    assert chart.multistart_fallbacks == fallbacks
    rng = np.random.default_rng(len(name))
    c, dim = chart.center, chart.st.dim
    Q = [c + chart.domain_radius * rng.uniform(0.2, 0.9) * u / np.linalg.norm(u)
         for u in rng.normal(size=(3, dim))]
    first = ref_chart_inverse(chart, Q[0])
    warm = (first.omega, first.lam * first.direction)
    seeds = [None] * 3
    axis = chart.state(0.1 * eps)[0]
    near = Q[0] + 0.01 * eps * rng.normal(size=dim)
    for q, seed in [(axis, None), (axis, warm), (near, warm),
                    (near, (warm[0] + 0.3, -warm[1]))]:  # the flat seed is nearer
        Q.append(q)
        seeds.append(seed)
    multistart = MULTISTART.get(name, [])
    for q, _ in multistart:
        Q.append(np.array(q, dtype=float))
        seeds.append(None)
    before = chart.multistart_fallbacks
    want = []
    for q, seed in zip(Q, seeds):
        try:
            want.append(ref_chart_inverse(chart, q, seed=seed))
        except NoConvergence as exc:
            want.append(exc)
    ref_fallbacks = chart.multistart_fallbacks - before
    got = optical.chart_inverse_batch(chart, np.array(Q), seeds=seeds)
    assert chart.multistart_fallbacks - before == 2 * ref_fallbacks
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _same_value(g, w)
    for q, seed, w in zip(Q, seeds, want):
        try:
            one = optical.chart_inverse(chart, q, seed=seed)
        except NoConvergence as exc:
            one = exc
        assert _same_value(one, w)
    assert want[3].direction is None
    assert ref_fallbacks == len(multistart)
    for w, (_, solved) in zip(want[len(want) - len(multistart):], multistart):
        assert isinstance(w, optical.OpticalValue) == solved
    assert optical.grad_norm_omega(chart, Q[1]) == ref_grad_norm(chart, Q[1])
    assert optical.grad_norm_omega(chart, Q[1], got[1]) == ref_grad_norm(chart, Q[1])


def test_probe_solves_whole_radii_without_multistart(monkeypatch):
    # the probe settles each radius from the directions' own lockstep
    # solves: never the coarse multistart, and no solve at a radius where a
    # direction leaves the domain (here x1 > -0.12 cuts off radii 0.7 and
    # 0.5 of eps)
    def no_multistart(*args):
        raise AssertionError("the probe ran the coarse multistart")

    monkeypatch.setattr(optical, "_multistart", no_multistart)
    for make, center, sense, eps, step, frac, _ in PROBED_CHARTS.values():
        chart = optical.build_chart(make(), center, sense, eps=eps, shoot_step=step)
        assert chart.domain_radius == frac * eps
    solved = []
    solve = optical._solve_candidates
    monkeypatch.setattr(optical, "_solve_candidates",
                        lambda chart, Q, *args: solved.append(len(Q)) or solve(chart, Q, *args))
    mink = nd.builtin("minkowski", dim=2)
    st = Spacetime(dim=2, name="cut", metric_batch=mink.metric_batch,
                   domain_batch=lambda pts: pts[:, 1] > -0.12)
    chart = optical.build_chart(st, [0.0, 0.0], TimeSense.FUTURE, eps=0.3)
    assert chart.domain_radius == 0.35 * 0.3 and solved == [8]


def test_chart_inverse_batch_edge_rows():
    chart = optical.build_chart(nd.builtin("minkowski", dim=2), [0.0, 0.0], TimeSense.FUTURE,
                                eps=0.5)
    assert optical.chart_inverse_batch(chart, np.empty((0, 2))) == []
    # the multistart settles each row on its first success in seed order
    got = optical.chart_inverse_batch(chart, [[0.0, 2.0], [0.1, 0.2], [0.0, 3.0]])
    assert isinstance(got[0], NoConvergence) and isinstance(got[2], NoConvergence)
    assert got[1].omega == pytest.approx(-0.1, abs=1e-9)
    assert got[0].args == (f"chart inversion failed at {[0.0, 2.0]}",)


def test_chart_inverse_batch_rejects_non_finite_rows():
    # a NaN or inf row raises chart_inverse's ValueError before any solve
    chart = optical.build_chart(nd.builtin("minkowski", dim=2), [0.0, 0.0], TimeSense.FUTURE,
                                eps=0.5)
    Q = [[np.nan, 0.1], [0.2, 0.1], [np.inf, 0.0]]
    with pytest.raises(ValueError) as want:
        optical.chart_inverse(chart, Q[0])
    shots, fallbacks = chart.forward_shots, chart.multistart_fallbacks
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as got:
            optical.chart_inverse_batch(chart, Q)
    assert got.value.args == want.value.args
    assert chart.forward_shots == shots and chart.multistart_fallbacks == fallbacks


def test_chart_counters():
    # a point whose own candidates fail falls back to the coarse multistart
    # once; accepted shots stay inside the null-drift band
    chart = optical.build_chart(nd.builtin("warped_product", dim=2), [1.0, 0.0],
                                TimeSense.FUTURE, eps=0.3)
    assert chart.forward_shots > chart.newton_iters > 0
    assert chart.multistart_fallbacks == 0
    optical.chart_inverse(chart, MULTISTART["warped 1+1"][0][0])
    assert chart.multistart_fallbacks == 1
    assert 0.0 < chart.max_null_drift <= shooting.NULL_DRIFT_TOL
    shots = chart.forward_shots
    optical.chart_forward(chart, 0.0, [0.1])
    optical.chart_forward(chart, 0.0, [0.0])  # on the axis: no shot
    assert chart.forward_shots == shots + 1


@pytest.mark.parametrize("name", list(PROBED_CHARTS))
def test_axis_matches_per_leg_transport(name):
    # both legs run as one two-row batch, the backward one shot forward from
    # -e0: the same bits, signed zeros included, in either time sense
    make, center, _, eps, step, _, _ = PROBED_CHARTS[name]
    for sense in (TimeSense.FUTURE, TimeSense.PAST):
        chart = optical.build_chart(make(), center, sense, eps=eps, shoot_step=step, probe=False)
        want = ref_axis(chart.st, chart.center, chart.e0, chart.frame0, eps)
        for got, w in zip((chart.pos, chart.vel, chart.frame, chart.frame_dot), want):
            assert same_bits(got, w)


def test_axis_raises_the_backward_legs_left_domain():
    # the axis through (t, 0) on the 1+1 missing ray leaves the domain at
    # t = 0 going backward and at the ray's origin t = 2 going forward; the
    # backward leg's error wins, even where the forward leg left first
    st = nd.builtin("missing_ray", dim=2)
    e0 = np.array([1.0, 0.0])
    for t, eps, sign in ((0.5, 0.8, -1), (1.5, 0.8, 1), (1.1, 1.5, -1), (0.9, 1.5, -1)):
        center = np.array([t, 0.0])
        with pytest.raises(LeftDomain) as want:
            ref_axis(st, center, e0, optical._gram_schmidt_frame(st, center, e0), eps)
        with pytest.raises(LeftDomain) as got:
            optical.build_chart(st, center, TimeSense.FUTURE, eps=eps, probe=False)
        assert type(got.value) is type(want.value) and got.value.args == want.value.args
        assert got.value.s_exit == want.value.s_exit and np.sign(got.value.s_exit) == sign


def _stencil(chart, rng):
    """grad_norm_omega's seeded stencil around a point inside the domain."""
    dim = chart.st.dim
    u = rng.normal(size=dim)
    q = chart.center + 0.6 * chart.domain_radius * u / np.linalg.norm(u)
    val = ref_chart_inverse(chart, q)
    h = 1e-5 * max(1.0, float(np.abs(q).max()))
    stencil = np.repeat(q[None], 2 * dim, axis=0)
    stencil[0::2][np.diag_indices(dim)] += h
    stencil[1::2][np.diag_indices(dim)] -= h
    return stencil, (val.omega, val.lam * val.direction)


# per chart: forward shots of the seeded stencil and of the MULTISTART points.
# Against the counts of a Newton that shot its starting points again (first
# term), Newton reuses the shot starts (each seeded stencil row's chosen
# candidate, and 24 per multistart point), and shoots the 2*dim Jacobian
# probes around every full step and every lone candidate beside it; the
# probe sets never used, after which the row converged, failed or was
# stopped, add 2*dim rows each (last term):
#   warped 3+1              188 = 132 - 8 + 8 * 8     1745 = 1569 - 24 + 25 * 8
#   warped 1+1               44 =  32 - 4 + 4 * 4      585 =  529 - 24 + 20 * 4
#   warped past 2+1         104 =  74 - 6 + 6 * 6      831 =  855 - 24 +  0 * 6
#   constant conformal 2+1  104 =  74 - 6 + 6 * 6     1167 = 1047 - 24 + 24 * 6
#   flat 1+1                  8 =  12 - 4 + 0 * 4      349 =  373 - 24 +  0 * 4
RESHOT = {"warped 3+1": (188, 1745), "warped 1+1": (44, 585), "warped past 2+1": (104, 831),
          "constant conformal 2+1": (104, 1167), "flat 1+1": (8, 349)}


@pytest.mark.parametrize("name", list(RESHOT))
def test_newton_reuses_shot_residuals(name):
    # Newton starts from the residuals that the candidates' sorting batch and
    # the coarse multistart have already shot: the same values, and exactly
    # the forward shots that RESHOT accounts for
    make, center, sense, eps, step, _, _ = PROBED_CHARTS[name]
    chart = optical.build_chart(make(), center, sense, eps=eps, shoot_step=step)
    stencil, warm = _stencil(chart, np.random.default_rng(5))
    points = np.array([q for q, _ in MULTISTART[name]])
    cases = [(stencil, [warm] * len(stencil)), (points, [None] * len(points))]
    for (Q, seeds), shots in zip(cases, RESHOT[name]):
        want = []
        for q, seed in zip(Q, seeds):
            try:
                want.append(ref_chart_inverse(chart, q, seed=seed))
            except NoConvergence as exc:
                want.append(exc)
        before = chart.forward_shots
        got = optical.chart_inverse_batch(chart, Q, seeds=seeds)
        assert chart.forward_shots - before == shots
        assert all(_same_value(g, w) for g, w in zip(got, want))
