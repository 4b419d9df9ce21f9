"""Batched geodesic shooting against the one-point-at-a-time code it replaced.

The references below integrate one geodesic at a time: Christoffel symbols
from a single 4x4 inverse, the per-point RK4 loop that raises on the first
failed domain or null-drift check, and chart_forward on top of it, plus the
Newton iteration that shot every probe and line-search step alone.  The
batched code must agree with them bit for bit, row by row, and a row that
fails must carry the exception the reference raises for it alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import nulldist as nd
from nulldist import optical
from nulldist.errors import LeftDomain, StepTooLarge
from nulldist.spacetime import TimeSense


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
        if not st.domain_contains(x):
            raise LeftDomain((i + 1) * dt)
        if monitor_null:
            g = st.metric_at(x)
            q = abs(float(u @ g @ u))
            if q > optical.NULL_DRIFT_TOL * float(u @ u):
                raise StepTooLarge(
                    f"null constraint drift {q:.2e} after step {i + 1}; reduce step")
    return x, u


def ref_chart_forward(chart, t, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pos, vel, frame = chart.state(float(t))
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


def ref_newton(chart, q, t, x, tol, scale, damped, max_iter=60):
    """The old Newton iteration; appends each accepted step factor below 1
    to ``damped``."""
    y = np.concatenate([[t], np.atleast_1d(x)])
    dim = chart.st.dim

    def F(yy):
        return ref_forward_safe(chart, yy[0], yy[1:]) - q

    f = F(y)
    if not np.all(np.isfinite(f)):
        return None
    fn = float(np.linalg.norm(f))
    for _ in range(max_iter):
        if fn <= tol * scale:
            return y[0], y[1:], fn
        J = np.empty((dim, dim))
        hstep = 1e-6 * max(1.0, float(np.abs(y).max()))
        for a in range(dim):
            yp = y.copy()
            ym = y.copy()
            yp[a] += hstep
            ym[a] -= hstep
            fp, fm = F(yp), F(ym)
            if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
                return None
            J[:, a] = (fp - fm) / (2 * hstep)
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(25):
            y_new = y + lam * step
            f_new = F(y_new)
            if np.all(np.isfinite(f_new)):
                fn_new = float(np.linalg.norm(f_new))
                if fn_new < fn * (1 - 1e-4) or fn_new <= tol * scale:
                    y, f, fn = y_new, f_new, fn_new
                    if lam < 1.0:
                        damped.append(lam)
                    break
            lam *= 0.5
        else:
            return None
    if fn <= tol * scale:
        return y[0], y[1:], fn
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except (LeftDomain, StepTooLarge) as exc:
        return exc


def assert_same_rows(rows, errors, expected):
    """Batched rows/errors against one reference outcome per row."""
    for r, want in enumerate(expected):
        if isinstance(want, Exception):
            assert type(errors[r]) is type(want) and errors[r].args == want.args
        else:
            assert errors[r] is None
            assert np.array_equal(rows[r], want, equal_nan=True)  # blown-up shots


# ---------------------------------------------------------------------------
# random spacetimes, one per derivative path
# ---------------------------------------------------------------------------

def _bump(amp, width):
    def factor(pts):
        return 1.0 + amp * np.exp(-np.sum(pts ** 2, axis=1) / width ** 2)

    return factor


@hs.composite
def spacetimes(draw):
    """(spacetime, t_min): its domain is t > t_min, whatever the kind."""
    dim = draw(hs.integers(2, 4))
    kind = draw(hs.sampled_from(["minkowski", "warped", "conformal", "callable"]))
    if kind == "minkowski":
        return nd.builtin("upper_half_minkowski", dim=dim), 0.0
    slope = draw(hs.floats(0.3, 2.0))
    offset = draw(hs.floats(-0.5, 0.5))
    warped = nd.builtin("warped_product", dim=dim, slope=slope, offset=offset)
    if kind == "warped":
        return warped, -offset / slope
    if kind == "conformal":
        return nd.builtin("conformal", dim=dim, base=warped,
                          factor=draw(hs.floats(0.5, 3.0))), -offset / slope
    # a callable factor has no closed-form derivative: finite differences
    factor = _bump(draw(hs.floats(0.01, 0.3)), draw(hs.floats(0.2, 1.0)))
    return nd.builtin("conformal", dim=dim, base="upper_half_minkowski",
                      factor=factor), 0.0


def _null_rows(st, x0, rng, scales):
    """Null velocities at x0 (diagonal metrics), either time sense."""
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
    gam = optical.christoffels(st, pts)
    assert gam.shape == (m,) + (st.dim,) * 3
    for r in range(m):
        assert np.array_equal(gam[r], ref_christoffels(st, pts[r]))
        assert np.array_equal(optical.christoffels(st, pts[r]), gam[r])


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
    x, u, errors, _ = optical._shoot_state(st, x0, u0, s, step, null)
    expected = [outcome(ref_shoot, st, x0[r], u0[r], s, step, null) for r in range(m)]
    assert_same_rows(x, errors, [e if isinstance(e, Exception) else e[0] for e in expected])
    assert_same_rows(u, errors, [e if isinstance(e, Exception) else e[1] for e in expected])


def test_shoot_batch_mixes_fates():
    # one batch of null shots in -dt^2 + t^2 dx^2: a slow one survives, a
    # past-directed one leaves the domain t > 0, a fast one trips the monitor
    st = nd.builtin("warped_product", dim=2)
    x0 = np.array([[1.0, 0.0], [0.3, 0.0], [0.3, 0.0]])
    u0 = np.array([[0.01, 0.01], [-0.5, 0.5 / 0.3], [1.0, 1.0 / 0.3]])
    x, u, errors, drift = optical._shoot_state(st, x0, u0, 2.0, 0.5, True)
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
    x, u, errors, _ = optical._shoot_state(st, x0, u0, 2.0, 0.5, False)
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


def test_newton_matches_reference():
    # seeds off by 0.1-0.2 make the line search damp some steps, and some
    # runs fail; both must happen exactly as in the reference
    damped, failed = [], 0
    for name, sd in [(name, sd) for name in sorted(CHARTS) for sd in (0.1, 0.2)]:
        chart = CHARTS[name]()
        rng = np.random.default_rng(100 + len(name))
        for _ in range(8):
            t = rng.uniform(-0.15, 0.15)
            x = rng.uniform(-0.15, 0.15, size=chart.n_space)
            q = ref_forward_safe(chart, t, x)
            if not np.all(np.isfinite(q)):
                continue
            scale = max(1.0, float(np.abs(q).max()))
            seed_t, seed_x = t + rng.normal(0, sd), x + rng.normal(0, sd, size=chart.n_space)
            want = ref_newton(chart, q, seed_t, seed_x, 1e-10, scale, damped)
            got = optical._newton(chart, q, seed_t, seed_x, 1e-10, scale)
            if want is None:
                failed += 1
                assert got is None
                continue
            assert got is not None
            assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2] == want[2]
    assert damped and failed


def test_chart_counters():
    # the domain-radius probe of this chart falls back to the coarse
    # multistart once; accepted shots stay inside the null-drift band
    chart = optical.build_chart(nd.builtin("warped_product", dim=2), [1.0, 0.0],
                                TimeSense.FUTURE, eps=0.3)
    assert chart.forward_shots > chart.newton_iters > 0
    assert chart.multistart_fallbacks == 1
    assert 0.0 < chart.max_null_drift <= optical.NULL_DRIFT_TOL
    shots = chart.forward_shots
    optical.chart_forward(chart, 0.0, [0.1])
    optical.chart_forward(chart, 0.0, [0.0])  # on the axis: no shot
    assert chart.forward_shots == shots + 1
