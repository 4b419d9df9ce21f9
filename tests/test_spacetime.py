"""Spacetime core: metric evaluation, the light-cone test, built-ins."""

import math

import numpy as np
import pytest

import nulldist as nd
from nulldist.errors import NonPositiveConformalFactor, UnknownName
from nulldist.optical import build_chart, chart_inverse, g_R_eval, grad_norm_omega
from nulldist.spacetime import NULL_TOL, LightCone, TimeSense

BUILTINS = ["minkowski", "upper_half_minkowski", "missing_ray", "warped_product"]


def test_metric_eval_minkowski():
    st = nd.builtin("minkowski", dim=4)
    g = nd.MetricForm(st.metric_at([0.3, -1.0, 2.0, 0.1]))
    assert np.array_equal(g.entries, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_metric_eval_warped():
    st = nd.builtin("warped_product", dim=4)
    g = nd.MetricForm(st.metric_at([2.0, 0.5, 0.0, 0.0]))
    assert np.allclose(g.entries, np.diag([-1.0, 4.0, 4.0, 4.0]))


def test_builtin_unknown_and_conformal():
    with pytest.raises(UnknownName):
        nd.builtin("klein_bottle")
    st = nd.builtin("conformal", base="minkowski", dim=4, factor=2.0)
    g = st.metric_at(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(g, 4.0 * np.diag([-1.0, 1.0, 1.0, 1.0]))
    for factor in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(NonPositiveConformalFactor, match="finite and > 0"):
            nd.builtin("conformal", base="minkowski", dim=2, factor=factor)
    for key, value in (("slope", math.nan), ("offset", math.inf), ("offset", -math.inf)):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got"):
            nd.builtin("warped_product", dim=2, **{key: value})
    # dim= follows the scene's rule: an int, not a bool, at least 1
    for name in ("minkowski", "conformal"):
        for dim in (0, -1, 2.7, True, "2", None):
            with pytest.raises(ValueError, match=r"^dim must be a positive integer, got "):
                nd.builtin(name, dim=dim, base="minkowski", factor=2.0)
    assert nd.builtin("minkowski", dim=1).dim == 1


# domain_batch at t = -0.5, 0 and 0.5 off the t-axis, on the missing ray at
# t = 2.5, 0.1 off it there, and on the ray's line below its origin, at t = 1.5
FLAT_DOMAINS = {
    "minkowski": [True] * 6,
    "upper_half_minkowski": [False, False, True, True, True, True],
    "missing_ray": [False, False, True, False, True, True],
}


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("name", sorted(FLAT_DOMAINS))
def test_flat_builtins(name, dim):
    st = nd.builtin(name, dim=dim)
    eta = np.diag([-1.0] + [1.0] * (dim - 1))
    pts = np.random.default_rng(2).uniform(0.3, 2.8, size=(3, dim))
    g = st.metric_batch(pts)
    assert g.dtype == float and np.array_equal(g, np.broadcast_to(eta, (3, dim, dim)))
    g[:] = 0.0  # each call returns its own copy
    assert np.array_equal(st.metric_batch(pts), np.broadcast_to(eta, (3, dim, dim)))
    dg = st.metric_derivatives(pts)
    assert dg.shape == (3, dim, dim, dim) and dg.dtype == float
    assert not dg.any() and not np.signbit(dg).any()  # +0.0 throughout
    probes = np.zeros((6, dim))
    probes[:, 0] = [-0.5, 0.0, 0.5, 2.5, 2.5, 1.5]
    probes[:3, 1] = 0.3
    probes[4, 1] = 0.1
    assert st.domain_batch(probes).tolist() == FLAT_DOMAINS[name]
    if name == "missing_ray":
        ray, = st.excisions
        assert isinstance(ray, nd.HalfLine)
        assert np.array_equal(ray.origin, [2.0] + [0.0] * (dim - 1))
        assert np.array_equal(ray.direction, [1.0] + [0.0] * (dim - 1))
    else:
        assert st.excisions == ()
    analytic = st.cosmological_time_analytic
    if name == "minkowski":
        assert analytic is None
    else:
        tau = analytic(pts)
        assert np.array_equal(tau, pts[:, 0]) and not np.shares_memory(tau, pts)
    assert st.name == name and st.params == {"dim": dim} and st.constant_metric is True


def test_conformal_base_and_factor_are_checked():
    # a base spec as a dict is the scene's to convert (scene._build_spacetime)
    spec = {"name": "minkowski"}
    with pytest.raises(UnknownName, match="base="):
        nd.builtin("conformal", dim=2, base=spec, factor=2.0)
    assert spec == {"name": "minkowski"}
    with pytest.raises(UnknownName, match="base="):
        nd.builtin("conformal", dim=2, factor=2.0)
    with pytest.raises(UnknownName, match="factor="):
        nd.builtin("conformal", dim=2, base="minkowski")
    st = nd.builtin("conformal", dim=2, base=nd.builtin("minkowski", dim=2), factor=2.0)
    assert st.dim == 2 and st.metric_at([0.0, 0.0])[1, 1] == 4.0
    # dim= must agree with a base spacetime's dimension, or be left out
    with pytest.raises(UnknownName, match="dim=2 .*base="):
        nd.builtin("conformal", dim=2, base=nd.builtin("minkowski"), factor=2.0)
    assert nd.builtin("conformal", base=nd.builtin("minkowski", dim=3), factor=2.0).dim == 3


def _domain_samples(st, rng, n):
    pts = []
    while len(pts) < n:
        c = rng.uniform(0.3, 2.8, size=st.dim)
        c[1:] = rng.uniform(-2.0, 2.0, size=st.dim - 1)
        if st.domain_contains(c):
            pts.append(c)
    return np.array(pts)


@pytest.mark.parametrize("name", BUILTINS)
def test_signature_on_random_points(name):
    st = nd.builtin(name, dim=4)
    rng = np.random.default_rng(7)
    for c in _domain_samples(st, rng, 50):
        assert nd.MetricForm(st.metric_at(c)).signature_ok()


@pytest.mark.parametrize("phi", [0.5, 2.0, 7.0])
def test_causal_character_conformal_invariance(phi):
    """phi^2 eta and eta give each vector the same causal, null, timelike
    and time-sense verdicts (exactly null vectors among them)."""
    st = nd.builtin("minkowski", dim=4)
    stc = nd.builtin("conformal", base="minkowski", dim=4, factor=phi)
    v = np.random.default_rng(11).normal(size=(500, 4))
    v[:3] = [[1.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.6, 0.8], [0.0, 0.0, 0.0, 1.0]]
    p = np.zeros((500, 4))
    verdicts = []
    for s in (st, stc):
        cone = LightCone(s.metric_batch(p), v, p, NULL_TOL)
        timelike = (cone.q < 0) & ~cone.null
        verdicts.append((cone.causal, cone.null, timelike,
                         np.sign(cone.time_component(slice(None)))))
    assert verdicts[0][1][:2].all() and not verdicts[0][0][2]
    for flat, scaled in zip(*verdicts):
        assert np.array_equal(flat, scaled)


def test_orientation_is_future_timelike():
    """The time orientation is d/dx0 on every built-in: it must be timelike
    everywhere in the domain, and LightCone must call it future."""
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    spacetimes = [nd.builtin(name, dim=4) for name in BUILTINS] + [
        nd.builtin("conformal", base="missing_ray", dim=4, factor=2.0),
        nd.builtin("conformal", base="warped_product", dim=4,
                   factor=lambda pts: 1.0 + 0.1 * pts[:, 0] ** 2)]
    rng = np.random.default_rng(5)
    for st in spacetimes:
        pts = _domain_samples(st, rng, 40)
        g = st.metric_batch(pts)
        assert np.all(g[:, 0, 0] < 0)
        cone = LightCone(g, e0[None], pts, NULL_TOL)
        assert cone.causal.all() and not cone.null.any() and cone.future(slice(None)).all()


def test_metric_form_rejects_asymmetric():
    with pytest.raises(ValueError):
        nd.MetricForm(np.array([[1.0, 0.1], [0.0, 1.0]]))


# every public entry that takes a point or a vector, given the bad one as x
POINT_ENTRIES = {
    "geodesic_shoot.p": lambda st, ch, x: nd.geodesic_shoot(st, x, [1.0, 0.0], 1.0),
    "geodesic_shoot.v": lambda st, ch, x: nd.geodesic_shoot(st, [0.5, 0.0], x, 1.0),
    "build_chart": lambda st, ch, x: build_chart(st, x),
    "chart_inverse": lambda st, ch, x: chart_inverse(ch, x),
    "grad_norm_omega": lambda st, ch, x: grad_norm_omega(ch, x),
    "g_R_eval": lambda st, ch, x: g_R_eval(ch, x),
}


@pytest.fixture(scope="module")
def mink2_chart():
    st = nd.builtin("minkowski", dim=2)
    return st, build_chart(st, [0.0, 0.0], TimeSense.FUTURE, eps=0.5)


@pytest.mark.parametrize("bad, message", [
    ([0.5, 0.0, 0.0], "event dimension 3 != spacetime dimension 2"),
    ([math.nan, 0.0], "event coordinates must be a finite 1-d vector"),
], ids=["wrong-dim", "nan"])
@pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
def test_point_entries_share_one_check(mink2_chart, entry, bad, message):
    st, ch = mink2_chart
    with pytest.raises(ValueError, match=message):
        POINT_ENTRIES[entry](st, ch, bad)
