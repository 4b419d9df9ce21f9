"""Spacetime core: metric evaluation, causal classification, built-ins."""

import math

import numpy as np
import pytest

import nulldist as nd
from nulldist.errors import (
    NonPositiveConformalFactor,
    NotCausal,
    OutOfDomain,
    UnknownName,
    ZeroVector,
)
from nulldist.optical import build_chart, chart_inverse, g_R_eval, grad_norm_omega
from nulldist.spacetime import CausalKind, TimeSense

BUILTINS = ["minkowski", "upper_half_minkowski", "missing_ray", "warped_product"]


def test_metric_eval_minkowski():
    st = nd.builtin("minkowski", dim=4)
    g = nd.metric_eval(st, [0.3, -1.0, 2.0, 0.1])
    assert np.array_equal(g.entries, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_metric_eval_warped():
    st = nd.builtin("warped_product", dim=4)
    g = nd.metric_eval(st, [2.0, 0.5, 0.0, 0.0])
    assert np.allclose(g.entries, np.diag([-1.0, 4.0, 4.0, 4.0]))


def test_metric_eval_missing_ray_excised():
    st = nd.builtin("missing_ray", dim=4)
    with pytest.raises(OutOfDomain):
        nd.metric_eval(st, [2.0, 0.0, 0.0, 0.0])
    # just off the ray is fine
    g = nd.metric_eval(st, [2.0, 0.1, 0.0, 0.0])
    assert g.signature_ok()


def test_causal_character_examples():
    st = nd.builtin("minkowski", dim=4)
    p = [0.0, 0.0, 0.0, 0.0]
    cc = nd.causal_character(st, p, [1, 0, 0, 0], 1e-9)
    assert cc.kind is CausalKind.TIMELIKE and cc.time_sense is TimeSense.FUTURE
    cc = nd.causal_character(st, p, [1, 1, 0, 0], 1e-9)
    assert cc.kind is CausalKind.NULL and cc.time_sense is TimeSense.FUTURE
    cc = nd.causal_character(st, p, [0, 1, 0, 0], 1e-9)
    assert cc.kind is CausalKind.SPACELIKE and cc.time_sense is TimeSense.NONE
    cc = nd.causal_character(st, p, [-1, 0.5, 0, 0], 1e-9)
    assert cc.kind is CausalKind.TIMELIKE and cc.time_sense is TimeSense.PAST


def test_causal_character_zero_vector():
    st = nd.builtin("minkowski", dim=4)
    p = [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ZeroVector):
        nd.causal_character(st, p, [0, 0, 0, 0], 1e-9)


def test_reverse_cs_gap_values():
    st = nd.builtin("minkowski", dim=4)
    p = [0.0, 0.0, 0.0, 0.0]
    u = [1, 0, 0, 0]
    assert nd.reverse_cs_gap(st, p, u, u) == pytest.approx(0.0, abs=1e-12)
    # |g(u,v)| = 2, |u|_g = 1, |v|_g = sqrt(3)
    v = [2, 1, 0, 0]
    assert nd.reverse_cs_gap(st, p, u, v) == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)
    # null pair: norms vanish, |g(u,v)| = 2
    nu = [1, 1, 0, 0]
    nv = [1, -1, 0, 0]
    assert nd.reverse_cs_gap(st, p, nu, nv) == pytest.approx(2.0, abs=1e-12)


def test_reverse_cs_gap_rejects_spacelike():
    st = nd.builtin("minkowski", dim=4)
    p = [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(NotCausal):
        nd.reverse_cs_gap(st, p, [1, 0, 0, 0], [0, 1, 0, 0])


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
        assert nd.metric_eval(st, c).signature_ok()


@pytest.mark.parametrize("phi", [0.5, 2.0, 7.0])
def test_causal_character_conformal_invariance(phi):
    st = nd.builtin("minkowski", dim=4)
    stc = nd.builtin("conformal", base="minkowski", dim=4, factor=phi)
    rng = np.random.default_rng(11)
    p = np.zeros(4)
    for _ in range(500):
        v = rng.normal(size=4)
        c1 = nd.causal_character(st, p, v)
        c2 = nd.causal_character(stc, p, v)
        assert c1 == c2


def _random_causal(rng, gm, dim):
    """Random causal vector: time component stretched past the cone."""
    r = rng.normal(size=dim)
    sp = float(r[1:] @ gm[1:, 1:] @ r[1:])
    sign = 1.0 if r[0] >= 0 else -1.0
    r[0] = sign * math.sqrt(sp / abs(gm[0, 0])) * (1.0 + rng.uniform(0.0, 1.0))
    return r


@pytest.mark.parametrize("name", BUILTINS)
def test_reverse_cs_nonnegative_on_causal_pairs(name):
    st = nd.builtin(name, dim=4)
    rng = np.random.default_rng(3)
    pts = _domain_samples(st, rng, 20)
    for c in pts:
        g = nd.metric_eval(st, c)
        for _ in range(500):  # 10^4 pairs per spacetime across the point pool
            u = _random_causal(rng, g.entries, 4)
            v = _random_causal(rng, g.entries, 4)
            assert nd.reverse_cs_gap(st, c, u, v) >= -1e-9


def test_orientation_is_future_timelike():
    """The time orientation is d/dx0 on every built-in: it must be timelike
    everywhere in the domain, and causal_character must call it future."""
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    spacetimes = [nd.builtin(name, dim=4) for name in BUILTINS] + [
        nd.builtin("conformal", base="missing_ray", dim=4, factor=2.0),
        nd.builtin("conformal", base="warped_product", dim=4,
                   factor=lambda pts: 1.0 + 0.1 * pts[:, 0] ** 2)]
    rng = np.random.default_rng(5)
    for st in spacetimes:
        for c in _domain_samples(st, rng, 40):
            assert st.metric_at(c)[0, 0] < 0
            cc = nd.causal_character(st, c, e0)
            assert cc.kind is CausalKind.TIMELIKE and cc.time_sense is TimeSense.FUTURE


def test_metric_form_rejects_asymmetric():
    with pytest.raises(ValueError):
        nd.MetricForm(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_event_dimension_mismatch():
    st = nd.builtin("minkowski", dim=4)
    with pytest.raises(ValueError):
        nd.metric_eval(st, [0.0, 0.0])


# every public entry that takes a point or a vector, given the bad one as x
POINT_ENTRIES = {
    "metric_eval": lambda st, ch, x: nd.metric_eval(st, x),
    "causal_character.p": lambda st, ch, x: nd.causal_character(st, x, [1.0, 0.0]),
    "causal_character.v": lambda st, ch, x: nd.causal_character(st, [0.5, 0.0], x),
    "reverse_cs_gap.p": lambda st, ch, x: nd.reverse_cs_gap(st, x, [1.0, 0.0], [1.0, 0.0]),
    "reverse_cs_gap.u": lambda st, ch, x: nd.reverse_cs_gap(st, [0.5, 0.0], x, [1.0, 0.0]),
    "reverse_cs_gap.v": lambda st, ch, x: nd.reverse_cs_gap(st, [0.5, 0.0], [1.0, 0.0], x),
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
