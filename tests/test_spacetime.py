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
from nulldist.spacetime import CausalKind, TimeSense, as_event

BUILTINS = ["minkowski", "upper_half_minkowski", "missing_ray", "warped_product"]


def tv(st, p, v):
    return nd.TangentVector(as_event(np.asarray(p, float)), np.asarray(v, float))


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
    g = nd.metric_eval(st, p)
    T = st.orientation(p)
    cc = nd.causal_character(g, T, tv(st, p, [1, 0, 0, 0]), 1e-9)
    assert cc.kind is CausalKind.TIMELIKE and cc.time_sense is TimeSense.FUTURE
    cc = nd.causal_character(g, T, tv(st, p, [1, 1, 0, 0]), 1e-9)
    assert cc.kind is CausalKind.NULL and cc.time_sense is TimeSense.FUTURE
    cc = nd.causal_character(g, T, tv(st, p, [0, 1, 0, 0]), 1e-9)
    assert cc.kind is CausalKind.SPACELIKE and cc.time_sense is TimeSense.NONE
    cc = nd.causal_character(g, T, tv(st, p, [-1, 0.5, 0, 0]), 1e-9)
    assert cc.kind is CausalKind.TIMELIKE and cc.time_sense is TimeSense.PAST


def test_causal_character_zero_vector():
    st = nd.builtin("minkowski", dim=4)
    p = [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ZeroVector):
        nd.causal_character(nd.metric_eval(st, p), st.orientation(p),
                            tv(st, p, [0, 0, 0, 0]), 1e-9)


def test_reverse_cs_gap_values():
    st = nd.builtin("minkowski", dim=4)
    p = [0.0, 0.0, 0.0, 0.0]
    g = nd.metric_eval(st, p)
    u = tv(st, p, [1, 0, 0, 0])
    assert nd.reverse_cs_gap(g, u, u) == pytest.approx(0.0, abs=1e-12)
    # |g(u,v)| = 2, |u|_g = 1, |v|_g = sqrt(3)
    v = tv(st, p, [2, 1, 0, 0])
    assert nd.reverse_cs_gap(g, u, v) == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)
    # null pair: norms vanish, |g(u,v)| = 2
    nu = tv(st, p, [1, 1, 0, 0])
    nv = tv(st, p, [1, -1, 0, 0])
    assert nd.reverse_cs_gap(g, nu, nv) == pytest.approx(2.0, abs=1e-12)


def test_reverse_cs_gap_rejects_spacelike():
    st = nd.builtin("minkowski", dim=4)
    p = [0.0, 0.0, 0.0, 0.0]
    g = nd.metric_eval(st, p)
    with pytest.raises(NotCausal):
        nd.reverse_cs_gap(g, tv(st, p, [1, 0, 0, 0]), tv(st, p, [0, 1, 0, 0]))


def test_builtin_unknown_and_conformal():
    with pytest.raises(UnknownName):
        nd.builtin("klein_bottle")
    st = nd.builtin("conformal", base="minkowski", dim=4, factor=2.0)
    g = st.metric_at(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(g, 4.0 * np.diag([-1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(NonPositiveConformalFactor):
        nd.builtin("conformal", base="minkowski", dim=4, factor=-1.0)


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
    g1 = nd.metric_eval(st, p)
    g2 = nd.metric_eval(stc, p) if phi != 1 else g1
    # conformal metric fails the Lorentzian-signature constructor? no: 4*eta fine
    T1 = st.orientation(p)
    for _ in range(500):
        v = tv(st, p, rng.normal(size=4))
        c1 = nd.causal_character(g1, T1, v)
        c2 = nd.causal_character(nd.MetricForm(stc.metric_at(p)), T1, v)
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
            u = tv(st, c, _random_causal(rng, g.entries, 4))
            v = tv(st, c, _random_causal(rng, g.entries, 4))
            assert nd.reverse_cs_gap(g, u, v) >= -1e-9


def test_orientation_continuity():
    st = nd.builtin("warped_product", dim=4)
    rng = np.random.default_rng(5)
    pts = _domain_samples(st, rng, 40)
    h = 0.05
    for c in pts:
        q = c + rng.uniform(-h, h, size=4)
        if not st.domain_contains(q):
            continue
        g = st.metric_at(0.5 * (c + q))
        Tp = st.orientation_batch(c[None, :])[0]
        Tq = st.orientation_batch(q[None, :])[0]
        assert float(Tp @ g @ Tq) < 0


def test_metric_form_rejects_asymmetric():
    with pytest.raises(ValueError):
        nd.MetricForm(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_event_dimension_mismatch():
    st = nd.builtin("minkowski", dim=4)
    with pytest.raises(ValueError):
        nd.metric_eval(st, [0.0, 0.0])
