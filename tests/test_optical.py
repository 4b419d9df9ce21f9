"""Null charts: geodesic shooting, inversion, g_R, gradient and Lipschitz bounds."""

import math

import numpy as np
import pytest

import nulldist as nd
from nulldist.errors import LeftDomain, OnAxisDegenerate
from nulldist.optical import (
    build_chart,
    chart_forward,
    chart_inverse,
    g_R_eval,
    grad_norm_omega,
    lipschitz_estimate,
)
from nulldist.shooting import christoffels, geodesic_shoot
from nulldist.spacetime import TimeSense


def bump_conformal(dim=2, amp=0.01, width=0.5):
    """Conformal bump metric (1 + amp*exp(-|p|^2/width^2))^2 * eta."""
    def factor(pts):
        return 1.0 + amp * np.exp(-np.sum(pts ** 2, axis=1) / width ** 2)

    return nd.builtin("conformal", base="minkowski", dim=dim, factor=factor)


def test_shoot_minkowski_straight_line():
    st = nd.builtin("minkowski", dim=4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.normal(size=4)
        v = rng.normal(size=4)
        s = rng.uniform(0.1, 2.0)
        out = geodesic_shoot(st, p, v, s, step=0.3)
        assert np.abs(out - (p + s * v)).max() <= 1e-12


def test_shoot_warped_timelike_axis():
    # d/dt is geodesic in -dt^2 + f(t)^2 dx^2: the shot stays a coordinate line
    st = nd.builtin("warped_product", dim=2)
    out = geodesic_shoot(st, [1.0, 0.3], [1.0, 0.0], 0.7, step=0.01)
    assert np.abs(out - np.array([1.7, 0.3])).max() <= 1e-10
    # cross-check the relevant connection component by finite differences
    gam = christoffels(st, np.array([1.5, 0.0]))
    assert abs(gam[0, 0, 0]) <= 1e-9 and abs(gam[1, 0, 0]) <= 1e-9


def test_shoot_null_ray():
    st = nd.builtin("minkowski", dim=4)
    v = np.array([1.0, 1.0, 0.0, 0.0])
    out = geodesic_shoot(st, [1.0, 0.0, 0.0, 0.0], v, 0.6, step=0.1)
    assert np.allclose(out, [1.6, 0.6, 0.0, 0.0], atol=1e-12)


def test_shoot_leaves_domain():
    st = nd.builtin("upper_half_minkowski", dim=2)
    with pytest.raises(LeftDomain):
        geodesic_shoot(st, [0.5, 0.0], [-1.0, 0.0], 1.0, step=0.05)


def test_build_chart_minkowski_axis_and_frame():
    st = nd.builtin("minkowski", dim=4)
    ch = build_chart(st, [0, 0, 0, 0], TimeSense.FUTURE, eps=0.4)
    for t in (-0.3, 0.0, 0.25):
        pos, vel, frame = ch.state(t)
        assert np.allclose(pos, [t, 0, 0, 0], atol=1e-12)
        assert np.allclose(vel, [1, 0, 0, 0], atol=1e-12)
    assert ch.frame_drift <= 1e-12
    assert ch.speed_drift <= 1e-12
    past = build_chart(st, [0, 0, 0, 0], TimeSense.PAST, eps=0.4)
    pos, vel, _ = past.state(0.3)
    assert np.allclose(pos, [-0.3, 0, 0, 0], atol=1e-12)


def test_build_chart_warped_drift():
    st = nd.builtin("warped_product", dim=2)
    ch = build_chart(st, [1.0, 0.0], TimeSense.FUTURE, eps=0.2, probe=False)
    assert ch.speed_drift < 1e-8
    assert ch.frame_drift < 1e-8


def test_chart_forward_flat_closed_form():
    st = nd.builtin("minkowski", dim=4)
    ch = build_chart(st, [0, 0, 0, 0], TimeSense.FUTURE, eps=0.5)
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = rng.uniform(-0.4, 0.4)
        x = rng.uniform(-0.3, 0.3, size=3)
        out = chart_forward(ch, t, x)
        expect = np.concatenate([[t + np.linalg.norm(x)], x])
        assert np.abs(out - expect).max() <= 1e-10
    # axis points map to the axis
    assert np.allclose(chart_forward(ch, 0.2, [0, 0, 0]), [0.2, 0, 0, 0])
    past = build_chart(st, [0, 0, 0, 0], TimeSense.PAST, eps=0.5)
    out = chart_forward(past, 0.2, [0.1, 0.0, 0.0])
    assert np.allclose(out, [-0.3, 0.1, 0.0, 0.0], atol=1e-10)


def test_chart_inverse_flat_examples():
    st = nd.builtin("minkowski", dim=4)
    ch = build_chart(st, [0, 0, 0, 0], TimeSense.FUTURE, eps=2.5)
    val = chart_inverse(ch, [2.0, 1.0, 0.0, 0.0])
    assert val.omega == pytest.approx(1.0, abs=1e-9)
    assert val.lam == pytest.approx(1.0, abs=1e-9)
    origin = chart_inverse(ch, [0.0, 0.0, 0.0, 0.0])
    assert origin.omega == pytest.approx(0.0, abs=1e-7)
    assert origin.lam == pytest.approx(0.0, abs=1e-7)
    assert origin.direction is None
    past = build_chart(st, [0, 0, 0, 0], TimeSense.PAST, eps=2.5)
    val = chart_inverse(past, [-2.0, 1.0, 0.0, 0.0])
    assert val.omega == pytest.approx(1.0, abs=1e-9)


def test_round_trip_off_axis():
    st = nd.builtin("minkowski", dim=4)
    ch = build_chart(st, [0, 0, 0, 0], TimeSense.FUTURE, eps=0.5)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        t = rng.uniform(-0.35, 0.35)
        x = rng.uniform(-0.25, 0.25, size=3)
        if np.linalg.norm(x) < 0.02:
            continue
        q = chart_forward(ch, t, x)
        val = chart_inverse(ch, q, tol=1e-12)
        assert abs(val.omega - t) <= 1e-8
        assert abs(val.lam - np.linalg.norm(x)) <= 1e-8
        assert np.abs(val.lam * val.direction - x).max() <= 1e-8


def test_curved_chart_round_trip():
    st = bump_conformal(dim=2, amp=0.01)
    ch = build_chart(st, [0.0, 0.0], TimeSense.FUTURE, eps=0.3, shoot_step=0.05,
                     probe=False)
    ch.domain_radius = 0.2
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = rng.uniform(-0.15, 0.15)
        x = rng.uniform(-0.15, 0.15, size=1)
        if abs(x[0]) < 0.03:
            continue
        q = chart_forward(ch, t, x)
        val = chart_inverse(ch, q, tol=1e-11)
        assert abs(val.omega - t) <= 1e-7
        assert abs(val.lam - abs(x[0])) <= 1e-7


def test_g_R_identity_flat():
    st = nd.builtin("minkowski", dim=4)
    ch = build_chart(st, [0, 0, 0, 0], TimeSense.FUTURE, eps=0.5)
    g = g_R_eval(ch, [0.1, 0.15, 0.05, 0.0])
    assert np.abs(g.entries - np.eye(4)).max() <= 1e-6
    ev = np.linalg.eigvalsh(g.entries)
    assert np.all(ev > 0)
    # on the axis |g(X,X)| = 1 so the e0 direction has unit g_R norm
    g_axis = g_R_eval(ch, [0.2, 0.0, 0.0, 0.0])
    e0 = np.array([1.0, 0, 0, 0])
    assert float(e0 @ g_axis.entries @ e0) == pytest.approx(1.0, abs=1e-9)


def test_g_R_perturbed_eigenvalues_near_one():
    st = bump_conformal(dim=2, amp=0.01)
    ch = build_chart(st, [0.0, 0.0], TimeSense.FUTURE, eps=0.3, shoot_step=0.05,
                     probe=False)
    ch.domain_radius = 0.2
    for q in ([0.05, 0.08], [0.0, 0.1], [-0.06, 0.05]):
        ev = np.linalg.eigvalsh(g_R_eval(ch, q).entries)
        assert np.all(ev > 0)
        assert np.abs(ev - 1.0).max() <= 0.05


def test_grad_norm_flat_sqrt2():
    st = nd.builtin("minkowski", dim=4)
    ch = build_chart(st, [0, 0, 0, 0], TimeSense.FUTURE, eps=0.5)
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = rng.uniform(-0.2, 0.2, size=4)
        if np.linalg.norm(q[1:]) < 0.05:
            continue
        gn = grad_norm_omega(ch, q)
        assert gn == pytest.approx(math.sqrt(2.0), abs=1e-3)
        assert gn < 2.0
    with pytest.raises(OnAxisDegenerate):
        grad_norm_omega(ch, [0.2, 0.0, 0.0, 0.0])


def test_grad_norm_formula_consistency():
    # the returned norm must match sqrt(2/|g(X,X)|) evaluated directly
    st = bump_conformal(dim=2, amp=0.01)
    ch = build_chart(st, [0.0, 0.0], TimeSense.FUTURE, eps=0.3, shoot_step=0.05,
                     probe=False)
    ch.domain_radius = 0.2
    from nulldist.optical import _chart_time_fields

    for q in ([0.02, 0.09], [-0.05, 0.12]):
        q = np.asarray(q, dtype=float)
        gn = grad_norm_omega(ch, q)
        val = chart_inverse(ch, q)
        X = _chart_time_fields(ch, [val])[0]
        g = ch.st.metric_at(q)
        expect = math.sqrt(2.0 / abs(float(X @ g @ X)))
        assert gn == pytest.approx(expect, abs=2e-3)
        assert gn < 2.0


def test_lipschitz_flat_1plus1():
    st = nd.builtin("minkowski", dim=2)
    ch = build_chart(st, [0.0, 0.0], TimeSense.FUTURE, eps=0.5)
    ratio = lipschitz_estimate(ch, n_pairs=400, seed=0, lattice_n=9)
    assert ratio == pytest.approx(math.sqrt(2.0), abs=0.05)
    assert ratio < 2.0


@pytest.mark.parametrize("name, dim, center, eps, n_pairs, lattice_n, want", [
    ("minkowski", 2, [0.0, 0.0], 0.5, 400, 9, 1.414213562373512),
    ("warped_product", 3, [1.0, 0.0, 0.0], 0.3, 200, 5, 1.4131215315307009),
])
def test_lipschitz_estimate_pinned(name, dim, center, eps, n_pairs, lattice_n, want):
    # exact values: the g_R lattice and its shortest paths are deterministic
    ch = build_chart(nd.builtin(name, dim=dim), center, TimeSense.FUTURE, eps=eps)
    assert lipschitz_estimate(ch, n_pairs=n_pairs, seed=0, lattice_n=lattice_n) == want


def test_omega_values_match_closed_form_along_cone():
    st = nd.builtin("minkowski", dim=2)
    ch = build_chart(st, [0.0, 0.0], TimeSense.FUTURE, eps=0.5)
    # causal pair: omega is monotone, with omega(q) = t - |x|
    q1 = np.array([0.1, 0.05])
    q2 = np.array([0.3, 0.15])
    w1, w2 = chart_inverse(ch, q1).omega, chart_inverse(ch, q2).omega
    assert w1 == pytest.approx(0.05, abs=1e-9)
    assert w2 == pytest.approx(0.15, abs=1e-9)
    assert w2 >= w1


def test_null_constraint_monitor():
    st = bump_conformal(dim=2, amp=0.05, width=0.3)
    ch = build_chart(st, [0.0, 0.0], TimeSense.FUTURE, eps=0.3, shoot_step=0.02,
                     probe=False)
    # a null chart shot keeps |g(u,u)| within the monitor band by construction
    out = chart_forward(ch, 0.05, [0.12])
    assert out.shape == (2,)


def test_step_too_large_trips_monitor():
    from nulldist.errors import StepTooLarge

    st = nd.builtin("warped_product", dim=2)
    g = st.metric_at(np.array([0.3, 0.0]))
    # exactly null at the start point; one giant step breaks the constraint
    v = np.array([1.0, math.sqrt(abs(g[0, 0]) / g[1, 1])])
    with pytest.raises(StepTooLarge):
        geodesic_shoot(st, [0.3, 0.0], v, 2.0, step=2.0)


def test_inverse_no_convergence_outside_chart():
    from nulldist.errors import NoConvergence

    st = nd.builtin("minkowski", dim=2)
    ch = build_chart(st, [0.0, 0.0], TimeSense.FUTURE, eps=0.2)
    with pytest.raises(NoConvergence):
        chart_inverse(ch, [5.0, 3.0])


@pytest.mark.parametrize("bad", [0.0, -0.2, math.nan, math.inf])
def test_build_chart_rejects_bad_widths(bad):
    st = nd.builtin("minkowski", dim=2)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        build_chart(st, [0.0, 0.0], eps=bad)
    with pytest.raises(ValueError, match="shoot_step must be finite and positive"):
        build_chart(st, [0.0, 0.0], eps=0.5, shoot_step=bad)


def test_malformed_optical_inputs_raise_value_error():
    ch = build_chart(nd.builtin("minkowski", dim=2), [0.0, 0.0], TimeSense.FUTURE, eps=0.5)
    for q in ([0.3], [0.3, 0.2, 0.0]):
        with pytest.raises(ValueError, match="event dimension"):
            chart_inverse(ch, q)
        with pytest.raises(ValueError, match="event dimension"):
            grad_norm_omega(ch, q)
        with pytest.raises(ValueError, match="event dimension"):
            g_R_eval(ch, q)
    for Q in ([0.3, 0.2], [[0.3, 0.2, 0.0]], [[[0.3, 0.2]]]):
        with pytest.raises(ValueError, match=r"Q must be an \(m, 2\) array"):
            nd.chart_inverse_batch(ch, Q)
    assert nd.chart_inverse_batch(ch, []) == []
    with pytest.raises(ValueError, match="lattice_n must be at least 2"):
        lipschitz_estimate(ch, lattice_n=1)
