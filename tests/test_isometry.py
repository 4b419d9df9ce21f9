"""Rigidity: preservation checks, conformal factors, coarea comparison."""

import math

import numpy as np
import pytest

import nulldist as nd
from nulldist.errors import MapLeavesGrid, NonPositivePhi, SingularJacobian
from nulldist.isometry import (
    RigidityVerdict,
    assess_conformal,
    dilation_map,
    identity_map,
    rotation_map,
    table_map,
    translation_map,
)
from nulldist.spacetime import NULL_TOL, LightCone, Spacetime


def upper_pair(factor=2.0, dim=2, h=0.1):
    box = [(0.5, 1.5)] + [(-0.5, 0.5)] * (dim - 1)
    st1 = nd.builtin("upper_half_minkowski", dim=dim)
    st2 = nd.builtin("conformal", base="upper_half_minkowski", dim=dim, factor=factor)
    tau1, tau2 = nd.coordinate_time(st1), nd.coordinate_time(st2)
    g1 = nd.build_grid(st1, tau1, box, h)
    g2 = nd.build_grid(st2, tau2, box, h)
    return st1, st2, tau1, tau2, g1, g2, box


def test_identity_preserves_everything():
    st1, _, tau1, _, g1, _, _ = upper_pair()
    rep = nd.check_preserving(identity_map(), g1, g1, n_pairs=80)
    assert rep.passed and rep.max_dhat_dev == 0.0 and rep.max_tau_dev == 0.0


def test_conformal_trap_preserves():
    # identity between (N, g, t) and (N, phi^2 g, t): null distances agree
    # because the same curves are piecewise causal for both metrics
    st1, st2, tau1, tau2, g1, g2, _ = upper_pair(factor=2.0)
    rep = nd.check_preserving(identity_map(), g1, g2, n_pairs=80)
    assert rep.passed


def test_translation_preserves():
    st = nd.builtin("minkowski", dim=2)
    tau = nd.coordinate_time(st)
    g1 = nd.build_grid(st, tau, [(0.0, 1.0), (-0.5, 0.5)], 0.1)
    g2 = nd.build_grid(st, tau, [(0.0, 1.0), (0.0, 1.0)], 0.1)
    rep = nd.check_preserving(translation_map([0.0, 0.5]), g1, g2, n_pairs=60)
    assert rep.max_dhat_dev <= 1e-12
    # tau deviation is zero because the shift is purely spatial
    assert rep.max_tau_dev == 0.0


def test_map_leaves_grid():
    st = nd.builtin("minkowski", dim=2)
    tau = nd.coordinate_time(st)
    g1 = nd.build_grid(st, tau, [(0.0, 1.0), (-0.5, 0.5)], 0.1)
    with pytest.raises(MapLeavesGrid):
        nd.check_preserving(translation_map([50.0, 0.0]), g1, g1)


def test_check_preserving_symmetric_under_inverse_table():
    st = nd.builtin("minkowski", dim=2)
    tau = nd.coordinate_time(st)
    box = [(0.0, 0.6), (-0.3, 0.3)]
    grid = nd.build_grid(st, tau, box, 0.1)
    shift = np.array([0.0, 0.1])
    g2 = nd.build_grid(st, tau, [(0.0, 0.6), (-0.2, 0.4)], 0.1)
    fwd = table_map(grid.coords, grid.coords + shift)
    bwd = table_map(grid.coords + shift, grid.coords)
    r1 = nd.check_preserving(fwd, grid, g2, n_pairs=40, seed=3)
    r2 = nd.check_preserving(bwd, g2, grid, n_pairs=40, seed=3)
    assert r1.passed and r2.passed


def test_conformal_factor_examples():
    st1 = nd.builtin("minkowski", dim=4)
    st2 = nd.builtin("conformal", base="minkowski", dim=4, factor=2.0)
    p = [1.0, 0.2, -0.3, 0.5]
    (phi,), (disp,) = nd.conformal_factors(identity_map(), st1, st2, [p])
    assert phi == pytest.approx(2.0, abs=1e-6) and disp < 0.02
    (phi,), _ = nd.conformal_factors(dilation_map(2.0), st1, st1, [p])
    assert phi == pytest.approx(2.0, abs=1e-6)
    (phi,), (disp,) = nd.conformal_factors(rotation_map(1, 2, 0.7), st1, st1, [p])
    assert phi == pytest.approx(1.0, abs=1e-6) and disp < 0.02


def ref_conformal_factor(pmap, st1, st2, p):
    """The point-at-a-time estimate: a map call per Jacobian column and a
    Python loop over the test vectors."""
    p = np.asarray(p, dtype=float)
    dim = p.shape[0]
    J = np.empty((dim, dim))
    for a in range(dim):
        pp, pm = p.copy(), p.copy()
        pp[a] += 1e-6
        pm[a] -= 1e-6
        J[:, a] = (pmap(pp) - pmap(pm)) / (2 * 1e-6)
    if abs(np.linalg.det(J)) < 1e-12:
        raise SingularJacobian(f"map Jacobian singular at {p.tolist()}")
    M = J.T @ st2.metric_at(pmap(p)) @ J
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
    return math.sqrt(phi2), max(spread, null_defect / phi2)


def half_null(dim):
    """-dt^2 + sum_i c_i(x) dx_i^2 with c_i = 1 (e0 +- e_i null) on odd i where
    x1 > 0, else t^2: points differ in how many test vectors are null."""
    def metric(pts):
        g = np.zeros((pts.shape[0], dim, dim))
        g[:, 0, 0] = -1.0
        for i in range(1, dim):
            g[:, i, i] = np.where((pts[:, 1] > 0) & (i % 2 == 1), 1.0, pts[:, 0] ** 2)
        return g

    return Spacetime(dim=dim, name="half_null", metric_batch=metric,
                     domain_batch=lambda pts: pts[:, 0] > 0)


SPACETIME_PAIRS = {
    "flat": lambda dim: (nd.builtin("minkowski", dim=dim),) * 2,
    "warped": lambda dim: (nd.builtin("warped_product", dim=dim),) * 2,
    "flat-conformal": lambda dim: (nd.builtin("minkowski", dim=dim),
                                   nd.builtin("conformal", base="minkowski", dim=dim,
                                              factor=2.0)),
    "warped-conformal": lambda dim: (nd.builtin("warped_product", dim=dim),
                                     nd.builtin("conformal", base="warped_product", dim=dim,
                                                factor=1.5)),
    "half-null": lambda dim: (half_null(dim), nd.builtin("warped_product", dim=dim)),
}
MAPS = {
    "identity": lambda dim: identity_map(),
    "translate": lambda dim: translation_map([0.0] + [0.3] * (dim - 1)),
    "dilate": lambda dim: dilation_map(1.7),
    "rotate-space": lambda dim: rotation_map(1, 2, 0.7),
    "rotate-time-space": lambda dim: rotation_map(0, 1, 0.3),
}


@pytest.mark.parametrize("dim", [3, 4, 5])
@pytest.mark.parametrize("pair", sorted(SPACETIME_PAIRS))
def test_conformal_factors_match_pointwise_reference(pair, dim):
    st1, st2 = SPACETIME_PAIRS[pair](dim)
    rng = np.random.default_rng(dim)
    P = np.column_stack([rng.uniform(1.0, 2.0, 24), rng.uniform(-0.5, 0.5, (24, dim - 1))])
    for name, make in sorted(MAPS.items()):
        pmap = make(dim)
        got = list(zip(*nd.conformal_factors(pmap, st1, st2, P)))
        want = [ref_conformal_factor(pmap, st1, st2, p) for p in P]
        assert bits(got) == bits(want), name


def bits(rows):
    return [tuple(float(x).hex() for x in row) for row in rows]


def test_conformal_factors_name_first_singular_point():
    st = nd.builtin("minkowski", dim=2)

    def fold(c):  # collapses x onto 0 where x > 0
        return np.column_stack([c[:, 0], np.minimum(c[:, 1], 0.0)])

    P = np.array([[1.0, -0.3], [1.0, 0.25], [1.0, 0.4]])
    with pytest.raises(SingularJacobian, match=r"\[1\.0, 0\.25\]"):
        nd.conformal_factors(nd.PointMap(forward=fold), st, st, P)
    phi, _ = nd.conformal_factors(nd.PointMap(forward=fold), st, st, P[:1])
    assert phi[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("forward", [lambda c: c[:, :1], lambda c: c[0], lambda c: c.T])
def test_point_map_rejects_images_of_another_shape(forward):
    pmap = nd.PointMap(forward=forward)
    st = nd.builtin("minkowski", dim=3)
    with pytest.raises(ValueError, match="shape"):
        pmap(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="shape"):
        nd.conformal_factors(pmap, st, st, [[1.0, 0.1, 0.2]])


def test_point_maps_take_batches():
    P = np.array([[1.0, 0.2, -0.3], [1.5, -0.4, 0.1]])
    rot = rotation_map(0, 2, 0.4)
    assert np.array_equal(rot(P), np.array([rot(p) for p in P]))
    c, s = math.cos(0.4), math.sin(0.4)
    assert rot(P[0]).tolist() == [c * 1.0 - s * -0.3, 0.2, s * 1.0 + c * -0.3]
    table = table_map(P, P[::-1])
    assert np.array_equal(table(P), P[::-1])
    with pytest.raises(MapLeavesGrid):
        table(P + 1.0)


@pytest.mark.parametrize("axes", [(1, 1), (0, 0), (-1, 1), (1, -2)])
def test_rotation_map_rejects_a_repeated_or_negative_axis(axes):
    with pytest.raises(ValueError, match="axes"):
        rotation_map(*axes, 0.3)


def test_conformal_factor_flags_non_conformal():
    st1 = nd.builtin("minkowski", dim=2)

    def squash(c):
        return np.column_stack([c[:, 0], 2.0 * c[:, 1]])

    pmap = nd.PointMap(forward=squash)
    _, (disp,) = nd.conformal_factors(pmap, st1, st1, [[0.3, 0.4]])
    assert disp > 0.02  # anisotropic stretch breaks conformality


def test_coarea_constant_factors():
    st = nd.builtin("minkowski", dim=4)
    region = [(1.0, 2.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
    res = nd.coarea_volume_compare(st, lambda pts: np.full(pts.shape[0], 2.0),
                                   region, 0.25)
    assert res.vol_n == pytest.approx(8.0, rel=1e-12)
    assert res.vol_nm1 == pytest.approx(4.0, rel=1e-12)
    assert res.verdict is RigidityVerdict.CONFORMAL_NOT_ISOMETRIC
    res1 = nd.coarea_volume_compare(st, lambda pts: np.ones(pts.shape[0]),
                                    region, 0.25)
    assert res1.vol_n == res1.vol_nm1
    assert res1.verdict is RigidityVerdict.ISOMETRY


@pytest.mark.parametrize("c,sign", [(0.5, -1), (1.0, 0), (2.0, 1)])
def test_coarea_difference_sign(c, sign):
    st = nd.builtin("minkowski", dim=4)
    region = [(1.0, 2.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
    res = nd.coarea_volume_compare(st, lambda pts: np.full(pts.shape[0], c),
                                   region, 0.25)
    diff = res.vol_n - res.vol_nm1
    if sign == 0:
        assert diff == 0.0
    else:
        assert math.copysign(1, diff) == sign


def test_coarea_detects_varying_phi():
    st = nd.builtin("minkowski", dim=4)
    region = [(0.0, 1.0), (0.0, math.pi), (0.0, 1.0), (0.0, 1.0)]

    def phi(pts):
        return 1.0 + 0.1 * np.sin(pts[:, 1])

    res = nd.coarea_volume_compare(st, phi, region, 0.05)
    fine = nd.coarea_volume_compare(st, phi, region, 0.025)
    # integral of phi^2 (phi - 1) > 0: detected at h and stable under h/2
    assert res.vol_n - res.vol_nm1 > 0.01
    assert res.vol_n - res.vol_nm1 == pytest.approx(fine.vol_n - fine.vol_nm1, rel=1e-2)
    assert res.verdict is RigidityVerdict.CONFORMAL_NOT_ISOMETRIC


def test_coarea_rejects_nonpositive_phi():
    st = nd.builtin("minkowski", dim=2)
    with pytest.raises(NonPositivePhi):
        nd.coarea_volume_compare(st, lambda pts: np.zeros(pts.shape[0]),
                                 [(0.0, 1.0), (0.0, 1.0)], 0.25)


@pytest.mark.parametrize("region,h", [
    ([(1.0, 2.0)] + [(0.0, 1.0)] * 5, 0.25),  # six axes on a 4-D spacetime
    ([(1.0, 2.0), (0.0, 1.0)], 0.25),  # two axes
    ([(2.0, 1.0)] + [(0.0, 1.0)] * 3, 0.25),  # lo > hi
    ([(1.0, 2.0), (0.0, math.nan), (0.0, 1.0), (0.0, 1.0)], 0.25),
    ([(1.0, 2.0), (0.0, math.inf), (0.0, 1.0), (0.0, 1.0)], 0.25),
    ([(1.0, 2.0)] + [(0.0, 1.0)] * 3, -0.25),
    ([(1.0, 2.0)] + [(0.0, 1.0)] * 3, 0.0),
    ([(1.0, 2.0)] + [(0.0, 1.0)] * 3, math.nan),
    ([(1.0, 2.0)] + [(0.0, 1.0)] * 3, math.inf),
])
@pytest.mark.filterwarnings("error")
def test_coarea_rejects_malformed_region_or_spacing(region, h):
    st = nd.builtin("minkowski", dim=4)
    with pytest.raises(ValueError, match="region|h must"):
        nd.coarea_volume_compare(st, lambda pts: np.ones(pts.shape[0]), region, h)
    with pytest.raises(ValueError, match="region|h must"):
        nd.assess_conformal(identity_map(), st, st, region, h)


def test_coarea_warped_volume_element():
    # density sqrt|det g| = f(t)^(dim-1) must weight the sums
    st = nd.builtin("warped_product", dim=2)
    region = [(1.0, 2.0), (0.0, 1.0)]
    res = nd.coarea_volume_compare(st, lambda pts: np.ones(pts.shape[0]),
                                   region, 0.01)
    assert res.vol_n == pytest.approx(1.5, abs=1e-3)  # integral of t dt dx


def test_assess_conformal_verdicts():
    st1, st2, tau1, tau2, g1, g2, box = upper_pair(factor=2.0, dim=4, h=0.25)
    rep = nd.assess_conformal(identity_map(), st1, st2, box, 0.25)
    assert rep.verdict is RigidityVerdict.CONFORMAL_NOT_ISOMETRIC
    assert all(abs(phi - 2.0) < 1e-6 for _, phi in rep.phi_samples)
    assert rep.dimension_ok
    ident = nd.assess_conformal(identity_map(), st1, st1, box, 0.25)
    assert ident.verdict is RigidityVerdict.ISOMETRY


def test_assess_conformal_dimension_flag():
    st1, st2, tau1, tau2, g1, g2, box = upper_pair(factor=2.0, dim=2)
    rep = nd.assess_conformal(identity_map(), st1, st2, box, 0.1)
    assert not rep.dimension_ok
    assert "dimension" in rep.note


def test_rigidity_rehearsal_end_to_end():
    """The conformal trap passes distance checks with coordinate time on both
    sides, but recomputing the rescaled side's cosmological time exposes it."""
    st1, st2, tau1, tau2, g1, g2, box = upper_pair(factor=2.0)
    rep = nd.check_preserving(identity_map(), g1, g2, n_pairs=80)
    assert rep.passed  # the trap: d-hat and declared tau both agree
    assert not tau2.claims.cosmological  # the declared tau2 is not cosmological
    # cosmological time of phi^2 g doubles; tau-preservation then fails
    tau2_numeric = nd.cosmological_time_numeric(g2)
    node = g2.node_of([1.0, 0.0])
    tau1_val = g1.tau_values[g1.node_of([1.0, 0.0])]
    assert abs(tau2_numeric[node] - 2.0) <= 4 * g2.h
    assert abs(tau1_val - tau2_numeric[node]) > 0.5  # preservation broken
