"""Time functions: evaluation, numeric cosmological time, anti-Lipschitz."""

import math
from dataclasses import replace

import numpy as np
import pytest

import nulldist as nd
from nulldist.errors import NoCausalPairs
from nulldist.timefn import TimeClaims, affine_time


def test_coordinate_time_values():
    st = nd.builtin("upper_half_minkowski", dim=4)
    tau = nd.coordinate_time(st)
    assert tau([1.5, 2.0, 0.0, 0.0]) == 1.5
    st2 = nd.builtin("missing_ray", dim=4)
    assert nd.coordinate_time(st2)([1.0, -1.0, 0.0, 0.0]) == 1.0
    assert tau.claims.anti_lipschitz
    assert tau.claims.proper and tau.claims.cosmological
    assert not nd.coordinate_time(st2).claims.proper  # level sets pinch at the ray


T, F = True, False
# (anti_lipschitz, proper, cosmological) of tau = t on each base spacetime
BASES = {
    "minkowski": (T, F, F),
    "upper_half_minkowski": (T, T, T),
    "missing_ray": (T, F, T),
    "warped_product": (T, T, T),
    "warped_offset": (T, T, F),
    "hand_built": (F, F, F),
}


def _base(name):
    if name == "warped_offset":
        return nd.builtin("warped_product", dim=3, offset=0.5)
    if name == "hand_built":  # a name that is not a built-in claims nothing
        st = nd.builtin("upper_half_minkowski", dim=3)
        return nd.Spacetime(dim=3, name=name, metric_batch=st.metric_batch,
                            domain_batch=st.domain_batch)
    return nd.builtin(name, dim=3)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("factor", [None, 1.0, 2.0, lambda pts: 1.0 + 0.1 * pts[:, 0] ** 2],
                         ids=["bare", "factor1", "factor2", "callable"])
def test_time_claims_of_t(base, factor):
    """coordinate_time and affine_time claim the same for tau = t: the claims
    table, with cosmological exactly where the analytic cosmological time is t."""
    st = _base(base)
    anti_lipschitz, proper, cosmological = BASES[base]
    if factor is not None:
        st = nd.builtin("conformal", base=st, factor=factor)
        cosmological = cosmological and factor == 1.0
    want = TimeClaims(anti_lipschitz=anti_lipschitz, proper=proper, cosmological=cosmological)
    tau, aff = nd.coordinate_time(st), affine_time(st)
    assert tau.claims == want
    assert aff.claims == tau.claims
    pts = np.random.default_rng(3).uniform([0.3, -2.0, -2.0], [2.8, 2.0, 2.0], size=(64, 3))
    assert np.all(aff.batch(pts) == tau.batch(pts))
    analytic = st.cosmological_time_analytic
    assert cosmological == (analytic is not None and bool(np.all(analytic(pts) == pts[:, 0])))
    for a, b in ((2.0, 0.0), (1.0, 0.5)):
        assert affine_time(st, a, b).claims == replace(want, cosmological=False)


def test_cubed_time_values():
    st = nd.builtin("minkowski", dim=2)
    tau = nd.cubed_time(st)
    assert tau([0.5, 0.0]) == 0.125
    assert tau([0.0, 3.0]) == 0.0
    assert tau([-1.0, 0.0]) == -1.0
    assert not tau.claims.anti_lipschitz


def test_scalar_value_is_batch_of_one():
    """tau(p) and tau.batch agree bit for bit, t**3 included."""
    st = nd.builtin("upper_half_minkowski", dim=3)
    pts = np.random.default_rng(5).uniform(-3.0, 3.0, size=(4000, 3))
    for tau in (nd.coordinate_time(st), nd.cubed_time(st), affine_time(st, 1.7, -0.3)):
        mismatched = [p for p in pts if tau(p) != tau.batch(p[None])[0]]
        assert not mismatched, (tau.name, len(mismatched))


def test_scalar_value_rejects_a_non_point():
    tau = nd.coordinate_time(nd.builtin("minkowski", dim=2))
    for p in ([np.nan, 0.0], [0.5, np.inf], [[0.5, 0.1]], 0.5):
        with pytest.raises(ValueError, match="^event coordinates must be a finite 1-d vector$"):
            tau(p)
    # tau does not know the dimension of its spacetime
    assert tau([0.5, 0.1, 0.3]) == 0.5


def upper_grid(dim=2, h=0.1, box=None):
    st = nd.builtin("upper_half_minkowski", dim=dim)
    tau = nd.coordinate_time(st)
    box = box or [(h, 2.0), (-1.0, 1.0)]
    return st, tau, nd.build_grid(st, tau, box, h)


def test_cosmological_time_upper_half():
    st, tau, grid = upper_grid()
    vals = nd.cosmological_time_numeric(grid)
    node = grid.node_of([1.0, 0.0])
    assert vals[node] == pytest.approx(1.0, abs=2 * grid.h)
    # the analytic answer is exact here: vertical chains realize it
    assert np.abs(vals - grid.coords[:, 0]).max() <= 1e-9


def test_cosmological_time_past_layer():
    st, tau, grid = upper_grid(h=0.1)
    sources = np.flatnonzero(grid.in_degrees() == 0)
    vals = nd.cosmological_time_numeric(grid)
    max_len = math.sqrt(8)  # radius-2 offsets in 1+1: |(2,2)| = sqrt(8)
    assert np.all(vals[sources] <= grid.h * max_len + 1e-12)


def test_cosmological_time_conformal_scaling():
    st = nd.builtin("conformal", base="upper_half_minkowski", dim=2, factor=2.0)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(0.1, 1.5), (-0.5, 0.5)], 0.1)
    vals = nd.cosmological_time_numeric(grid)
    node = grid.node_of([1.0, 0.0])
    assert vals[node] == pytest.approx(2.0, abs=4 * grid.h)


def test_cosmological_time_warped_matches_coordinate():
    # longest-path value agrees with the analytic cosmological time t
    st = nd.builtin("warped_product", dim=2)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(0.1, 2.0), (-0.5, 0.5)], 0.05)
    vals = nd.cosmological_time_numeric(grid)
    assert np.abs(vals - grid.coords[:, 0]).max() <= 2 * grid.h


def test_dp_monotone_with_edge_increments():
    st, tau, grid = upper_grid()
    vals = nd.cosmological_time_numeric(grid)
    lhs = vals[grid.edge_v]
    rhs = vals[grid.edge_u] + grid.edge_len
    assert np.all(lhs >= rhs - 1e-12)


def test_tau_monotone_along_edges():
    for name, mk in (("coordinate", nd.coordinate_time), ("cubed", nd.cubed_time)):
        st = nd.builtin("minkowski", dim=2)
        tau = mk(st)
        grid = nd.build_grid(st, tau, [(-0.5, 0.5), (-0.5, 0.5)], 0.1)
        tv = grid.tau_values
        assert np.all(tv[grid.edge_v] > tv[grid.edge_u]), name


def test_cosmological_claim_range():
    st, tau, grid = upper_grid()
    assert tau.claims.cosmological
    assert np.all(grid.tau_values > 0.0)


def test_anti_lipschitz_minkowski_cone_constant():
    st = nd.builtin("minkowski", dim=4)
    tau = nd.coordinate_time(st)
    box = [(0.5, 1.5), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)]
    grid = nd.build_grid(st, tau, box, 0.25)
    rep = nd.check_anti_lipschitz(grid, box, n_sources=48, seed=0)
    assert rep.lambda_best == pytest.approx(1.0 / math.sqrt(2.0), abs=0.05)
    assert rep.lambda_best >= 0.6
    assert rep.pairs_tested > 0 and not rep.violations


def test_anti_lipschitz_cubed_time_degenerates():
    st = nd.builtin("minkowski", dim=2)
    tau = nd.cubed_time(st)
    box = [(-0.03, 0.03), (-0.05, 0.05)]
    grid = nd.build_grid(st, tau, box, 0.01)
    rep = nd.check_anti_lipschitz(grid, box, n_sources=64, seed=1)
    assert rep.lambda_best <= 0.05


def test_anti_lipschitz_vertical_pairs_ratio_one():
    st = nd.builtin("minkowski", dim=2)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(0.5, 1.5), (-0.5, 0.5)], 0.1)
    # restrict the region to a single spatial column: only vertical pairs
    rep = nd.check_anti_lipschitz(grid, [(0.5, 1.5), (0.0, 0.0)], n_sources=16, seed=0)
    assert rep.lambda_best == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("b", [0.0, 1.0])
def test_anti_lipschitz_affine_covariance(a, b):
    st = nd.builtin("minkowski", dim=2)
    box = [(0.5, 1.5), (-0.5, 0.5)]
    tau_ref = nd.coordinate_time(st)
    grid_ref = nd.build_grid(st, tau_ref, box, 0.1)
    base = nd.check_anti_lipschitz(grid_ref, box, n_sources=32, seed=5)
    tau = affine_time(st, scale=a, offset=b)
    grid = nd.build_grid(st, tau, box, 0.1)
    rep = nd.check_anti_lipschitz(grid, box, n_sources=32, seed=5)
    assert rep.lambda_best == pytest.approx(a * base.lambda_best, rel=1e-9)


def test_anti_lipschitz_no_pairs():
    st, tau, grid = upper_grid()
    with pytest.raises(NoCausalPairs):
        nd.check_anti_lipschitz(grid, [(5.0, 6.0), (5.0, 6.0)])


@pytest.mark.parametrize("region", [[(0.5, 1.5)], [(0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)]])
def test_anti_lipschitz_region_of_wrong_dimension(region):
    st, tau, grid = upper_grid()
    with pytest.raises(ValueError, match="region dimension"):
        nd.check_anti_lipschitz(grid, region)


@pytest.mark.parametrize("region", [[(0.5, 1.5), (0.5, -0.5)], [(0.5, 1.5), (math.nan, 0.5)]])
def test_anti_lipschitz_rejects_malformed_region(region):
    st, tau, grid = upper_grid()
    with pytest.raises(ValueError, match="region pair"):
        nd.check_anti_lipschitz(grid, region)


def test_regularity_upper_half_true():
    st = nd.builtin("upper_half_minkowski", dim=2)
    tau = nd.coordinate_time(st)
    # box reaching the past domain boundary: chain ends sit at tau ~ h
    grid = nd.build_grid(st, tau, [(0.0, 1.0), (-0.5, 0.5)], 0.05)
    assert nd.check_regularity(grid).ok


def test_regularity_full_minkowski_false():
    st = nd.builtin("minkowski", dim=2)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(-1.0, 1.0), (-1.0, 1.0)], 0.05)
    rep = nd.check_regularity(grid)
    assert not rep.ok
    assert rep.worst_source_tau == pytest.approx(1.0)


def test_regularity_shifted_false():
    st = nd.builtin("upper_half_minkowski", dim=2)
    tau = affine_time(st, scale=1.0, offset=5.0)
    grid = nd.build_grid(st, tau, [(0.0, 1.0), (-0.5, 0.5)], 0.05)
    assert not nd.check_regularity(grid).ok


def test_regularity_missing_ray_floor_box():
    st = nd.builtin("missing_ray", dim=4)
    tau = nd.coordinate_time(st)
    grid = nd.build_grid(st, tau, [(0.0, 3.0), (-1.0, 1.0), (-0.5, 0.5), (-0.5, 0.5)], 0.25)
    assert nd.check_regularity(grid).ok
