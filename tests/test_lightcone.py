"""The one light-cone test against the per-segment code it replaced.

The references below classify one segment at a time with its own metric
evaluation, as PiecewiseCausalCurve.validate did before it went through
LightCone, and as curve_from_grid_path did before it read each sense from
the sign of the step's tau change.  The batched code must raise the same
exception with the same message (or pass), and tau must change along a
grid path in the sense the cone gives each step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import nulldist as nd
from nulldist.curves import (
    PiecewiseCausalCurve,
    curve_from_grid_path,
    null_length,
)
from nulldist.errors import InvalidSegment, NonFiniteValue
from nulldist.spacetime import NULL_TOL, LightCone

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def ref_validate(curve, tol=NULL_TOL):
    for i in range(curve.n_segments):
        a, b = curve.vertices[i], curve.vertices[i + 1]
        delta = b - a
        if np.abs(delta).max() == 0.0:
            continue
        mid = 0.5 * (a + b)
        g = curve.st.metric_batch(mid[None, :])[0]
        q = float(delta @ g @ delta)
        scale = float(np.abs(g).max())
        if q > tol * scale * float(delta @ delta):
            raise InvalidSegment(f"segment {i} is spacelike (g(d,d)={q:g})")


def ref_senses(st, verts):
    """Per step: 1 where the cone orientation d/dx0 says future, else -1."""
    e0 = np.eye(st.dim)[0]
    senses = []
    for i in range(verts.shape[0] - 1):
        delta = verts[i + 1] - verts[i]
        mid = 0.5 * (verts[i] + verts[i + 1])
        g = st.metric_batch(mid[None, :])[0]
        senses.append(1 if float(e0 @ g @ delta) < 0 else -1)
    return senses


def outcome(check):
    try:
        check()
    except InvalidSegment as exc:
        return type(exc), str(exc)
    return None


def phi(pts):
    return 1.0 + 0.3 * np.sin(pts[:, 0]) + 0.1 * pts[:, 1] ** 2


@hs.composite
def spacetimes(draw):
    kind = draw(hs.sampled_from(["minkowski", "warped_product", "constant_conformal",
                                 "callable_conformal", "missing_ray"]))
    if kind == "missing_ray":
        return nd.builtin("missing_ray", dim=4)
    dim = draw(hs.sampled_from([2, 3]))
    if kind == "warped_product":
        return nd.builtin(kind, dim=dim, slope=draw(hs.floats(0.1, 2.0)),
                          offset=draw(hs.floats(0.0, 1.0)))
    if kind == "constant_conformal":
        return nd.builtin("conformal", dim=dim, base="minkowski",
                          factor=draw(hs.floats(0.1, 5.0)))
    if kind == "callable_conformal":
        return nd.builtin("conformal", dim=dim, base="minkowski", factor=phi)
    return nd.builtin(kind, dim=dim)


def small_grid(st):
    if st.dim == 4:  # the missing ray at t >= 2 crosses the box
        box, h = [[1.0, 3.0]] + [[-0.5, 0.5]] * 3, 0.25
    else:
        box, h = [[0.5, 1.5]] + [[-0.5, 0.5]] * (st.dim - 1), 0.1
    return nd.build_grid(st, nd.coordinate_time(st), box, h)


@SETTINGS
@given(spacetimes(), hs.integers(0, 2**32 - 1))
def test_every_emitted_edge_validates(st, seed):
    grid = small_grid(st)
    rng = np.random.default_rng(seed)
    for e in rng.choice(grid.n_edges, size=min(grid.n_edges, 60), replace=False):
        verts = grid.coords[[grid.edge_u[e], grid.edge_v[e]]]
        PiecewiseCausalCurve(st, verts).validate()
        assert ref_senses(st, verts) == [1]


def test_band_is_closed():
    eta = np.diag([-1.0, 1.0])
    d = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    for tol, causal, null in ((1.0, [True, True, True], [True, True, True]),
                              (0.5, [False, True, True], [False, False, True])):
        cone = LightCone(np.stack([eta] * 3), d, np.zeros((3, 2)), tol)
        assert cone.causal.tolist() == causal and cone.null.tolist() == null


def test_orientation_only_on_causal_rows(monkeypatch):
    rows = []
    orient = LightCone.time_component
    monkeypatch.setattr(LightCone, "time_component",
                        lambda cone, sel: rows.append(len(cone.d[sel])) or orient(cone, sel))
    # the scale factor t crosses 1 in the box, so some offsets are causal on some rows only
    st = nd.builtin("warped_product", dim=3)
    grid = small_grid(st)
    assert sum(rows) == grid.n_edges  # no excision: every causal row becomes an edge
    rows.clear()
    curve = PiecewiseCausalCurve(st, [[1.0, 0, 0], [1.0, 1, 0], [2.0, 1, 0]])
    with pytest.raises(InvalidSegment, match="segment 0 is spacelike"):
        curve.validate()
    PiecewiseCausalCurve(st, [[1.0, 0, 0], [2.0, 0.5, 0]]).validate()
    assert rows == []  # validate() reads no orientation


@hs.composite
def mixed_curves(draw):
    """Chains of honest causal and still segments, each in turn replaced, one
    time in four, by a segment whose displacement kind is drawn freely:
    still, sub-1e-12 jitter, spacelike and oblique ones."""
    st = draw(spacetimes())
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    x = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, st.dim - 1)])
    verts = [x]
    for _ in range(draw(hs.integers(1, 6))):
        free = draw(hs.integers(0, 3)) == 0
        kind = draw(hs.sampled_from(["still", "jitter", "spacelike", "oblique", "timelike", "null"]
                                    if free else ["timelike", "null", "still"]))
        dt = rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
        step = np.zeros(st.dim)
        axis = rng.integers(1, st.dim)
        if kind == "timelike":
            step[0] = dt
        elif kind == "null":  # exactly null in the flat and conformal metrics
            step[0], step[axis] = dt, abs(dt) * rng.choice([-1.0, 1.0])
        elif kind == "spacelike":
            step[axis] = dt
        elif kind == "jitter":
            step[axis] = 1e-13 * rng.uniform(0.0, 20.0)
        elif kind == "oblique":
            step[0], step[axis] = dt, rng.uniform(0.5, 2.0) * dt
        x = x + step
        verts.append(x)
    return PiecewiseCausalCurve(st, np.array(verts))


@settings(SETTINGS, max_examples=100)  # enough to reach every failure kind
@given(mixed_curves(), hs.sampled_from([NULL_TOL, 1e-3, 1.0]))  # 1.0: q == band on axes
def test_validate_matches_per_segment_reference(curve, tol):
    assert outcome(lambda: curve.validate(tol)) == outcome(lambda: ref_validate(curve, tol))


@SETTINGS
@given(spacetimes(), hs.integers(0, 2**32 - 1))
def test_curve_senses_match_per_segment_reference(st, seed):
    grid = small_grid(st)
    rng = np.random.default_rng(seed)
    p = int(rng.choice(grid.edge_u))  # p has an edge, so its component holds q != p
    linked = np.isfinite(nd.null_distances_from(grid, p))
    linked[p] = False
    q = int(rng.choice(np.flatnonzero(linked)))
    _, path = nd.shortest_null_path(grid, p, q)
    senses = ref_senses(st, grid.coords[path])
    assert np.sign(np.diff(grid.tau_values[path])).tolist() == senses
    res = nd.null_distance_result(grid, p, q)
    assert np.array_equal(res.witness.vertices, grid.coords[path])
    assert res.reachable == (len(set(senses)) == 1)
    # a chain with a still step is no path of grid edges: the first step
    # that keeps tau fixed is named
    chain = list(rng.integers(0, grid.n_nodes, size=6))
    chain[2] = chain[1]
    tau = grid.tau_values[chain]
    k = int(np.flatnonzero(np.diff(tau) == 0.0)[0])
    with pytest.raises(ValueError, match=rf"^step {k} of the path, node {chain[k]} -> "):
        curve_from_grid_path(grid, chain)


def test_non_finite_midpoint_metric_raises():
    st = nd.builtin("conformal", dim=2, base="minkowski",
                    factor=lambda pts: np.where(pts[:, 0] > 0.4, np.nan, 1.0))
    spacelike = PiecewiseCausalCurve(st, [[0.6, 0.0], [0.61, 1.0]])
    future = PiecewiseCausalCurve(st, [[0.6, 0.0], [1.0, 0.1]])
    for curve in (spacelike, future):
        with pytest.raises(NonFiniteValue, match="metric is not finite at"):
            curve.validate()
        with pytest.raises(NonFiniteValue):
            null_length(curve, nd.coordinate_time(st))
