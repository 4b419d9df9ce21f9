"""cosmo-time's batched paths against the code they replaced.

* ``build_grid`` reads the out-CSR off one table of lattice neighbours on a
  constant metric; the reference below is the emission it replaced, every
  offset's edges tested pair by pair, concatenated and sorted stably by
  source.
* ``build_grid`` runs the cone test of every offset in one batch, and pairs
  only the causal offsets, on a spacetime declared ``constant_metric``; with
  the declaration removed it runs it on every candidate edge, and both must
  give the same grid bit for bit.
* ``_boundary_base`` bisects every source at once; the reference below is the
  scalar bisection, one ``domain_contains`` call per step and source.
* ``_emit_csv`` formats one row per call, or each repeated value once; the
  reference is ``csv.writer`` with ``f"{x:.12g}"`` fields, and the cosmo-time
  rows built one node at a time.
"""

import csv
import dataclasses
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import nulldist as nd
from nulldist.cli import _emit_csv, main
from nulldist.errors import CyclicGraph, NoCausalEdges, NonFiniteValue, NotATimeFunction
from nulldist.grid import Lattice
from nulldist.spacetime import NULL_TOL, LightCone
from nulldist.timefn import _boundary_base

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
GRID_ARRAYS = ("coords", "edge_u", "edge_v", "edge_len", "tau_values")


def ref_boundary_base(grid, node_coords):
    st = grid.st
    lo_t = grid.params.lo()[0]
    extent_t = grid.params.hi()[0] - lo_t
    t_node = node_coords[0]
    t_low = lo_t - 2.0 * max(extent_t, grid.h)

    def inside(t):
        c = node_coords.copy()
        c[0] = t
        return st.domain_contains(c)

    if inside(t_low):
        t_bound = lo_t
    else:
        a, b = t_low, t_node
        for _ in range(80):
            m = 0.5 * (a + b)
            if inside(m):
                b = m
            else:
                a = m
        t_bound = b
    if t_bound >= t_node:
        return 0.0
    nstep = 64
    ts = np.linspace(t_bound, t_node, nstep + 1)
    mids = 0.5 * (ts[:-1] + ts[1:])
    pts = np.repeat(node_coords[None, :], nstep, axis=0)
    pts[:, 0] = mids
    g = st.metric_batch(pts)
    speed = np.sqrt(np.abs(g[:, 0, 0]))
    return float(np.sum(speed) * (t_node - t_bound) / nstep)


def ref_csv(header, rows):
    def fmt(x):
        return f"{x:.12g}" if isinstance(x, (float, np.floating)) else x

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(x) for x in row])
    return buf.getvalue()


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def phi(pts):
    return 1.0 + 0.3 * np.sin(pts[:, 0]) + 0.1 * pts[:, 1] ** 2


def box_for(st):
    """A small box inside the domain; the missing ray crosses it at t >= 2."""
    t = [1.0, 3.0] if st.excisions else [0.5, 1.5]
    return [t] + [[-0.5, 0.5]] * (st.dim - 1)


@hs.composite
def constant_spacetimes(draw):
    dim = draw(hs.integers(2, 4))
    kind = draw(hs.sampled_from(["minkowski", "upper_half_minkowski", "missing_ray",
                                 "conformal"]))
    if kind == "conformal":
        base = draw(hs.sampled_from(["minkowski", "upper_half_minkowski", "missing_ray"]))
        return nd.builtin(kind, dim=dim, base=base, factor=draw(hs.floats(0.1, 5.0)))
    return nd.builtin(kind, dim=dim)


@SETTINGS
@given(constant_spacetimes(), hs.integers(1, 3), hs.booleans(), hs.integers(0, 2**32 - 1))
def test_constant_metric_holds(st, radius, include_null_exact, seed):
    assert st.constant_metric
    rng = np.random.default_rng(seed)
    lo, hi = np.array(box_for(st)).T
    g = st.metric_batch(rng.uniform(lo, hi, size=(50, st.dim)))
    assert bits(g) == bits(np.broadcast_to(g[:1], g.shape))

    h = 0.25 if st.dim == 4 else 0.1
    tau = nd.coordinate_time(st)
    stencil = nd.StencilSpec(radius=radius, include_null_exact=include_null_exact)
    fast = nd.build_grid(st, tau, box_for(st), h, stencil)
    slow = nd.build_grid(dataclasses.replace(st, constant_metric=False), tau, box_for(st),
                         h, stencil)
    for name in GRID_ARRAYS:
        assert bits(getattr(fast, name)) == bits(getattr(slow, name)), name


def ref_emission(st, tau, box, h, radius):
    """(edge_u, edge_v, edge_len, edge_offsets) as build_grid emitted them
    before the table read: per offset, every pair's cone at its midpoint,
    the edges appended in pair order, then one stable sort by source.
    Raises NotATimeFunction, NoCausalEdges or CyclicGraph as build_grid
    and time_layers do."""
    lo, hi = np.array(box, dtype=float).T
    shape = (np.floor((hi - lo) / h + 1e-9) + 1).astype(np.int64)
    axes = np.meshgrid(*[lo[a] + h * np.arange(shape[a]) for a in range(st.dim)], indexing="ij")
    coords = np.stack([g.ravel() for g in axes], axis=1)
    keep = st.domain_batch(coords)
    for exc in st.excisions:
        keep &= exc.distance(coords) >= 0.5 * h
    lattice = Lattice(keep.reshape(tuple(shape)), radius)
    coords = coords[keep]
    tau_values = tau.batch(coords)
    offsets = np.array([o for o in itertools.product(range(-radius, radius + 1), repeat=st.dim)
                        if o > (0,) * st.dim], dtype=np.int64)
    eu, ev, el, carriers = [], [], [], []
    for i, o in enumerate(offsets):
        a, b = lattice.pairs(o)
        if not a.size:
            continue
        delta = o.astype(float) * h
        rows = coords[a] + 0.5 * delta
        cone = LightCone(st.metric_batch(rows), delta[None], rows, NULL_TOL)
        causal = cone.causal
        if not np.any(causal):
            continue
        future = cone.future(causal)
        length = np.sqrt(np.abs(cone.q[causal]))
        a, b = a[causal], b[causal]
        u, v = np.where(future, a, b), np.where(future, b, a)
        clear = np.ones(a.shape[0], dtype=bool)
        for exc in st.excisions:
            clear &= exc.segment_distance(coords[a], coords[b]) >= 0.5 * h
        if not np.any(clear):
            continue
        u, v, length = u[clear], v[clear], length[clear]
        if not np.all(tau_values[v] - tau_values[u] > 0.0):
            raise NotATimeFunction()
        eu.append(u)
        ev.append(v)
        el.append(length)
        carriers.append(i)
    if not eu:
        raise NoCausalEdges()
    order = np.argsort(np.concatenate(eu), kind="stable")
    u, v, length = (np.concatenate(x)[order] for x in (eu, ev, el))
    if np.any(coords[v, 0] <= coords[u, 0]):
        raise CyclicGraph()
    return u, v, length, offsets[carriers]


def null_coordinates(dim):
    """Flat, in null coordinates along axes 0 and 1: d/dx0 is null, so the
    edges along axis 0 point to its past and time_layers raises CyclicGraph."""
    def metric(pts):
        g = np.zeros((len(pts), dim, dim))
        g[:, 0, 1] = g[:, 1, 0] = -0.5
        g[:, range(2, dim), range(2, dim)] = 1.0
        return g

    return nd.Spacetime(dim=dim, name="null_coordinates", metric_batch=metric,
                        domain_batch=lambda pts: np.ones(len(pts), dtype=bool),
                        constant_metric=True)


@hs.composite
def emission_scenes(draw):
    dim = draw(hs.integers(2, 4))
    kind = draw(hs.sampled_from(["minkowski", "upper_half_minkowski", "missing_ray",
                                 "warped_product", "conformal", "null_coordinates"]))
    warped = {"slope": draw(hs.sampled_from([0.5, 1.0])), "offset": 0.2}
    if kind == "null_coordinates":
        st = null_coordinates(dim)
    elif kind == "warped_product":
        st = nd.builtin(kind, dim=dim, **warped)
    elif kind == "conformal":
        base = draw(hs.sampled_from(["minkowski", "upper_half_minkowski", "missing_ray",
                                     "warped_product"]))
        base = nd.builtin(base, dim=dim, **(warped if base == "warped_product" else {}))
        st = nd.builtin(kind, base=base, factor=draw(hs.sampled_from([2.5, phi])))
    else:
        st = nd.builtin(kind, dim=dim)
    h = {2: 0.1, 3: 0.2, 4: 0.25}[dim]
    t0 = draw(hs.sampled_from([0.5, 1.0]))
    box = [[t0, t0 + draw(hs.sampled_from([0.0, 0.5, 1.0, 2.0]))]]
    box += [[-w, w] for w in draw(hs.lists(hs.sampled_from([0.0, 0.2, 0.5]),
                                           min_size=dim - 1, max_size=dim - 1))]
    # coordinate time, or a tilt that fails to rise along some causal edges
    c = draw(hs.sampled_from([1.0, 3.0] if kind == "null_coordinates" else
                             [0.0, 0.0, 0.5, 1.5]))
    sense = -1.0 if c == 3.0 else 1.0
    tau = nd.timefn.TimeFunction(lambda p: sense * p[:, 0] + c * p[:, 1], nd.timefn.TimeClaims())
    return st, tau, box, h, draw(hs.integers(1, 3))


def outcome(run):
    try:
        return run()
    except (NotATimeFunction, NoCausalEdges, CyclicGraph) as err:
        return type(err)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(emission_scenes())
def test_table_read_matches_sorted_lists(scene):
    st, tau, box, h, radius = scene

    def table_read():
        grid = nd.build_grid(st, tau, box, h, nd.StencilSpec(radius=radius))
        indptr, nbr = grid.csr_out()
        assert nbr is grid.edge_v
        assert bits(grid.edge_u) == bits(np.repeat(np.arange(grid.n_nodes), np.diff(indptr)))
        grid.time_layers()
        return grid.edge_u, grid.edge_v, grid.edge_len, grid.edge_offsets, indptr

    got, want = outcome(table_read), outcome(lambda: ref_emission(st, tau, box, h, radius))
    if isinstance(want, type):
        assert got is want
    else:
        for a, b in zip(got, want):
            assert bits(a) == bits(b)
        n = len(got[4]) - 1
        assert bits(got[4]) == bits(np.searchsorted(want[0], np.arange(n + 1)))


@pytest.mark.parametrize("constant", [True, False])
def test_collapsed_time_axis_is_cyclic(constant):
    """Near t = 2^53 at h = 1, ``lo + h k`` rounds 2^53 + 1 down to 2^53, so
    edges join nodes of equal coordinate 0, although every causal offset
    steps coordinate 0 forward and tau = x1 rises along each of them."""
    def metric(pts):
        g = np.zeros((len(pts), 2, 2))
        g[:, 0, 0] = g[:, 1, 1] = 0.1
        g[:, 0, 1] = g[:, 1, 0] = -0.5
        return g

    st = nd.Spacetime(dim=2, name="tilted_cone", metric_batch=metric,
                      domain_batch=lambda pts: np.ones(len(pts), dtype=bool),
                      constant_metric=constant)
    tau = nd.timefn.TimeFunction(lambda p: p[:, 1], nd.timefn.TimeClaims())
    box, h = [[2.0**53, 2.0**53 + 4], [0.0, 4.0]], 1.0
    grid = nd.build_grid(st, tau, box, h)
    assert grid.n_edges and np.all(grid.directions[:, 0] > 0)
    with pytest.raises(CyclicGraph):
        grid.time_layers()
    assert outcome(lambda: ref_emission(st, tau, box, h, 2)) is CyclicGraph


def test_constant_metric_of_the_builtins():
    assert nd.builtin("upper_half_minkowski").constant_metric
    assert nd.builtin("conformal", base="missing_ray", factor=2.0).constant_metric
    assert not nd.builtin("warped_product", slope=0.5).constant_metric
    assert not nd.builtin("conformal", base="warped_product", factor=2.0).constant_metric
    assert not nd.builtin("conformal", base="minkowski", factor=phi).constant_metric
    assert not nd.Spacetime(dim=2, name="hand_built", metric_batch=None,
                            domain_batch=None).constant_metric


def nan_metric(constant):
    flat = nd.builtin("minkowski", dim=2)
    return dataclasses.replace(flat, constant_metric=constant,
                               metric_batch=lambda pts: np.full((len(pts), 2, 2), np.nan))


def test_constant_nan_metric_names_the_same_midpoint():
    # the second box is one lattice point thick along x: the first offsets,
    # along x, have no pair, and the first candidate lies on the t axis
    for box, midpoint in (([[0.0, 1.0], [-0.5, 0.5]], None),
                          ([[0.0, 1.0], [0.0, 0.0]], [0.05, 0.0])):
        messages = []
        for constant in (True, False):
            st = nan_metric(constant)
            with pytest.raises(NonFiniteValue) as err:
                nd.build_grid(st, nd.coordinate_time(st), box, 0.1)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        if midpoint is not None:
            assert messages[0].endswith(f"at {midpoint}")


@pytest.mark.parametrize("constant", [True, False])
def test_nan_metric_on_one_node_has_no_edges(constant):
    st = nan_metric(constant)
    with pytest.raises(NoCausalEdges):
        nd.build_grid(st, nd.coordinate_time(st), [[0.0, 0.0], [0.0, 0.0]], 0.1)


@pytest.mark.parametrize("name, n_paired", [
    ("upper_half_minkowski", 40),  # constant metric: the causal offsets only
    ("warped_product", 312),  # every offset
])
def test_constant_metric_pairs_only_causal_offsets(monkeypatch, name, n_paired):
    """A constant metric decides each offset's cone once, at one midpoint,
    forms no lattice pair offset by offset, and gathers neighbours along the
    future-causal offsets of the flat cone only: no spacelike offset is
    gathered or kept.  The warped product pairs every offset and evaluates
    its metric at every pair."""
    paired = []
    pairs = nd.grid.Lattice.pairs

    def counted(lattice, offset):
        paired.append(offset)
        return pairs(lattice, offset)

    gathered = []  # the shape of every 2-d gather from the lattice's id array

    class Recorded(np.ndarray):
        def __getitem__(self, index):
            if np.ndim(index) == 2:
                gathered.append(np.shape(index))
            return np.asarray(self)[index]

    init = nd.grid.Lattice.__init__

    def recording(lattice, keep, radius):
        init(lattice, keep, radius)
        lattice.ids = lattice.ids.view(Recorded)

    monkeypatch.setattr("nulldist.grid.Lattice.pairs", counted)
    monkeypatch.setattr("nulldist.grid.Lattice.__init__", recording)
    st = nd.builtin(name, dim=4)
    evaluated = []

    def metric(pts):
        evaluated.append(len(pts))
        return st.metric_batch(pts)

    grid = nd.build_grid(dataclasses.replace(st, metric_batch=metric), nd.coordinate_time(st),
                         [[0.5, 1.5]] + [[-0.5, 0.5]] * 3, 0.25, nd.StencilSpec(radius=2))
    assert len(grid.offsets_used) == 312
    if st.constant_metric:
        assert (evaluated, paired) == ([312], [])
        assert gathered == [(n_paired, grid.n_nodes)]
        o = grid.offsets_used
        causal = o[(o[:, 0] > 0) & (o[:, 0] ** 2 >= (o[:, 1:] ** 2).sum(axis=1))]
        assert len(causal) == len(grid.directions) == n_paired
        assert bits(grid.directions) == bits(causal) == bits(grid.edge_offsets)
    else:
        assert len(evaluated) == len(paired) == n_paired
        assert gathered == []
        assert sum(evaluated) > n_paired


def closed_half_space(dim):
    """Flat, with the closed domain t >= 0: a source at t = 0 has no room
    below it, so its bisection never moves and its base is 0."""
    flat = nd.builtin("minkowski", dim=dim)
    return dataclasses.replace(flat, name="closed", domain_batch=lambda pts: pts[:, 0] >= 0.0)


BISECTION_SCENES = [
    (nd.builtin("upper_half_minkowski", dim=3), [[0.5, 1.5], [-0.5, 0.5], [-0.5, 0.5]], 0.1),
    (nd.builtin("missing_ray", dim=4), box_for(nd.builtin("missing_ray", dim=4)), 0.25),
    (nd.builtin("minkowski", dim=2), [[-1.0, 1.0], [-1.0, 1.0]], 0.05),  # clamped at the box
    # f(t) = 0.7 t + 0.2 ends the domain at t = -2/7, below the box
    (nd.builtin("warped_product", dim=3, slope=0.7, offset=0.2),
     [[-0.2, 1.0], [-0.5, 0.5], [-0.5, 0.5]], 0.1),
    (nd.builtin("conformal", dim=2, base="upper_half_minkowski", factor=phi),
     [[0.1, 2.0], [-1.0, 1.0]], 0.05),
    (closed_half_space(2), [[0.0, 1.0], [-0.5, 0.5]], 0.05),
]


def test_batched_bisection_matches_scalar_reference():
    rng = np.random.default_rng(7)
    zero = 0
    for st, box, h in BISECTION_SCENES:
        grid = nd.build_grid(st, nd.coordinate_time(st), box, h)
        sources = grid.coords[grid.in_degrees() == 0]
        # off-lattice points too, some outside the domain (base 0)
        lo, hi = np.array(box).T
        extra = rng.uniform(lo - 0.5 * (hi - lo), hi, size=(40, st.dim))
        for pts in (sources, extra):
            want = np.array([ref_boundary_base(grid, p.copy()) for p in pts])
            assert bits(_boundary_base(grid, pts)) == bits(want), st.name
            zero += int(np.sum(want == 0.0))
    assert zero > 0


def test_batched_bisection_chunks(monkeypatch):
    st, box, h = BISECTION_SCENES[0]
    grid = nd.build_grid(st, nd.coordinate_time(st), box, h)
    sources = grid.coords[grid.in_degrees() == 0]
    whole = _boundary_base(grid, sources)
    monkeypatch.setattr("nulldist.timefn.INTEGRAL_ROWS", 64 * 7)  # 7 sources per chunk
    assert bits(_boundary_base(grid, sources)) == bits(whole)


def test_csv_matches_csv_writer(tmp_path, monkeypatch):
    monkeypatch.setattr("nulldist.cli.CSV_ROWS", 7)  # 60 rows: eight full writes and a short one
    rng = np.random.default_rng(3)
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e300,
               0.1, 1 / 3, 123456789012345.0, 2.5e-7]
    cols = [rng.choice(special + list(rng.normal(0, 1e3, 20)), size=60) for _ in range(4)]
    cols.append(rng.normal(size=60) * 10.0 ** rng.integers(-20, 20, size=60))
    cols.append(np.arange(60) / 7.0)  # every value distinct: formatted row by row
    cols.append(rng.choice([-0.0, 0.0, 0.5, -2.0], size=60))  # few values: formatted once each
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(float)
    cols.append(rng.choice(np.concatenate([nans, [1.0]]), size=60))  # NaNs of two payloads
    out = tmp_path / "t.csv"
    for filled in (True, False):
        if filled:
            columns, rows = cols + cols[:2], [list(r) for r in zip(*cols, *cols[:2])]
        else:
            columns, rows = cols + [None, None], [list(r) + ["", ""] for r in zip(*cols)]
        header = [f"c{k}" for k in range(len(columns))]
        _emit_csv(header, columns, str(out))
        data = out.read_bytes()
        assert data == ref_csv(header, rows).encode("utf-8")
    assert data.endswith(b",,\r\n")
    fields = set(data.decode().replace("\r\n", ",").split(","))
    assert {"inf", "-inf", "nan", "-0", "0", "1e-300"} <= fields
    assert "-nan" not in fields

    _emit_csv(header, [np.empty(0)] * 8 + [None, None], str(out))  # header only
    assert out.read_bytes() == ref_csv(header, []).encode("utf-8")


COSMO_SCENES = {
    "upper": ("upper_half_minkowski", {}, 3, [[0.5, 1.5], [-0.5, 0.5], [-0.5, 0.5]], 0.1),
    "ray": ("missing_ray", {}, 4, [[1.0, 3.0]] + [[-0.5, 0.5]] * 3, 0.25),
    "warped": ("warped_product", {"slope": 0.7, "offset": 0.2}, 2, [[-0.2, 1.0], [-0.5, 0.5]],
               0.05),  # slope != 1: no analytic time, empty columns
    "conformal": ("conformal", {"base": "upper_half_minkowski", "factor": 1.7}, 2,
                  [[0.1, 2.0], [-1.0, 1.0]], 0.05),
}


def test_cosmo_time_bytes_match_row_by_row_reference(tmp_path, capsys):
    for key, (name, params, dim, box, h) in COSMO_SCENES.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({
            "schema": 1, "dim": dim, "spacetime": {"name": name, "params": params},
            "time": {"kind": "coordinate"}, "grid": {"box": box, "h": h}}))
        scene = nd.Scene.from_file(str(path))
        st = scene.spacetime()
        gp = scene.grid_params()
        grid = nd.build_grid(st, scene.time_function(st), gp.box, gp.h, gp.stencil)
        values = nd.cosmological_time_numeric(grid)
        analytic = st.cosmological_time_analytic
        ana = None if analytic is None else analytic(grid.coords)
        assert (ana is None) == (key == "warped")
        rows = []
        for i in range(grid.n_nodes):
            row = list(grid.coords[i]) + [float(values[i])]
            if ana is not None:
                row += [float(ana[i]), abs(float(values[i]) - float(ana[i]))]
            else:
                row += ["", ""]
            rows.append(row)
        header = [f"x{a}" for a in range(dim)] + ["tau_numeric", "tau_analytic_if_known",
                                                   "abs_err"]
        want = ref_csv(header, rows).encode("utf-8")
        out = tmp_path / f"{key}.csv"
        assert main(["cosmo-time", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == want, key
        capsys.readouterr()
        assert main(["cosmo-time", str(path)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == want, key
