"""cosmo-time's batched paths against the code they replaced.

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
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import nulldist as nd
from nulldist.cli import _emit_csv, main
from nulldist.errors import NoCausalEdges, NonFiniteValue
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
    calls = []
    pairs = nd.grid.Lattice.pairs

    def counted(lattice, offset):
        calls.append(offset)
        return pairs(lattice, offset)

    monkeypatch.setattr("nulldist.grid.Lattice.pairs", counted)
    st = nd.builtin(name, dim=4)
    grid = nd.build_grid(st, nd.coordinate_time(st), [[0.5, 1.5]] + [[-0.5, 0.5]] * 3, 0.25,
                         nd.StencilSpec(radius=2))
    assert len(grid.offsets_used) == 312
    assert len(calls) == n_paired


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
