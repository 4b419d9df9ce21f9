"""Command-line front end.

Subcommands: nulldist, causal, cosmo-time, check-antilip, optical, ball,
encode-test, isometry, paper-suite.  All outputs are deterministic for fixed
inputs and flags (floats serialized at 12 significant digits, fixed
tie-breaking); wall-clock fields are excluded from that guarantee.

Exit codes: 0 success, 1 failed assertion in paper-suite, 2 parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .curves import (
    EncodesVerdict,
    PiecewiseCausalCurve,
    ball_boundary_sample,
    encodes_causality_test,
    null_distance_result,
    null_length,
)
from .errors import NoConvergence, NullDistError, SceneError, UnknownName
from .grid import box_bounds, build_grid, reach, shortest_null_path
from .isometry import (
    PointMap,
    assess_conformal,
    check_preserving,
    dilation_map,
    identity_map,
    rotation_map,
    table_map,
    translation_map,
)
from .optical import build_chart, chart_inverse_batch, grad_norm_omega
from .scene import Scene
from .spacetime import TimeSense, builtin
from .timefn import (
    check_anti_lipschitz,
    check_regularity,
    coordinate_time,
    cosmological_time_numeric,
    cubed_time,
)

CSV_ROWS = 4096  # rows formatted per write, so the text of a large CSV is never held whole


def _round12(obj):
    """12 significant digits on every float, recursively."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return obj
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit_json(data: dict, out_path):
    text = json.dumps(_round12(data), sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header, columns, out_path):
    """Write equal-length numeric ``columns`` (None for a column left empty)
    under ``header``: the bytes csv.writer gives for f"{x:.12g}" fields, built
    one format call per row and written CSV_ROWS rows at a time.  A column
    with at most half as many distinct values (bit patterns) as rows has each
    value formatted once and its text written through %s."""
    filled, fields = [], []
    for c in columns:
        if c is None:
            fields.append("")
            continue
        c = np.asarray(c, dtype=float)
        bits, index = np.unique(c.view(np.uint64), return_inverse=True)
        if 2 * bits.size <= c.size:
            c = np.array(["%.12g" % x for x in bits.view(float).tolist()], dtype=object)[index]
        filled.append(c)
        fields.append("%.12g" if c.dtype == float else "%s")
    line = ",".join(fields) + "\r\n"
    fh = open(out_path, "w", newline="", encoding="utf-8") if out_path else sys.stdout
    try:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(filled[0]) if filled else 0, CSV_ROWS):
            rows = zip(*[c[start:start + CSV_ROWS].tolist() for c in filled])
            fh.write("".join([line % row for row in rows]))
    finally:
        if out_path:
            fh.close()


def _parse_point(text: str, flag: str, dim: int) -> np.ndarray:
    try:
        point = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        point = None
    if point is None or point.shape != (dim,) or not np.isfinite(point).all():
        raise SceneError(f"{flag} must be {dim} comma-separated finite numbers, got {text!r}")
    return point


def _parse_region(text: str, dim: int) -> tuple:
    region = tuple(tuple(_parse_point(pair, "--region", 2)) for pair in text.split(";"))
    try:
        box_bounds(region, dim)
    except ValueError:
        raise SceneError(f"--region must be {dim} semicolon-separated lo,hi pairs "
                         f"with lo <= hi, got {text!r}") from None
    return region


def _read_points(path: str, flag: str, shape: tuple) -> np.ndarray:
    """The JSON list in file ``path``, of finite number arrays of ``shape``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = np.array(json.load(fh), dtype=float)
    except (TypeError, ValueError):  # not JSON, or entries ragged or not numbers
        data = None
    if (data is None or not np.isfinite(data).all()
            or data.shape[1:] != shape and data.shape != (0,)):
        raise SceneError(f"{flag} {path} must be a JSON list of finite arrays of shape {shape}")
    return data


def _flag_value(value, flag: str, low, strict: bool = False):
    """``value`` when it is None (flag not given) or finite and at least
    ``low`` (above it when ``strict``); otherwise a SceneError naming
    ``flag``, which exits 2."""
    if value is None or math.isfinite(value) and (value > low if strict else value >= low):
        return value
    bound = f"> {low}" if strict else f">= {low}"
    raise SceneError(f"{flag} must be a finite number {bound}, got {value!r}")


def _grid_from_args(scene: Scene, args):
    h = _flag_value(getattr(args, "h", None), "--h", 0, strict=True)
    radius = _flag_value(getattr(args, "stencil_radius", None), "--stencil-radius", 1)
    st = scene.spacetime()
    params = scene.grid_params(h=h, stencil_radius=radius)
    return build_grid(st, scene.time_function(st), params.box, params.h, params.stencil)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_nulldist(args) -> int:
    scene = Scene.from_file(args.scene)
    grid = _grid_from_args(scene, args)
    p = grid.node_of(_parse_point(args.p, "--p", scene.dim))
    q = grid.node_of(_parse_point(args.q, "--q", scene.dim))
    t0 = time.perf_counter()
    res = null_distance_result(grid, p, q)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    out = {
        "estimate": res.estimate,
        "lower_bound": res.lower_bound,
        "path_len": res.witness.n_segments + 1,
        "h": grid.h,
        "stencil_radius": grid.stencil.radius,
        "spacelike_overestimate_max": grid.spacelike_overestimate_max,
        "wall_ms": wall_ms,
    }
    _emit_json(out, args.out)
    if args.path_csv:
        dim = grid.st.dim
        header = [f"x{a}" for a in range(dim)]
        _emit_csv(header, res.witness.vertices.T, args.path_csv)
    return 0


def _cmd_causal(args) -> int:
    scene = Scene.from_file(args.scene)
    grid = _grid_from_args(scene, args)
    p = grid.node_of(_parse_point(args.p, "--p", scene.dim))
    q = grid.node_of(_parse_point(args.q, "--q", scene.dim))
    reachable = q in reach(grid, p)
    _emit_json({"reachable": bool(reachable)}, args.out)
    return 0


def _cmd_cosmo_time(args) -> int:
    grid = _grid_from_args(Scene.from_file(args.scene), args)
    values = cosmological_time_numeric(grid)
    analytic = grid.st.cosmological_time_analytic
    ana = analytic(grid.coords) if analytic is not None else None
    dim = grid.st.dim
    header = [f"x{a}" for a in range(dim)] + ["tau_numeric", "tau_analytic_if_known", "abs_err"]

    if ana is None:
        extra = [None, None]
    else:
        extra = [ana, np.abs(values - ana)]
    _emit_csv(header, [*grid.coords.T, values, *extra], args.out)
    return 0


def _cmd_check_antilip(args) -> int:
    scene = Scene.from_file(args.scene)
    region = None if args.region is None else _parse_region(args.region, scene.dim)
    _flag_value(args.n_sources, "--n-sources", 1)
    _flag_value(args.seed, "--seed", 0)
    grid = _grid_from_args(scene, args)
    report = check_anti_lipschitz(grid, grid.params.box if region is None else region,
                                  n_sources=args.n_sources, seed=args.seed)
    reg = check_regularity(grid)
    _emit_json({
        "lambda_best": report.lambda_best,
        "pairs_tested": report.pairs_tested,
        "violations": report.violations,
        "worst_pair": report.worst_pair,
        "regular": reg.ok,
        "eps_reg": reg.eps_reg,
        "seed": args.seed,
    }, args.out)
    return 0


def _cmd_optical(args) -> int:
    scene = Scene.from_file(args.scene)
    st = scene.spacetime()
    center = _parse_point(args.center, "--center", scene.dim)
    Q = _read_points(args.queries, "--queries", (scene.dim,))
    sense = TimeSense.FUTURE if args.sense == "future" else TimeSense.PAST
    _flag_value(args.eps, "--eps", 0, strict=True)
    chart = build_chart(st, center, sense, eps=args.eps)
    dim = st.dim
    header = [f"x{a}" for a in range(dim)] + ["omega", "lambda", "grad_norm"]
    rows = []
    for qc, val in zip(Q, chart_inverse_batch(chart, Q)):
        if isinstance(val, NoConvergence):
            raise val
        try:
            gn = grad_norm_omega(chart, qc, val)
        except NullDistError:
            gn = float("nan")
        rows.append(list(qc) + [val.omega, val.lam, gn])
    _emit_csv(header, np.array(rows).T, args.out)
    return 0


def _cmd_ball(args) -> int:
    scene = Scene.from_file(args.scene)
    center = _parse_point(args.center, "--center", scene.dim)
    _flag_value(args.radius, "--radius", 0, strict=True)
    _flag_value(args.n_dirs, "--n-dirs", 1)
    grid = _grid_from_args(scene, args)
    rows = ball_boundary_sample(grid, center, args.radius, args.n_dirs)
    dim = scene.dim
    header = [f"dir{a}" for a in range(dim)] + [f"x{a}" for a in range(dim)]
    _emit_csv(header, rows.T, args.out)
    return 0


def _cmd_encode_test(args) -> int:
    scene = Scene.from_file(args.scene)
    pairs = _read_points(args.pairs, "--pairs", (2, scene.dim))
    grid = _grid_from_args(scene, args)
    verdicts = []
    for p, q in pairs:
        rep = encodes_causality_test(grid, p, q)
        verdicts.append({
            "p": p.tolist(),
            "q": q.tolist(),
            "verdict": rep.verdict.value,
            "estimate": rep.result.estimate,
            "lattice_estimate": rep.result.lattice_estimate,
            "lower_bound": rep.result.lower_bound,
            "reachable": rep.result.reachable,
            "tol_eq": rep.tol_eq,
            "properness_claimed": rep.properness_claimed,
        })
    _emit_json({"verdicts": verdicts}, args.out)
    return 0


def _parse_map(spec: str, dim: int) -> PointMap:
    kind, _, arg = spec.partition(":")
    try:
        if spec == "identity":
            return identity_map()
        if kind == "translate":
            return translation_map(_parse_point(arg, "--map translate", dim))
        if kind == "dilate":
            scale = float(arg)
            if not (math.isfinite(scale) and scale != 0.0):
                raise ValueError("the scale must be finite and nonzero")
            return dilation_map(scale)
        if kind == "rotate":
            i, j, theta = arg.split(",")
            i, j, theta = int(i), int(j), float(theta)
            if not (0 <= i < dim and 0 <= j < dim and i != j):
                raise ValueError(f"the axes must be two different integers in [0, {dim})")
            if not math.isfinite(theta):
                raise ValueError("the angle must be finite")
            return rotation_map(i, j, theta)
        if kind == "table":
            data = np.loadtxt(arg, delimiter=",", skiprows=1)
            return table_map(data[:, :dim], data[:, dim:])
    except (IndexError, ValueError) as exc:
        raise SceneError(f"--map {spec!r} does not parse: {exc}") from None
    raise SceneError(f"unknown map spec {spec!r}")


def _cmd_isometry(args) -> int:
    scene1 = Scene.from_file(args.scene1)
    pmap = _parse_map(args.map, scene1.dim)
    _flag_value(args.n_pairs, "--n-pairs", 1)
    _flag_value(args.tol, "--tol", 0)
    _flag_value(args.seed, "--seed", 0)
    grid1 = _grid_from_args(scene1, args)
    grid2 = _grid_from_args(Scene.from_file(args.scene2), args)
    pres = check_preserving(pmap, grid1, grid2, n_pairs=args.n_pairs, tol=args.tol,
                            seed=args.seed)
    out = {
        "d_hat_dev": pres.max_dhat_dev,
        "tau_dev": pres.max_tau_dev,
        "preserving": pres.passed,
        "seed": args.seed,
    }
    if pmap.closed_form:
        report = assess_conformal(pmap, grid1.st, grid2.st, grid1.params.box, grid1.h,
                                  seed=args.seed)
        phis = [s[1] for s in report.phi_samples]
        out.update({
            "phi_mean": float(np.mean(phis)),
            "vol_n": report.vol_n,
            "vol_nm1": report.vol_nm1,
            "verdict": report.verdict.value,
            "dimension_ok": report.dimension_ok,
            "note": report.note,
        })
    else:
        out.update({"phi_mean": None, "vol_n": None, "vol_nm1": None,
                    "verdict": None, "note": "table map: conformal factor skipped"})
    _emit_json(out, args.out)
    return 0


# ---------------------------------------------------------------------------
# preset suite
# ---------------------------------------------------------------------------

def _preset_spacelike_pair(h: float):
    """Equal-time Minkowski pair at unit spatial separation: d-hat = 1."""
    st = builtin("minkowski", dim=2)
    tau = coordinate_time(st)
    grid = build_grid(st, tau, [(-0.3, 0.3), (-0.2, 1.2)], h)
    est, _ = shortest_null_path(grid, grid.node_of([0.0, 0.0]), grid.node_of([0.0, 1.0]))
    ok = abs(est - 1.0) <= 0.05
    return ok, f"estimate {est:.6g} (target 1 within 5%)"


def _preset_cubed_time():
    """tau = t^3 collapses equal-time distances; witnesses match 2j(D/2j)^3."""
    st = builtin("minkowski", dim=2)
    tau = cubed_time(st)
    D = 1.0
    for j in (1, 2, 4):
        verts = [[0.0, 0.0]]
        for i in range(1, 2 * j + 1):
            t = D / (2 * j) if i % 2 == 1 else 0.0
            verts.append([t, i * D / (2 * j)])
        beta = PiecewiseCausalCurve(st, verts)
        expect = (2 * j) * (D / (2 * j)) ** 3
        got = null_length(beta, tau)
        if abs(got - expect) > 1e-12:
            return False, f"witness j={j}: {got:.3e} != {expect:.3e}"
    grid = build_grid(st, tau, [(-0.04, 0.08), (-0.1, 1.1)], 0.01)
    est, _ = shortest_null_path(grid, grid.node_of([0.0, 0.0]), grid.node_of([0.0, 1.0]))
    ok = est <= 0.05
    return ok, f"witnesses exact; grid estimate {est:.3e} <= 0.05 at h=0.01"


def _preset_missing_ray():
    """Equality at the |dtau| floor without reachability (h = 0.25 aligned).

    The lattice cannot sidestep the removed ray for less than one past step,
    so its minimum is 2 + 2h; the certified off-lattice refinement of that
    witness comes close to the continuum infimum 2.  Either way the estimate
    is a validated upper bound, so 2 <= estimate <= 2 + 2h.
    """
    st = builtin("missing_ray", dim=4)
    h = 0.25
    grid = build_grid(st, coordinate_time(st),
                      [(0.5, 3.5), (-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)], h)
    rep = encodes_causality_test(grid, [1.0, -1.0, 0.0, 0.0], [3.0, 1.0, 0.0, 0.0])
    est = rep.result.estimate
    ok = (rep.verdict is EncodesVerdict.VIOLATION_MISSING_CAUSAL
          and not rep.result.reachable and 2.0 - 1e-9 <= est <= 2.0 + 2 * h + 1e-9)
    return ok, f"verdict {rep.verdict.value}, estimate {est:.6g} in [2, 2+2h]"


def _preset_conformal_invariance(h: float):
    """Identical edges, weights, and estimates under g and 4g with tau fixed."""
    st1 = builtin("minkowski", dim=2)
    st2 = builtin("conformal", base="minkowski", dim=2, factor=2.0)
    box = [(-0.3, 0.3), (-0.2, 1.2)]
    tau1 = coordinate_time(st1)
    tau2 = coordinate_time(st2)
    g1 = build_grid(st1, tau1, box, h)
    g2 = build_grid(st2, tau2, box, h)
    same_edges = (all(map(np.array_equal, g1.csr_out(), g2.csr_out()))
                  and np.array_equal(g1.tau_values, g2.tau_values))
    e1, _ = shortest_null_path(g1, g1.node_of([0, 0]), g1.node_of([0, 1]))
    e2, _ = shortest_null_path(g2, g2.node_of([0, 0]), g2.node_of([0, 1]))
    ok = same_edges and e1 == e2
    return ok, f"edge sets equal: {same_edges}, estimates {e1:.6g} == {e2:.6g}"


def _preset_ball(h: float):
    """The unit null-distance ball in 1+1 is the causal cylinder."""
    st = builtin("minkowski", dim=2)
    grid = build_grid(st, coordinate_time(st), [(-1.3, 1.3), (-1.3, 1.3)], h)
    rows = ball_boundary_sample(grid, [0.0, 0.0], 1.0, 8)
    ok = True
    for row in rows:
        u, b = row[:2], row[2:]
        if abs(u[0]) >= abs(u[1]):  # causal-side ray: boundary at the tau level set
            ok &= abs(abs(b[0]) - 1.0) <= 2 * h
        else:  # spacelike-side ray: boundary at unit spatial distance
            ok &= abs(abs(b[1]) - 1.0) <= 2 * h
    return bool(ok), "cylinder top/side within 2h of the unit levels"


def _cmd_paper_suite(args) -> int:
    h = _flag_value(args.h, "--h", 0, strict=True)
    presets = [
        ("spacelike-pair", lambda: _preset_spacelike_pair(h)),
        ("cubed-time-degeneracy", _preset_cubed_time),
        ("missing-ray", _preset_missing_ray),
        ("conformal-invariance", lambda: _preset_conformal_invariance(h)),
        ("ball-cylinder", lambda: _preset_ball(h)),
    ]
    failures = 0
    lines = []
    for name, fn in presets:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except NullDistError as exc:
            ok, detail = False, f"error: {exc}"
        dt = time.perf_counter() - t0
        failures += 0 if ok else 1
        lines.append((name, ok, detail, dt))
    width = max(len(name) for name, *_ in lines)
    for name, ok, detail, dt in lines:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}  [{dt:.2f}s]")
    print(f"{failures} failed / {len(lines)} presets")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_grid_flags(sp):
    sp.add_argument("--h", type=float, default=None, help="override lattice spacing")
    sp.add_argument("--stencil-radius", type=int, default=None, dest="stencil_radius")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nulldist",
        description="Null-distance geometry on discretized Lorentzian spacetimes.",
        epilog=("paper-suite presets: spacelike-pair (unit equal-time distance), "
                "cubed-time-degeneracy (collapsing zigzags under tau=t^3), "
                "missing-ray (equality without causality behind an excised ray; "
                "fixed aligned h=0.25), conformal-invariance (g vs 4g), "
                "ball-cylinder (unit ball boundary)."))
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("nulldist", help="null distance between two lattice events")
    sp.add_argument("scene")
    sp.add_argument("--p", required=True, help="comma-separated coordinates")
    sp.add_argument("--q", required=True)
    _add_grid_flags(sp)
    sp.add_argument("--out", default=None)
    sp.add_argument("--path-csv", default=None, dest="path_csv")
    sp.set_defaults(handler=_cmd_nulldist)

    sp = sub.add_parser("causal", help="directed reachability q in J+(p)")
    sp.add_argument("scene")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    _add_grid_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_causal)

    sp = sub.add_parser("cosmo-time", help="numeric cosmological time per node (CSV)")
    sp.add_argument("scene")
    _add_grid_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_cosmo_time)

    sp = sub.add_parser("check-antilip", help="best anti-Lipschitz constant in a region")
    sp.add_argument("scene")
    sp.add_argument("--region", default=None,
                    help="semicolon-separated lo,hi pairs; defaults to the grid box")
    sp.add_argument("--n-sources", type=int, default=64, dest="n_sources")
    sp.add_argument("--seed", type=int, default=0)
    _add_grid_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_check_antilip)

    sp = sub.add_parser("optical", help="optical function values at query points (CSV)")
    sp.add_argument("scene")
    sp.add_argument("--center", required=True)
    sp.add_argument("--sense", choices=["future", "past"], default="future")
    sp.add_argument("--eps", type=float, default=0.5, help="chart half-width")
    sp.add_argument("--queries", required=True, help="JSON file with a list of points")
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_optical)

    sp = sub.add_parser("ball", help="null-distance ball boundary along rays (CSV)")
    sp.add_argument("scene")
    sp.add_argument("--center", required=True)
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--n-dirs", type=int, default=8, dest="n_dirs")
    _add_grid_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_ball)

    sp = sub.add_parser("encode-test", help="causality-encoding verdicts for a pair file")
    sp.add_argument("scene")
    sp.add_argument("--pairs", required=True, help="JSON file with [[p, q], ...]")
    _add_grid_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_encode_test)

    sp = sub.add_parser("isometry", help="distance/time preservation + conformal factor")
    sp.add_argument("scene1")
    sp.add_argument("scene2")
    sp.add_argument("--map", default="identity",
                    help="identity | translate:a,b,.. | dilate:s | rotate:i,j,theta | table:file.csv")
    sp.add_argument("--n-pairs", type=int, default=100, dest="n_pairs")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_isometry)

    sp = sub.add_parser("paper-suite", help="run the bundled example presets")
    sp.add_argument("--h", type=float, default=0.05,
                    help="lattice spacing for the slab presets (missing-ray keeps its aligned 0.25)")
    sp.set_defaults(handler=_cmd_paper_suite)

    return ap


def _attach_negative_values(argv):
    """``--tol -1e-9`` -> ``--tol=-1e-9`` after every flag that takes a value
    (all but --help and --version): argparse reads a separate value that
    starts with a minus sign, and is not one plain number, as an option."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and out[-1] not in ("--", "--help", "--version")
                and len(arg) > 1 and arg[0] == "-" and arg[1] in "0123456789."):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except (SceneError, UnknownName, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NullDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
