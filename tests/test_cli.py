"""CLI: scene validation, subcommand outputs, determinism, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nulldist
from nulldist import cli, optical
from nulldist.cli import main
from nulldist.errors import SceneError, UnknownName
from nulldist.scene import Scene

MINK2 = {
    "schema": 1,
    "dim": 2,
    "spacetime": {"name": "minkowski", "params": {}},
    "time": {"kind": "coordinate"},
    "grid": {"box": [[-0.3, 0.3], [-0.2, 1.2]], "h": 0.05, "stencil_radius": 2},
}


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(MINK2))
    return str(path)


def test_scene_round_trip():
    scene = Scene.from_dict(MINK2)
    again = Scene.from_json(scene.to_json())
    assert again == scene
    assert again.to_dict() == scene.to_dict()


def test_scene_rejects_unknown_keys():
    bad = dict(MINK2)
    bad["extra"] = 1
    with pytest.raises(SceneError):
        Scene.from_dict(bad)
    bad2 = json.loads(json.dumps(MINK2))
    bad2["grid"]["color"] = "red"
    with pytest.raises(SceneError):
        Scene.from_dict(bad2)


def test_conformal_base_rejects_unknown_keys(tmp_path, capsys):
    bad = json.loads(json.dumps(MINK2))
    bad["spacetime"] = {"name": "conformal", "params": {
        "factor": 2.0, "base": {"name": "minkowski", "parms": {"slope": 2.0}}}}
    with pytest.raises(SceneError, match="parms"):
        Scene.from_dict(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["nulldist", str(path), "--p", "0,0", "--q", "0,1"]) == 2
    assert "scene.spacetime.params.base" in capsys.readouterr().err


def test_nested_conformal_scene_keeps_scene_dim():
    inner = {"name": "conformal", "params": {"factor": 1.5, "base": {"name": "minkowski"}}}
    data = dict(MINK2, spacetime={"name": "conformal", "params": {"factor": 2.0, "base": inner}})
    st = Scene.from_dict(data).spacetime()
    assert st.dim == 2 and st.params["base"]["base"]["dim"] == 2
    assert st.metric_at([0.0, 0.0])[1, 1] == 9.0
    inner["params"]["base"]["params"] = {}
    assert Scene.from_dict(data).spacetime().dim == 2


def test_scene_rejects_wrong_schema():
    bad = dict(MINK2)
    bad["schema"] = 99
    with pytest.raises(SceneError):
        Scene.from_dict(bad)


def test_scene_time_kinds_and_warped_params():
    scene = Scene.from_dict({
        "schema": 1, "dim": 2,
        "spacetime": {"name": "warped_product", "params": {"slope": 2.0, "offset": 0.5}},
        "time": {"kind": "affine", "scale": 3.0, "offset": 1.0},
    })
    st = scene.spacetime()
    assert st.metric_at([1.0, 0.0])[1, 1] == (2.0 + 0.5) ** 2
    tau = scene.time_function(st)
    assert tau([2.0, 0.0]) == 7.0
    cubed = Scene.from_dict({
        "schema": 1, "dim": 2,
        "spacetime": {"name": "minkowski", "params": {}},
        "time": {"kind": "cubed"},
    })
    assert cubed.time_function()([0.5, 0.0]) == 0.125
    with pytest.raises(SceneError):
        Scene.from_dict({"schema": 1, "dim": 2,
                         "spacetime": {"name": "minkowski", "params": {}},
                         "time": {"kind": "sinusoidal"}})


def test_malformed_scene_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1, "dim": 2,\n  "oops"')
    rc = main(["nulldist", str(path), "--p", "0,0", "--q", "0,1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.search(r"line \d+, column \d+", err)


@pytest.mark.parametrize("key, sub, value", [
    ("dim", None, "two"),
    ("dim", None, 2.5),
    ("grid", "h", -0.05),
    ("grid", "h", 0),
    ("grid", "h", "0.05"),
    ("grid", "box", [["a", 0.3], [-0.2, 1.2]]),
    ("grid", "box", [[0.3, -0.3], [-0.2, 1.2]]),
    ("grid", "stencil_radius", 0),
    ("time", None, {"kind": "affine", "scale": -1}),
    ("time", None, {"kind": "affine", "scale": 0.0}),
    ("spacetime", None, {"name": "conformal", "params": {"base": "minkowski"}}),
    ("spacetime", None, {"name": "conformal", "params": {"factor": 2.0}}),
    ("spacetime", "params", {"dim": 2}),
    ("spacetime", None, {"name": "warped_product", "params": {"slope": "x"}}),
    ("spacetime", None, {"name": "warped_product", "params": {"slope": float("nan")}}),
    ("spacetime", None, {"name": "conformal", "params": {"base": "minkowski", "factor": -1}}),
    ("spacetime", None, {"name": "conformal", "params": {"base": "minkowski",
                                                         "factor": "callable"}}),
    ("spacetime", None, {"name": "conformal", "params": {"base": 3, "factor": 2.0}}),
    ("time", None, {"kind": "coordinate", "scale": 5}),
    ("time", None, {"kind": "cubed", "offset": 3}),
    ("grid", "include_null_exact", "no"),
])
def test_malformed_scene_values_exit_2(tmp_path, capsys, key, sub, value):
    data = json.loads(json.dumps(MINK2))
    if sub is None:
        data[key] = value
    else:
        data[key][sub] = value
    with pytest.raises(SceneError):
        Scene.from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["nulldist", str(path), "--p", "0,0", "--q", "0,1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: scene.")


@pytest.mark.parametrize("flag, argv, content", [
    ("--p", ["nulldist", "SCENE", "--p", "0,x", "--q", "0,1"], None),
    ("--p", ["nulldist", "SCENE", "--p", "0", "--q", "0,1"], None),
    ("--q", ["causal", "SCENE", "--p", "0,0", "--q", "0;1"], None),
    ("--q", ["causal", "SCENE", "--p", "0,0", "--q", "nan,1"], None),
    ("--center", ["ball", "SCENE", "--center", "0,", "--radius", "0.1"], None),
    ("--center", ["optical", "SCENE", "--center", "0.5", "--queries", "FILE"], "[[0.2, 0.1]]"),
    ("--region", ["check-antilip", "SCENE", "--region", "a,b"], None),
    ("--region", ["check-antilip", "SCENE", "--region", "0,1"], None),
    ("--region", ["check-antilip", "SCENE", "--region", "0,1;0,1;0,1"], None),
    ("--region", ["check-antilip", "SCENE", "--region", "0,1;0,1,2"], None),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "rotate:1"], None),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "dilate:x"], None),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "translate:0,y"], None),
    ("--pairs", ["encode-test", "SCENE", "--pairs", "FILE"], '{"p": [0, 0], "q": [0, 1]}'),
    ("--pairs", ["encode-test", "SCENE", "--pairs", "FILE"], "[[0, 0], [0, 1]]"),
    ("--pairs", ["encode-test", "SCENE", "--pairs", "FILE"], "[[[0, 0], [0, 1], [0, 2]]]"),
    ("--pairs", ["encode-test", "SCENE", "--pairs", "FILE"], "[[[0], [1]]]"),
    ("--pairs", ["encode-test", "SCENE", "--pairs", "FILE"], '[[[0, "a"], [0, 1]]]'),
    ("--pairs", ["encode-test", "SCENE", "--pairs", "FILE"], "[[[0, 0], [0, 1]]"),
    ("--pairs", ["encode-test", "SCENE", "--pairs", "FILE"], "[[[NaN, 0], [0, 1]]]"),
    ("--queries", ["optical", "SCENE", "--center", "0.5,0", "--queries", "FILE"], "[[0.2]]"),
    ("--queries", ["optical", "SCENE", "--center", "0.5,0", "--queries", "FILE"], '{"a": 1}'),
    ("--eps", ["optical", "SCENE", "--center", "0.5,0", "--queries", "FILE", "--eps", "0"],
     "[[0.8, 0.1]]"),
    ("--eps", ["optical", "SCENE", "--center", "0.5,0", "--queries", "FILE", "--eps", "-0.2"],
     "[[0.8, 0.1]]"),
    ("--eps", ["optical", "SCENE", "--center", "0.5,0", "--queries", "FILE", "--eps", "nan"],
     "[[0.8, 0.1]]"),
    ("--eps", ["optical", "SCENE", "--center", "0.5,0", "--queries", "FILE", "--eps", "inf"],
     "[[0.8, 0.1]]"),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "rotate:0,7,0.3"], None),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "rotate:-1,1,0.3"], None),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "rotate:1,1,0.3"], None),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "rotate:0,1,nan"], None),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "rotate:0,1,inf"], None),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "dilate:nan"], None),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "dilate:-inf"], None),
    ("--map", ["isometry", "SCENE", "SCENE", "--map", "dilate:0"], None),
    ("--h", ["nulldist", "SCENE", "--p", "0,0", "--q", "0,1", "--h", "-1"], None),
    ("--h", ["nulldist", "SCENE", "--p", "0,0", "--q", "0,1", "--h", "0"], None),
    ("--h", ["nulldist", "SCENE", "--p", "0,0", "--q", "0,1", "--h", "nan"], None),
    ("--h", ["cosmo-time", "SCENE", "--h", "inf"], None),
    ("--h", ["paper-suite", "--h", "-1"], None),
    ("--h", ["paper-suite", "--h", "nan"], None),
    ("--stencil-radius", ["causal", "SCENE", "--p", "0,0", "--q", "0,1",
                          "--stencil-radius", "0"], None),
    ("--stencil-radius", ["encode-test", "SCENE", "--pairs", "FILE", "--stencil-radius", "-2"],
     "[[[0, 0], [0, 1]]]"),
    ("--radius", ["ball", "SCENE", "--center", "0,0.5", "--radius", "-1"], None),
    ("--radius", ["ball", "SCENE", "--center", "0,0.5", "--radius", "0"], None),
    ("--radius", ["ball", "SCENE", "--center", "0,0.5", "--radius", "nan"], None),
    ("--radius", ["ball", "SCENE", "--center", "0,0.5", "--radius", "inf"], None),
    ("--n-dirs", ["ball", "SCENE", "--center", "0,0.5", "--radius", "0.1", "--n-dirs", "-3"],
     None),
    ("--n-dirs", ["ball", "SCENE", "--center", "0,0.5", "--radius", "0.1", "--n-dirs", "0"],
     None),
    ("--n-sources", ["check-antilip", "SCENE", "--n-sources", "-1"], None),
    ("--n-sources", ["check-antilip", "SCENE", "--n-sources", "0"], None),
    ("--seed", ["check-antilip", "SCENE", "--seed", "-1"], None),
    ("--n-pairs", ["isometry", "SCENE", "SCENE", "--n-pairs", "-5"], None),
    ("--n-pairs", ["isometry", "SCENE", "SCENE", "--n-pairs", "0"], None),
    ("--tol", ["isometry", "SCENE", "SCENE", "--tol", "nan"], None),
    ("--tol", ["isometry", "SCENE", "SCENE", "--tol=-1e-9"], None),
    ("--tol", ["isometry", "SCENE", "SCENE", "--tol", "inf"], None),
    ("--seed", ["isometry", "SCENE", "SCENE", "--seed", "-1"], None),
    ("--tol", ["isometry", "SCENE", "SCENE", "--tol", "-1e-9"], None),
    ("--h", ["cosmo-time", "SCENE", "--h", "-1e-3"], None),
    ("--eps", ["optical", "SCENE", "--center", "0.5,0", "--queries", "FILE", "--eps", "-1e-3"],
     "[[0.8, 0.1]]"),
    ("--region", ["check-antilip", "SCENE", "--region", "0.3,-0.3;-0.2,1.2"], None),
])
def test_malformed_flag_values_exit_2(flag, argv, content, scene_file, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(content or "[]")
    argv = [{"SCENE": scene_file, "FILE": str(path)}.get(a, a) for a in argv]
    assert main(argv) == 2
    assert re.fullmatch(rf"error: {flag} .*\n", capsys.readouterr().err)


def test_unknown_spacetime_params_rejected(tmp_path, capsys):
    data = json.loads(json.dumps(MINK2))
    data["spacetime"]["params"] = {"bogus": 1}
    with pytest.raises(UnknownName):
        Scene.from_dict(data).spacetime()
    warped = dict(data, spacetime={"name": "warped_product", "params": {"slope": 1.0, "slop": 2.0}})
    with pytest.raises(UnknownName):
        Scene.from_dict(warped).spacetime()
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(data))
    assert main(["nulldist", str(path), "--p", "0,0", "--q", "0,1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_nulldist_output_and_determinism(scene_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["nulldist", scene_file, "--p", "0,0", "--q", "0,1",
                 "--out", str(out1)]) == 0
    assert main(["nulldist", scene_file, "--p", "0,0", "--q", "0,1",
                 "--out", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    assert d1["estimate"] == pytest.approx(1.0, abs=0.05)
    assert d1["lower_bound"] == 0.0
    assert d1["path_len"] >= 2
    d1.pop("wall_ms")
    d2.pop("wall_ms")
    assert d1 == d2
    # byte-identical apart from the wall-clock line
    strip = lambda p: re.sub(r'"wall_ms": [^,\n]+', '"wall_ms": X', p.read_text())
    assert strip(out1) == strip(out2)


def test_nulldist_same_point_is_one_error_line(scene_file, capsys):
    assert main(["nulldist", scene_file, "--p", "0,0.5", "--q", "0,0.5"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: p and q are the same point \[\S+, 0\.5\]: .*\n", err)


def test_encode_test_same_point_is_one_error_line(scene_file, tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text("[[[0, 0.5], [0, 0.5]]]")
    assert main(["encode-test", scene_file, "--pairs", str(pairs)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: p and q are the same point \[\S+, 0\.5\]: .*\n", err)


def test_nulldist_h_override_and_path_dump(scene_file, tmp_path):
    out = tmp_path / "o.json"
    pcsv = tmp_path / "path.csv"
    assert main(["nulldist", scene_file, "--p", "0,0", "--q", "0,1",
                 "--h", "0.1", "--out", str(out), "--path-csv", str(pcsv)]) == 0
    data = json.loads(out.read_text())
    assert data["h"] == 0.1
    with open(pcsv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1"]
    assert len(rows) == data["path_len"] + 1
    # the witness runs from p to q (lattice coords carry fp dust)
    assert [float(x) for x in rows[1]] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert [float(x) for x in rows[-1]] == pytest.approx([0.0, 1.0], abs=1e-12)


def test_isometry_named_maps(tmp_path):
    s1 = {
        "schema": 1, "dim": 2,
        "spacetime": {"name": "minkowski", "params": {}},
        "time": {"kind": "coordinate"},
        "grid": {"box": [[0.0, 1.0], [-0.5, 0.5]], "h": 0.1},
    }
    p1 = tmp_path / "m1.json"
    p1.write_text(json.dumps(s1))
    s2 = json.loads(json.dumps(s1))
    s2["grid"]["box"] = [[0.0, 1.0], [0.0, 1.0]]
    p2 = tmp_path / "m2.json"
    p2.write_text(json.dumps(s2))
    out = tmp_path / "iso.json"
    assert main(["isometry", str(p1), str(p2), "--map", "translate:0,0.5",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["preserving"] is True
    assert data["phi_mean"] == pytest.approx(1.0, abs=1e-6)
    assert data["verdict"] == "Isometry"


def test_isometry_table_map(tmp_path):
    import numpy as np

    s1 = {
        "schema": 1, "dim": 2,
        "spacetime": {"name": "minkowski", "params": {}},
        "time": {"kind": "coordinate"},
        "grid": {"box": [[0.0, 0.5], [-0.25, 0.25]], "h": 0.25},
    }
    p1 = tmp_path / "t1.json"
    p1.write_text(json.dumps(s1))
    # identity node table over the grid
    import nulldist as nd

    scene = Scene.from_file(str(p1))
    st = scene.spacetime()
    grid = nd.build_grid(st, scene.time_function(st), scene.grid_params().box,
                         scene.grid_params().h, scene.grid_params().stencil)
    table = tmp_path / "map.csv"
    with open(table, "w") as fh:
        fh.write("sx0,sx1,dx0,dx1\n")
        for c in grid.coords:
            fh.write(f"{c[0]},{c[1]},{c[0]},{c[1]}\n")
    out = tmp_path / "iso.json"
    assert main(["isometry", str(p1), str(p1), "--map", f"table:{table}",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["preserving"] is True
    assert data["phi_mean"] is None  # table maps skip the conformal factor


def test_causal_subcommand(scene_file, tmp_path):
    out = tmp_path / "c.json"
    assert main(["causal", scene_file, "--p", "0,0", "--q", "0.2,0.1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"reachable": True}
    main(["causal", scene_file, "--p", "0,0", "--q", "0,1", "--out", str(out)])
    assert json.loads(out.read_text()) == {"reachable": False}


def test_cosmo_time_csv(tmp_path):
    scene = {
        "schema": 1, "dim": 2,
        "spacetime": {"name": "upper_half_minkowski", "params": {}},
        "time": {"kind": "coordinate"},
        "grid": {"box": [[0.1, 1.1], [-0.3, 0.3]], "h": 0.1},
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    out = tmp_path / "tau.csv"
    assert main(["cosmo-time", str(path), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "tau_numeric", "tau_analytic_if_known", "abs_err"]
    worst = max(float(r[4]) for r in rows[1:])
    assert worst <= 1e-9


def test_check_antilip_reports_seed(scene_file, tmp_path):
    out = tmp_path / "al.json"
    assert main(["check-antilip", scene_file, "--seed", "7", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["seed"] == 7
    assert data["lambda_best"] >= 0.0
    # explicit sub-region, vertical pairs only: the ratio is exactly 1
    assert main(["check-antilip", scene_file, "--region=-0.3,0.3;0.0,0.0",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lambda_best"] == pytest.approx(1.0, abs=1e-9)


def test_ball_csv(scene_file, tmp_path):
    scene = json.loads(json.dumps(MINK2))
    scene["grid"]["box"] = [[-1.3, 1.3], [-1.3, 1.3]]
    path = tmp_path / "ball_scene.json"
    path.write_text(json.dumps(scene))
    out = tmp_path / "ball.csv"
    assert main(["ball", str(path), "--center", "0,0", "--radius", "1.0",
                 "--n-dirs", "4", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dir0", "dir1", "x0", "x1"]
    assert len(rows) == 5


def test_encode_test_verdicts(tmp_path):
    scene = {
        "schema": 1, "dim": 4,
        "spacetime": {"name": "missing_ray", "params": {}},
        "time": {"kind": "coordinate"},
        "grid": {"box": [[0.5, 3.5], [-1.5, 1.5], [-1.5, 1.5], [-1.5, 1.5]],
                 "h": 0.25},
    }
    spath = tmp_path / "mr.json"
    spath.write_text(json.dumps(scene))
    pairs = [[[1, -1, 0, 0], [3, 1, 0, 0]], [[1, 0.5, 0, 0], [2, 0.5, 0, 0]]]
    ppath = tmp_path / "pairs.json"
    ppath.write_text(json.dumps(pairs))
    out = tmp_path / "verdicts.json"
    assert main(["encode-test", str(spath), "--pairs", str(ppath),
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())["verdicts"]
    assert data[0]["verdict"] == "Violation(MissingCausal)"
    assert data[0]["reachable"] is False
    assert 2.0 <= data[0]["estimate"] <= 2.1
    assert data[0]["lattice_estimate"] == 2.5
    assert data[1]["verdict"] == "CausalAndEqual"
    assert data[1]["estimate"] == data[1]["lower_bound"]


def test_optical_csv(tmp_path):
    scene = {
        "schema": 1, "dim": 2,
        "spacetime": {"name": "minkowski", "params": {}},
        "time": {"kind": "coordinate"},
    }
    spath = tmp_path / "mink.json"
    spath.write_text(json.dumps(scene))
    queries = [[0.3, 0.2], [0.1, -0.15]]
    qpath = tmp_path / "queries.json"
    qpath.write_text(json.dumps(queries))
    out = tmp_path / "optical.csv"
    assert main(["optical", str(spath), "--center", "0,0", "--queries", str(qpath),
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "omega", "lambda", "grad_norm"]
    # omega = t - |x| in closed form
    assert float(rows[1][2]) == pytest.approx(0.1, abs=1e-8)
    assert float(rows[2][2]) == pytest.approx(-0.05, abs=1e-8)


def test_optical_inverts_each_query_once(tmp_path, monkeypatch):
    # grad_norm_omega takes the batch's chart value instead of inverting the
    # query again: the same values from fewer forward shots
    scene = {"schema": 1, "dim": 3,
             "spacetime": {"name": "warped_product", "params": {"slope": 0.7, "offset": 0.2}},
             "time": {"kind": "coordinate"}}
    spath = tmp_path / "warped.json"
    spath.write_text(json.dumps(scene))
    queries = [[0.65, 0.12, 0.03], [0.55, 0.05, -0.05]]
    qpath = tmp_path / "queries.json"
    qpath.write_text(json.dumps(queries))
    charts = []

    def build_chart(*args, **kwargs):
        charts.append(optical.build_chart(*args, **kwargs))
        return charts[-1]

    monkeypatch.setattr(cli, "build_chart", build_chart)
    out = tmp_path / "optical.csv"
    assert main(["optical", str(spath), "--center", "0.6,0.1,0", "--eps", "0.3",
                 "--queries", str(qpath), "--out", str(out)]) == 0
    with open(out) as fh:
        grads = [float(row[-1]) for row in list(csv.reader(fh))[1:]]
    # the calls the command made before: each query inverted a second time
    chart = optical.build_chart(Scene.from_file(str(spath)).spacetime(), [0.6, 0.1, 0.0],
                                eps=0.3)
    optical.chart_inverse_batch(chart, queries)
    before = [float(f"{optical.grad_norm_omega(chart, q):.12g}") for q in queries]
    assert grads == before and all(g == g for g in grads)
    assert charts[0].forward_shots < chart.forward_shots


@pytest.mark.parametrize("argv", [
    ["nulldist", "SCENE", "--p", "-0.2,0.1", "--q", "0.2,0.1"],
    ["causal", "SCENE", "--p", "-0.2,0.1", "--q", "0.2,0.1"],
    ["ball", "SCENE", "--center", "-0.05,0.5", "--radius", "0.1"],
    ["check-antilip", "SCENE", "--region", "-0.2,0.2;0.0,0.5"],
    ["optical", "SCENE", "--center", "-0.1,0", "--queries", "QUERIES"],
])
def test_negative_point_values(argv, scene_file, tmp_path):
    # a point or region whose first coordinate is negative parses as the
    # flag's value, spaced as well as joined with "="
    queries = tmp_path / "queries.json"
    queries.write_text(json.dumps([[0.2, 0.15], [-0.05, -0.1]]))
    argv = [{"SCENE": scene_file, "QUERIES": str(queries)}.get(a, a) for a in argv]
    joined = []
    for arg in argv:
        if arg.startswith("-") and joined and joined[-1] in ("--p", "--q", "--center", "--region"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    outputs = []
    for k, args in enumerate((argv, joined)):
        out = tmp_path / f"out{k}"
        assert main(args + ["--out", str(out)]) == 0
        text = out.read_text()
        if argv[0] == "nulldist":
            data = json.loads(text)
            data.pop("wall_ms")
            text = json.dumps(data)
        outputs.append(text)
    assert outputs[0] == outputs[1]


def test_isometry_subcommand(tmp_path):
    s1 = {
        "schema": 1, "dim": 2,
        "spacetime": {"name": "upper_half_minkowski", "params": {}},
        "time": {"kind": "coordinate"},
        "grid": {"box": [[0.5, 1.5], [-0.5, 0.5]], "h": 0.1},
    }
    s2 = json.loads(json.dumps(s1))
    s2["spacetime"] = {"name": "conformal",
                       "params": {"base": {"name": "upper_half_minkowski"}, "factor": 2.0}}
    p1 = tmp_path / "s1.json"
    p2 = tmp_path / "s2.json"
    p1.write_text(json.dumps(s1))
    p2.write_text(json.dumps(s2))
    out = tmp_path / "iso.json"
    assert main(["isometry", str(p1), str(p2), "--map", "identity",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["preserving"] is True
    assert data["phi_mean"] == pytest.approx(2.0, abs=1e-6)
    assert data["verdict"] == "ConformalNotIsometric"


def test_preset_suite_exit_zero():
    assert main(["paper-suite", "--h", "0.1"]) == 0


def test_console_entry_point():
    # the child imports the package this suite imports, installed or not
    src = str(Path(nulldist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "nulldist.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
