"""CLI output bytes pinned on small fixed 1+1 and 2+1 scenes.

Every subcommand that builds a grid, and ``optical``, writes exactly the
pinned bytes here, apart from the wall-clock field ``wall_ms``; the
``cosmo-time`` CSVs are pinned by sha256.  A change that moves an output on purpose updates its
pin and says which values moved and why.
"""

import hashlib
import json
import re

import pytest

from nulldist.cli import main

MINK2 = {
    "schema": 1, "dim": 2,
    "spacetime": {"name": "minkowski", "params": {}},
    "time": {"kind": "coordinate"},
    "grid": {"box": [[-0.3, 0.3], [-0.2, 1.2]], "h": 0.05, "stencil_radius": 2},
}
BALL2 = dict(MINK2, grid={"box": [[-1.3, 1.3], [-1.3, 1.3]], "h": 0.1})
UPPER2 = {
    "schema": 1, "dim": 2,
    "spacetime": {"name": "upper_half_minkowski", "params": {}},
    "time": {"kind": "coordinate"},
    "grid": {"box": [[0.1, 1.1], [-0.5, 0.5]], "h": 0.1},
}
CONF2 = dict(UPPER2, spacetime={"name": "conformal", "params": {
    "base": {"name": "upper_half_minkowski"}, "factor": 2.0}})
MINK3 = {
    "schema": 1, "dim": 3,
    "spacetime": {"name": "minkowski", "params": {}},
    "time": {"kind": "coordinate"},
    "grid": {"box": [[-0.2, 0.6], [-0.4, 0.4], [-0.4, 0.4]], "h": 0.1},
}
SHIFT_A = dict(MINK2, grid={"box": [[0.0, 1.0], [-0.5, 0.5]], "h": 0.1})
SHIFT_B = dict(MINK2, grid={"box": [[0.0, 1.0], [0.0, 1.0]], "h": 0.1})
UPPER3 = dict(MINK3, spacetime={"name": "upper_half_minkowski", "params": {}},
              grid={"box": [[0.1, 0.9], [-0.4, 0.4], [-0.4, 0.4]], "h": 0.1})
UPPER2_AFFINE = dict(UPPER2, time={"kind": "affine", "scale": 2.0, "offset": 0.5})
WARPED2 = {
    "schema": 1, "dim": 2,
    "spacetime": {"name": "warped_product", "params": {}},
    "time": {"kind": "coordinate"},
}
SCENES = {"mink2": MINK2, "ball2": BALL2, "upper2": UPPER2, "conf2": CONF2,
          "upper2_affine": UPPER2_AFFINE,
          "shift_a": SHIFT_A, "shift_b": SHIFT_B, "mink3": MINK3, "upper3": UPPER3,
          "warped2": WARPED2}
PAIRS = {
    "pairs2": [[[0, 0], [0.2, 0.1]], [[0, 0], [0, 1]], [[0.1, 0.5], [-0.1, 0.3]],
               [[0, 0], [0, 0.15]]],
    "pairs3": [[[0, 0, 0], [0.4, 0.2, -0.2]], [[0.2, -0.2, -0.1], [0.2, 0.2, 0.2]]],
    "pairs_upper2": [[[0.2, 0], [0.6, 0.3]], [[0.5, -0.2], [0.5, 0.2]]],
    "queries_warped2": [[1.1, 0.05], [1.05, -0.08], [0.95, 0.02]],
}

# argv with scene names and pair- or query-file names as placeholders; OUT and CSV are
# the output files the command writes
CASES = {
    "nulldist-2": ["nulldist", "mink2", "--p", "0,0", "--q", "0,1", "--out", "OUT",
                   "--path-csv", "CSV"],
    "nulldist-2-h": ["nulldist", "mink2", "--p", "-0.1,0.2", "--q", "0.1,0.5", "--h", "0.1",
                     "--out", "OUT", "--path-csv", "CSV"],
    "nulldist-3": ["nulldist", "mink3", "--p", "0,-0.2,0", "--q", "0,0.2,0.1", "--out", "OUT",
                   "--path-csv", "CSV"],
    "causal-2-in": ["causal", "mink2", "--p", "0,0", "--q", "0.2,0.1", "--out", "OUT"],
    "causal-2-out": ["causal", "mink2", "--p", "0,0", "--q", "0,1", "--out", "OUT"],
    "causal-3": ["causal", "mink3", "--p", "0,0,0", "--q", "0.4,0.2,-0.2", "--out", "OUT"],
    "cosmo-time-2": ["cosmo-time", "upper2", "--out", "OUT"],
    "cosmo-time-3": ["cosmo-time", "upper3", "--out", "OUT"],
    "check-antilip-2": ["check-antilip", "mink2", "--n-sources", "8", "--seed", "3",
                        "--out", "OUT"],
    "check-antilip-2-region": ["check-antilip", "mink2", "--region=-0.2,0.2;0.0,0.5",
                               "--n-sources", "6", "--out", "OUT"],
    "ball-2": ["ball", "ball2", "--center", "0,0", "--radius", "1.0", "--n-dirs", "6",
               "--out", "OUT"],
    "ball-3": ["ball", "mink3", "--center", "0.2,0,0", "--radius", "0.2", "--n-dirs", "4",
               "--out", "OUT"],
    "encode-test-2": ["encode-test", "mink2", "--pairs", "pairs2", "--out", "OUT"],
    "encode-test-3": ["encode-test", "mink3", "--pairs", "pairs3", "--out", "OUT"],
    "encode-test-2-affine": ["encode-test", "upper2_affine", "--pairs", "pairs_upper2",
                             "--out", "OUT"],
    "encode-test-2-conformal": ["encode-test", "conf2", "--pairs", "pairs_upper2",
                                "--out", "OUT"],
    "isometry-2": ["isometry", "upper2", "conf2", "--n-pairs", "12", "--seed", "5",
                   "--out", "OUT"],
    "isometry-2-translate": ["isometry", "shift_a", "shift_b", "--map", "translate:0,0.5",
                             "--n-pairs", "10", "--out", "OUT"],
    "optical-2": ["optical", "warped2", "--center", "1,0", "--eps", "0.3",
                  "--queries", "queries_warped2", "--out", "OUT"],
}


def run_case(name, tmp_path):
    """{key: text} of the files that case ``name`` writes: a JSON output
    under ``name`` with the value of ``wall_ms`` replaced by X, a CSV under
    ``name + ".csv"``, a cosmo-time CSV as the sha256 of its bytes."""
    files = {}
    for key, data in SCENES.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(data))
    for key, data in PAIRS.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(data))
    files["OUT"] = tmp_path / f"{name}.out"
    files["CSV"] = tmp_path / f"{name}.csv"
    assert main([str(files.get(a, a)) for a in CASES[name]]) == 0
    raw = files["OUT"].read_bytes()
    command = CASES[name][0]
    if command == "cosmo-time":
        out = {name: "sha256:" + hashlib.sha256(raw).hexdigest()}
    elif command in ("ball", "optical"):
        out = {name + ".csv": raw.decode("utf-8")}
    else:
        out = {name: re.sub(r'"wall_ms": [^,\n]+', '"wall_ms": X', raw.decode("utf-8"))}
    if "CSV" in CASES[name]:
        out[name + ".csv"] = files["CSV"].read_bytes().decode("utf-8")
    return out


PINS = {
    'nulldist-2': """\
{
  "estimate": 1.0,
  "h": 0.05,
  "lower_bound": 0.0,
  "path_len": 13,
  "spacelike_overestimate_max": 1.0,
  "stencil_radius": 2,
  "wall_ms": X
}
""",
    'nulldist-2.csv': """\
x0,x1
5.55111512313e-17,0
0.05,0.05
0.15,0.15
0.05,0.25
0.15,0.35
0.05,0.45
0.15,0.55
0.05,0.65
5.55111512313e-17,0.7
0.1,0.8
0.15,0.85
0.05,0.95
5.55111512313e-17,1
""",
    'nulldist-2-h': """\
{
  "estimate": 0.4,
  "h": 0.1,
  "lower_bound": 0.2,
  "path_len": 4,
  "spacelike_overestimate_max": 1.0,
  "stencil_radius": 2,
  "wall_ms": X
}
""",
    'nulldist-2-h.csv': """\
x0,x1
-0.1,0.2
0.1,0.3
5.55111512313e-17,0.4
0.1,0.5
""",
    'nulldist-3': """\
{
  "estimate": 0.6,
  "h": 0.1,
  "lower_bound": 0.0,
  "path_len": 5,
  "spacelike_overestimate_max": 1.41421356237,
  "stencil_radius": 2,
  "wall_ms": X
}
""",
    'nulldist-3.csv': """\
x0,x1,x2
0,-0.2,0
0.2,-0.2,0.1
0.1,-0.1,0.1
0.2,0,0.1
0,0.2,0.1
""",
    'causal-2-in': """\
{
  "reachable": true
}
""",
    'causal-2-out': """\
{
  "reachable": false
}
""",
    'causal-3': """\
{
  "reachable": true
}
""",
    'cosmo-time-2': 'sha256:67a5a84085348f77a00568a391098e8879dda93ab4ac6f45ab72e1ff1e7778b6',
    'cosmo-time-3': 'sha256:7e03c36e12aadca8356007b1cca6ca301d080763eb91e863c105d3681024cf40',
    'check-antilip-2': """\
{
  "eps_reg": 0.282842712475,
  "lambda_best": 0.707106781187,
  "pairs_tested": 519,
  "regular": false,
  "seed": 3,
  "violations": [],
  "worst_pair": [
    [
      -0.2,
      1.2
    ],
    [
      -0.1,
      1.1
    ],
    0.1,
    0.141421356237
  ]
}
""",
    'check-antilip-2-region': """\
{
  "eps_reg": 0.282842712475,
  "lambda_best": 0.707106781187,
  "pairs_tested": 202,
  "regular": false,
  "seed": 0,
  "violations": [],
  "worst_pair": [
    [
      -0.15,
      0.25
    ],
    [
      -0.05,
      0.35
    ],
    0.1,
    0.141421356237
  ]
}
""",
    'ball-2.csv': """\
dir0,dir1,x0,x1
1,0,0.95,0
0.5,0.866025403784,0.606217782649,1.05
-0.5,0.866025403784,-0.54848275573,0.95
-1,1.22464679915e-16,-0.95,1.16341445919e-16
-0.5,-0.866025403784,-0.606217782649,-1.05
0.5,-0.866025403784,0.606217782649,-1.05
""",
    'ball-3.csv': """\
dir0,dir1,dir2,x0,x1,x2
1,0,0,0.35,0,0
-1,0,0,0.05,0,0
0,1,0,0.2,0.25,0
0,-1,0,0.2,-0.25,0
""",
    'encode-test-2': """\
{
  "verdicts": [
    {
      "estimate": 0.2,
      "lattice_estimate": 0.2,
      "lower_bound": 0.2,
      "p": [
        0.0,
        0.0
      ],
      "properness_claimed": false,
      "q": [
        0.2,
        0.1
      ],
      "reachable": true,
      "tol_eq": 0.3,
      "verdict": "CausalAndEqual"
    },
    {
      "estimate": 1.0,
      "lattice_estimate": 1.0,
      "lower_bound": 0.0,
      "p": [
        0.0,
        0.0
      ],
      "properness_claimed": false,
      "q": [
        0.0,
        1.0
      ],
      "reachable": false,
      "tol_eq": 0.3,
      "verdict": "SpacelikeAndStrict"
    },
    {
      "estimate": 0.2,
      "lattice_estimate": 0.2,
      "lower_bound": 0.2,
      "p": [
        0.1,
        0.5
      ],
      "properness_claimed": false,
      "q": [
        -0.1,
        0.3
      ],
      "reachable": true,
      "tol_eq": 0.3,
      "verdict": "CausalAndEqual"
    },
    {
      "estimate": 0.15001500075,
      "lattice_estimate": 0.2,
      "lower_bound": 0.0,
      "p": [
        0.0,
        0.0
      ],
      "properness_claimed": false,
      "q": [
        0.0,
        0.15
      ],
      "reachable": false,
      "tol_eq": 0.3,
      "verdict": "Violation(MissingCausal)"
    }
  ]
}
""",
    'encode-test-3': """\
{
  "verdicts": [
    {
      "estimate": 0.4,
      "lattice_estimate": 0.4,
      "lower_bound": 0.4,
      "p": [
        0.0,
        0.0,
        0.0
      ],
      "properness_claimed": false,
      "q": [
        0.4,
        0.2,
        -0.2
      ],
      "reachable": true,
      "tol_eq": 0.6,
      "verdict": "CausalAndEqual"
    },
    {
      "estimate": 0.500049984078,
      "lattice_estimate": 0.8,
      "lower_bound": 0.0,
      "p": [
        0.2,
        -0.2,
        -0.1
      ],
      "properness_claimed": false,
      "q": [
        0.2,
        0.2,
        0.2
      ],
      "reachable": false,
      "tol_eq": 0.6,
      "verdict": "SpacelikeAndStrict"
    }
  ]
}
""",
    'encode-test-2-affine': """\
{
  "verdicts": [
    {
      "estimate": 0.8,
      "lattice_estimate": 0.8,
      "lower_bound": 0.8,
      "p": [
        0.2,
        0.0
      ],
      "properness_claimed": true,
      "q": [
        0.6,
        0.3
      ],
      "reachable": true,
      "tol_eq": 0.6,
      "verdict": "CausalAndEqual"
    },
    {
      "estimate": 0.8,
      "lattice_estimate": 0.8,
      "lower_bound": 0.0,
      "p": [
        0.5,
        -0.2
      ],
      "properness_claimed": true,
      "q": [
        0.5,
        0.2
      ],
      "reachable": false,
      "tol_eq": 0.6,
      "verdict": "SpacelikeAndStrict"
    }
  ]
}
""",
    'encode-test-2-conformal': """\
{
  "verdicts": [
    {
      "estimate": 0.4,
      "lattice_estimate": 0.4,
      "lower_bound": 0.4,
      "p": [
        0.2,
        0.0
      ],
      "properness_claimed": true,
      "q": [
        0.6,
        0.3
      ],
      "reachable": true,
      "tol_eq": 0.6,
      "verdict": "CausalAndEqual"
    },
    {
      "estimate": 0.4,
      "lattice_estimate": 0.4,
      "lower_bound": 0.0,
      "p": [
        0.5,
        -0.2
      ],
      "properness_claimed": true,
      "q": [
        0.5,
        0.2
      ],
      "reachable": false,
      "tol_eq": 0.6,
      "verdict": "Violation(MissingCausal)"
    }
  ]
}
""",
    'isometry-2': """\
{
  "d_hat_dev": 0.0,
  "dimension_ok": false,
  "note": "spatial dimension below 2: rigidity is not established there",
  "phi_mean": 2.00000000003,
  "preserving": true,
  "seed": 5,
  "tau_dev": 0.0,
  "verdict": "ConformalNotIsometric",
  "vol_n": 2.0,
  "vol_nm1": 1.0
}
""",
    'optical-2.csv': """\
x0,x1,omega,lambda,grad_norm
1.1,0.05,0.0463523660753,0.0550229208227,1.4142136174
1.05,-0.08,-0.0307278457137,0.084089642599,1.41421391612
0.95,0.02,-0.0688112603667,0.0190012667037,1.41421356369
""",
    'isometry-2-translate': """\
{
  "d_hat_dev": 0.0,
  "dimension_ok": false,
  "note": "spatial dimension below 2: rigidity is not established there",
  "phi_mean": 1.00000000003,
  "preserving": true,
  "seed": 0,
  "tau_dev": 0.0,
  "verdict": "Isometry",
  "vol_n": 1.00000000001,
  "vol_nm1": 1.0
}
""",
}


@pytest.mark.parametrize("name", CASES)
def test_cli_output_bytes_pinned(name, tmp_path):
    got = run_case(name, tmp_path)
    assert sorted(got) == sorted(k for k in PINS if k in (name, name + ".csv"))
    for key, text in got.items():
        want = PINS[key].replace("\n", "\r\n") if key.endswith(".csv") else PINS[key]
        assert text == want, key
