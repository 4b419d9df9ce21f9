"""Tests of the benchmark's own parts: planted wrong outputs must count as
failures, the tracer must not change what the program writes, the generated
inputs must keep their stated properties, and the host-speed adjustment must
rescale each operation by the probes around it.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import nulldist  # noqa: E402
from nulldist import cli  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

H = inputs.RAY4D["h"]
C3 = inputs.C3_PAIR
TIMELIKE = ([0.5, 0.0, 0.0, 0.0], [2.5, 0.5, 0.0, 0.0])


def _verdict(pair, verdict, estimate, reachable):
    return {"p": pair[0], "q": pair[1], "verdict": verdict, "estimate": estimate,
            "reachable": reachable}


def _ray_outputs():
    pairs = [list(C3), list(TIMELIKE)]
    verdicts = [_verdict(C3, checks.MISSING_CAUSAL, 2.0 + 2 * H, False),
                _verdict(TIMELIKE, checks.CAUSAL_AND_EQUAL, 2.0, True)]
    return pairs, verdicts


def _small_cosmo(tmp_path, out_name="tau.csv"):
    spec = dict(inputs.BOX4D, dim=2, box=[[0.5, 1.5], [-0.5, 0.5]])
    scene = inputs.write_json(tmp_path / "scene.json", inputs.scene_dict(spec))
    out = tmp_path / out_name
    assert cli.main(["cosmo-time", str(scene), "--out", str(out)]) == 0
    expected = np.array([b[0] for b in spec["box"]]) + spec["h"] * inputs.lattice_points(spec)
    return out, expected, spec["h"]


# ---------------------------------------------------------------------------
# planted wrong outputs
# ---------------------------------------------------------------------------

def test_correct_ray_job_passes():
    pairs, verdicts = _ray_outputs()
    why, excess, wrong = checks.ray_job(pairs, verdicts, H, C3)
    assert why == []
    assert excess == pytest.approx([2 * H, 0.0])
    assert wrong == 0


def test_estimate_below_dtau_fails():
    pairs, verdicts = _ray_outputs()
    verdicts[1]["estimate"] = 1.5
    why, _, _ = checks.ray_job(pairs, verdicts, H, C3)
    assert any("below |dtau|" in w for w in why)


def test_causal_but_strict_fails():
    pairs, verdicts = _ray_outputs()
    verdicts[1]["verdict"] = checks.CAUSAL_BUT_STRICT
    why, _, wrong = checks.ray_job(pairs, verdicts, H, C3)
    assert any("CausalButStrict" in w for w in why)
    assert wrong == 1


def test_criterion3_pair_must_stay_a_violation():
    pairs, verdicts = _ray_outputs()
    verdicts[0].update(verdict=checks.CAUSAL_AND_EQUAL, reachable=True, estimate=3.0)
    why, _, _ = checks.ray_job(pairs, verdicts, H, C3)
    assert len(why) == 3


def test_csv_missing_row_fails(tmp_path):
    out, expected, h = _small_cosmo(tmp_path)
    assert checks.cosmo_csv(out, expected, h)[0] == []
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:5] + lines[6:]))
    why, _ = checks.cosmo_csv(out, expected, h)
    assert any("rows for" in w for w in why)


def test_csv_duplicate_row_fails(tmp_path):
    out, expected, h = _small_cosmo(tmp_path)
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:5] + [lines[4]] + lines[6:]))
    why, _ = checks.cosmo_csv(out, expected, h)
    assert why == ["rows do not cover each node exactly once"]


def test_non_finite_grad_norm_fails():
    q = [1.1, 0.05, 0.0, 0.0]
    assert checks.optical_query(q, 1e-12, math.sqrt(2.0)) == []
    assert checks.optical_query(q, 1e-12, math.nan)
    assert checks.optical_query(q, 1e-12, 2.0)
    assert checks.optical_query(q, 1e-6, 1.0)


def test_slab_pair_checks():
    p, q = np.array([0, 0]), np.array([4, 1])  # timelike: exact d-hat = 4h
    h = 0.025
    assert checks.slab_pair(p, q, h, 4 * h, 4 * h, True, None, 4 * h) == []
    assert checks.slab_pair(p, q, h, 3 * h, 3 * h, True, None, 3 * h)
    assert checks.slab_pair(p, q, h, 4 * h, 4 * h + 1e-15, True, None, 4 * h)
    assert checks.slab_pair(p, q, h, 4 * h, 4 * h, False, None, 4 * h)
    assert checks.slab_pair(p, q, h, 4 * h, 4 * h, True, "InvalidSegment", math.nan)


def test_planted_failures_count_in_fail_frac(tmp_path):
    pairs, verdicts = _ray_outputs()
    below = [dict(v) for v in verdicts]
    below[1]["estimate"] = 1.0
    strict = [dict(v) for v in verdicts]
    strict[1]["verdict"] = checks.CAUSAL_BUT_STRICT
    out, expected, h = _small_cosmo(tmp_path)
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-1]))
    reasons = [
        checks.ray_job(pairs, verdicts, H, C3)[0],
        checks.ray_job(pairs, below, H, C3)[0],
        checks.ray_job(pairs, strict, H, C3)[0],
        checks.cosmo_csv(out, expected, h)[0],
        checks.optical_query([1.1, 0.05, 0.0, 0.0], 1e-12, math.inf),
        checks.optical_query([1.1, 0.05, 0.0, 0.0], 1e-12, 1.4),
    ]
    attempted, failed = run.fail_counts(reasons)
    assert (attempted, failed) == (6, 4)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_leaves_cosmo_time_output_byte_identical(tmp_path):
    originals = (nulldist.grid.build_grid, nulldist.cli.build_grid, nulldist.build_grid,
                 nulldist.Spacetime.__dict__["domain_contains"],
                 nulldist.Scene.__dict__["from_file"])
    plain, _, _ = _small_cosmo(tmp_path, "plain.csv")
    tracer = Tracer()
    tracer.install()
    try:
        assert nulldist.cli.build_grid is not originals[1]
        tracer.op = 0
        traced, _, _ = _small_cosmo(tmp_path, "traced.csv")
    finally:
        tracer.restore()
    assert traced.read_bytes() == plain.read_bytes()
    assert (nulldist.grid.build_grid, nulldist.cli.build_grid, nulldist.build_grid,
            nulldist.Spacetime.__dict__["domain_contains"],
            nulldist.Scene.__dict__["from_file"]) == originals

    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    build = tracer.spans[names.index("grid.build_grid")]
    assert tracer.spans[build[3]][0] == "cli.main"
    selfs = tracer.self_times()
    assert min(selfs) >= 0.0
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[2] - root[1])
    m = layer_metrics(tracer, 1)
    assert m["grid.build_grid.calls"] == 1
    assert m["timefn._boundary_base.calls"] > 0
    assert m["spacetime.Spacetime.domain_contains.calls"] > 0
    assert m["grid.nodes"] == 5 * 5


def test_tracer_skips_targets_gone_from_the_package(monkeypatch):
    gone = [("grid", "no_such_function", tracer_mod.SPAN, None),
            ("no_such_module", "f", tracer_mod.COUNT, None)]
    monkeypatch.setattr(tracer_mod, "TARGETS", tracer_mod.TARGETS + gone)
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    m = layer_metrics(tracer, 1)
    assert m["grid.no_such_function.calls"] == 0
    assert m["no_such_module.f.calls"] == 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, None, 0, False, None],
                    ["b", 2.0, 5.0, 0, 0, False, None],
                    ["c", 3.0, 4.0, 1, 0, False, None],
                    ["b", 6.0, 7.0, 0, 0, False, None]]
    assert tracer.self_times() == pytest.approx([6.0, 2.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def test_inputs_repeat_per_seed():
    a = inputs.ray_pairs(inputs.rng_for("ray4d_encode", 5))
    b = inputs.ray_pairs(inputs.rng_for("ray4d_encode", 5))
    c = inputs.ray_pairs(inputs.rng_for("ray4d_encode", 6))
    assert a == b and a != c
    s1, s2, s3 = (next(inputs.slab_blocks(inputs.rng_for("slab2d_pairs", s))) for s in (5, 5, 6))
    assert len(s1) == inputs.SLAB_STRATA
    assert np.array_equal(s1, s2) and not np.array_equal(s1, s3)
    o1 = inputs.optical_offsets(inputs.rng_for("optical_chart", 5))
    o2 = inputs.optical_offsets(inputs.rng_for("optical_chart", 5))
    assert np.array_equal(o1, o2)


@pytest.mark.parametrize("seed", range(5))
def test_ray_pairs_keep_their_margins(seed):
    pairs = inputs.ray_pairs(inputs.rng_for("ray4d_encode", seed))
    assert pairs[0] == [list(C3[0]), list(C3[1])]
    lo = np.array([b[0] for b in inputs.RAY4D["box"]])
    for p, q in pairs[1:]:
        p, q = np.array(p), np.array(q)
        for c in (p, q):
            k = (c - lo) / H
            assert np.allclose(k, np.rint(k))  # lattice-aligned
            assert inputs.ray_distance(inputs.RAY4D, np.rint(k)) >= H  # outside the h/2 tube
        assert p[0] == 0.5 and q[0] > p[0]  # earliest-slice source, later target
        assert abs(abs(q[0] - p[0]) - np.linalg.norm(q[1:] - p[1:])) >= 2 * H - 1e-12


def test_optical_offsets_are_off_axis():
    off = inputs.optical_offsets(inputs.rng_for("optical_chart", 0))
    norm = np.linalg.norm(off, axis=1)
    assert np.all((norm >= 0.3) & (norm <= 0.8))
    assert np.all(np.linalg.norm(off[:, 1:], axis=1) >= 0.4 * norm - 1e-12)


# ---------------------------------------------------------------------------
# host-speed adjustment
# ---------------------------------------------------------------------------

def test_adjusted_times_rescale_by_the_probes_around_each_op():
    ref = hostspeed.REF_S
    res = {"times": [9.0, 1.0, 1.0, 3.0], "hostspeed_s": [ref, ref, ref, 2 * ref, 2 * ref],
           "inop_probe_s": [[], [], [2 * ref], [4 * ref]]}  # operation 0 is the warm-up
    assert run.adjusted_times(res) == pytest.approx([1.0, 1.0 / (5 / 3), 3.0 / (8 / 3)])


def test_probe_work_is_fixed():
    assert hostspeed._dijkstra() == hostspeed._dijkstra() > 0
    assert hostspeed.probe() > 0


def test_sampler_probes_during_an_operation_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(0.05) as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2 and all(s > 0 for s in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
