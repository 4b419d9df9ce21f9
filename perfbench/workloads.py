"""The four workloads.  Each one has the same shape:

- ``setup()``: everything before the first timed operation;
- ``prepare(k)``: untimed input for operation k (writing a pair file, say);
- ``run(k)``: operation k, timed by the caller from outside the program;
- ``check(record)``: after timing, the reasons the operation's output is
  wrong (empty when right), accumulating the accuracy figures;
- ``accuracy()``: the accuracy figures over every checked operation.

Program functions are looked up on their modules at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import nulldist
from nulldist import cli, curves, grid as grid_mod, optical
from nulldist.errors import NullDistError
from nulldist.spacetime import TimeSense

# Accuracy figures; a workload that computes none of one reports 0.
ACCURACY = ("curves.dist_excess_max", "curves.verdict_wrong_frac", "timefn.tau_err_max",
            "optical.omega_resid_max")

# The reverse search costs as much as the query, so slab2d_pairs checks
# symmetry on every SYMMETRY_EVERY-th pair only.
SYMMETRY_EVERY = 4


class Slab2dPairs:
    """Library calls on one 1+1 grid: per pair, null_distance_result and a
    reach(p) membership test.  Operation = one block of inputs.SLAB_STRATA
    independent pairs, one from each band of predicted search work, so that
    operations are alike and a low percentile of their times is the
    program's cost, not the luck of the draw; each pair is also timed on its
    own (``query_s``)."""

    name = "slab2d_pairs"

    def __init__(self, seed: int, workdir: Path):
        self.rng = inputs.rng_for(self.name, seed)
        self.workdir = workdir
        self.excess = []
        self.query_s = []

    def setup(self):
        scene = nulldist.Scene.from_file(str(inputs.write_json(
            self.workdir / "slab2d.json", inputs.scene_dict(inputs.SLAB))))
        st = scene.spacetime()
        self.tau = scene.time_function(st)
        params = scene.grid_params()
        self.grid = nulldist.build_grid(st, self.tau, params.box, params.h, params.stencil)
        self.h = params.h
        self.blocks = inputs.slab_blocks(self.rng)
        # warm-up query on a fixed pair: fills the lazy CSR caches
        self.cur = [(np.array([0, 0]), np.array([40, 40]))]
        self.run(-1)
        self.query_s.clear()

    def prepare(self, k):
        self.cur = next(self.blocks)

    def run(self, k):
        g = self.grid
        answers = []
        for p_idx, q_idx in self.cur:
            t0 = time.perf_counter()
            pn = g.node_of(inputs.coords_of(inputs.SLAB, p_idx))
            qn = g.node_of(inputs.coords_of(inputs.SLAB, q_idx))
            res = curves.null_distance_result(g, pn, qn)
            reachable = qn in grid_mod.reach(g, pn)
            self.query_s.append(time.perf_counter() - t0)
            answers.append((p_idx, q_idx, pn, qn, res, reachable))
        return answers

    def check(self, record):
        why = []
        for i, (p_idx, q_idx, pn, qn, res, reachable) in enumerate(record):
            est_rev = res.estimate
            if i % SYMMETRY_EVERY == 0:
                est_rev, _ = grid_mod.shortest_null_path(self.grid, qn, pn)
            try:
                length = curves.null_length(res.witness, self.tau)  # validates first
                error = None
            except NullDistError as exc:
                length, error = math.nan, f"{type(exc).__name__}: {exc}"
            self.excess.append(res.estimate - checks.slab_dhat(p_idx, q_idx, self.h))
            why += checks.slab_pair(p_idx, q_idx, self.h, res.estimate, est_rev, reachable,
                                    error, length)
        return why

    def accuracy(self):
        return {"curves.dist_excess_max": max(self.excess, default=math.nan)}


class _CliJobs:
    """Shared set-up for workloads that run one CLI command per operation."""

    spec: dict

    def __init__(self, seed: int, workdir: Path):
        self.rng = inputs.rng_for(self.name, seed)
        self.workdir = workdir

    def setup(self):
        self.scene = inputs.write_json(self.workdir / f"{self.name}.json",
                                       inputs.scene_dict(self.spec))

    def _main(self, argv):
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"nulldist {argv[0]} exited with {rc}")


class Box4dCosmo(_CliJobs):
    """``nulldist cosmo-time`` on the 3+1 upper-half box.  Operation = one
    whole command: scene parse, grid build, longest-path pass, CSV."""

    name = "box4d_cosmo"
    spec = inputs.BOX4D

    def setup(self):
        super().setup()
        lo = np.array([b[0] for b in self.spec["box"]])
        coords = lo + self.spec["h"] * inputs.lattice_points(self.spec)
        self.expected = coords[coords[:, 0] > 0.0]  # upper half space: t > 0
        self.errs = []

    def prepare(self, k):
        self.out = self.workdir / f"cosmo_{k}.csv"

    def run(self, k):
        self._main(["cosmo-time", str(self.scene), "--out", str(self.out)])
        return self.out

    def check(self, record):
        why, err = checks.cosmo_csv(record, self.expected, self.spec["h"])
        record.unlink()
        self.errs.append(err)
        return why

    def accuracy(self):
        return {"timefn.tau_err_max": max(self.errs, default=math.nan)}


class Ray4dEncode(_CliJobs):
    """``nulldist encode-test`` on the criterion-3 missing-ray box with a
    fresh seeded pair file per operation.  Operation = one whole command."""

    name = "ray4d_encode"
    spec = inputs.RAY4D

    def setup(self):
        super().setup()
        self.excess = []
        self.wrong = 0
        self.n_pairs = 0
        self.c3 = None

    def prepare(self, k):
        self.pairs = inputs.ray_pairs(self.rng)
        self.pair_file = inputs.write_json(self.workdir / f"pairs_{k}.json", self.pairs)
        self.out = self.workdir / f"verdicts_{k}.json"

    def run(self, k):
        self._main(["encode-test", str(self.scene), "--pairs", str(self.pair_file),
                    "--out", str(self.out)])
        return self.pairs, self.out

    def check(self, record):
        pairs, out = record
        verdicts = json.loads(out.read_text(encoding="utf-8"))["verdicts"]
        why, excess, wrong = checks.ray_job(pairs, verdicts, self.spec["h"], inputs.C3_PAIR)
        self.excess += excess
        self.wrong += wrong
        self.n_pairs += len(pairs)
        if self.c3 is None:
            self.c3 = {k: verdicts[0][k] for k in ("verdict", "reachable", "estimate")}
        return why

    def accuracy(self):
        return {"curves.dist_excess_max": max(self.excess, default=math.nan),
                "curves.verdict_wrong_frac": self.wrong / max(1, self.n_pairs)}


class OpticalChart:
    """Library calls, as ``nulldist optical`` makes them: build_chart on the
    curved warped product, then chart_inverse and grad_norm_omega at seeded
    off-axis points inside the probed domain radius.  Operation = one chart
    build plus its queries."""

    name = "optical_chart"
    spec = inputs.OPTICAL

    def __init__(self, seed: int, workdir: Path):
        self.rng = inputs.rng_for(self.name, seed)
        self.workdir = workdir
        self.resid = []
        self.query_s = []

    def setup(self):
        scene = nulldist.Scene.from_file(str(inputs.write_json(
            self.workdir / "optical.json", inputs.scene_dict(self.spec))))
        self.st = scene.spacetime()
        self.center = np.array(self.spec["center"])

    def prepare(self, k):
        self.offsets = inputs.optical_offsets(self.rng)

    def run(self, k):
        chart = optical.build_chart(self.st, self.center, TimeSense.FUTURE, eps=self.spec["eps"])
        answers = []
        for off in self.offsets:
            q = self.center + chart.domain_radius * off
            t0 = time.perf_counter()
            val = optical.chart_inverse(chart, q)
            try:
                gn = optical.grad_norm_omega(chart, q)
            except NullDistError:
                gn = math.nan
            self.query_s.append(time.perf_counter() - t0)
            answers.append((q, val, gn))
        return chart, answers

    def check(self, record):
        chart, answers = record
        why = []
        for q, val, gn in answers:
            x = np.zeros(chart.n_space) if val.direction is None else val.lam * val.direction
            resid = float(np.abs(optical.chart_forward(chart, val.omega, x) - q).max())
            self.resid.append(resid)
            why += checks.optical_query(q, resid, gn)
        return why

    def accuracy(self):
        return {"optical.omega_resid_max": max(self.resid, default=math.nan)}


WORKLOADS = {w.name: w for w in (Slab2dPairs, Box4dCosmo, Ray4dEncode, OpticalChart)}
