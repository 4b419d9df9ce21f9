"""Seeded inputs for the four workloads, made with plain numpy.

The program under test only ever sees what this module writes: scene JSON
files, encode-test pair files and query points.  The same seed gives the same
inputs.  Every point is generated as integer lattice indices first, so pairs
can be classified exactly (causal or not, distance to the null cone) before
they are turned into coordinates.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# 1+1 Minkowski slab with tau = t.
SLAB = {"name": "minkowski", "params": {}, "dim": 2,
        "box": [[-1.0, 1.0], [-1.0, 1.0]], "h": 0.025, "stencil_radius": 2}

# The 3+1 upper-half box of the ROADMAP baseline.
BOX4D = {"name": "upper_half_minkowski", "params": {}, "dim": 4,
         "box": [[0.5, 3.5], [-1.5, 1.5], [-1.5, 1.5], [-1.5, 1.5]], "h": 0.25,
         "stencil_radius": 2}

# The criterion-3 box: upper half space minus the ray {(t,0,0,0): t >= 2}.
RAY4D = dict(BOX4D, name="missing_ray")
RAY_ORIGIN_T = 2.0
C3_PAIR = ([1.0, -1.0, 0.0, 0.0], [3.0, 1.0, 0.0, 0.0])

# Curved 3+1 warped product -dt^2 + t^2 dx^2 and the chart centre.
OPTICAL = {"name": "warped_product", "params": {"slope": 1.0, "offset": 0.0}, "dim": 4,
           "center": [1.0, 0.0, 0.0, 0.0], "eps": 0.3}

SLAB_STRATA = 16
RAY_SOURCES_PER_JOB = 2
RAY_TARGETS_PER_SOURCE = 2
RAY_WORK = 2.4  # summed predicted_work of one pair file's seeded pairs
RAY_WORK_TOL = 0.05
OPTICAL_QUERIES_PER_JOB = 8

_TAGS = {"slab2d_pairs": 1, "box4d_cosmo": 2, "ray4d_encode": 3, "optical_chart": 4}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """Independent stream per (workload, seed)."""
    return np.random.default_rng([_TAGS[workload], int(seed)])


def scene_dict(spec: dict) -> dict:
    out = {"schema": 1, "dim": spec["dim"],
           "spacetime": {"name": spec["name"], "params": dict(spec["params"])},
           "time": {"kind": "coordinate"}}
    if "box" in spec:
        out["grid"] = {"box": spec["box"], "h": spec["h"],
                       "stencil_radius": spec["stencil_radius"]}
    return out


def write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return path


def lattice_shape(spec: dict) -> np.ndarray:
    lo = np.array([b[0] for b in spec["box"]])
    hi = np.array([b[1] for b in spec["box"]])
    return np.floor((hi - lo) / spec["h"] + 1e-9).astype(np.int64) + 1


def coords_of(spec: dict, idx) -> list:
    """Lattice indices -> coordinates, computed the way the grid computes them."""
    lo = np.array([b[0] for b in spec["box"]])
    return [float(lo[a] + spec["h"] * int(idx[a])) for a in range(len(idx))]


def lattice_points(spec: dict) -> np.ndarray:
    """Every lattice point of the box as float indices, in the grid's order."""
    shape = lattice_shape(spec)
    idx = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    return np.stack([a.ravel() for a in idx], axis=1).astype(float)


def predicted_work(points: np.ndarray, src, tgt) -> float:
    """Share of lattice points closer to ``src`` than ``tgt`` is, in the
    continuum null distance max(|dt|, |dx|).  Dijkstra stops once the
    target settles, so its cost tracks this share."""
    def dhat(a, b):
        d = b - np.asarray(a, dtype=float)
        return np.maximum(np.abs(d[..., 0]), np.linalg.norm(d[..., 1:], axis=-1))

    return float(np.mean(dhat(src, points) < dhat(src, np.asarray(tgt, dtype=float))))


# ---------------------------------------------------------------------------
# slab2d_pairs
# ---------------------------------------------------------------------------

def _slab_draw(rng: np.random.Generator, shape) -> tuple:
    while True:
        p, q = rng.integers(0, shape, size=(2, 2))
        if not np.array_equal(p, q):
            return p, q


def slab_blocks(rng: np.random.Generator):
    """Endless stream of blocks of SLAB_STRATA distinct lattice pairs
    (p_idx, q_idx), uniform over the slab but stratified on
    ``predicted_work``: each block holds one pair from each equal-probability
    band of it, in random order.  A block is one timed operation, so every
    operation holds about the same search work whatever the seed."""
    shape = lattice_shape(SLAB)
    points = lattice_points(SLAB)
    ref = np.random.default_rng(0)  # band edges are the same for every seed
    sample = [predicted_work(points, *_slab_draw(ref, shape)) for _ in range(1000)]
    edges = np.unique(np.quantile(sample, np.linspace(0.0, 1.0, SLAB_STRATA + 1)[1:-1]))
    while True:
        block = [None] * (edges.size + 1)
        while any(b is None for b in block):
            p, q = _slab_draw(rng, shape)
            band = int(np.searchsorted(edges, predicted_work(points, p, q), side="right"))
            if block[band] is None:
                block[band] = (p, q)
        yield [block[i] for i in rng.permutation(len(block))]


# ---------------------------------------------------------------------------
# ray4d_encode
# ---------------------------------------------------------------------------

def ray_distance(spec: dict, idx: np.ndarray) -> float:
    """Euclidean distance from a lattice point to the excised ray."""
    c = np.array(coords_of(spec, idx))
    along = max(c[0] - RAY_ORIGIN_T, 0.0)
    return float(np.hypot(c[0] - RAY_ORIGIN_T - along, np.linalg.norm(c[1:])))


def cone_gap(p_idx, q_idx) -> tuple:
    """(dt, |dx|) in lattice units for a pair."""
    d = np.asarray(q_idx, dtype=float) - np.asarray(p_idx, dtype=float)
    return d[0], float(np.linalg.norm(d[1:]))


def ray_pairs(rng: np.random.Generator) -> list:
    """One encode-test pair file: the criterion-3 pair, then a few sources on
    the earliest slice, each with later targets.

    Targets stay outside the ray's h/2 excision tube (a margin of h is kept)
    and at least 2h off the null cone of their source, so the continuum
    verdict is unambiguous.  A pair's search cost varies about tenfold with
    where it sits, so whole draws are kept only when their summed
    ``predicted_work`` is within RAY_WORK_TOL of RAY_WORK: the seed changes
    which pairs run, not how much work one file holds.
    """
    shape = lattice_shape(RAY4D)
    points = lattice_points(RAY4D)
    while True:
        pairs, work = [], 0.0
        for _ in range(RAY_SOURCES_PER_JOB):
            src = np.concatenate([[0], rng.integers(0, shape[1:])])
            made = 0
            while made < RAY_TARGETS_PER_SOURCE:
                tgt = np.concatenate([[rng.integers(1, shape[0])], rng.integers(0, shape[1:])])
                dt, dx = cone_gap(src, tgt)
                if abs(dt - dx) < 2.0 or ray_distance(RAY4D, tgt) < RAY4D["h"]:
                    continue
                pairs.append((coords_of(RAY4D, src), coords_of(RAY4D, tgt)))
                work += predicted_work(points, src, tgt)
                made += 1
        if abs(work - RAY_WORK) <= RAY_WORK_TOL:
            return [[list(p), list(q)] for p, q in [C3_PAIR] + pairs]


# ---------------------------------------------------------------------------
# optical_chart
# ---------------------------------------------------------------------------

def optical_offsets(rng: np.random.Generator) -> np.ndarray:
    """Query offsets for one chart job, in units of the chart's probed
    domain radius: norm in [0.3, 0.8], spatial part at least 0.4 of the norm
    so every point is well off the chart axis."""
    out = []
    while len(out) < OPTICAL_QUERIES_PER_JOB:
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        if np.linalg.norm(u[1:]) < 0.4:
            continue
        out.append(u * rng.uniform(0.3, 0.8))
    return np.array(out)
