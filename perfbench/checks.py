"""Hard checks and accuracy figures, computed after timing.

Each check takes what one operation returned plus the exact reference and
returns a list of reasons the operation is wrong (empty when it is right).
An operation that raised, or whose list is not empty, counts as failed.

References:
- Minkowski space with tau = t has null distance max(|dt|, |dx|)
  (Sormani-Vega 2016); removing a ray does not change that infimum.
- Causality in 1+1 Minkowski is dt >= |dx|, exactly, on lattice indices.
- The upper half space has cosmological time t.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Slack for float sums of lattice edge weights that telescope to |dtau|.
FLOAT_SLACK = 1e-9

CAUSAL_AND_EQUAL = "CausalAndEqual"
SPACELIKE_AND_STRICT = "SpacelikeAndStrict"
MISSING_CAUSAL = "Violation(MissingCausal)"
CAUSAL_BUT_STRICT = "Violation(CausalButStrict)"


def minkowski_dhat(p, q) -> float:
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    return max(abs(float(d[0])), float(np.linalg.norm(d[1:])))


# ---------------------------------------------------------------------------
# slab2d_pairs
# ---------------------------------------------------------------------------

def slab_dhat(p_idx, q_idx, h) -> float:
    """Exact null distance between two 1+1 lattice points, from their indices."""
    return h * max(abs(int(q_idx[0]) - int(p_idx[0])), abs(int(q_idx[1]) - int(p_idx[1])))


def slab_pair(p_idx, q_idx, h, estimate, estimate_rev, reachable,
              witness_error, witness_length) -> list:
    """One null_distance_result + reach answer on the 1+1 slab."""
    why = []
    exact = slab_dhat(p_idx, q_idx, h)
    if not math.isfinite(estimate) or estimate < exact - FLOAT_SLACK:
        why.append(f"estimate {estimate!r} below exact {exact!r}")
    if estimate != estimate_rev:
        why.append(f"estimate not symmetric: {estimate!r} vs {estimate_rev!r}")
    dt = int(q_idx[0]) - int(p_idx[0])
    causal = dt >= abs(int(q_idx[1]) - int(p_idx[1]))
    if bool(reachable) != causal:
        why.append(f"reach says {bool(reachable)}, continuum says {causal}")
    if witness_error:
        why.append(f"witness invalid: {witness_error}")
    elif not abs(witness_length - estimate) <= 1e-9:
        why.append(f"witness null_length {witness_length!r} != estimate {estimate!r}")
    return why


# ---------------------------------------------------------------------------
# ray4d_encode
# ---------------------------------------------------------------------------

def continuum_verdict(p, q, c3_pair) -> str:
    if [list(p), list(q)] == [list(c3_pair[0]), list(c3_pair[1])]:
        return MISSING_CAUSAL
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    timelike = abs(float(d[0])) > float(np.linalg.norm(d[1:]))
    return CAUSAL_AND_EQUAL if timelike else SPACELIKE_AND_STRICT


def ray_job(pairs, verdicts, h, c3_pair) -> tuple:
    """One encode-test output against its pair file.

    Returns (reasons, excesses, n_wrong_verdicts).
    """
    why = []
    excess = []
    wrong = 0
    if len(verdicts) != len(pairs):
        return [f"{len(verdicts)} verdicts for {len(pairs)} pairs"], excess, wrong
    for (p, q), v in zip(pairs, verdicts):
        tag = f"{p}->{q}"
        if [list(map(float, v["p"])), list(map(float, v["q"]))] != [list(p), list(q)]:
            why.append(f"{tag}: output echoes another pair")
            continue
        est = float(v["estimate"])
        dtau = abs(q[0] - p[0])
        if not math.isfinite(est) or est < dtau - FLOAT_SLACK:
            why.append(f"{tag}: estimate {est!r} below |dtau| {dtau!r}")
        if v["verdict"] == CAUSAL_BUT_STRICT:
            why.append(f"{tag}: verdict CausalButStrict")
        if [list(p), list(q)] == [list(c3_pair[0]), list(c3_pair[1])]:
            if v["verdict"] != MISSING_CAUSAL:
                why.append(f"criterion-3 pair: verdict {v['verdict']}")
            if v["reachable"]:
                why.append("criterion-3 pair: reachable")
            if not 2.0 - FLOAT_SLACK <= est <= 2.0 + 2.0 * h + FLOAT_SLACK:
                why.append(f"criterion-3 pair: estimate {est!r} outside [2, 2+2h]")
        excess.append(est - minkowski_dhat(p, q))
        if v["verdict"] != continuum_verdict(p, q, c3_pair):
            wrong += 1
    return why, excess, wrong


# ---------------------------------------------------------------------------
# box4d_cosmo
# ---------------------------------------------------------------------------

def cosmo_csv(path, expected_coords: np.ndarray, h) -> tuple:
    """One cosmo-time CSV against the lattice it must cover.

    Returns (reasons, largest abs_err).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    dim = expected_coords.shape[1]
    header = [f"x{a}" for a in range(dim)] + ["tau_numeric", "tau_analytic_if_known", "abs_err"]
    if not rows or rows[0] != header:
        return ["missing or wrong header"], math.inf
    try:
        data = np.array(rows[1:], dtype=float)
    except ValueError as exc:
        return [f"non-numeric cell: {exc}"], math.inf
    why = []
    if data.shape[0] != expected_coords.shape[0]:
        why.append(f"{data.shape[0]} rows for {expected_coords.shape[0]} nodes")
    if data.size and not np.all(np.isfinite(data)):
        why.append("non-finite value")
    if not why:
        got = np.unique(np.rint(data[:, :dim] / h).astype(np.int64), axis=0)
        want = np.unique(np.rint(expected_coords / h).astype(np.int64), axis=0)
        if got.shape[0] != data.shape[0] or not np.array_equal(got, want):
            why.append("rows do not cover each node exactly once")
    err = float(data[:, -1].max()) if data.size else math.inf
    return why, err


# ---------------------------------------------------------------------------
# optical_chart
# ---------------------------------------------------------------------------

def optical_query(q, residual, grad_norm) -> list:
    """One chart_inverse + grad_norm_omega answer; the residual is
    ||chart_forward(chart_inverse(q)) - q||_inf, re-shot after timing."""
    why = []
    scale = max(1.0, float(np.abs(np.asarray(q, dtype=float)).max()))
    if not residual <= 1e-8 * scale:
        why.append(f"round-trip residual {residual!r} > 1e-8*{scale}")
    if not (math.isfinite(grad_norm) and grad_norm < 2.0):
        why.append(f"grad_norm {grad_norm!r} not finite and < 2")
    return why
