"""Spans and counts around the layers' public functions, from outside the
package.

``install`` replaces each target on every loaded ``nulldist.*`` module (and
the package) wherever the attribute *is* the original object, because
``cli``, ``curves`` and ``timefn`` import names such as ``build_grid`` and
``reach`` directly.  Methods are replaced on their class.  ``restore`` puts
every original back.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

SPAN = "span"
COUNT = "count"


def _grid_stats(grid) -> dict:
    """Node/edge counts and emitted edges per in-box candidate pair."""
    shape = np.asarray(grid.shape)
    offs = np.abs(np.asarray(grid.offsets_used))
    candidates = int(np.prod(np.maximum(shape[None, :] - offs, 0), axis=1).sum()) if offs.size else 0
    return {"nodes": grid.n_nodes, "edges": grid.n_edges,
            "yield": grid.n_edges / candidates if candidates else 0.0}


# (module, attribute path, kind, observer of the return value)
TARGETS = [
    ("grid", "build_grid", SPAN, _grid_stats),
    ("grid", "CausalGrid.csr_out", SPAN, None),
    ("grid", "CausalGrid.csr_in", SPAN, None),
    ("grid", "CausalGrid.csr_undirected", SPAN, None),
    ("grid", "shortest_null_path", SPAN, None),
    ("grid", "reach", SPAN, None),
    ("_kernels", "dijkstra", SPAN, lambda r: {"reached": float(np.isfinite(r[0]).mean())}),
    ("_kernels", "bfs_reach", SPAN, None),
    ("_kernels", "longest_path_values", SPAN, None),
    ("timefn", "cosmological_time_numeric", SPAN, None),
    ("timefn", "_boundary_base", SPAN, None),
    ("spacetime", "Spacetime.domain_contains", COUNT, None),
    ("spacetime", "Spacetime.metric_at", COUNT, None),
    ("curves", "null_distance_result", SPAN, lambda r: {"segments": r.witness.n_segments}),
    ("curves", "curve_from_grid_path", SPAN, None),
    ("curves", "encodes_causality_test", SPAN, None),
    ("optical", "build_chart", SPAN, None),
    ("optical", "chart_inverse", SPAN, None),
    ("optical", "chart_forward", SPAN, None),
    ("optical", "_newton", SPAN, None),
    ("optical", "_coarse_seeds", COUNT, None),
    ("optical", "christoffels", COUNT, None),
    ("optical", "grad_norm_omega", SPAN, None),
    ("optical", "g_R_eval", SPAN, None),
    ("cli", "main", SPAN, None),
    ("cli", "_emit_csv", SPAN, None),
    ("cli", "_emit_json", SPAN, None),
    ("scene", "Scene.from_file", SPAN, None),
]


def metric_name(module: str, path: str) -> str:
    """``<module>.<qualname>``; metric names must start with a letter, so
    ``_kernels`` reads ``kernels``."""
    return f"{module.lstrip('_')}.{path}"


class Tracer:
    """Span recorder.  A span is [name, start, end, parent, op, raised, stats]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = "setup"
        self._stack = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1] if stack else None,
                   self.op, False, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                rec[6] = observe(out)
            return out

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore --------------------------------------------------

    def install(self):
        for mod_name, path, kind, observe in TARGETS:
            module = sys.modules.get(f"nulldist.{mod_name}")
            name = metric_name(mod_name, path)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in owner.__dict__:
                continue  # gone from the package: its metrics read 0
            if owner_name:
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(kind, name, fn, observe)
                setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                self._undo.append((owner, attr, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(kind, name, original, observe)
            holders = [m for key, m in sys.modules.items()
                       if m is not None and (key == "nulldist" or key.startswith("nulldist."))]
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    setattr(holder, attr, wrapped)
                    self._undo.append((holder, attr, original))

    def start_ops(self):
        """End the set-up phase: later spans carry operation ids, and
        counts restart so they cover timed operations only."""
        self.counts.clear()

    def _wrap(self, kind, name, fn, observe):
        return self._span(name, fn, observe) if kind == SPAN else self._count(name, fn)

    def restore(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the time its child spans cover.  Calls
        are nested and single-threaded, so children never overlap."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "raised", "stats"],
                       "spans": self.spans, "counts": self.counts}, fh)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-operation means over the timed operations, plus the set-up
    phase's own grid build and CSR totals (slab2d builds its grid there)."""
    n = max(1, n_ops)
    selfs = tracer.self_times()
    self_s, calls, raised, setup_s = {}, {}, {}, {}
    reached, segments, grid = [], [], None
    for rec, st in zip(tracer.spans, selfs):
        name, op, err, stats = rec[0], rec[4], rec[5], rec[6]
        if name == "grid.build_grid" and stats:
            grid = stats
        if op == "setup":
            setup_s[name] = setup_s.get(name, 0.0) + st
            continue
        self_s[name] = self_s.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        raised[name] = raised.get(name, 0) + int(err)
        if name == "kernels.dijkstra" and stats:
            reached.append(stats["reached"])
        if name == "curves.null_distance_result" and stats:
            segments.append(stats["segments"])

    out = {}
    for mod_name, path, kind, _ in TARGETS:
        name = metric_name(mod_name, path)
        if kind == COUNT:
            out[f"{name}.calls"] = tracer.counts.get(name, 0) / n
        else:
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / n
            out[f"{name}.calls"] = calls.get(name, 0) / n
    out["optical.chart_forward.errors"] = raised.get("optical.chart_forward", 0) / n
    for name in ("grid.build_grid", "grid.CausalGrid.csr_undirected", "grid.CausalGrid.csr_out"):
        out[f"setup.{name}.self_s"] = setup_s.get(name, 0.0)
    grid = grid or {"nodes": 0, "edges": 0, "yield": 0.0}
    out["grid.nodes"] = grid["nodes"]
    out["grid.edges"] = grid["edges"]
    out["grid.edge_yield"] = grid["yield"]
    out["kernels.dijkstra.reached_frac"] = float(np.mean(reached)) if reached else 0.0
    out["curves.witness_segments"] = float(np.mean(segments)) if segments else 0.0
    return out
