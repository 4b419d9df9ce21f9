#!/usr/bin/env python3
"""Benchmark of the nulldist package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  One run measures one workload in fresh single-threaded
processes, one client in a closed loop:

- ``--trace 0``: four set-up probes and one measuring process.  ``setup_s``
  is the median of the five set-up times; the measuring process runs
  operations back to back for S seconds, timing each from outside the
  program, then checks every output against an exact reference.  Its
  first operation is a warm-up, left out of the latency figures.
  Set-up and operation times are adjusted to the host's reference speed
  (see ``hostspeed.py``):
  on a shared host co-tenants slow every process by up to 1.8x, for seconds
  to minutes at a time, so each set-up is divided by the host-speed probe
  timed right after it and each operation by the mean of the probes timed
  just before, inside (every half second, their time taken out of the
  operation's) and just after it, then multiplied by the probe's reference
  time.
  ``op_adj_ms_p50`` is the median of the adjusted operation times; the raw
  times, their median and p90, and the probe times are in the result record.
  ``peak_rss_mb`` is the measuring process's peak resident size through
  set-up and the warm-up (see worker.py for why not later).
- ``--trace 1``: a traced measuring process for S/2 seconds between two
  untraced ones of S/4 seconds; prints the per-layer metrics and the
  tracing overhead, from adjusted operation times.

Metric names and units come from BENCHMARK.json.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; a fuller record, with the
environment header and the accuracy figures, is written to
``perfbench/_work/result-<workload>-seed<seed>-trace<t>.json``.

``perfbench/repeat.py`` runs a range of seeds and summarises each metric;
``perfbench/baseline/`` holds those summaries for the first commit measured.
Which end-to-end metric each per-layer metric should move is written down in
``perfbench/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata, util
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("slab2d_pairs", "box4d_cosmo", "ray4d_encode", "optical_chart")
SETUP_PROBES = 4
WARMUP_OPS = 1  # as in worker.py: operation 0 is a warm-up, not timed here
RUN_LIMIT_S = 170.0  # a whole run, workers included, ends within this
PINNED_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment header
# ---------------------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    cpu_model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(index / "type")
        if kind != "Instruction":
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    src = ROOT / "src" / "nulldist"
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_importable": util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "pinned_threads": PINNED_THREADS,
        "numpy_madvise_hugepage": _child_env()["NUMPY_MADVISE_HUGEPAGE"],
        "src_nulldist_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                                  for p in sorted(src.glob("*.py"))),
    }


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(PINNED_THREADS)
    # numpy asks for 2 MB pages for large arrays; whether the host has one
    # free depends on what else runs, and moved box4d_cosmo's peak resident
    # size by 10% between sets of runs an hour apart
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def spawn(workload: str, seed: int, seconds: float, role: str, tag: str, deadline: float):
    """Start one fresh worker; returns (adjusted set-up seconds, result).

    Set-up is timed from process start to the worker's ``ready`` line, then
    adjusted by the host-speed probe the worker times right after it.  The
    worker is killed if it is still running at ``deadline``.
    """
    out = WORK / f"worker-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--role", role,
           "--workdir", str(WORK / f"tmp-{os.getpid()}-{tag}"), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker for {workload} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{role} worker for {workload} failed (exit {proc.returncode})")
    try:
        res = json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink()
    return hostspeed.adjust(setup_s, res["hostspeed_s"][:1]), res


def adjusted_times(res: dict) -> list:
    """Times of the operations after the warm-up, at the reference speed,
    each by the probes just before, inside and just after it."""
    hs = res["hostspeed_s"]
    return [hostspeed.adjust(t, [hs[k], *res["inop_probe_s"][k], hs[k + 1]])
            for k, t in enumerate(res["times"]) if k >= WARMUP_OPS]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def fail_counts(reasons_per_op: list) -> tuple:
    """(attempted, failed): an operation failed if its reason list is not empty."""
    return len(reasons_per_op), sum(1 for r in reasons_per_op if r)


def latency_summary(times: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ms = [1000.0 * t for t in times]
    out = {"n": len(ms), "p50": statistics.median(ms)}
    if len(ms) >= 100:
        out["p90"] = statistics.quantiles(ms, n=10)[-1]
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    if trace:
        # untraced processes before and after the traced one, so that drift in
        # the machine's speed over the run largely cancels in the overhead
        _, before = spawn(workload, seed, seconds / 4, "main", "before", deadline)
        _, traced = spawn(workload, seed, seconds / 2, "traced", "traced", deadline)
        _, after = spawn(workload, seed, seconds / 4, "main", "after", deadline)
        results = [before, traced, after]
        base = statistics.median(adjusted_times(before) + adjusted_times(after))
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = statistics.median(adjusted_times(traced)) / base - 1.0
        setups = []
    else:
        setups = [spawn(workload, seed, 0, "probe", f"probe{i}", deadline)[0]
                  for i in range(SETUP_PROBES)]
        setup_s, main = spawn(workload, seed, seconds, "main", "main", deadline)
        setups.append(setup_s)
        results = [main]
        metrics = {
            "setup_s": statistics.median(setups),
            "op_adj_ms_p50": 1000.0 * statistics.median(adjusted_times(main)),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    for res in results:
        for name, value in res["accuracy"].items():
            metrics[name] = max(metrics.get(name, value), value)
    reasons = [r for res in results for r in res["reasons"]]
    attempted, failed = fail_counts(reasons)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": [r for r in reasons if r][:20],
        "setup_samples_s": setups,
        "latency_ms": [latency_summary(res["times"][WARMUP_OPS:]) for res in results],
        "adjusted_latency_ms": [latency_summary(adjusted_times(res)) for res in results],
        "ops_per_s": [len(res["times"]) / sum(res["times"]) for res in results],
        "op_s": [res["times"] for res in results],
        "hostspeed_s": [res["hostspeed_s"] for res in results],
        "inop_probe_s": [res["inop_probe_s"] for res in results],
        "query_ms": [latency_summary(res["extra"]["query_s"]) for res in results
                     if res["extra"]["query_s"]],
        "criterion3": results[0]["extra"]["c3"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception so spawn() still stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "nulldist" / "__init__.py").is_file():
        print(f"error: no nulldist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    env = environment()
    print(json.dumps({"env": env}), flush=True)
    try:
        res = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    record = dict(res, env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({k: res[k] for k in ("latency_ms", "query_ms", "criterion3", "failures")}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
