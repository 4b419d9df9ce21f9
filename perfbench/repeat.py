#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --workload NAME --seeds 0-9 [--trace 0|1] [--json OUT]

For every metric it prints the median, the quartiles and the spread
(distance between the quartiles as a share of the median), the figures a
comparison between two commits is judged on.  ``--json`` also writes them
with the environment header of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="'0-9' or '3,5,8'")
    ap.add_argument("--seconds", type=float, default=None,
                    help="defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values, runs, env = {}, [], None
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        env = env or json.loads(lines[0])["env"]
        res = json.loads(lines[-1])
        runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                     "failed": res["failed"],
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
        print(json.dumps(runs[-1]), flush=True)
        for name, v in res["metrics"].items():
            values.setdefault(name, []).append(v["value"])

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None}
        print(f"{name:48s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {summary[name]['spread']}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "trace": args.trace, "env": env,
             "summary": summary, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
