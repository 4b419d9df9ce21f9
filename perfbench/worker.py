"""One fresh benchmark process: set up one workload, print ``ready``, time
the host-speed probe, then (unless it is a set-up probe) run operations back
to back until the time is up, with the host-speed probe after each and every
SAMPLE_EVERY_S seconds inside each, check every output, and write a result
file.  An operation's time excludes the probes run inside it.  The first
operation is a warm-up; ``peak_rss_mb`` is the peak resident size through
set-up and that operation.

Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (needs the src path above)
from tracer import Tracer, layer_metrics  # noqa: E402

SAMPLE_EVERY_S = 0.5  # host-speed probe period inside an operation
WARMUP_OPS = 1  # not sampled and, in run.py, not in the latency figures


def _check(wl, record) -> list:
    try:
        return wl.check(record)
    except Exception as exc:  # output too broken to check: the operation failed
        return [f"check raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=["probe", "main", "traced"], required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    if not Path(workloads.nulldist.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"nulldist imported from {workloads.nulldist.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.role == "traced" else None
        if tracer:
            tracer.install()
        wl.setup()
        print("ready", flush=True)
        hostspeed_s = [hostspeed.probe()]  # entry k and k+1 bracket operation k
        if args.role == "probe":
            Path(args.out).write_text(json.dumps({"hostspeed_s": hostspeed_s}), encoding="utf-8")
            return 0
        if tracer:
            tracer.start_ops()

        # no probes inside traced operations: their spans must hold program time only
        sampler = None if tracer else hostspeed.Sampler(SAMPLE_EVERY_S)
        times, inop_s, errors, records = [], [], [], []
        start = time.perf_counter()
        k = 0
        while k <= WARMUP_OPS or time.perf_counter() - start < args.seconds:
            wl.prepare(k)
            if tracer:
                tracer.op = k
            sampling = sampler if sampler and k >= WARMUP_OPS else contextlib.nullcontext()
            t0 = time.perf_counter()
            with sampling:
                try:
                    rec, err = wl.run(k), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    rec, err = None, f"{type(exc).__name__}: {exc}"
            inop_s.append(sampler.samples if sampling is sampler else [])
            times.append(time.perf_counter() - t0 - sum(inop_s[-1]))
            records.append(rec)
            errors.append(err)
            k += 1
            hostspeed_s.append(hostspeed.probe())
            if k == WARMUP_OPS:
                # read here: the sampler's timer signal changes how far the
                # resident size grows over later operations, by up to 15%
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        layers = None
        if tracer:
            tracer.restore()
            layers = layer_metrics(tracer, len(times))
            tracer.dump(Path(args.out).with_name(f"spans-{args.workload}-seed{args.seed}.json"))

        reasons = [[err] if err else _check(wl, rec) for rec, err in zip(records, errors)]
        result = {"times": times, "hostspeed_s": hostspeed_s,
                  "inop_probe_s": inop_s, "reasons": reasons,
                  "accuracy": dict.fromkeys(workloads.ACCURACY, 0.0) | wl.accuracy(),
                  "peak_rss_mb": peak_rss_mb, "layers": layers,
                  "extra": {"query_s": getattr(wl, "query_s", None), "c3": getattr(wl, "c3", None)}}
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
