"""One repetition of one workload, in a fresh single-threaded process.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
one JSON line: the monotonic time at which wythlab was imported and the
inputs were ready, the workload's wall time, the process's peak resident
memory, the verdict counts and, for a traced repetition, its per-layer
numbers.  A fresh process per repetition keeps solve's lru_cache empty at
the start, so no repetition reads another one's results.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import wythlab.cli  # noqa: F401  (imports every traced module)

import tracer
import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", choices=("off", "spans", "memory"), default="off")
    p.add_argument("--run-id", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--scale", type=float, default=1.0, help="shrink sizes (tests only)")
    args = p.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    run = workloads.RUN[args.workload]
    spans = None
    if args.trace == "off":
        api = tracer.plain_api()
    else:
        spans = tracer.Tracer(args.run_id, track_peaks=args.trace == "memory")
    ready = time.monotonic()
    if spans is not None:
        api = tracer.install(spans)

    start = time.perf_counter()
    try:
        verdicts = run(api, inputs, args.outdir)
        attempted, failures = verdicts.attempted, verdicts.failures
    except Exception as exc:  # the workload itself raised: one more failed verdict
        attempted, failures = 1, [f"{args.workload}: raised {exc!r}"]
    wall = time.perf_counter() - start

    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "layers": None,
    }
    if spans is not None:
        result["layers"] = tracer.layer_metrics(spans)
        spans.write(os.path.join(args.outdir, f"spans-{args.run_id}.jsonl"))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
