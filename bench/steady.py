"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 bench/steady.py --out bench/results/set-a.json

Runs bench/run.py once per workload and seed 1-10, one after another, for the
run_seconds that BENCHMARK.json declares.  Writes every run's metrics plus,
per workload and metric, the median and the interquartile range as a share
of the median (statistics.quantiles, n=4).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def machine() -> dict:
    import numpy

    with open("/proc/meminfo", encoding="ascii") as fh:
        mem_kib = int(fh.readline().split()[1])
    return {"nproc": len(os.sched_getaffinity(0)),
            "mem_gib": round(mem_kib / 2**20, 1),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    doc = {"machine": machine(), "seconds": SECONDS, "runs": {}, "summary": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, runs[-1], flush=True)
        doc["runs"][workload] = runs
        names = [k for k in runs[0] if k not in ("seed", "correct", "attempted", "failed")]
        doc["summary"][workload] = {
            name: {"median": statistics.median(r[name] for r in runs),
                   "iqr_frac": spread([r[name] for r in runs])}
            for name in names
        }
        doc["summary"][workload]["failed_frac"] = (
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["summary"], indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
