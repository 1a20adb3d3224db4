"""wythlab benchmark: end-to-end time and memory, or per-layer traced spans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload board --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each repetition runs the workload once in a fresh single-threaded Python
process (PYTHONPATH=src, so no installed console script is needed).
Repetitions follow one another, a closed loop with one client, until the
next one would end after --seconds; at least three run.  Every verdict is
checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, as medians over the repetitions:
  wall_s        first call into wythlab to the last verdict
  peak_rss_mib  peak resident memory of the repetition's process
  setup_s       process start to wythlab imported and inputs ready
failed_frac (failed / attempted verdicts) is printed beside them and is
carried by the failed and attempted keys.

The speed a shared machine gives one process drifts by 20% and more over
minutes.  This process therefore times a fixed calibration mix (calibrate,
no wythlab code) just before and just after each repetition's process, and
both times are reported at reference speed: seconds * CAL_REF_S /
calibration seconds.  The raw medians are printed too.

--trace 1 cycles untraced, span-traced and memory-traced repetitions and
reports the per-layer metrics (medians over the traced repetitions) plus
trace.overhead_frac, the span-traced wall time over the untraced one, minus 1.
Spans are written to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
# calibrate before plus after one repetition, median of ten runs (five of
# board, five of horizon) on the 2-vCPU Xeon machine recorded in results/:
# the reference speed.
CAL_REF_S = 0.144
REP_TIMEOUT_S = 150
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def declared(root: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def source(name: str) -> str:
    """Which repetitions a per-layer metric is taken from."""
    if name == "trace.overhead_frac":
        return "runs"
    if name.endswith((".peak_mib", ".bytes_per_cell")):
        return "memory"
    return "spans"


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small numpy work.

    It runs in this process, which never imports wythlab, so a change to
    wythlab cannot reach it; it moves with the speed the machine gives one
    process at the moment.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i * i % 7
    a = np.arange(4096)
    for _ in range(3000):
        a = a + (a[::-1] & 3)
    b = np.ones(2**15, np.int64)
    for _ in range(300):
        b = np.cumsum(b) & 1023
    return time.perf_counter() - start


def _rep(root: Path, outdir: Path, workload: str, seed: int, kind: str, index: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", **SINGLE_THREAD)
    run_id = f"{workload}-s{seed}-r{index}-{kind}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", kind, "--run-id", run_id,
           "--outdir", str(outdir)]
    calib_before = calibrate()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    calib_after = calibrate()
    if proc.returncode != 0:
        raise BenchError(f"repetition {run_id} exited {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["raw_wall_s"], rep["raw_setup_s"] = rep["wall_s"], rep["ready"] - start
    rep["calib_before_s"], rep["calib_after_s"] = calib_before, calib_after
    scale = CAL_REF_S / (calib_before + calib_after)
    rep["wall_s"], rep["setup_s"] = rep["raw_wall_s"] * scale, rep["raw_setup_s"] * scale
    rep["kind"] = kind
    rep["elapsed"] = time.monotonic() - start
    return rep


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions until the time is used; returns the run's summary."""
    outdir = root / ".bench_out"
    outdir.mkdir(exist_ok=True)
    names = declared(root, trace)
    calibrate()  # warm-up, so the first repetition's calibration is not a cold start
    kinds = itertools.cycle(("off", "spans", "memory") if trace else ("off",))
    deadline = time.monotonic() + seconds
    reps: list[dict] = []
    while True:
        reps.append(_rep(root, outdir, workload, seed, next(kinds), len(reps)))
        typical = statistics.median(r["elapsed"] for r in reps)
        if len(reps) >= MIN_REPS and time.monotonic() + typical > deadline:
            break
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    plain = [r for r in reps if r["kind"] == "off"]
    summary = {"workload": workload, "seed": seed, "reps": len(reps),
               "attempted": attempted, "failed": failed,
               "failures": sorted({f for r in reps for f in r["failures"]})}
    if trace:
        spans = [r for r in reps if r["kind"] == "spans"]
        memory = [r for r in reps if r["kind"] == "memory"]
        metrics = {}
        for name in names:
            if source(name) != "runs":
                reps_of = memory if source(name) == "memory" else spans
                metrics[name] = statistics.median(r["layers"][name] for r in reps_of)
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in spans)
            / statistics.median(r["wall_s"] for r in plain) - 1
        )
        summary["samples"] = {"off": len(plain), "spans": len(spans), "memory": len(memory)}
    else:
        metrics = {name: statistics.median(r[name] for r in plain) for name in names}
        summary["samples"] = {"off": len(plain)}
    summary["metrics"] = metrics
    summary["raw"] = {name: statistics.median(r[name] for r in plain)
                      for name in ("raw_wall_s", "raw_setup_s",
                                   "calib_before_s", "calib_after_s")}
    return summary


def _report(summary: dict, units: dict[str, str]) -> None:
    n = summary["samples"]
    print(f"# {summary['workload']} seed={summary['seed']}: {summary['reps']} repetitions "
          f"in fresh processes, samples {n}")
    for name, value in summary["metrics"].items():
        print(f"{summary['workload']:<11} {name:<48} {value:>14.6g} {units[name]}")
    for name, value in summary["raw"].items():
        print(f"{summary['workload']:<11} {name:<48} {value:>14.6g} s (not scaled)")
    frac = summary["failed"] / summary["attempted"]
    print(f"{summary['workload']:<11} {'failed_frac':<48} {frac:>14.6g} ratio "
          f"({summary['failed']}/{summary['attempted']} verdicts)")
    for failure in summary["failures"]:
        print(f"FAILED {failure}")


def _result_line(summaries: list[dict], units: dict[str, str], prefix: bool) -> str:
    metrics = {}
    for s in summaries:
        for name, value in s["metrics"].items():
            key = f"{s['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "wythlab" / "__init__.py").is_file():
        print(f"error: no wythlab sources under {root / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(root, w, args.seed, args.seconds, trace) for w in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = declared(root, trace)
    for s in summaries:
        _report(s, units)
    print(_result_line(summaries, units, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
