"""Tests of the benchmark itself: the verdict gate bites, and tracing emits
exactly the per-layer metrics that BENCHMARK.json declares.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Small enough to run in a second, large enough that every witness exists.
BOARD_SCALE = 0.35
HORIZON_SCALE = 0.05


def _tap_once(point, corrupt):
    """A tap that corrupts the first value passing the given point."""
    done = []

    def tap(where, value):
        if where == point and not done:
            done.append(where)
            return corrupt(value)
        return value

    return tap


def _flip_cell(mask):
    out = mask.copy()
    out[7, 5] = ~out[7, 5]
    return out


def _alter_letter(word):
    i = len(word) // 2
    return word[:i] + ((word[i] + 1) % 3,) + word[i + 1:]


def _run(name, scale, tmp_path, tap=workloads.no_tap):
    inputs = workloads.make_inputs(name, seed=3, scale=scale)
    return workloads.RUN[name](tracer.plain_api(), inputs, str(tmp_path), tap)


def test_board_passes_unaltered(tmp_path):
    v = _run("board", BOARD_SCALE, tmp_path)
    assert v.attempted == 2 * (6 + len(workloads.MOVES)) + 2
    assert v.failures == []


def test_board_flipped_cell_fails(tmp_path):
    tap = _tap_once("board.candidate", _flip_cell)
    v = _run("board", BOARD_SCALE, tmp_path, tap)
    assert len(v.failures) / v.attempted > 0
    assert any("closed-form-equals-solver" in f for f in v.failures)


def test_horizon_passes_unaltered(tmp_path):
    v = _run("horizon", HORIZON_SCALE, tmp_path)
    assert v.failures == []


def test_horizon_altered_letter_fails(tmp_path):
    tap = _tap_once("horizon.word", _alter_letter)
    v = _run("horizon", HORIZON_SCALE, tmp_path, tap)
    assert len(v.failures) / v.attempted > 0
    assert any("dfao-vs-word" in f for f in v.failures)


def test_stream_dropped_pair_fails(tmp_path):
    tap = _tap_once("stream.pairs", lambda pairs: pairs[:10] + pairs[11:])
    v = _run("stream", 0.05, tmp_path, tap)
    assert len(v.failures) / v.attempted > 0


def test_verify_all_failed_item_fails(tmp_path):
    tap = _tap_once("verify-all.output", lambda text: text.replace(" PASS ", " FAIL ", 1))
    v = _run("verify-all", 1.0, tmp_path, tap)
    assert v.attempted == workloads.VERIFY_ALL_ITEMS + 1
    assert v.failures == ["blocking/W1-equals-K0"]


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 5) == workloads.make_inputs(name, 5)
    a = workloads.make_inputs("board", 1)["specs"]
    b = workloads.make_inputs("board", 2)["specs"]
    assert sorted(a) != sorted(b)
    for (_, _, x), (_, _, y) in zip(sorted(a), sorted(b)):
        assert abs(x - y) <= 0.021 * max(x, y)


def _worker(tmp_path, name, trace, scale):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "1",
           "--trace", trace, "--run-id", "t", "--outdir", str(tmp_path),
           "--scale", str(scale)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name,scale", [("board", BOARD_SCALE), ("horizon", HORIZON_SCALE)])
def test_traced_worker_reports_every_layer(tmp_path, name, scale):
    spans = _worker(tmp_path, name, "spans", scale)
    memory = _worker(tmp_path, name, "memory", scale)
    wanted = {n for n in run.declared(ROOT, trace=True) if run.source(n) != "runs"}
    assert set(spans["layers"]) == wanted
    assert spans["failed"] == 0
    records = [json.loads(line) for line in open(tmp_path / "spans-t.jsonl")]
    assert all({"name", "start", "end", "parent", "run"} <= set(r) for r in records)
    if name == "board":
        layers = spans["layers"]
        assert layers["games.solve.first_miss_ratio"] == 1
        assert 0 < layers["games.solve.hit_ratio"] < 1
        assert layers["games.check_stable.s"] > 0
        assert layers["games.non_redundant_witness.found_ratio"] == 1
        assert memory["layers"]["games.check.bytes_per_cell"] > 1
    else:
        layers = spans["layers"]
        assert layers["games.solve.calls"] == 0
        assert layers["morphisms.eval_dfao.calls"] > 1000
        assert memory["layers"]["characterizations.mex_sequence.peak_mib"] > 0


def test_suite_spans_attribute_items(tmp_path):
    result = _worker(tmp_path, "verify-all", "spans", 1.0)
    layers = result["layers"]
    for suite in tracer.SUITE_NAMES:
        assert layers[f"suites.{suite}.s"] >= layers[f"suites.{suite}.unattributed_s"] >= 0
    assert layers["cli.main.self_s"] > 0
    records = [json.loads(line) for line in open(tmp_path / "spans-t.jsonl")]
    items = [r for r in records if r["name"].startswith("suites.item/")]
    assert len(items) == workloads.VERIFY_ALL_ITEMS


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

