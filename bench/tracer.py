"""Span tracing at the boundaries of the wythlab modules, for the traced run.

The tracer wraps every public function of the traced modules and records one
span per call that crosses a module boundary: a call from the benchmark, or a
call from one wythlab module into another.  Calls inside one module are part
of that module's self time.  A span holds its name, start, end, parent and
run id; spans stay in memory and are written out when the run ends.

Hot leaf calls (a scalar Beatty floor, one automaton evaluation) happen up to
10^5 times per parent.  After KEEP individual spans with the same parent and
name, further ones are folded into one aggregate record that keeps the count
and the summed duration, so memory stays bounded and self times stay exact.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
import types
from collections import defaultdict

MODULES = ("games", "characterizations", "morphisms", "fibnum", "walnut", "suites", "cli")
KEEP = 32

# Calls whose tracemalloc peak the memory-traced repetitions record.
PEAK_TRACKED = {
    "games.check_stable",
    "games.check_absorbing",
    "characterizations.mex_sequence",
    "characterizations.discrepancy_profile",
}


def _bound_cells(pos):
    """Value hook: (bound+1)^2 cells for a call whose bound is argument pos."""

    def cells(args, kwargs, result):
        bound = kwargs["bound"] if "bound" in kwargs else args[pos]
        return (bound + 1) ** 2

    return cells


# Per-call values summed into a span: work done or useful outcomes.
VALUE_HOOKS = {
    "games.check_stable": _bound_cells(2),
    "games.check_absorbing": _bound_cells(2),
    "games.solve_pairs": _bound_cells(1),
    "games.non_redundant_witness": lambda a, k, r: int(r is not None),
    "games.write_table_cache": lambda a, k, r: os.path.getsize(a[1]),
    "morphisms.infer_morphism": lambda a, k, r: 1,
}


class Tracer:
    """In-memory span store for one run of one workload."""

    def __init__(self, run_id: str, track_peaks: bool):
        self.run_id = run_id
        self.track_peaks = track_peaks
        self.spans: list[dict] = []
        self._stack: list[int] = [0]  # 0 is the root: the workload itself
        self._seen: dict[tuple[int, str], int] = defaultdict(int)
        self._aggregates: dict[tuple[int, str], dict] = {}
        self.solve = {"calls": 0, "misses": 0, "cells": 0, "first_miss": None}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> dict:
        """Push and return the span a call records into; the caller sets its start."""
        parent = self._stack[-1]
        key = (parent, name)
        self._seen[key] += 1
        if self._seen[key] <= KEEP:
            span = {"id": len(self.spans) + 1, "name": name, "parent": parent,
                    "start": None, "end": None, "count": 1, "dur": 0.0,
                    "value": 0, "peak": 0, "run": self.run_id}
            self.spans.append(span)
            self._stack.append(span["id"])
            return span
        agg = self._aggregates.get(key)
        if agg is None:
            agg = {"id": len(self.spans) + 1, "name": name, "parent": parent,
                   "start": None, "end": None, "count": 0, "dur": 0.0,
                   "value": 0, "peak": 0, "run": self.run_id, "aggregate": True}
            self.spans.append(agg)
            self._aggregates[key] = agg
        agg["count"] += 1
        self._stack.append(agg["id"])
        return agg

    def wrap(self, name: str, fn, hook=None):
        """Return fn wrapped so each call records a span named name."""
        hook = hook or VALUE_HOOKS.get(name)
        peaks = self.track_peaks and name in PEAK_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            measuring = peaks and not tracemalloc.is_tracing()
            if measuring:
                tracemalloc.start()
            ok = False
            start = time.perf_counter()  # the span covers only the callee
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                if measuring:
                    span["peak"] = max(span["peak"], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._stack.pop()
                if span["start"] is None:
                    span["start"] = start
                span["end"] = end
                span["dur"] += end - start
                if ok and hook is not None:
                    span["value"] += hook(args, kwargs, result)

        return traced

    def wrap_timed(self, timed):
        """Wrap suites._timed: one child span per SuiteItem, of SuiteItem.seconds."""

        @functools.wraps(timed)
        def traced(name, spec_label, bound, fn):
            span = self._open("suites.item/" + name)
            start = time.perf_counter()
            try:
                item = timed(name, spec_label, bound, fn)
            finally:
                self._stack.pop()
            if span["start"] is None:
                span["start"] = start
            span["dur"] += item.seconds
            span["end"] = start + item.seconds
            return item

        return traced

    def wrap_solve_cache(self, cached):
        """Count every solve, cross-module or not, through the lru_cache."""

        def counted(spec, bound):
            misses = cached.cache_info().misses
            table = cached(spec, bound)
            missed = cached.cache_info().misses > misses
            self.solve["calls"] += 1
            if self.solve["first_miss"] is None:
                self.solve["first_miss"] = missed
            if missed:
                self.solve["misses"] += 1
                self.solve["cells"] += (bound + 1) ** 2
            return table

        return counted

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _item_seconds(args, kwargs, items):
    return sum(item.seconds for item in items)


def install(tracer: Tracer):
    """Wrap the traced modules' public functions; return the benchmark's view.

    Bindings of a wrapped function, or of a traced module, in the other
    wythlab modules are replaced, so cross-module calls record spans; the
    defining module keeps the raw function, so calls inside it do not.  The
    returned namespace holds one proxy per module, through which the
    benchmark's own calls are traced.
    """
    games, suites = _module("games"), _module("suites")
    wrapped = {}  # id(raw function) -> wrapper
    proxies = {}
    for short in MODULES:
        module = _module(short)
        own = {}
        for name in module.__all__:
            fn = getattr(module, name)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                own[name] = wrapped[id(fn)] = tracer.wrap(f"{short}.{name}", fn)
        proxies[short] = _Proxy(module, own)
    modules = {id(_module(short)): proxies[short] for short in MODULES}
    for modname, module in list(sys.modules.items()):
        if modname != "wythlab" and not modname.startswith("wythlab."):
            continue
        for name, value in list(vars(module).items()):
            if id(value) in wrapped and value.__module__ != modname:
                setattr(module, name, wrapped[id(value)])
            elif id(value) in modules and value is not module:
                setattr(module, name, modules[id(value)])  # `from . import m as x`
    for key, fn in list(suites.SUITES.items()):
        suites.SUITES[key] = tracer.wrap(f"suites.{key}", fn, hook=_item_seconds)
    suites._timed = tracer.wrap_timed(suites._timed)
    games._solve_cached = tracer.wrap_solve_cache(games._solve_cached)
    proxies["catalog"] = _module("catalog")
    return types.SimpleNamespace(**proxies)


def _module(short: str):
    return importlib.import_module(f"wythlab.{short}")


class _Proxy:
    """A module seen through its wrapped public functions."""

    def __init__(self, module, wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def plain_api():
    """The benchmark's view of wythlab with tracing off: the modules themselves."""
    return types.SimpleNamespace(**{m: _module(m) for m in MODULES + ("catalog",)})


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced repetition
# ---------------------------------------------------------------------------

SUITE_NAMES = ("blocking", "closed-forms", "discrepancy", "kernel", "mex", "morphic", "redundancy")

# metric -> span names whose total duration it sums
SPAN_SECONDS = {
    "games.check_stable.s": ("games.check_stable",),
    "games.check_absorbing.s": ("games.check_absorbing",),
    "games.non_redundant_witness.s": ("games.non_redundant_witness",),
    "games.solve.s": ("games.solve",),
    "games.solve_pairs.s": ("games.solve_pairs",),
    "games.table_cache.s": ("games.write_table_cache", "games.read_table_cache"),
    "characterizations.mex_sequence.s": ("characterizations.mex_sequence",),
    "characterizations.discrepancy_profile.s": ("characterizations.discrepancy_profile",),
    "characterizations.check_discrepancy.s": ("characterizations.check_discrepancy",),
    "characterizations.closed_form_pairs.s": ("characterizations.closed_form_pairs",),
    "characterizations.closed_form_mask.s": (
        "characterizations.k1_closed_form_mask",
        "characterizations.k2_closed_form_mask",
        "characterizations.w2_closed_form_mask",
        "characterizations.w3_closed_form_mask",
    ),
    "characterizations.morphic_coding_check.s": ("characterizations.morphic_coding_check",),
    "morphisms.k2_adjust_prefix.s": ("morphisms.k2_adjust_prefix",),
    "morphisms.eval_dfao.s": ("morphisms.eval_dfao",),
    "morphisms.fixed_point_prefix.s": ("morphisms.fixed_point_prefix",),
    "morphisms.infer_morphism.s": ("morphisms.infer_morphism",),
    "fibnum.floor_phi_range.s": ("fibnum.floor_phi_range",),
    "fibnum.floor_phi.s": ("fibnum.floor_phi",),
    "walnut.roundtrip.s": ("walnut.to_walnut", "walnut.from_walnut"),
}
SPAN_SECONDS.update({f"suites.{s}.s": (f"suites.{s}",) for s in SUITE_NAMES})

SPAN_CALLS = {
    "morphisms.eval_dfao.calls": "morphisms.eval_dfao",
    "fibnum.floor_phi.calls": "fibnum.floor_phi",
}

SELF_SECONDS = {f"{m}.self_s": m for m in MODULES if m != "cli"}
SELF_SECONDS["cli.main.self_s"] = "cli"

MIB = 2**20


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one repetition, from its spans and counters.

    A metric whose layer the workload does not exercise reads 0.
    """
    spans = tracer.spans
    by_name = defaultdict(list)
    child_dur = defaultdict(float)
    for span in spans:
        by_name[span["name"]].append(span)
        child_dur[span["parent"]] += span["dur"]

    def total(names, field="dur"):
        return sum(span[field] for n in names for span in by_name[n])

    def ratio(num, den):
        return num / den if den else 0.0

    out = {name: total(names) for name, names in SPAN_SECONDS.items()}
    out.update({name: total([n], "count") for name, n in SPAN_CALLS.items()})
    self_s = defaultdict(float)
    for span in spans:
        module = span["name"].split(".", 1)[0].split("/", 1)[0]
        self_s[module] += span["dur"] - child_dur[span["id"]]
    out.update({name: self_s[m] for name, m in SELF_SECONDS.items()})
    for suite in SUITE_NAMES:
        name = f"suites.{suite}"
        out[f"suites.{suite}.unattributed_s"] = total([name]) - total([name], "value")

    checks = by_name["games.check_stable"] + by_name["games.check_absorbing"]
    out["games.check.peak_mib"] = max((s["peak"] for s in checks), default=0) / MIB
    out["games.check.bytes_per_cell"] = max(
        (s["peak"] / (s["value"] / s["count"]) for s in checks if s["value"]), default=0.0
    )
    out["games.non_redundant_witness.found_ratio"] = ratio(
        total(["games.non_redundant_witness"], "value"),
        total(["games.non_redundant_witness"], "count"),
    )
    solve = tracer.solve
    out["games.solve.calls"] = solve["calls"]
    out["games.solve.cells"] = solve["cells"]
    out["games.solve.hit_ratio"] = ratio(solve["calls"] - solve["misses"], solve["calls"])
    out["games.solve.first_miss_ratio"] = float(bool(solve["first_miss"]))
    out["games.solve_pairs.cells"] = total(["games.solve_pairs"], "value")
    out["games.table_cache.bytes"] = total(["games.write_table_cache"], "value")
    out["morphisms.infer_morphism.ok_ratio"] = ratio(
        total(["morphisms.infer_morphism"], "value"),
        total(["morphisms.infer_morphism"], "count"),
    )
    for name in ("characterizations.mex_sequence", "characterizations.discrepancy_profile"):
        out[f"{name}.peak_mib"] = max((s["peak"] for s in by_name[name]), default=0) / MIB
    return out
