"""Named verification suites shared by the command line and the tests.

Each suite runs a family of bounded checks and returns items carrying the
check name, the rule-set label, the bound, the verdict with any
counterexample, and the wall time.  run_suite orders the items by name, so
reports are deterministic.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import characterizations as ch
from .catalog import ADJUST_SYSTEMS, PARTITION_SYSTEMS, adjust_dfao
from .games import (
    CheckResult,
    GameSpec,
    PNTable,
    check_absorbing,
    check_stable,
    kspec,
    non_redundant_witness,
    solve,
    wspec,
)
from .morphisms import (
    eval_dfao_range,
    fixed_point_prefix,
    k2_adjust_prefix,
    k2_adjust_prefix_by_recurrence,
)

__all__ = [
    "SuiteItem",
    "SUITES",
    "run_suite",
    "K_BOUND_DEFAULT",
    "W_BOUND_DEFAULT",
    "DISCREPANCY_HORIZON_DEFAULT",
    "MORPHIC_HORIZON_DEFAULT",
]

K_BOUND_DEFAULT = 800
W_BOUND_DEFAULT = 400
DISCREPANCY_HORIZON_DEFAULT = 10**5
MORPHIC_HORIZON_DEFAULT = 10**4
REDUNDANCY_BOUND_DEFAULT = 400
REDUNDANCY_MAX_DELTA = 30


@dataclass(frozen=True)
class SuiteItem:
    """One row of a verification report."""

    name: str
    spec: str
    bound: int
    result: CheckResult
    seconds: float


def _timed(name: str, spec_label: str, bound: int, fn) -> SuiteItem:
    t0 = time.perf_counter()
    result = fn()
    return SuiteItem(name, spec_label, bound, result, time.perf_counter() - t0)


def _set_equality(got: PNTable, want: PNTable, what: str, sides) -> CheckResult:
    """Compare the P-cells of two tables of one box, reporting the row-major
    first cell in exactly one of them and what the two named sides say."""
    n = want.bound + 1
    g, w = got.xs * n + got.ys, want.xs * n + want.ys
    diff = np.setxor1d(g, w)
    if not diff.size:
        return CheckResult(True, f"{what}: sets identical")
    x, y = divmod(int(diff[0]), n)
    return CheckResult(False, f"{what}: first difference at ({x},{y}); {sides[0]} "
                       f"says {diff[0] in g}, {sides[1]} says {diff[0] in w}", (x, y))


def _select(suite: str, ell, k, ells=(), ks=()) -> tuple[list[int], list[int]]:
    """The ell and k values named by --ell and --k, or the suite's defaults
    ells and ks when neither is given.  A flag without defaults is refused:
    the suite does not read it, so its PASS would not cover it."""
    for flag, value, defaults in (("ell", ell, ells), ("k", k, ks)):
        if value is not None and not defaults:
            raise ValueError(f"suite {suite!r} does not read --{flag}")
    if ell is None and k is None:
        return list(ells), list(ks)
    return [ell] if ell is not None else [], [k] if k is not None else []


def _kernel_items(name: str, table: PNTable, spec: GameSpec, B: int) -> list[SuiteItem]:
    """Stability and absorption of a candidate P-set, one item each."""
    checks = (("stable", check_stable), ("absorbing", check_absorbing))
    return [_timed(f"{name}/{what}", spec.label(), B, lambda: check(table, spec, B))
            for what, check in checks]


def _closed_form_items(name: str, spec: GameSpec, what: str, B: int) -> list[SuiteItem]:
    """Set equality with the solver, stability and absorption of a closed form."""
    cells, table = ch.closed_form_table(spec, B), solve(spec, B)
    equality = _timed(f"{name}/set-equality", spec.label(), B,
                      lambda: _set_equality(cells, table, what,
                                            ("closed form", "solver")))
    return [equality] + _kernel_items(name, cells, spec, B)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_kernel(ell=None, k=None, bound=None) -> list[SuiteItem]:
    """Stability and absorption of the solver's own output."""
    ells, ks = _select("kernel", ell, k, ells=range(5), ks=range(1, 4))
    specs = ([(kspec(e), K_BOUND_DEFAULT) for e in ells]
             + [(wspec(kk), W_BOUND_DEFAULT) for kk in ks])
    items = []
    for spec, B in specs:
        B = B if bound is None else bound
        tag = spec.label().replace(" ", "-")
        items += _kernel_items(f"kernel/{tag}", solve(spec, B), spec, B)
    return items


def suite_closed_forms(ell=None, k=None, bound=None) -> list[SuiteItem]:
    """Closed-form sets versus solver ground truth, plus their kernel checks."""
    ells, _ = _select("closed-forms", ell, k, ells=range(1, 5))
    B = K_BOUND_DEFAULT if bound is None else bound
    items = []
    for e in ells:
        items += _closed_form_items(f"closed-forms/K{e}", kspec(e), f"K^{e}", B)
    return items


def suite_mex(ell=None, k=None, bound=None) -> list[SuiteItem]:
    """The mex recursion versus the solver, partition, and counting."""
    ells, _ = _select("mex", ell, k, ells=range(7))
    B = K_BOUND_DEFAULT if bound is None else bound
    items = []
    for e in ells:
        spec = kspec(e)
        count = B * 2 // 3 + 2 * e + 8
        pp = ch.mex_sequence(e, count)

        def equality():
            return _set_equality(PNTable.from_pairs(spec, B, *pp.arrays()),
                                 solve(spec, B), f"K^{e}", ("mex recursion", "solver"))

        def partition():
            a, b = pp.arrays()
            horizon = int(a[-1])
            both = np.concatenate([a, b])
            both = np.sort(both[both <= horizon])
            want = np.arange(e + 1, horizon + 1)
            if both.size == want.size and np.array_equal(both, want):
                return CheckResult(True, f"values {e + 1}..{horizon} partitioned")
            if np.unique(both).size != both.size:
                dup = int(both[np.flatnonzero(np.diff(both) == 0)[0]])
                return CheckResult(False, f"value {dup} appears in both sequences", dup)
            missing = int(np.setdiff1d(want, both)[0])
            return CheckResult(False, f"value {missing} in neither sequence", missing)

        for what, check in (("solver-equality", equality), ("partition", partition),
                            ("counting", lambda: ch.counting_check(pp, B))):
            items.append(_timed(f"mex/K{e}/{what}", spec.label(), B, check))
    return items


def suite_blocking(ell=None, k=None, bound=None) -> list[SuiteItem]:
    """Explicit W^2/W^3 families versus the solver; W^1 equals K^0."""
    _, ks = _select("blocking", ell, k, ks=(1, 2, 3))
    B = W_BOUND_DEFAULT if bound is None else bound
    items = []
    for kk in ks:
        if kk == 1:
            def w1_equals_k0():
                return _set_equality(solve(wspec(1), B), solve(kspec(0), B),
                                     "W^1 vs K^0", ("W^1", "K^0"))
            items.append(_timed("blocking/W1-equals-K0", "W k=1", B, w1_equals_k0))
        else:
            items += _closed_form_items(f"blocking/W{kk}", wspec(kk), f"W^{kk}", B)
    return items


def suite_discrepancy(ell=None, k=None, bound=None) -> list[SuiteItem]:
    """Certified discrepancy bounds and density along the a-sequence."""
    ells, _ = _select("discrepancy", ell, k, ells=range(1, 9))
    N = DISCREPANCY_HORIZON_DEFAULT if bound is None else bound
    if ell is not None and ell < 1:
        raise ValueError(f"the discrepancy bound is stated for ell >= 1, not {ell}")
    # The profile item certifies |a_N - floor((N + ell) phi)| <= sqrt5 ell + 2,
    # so |a_N - N phi| <= ell (sqrt5 + phi) + 2, which is <= N/100 once
    # N >= 150 sqrt5 ell + 50 ell + 200.  Below that a density FAIL is not a
    # counterexample.  150 sqrt5 ell is irrational, so the least N rounds up.
    least = 50 * max(ells) + 201 + isqrt(5 * (150 * max(ells)) ** 2)
    if N < least:
        raise ValueError(f"suite 'discrepancy' needs --bound >= {least} for ell "
                         f"{max(ells)}, where the density is within 1/100, not {N}")
    items = []
    for e in ells:
        profile = ch.discrepancy_profile(e, N)
        items.append(
            _timed(f"discrepancy/K{e}/profile", f"K ell={e}", N,
                   lambda: ch.check_discrepancy(profile))
        )

        def density():
            a_N = int(profile.a[N])
            ok = ch.density_certificate(a_N, N, 1, 100)
            detail = f"|a_n/n - phi| {'<=' if ok else '>'} 1/100 at n={N} (a_n={a_N})"
            return CheckResult(ok, detail, None if ok else (N, a_N))

        items.append(_timed(f"discrepancy/K{e}/density", f"K ell={e}", N, density))
    return items


def suite_redundancy(ell=None, k=None, bound=None) -> list[SuiteItem]:
    """Every elementary move admits a witness position that needs it."""
    B = REDUNDANCY_BOUND_DEFAULT if bound is None else bound
    if B < REDUNDANCY_MAX_DELTA:  # a move longer than the box has no witness in it
        raise ValueError(f"suite 'redundancy' needs --bound >= {REDUNDANCY_MAX_DELTA}, "
                         f"the longest move checked, not {B}")
    ells, ks = _select("redundancy", ell, k, ells=(1, 2, 3, 4), ks=(2, 3))
    specs = [kspec(e) for e in ells] + [wspec(kk) for kk in ks]
    moves = [m for i in range(1, REDUNDANCY_MAX_DELTA + 1)
             for m in ((i, 0), (0, i), (i, i))]
    items = []
    for spec in specs:
        tag = spec.label().replace(" ", "-")

        def all_moves():
            for move in moves:
                if non_redundant_witness(spec, move, B) is None:
                    return CheckResult(
                        False, f"no witness for move {move} within {B}", move
                    )
            return CheckResult(True, f"witnesses for all {len(moves)} moves")

        items.append(_timed(f"redundancy/{tag}", spec.label(), B, all_moves))
    return items


def suite_morphic(ell=None, k=None, bound=None) -> list[SuiteItem]:
    """Automatic-sequence machinery: oracles, automata, partition words."""
    ells, _ = _select("morphic", ell, k,
                      ells={2, *ADJUST_SYSTEMS, *PARTITION_SYSTEMS})
    H = MORPHIC_HORIZON_DEFAULT if bound is None else bound
    items = []
    if 2 in ells:

        def k2_oracles():
            direct = k2_adjust_prefix(H)
            rec = k2_adjust_prefix_by_recurrence(H)
            if direct == rec:
                return CheckResult(True, f"{H} values agree")
            n = next(i for i, (x, y) in enumerate(zip(direct, rec)) if x != y)
            return CheckResult(False, f"definitions disagree at n={n}", n)

        items.append(_timed("morphic/k2-adjust/definition-vs-recurrence",
                            "K ell=2", H, k2_oracles))
    for e in (e for e in ADJUST_SYSTEMS if e in ells):
        morphism, coding = ADJUST_SYSTEMS[e]

        def dfao_vs_word():
            word = np.asarray(coding.map(fixed_point_prefix(morphism, 0, H)))
            got = eval_dfao_range(adjust_dfao(e), H - 1)
            bad = np.flatnonzero(got != word)
            if bad.size:
                n = int(bad[0])
                return CheckResult(
                    False, f"automaton says {got[n]}, word says {word[n]} at n={n}", n
                )
            return CheckResult(True, f"{H} values agree")

        items.append(_timed(f"morphic/k{e}-adjust/dfao-vs-word",
                            f"K ell={e}", H, dfao_vs_word))
    for e in (e for e in PARTITION_SYSTEMS if e in ells):
        part = PARTITION_SYSTEMS[e]

        def word_vs_pairs():
            pp = ch.mex_sequence(e, H * 2 // 3 + 8)
            return ch.morphic_coding_check(part.morphism, part.coding,
                                           part.offset, pp, H)

        items.append(_timed(f"morphic/partition-word/K{e}",
                            f"K ell={e}", H, word_vs_pairs))
    if not items:
        raise ValueError(f"suite 'morphic' has no checks for --ell {ell}")
    return items


SUITES = {
    "kernel": suite_kernel,
    "closed-forms": suite_closed_forms,
    "mex": suite_mex,
    "blocking": suite_blocking,
    "discrepancy": suite_discrepancy,
    "redundancy": suite_redundancy,
    "morphic": suite_morphic,
}


def run_suite(name: str, ell=None, k=None, bound=None) -> list[SuiteItem]:
    """Run one named suite, or every suite for name 'all'; the items are
    ordered by name."""
    if name == "all":
        _select("all", ell, k)  # each flag is ignored by some suite
        names = sorted(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(f"unknown suite {name!r}")
    items = [it for key in names for it in SUITES[key](ell=ell, k=k, bound=bound)]
    return sorted(items, key=lambda it: it.name)
