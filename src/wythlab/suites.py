"""Named verification suites shared by the command line and the tests.

Each suite yields rows (name, rule-set, bound, check) of a family of
bounded checks, where check takes no arguments.  Its _suite declaration
names it once with its default ells, ks and bound and the arguments it
refuses, and enters it in SUITES; the one runner reads every given ell, k
and bound by fibnum._natural.  run_suite refuses the arguments of every
suite it runs before any suite draws a row.
Drawing a row runs its setup (the solve, mask or profile); the runner then
times the row's check into an item carrying the check name, the rule-set
label, the bound, the verdict with any counterexample, and the check's wall
time.  run_suite orders the items by name, so reports are deterministic.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import characterizations as ch
from .catalog import ADJUST_SYSTEMS, PARTITION_SYSTEMS, adjust_dfao
from .fibnum import _natural
from .games import (
    CheckResult,
    GameSpec,
    PNTable,
    _first_failure,
    check_absorbing,
    check_stable,
    kspec,
    non_redundant_witnesses,
    solve,
    wspec,
)
from .morphisms import (
    _fixed_point,
    _output_table,
    eval_dfao_range,
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

SUITES = {}  # each suite's key to its runner, in declaration order; see _suite


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
    diff = np.setxor1d(g, w, assume_unique=True)  # a table's cells are distinct
    if not diff.size:
        return CheckResult(True, f"{what}: sets identical")
    x, y = divmod(int(diff[0]), n)
    return CheckResult(False, f"{what}: first difference at ({x},{y}); {sides[0]} "
                       f"says {diff[0] in g}, {sides[1]} says {diff[0] in w}", (x, y))


def _select(suite: str, ell, k, ells=(), ks=()) -> tuple[list[int], list[int]]:
    """The ell and k values named by --ell and --k, each read by _natural, or
    the suite's defaults ells and ks when neither is given.  A flag without
    defaults is refused: the suite does not read it, so its PASS would not
    cover it."""
    for flag, value, defaults in (("ell", ell, ells), ("k", k, ks)):
        if value is not None and not defaults:
            raise ValueError(f"suite {suite!r} does not read --{flag}")
    if ell is None and k is None:
        return list(ells), list(ks)
    return ([] if ell is None else [_natural(ell, "ell")],
            [] if k is None else [_natural(k, "k")])


def _suite(key: str, default_bound: int | None, ells=(), ks=(), refuse=None):
    """Register a generator rows(ells, ks, bound) of rows (name, spec, bound,
    check) in SUITES as the suite key.  Its runner reads ell and k by _select
    from the declared defaults ells and ks, and a given bound by _natural,
    else takes default_bound; refuse(ells, ks, bound), if given, raises for
    arguments the suite cannot check.  The runner carries that reader as
    its .arguments, so run_suite can refuse before any suite draws a row.
    Drawing a row runs its setup; its check is timed before the next row is
    drawn, since a check may read the generator's loop variables."""

    def register(rows):
        def arguments(ell, k, bound) -> tuple:
            selected = _select(key, ell, k, ells, ks)
            bound = default_bound if bound is None else _natural(bound, "bound")
            if refuse is not None:
                refuse(*selected, bound)
            return (*selected, bound)

        @functools.wraps(rows)
        def suite(ell=None, k=None, bound=None) -> list[SuiteItem]:
            return [_timed(name, spec.label(), B, check)
                    for name, spec, B, check in rows(*arguments(ell, k, bound))]

        del suite.__wrapped__  # so inspect.signature reports the runner's arguments
        suite.arguments = arguments
        SUITES[key] = suite
        return suite

    return register


def _kernel_rows(name: str, table: PNTable, spec: GameSpec, B: int):
    """Stability and absorption of a candidate P-set, one row each."""
    yield f"{name}/stable", spec, B, lambda: check_stable(table, spec, B)
    yield f"{name}/absorbing", spec, B, lambda: check_absorbing(table, spec, B)


def _closed_form_rows(name: str, spec: GameSpec, what: str, B: int):
    """Set equality with the solver, stability and absorption of a closed form."""
    cells, table = ch.closed_form_table(spec, B), solve(spec, B)
    yield (f"{name}/set-equality", spec, B,
           lambda: _set_equality(cells, table, what, ("closed form", "solver")))
    yield from _kernel_rows(name, cells, spec, B)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@_suite("kernel", None, ells=range(5), ks=range(1, 4))
def suite_kernel(ells, ks, bound):
    """Stability and absorption of the solver's own output."""
    for spec, B in ([(kspec(e), K_BOUND_DEFAULT) for e in ells]
                    + [(wspec(kk), W_BOUND_DEFAULT) for kk in ks]):
        B = B if bound is None else bound
        tag = spec.label().replace(" ", "-")
        yield from _kernel_rows(f"kernel/{tag}", solve(spec, B), spec, B)


@_suite("closed-forms", K_BOUND_DEFAULT, ells=ch.CLOSED_FORMS)
def suite_closed_forms(ells, _, B):
    """Closed-form sets versus solver ground truth, plus their kernel checks."""
    for e in ells:
        yield from _closed_form_rows(f"closed-forms/K{e}", kspec(e), f"K^{e}", B)


@_suite("mex", K_BOUND_DEFAULT, ells=range(7))
def suite_mex(ells, _, B):
    """The mex recursion versus the solver, partition, and counting."""
    for e in ells:
        spec = kspec(e)
        count = B * 2 // 3 + 2 * min(e, B) + 8  # for e >= B, pair 0 lies past the box
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
            return _first_failure(
                f"values {e + 1}..{horizon} partitioned",
                (np.diff(both) == 0,
                 lambda i: (f"value {both[i]} appears in both sequences", int(both[i]))),
                (~np.isin(want, both),
                 lambda i: (f"value {want[i]} in neither sequence", int(want[i]))),
                (both <= e,
                 lambda i: (f"value {both[i]} outside {e + 1}..{horizon}", int(both[i]))),
            )

        def counting():  # a refusal of the recursion's own pairs is its FAIL
            try:
                return ch.counting_check(pp, B)
            except ValueError as exc:
                return CheckResult(False, f"pairs refused: {exc}")

        yield f"mex/K{e}/solver-equality", spec, B, equality
        yield f"mex/K{e}/partition", spec, B, partition
        yield f"mex/K{e}/counting", spec, B, counting


@_suite("blocking", W_BOUND_DEFAULT, ks=(1, 2, 3))
def suite_blocking(_, ks, B):
    """Explicit W^2/W^3 families versus the solver; W^1 equals K^0."""
    for kk in ks:
        if kk == 1:
            def w1_equals_k0():  # K^0's table leaves out its terminal (0, 0)
                k0 = solve(kspec(0), B)
                k0 = PNTable.from_cells(wspec(1), B, np.r_[0, k0.xs], np.r_[0, k0.ys])
                return _set_equality(solve(wspec(1), B), k0, "W^1 vs K^0", ("W^1", "K^0"))
            yield "blocking/W1-equals-K0", wspec(1), B, w1_equals_k0
        else:
            yield from _closed_form_rows(f"blocking/W{kk}", wspec(kk), f"W^{kk}", B)


def _discrepancy_domain(ells, _, N):
    """Refuse an ell the bound is not stated for, or a horizon too short for
    the density check."""
    if min(ells) < 1:  # only a selected ell: the defaults start at 1
        raise ValueError(f"the discrepancy bound is stated for ell >= 1, not {min(ells)}")
    # The profile item certifies |a_N - floor((N + ell) phi)| <= sqrt5 ell + 2,
    # so |a_N - N phi| <= ell (sqrt5 + phi) + 2, which is <= N/100 once
    # N >= 150 sqrt5 ell + 50 ell + 200.  Below that a density FAIL is not a
    # counterexample.  150 sqrt5 ell is irrational, so the least N rounds up.
    least = 50 * max(ells) + 201 + isqrt(5 * (150 * max(ells)) ** 2)
    if N < least:
        raise ValueError(f"suite 'discrepancy' needs --bound >= {least} for ell "
                         f"{max(ells)}, where the density is within 1/100, not {N}")


@_suite("discrepancy", DISCREPANCY_HORIZON_DEFAULT, ells=range(1, 9),
        refuse=_discrepancy_domain)
def suite_discrepancy(ells, _, N):
    """Certified discrepancy bounds and density along the a-sequence."""
    for e in ells:
        profile = ch.discrepancy_profile(e, N)

        def density():
            a_N = int(profile.a[N])
            ok = ch.density_certificate(a_N, N, 1, 100)
            detail = f"|a_n/n - phi| {'<=' if ok else '>'} 1/100 at n={N} (a_n={a_N})"
            return CheckResult(ok, detail, None if ok else (N, a_N))

        yield (f"discrepancy/K{e}/profile", kspec(e), N,
               lambda: ch.check_discrepancy(profile))
        yield f"discrepancy/K{e}/density", kspec(e), N, density


def _redundancy_domain(_, __, B):
    """Refuse a box too small for the longest move checked."""
    if B < REDUNDANCY_MAX_DELTA:  # a move longer than the box has no witness in it
        raise ValueError(f"suite 'redundancy' needs --bound >= {REDUNDANCY_MAX_DELTA}, "
                         f"the longest move checked, not {B}")


@_suite("redundancy", REDUNDANCY_BOUND_DEFAULT, ells=(1, 2, 3, 4), ks=(2, 3),
        refuse=_redundancy_domain)
def suite_redundancy(ells, ks, B):
    """Every elementary move admits a witness position that needs it: one
    non_redundant_witnesses call a rule-set, whose first move without a
    witness in the box is a usage error (inconclusive, never a FAIL)."""
    moves = [m for i in range(1, REDUNDANCY_MAX_DELTA + 1)
             for m in ((i, 0), (0, i), (i, i))]
    for spec in [kspec(e) for e in ells] + [wspec(kk) for kk in ks]:

        def all_moves():
            witnesses = non_redundant_witnesses(spec, moves, B)
            if None in witnesses:  # inconclusive
                move = moves[witnesses.index(None)]
                raise ValueError(f"suite 'redundancy': no {spec.label()} witness "
                                 f"for move {move} in [0,{B}]^2; the box is too "
                                 "small, raise --bound")
            return CheckResult(True, f"witnesses for all {len(moves)} moves")

        yield f"redundancy/{spec.label().replace(' ', '-')}", spec, B, all_moves


def _morphic_domain(ells, _, H):
    """Refuse a horizon below a selected word's offset, or an ell with no
    morphic checks."""
    least = max([1] + [p.offset for e, p in PARTITION_SYSTEMS.items() if e in ells])
    if H < least:
        raise ValueError(f"suite 'morphic' needs --bound >= {least}, a horizon with "
                         f"a value in every selected word, not {H}")
    if not any(e in ADJUST_SYSTEMS or e in PARTITION_SYSTEMS for e in ells):
        raise ValueError(f"suite 'morphic' has no checks for --ell {ells[0]}")


@_suite("morphic", MORPHIC_HORIZON_DEFAULT, ells={*ADJUST_SYSTEMS, *PARTITION_SYSTEMS},
        refuse=_morphic_domain)
def suite_morphic(ells, _, H):
    """Automatic-sequence machinery: oracles, automata, partition words."""
    if 2 in ells:

        def k2_oracles():
            disagree = np.not_equal(k2_adjust_prefix(H),
                                    k2_adjust_prefix_by_recurrence(H))
            return _first_failure(f"{H} values agree", (disagree, lambda n: (
                f"definitions disagree at n={n}", n)))

        yield "morphic/k2-adjust/definition-vs-recurrence", kspec(2), H, k2_oracles
    for e in (e for e in ADJUST_SYSTEMS if e in ells):
        morphism, coding = ADJUST_SYSTEMS[e]

        def dfao_vs_word():
            word = _output_table(coding.outputs)[_fixed_point(morphism, 0, H)]
            got = eval_dfao_range(adjust_dfao(e), H - 1)
            return _first_failure(f"{H} values agree", (got != word, lambda n: (
                f"automaton says {got[n]}, word says {word[n]} at n={n}", n)))

        yield f"morphic/k{e}-adjust/dfao-vs-word", kspec(e), H, dfao_vs_word
    for e in (e for e in PARTITION_SYSTEMS if e in ells):
        part = PARTITION_SYSTEMS[e]

        def word_vs_pairs():
            pp = ch.mex_sequence(e, H * 2 // 3 + 8)
            return ch.morphic_coding_check(part.morphism, part.coding,
                                           part.offset, pp, H)

        yield f"morphic/partition-word/K{e}", kspec(e), H, word_vs_pairs


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
    for key in names:  # refuse before any suite's setup runs
        SUITES[key].arguments(ell, k, bound)
    items = [it for key in names for it in SUITES[key](ell=ell, k=k, bound=bound)]
    return sorted(items, key=lambda it: it.name)
