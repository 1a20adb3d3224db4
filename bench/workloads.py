"""The four seeded workloads and the verdicts each one checks.

make_inputs turns (workload, seed) into the sizes and orderings a run uses:
the seed jitters every bound and horizon by up to 1% and shuffles the order
of the rule-sets (except on board), so the work stays nearly constant from seed to seed.  Each
workload function receives only those inputs, the benchmark's view of the
wythlab modules (`api`, traced or not), a scratch directory, and a `tap`
through which the benchmark's own tests corrupt one intermediate value to
show that the verdict gate catches it.
"""
from __future__ import annotations

import io
import os
import random
import re
from contextlib import redirect_stdout

import numpy as np

WORKLOADS = ("verify-all", "board", "stream", "horizon")

# Item count of `wythlab verify all` at its default bounds.
VERIFY_ALL_ITEMS = 86

# Every elementary move up to length 30, as in the redundancy suite.
MOVES = [m for i in range(1, 31) for m in ((i, 0), (0, i), (i, i))]


class Verdicts:
    """Verdicts attempted and the names of those that were wrong or raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as exc:  # a raising call is a failed verdict
            self.failures.append(f"{name}: raised {exc!r}")
            return
        if not ok:
            self.failures.append(name)


def no_tap(point: str, value):
    return value


def make_inputs(workload: str, seed: int, scale: float = 1.0) -> dict:
    """Inputs of one run; scale shrinks every size (used by the tests)."""
    rng = random.Random(f"{workload}:{seed}")

    def size(nominal: float) -> int:
        return max(1, round(nominal * scale * rng.uniform(0.99, 1.01)))

    if workload == "verify-all":
        return {"argv": ["verify", "all"]}
    if workload == "board":
        # A fixed order: which table is solved first changes how the
        # allocator reuses freed blocks, and so peak RSS, by about 8%.
        return {"specs": [("K", 2, size(1300)), ("W", 3, size(900))]}
    if workload == "stream":
        ells = [1, 2, 3]
        rng.shuffle(ells)
        return {"ells": ells, "horizon": {str(e): size(4000) + e + 1 for e in ells}}
    if workload == "horizon":
        ells = [2, 3, 4]
        rng.shuffle(ells)
        return {
            "k2_count": size(20000),
            "dfao_ells": ells,
            "dfao_count": size(12000),
            "mex_ell": rng.choice([1, 2, 3]),
            "mex_count": size(250000),
            "floor_count": size(12000),
            "closed_count": size(3000),
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# verify-all: the command users run
# ---------------------------------------------------------------------------

_ITEM_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)\s")


def verify_all(api, inputs, workdir, tap=no_tap) -> Verdicts:
    v = Verdicts()
    out = io.StringIO()
    with redirect_stdout(out):
        rc = api.cli.main(list(inputs["argv"]))
    lines = tap("verify-all.output", out.getvalue()).splitlines()
    items = [m for m in map(_ITEM_LINE.match, lines) if m]
    for m in items:
        v.check(m.group(1), lambda m=m: m.group(2) == "PASS")
    want = f"{VERIFY_ALL_ITEMS}/{VERIFY_ALL_ITEMS} checks passed"
    v.check("item-count", lambda: len(items) == VERIFY_ALL_ITEMS
            and lines[-1] == want and rc == 0)
    return v


# ---------------------------------------------------------------------------
# board: dense O(B^2) solving and checking
# ---------------------------------------------------------------------------

def _w3_pair_count(bound: int) -> int:
    """P-pairs x <= y <= bound of W^3: (0,0) and {n,2n+1}, {n,2n+2}."""
    return 1 + (bound - 1) // 2 + 1 + (bound - 2) // 2 + 1


def board(api, inputs, workdir, tap=no_tap) -> Verdicts:
    g, ch = api.games, api.characterizations
    v = Verdicts()
    tables = []
    for variant, param, bound in inputs["specs"]:
        if variant == "K":
            spec = g.kspec(param)
            candidate = ch.k2_closed_form_mask(bound)
            count = sum(1 for _, b in ch.mex_sequence(param, bound).pairs if b <= bound)
        else:
            spec = g.wspec(param)
            candidate = ch.w3_closed_form_mask(bound)
            count = _w3_pair_count(bound)
        candidate = tap("board.candidate", candidate)
        table = g.solve(spec, bound)
        tables.append(table)
        tag = f"{variant}{param}@{bound}"
        v.check(f"{tag}/pair-count", lambda: len(g.ppos_list(table)) == count)
        v.check(f"{tag}/solver-stable", lambda: g.check_stable(table, spec, bound).ok)
        v.check(f"{tag}/solver-absorbing", lambda: g.check_absorbing(table, spec, bound).ok)
        v.check(f"{tag}/closed-form-equals-solver",
                lambda: np.array_equal(candidate, table.ppos))
        v.check(f"{tag}/closed-form-stable",
                lambda: g.check_stable(candidate, spec, bound).ok)
        v.check(f"{tag}/closed-form-absorbing",
                lambda: g.check_absorbing(candidate, spec, bound).ok)
        for move in MOVES:
            v.check(f"{tag}/witness{move}",
                    lambda m=move: g.non_redundant_witness(spec, m, bound) is not None)
    path = os.path.join(workdir, "board.wypn")
    for table in tables:

        def roundtrip(table=table):
            g.write_table_cache(table, path)
            back = g.read_table_cache(path)
            return (back.spec == table.spec and back.bound == table.bound
                    and np.array_equal(back.ppos, table.ppos))

        v.check(f"{table.spec.label()}/table-cache-roundtrip", roundtrip)
    os.remove(path)
    return v


# ---------------------------------------------------------------------------
# stream: O(B)-memory classification, the shape of acceptance criterion 08
# ---------------------------------------------------------------------------

def stream(api, inputs, workdir, tap=no_tap) -> Verdicts:
    g, ch = api.games, api.characterizations
    v = Verdicts()
    for ell in inputs["ells"]:
        part = api.catalog.PARTITION_SYSTEMS[ell]
        horizon = inputs["horizon"][str(ell)]
        bound = horizon * 1618 // 1000 + 4
        pairs = tap("stream.pairs", g.solve_pairs(g.kspec(ell), bound))
        pp = g.PposSequence(ell=ell, pairs=tuple(pairs))
        mex = ch.mex_sequence(ell, bound * 2 // 3 + 2 * ell + 8)
        v.check(f"K{ell}@{bound}/pairs-equal-mex",
                lambda: pairs == [p for p in mex.pairs if p[1] <= bound])
        v.check(f"K{ell}@{horizon}/partition-word",
                lambda: ch.morphic_coding_check(part.morphism, part.coding,
                                                part.offset, pp, horizon).ok)
    return v


# ---------------------------------------------------------------------------
# horizon: O(N) sequence layers, no board
# ---------------------------------------------------------------------------

def horizon(api, inputs, workdir, tap=no_tap) -> Verdicts:
    ch, mo, fb, wa = api.characterizations, api.morphisms, api.fibnum, api.walnut
    cat = api.catalog
    v = Verdicts()

    n = inputs["k2_count"]
    k2 = mo.k2_adjust_prefix(n)
    v.check(f"k2-adjust@{n}/definition-vs-recurrence",
            lambda: k2 == mo.k2_adjust_prefix_by_recurrence(n))

    n = inputs["dfao_count"]
    for ell in inputs["dfao_ells"]:
        morphism, coding = cat.ADJUST_SYSTEMS[ell]
        word = tap("horizon.word", coding.map(mo.fixed_point_prefix(morphism, 0, n)))
        d = cat.adjust_dfao(ell)
        v.check(f"k{ell}-adjust@{n}/dfao-vs-word",
                lambda d=d, word=word: all(mo.eval_dfao(d, i) == word[i] for i in range(n)))

    ell, n = inputs["mex_ell"], inputs["mex_count"]
    a, b = ch.mex_sequence(ell, n).arrays()
    profile = ch.discrepancy_profile(ell, n)
    v.check(f"K{ell}@{n}/mex-equals-profile",
            lambda: np.array_equal(a, profile.a[:n]) and np.array_equal(b, profile.b[:n]))
    v.check(f"K{ell}@{n}/mex-partition", lambda: _partitions(a, b, ell))
    v.check(f"K{ell}@{n}/discrepancy", lambda: ch.check_discrepancy(profile).ok)

    n = inputs["floor_count"]
    fr = fb.floor_phi_range(n)
    v.check(f"floor-phi@{n}/range-vs-scalar",
            lambda: all(int(fr[i]) == fb.floor_phi(i) for i in range(n + 1)))
    v.check(f"floor-phi@{n}/range-vs-certificate",
            lambda: all(fb.is_floor_phi(i, int(fr[i])) for i in range(n + 1)))

    n = inputs["closed_count"]
    for ell in (3, 4):
        v.check(f"K{ell}@{n}/closed-form-vs-mex",
                lambda ell=ell: ch.closed_form_pairs(ell, n).pairs
                == ch.mex_sequence(ell, n).pairs)

    inferred = _infer(mo, k2)
    v.check("k2-adjust/inferred-system",
            lambda: inferred is not None
            and (inferred.morphism, inferred.coding) == cat.ADJUST_SYSTEMS[2])
    if inferred is not None:
        d = mo.promote(inferred.morphism, inferred.coding)
        back = wa.from_walnut(wa.to_walnut(d))
        v.check("k2-adjust/walnut-roundtrip",
                lambda: back == d and all(mo.eval_dfao(back, i) == k2[i]
                                          for i in range(min(1000, len(k2)))))
    return v


def _partitions(a: np.ndarray, b: np.ndarray, ell: int) -> bool:
    """a and b together take every value ell+1..a[-1] exactly once."""
    both = np.concatenate([a, b])
    both = np.sort(both[both <= a[-1]])
    return np.array_equal(both, np.arange(ell + 1, int(a[-1]) + 1))


def _infer(mo, prefix):
    """Escalate the block depth as infer_morphism_auto does, from t=2."""
    for t in range(2, 7):
        try:
            return mo.infer_morphism(prefix, t)
        except mo.InferenceError:
            continue
    return None


RUN = {"verify-all": verify_all, "board": board, "stream": stream, "horizon": horizon}
