"""One rule for every natural argument: fibnum._natural, read by all modules.

Each entry point refuses -1 (where it is below the argument's least), a
bool, and a float, 2.0 included, with a ValueError whose message names the
value, and gives a numpy integer the result of the int it holds.
"""
import dataclasses
import re

import numpy as np
import pytest

from wythlab import characterizations as ch, fibnum as fb, games as g, morphisms as mo
from wythlab.catalog import PARTITION_SYSTEMS, adjust_dfao
from wythlab.suites import SUITES, run_suite

D2 = adjust_dfao(2)
K2_PREFIX = mo.k2_adjust_prefix(800)
FIB = mo.Morphism(((0, 1), (0,)))
K2_PAIRS = ch.mex_sequence(2, 60)
P2 = PARTITION_SYSTEMS[2]  # its word describes the values from offset 3

NATURAL = (-1, True, 2.5, 2.0)
INTEGER = (True, 2.5, 2.0)  # the argument may be negative
# a small bound each suite runs at, for the rows of the suite runner
SUITE_BOUNDS = {"kernel": 40, "closed-forms": 40, "mex": 40, "blocking": 40,
                "discrepancy": 3284, "redundancy": 60, "morphic": 100}


def suite_rows(items):
    """A suite's items less their seconds."""
    return [(it.name, it.spec, it.bound, it.result) for it in items]


# (id, call of the one argument under test, a valid value, the refused values)
CASES = [
    ("fib", fb.fib, 7, NATURAL),
    ("rep_F", fb.rep_F, 30, NATURAL),
    ("zeckendorf_digits", fb.zeckendorf_digits, 20, NATURAL),
    ("shift", fb.shift, 12, NATURAL),
    ("shift_range-n_max", lambda v: fb.shift_range(v, 2), 20, NATURAL),
    ("shift_range-i", lambda v: fb.shift_range(20, v), 3, NATURAL),
    ("floor_phi", fb.floor_phi, 10**18, NATURAL),
    ("floor_phi2", fb.floor_phi2, 10**18, NATURAL),
    ("floor_phi_range", fb.floor_phi_range, 40, NATURAL),
    ("is_floor_phi-n", lambda v: fb.is_floor_phi(v, 16), 10, NATURAL),
    ("is_floor_phi-m", lambda v: fb.is_floor_phi(10, v), 16, INTEGER),
    ("hofstadter_h", fb.hofstadter_h, 50, NATURAL),
    # 5 x^2 and z^2 overflow int64 near 2**40
    ("sqrt5_times_leq-x", lambda v: fb.sqrt5_times_leq(v, 2**41), 2**40, INTEGER),
    ("sqrt5_times_leq-z", lambda v: fb.sqrt5_times_leq(2**40, v), 3 * 2**40, INTEGER),
    ("sqrt5_times_geq-x", lambda v: fb.sqrt5_times_geq(v, 2**41), 2**40, INTEGER),
    ("sqrt5_times_geq-z", lambda v: fb.sqrt5_times_geq(2**40, v), 3 * 2**40, INTEGER),
    ("fixed_point_prefix", lambda v: mo.fixed_point_prefix(FIB, 0, v), 20, NATURAL),
    ("fixed_point_prefix-seed", lambda v: mo.fixed_point_prefix(FIB, v, 20), 0, NATURAL),
    ("eval_dfao", lambda v: mo.eval_dfao(D2, v), 10**18, NATURAL),
    ("eval_dfao_range", lambda v: mo.eval_dfao_range(D2, v), 40, NATURAL),
    ("block_span-i", lambda v: mo.block_span(v, 5), 3, NATURAL),
    ("block_span-n", lambda v: mo.block_span(3, v), 5, NATURAL),
    ("infer_morphism", lambda v: mo.infer_morphism(K2_PREFIX, v), 3, NATURAL),
    ("k2_adjust", mo.k2_adjust, 40, NATURAL),
    ("mex_sequence-ell", lambda v: ch.mex_sequence(v, 30), 2, NATURAL),
    ("mex_sequence-count", lambda v: ch.mex_sequence(2, v), 30, NATURAL),
    ("discrepancy_profile-ell", lambda v: ch.discrepancy_profile(v, 50), 2, NATURAL),
    ("discrepancy_profile-horizon", lambda v: ch.discrepancy_profile(2, v), 50, NATURAL),
    ("k1_remark_pair", ch.k1_remark_pair, 30, NATURAL),
    ("closed_form_K2", ch.closed_form_K2, 30, NATURAL),
    ("closed_form_K3", ch.closed_form_K3, 30, NATURAL),
    ("closed_form_K4", ch.closed_form_K4, 30, NATURAL),
    ("closed_form_pairs", lambda v: ch.closed_form_pairs(3, v), 30, NATURAL),
    ("closed_form_pairs-ell", lambda v: ch.closed_form_pairs(v, 30), 3, NATURAL),
    ("k3_adjust_prefix_bruteforce", ch.k3_adjust_prefix_bruteforce, 30, INTEGER),
    ("k4_adjust_prefix_bruteforce", ch.k4_adjust_prefix_bruteforce, 30, INTEGER),
    ("counting_check", lambda v: ch.counting_check(K2_PAIRS, v), 40, NATURAL),
    ("morphic_coding_check-offset",
     lambda v: ch.morphic_coding_check(P2.morphism, P2.coding, v, K2_PAIRS, 60), 3, NATURAL),
    ("morphic_coding_check-horizon",
     lambda v: ch.morphic_coding_check(P2.morphism, P2.coding, 3, K2_PAIRS, v), 60, NATURAL),
    ("closed_form_table", lambda v: ch.closed_form_table(g.wspec(2), v), 40, NATURAL),
    ("closed_form_K1-a", lambda v: ch.closed_form_K1(v, 7), 4, NATURAL),
    ("closed_form_K1-b", lambda v: ch.closed_form_K1(4, v), 7, NATURAL),
    ("ppos_W2-x", lambda v: ch.ppos_W2(v, 9), 4, NATURAL),
    ("ppos_W2-y", lambda v: ch.ppos_W2(4, v), 9, NATURAL),
    ("ppos_W3-x", lambda v: ch.ppos_W3(v, 10), 4, NATURAL),
    ("ppos_W3-y", lambda v: ch.ppos_W3(4, v), 10, NATURAL),
    ("density_certificate-a_n", lambda v: ch.density_certificate(v, 10, 1, 10), 16, INTEGER),
    ("density_certificate-n", lambda v: ch.density_certificate(16, v, 1, 10), 10, NATURAL),
    ("density_certificate-num", lambda v: ch.density_certificate(16, 10, v, 10), 1, INTEGER),
    ("density_certificate-den", lambda v: ch.density_certificate(16, 10, 1, v), 10, NATURAL),
    ("kspec", g.kspec, 2, NATURAL),
    ("wspec", g.wspec, 2, NATURAL),
    ("solve", lambda v: g.solve(g.kspec(2), v), 60, NATURAL),
    ("solve_pairs", lambda v: g.solve_pairs(g.wspec(3), v), 60, NATURAL),
    ("from_cells", lambda v: g.PNTable.from_cells(g.kspec(1), v, [3, 5], [5, 8]), 6, NATURAL),
    ("check_stable", lambda v: g.check_stable([(3, 5)], g.kspec(1), v), 6, NATURAL),
    ("check_absorbing", lambda v: g.check_absorbing([(3, 5)], g.kspec(1), v), 6, NATURAL),
    ("non_redundant_witness",
     lambda v: g.non_redundant_witness(g.kspec(2), (1, 1), v), 60, NATURAL),
    ("non_redundant_witnesses",
     lambda v: g.non_redundant_witnesses(g.kspec(2), [(1, 1), (0, 2)], v), 60, NATURAL),
    ("PposSequence", lambda v: g.PposSequence(1, [(v, 2 * v + 1)]), 3, INTEGER),
    ("PposSequence-ell", lambda v: g.PposSequence(v, K2_PAIRS.pairs), 2, NATURAL),
    ("adjust_dfao", adjust_dfao, 2, INTEGER + (-1,)),
    ("run_suite-ell", lambda v: suite_rows(run_suite("morphic", ell=v, bound=100)), 2, NATURAL),
    ("run_suite-k", lambda v: suite_rows(run_suite("blocking", k=v, bound=40)), 2, NATURAL),
] + [(f"run_suite-{key}-bound", lambda v, key=key: suite_rows(run_suite(key, bound=v)),
      SUITE_BOUNDS[key], NATURAL) for key in SUITES]


def fingerprint(x):
    """x with its types, for an exact comparison of results."""
    if isinstance(x, g.PNTable):
        return ("table", x.spec, type(x.bound), x.bound, x.xs.tolist(), x.ys.tolist())
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.tolist())
    if isinstance(x, g.PposSequence):
        return ("pairs", fingerprint(x.ell), x.pairs)
    if dataclasses.is_dataclass(x):
        return (type(x), tuple(fingerprint(v) for v in vars(x).values()))
    if isinstance(x, (tuple, list)):
        return (type(x), tuple(fingerprint(v) for v in x))
    return (type(x), x)


def names(value) -> str:
    return rf"(?<![\w.]){re.escape(str(value))}(?![\w.])"


@pytest.mark.parametrize("call,n,refused", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_every_entry_point_reads_the_one_rule(call, n, refused):
    want = fingerprint(call(n))
    assert fingerprint(call(np.int64(n))) == want
    for bad in refused:
        with pytest.raises(ValueError, match=names(bad)):
            call(bad)


@pytest.mark.parametrize("call,message", [
    (lambda: ch.closed_form_K1(-5, 0), "negative coordinate -5"),
    (lambda: ch.closed_form_K1(-3, 3), "negative coordinate -3"),
    (lambda: ch.ppos_W3(2.5, 7.0), "coordinate 2.5 is not an integer"),
    (lambda: ch.ppos_W2(1.0, 3.0), "coordinate 1.0 is not an integer"),
    (lambda: fb.is_floor_phi(-2, -4), "negative argument -2"),
    (lambda: fb.rep_F(2.5), "argument 2.5 is not an integer"),
    (lambda: mo.eval_dfao(D2, 6.5), "argument 6.5 is not an integer"),
    (lambda: mo.k2_adjust(-1), "negative argument -1"),
    (lambda: fb.hofstadter_h(-2), "negative argument -2"),
    (lambda: ch.counting_check(K2_PAIRS, -3), "negative X -3"),
    (lambda: ch.morphic_coding_check(P2.morphism, P2.coding, 3, K2_PAIRS, 50.5),
     "horizon 50.5 is not an integer"),
    (lambda: ch.closed_form_pairs(2.0, 3), "ell 2.0 is not an integer"),
    (lambda: ch.k4_adjust_prefix_bruteforce(3.5), "count 3.5 is not an integer"),
    (lambda: ch.counting_check(g.PposSequence(2.5, K2_PAIRS.pairs), 40),
     "ell 2.5 is not an integer"),
    (lambda: run_suite("morphic", ell=2.0, bound=100), "ell 2.0 is not an integer"),
    (lambda: run_suite("discrepancy", ell=2.0), "ell 2.0 is not an integer"),
    (lambda: fb.sqrt5_times_geq(True, 3), "x True is not an integer"),
], ids=["K1-negative", "K1-negative-pair", "W3-floats", "W2-floats", "is_floor_phi-negative",
        "rep_F-float", "eval_dfao-float", "k2_adjust-negative", "hofstadter_h-blame",
        "counting_check-negative", "morphic-float-horizon", "closed_form_pairs-float-ell",
        "k4_adjust-float", "counting_check-float-ell", "run_suite-morphic-float-ell",
        "run_suite-discrepancy-float-ell", "sqrt5_times_geq-bool"])
def test_inputs_that_got_an_answer_are_refused(call, message):
    # each of these once returned an answer (or raised for another value)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_the_rule_and_its_messages():
    assert fb._natural(np.int64(5), "bound") == 5
    assert type(fb._natural(np.uint8(5), "bound")) is int
    assert fb._natural(-7, "num", None) == -7
    for value, least, message in [
        (-1, 0, "negative bound -1"),
        (True, 0, "bound True is not an integer"),
        (2.0, 0, "bound 2.0 is not an integer"),
        ("3", None, "bound '3' is not an integer"),
        (0, 1, "bound must be >= 1, got 0"),
        (np.int64(-4), 0, "negative bound -4"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fb._natural(value, "bound", least)


@pytest.mark.parametrize("fn", [mo.k2_adjust_prefix, mo.k2_adjust_prefix_by_recurrence,
                                ch.k3_adjust_prefix_bruteforce, ch.k4_adjust_prefix_bruteforce])
def test_a_count_below_one_still_gives_no_values(fn):
    assert fn(-3) == fn(np.int64(0)) == ()
    assert fn(np.int64(7)) == fn(7)
    for bad in (True, 2.5, -2.5):
        with pytest.raises(ValueError, match=f"^count {bad} is not an integer$"):
            fn(bad)


def test_joint_messages_stay():
    for fn, what in ((ch.mex_sequence, "count"), (ch.discrepancy_profile, "horizon")):
        with pytest.raises(ValueError, match=f"^ell and {what} must be naturals: -1, 5$"):
            fn(-1, 5)
        with pytest.raises(ValueError, match=f"^{what} 5.0 is not an integer$"):
            fn(1, 5.0)
