"""Word-automaton text format: canonical emission and strict parsing."""
import re

import numpy as np
import pytest

from wythlab.catalog import adjust_dfao, builtin_dfaos
from wythlab.morphisms import DFAO, eval_dfao, infer_morphism, k2_adjust_prefix, promote
from wythlab.walnut import WalnutFormatError, from_walnut, to_walnut


def test_round_trip_builtins():
    for name, d in builtin_dfaos().items():
        text = to_walnut(d)
        back = from_walnut(text)
        assert back == d, name
        # canonical form is a fixed point of the round trip
        assert to_walnut(back) == text


def test_header_and_first_state():
    text = to_walnut(adjust_dfao(2))
    lines = text.splitlines()
    assert lines[0] == "msd_fib"
    assert lines[1] == "0 1"      # initial state, output g(0) = 1
    assert lines[2] == "0 -> 0"
    assert text.endswith("\n")


def test_round_trip_preserves_semantics():
    d = adjust_dfao(3)
    back = from_walnut(to_walnut(d))
    for n in range(500):
        assert eval_dfao(back, n) == eval_dfao(d, n)


def test_partial_transitions_survive():
    d = DFAO(transitions=((1, None), (None, 0)), outputs=(5, 9))
    back = from_walnut(to_walnut(d))
    assert back.transitions == ((1, None), (None, 0))
    assert back.outputs == (5, 9)


def test_parses_loose_whitespace():
    text = "msd_fib\n\n0 1\n0 -> 0\n1 ->  1\n1 0\n0 -> 0\n"
    d = from_walnut(text)
    assert d.state_count == 2
    assert d.transitions == ((0, 1), (0, None))


class TestErrors:
    def test_wrong_header(self):
        with pytest.raises(WalnutFormatError):
            from_walnut("msd_2\n0 1\n0 -> 0\n")

    def test_missing_header(self):
        with pytest.raises(WalnutFormatError):
            from_walnut("0 1\n0 -> 0\n")

    def test_states_out_of_order(self):
        with pytest.raises(WalnutFormatError):
            from_walnut("msd_fib\n1 0\n0 -> 1\n0 1\n")

    def test_duplicate_digit(self):
        with pytest.raises(WalnutFormatError):
            from_walnut("msd_fib\n0 1\n0 -> 0\n0 -> 0\n")

    def test_dangling_target(self):
        with pytest.raises(WalnutFormatError, match=re.escape(
                "state 0 has transitions (3, None), not two entries each None "
                "or a state 0..0")):
            from_walnut("msd_fib\n0 1\n0 -> 3\n")

    def test_transition_before_state(self):
        with pytest.raises(WalnutFormatError,
                           match="^transition before any state: '0 -> 0'$"):
            from_walnut("msd_fib\n0 -> 0\n0 1\n")

    def test_garbage_line(self):
        with pytest.raises(WalnutFormatError):
            from_walnut("msd_fib\n0 1\nbanana\n")
        # only ASCII digits: int() would read these Arabic-Indic ones as 0 and 1
        with pytest.raises(WalnutFormatError, match="^unparseable line: '\u0660 \u0661'$"):
            from_walnut("msd_fib\n\u0660 \u0661\n0 -> \u0660\n")
        with pytest.raises(WalnutFormatError, match="^unparseable line: '0 -> \u0660'$"):
            from_walnut("msd_fib\n0 1\n0 -> \u0660\n")

    def test_empty_automaton(self):
        with pytest.raises(WalnutFormatError, match="^an automaton needs at least one state$"):
            from_walnut("msd_fib\n")

    def test_to_walnut_needs_integer_outputs(self):
        d = DFAO(transitions=((0, 0),), outputs=("a",))
        with pytest.raises(ValueError):
            to_walnut(d)

    def test_to_walnut_writes_numpy_integer_outputs(self):
        # an inferred coding holds numpy integers; they were refused as
        # "output np.int64(1) is not an integer"
        r = infer_morphism(np.array(k2_adjust_prefix(400)), 3)
        d = promote(r.morphism, r.coding)
        assert isinstance(d.outputs[0], np.integer)
        back = from_walnut(to_walnut(d))
        assert back.transitions == d.transitions and back.outputs == d.outputs
        assert to_walnut(DFAO(((0, None),), (np.int64(-3),))) == "msd_fib\n0 -3\n0 -> 0\n"
        for out in (True, np.bool_(True), 1.0, "1"):
            with pytest.raises(ValueError, match=re.escape(
                    f"state 0 output {out!r} is not an integer")):
                to_walnut(DFAO(((0, None),), (out,)))
