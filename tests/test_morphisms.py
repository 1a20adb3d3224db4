"""Substitution systems, automata, block structure, and inference."""
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wythlab.catalog import (
    ADJUST_SYSTEMS,
    FIBONACCI_AB,
    FIBONACCI_MORPHISM,
    K2_ADJUST_CODING,
    K2_ADJUST_MORPHISM,
    K3_ADJUST_CODING,
    K3_ADJUST_MORPHISM,
    K4_ADJUST_CODING,
    K4_ADJUST_MORPHISM,
    PARTITION_SYSTEMS,
    adjust_dfao,
    builtin_dfaos,
)
from wythlab.characterizations import CLOSED_FORMS
from wythlab.fibnum import fib, hofstadter_h, rep_F
from wythlab.morphisms import (
    DFAO,
    Coding,
    InferenceError,
    Morphism,
    _fixed_point,
    block_span,
    eval_dfao,
    eval_dfao_range,
    fixed_point_prefix,
    infer_morphism,
    infer_morphism_auto,
    k2_adjust,
    k2_adjust_prefix,
    k2_adjust_prefix_by_recurrence,
    promote,
)
from wythlab.walnut import from_walnut, to_walnut

TABLE1_G = (1, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1)
STARTS = 46_368  # fib(22), the n an automaton's start table covers


@st.composite
def dfaos(draw):
    k = draw(st.integers(1, 6))
    edge = st.sampled_from([None, *range(k)])
    transitions = draw(st.lists(st.tuples(edge, edge), min_size=k, max_size=k))
    outputs = draw(st.lists(st.one_of(st.integers(), st.text(max_size=2), st.none()),
                            min_size=k, max_size=k))
    return DFAO(tuple(transitions), tuple(outputs))


def answer(d, n):
    """eval_dfao(d, n), or the text of the ValueError it raises."""
    try:
        return eval_dfao(d, n)
    except ValueError as e:
        return str(e)


def walk_rep_F(d, n):
    """Output of d on the characters of rep_F(n), or the error eval_dfao gives."""
    state = 0
    for bit in rep_F(n):
        nxt = d.transitions[state][int(bit)]
        if nxt is None:
            return f"undefined transition from state {state} on {bit} at n={n}"
        state = nxt
    return d.outputs[state]


class TestMorphism:
    def test_validation(self):
        with pytest.raises(ValueError):
            Morphism(((0, 1), ()))          # empty image
        with pytest.raises(ValueError):
            Morphism(((0, 2), (0,)))        # letter out of range
        with pytest.raises(ValueError):
            Morphism(())

    def test_is_golden(self):
        assert FIBONACCI_MORPHISM.is_golden()
        assert not Morphism(((0, 0, 1), (0,))).is_golden()

    def test_apply(self):
        assert FIBONACCI_MORPHISM.apply((0, 1, 0)) == (0, 1, 0, 0, 1)


class TestArgumentChecks:
    @pytest.mark.parametrize("call,message", [
        (lambda: promote(Morphism(((0, 0, 1), (0,))), Coding((0, 1))),
         "image lengths must all be 1 or 2"),
        (lambda: block_span(0, 5), "iteration depth must be >= 1, got 0"),
        (lambda: infer_morphism(TABLE1_G, 0), "t must be >= 1, got 0"),
    ], ids=["promote-non-golden", "block-span-depth-0", "infer-depth-0"])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("letter", [1.0, True, np.bool_(True), 2, -1, "1"])
    def test_a_letter_is_an_integer_in_range(self, letter):
        # 1.0 and True were taken as letter 1 and built a morphism
        with pytest.raises(ValueError, match=re.escape(
                f"image of letter 0 holds {letter!r}, not a letter 0..1: ")):
            Morphism(((0, letter), (0,)))
        assert Morphism(((0, np.int64(1)), (0,))).apply((0,)) == (0, 1)

    @pytest.mark.parametrize("seed,message", [
        (5, "seed 5 is not a letter 0..1"),  # raised IndexError
        (2, "seed 2 is not a letter 0..1"),
        (True, "seed True is not an integer"),  # was read as letter 1
        (0.0, "seed 0.0 is not an integer"),
        (-1, "negative seed -1"),
    ])
    def test_seed_is_a_letter(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fixed_point_prefix(FIBONACCI_MORPHISM, seed, 5)
        assert fixed_point_prefix(FIBONACCI_MORPHISM, np.int64(0), 5) == (0, 1, 0, 0, 1)

    @pytest.mark.parametrize("transitions,outputs,message", [
        ((), (), "an automaton needs at least one state"),
        (((0, 0), (1, 1)), (7,), "2 states but 1 outputs (7,); each state needs one"),
        # raised IndexError in both evaluators, and to_walnut wrote `1 -> 5`
        (((0, 5),), (1,), "state 0 has transitions (0, 5), not two entries "
                          "each None or a state 0..0"),
        # to_walnut wrote `1 -> True`
        (((0, True),), (1,), "state 0 has transitions (0, True), not two "
                             "entries each None or a state 0..0"),
        # eval_dfao raised TypeError while eval_dfao_range answered
        (((0, 1.0), (0, 0)), (1, 2), "state 0 has transitions (0, 1.0), not two "
                                     "entries each None or a state 0..1"),
        (((0, -1),), (1,), "state 0 has transitions (0, -1), not two entries "
                           "each None or a state 0..0"),
        (((0,),), (1,), "state 0 has transitions (0,), not two entries "
                        "each None or a state 0..0"),
        (((0, 0, 0),), (1,), "state 0 has transitions (0, 0, 0), not two "
                             "entries each None or a state 0..0"),
    ], ids=["no-state", "too-few-outputs", "missing-state", "bool", "float",
            "negative", "one-entry", "three-entries"])
    def test_an_automaton_is_checked_when_built(self, transitions, outputs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DFAO(transitions, outputs)
        d = DFAO(((None, np.int64(1)), (0, None)), (5, 6, 7))  # promote may give more
        assert eval_dfao_range(d, 2).tolist() == [eval_dfao(d, n) for n in range(3)]

    def test_coding_covers_the_alphabet(self):
        # a 1-output coding of the 2-letter Fibonacci morphism built a DFAO
        # whose state 1 had no output, an IndexError at its first read
        with pytest.raises(ValueError, match=re.escape(
                "coding (0,) has 1 outputs for 2 letters")):
            promote(FIBONACCI_MORPHISM, Coding((0,)))
        d = promote(FIBONACCI_MORPHISM, FIBONACCI_AB)
        assert [eval_dfao(d, n) for n in range(5)] == list("abaab")


def fixed_point_by_list(m, seed, length):
    """The fixed point letter by letter: the i-th letter's image is appended."""
    w, i = list(m.images[seed]), 1
    while len(w) < length:
        w.extend(m.images[w[i]])
        i += 1
    return w[:length]


class TestFixedPoint:
    @pytest.mark.parametrize("morphism,length", [
        *[(m, 20_000) for m, _ in ADJUST_SYSTEMS.values()],
        *[(p.morphism, 20_000) for p in PARTITION_SYSTEMS.values()],
        (FIBONACCI_MORPHISM, 20_000),
        (Morphism(((0, 1, 2), (1,), (2, 0))), 10**5),  # an image of length 3
        (Morphism(((0, 1), (1,))), 10**4),  # grows by one letter a round
    ])
    def test_array_builder_matches_list_loop(self, morphism, length):
        want = fixed_point_by_list(morphism, 0, length)
        word = _fixed_point(morphism, 0, length)
        assert word.dtype.kind == "i" and word.tolist() == want
        for n in (1, 2, 3, 255, 256, 257, 1000, length - 1):
            assert fixed_point_prefix(morphism, 0, n) == tuple(want[:n])

    def test_fibonacci_word(self):
        word = fixed_point_prefix(FIBONACCI_MORPHISM, 0, 13)
        assert FIBONACCI_AB.map(word) == tuple("abaababaabaab")

    def test_prefix_stability(self):
        long = fixed_point_prefix(FIBONACCI_MORPHISM, 0, 500)
        short = fixed_point_prefix(FIBONACCI_MORPHISM, 0, 120)
        assert long[:120] == short

    def test_fixed_point_equation(self):
        """The prefix is invariant under one more application."""
        w = fixed_point_prefix(K2_ADJUST_MORPHISM, 0, 300)
        expanded = K2_ADJUST_MORPHISM.apply(w)
        assert expanded[:300] == w

    def test_bad_seed(self):
        # seed must begin its own image with image length 2
        with pytest.raises(ValueError):
            fixed_point_prefix(FIBONACCI_MORPHISM, 1, 10)
        with pytest.raises(ValueError):
            fixed_point_prefix(Morphism(((1, 0), (0,))), 0, 10)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            fixed_point_prefix(FIBONACCI_MORPHISM, 0, 0)


class TestBlockSpan:
    def test_base_row(self):
        assert block_span(1, 0) == (0, 1)
        # consecutive spans tile the word
        for i in range(1, 4):
            assert block_span(i, 0)[0] == 0
            for n in range(200):
                assert block_span(i, n)[1] + 1 == block_span(i, n + 1)[0]

    def test_blocks_are_images(self):
        """The i-block at n spells mu^i of the letter at position n."""
        for morphism, _ in (ADJUST_SYSTEMS[2], ADJUST_SYSTEMS[3]):
            word = fixed_point_prefix(morphism, 0, 4000)
            for i in range(1, 4):
                for n in range(150):
                    lo, hi = block_span(i, n)
                    img = (word[n],)
                    for _ in range(i):
                        img = morphism.apply(img)
                    assert word[lo : hi + 1] == img


class TestPromoteAndEval:
    def test_dfao_matches_word(self):
        for ell, (morphism, coding) in ADJUST_SYSTEMS.items():
            d = adjust_dfao(ell)
            word = coding.map(fixed_point_prefix(morphism, 0, 2000))
            for n in range(2000):
                assert eval_dfao(d, n) == word[n], (ell, n)

    def test_state_count_is_alphabet_size(self):
        assert adjust_dfao(2).state_count == 6
        assert adjust_dfao(3).state_count == 12
        assert adjust_dfao(4).state_count == 18

    def test_undefined_transition(self):
        d = DFAO(transitions=((None, None),), outputs=(7,))
        assert eval_dfao(d, 0) == 7
        with pytest.raises(ValueError):
            eval_dfao(d, 1)

    def test_range_matches_scalar(self):
        # the last automaton leaves state 0 on a 0, so a fed leading zero shows
        # mixed outputs keep their own types: numpy would cast them to one
        cases = {**builtin_dfaos(), "zero-moves": DFAO(((1, 1), (0, 1)), (5, 6)),
                 **{f"mixed {outs}": DFAO(((0, 1), (0, None)), outs)
                    for outs in (("a", 2), (1, 2.5), (True, 2))}}
        for name, d in cases.items():
            got = eval_dfao_range(d, 3000).tolist()
            want = [eval_dfao(d, n) for n in range(3001)]
            assert got == want, name
            assert list(map(type, got)) == list(map(type, want)), name
        assert eval_dfao_range(adjust_dfao(2), 10).dtype == "int64"  # the fast path stays
        d = adjust_dfao(2)
        assert eval_dfao_range(d, 0).tolist() == [eval_dfao(d, 0)]
        for n_max in (-1, -5):
            with pytest.raises(ValueError, match="negative argument"):
                eval_dfao_range(d, n_max)

    def test_range_skips_leading_zeros(self):
        # state 0 has no 0-edge: feeding a leading zero would get stuck
        d = DFAO(transitions=((None, 1), (0, None)), outputs=(1, 2))
        assert eval_dfao_range(d, 2).tolist() == [1, 2, 1]
        with pytest.raises(ValueError, match="at n=3"):
            eval_dfao_range(d, 6)
        with pytest.raises(ValueError, match="at n=3"):
            eval_dfao(d, 3)

    def test_eval_feeds_msd_first(self):
        # reading rep_F(4) = "101" from the start state
        d = adjust_dfao(2)
        state = 0
        for bit in rep_F(4):
            state = d.transitions[state][int(bit)]
        assert d.outputs[state] == eval_dfao(d, 4)

    @settings(max_examples=300, deadline=None)
    # n within the start table too: it covers n < STARTS
    @given(dfaos(), st.one_of(st.integers(0, 10**30), st.integers(0, 10**5)))
    def test_eval_matches_the_rep_F_walk(self, d, n):
        assert answer(d, n) == walk_rep_F(d, n)

    def test_eval_takes_numpy_integers(self):
        d = adjust_dfao(3)
        # one n read from the start table, two walked
        for n in (np.int64(10**18), np.int32(STARTS - 1), np.uint64(STARTS + 2)):
            assert eval_dfao(d, n) == walk_rep_F(d, int(n)), n
        for n in (-1, np.int64(-5)):
            with pytest.raises(ValueError, match="negative argument"):
                eval_dfao(d, n)

    def test_eval_builds_no_string(self, monkeypatch):
        def refuse(n):
            raise AssertionError("eval_dfao built rep_F")
        monkeypatch.setattr("wythlab.morphisms.rep_F", refuse)
        for name, d in builtin_dfaos().items():
            want = eval_dfao_range(d, 3000).tolist()
            assert [eval_dfao(d, n) for n in range(3001)] == want, name


class TestStartTable:
    """eval_dfao answers n < STARTS with one lookup in the automaton's start
    table, the state reached from state 0 on rep_F(n), and walks a larger n."""

    EDGES = [*range(STARTS - 3, STARTS + 4), 10**18]

    def test_edges_match_the_walk(self):
        cases = {**builtin_dfaos(), "K1 closed form": CLOSED_FORMS[1][0]}
        for name, d in cases.items():
            for n in self.EDGES:
                assert eval_dfao(d, n) == walk_rep_F(d, n), (name, n)
            # one entry per n below the widest weight within 2**16 entries
            assert fib(22) == len(d._starts) <= 2**16 < fib(23), name
            want = eval_dfao_range(d, STARTS - 1).tolist()
            assert [d.outputs[s] for s in d._starts] == want, name

    def test_leading_zeros_matter(self):
        # state 0 leaves on a 0, so a fed leading zero would show.  In the
        # second automaton state 0 ends in 1 or 3 on a word that starts with 0,
        # and in 0 or 2 on rep_F(n), so every n > 0 would read wrong.
        for d in (DFAO(((1, 1), (0, 1)), (5, 6)),
                  DFAO(((1, 2), (1, 3), (2, 2), (3, 3)), (0, 1, 2, 3))):
            for n in [*range(300), *self.EDGES]:
                assert eval_dfao(d, n) == walk_rep_F(d, n), n
            assert [d.outputs[s] for s in d._starts] == \
                eval_dfao_range(d, STARTS - 1).tolist()

    def test_missing_transitions_give_the_walk_error(self):
        # state 2, reached on 10, has no 1-edge: a second 1 is missing, met in
        # the table below STARTS and in the walk above it
        d = DFAO(((0, 1), (2, 0), (2, None)), (7, 8, 9))
        far = fib(25) + fib(23)
        for n in (4, STARTS - 1, STARTS + 1, far):
            assert answer(d, n).startswith("undefined transition"), n
        # the table holds the sink, state_count, where the walk raises
        assert d._starts[4] == d._starts[STARTS - 1] == d.state_count
        for n in [*range(300), *self.EDGES, far]:
            assert answer(d, n) == walk_rep_F(d, n), n
        d = DFAO(((0, None),), (7,))  # every 1 is missing, the leading one first
        for n in [*range(30), *self.EDGES]:
            assert answer(d, n) == walk_rep_F(d, n), n

    def test_many_states_get_the_same_table(self):
        many = 2**15 + 1
        d = DFAO(tuple(((s + 1) % many, (s + 2) % many) for s in range(many)),
                 tuple(range(many)))
        for n in (0, 1, 5, 10**4, *self.EDGES):
            assert eval_dfao(d, n) == walk_rep_F(d, n), n
        assert len(d._starts) == STARTS  # its width does not follow the state count

    def test_large_n_builds_no_table(self):
        d = adjust_dfao(4)
        for n in (STARTS, 10**18):
            assert eval_dfao(d, n) == walk_rep_F(d, n), n
            assert "_starts" not in vars(d), n
        eval_dfao(d, STARTS - 1)
        assert "_starts" in vars(d)

    @pytest.mark.parametrize("make", [lambda: DFAO(((0, 0),), (0,)),
                                      lambda: adjust_dfao(4)], ids=["one-state", "k4"])
    def test_the_table_is_a_cache_not_state(self, make):
        d, twin = make(), make()
        def looks():
            text = to_walnut(d)
            return d == twin, hash(d), repr(d), pickle.dumps(d), text, from_walnut(text)
        before = looks()
        assert "_starts" not in vars(d)
        eval_dfao(d, 1000)
        assert "_starts" in vars(d) and "_starts" not in vars(twin)
        assert looks() == before
        back = pickle.loads(pickle.dumps(d))
        assert "_starts" not in vars(back)
        for n in (1000, 10**6):
            assert back == d and eval_dfao(back, n) == eval_dfao(d, n)

    @pytest.mark.parametrize("make", [lambda: DFAO(((0, 0),), (0,)),
                                      lambda: adjust_dfao(4)], ids=["one-state", "k4"])
    def test_the_first_call_stays_small(self, make):
        d = make()
        fib(100)  # the weights of the calls, outside the measurement
        tracemalloc.start()
        try:
            eval_dfao(d, 10**18)
            eval_dfao(d, STARTS - 1)  # builds the table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "_starts" in vars(d) and peak < 1.5 * 2**20

    def test_eval_needs_no_range_code(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eval_dfao read the range code")
        for where in ("wythlab.fibnum._digit_columns", "wythlab.morphisms._digit_columns",
                      "wythlab.morphisms.eval_dfao_range"):
            monkeypatch.setattr(where, refuse)
        for name, d in builtin_dfaos().items():
            for n in [*range(200), *self.EDGES]:
                assert eval_dfao(d, n) == walk_rep_F(d, n), (name, n)

    def test_range_needs_no_table(self, monkeypatch):
        def refuse(self):
            raise AssertionError("eval_dfao_range read the start table")
        monkeypatch.setattr(DFAO, "_starts", property(refuse))
        for ell, (morphism, coding) in ADJUST_SYSTEMS.items():
            word = coding.map(fixed_point_prefix(morphism, 0, 7000))
            assert tuple(eval_dfao_range(adjust_dfao(ell), 6999).tolist()) == word, ell
        with pytest.raises(AssertionError, match="start table"):
            eval_dfao(adjust_dfao(2), 1)


class TestK2Adjust:
    def test_table1_frozen(self):
        assert k2_adjust_prefix(21) == TABLE1_G
        assert k2_adjust_prefix_by_recurrence(21) == TABLE1_G
        assert tuple(eval_dfao(adjust_dfao(2), n) for n in range(21)) == TABLE1_G

    def test_empty_prefixes(self):
        assert k2_adjust_prefix(0) == k2_adjust_prefix(-3) == ()
        assert k2_adjust_prefix_by_recurrence(0) == ()

    def test_definition_matches_recurrence(self):
        assert k2_adjust_prefix(5000) == k2_adjust_prefix_by_recurrence(5000)

    def test_definition_matches_recurrence_at_scale(self):
        assert k2_adjust_prefix(10**5) == k2_adjust_prefix_by_recurrence(10**5)

    def test_scalar_matches_prefix(self):
        pref = k2_adjust_prefix(300)
        for n in range(300):
            assert k2_adjust(n) == pref[n]

    def test_recurrence_form_readback(self):
        # value at n flips against the h-indexed earlier value when h steps
        pref = k2_adjust_prefix(400)
        for n in range(2, 400):
            if hofstadter_h(n - 2) < hofstadter_h(n - 1):
                assert pref[n] == 1 - pref[hofstadter_h(n - 1)]
            else:
                assert pref[n] == 1


class TestInference:
    def test_k2_system_verbatim(self):
        result = infer_morphism(k2_adjust_prefix(250), 3)
        assert result.morphism == K2_ADJUST_MORPHISM
        assert result.coding == K2_ADJUST_CODING
        assert result.is_fibonacci_conjugate

    def test_k3_system_verbatim(self):
        morphism, coding = ADJUST_SYSTEMS[3]
        prefix = coding.map(fixed_point_prefix(morphism, 0, 800))
        result = infer_morphism(prefix, 5)
        assert result.morphism == K3_ADJUST_MORPHISM
        assert result.coding == K3_ADJUST_CODING

    def test_k4_system_verbatim(self):
        morphism, coding = ADJUST_SYSTEMS[4]
        prefix = coding.map(fixed_point_prefix(morphism, 0, 800))
        result = infer_morphism(prefix, 4)
        assert result.morphism == K4_ADJUST_MORPHISM
        assert result.coding == K4_ADJUST_CODING

    def test_k4_needs_depth_four(self):
        """At block depth 3 two distinct letters collide and the image map
        becomes inconsistent."""
        morphism, coding = ADJUST_SYSTEMS[4]
        prefix = coding.map(fixed_point_prefix(morphism, 0, 800))
        with pytest.raises(InferenceError):
            infer_morphism(prefix, 3)
        result = infer_morphism_auto(prefix)
        assert result.t == 4
        assert result.morphism == K4_ADJUST_MORPHISM

    def test_fibonacci_word(self):
        word = fixed_point_prefix(FIBONACCI_MORPHISM, 0, 200)
        result = infer_morphism(word, 2)
        assert result.morphism == FIBONACCI_MORPHISM
        assert result.coding.outputs == (0, 1)
        assert result.is_fibonacci_conjugate

    def test_structural_coding(self):
        result = infer_morphism(k2_adjust_prefix(250), 3)
        # letters carrying two-letter images read 'a', the others 'b'
        structural = tuple(
            "a" if len(img) == 2 else "b" for img in result.morphism.images
        )
        assert result.structural.outputs == structural

    def test_corrupted_prefix_rejected(self):
        prefix = list(k2_adjust_prefix(250))
        prefix[137] ^= 1
        with pytest.raises(InferenceError):
            infer_morphism(prefix, 3)
        with pytest.raises(InferenceError, match=r"^no consistent substitution "
                           r"found for t in \[2, 6\]; last failure: "):
            infer_morphism_auto(prefix)

    def test_short_prefix_rejected(self):
        with pytest.raises(InferenceError):
            infer_morphism(k2_adjust_prefix(10), 3)

    def test_untyped_prefix_boundary(self):
        """The no-typed-positions error fires exactly when the scalar block
        spans type fewer than two positions."""
        word = k2_adjust_prefix(40)
        for t in range(1, 5):
            for length in range(41):
                typed = 0
                while block_span(t, typed)[1] < length:
                    typed += 1
                try:
                    infer_morphism(word[:length], t)
                    untyped = False
                except InferenceError as exc:
                    untyped = "types no positions" in str(exc)
                assert untyped == (typed < 2), (t, length)

    def test_deep_types_rejected_in_constant_memory(self):
        # the depth test must not build numeration weights up to index t + 1
        tracemalloc.start()
        try:
            with pytest.raises(InferenceError, match="types no positions"):
                infer_morphism(k2_adjust_prefix(250), 20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_image_block_ending_at_last_typed_position(self):
        # the depth-1 block of position 1 is position 2, the last typed one
        result = infer_morphism(k2_adjust_prefix(5), 1)
        assert result.typed_positions == 3
        assert result.morphism == FIBONACCI_MORPHISM

    @pytest.mark.parametrize("ell,t", [(3, 5), (4, 4)])
    @pytest.mark.parametrize("length", [800, 3001])
    def test_typed_positions_match_block_span(self, ell, t, length):
        morphism, coding = ADJUST_SYSTEMS[ell]
        prefix = coding.map(fixed_point_prefix(morphism, 0, length))
        result = infer_morphism(prefix, t)
        assert (result.morphism, result.coding) == ADJUST_SYSTEMS[ell]
        typed = 0
        while block_span(t, typed)[1] < length:
            typed += 1
        assert result.typed_positions == typed

    def test_constant_sequence(self):
        result = infer_morphism_auto([1] * 60)
        assert set(result.coding.outputs) == {1}
        regenerated = result.coding.map(
            fixed_point_prefix(result.morphism, 0, 60)
        )
        assert regenerated == (1,) * 60

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=30, max_value=400))
    def test_sound_on_any_prefix_length(self, length):
        """Inference either fails loudly or returns the exact system; it
        never returns a wrong one."""
        prefix = k2_adjust_prefix(length)
        try:
            result = infer_morphism(prefix, 3)
        except InferenceError:
            return
        assert result.morphism == K2_ADJUST_MORPHISM
        assert result.coding == K2_ADJUST_CODING


class TestCatalog:
    def test_all_systems_golden(self):
        for morphism, _ in ADJUST_SYSTEMS.values():
            assert morphism.is_golden()
        for part in PARTITION_SYSTEMS.values():
            assert part.morphism.is_golden()
            assert set(part.coding.outputs) <= {"a", "b"}

    def test_adjust_value_ranges(self):
        assert set(K2_ADJUST_CODING.outputs) == {0, 1}
        assert set(K3_ADJUST_CODING.outputs) == {0, 1, 2}
        assert set(K4_ADJUST_CODING.outputs) == {0, 1, 2}

    def test_partition_offsets(self):
        assert [PARTITION_SYSTEMS[e].offset for e in range(4)] == [1, 2, 3, 4]

    def test_builtin_names(self):
        names = set(builtin_dfaos())
        assert names == {
            "k2-adjust",
            "k3-adjust",
            "k4-adjust",
            "wythoff-partition",
            "k1-partition",
            "k2-partition",
            "k3-partition",
        }

    def test_partition_automata_follow_the_table(self, monkeypatch):
        names = [n for n in builtin_dfaos() if n.endswith("-partition")]
        assert names == ["wythoff-partition", "k1-partition", "k2-partition", "k3-partition"]
        # a fourth row appears under its own name, promoted from its own system
        monkeypatch.setitem(PARTITION_SYSTEMS, 4, PARTITION_SYSTEMS[1])
        dfaos = builtin_dfaos()
        assert list(dfaos)[-2:] == ["k3-partition", "k4-partition"]
        assert dfaos["k4-partition"] == dfaos["k1-partition"]

    def test_adjust_automata_follow_the_table(self, monkeypatch):
        k2, k3 = adjust_dfao(2), adjust_dfao(3)
        assert (k2.state_count, k3.state_count) == (6, 12)
        # a row replaced after a first call is followed by both entry points
        monkeypatch.setitem(ADJUST_SYSTEMS, 2, ADJUST_SYSTEMS[3])
        assert adjust_dfao(2) == k3
        assert builtin_dfaos()["k2-adjust"] == k3

    def test_adjust_dfao_unknown_ell(self):
        with pytest.raises(ValueError):
            adjust_dfao(7)
