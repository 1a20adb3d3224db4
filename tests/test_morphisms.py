"""Substitution systems, automata, block structure, and inference."""
import tracemalloc

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
from wythlab.fibnum import hofstadter_h, rep_F
from wythlab.morphisms import (
    DFAO,
    Coding,
    InferenceError,
    Morphism,
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

TABLE1_G = (1, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1)


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


class TestFixedPoint:
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

    def test_adjust_dfao_unknown_ell(self):
        with pytest.raises(ValueError):
            adjust_dfao(7)
