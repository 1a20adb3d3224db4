"""Zeckendorf arithmetic: representations, exact floors, certificates."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wythlab.fibnum import (
    fib,
    floor_phi,
    floor_phi2,
    floor_phi_range,
    hofstadter_h,
    is_canonical,
    is_floor_phi,
    mex,
    rep_F,
    shift,
    shift_range,
    sqrt5_times_geq,
    sqrt5_times_leq,
    val_F,
    zeckendorf_digits,
)


def floor_phi_oracle(n: int) -> int:
    # floor(n*phi) = (n + floor(sqrt(5 n^2))) // 2, exact in integers
    return (n + math.isqrt(5 * n * n)) // 2


def canonical_words_radix_order(max_len: int):
    """All no-adjacent-ones words without leading zeros, shortest first."""
    words = [""]
    for length in range(1, max_len + 1):
        # leading digit is always 1; shorter words precede longer ones
        tails = [""]
        for _ in range(length - 1):
            tails = [t + d for t in tails for d in ("0", "1")]
        level = ["1" + t for t in tails if "11" not in "1" + t]
        words.extend(sorted(level))
    return words


class TestRepresentation:
    def test_fib_weights(self):
        assert [fib(i) for i in range(8)] == [1, 2, 3, 5, 8, 13, 21, 34]

    def test_zero_is_empty_word(self):
        assert rep_F(0) == ""
        assert val_F("") == 0

    def test_paper_row(self):
        assert rep_F(12) == "10101"
        assert val_F("10101") == 12

    def test_radix_order_enumeration(self):
        """rep_F enumerates the canonical words in radix order."""
        words = canonical_words_radix_order(9)
        for n, w in enumerate(words):
            assert rep_F(n) == w
            assert val_F(w) == n

    def test_round_trip_range(self):
        for n in range(3000):
            w = rep_F(n)
            assert is_canonical(w)
            assert "11" not in w
            assert val_F(w) == n

    def test_val_accepts_digit_lists(self):
        assert val_F([1, 0, 1, 0, 1]) == 12
        assert val_F((1, 0)) == 2

    def test_val_rejects_junk(self):
        with pytest.raises(ValueError):
            val_F("102")
        with pytest.raises(ValueError):
            val_F([2])

    @pytest.mark.parametrize("word,digit", [
        ([True, False], False), ([1.0, 0.0], 0.0), ([1, 0.0], 0.0),
        ([np.bool_(True), 0], np.bool_(True)),
    ])
    def test_val_reads_only_str_and_integer_digits(self, word, digit):
        # [True, False] and [1.0, 0.0] were read as 2, yet is_canonical
        # calls both non-canonical
        assert not is_canonical(word)
        with pytest.raises(ValueError, match=re.escape(
                f"non-binary symbol {digit!r} in word")):
            val_F(word)
        assert val_F([np.int64(1), np.uint8(0)]) == 2 == val_F(["1", 0])

    @pytest.mark.parametrize("word", [[10, 0], ["10", "0"]])
    def test_canonical_reads_digits_as_val_does(self, word):
        # the digits were joined into the string "100" and called canonical
        assert not is_canonical(word)
        with pytest.raises(ValueError, match=re.escape(
                f"non-binary symbol {word[0]!r} in word")):
            val_F(word)
        assert is_canonical([1, "0", np.int64(1)]) and not is_canonical([1, 1])

    def test_rep_rejects_negative(self):
        with pytest.raises(ValueError):
            rep_F(-1)

    @pytest.mark.parametrize("fn,what", [(fib, "index"), (floor_phi, "argument")])
    def test_fib_and_floor_phi_reject_negative(self, fn, what):
        with pytest.raises(ValueError, match=f"^negative {what} -1$"):
            fn(-1)

    def test_non_canonical_words_still_evaluate(self):
        # val_F is defined on every binary word, canonical or not
        assert val_F("011") == 3
        assert not is_canonical("011")
        assert not is_canonical("11")

    @given(st.integers(min_value=0, max_value=10**9))
    def test_round_trip_property(self, n):
        assert val_F(rep_F(n)) == n

    @given(st.integers(min_value=0, max_value=10**6))
    def test_shift_appends_zero(self, n):
        assert shift(n) == val_F(rep_F(n) + "0")


class TestBeattyFloors:
    def test_small_values(self):
        assert [floor_phi(n) for n in range(8)] == [0, 1, 3, 4, 6, 8, 9, 11]
        assert [floor_phi2(n) for n in range(6)] == [0, 2, 5, 7, 10, 13]

    def test_against_integer_sqrt_oracle(self):
        for n in range(4000):
            assert floor_phi(n) == floor_phi_oracle(n)
            assert floor_phi2(n) == floor_phi_oracle(n) + n

    @given(st.integers(min_value=0, max_value=10**7))
    def test_floor_phi_property(self, n):
        assert floor_phi(n) == floor_phi_oracle(n)

    def test_floor_phi_is_the_shift_identity(self):
        # floor_phi is the isqrt formula; the Zeckendorf shift is independent
        assert floor_phi(0) == 0
        for n in range(1, 10**4 + 1):
            assert floor_phi(n) == shift(n - 1) + 1

    @given(st.integers(min_value=1, max_value=10**30))
    def test_floor_phi_is_the_shift_identity_far_out(self, n):
        assert floor_phi(n) == shift(n - 1) + 1

    def test_range_matches_scalar(self):
        got = floor_phi_range(3000)
        assert got.shape == (3001,)
        want = np.array([floor_phi_oracle(n) for n in range(3001)])
        assert np.array_equal(got, want)

    def test_range_empty_and_single(self):
        assert floor_phi_range(0).tolist() == [0]
        assert floor_phi_range(1).tolist() == [0, 1]
        assert floor_phi_range(2).tolist() == [0, 1, 3]

    def test_is_floor_phi(self):
        for n in range(500):
            m = floor_phi(n)
            assert is_floor_phi(n, m)
            assert not is_floor_phi(n, m - 1)
            assert not is_floor_phi(n, m + 1)


class TestDigitMatrix:
    @given(st.integers(min_value=0, max_value=600))
    def test_rows_are_representations(self, n_max):
        digits = zeckendorf_digits(n_max)
        assert digits.dtype == np.uint8
        assert digits.shape == (n_max + 1, len(rep_F(n_max)))
        for n, row in enumerate(digits):
            assert "".join(map(str, row)).lstrip("0") == rep_F(n)

    def test_zero_and_negative(self):
        assert zeckendorf_digits(0).shape == (1, 0)
        with pytest.raises(ValueError):
            zeckendorf_digits(-1)


class TestShiftRange:
    def test_matches_scalar_shift(self):
        for i in (0, 1, 2, 3, 4, 7):
            got = shift_range(3000, i).tolist()
            assert got == [val_F(rep_F(n) + "0" * i) for n in range(3001)]

    def test_block_edges(self):
        # each weight's block is a shifted prefix: check both of its ends
        for i in (1, 2, 3, 7):
            got = shift_range(fib(26) - 1, i)
            for j in range(16, 26):
                for n in (fib(j) - 1, fib(j), fib(j + 1) - 1):
                    assert got[n] == val_F(rep_F(n) + "0" * i), (i, n)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 10, 1000])
    def test_overflow_iff_a_weight_overflows(self, n_max):
        # the condition a per-weight digit pass tests: fib(j + i + 1) past
        # int64 for some weight fib(j) <= n_max
        big = np.iinfo(np.int64).max
        for i in range(100):
            if any(fib(j + i + 1) > big for j in range(len(rep_F(n_max)))):
                with pytest.raises(ValueError, match="overflows"):
                    shift_range(n_max, i)
            else:
                assert shift_range(n_max, i)[-1] == val_F(rep_F(n_max) + "0" * i)

    @given(st.integers(min_value=0, max_value=2 * 10**5),
           st.integers(min_value=0, max_value=8))
    def test_last_value_and_order(self, n_max, i):
        got = shift_range(n_max, i)
        assert got.shape == (n_max + 1,)
        assert got[-1] == val_F(rep_F(n_max) + "0" * i)
        assert (got[1:] > got[:-1]).all()

    def test_bad_arguments(self):
        for n_max, i in ((-1, 1), (5, -1), (0, -1)):
            with pytest.raises(ValueError, match="negative"):
                shift_range(n_max, i)
        # rep_F(10) = 10010: at i=86 the weights fit in int64, their sum not
        assert shift_range(10, 85)[-1] == val_F(rep_F(10) + "0" * 85)
        with pytest.raises(ValueError, match="overflows"):
            shift_range(10, 86)


class TestHofstadter:
    def test_frozen_prefix(self):
        want = [0, 1, 1, 2, 3, 3, 4, 4, 5, 6, 6, 7, 8, 8, 9, 9, 10, 11, 11, 12, 12]
        assert [hofstadter_h(n) for n in range(21)] == want

    def test_recurrence(self):
        """h(n) = n - h(h(n-1)) with h(0) = 0."""
        memo = [0]
        for n in range(1, 10**4):
            memo.append(n - memo[memo[n - 1]])
        for n in range(10**4):
            assert hofstadter_h(n) == memo[n]


class TestMex:
    def test_examples(self):
        assert mex(set()) == 0
        assert mex({0, 1, 2}) == 3
        assert mex({1, 2}) == 0
        assert mex({0, 2, 3}) == 1

    @given(st.sets(st.integers(min_value=0, max_value=50)))
    def test_definition(self, s):
        m = mex(s)
        assert m not in s
        assert all(v in s for v in range(m))


def sqrt5_leq_oracle(x: int, z: int) -> bool:
    # sqrt(5)*x <= z decided through isqrt; equality only possible at x=0
    if x == 0:
        return z >= 0
    if x > 0:
        return z >= math.isqrt(5 * x * x) + 1
    return z >= -math.isqrt(5 * x * x)


class TestSqrt5Certificates:
    @given(st.integers(-10**8, 10**8), st.integers(-10**8, 10**8))
    def test_leq_matches_oracle(self, x, z):
        assert sqrt5_times_leq(x, z) == sqrt5_leq_oracle(x, z)

    @given(st.integers(-10**8, 10**8), st.integers(-10**8, 10**8))
    def test_geq_is_mirrored(self, x, z):
        assert sqrt5_times_geq(x, z) == sqrt5_leq_oracle(-x, -z)

    def test_boundary_cases(self):
        assert sqrt5_times_leq(0, 0)
        assert sqrt5_times_geq(0, 0)
        assert sqrt5_times_leq(1, 3)      # sqrt5 = 2.236...
        assert not sqrt5_times_leq(1, 2)
        assert sqrt5_times_geq(1, 2)
        assert not sqrt5_times_geq(1, 3)
        assert sqrt5_times_leq(-1, -2)
        assert not sqrt5_times_leq(-1, -3)
