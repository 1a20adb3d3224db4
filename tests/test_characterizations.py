"""Closed forms, mex recursion, discrepancy bounds, spectra, partition words."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wythlab.catalog import ADJUST_SYSTEMS, PARTITION_SYSTEMS
from wythlab.characterizations import (
    DiscrepancyProfile,
    _sqrt5_leq_vec,
    check_discrepancy,
    closed_form_K1,
    closed_form_K2,
    closed_form_K3,
    closed_form_K4,
    closed_form_mask,
    closed_form_pairs,
    counting_check,
    density_certificate,
    discrepancy_profile,
    k1_closed_form_mask,
    k1_remark_pair,
    k2_closed_form_mask,
    k3_adjust_prefix_bruteforce,
    k4_adjust_prefix_bruteforce,
    mex_sequence,
    morphic_coding_check,
    ppos_W2,
    ppos_W3,
    spectrum_bounds,
    w2_closed_form_mask,
    w3_closed_form_mask,
)
from wythlab.fibnum import rep_F, sqrt5_times_leq
from wythlab.games import PposSequence, kspec, ppos_list, solve, wspec
from wythlab.morphisms import fixed_point_prefix

PAIR_TABLE_K1 = (
    (0, 1), (2, 4), (3, 6), (5, 9), (7, 12),
    (8, 14), (10, 17), (11, 19), (13, 22), (15, 25),
)


class TestMexSequence:
    def test_small_prefixes(self):
        assert mex_sequence(1, 4).pairs == ((2, 4), (3, 6), (5, 9), (7, 12))
        assert mex_sequence(3, 5).pairs == (
            (4, 8), (5, 10), (6, 12), (7, 14), (9, 17)
        )
        assert mex_sequence(0, 3).pairs == ((1, 2), (3, 5), (4, 7))

    @pytest.mark.parametrize("ell", range(7))
    def test_invariants(self, ell):
        pp = mex_sequence(ell, 400)
        a, b = pp.arrays()
        n = np.arange(400)
        assert np.array_equal(b - a, n + ell + 1)
        assert set(np.diff(a).tolist()) <= {1, 2}
        assert set(np.diff(b).tolist()) <= {2, 3}
        # a and b partition the naturals above the terminal block
        merged = np.concatenate([a, b])
        merged.sort()
        top = int(a[-1])     # safe horizon: every smaller value has appeared
        covered = merged[merged <= top]
        assert np.array_equal(covered, np.arange(ell + 1, top + 1))

    def test_first_pair(self):
        for ell in range(6):
            assert mex_sequence(ell, 1).pairs == ((ell + 1, 2 * ell + 2),)

    def test_empty(self):
        assert mex_sequence(2, 0).pairs == ()

    def test_long_sequence_stays_compact(self):
        # two int64 values per pair; Python int tuples took 38 MiB here
        tracemalloc.start()
        try:
            pp = mex_sequence(2, 250000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pp) == 250000 and pp[0] == (3, 6)
        assert peak < 12 * 2**20


class TestClosedFormK1:
    def test_membership_examples(self):
        assert closed_form_K1(0, 0)
        assert closed_form_K1(0, 1)
        assert closed_form_K1(2, 4)
        assert closed_form_K1(3, 6)
        assert not closed_form_K1(2, 3)
        assert not closed_form_K1(4, 6)

    def test_requires_sorted_pair(self):
        with pytest.raises(ValueError):
            closed_form_K1(4, 2)

    def test_remark_pairs_match_table(self):
        assert tuple(k1_remark_pair(n) for n in range(10)) == PAIR_TABLE_K1

    def test_table_representations(self):
        reps_a = ("", "10", "100", "1000", "1010",
                  "10000", "10010", "10100", "100000", "100010")
        reps_b = ("1", "101", "1001", "10001", "10101",
                  "100001", "100101", "101001", "1000001", "1000101")
        for (a, b), ra, rb in zip(PAIR_TABLE_K1, reps_a, reps_b):
            assert rep_F(a) == ra
            assert rep_F(b) == rb

    def test_mask_equals_predicate(self):
        bound = 150
        mask = k1_closed_form_mask(bound)
        for x in range(bound + 1):
            for y in range(x, bound + 1):
                assert mask[x, y] == closed_form_K1(x, y), (x, y)
        assert np.array_equal(mask, mask.T)

    def test_mask_equals_solver(self):
        assert np.array_equal(k1_closed_form_mask(300), solve(kspec(1), 300).ppos)


class TestClosedFormK2ToK4:
    def test_k3_k4_point_values(self):
        assert closed_form_K3(16) == (29, 49)
        assert closed_form_K4(5) == (11, 21)

    def test_k2_terminal_indices(self):
        assert closed_form_K2(0) == (0, 1)
        assert closed_form_K2(1) == (0, 2)

    @pytest.mark.parametrize("form,n", [
        (k1_remark_pair, -1), (closed_form_K2, -1), (closed_form_K3, -1),
        (closed_form_K3, -2), (closed_form_K4, -1), (closed_form_K4, -5),
    ])
    def test_negative_index_rejected(self, form, n):
        with pytest.raises(ValueError, match=rf"index {n}$"):
            form(n)

    @pytest.mark.parametrize("ell", [1, 4])
    def test_negative_count_rejected(self, ell):
        with pytest.raises(ValueError, match=r"count -1$"):
            closed_form_pairs(ell, -1)

    def test_k2_mask_equals_solver(self):
        assert np.array_equal(k2_closed_form_mask(300), solve(kspec(2), 300).ppos)

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_pairs_match_solver(self, ell):
        bound = 400
        want = ppos_list(solve(kspec(ell), bound)).pairs
        got = closed_form_pairs(ell, len(want)).pairs
        assert got == want

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_pairs_match_mex_recursion(self, ell):
        assert closed_form_pairs(ell, 3000).pairs == mex_sequence(ell, 3000).pairs

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_masks_match_solver_at_small_bounds(self, ell):
        # below bound ell the box cuts the terminal triangle
        for bound in range(9):
            assert np.array_equal(closed_form_mask(ell, bound),
                                  solve(kspec(ell), bound).ppos), bound

    def test_unsupported_ell(self):
        with pytest.raises(ValueError):
            closed_form_pairs(5, 10)
        for ell in (0, 5):
            with pytest.raises(ValueError):
                closed_form_mask(ell, 10)

    @pytest.mark.parametrize("ell,brute", [
        (3, k3_adjust_prefix_bruteforce),
        (4, k4_adjust_prefix_bruteforce),
    ])
    def test_bruteforce_adjustments_match_catalog(self, ell, brute):
        morphism, coding = ADJUST_SYSTEMS[ell]
        want = tuple(coding.map(fixed_point_prefix(morphism, 0, 300)))
        assert brute(300) == want

    def test_bruteforce_empty(self):
        assert k3_adjust_prefix_bruteforce(0) == ()
        assert k4_adjust_prefix_bruteforce(0) == ()


class TestBlockingFamilies:
    def test_w2_points(self):
        assert ppos_W2(0, 0)
        assert ppos_W2(6, 4)          # even-even family, n = 1
        assert ppos_W2(1, 3)          # doubling family
        assert ppos_W2(3, 1)
        assert not ppos_W2(1, 1)
        assert not ppos_W2(6, 6)

    def test_w2_inversion_is_exact(self):
        # perturbing either even coordinate by 2 must leave the family
        upto = 60
        from wythlab.fibnum import floor_phi, floor_phi2
        for n in range(1, upto):
            u = 2 * floor_phi(n) + 2
            v = 2 * floor_phi2(n) + 2
            assert ppos_W2(u, v)
            assert not ppos_W2(u + 2, v) or (u + 2, v) == (v, u) or any(
                2 * floor_phi(m) + 2 == u + 2 and 2 * floor_phi2(m) + 2 == v
                for m in range(n + 2)
            )
            assert not ppos_W2(u, v + 2) or any(
                2 * floor_phi(m) + 2 == u and 2 * floor_phi2(m) + 2 == v + 2
                for m in range(n + 2)
            )

    def test_w3_points(self):
        assert ppos_W3(0, 0)
        assert ppos_W3(7, 3)
        assert ppos_W3(3, 8)
        assert not ppos_W3(3, 9)
        assert not ppos_W3(5, 5)

    def test_negative_coordinates(self):
        with pytest.raises(ValueError):
            ppos_W2(-1, 3)
        with pytest.raises(ValueError):
            ppos_W3(2, -4)

    @pytest.mark.parametrize("mask_fn,pred", [
        (w2_closed_form_mask, ppos_W2),
        (w3_closed_form_mask, ppos_W3),
    ])
    def test_masks_equal_predicates(self, mask_fn, pred):
        bound = 120
        mask = mask_fn(bound)
        for x in range(bound + 1):
            for y in range(bound + 1):
                assert mask[x, y] == pred(x, y), (x, y)

    def test_masks_equal_solver(self):
        assert np.array_equal(w2_closed_form_mask(200), solve(wspec(2), 200).ppos)
        assert np.array_equal(w3_closed_form_mask(200), solve(wspec(3), 200).ppos)


class TestDiscrepancy:
    def test_profile_base_values(self):
        prof = discrepancy_profile(2, 50)
        assert prof.S[:3].tolist() == [0, 0, 0]
        assert prof.S[3] == 1

    def test_s_is_strictly_below_count(self):
        prof = discrepancy_profile(2, 80)
        for n in range(81):
            want = sum(1 for v in prof.b if v < prof.a[n])
            assert prof.S[n] == want

    def test_s_closed_form(self):
        for ell in (1, 3):
            prof = discrepancy_profile(ell, 200)
            n = np.arange(201)
            assert np.array_equal(prof.S, prof.a - n - ell - 1)

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_check_passes(self, ell):
        res = check_discrepancy(discrepancy_profile(ell, 5000))
        assert res.ok, res.detail

    def test_base_region_defect(self):
        prof = discrepancy_profile(4, 100)
        assert prof.eps[:3].tolist() == [4, 3, 2]

    def test_doctored_profile_fails(self):
        prof = discrepancy_profile(2, 300)
        S = prof.S.copy()
        S[100] += 40
        bad = DiscrepancyProfile(ell=2, a=prof.a, b=prof.b, S=S,
                                 eps=prof.eps, lam=prof.lam)
        assert not check_discrepancy(bad).ok
        lam = prof.lam.copy()
        lam[50] = 100
        bad = DiscrepancyProfile(ell=2, a=prof.a, b=prof.b, S=prof.S,
                                 eps=prof.eps, lam=lam)
        res = check_discrepancy(bad)
        assert not res.ok
        assert res.counterexample == 50

    def test_sqrt5_certificate_overflow_raises(self):
        # 5 x^2 wraps in int64 here; the exact answer is False
        assert not sqrt5_times_leq(1_400_000_000, 3_000_000_000)
        with pytest.raises(ValueError):
            _sqrt5_leq_vec(np.array([1_400_000_000]), np.array([3_000_000_000]))

    @pytest.mark.parametrize("field", ["S", "lam"])
    def test_out_of_range_profile_raises(self, field):
        prof = discrepancy_profile(2, 300)
        fields = {"S": prof.S, "lam": prof.lam}
        doctored = fields[field].copy()
        doctored[-1] = 4_000_000_000
        fields[field] = doctored
        bad = DiscrepancyProfile(ell=2, a=prof.a, b=prof.b, eps=prof.eps, **fields)
        with pytest.raises(ValueError):
            check_discrepancy(bad)


class TestDensity:
    def test_accepts_true_bound(self):
        prof = discrepancy_profile(3, 1000)
        assert density_certificate(int(prof.a[1000]), 1000, 1, 50)

    def test_rejects_false_bound(self):
        assert not density_certificate(1000, 1000, 1, 100)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            density_certificate(5, 0, 1, 10)
        with pytest.raises(ValueError):
            density_certificate(5, 3, 1, 0)


class TestSpectrum:
    def brute(self, c):
        lower = max(
            Fraction(c[k] - c[k - i] - 1, i)
            for i in range(1, len(c))
            for k in range(i, len(c))
        )
        upper = min(
            Fraction(c[k] - c[k - i] + 1, i)
            for i in range(1, len(c))
            for k in range(i, len(c))
        )
        return lower, upper

    @pytest.mark.parametrize("ell,want", [
        (2, (Fraction(5, 3), Fraction(3, 2))),
        (3, (Fraction(7, 4), Fraction(4, 3))),
        (4, (Fraction(9, 5), Fraction(5, 4))),
    ])
    def test_a_sequence_values(self, ell, want):
        a, _ = mex_sequence(ell, 200).arrays()
        assert spectrum_bounds(a.tolist()) == want

    def test_arithmetic_progressions(self):
        assert spectrum_bounds([0, 2]) == (Fraction(1), Fraction(3))
        for L in (3, 8, 20):
            seq = [2 * n for n in range(L)]
            want = (Fraction(2) - Fraction(1, L - 1),
                    Fraction(2) + Fraction(1, L - 1))
            assert spectrum_bounds(seq) == want

    def test_matches_double_loop(self):
        a, _ = mex_sequence(2, 40).arrays()
        assert spectrum_bounds(a.tolist()) == self.brute(a.tolist())

    def test_errors(self):
        with pytest.raises(ValueError):
            spectrum_bounds([5])
        with pytest.raises(ValueError):
            spectrum_bounds([1, 1, 2])
        with pytest.raises(ValueError):
            spectrum_bounds([3, 2])


class TestPartitionWords:
    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_systems_match_pairs(self, ell):
        part = PARTITION_SYSTEMS[ell]
        horizon = 600
        pp = mex_sequence(ell, 500)     # reaches well past the horizon
        res = morphic_coding_check(part.morphism, part.coding, part.offset,
                                   pp, horizon)
        assert res.ok, res.detail

    def test_offset_is_first_nonterminal(self):
        for ell, part in PARTITION_SYSTEMS.items():
            assert part.offset == ell + 1

    def test_truncated_pairs_raise(self):
        part = PARTITION_SYSTEMS[1]
        pp = mex_sequence(1, 10)
        with pytest.raises(ValueError):
            morphic_coding_check(part.morphism, part.coding, part.offset,
                                 pp, 600)

    def test_horizon_below_offset(self):
        part = PARTITION_SYSTEMS[2]
        with pytest.raises(ValueError):
            morphic_coding_check(part.morphism, part.coding, part.offset,
                                 mex_sequence(2, 10), 1)

    def test_wrong_coding_reports_value(self):
        from wythlab.morphisms import Coding
        part = PARTITION_SYSTEMS[0]
        flipped = Coding(tuple("b" if v == "a" else "a"
                               for v in part.coding.outputs))
        pp = mex_sequence(0, 100)
        res = morphic_coding_check(part.morphism, flipped, part.offset, pp, 80)
        assert not res.ok
        value, got, want = res.counterexample
        assert value == part.offset
        assert got != want

    def test_value_claimed_by_both_sequences_fails(self):
        part = PARTITION_SYSTEMS[0]
        pairs = list(mex_sequence(0, 10).pairs)   # (1,2) (3,5) (4,7) (6,10) ...
        pp = PposSequence(0, pairs)
        assert morphic_coding_check(part.morphism, part.coding, part.offset, pp, 6)
        pairs[2] = (4, 6)   # 6 is a_3 too; 7, now unclaimed, is past the horizon
        res = morphic_coding_check(part.morphism, part.coding, part.offset,
                                   PposSequence(0, pairs), 6)
        assert not res.ok
        assert res.counterexample == (6, "a", "ab")
        assert res.detail == "value 6: word says 'a', pairs say 'ab'"


class TestCounting:
    def test_point_example(self):
        # for ell=2 and x=7: three a-values and one b-value lie below
        pp = mex_sequence(2, 50)
        a, b = pp.arrays()
        assert int(np.searchsorted(a, 7)) == 3
        assert int(np.searchsorted(b, 7)) == 1
        assert counting_check(pp, 40).ok

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_identities_hold(self, ell):
        pp = mex_sequence(ell, 1300)
        assert counting_check(pp, 2000).ok

    def test_horizon_too_short(self):
        with pytest.raises(ValueError):
            counting_check(mex_sequence(2, 10), 2000)

    def test_w_sequences_rejected(self):
        pp = ppos_list(solve(wspec(2), 100))
        with pytest.raises(ValueError):
            counting_check(pp, 50)

    def test_doctored_pairs_fail(self):
        from wythlab.games import PposSequence
        pp = mex_sequence(2, 200)
        pairs = list(pp.pairs)
        a, b = pairs[40]
        assert b < 150        # the perturbation must sit below the horizon
        pairs[40] = (a, b + 1)
        doctored = PposSequence(ell=2, pairs=tuple(pairs))
        assert not counting_check(doctored, 150).ok
