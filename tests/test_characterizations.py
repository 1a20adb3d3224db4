"""Closed forms, mex recursion, discrepancy bounds, spectra, partition words."""
import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wythlab.catalog import ADJUST_SYSTEMS, PARTITION_SYSTEMS
from wythlab.characterizations import (
    CLOSED_FORMS,
    DiscrepancyProfile,
    _closed_form_arrays,
    _bound_verdicts,
    _mex_arrays,
    check_discrepancy,
    closed_form_K1,
    closed_form_K2,
    closed_form_K3,
    closed_form_K4,
    closed_form_mask,
    closed_form_pairs,
    closed_form_table,
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
from wythlab.fibnum import floor_phi, rep_F, sqrt5_times_geq, sqrt5_times_leq
from wythlab.games import PposSequence, kspec, ppos_list, solve, wspec
from wythlab.morphisms import DFAO, eval_dfao_range, fixed_point_prefix, k2_adjust_prefix

PAIR_TABLE_K1 = (
    (0, 1), (2, 4), (3, 6), (5, 9), (7, 12),
    (8, 14), (10, 17), (11, 19), (13, 22), (15, 25),
)


# Per CLOSED_FORMS row, an adjustment oracle that shares no code with the
# row's automaton, and the first index it defines: the mex read-back of the
# lag-1 rows leaves index 0 under no pair.
ADJUST_ORACLES = {
    1: (lambda count: (0,) * count, 0),
    2: (k2_adjust_prefix, 0),
    3: (k3_adjust_prefix_bruteforce, 1),
    4: (k4_adjust_prefix_bruteforce, 1),
}


def mex_reference(ell, count):
    """The recursion by its definition, one pair at a time."""
    used = bytearray(3 * count + 2 * ell + 3)  # b_n <= 3n + 2 ell + 2
    used[: ell + 1] = b"\x01" * (ell + 1)
    a, b = np.zeros(count, np.int64), np.zeros(count, np.int64)
    cand = 0
    for n in range(count):
        while used[cand]:
            cand += 1
        a[n], b[n] = cand, cand + n + ell + 1
        used[a[n]] = used[b[n]] = 1
    return a, b


def python_values(value):
    """True when a counterexample holds only Python ints and strs, in tuples
    at any depth: a numpy integer would print as np.int64(4)."""
    if isinstance(value, tuple):
        return all(map(python_values, value))
    return type(value) in (int, str)


def block_edges(ell, a, b):
    """Counts after which the block computation starts a new block: it takes
    every a up to the last known b, or the single next pair when there is none."""
    edges, n = [], 0
    while n < a.size:
        edges.append(n)
        n = max(n + 1, int(np.searchsorted(a, b[n - 1] if n else ell, "right")))
    return edges


class TestMexSequence:
    @pytest.mark.parametrize("ell", range(13))
    def test_blocks_match_the_definition(self, ell):
        ref = mex_reference(ell, 10**4)
        edges = block_edges(ell, *ref)[:10]
        assert edges[-1] > 30
        for count in {0, 1, 2, 3, 10**4} | {e + d for e in edges[1:] for d in (-1, 0, 1)}:
            for got, want in zip(_mex_arrays(ell, count), ref):
                assert got.dtype == want.dtype
                assert got.tobytes() == want[:count].tobytes(), count

    @pytest.mark.parametrize("ell", range(9))
    def test_long_blocks_match_the_definition(self, ell):
        for got, want in zip(_mex_arrays(ell, 2 * 10**5), mex_reference(ell, 2 * 10**5)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ell", range(13))
    def test_first_pairs_are_set_directly(self, ell):
        # pairs 0..ell are (ell + 1 + n, 2 ell + 2 + 2n); the blocks follow
        ref = mex_reference(ell, ell + 2)
        for count in (ell, ell + 1, ell + 2):
            for got, want in zip(_mex_arrays(ell, count), ref):
                assert got.tobytes() == want[:count].tobytes(), count

    def test_memory_does_not_grow_with_ell(self):
        # values near 2 ell need no array of length ell
        tracemalloc.start()
        try:
            pp = mex_sequence(10**8, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pp.pairs == tuple((10**8 + 1 + n, 2 * 10**8 + 2 + 2 * n) for n in range(5))
        assert peak < 2**20

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

    @pytest.mark.parametrize("fn,what,n", [
        (mex_sequence, "count", 5), (discrepancy_profile, "horizon", 10),
    ])
    def test_negative_ell_rejected(self, fn, what, n):
        with pytest.raises(ValueError,
                           match=f"^ell and {what} must be naturals: -1, {n}$"):
            fn(-1, n)

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

    @pytest.mark.parametrize("form,ell,shift", [
        (k1_remark_pair, 1, 1), (closed_form_K2, 2, 0),
        (closed_form_K3, 3, 2), (closed_form_K4, 4, 2),
    ])
    def test_pair_forms_match_the_table_rows(self, form, ell, shift):
        a, b = _closed_form_arrays(ell, 300 + shift)  # Beatty indices 2..299 + shift
        # indices 0 and 1 give the terminal pairs the forms' docstrings name
        terminal = {1: [(0, 1)], 2: [(0, 1), (0, 2)]}.get(ell, [])
        assert [form(n) for n in range(300)] == terminal + list(zip(a.tolist(), b.tolist()))

    @pytest.mark.parametrize("form,ell", [(closed_form_K3, 3), (closed_form_K4, 4)])
    def test_one_far_pair_stays_small(self, form, ell):
        # evaluating the whole prefix 0..n + 2 took 171 ms and 40 MiB here
        n = 10**6
        a, b = _closed_form_arrays(ell, n + 3)
        tracemalloc.start()
        try:
            got = form(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (int(a[-1]), int(b[-1]))
        assert peak < 2**20

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

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="^negative bound -1$"):
            closed_form_table(kspec(1), -1)
        for bound in (2.0, True):  # refused before any array is sized from it
            with pytest.raises(ValueError, match=f"^bound {bound} is not an integer$"):
                closed_form_table(kspec(1), bound)

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

    @pytest.mark.parametrize("ell", sorted(CLOSED_FORMS))
    def test_row_automaton_matches_an_independent_oracle(self, ell):
        adjust, _, _ = CLOSED_FORMS[ell]
        oracle, first = ADJUST_ORACLES[ell]
        assert isinstance(adjust, DFAO)
        count = 10**4
        got = eval_dfao_range(adjust, count - 1)[first:]
        assert got.tolist() == list(oracle(count)[first:])

    def test_unsupported_ell(self):
        with pytest.raises(ValueError, match="closed forms cover ell 1, 2, 3, 4$"):
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

    @pytest.mark.parametrize("field,at,delta,detail", [
        ("S", 1, 1, "S must vanish through index 3"),
        ("S", 4, 1, "S[4] = 2, expected 1"),
        ("S", 100, 1, "S decreases"),  # S[101] = S[100]
        ("eps", 50, 2, "eps[50] = 3 outside {0,1}"),
        ("eps", 0, -1, "eps[0] != ell - n in the base region"),
        # the last S: S still never decreases, but runs 10 past n/phi
        ("S", 200, 10, "discrepancy bound fails at n=200"),
    ])
    def test_each_failure_names_its_index(self, field, at, delta, detail):
        prof = discrepancy_profile(3, 200)
        doctored = getattr(prof, field).copy()
        doctored[at] += delta
        res = check_discrepancy(dataclasses.replace(prof, **{field: doctored}))
        assert (res.ok, res.detail, res.counterexample) == (False, detail, at)
        assert python_values(res.counterexample)

    def test_the_earlier_listed_failure_decides(self):
        # lam fails at n=10 and eps at n=150: the defect is listed first
        prof = discrepancy_profile(3, 200)
        lam, eps = prof.lam.copy(), prof.eps.copy()
        lam[10], eps[150] = 100, 3
        res = check_discrepancy(dataclasses.replace(prof, lam=lam))
        assert (res.detail, res.counterexample) == (
            "|lam| <= sqrt(5) ell + 2 fails at n=10", 10)
        res = check_discrepancy(dataclasses.replace(prof, lam=lam, eps=eps))
        assert (res.ok, res.detail, res.counterexample) == (
            False, "eps[150] = 3 outside {0,1}", 150)
        assert python_values(res.counterexample)

    def test_sqrt5_certificate_overflow_raises(self):
        # 5 x^2 would wrap in int64 here; the exact answer is False
        assert not sqrt5_times_leq(1_400_000_000, 3_000_000_000)

    @pytest.mark.parametrize("field,detail", [
        ("S", "discrepancy bound fails at n=300"),
        ("lam", "|lam| <= sqrt(5) ell + 2 fails at n=300"),
    ], ids=["S", "lam"])
    def test_out_of_range_profile_raises(self, field, detail):
        # a value too large to square in int64 still gets an exact verdict
        prof = discrepancy_profile(2, 300)
        fields = {"S": prof.S, "lam": prof.lam}
        doctored = fields[field].copy()
        doctored[-1] = 4_000_000_000
        fields[field] = doctored
        bad = DiscrepancyProfile(ell=2, a=prof.a, b=prof.b, eps=prof.eps, **fields)
        res = check_discrepancy(bad)
        assert (res.ok, res.detail, res.counterexample) == (False, detail, 300)

    @pytest.mark.parametrize("ell", range(10))
    def test_bounds_match_scalar_certificates(self, ell):
        # |S - n/phi| <= phi ell is 2S + n - ell <= sqrt5 (n + ell) and
        # 2S + n + ell >= sqrt5 (n - ell); |lam| <= sqrt5 ell + 2 is
        # lam - 2 <= sqrt5 ell and -lam - 2 <= sqrt5 ell: in Python ints
        def s_ok(n, s):
            return (sqrt5_times_geq(n + ell, 2 * s + n - ell)
                    and sqrt5_times_leq(n - ell, 2 * s + n + ell))

        def lam_ok(v):
            return sqrt5_times_geq(ell, v - 2) and sqrt5_times_geq(ell, -v - 2)

        rng = np.random.default_rng(ell)
        info = np.iinfo(np.int64)
        extremes = np.array([info.min, info.max, -2**62, 2**62, -2**62 - 1, 2**62 + 1])
        N = 200
        n = np.arange(N + 1)
        c = int(np.sqrt(5) * ell) + 2
        # values near the bounds, so both verdicts occur, plus int64 extremes
        S = (n * 0.618).astype(np.int64) + rng.integers(-ell - 3, ell + 4, N + 1)
        lam = rng.integers(-c - 3, c + 4, N + 1)
        for arr in (S, lam):
            arr[rng.choice(N + 1, 40, replace=False)] = rng.choice(extremes, 40)
        seen = set()
        # at n = ell the lower bound S + n >= 0 holds with equality
        for S[ell] in (-ell, -ell - 1, rng.choice(extremes)):
            ok_S, ok_lam = _bound_verdicts(ell, S, lam)
            want_S = [s_ok(i, s) for i, s in enumerate(S.tolist())]
            want_lam = [lam_ok(v) for v in lam.tolist()]
            assert ok_S.tolist() == want_S
            assert ok_lam.tolist() == want_lam
            seen |= {("S", v) for v in want_S} | {("lam", v) for v in want_lam}
        assert len(seen) == 4  # both verdicts on both bounds

        # the first failing index through the whole check, on profiles whose
        # other identities hold: S still rises from 1 at index ell + 1; the
        # bound is stated for ell >= 1, so the check refuses an ell 0 profile
        prof = discrepancy_profile(ell, N)
        if ell == 0:
            with pytest.raises(ValueError, match="stated for ell >= 1, not 0"):
                check_discrepancy(prof)
            return
        doctored = [(prof.S, lam)]
        for _ in range(10):
            S, j = prof.S.copy(), rng.integers(ell + 2, N + 1)
            S[j:] += rng.integers(0, 2 * ell + 4)
            doctored.append((S, prof.lam))
        tail = np.sort(np.r_[rng.integers(1, 2**62, N - ell - 4), extremes[1::2]])
        doctored.append((np.r_[prof.S[: ell + 2], tail], prof.lam))
        for S, lam in doctored:
            res = check_discrepancy(dataclasses.replace(prof, S=S, lam=lam))
            bad_S = [i for i, s in enumerate(S.tolist()) if not s_ok(i, s)]
            bad_lam = [i for i, v in enumerate(lam.tolist()) if not lam_ok(v)]
            if bad_S:
                want = (False, f"discrepancy bound fails at n={bad_S[0]}", bad_S[0])
            elif bad_lam:
                want = (False, f"|lam| <= sqrt(5) ell + 2 fails at n={bad_lam[0]}",
                        bad_lam[0])
            else:
                want = (True, f"ell={ell}, all indices through {N}", None)
            assert (res.ok, res.detail, res.counterexample) == want


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

    @given(st.integers(1, 10**15), st.integers(-3, 20), st.integers(1, 10**6),
           st.sampled_from([-1, 1]), st.integers(-2, 2))
    def test_matches_scalar_certificate(self, n, num, den, side, step):
        # a_n next to an end (den n phi +- num n) / den, where both verdicts occur
        a_n = (floor_phi(den * n) + side * num * n) // den + step
        # |a_n/n - phi| <= num/den, times 2 den n: |2 den a_n - den n - sqrt5 den n|
        # <= 2 num n
        want = (sqrt5_times_geq(den * n, 2 * den * a_n - den * n - 2 * num * n)
                and sqrt5_times_leq(den * n, 2 * den * a_n - den * n + 2 * num * n))
        assert density_certificate(a_n, n, num, den) == want


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

    @pytest.mark.parametrize("prefix", [
        [1.5, 2.7, 4.1], ["1", "2", "4"],  # were truncated to (1, 2)
        [True, 2, 3],  # gave (1/2, 3/2)
    ])
    def test_non_integers_are_refused(self, prefix):
        with pytest.raises(ValueError, match="integer values"):
            spectrum_bounds(prefix)

    @pytest.mark.parametrize("prefix", [
        [1, 2, 2**63],  # raised OverflowError
        [-2**63 - 1, 0],
        [-3 * 2**61, 0, 3 * 2**61],  # in int64, but c_2 - c_0 would wrap
    ])
    def test_values_past_int64_are_refused(self, prefix):
        with pytest.raises(ValueError, match="leaves int64"):
            spectrum_bounds(prefix)
        top = 2**63 - 1
        assert spectrum_bounds([0, top]) == (Fraction(top - 1), Fraction(top + 1))
        assert spectrum_bounds(np.array([1, 2, 4])) == spectrum_bounds([1, 2, 4])


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
        assert python_values(res.counterexample)


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

    def test_unsorted_pairs_are_refused(self):
        # the set is K^2's, but searchsorted read the swapped list as
        # pi_A(8) + pi_B(8) = 4 != 5, a false FAIL
        pairs = list(mex_sequence(2, 60).pairs)
        pairs[3], pairs[7] = pairs[7], pairs[3]
        with pytest.raises(ValueError, match="must be strictly increasing"):
            counting_check(PposSequence(2, pairs), 80)

    def test_swapped_values_fail_the_b_identity(self):
        # 4 and 5 change sequences: pi_A + pi_B still counts every value
        a, b = (v.copy() for v in mex_sequence(0, 50).arrays())
        assert (a[2], b[1]) == (4, 5)
        a[2], b[1] = 5, 4
        res = counting_check(PposSequence(0, np.c_[a, b]), 40)
        assert (res.ok, res.detail, res.counterexample) == (
            False, "pi_A(b_1) = 2 != a_1 = 3", 1)
        assert python_values(res.counterexample)

    def test_the_sum_identity_is_listed_first(self):
        # the swap fails the b identity at n=1; moving b_10 from 28 to 29
        # leaves 28 in neither sequence, so the sum identity fails at x=29
        a, b = (v.copy() for v in mex_sequence(0, 50).arrays())
        a[2], b[1] = 5, 4
        b[10] += 1
        res = counting_check(PposSequence(0, np.c_[a, b]), 40)
        assert (res.ok, res.detail, res.counterexample) == (
            False, "pi_A(29) + pi_B(29) = 27 != 28", 29)
        assert python_values(res.counterexample)
