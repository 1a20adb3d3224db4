"""Rule-sets, the retrograde solver, kernel checks, witnesses, caching."""
import functools
import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wythlab.games import (
    _WITNESS_CHUNK,
    _cache_header,
    _option_counts,
    _solve_cached,
    _triangle,
    CacheError,
    CheckResult,
    GameSpec,
    MAX_SOLVE_BOUND,
    PNTable,
    PposSequence,
    ResourceLimitError,
    check_absorbing,
    check_stable,
    kspec,
    non_redundant_witness,
    non_redundant_witnesses,
    option_member_counts,
    options,
    ppos_list,
    read_table_cache,
    solve,
    solve_pairs,
    write_table_cache,
    wspec,
)


def brute_force(spec: GameSpec, bound: int) -> np.ndarray:
    """Independent recursive classifier, small boards only."""

    @functools.lru_cache(maxsize=None)
    def is_p(x, y):
        if spec.variant == "K" and x + y <= spec.ell:
            return True
        p_opts = sum(1 for q in options((x, y)) if is_p(*q))
        if spec.variant == "K":
            return p_opts == 0
        return p_opts <= spec.k - 1

    table = np.zeros((bound + 1, bound + 1), dtype=bool)
    for x in range(bound + 1):
        for y in range(bound + 1):
            table[x, y] = is_p(x, y)
    return table


class TestGameSpec:
    def test_k_requires_ell(self):
        with pytest.raises(ValueError):
            GameSpec("K")
        with pytest.raises(ValueError):
            GameSpec("K", ell=-1)
        with pytest.raises(ValueError):
            GameSpec("K", ell=2, k=2)
        for ell in (2.5, True, np.bool_(True), "2"):  # a float or bool is no ell
            with pytest.raises(ValueError, match="K variant needs ell"):
                kspec(ell)

    def test_w_requires_k(self):
        with pytest.raises(ValueError):
            GameSpec("W")
        with pytest.raises(ValueError):
            GameSpec("W", k=0)
        with pytest.raises(ValueError):
            GameSpec("W", ell=1, k=1)
        for k in (2.0, True, 3.5):
            with pytest.raises(ValueError, match="W variant needs k"):
                wspec(k)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            GameSpec("Z", ell=1)

    def test_helpers_and_labels(self):
        assert kspec(3) == GameSpec("K", ell=3)
        assert wspec(2) == GameSpec("W", k=2)
        assert kspec(3).label() == "K ell=3"
        # numpy integers are stored as ints: one memo entry, one label
        assert kspec(np.int64(2)) == kspec(2) and wspec(np.uint8(3)) == wspec(3)
        assert type(wspec(np.int64(3)).k) is int
        assert solve(wspec(np.int64(3)), 30) is solve(wspec(3), 30)
        assert wspec(2).label() == "W k=2"
        assert kspec(3).terminal_sum == 3
        assert wspec(2).terminal_sum == -1

    def test_need_is_the_n_position_threshold(self):
        assert [kspec(e).need for e in range(4)] == [1, 1, 1, 1]
        assert [wspec(k).need for k in (1, 2, 3)] == [1, 2, 3]


class TestOptions:
    def test_origin_has_none(self):
        assert options((0, 0)) == []

    def test_count_formula(self):
        for x in range(12):
            for y in range(12):
                opts = options((x, y))
                assert len(opts) == x + y + min(x, y)
                assert len(set(opts)) == len(opts)

    def test_geometry(self):
        assert set(options((2, 1))) == {
            (0, 1), (1, 1), (2, 0), (1, 0)
        }

    def test_moves_decrease_sum(self):
        for q in options((5, 7)):
            assert q[0] + q[1] < 12
            assert q[0] >= 0 and q[1] >= 0


class TestSolve:
    @pytest.mark.parametrize("spec", [
        kspec(0), kspec(1), kspec(2), kspec(3),
        wspec(1), wspec(2), wspec(3),
        kspec(5), wspec(4), wspec(5),
        kspec(80),  # the whole box is terminal
        wspec(121),  # k > 3 * 40 options: every cell is P
    ])
    def test_matches_brute_force(self, spec):
        want = brute_force(spec, 40)
        for bound in (0, 1, 12, 13, 40):
            got = solve(spec, bound).ppos
            assert np.array_equal(got, want[: bound + 1, : bound + 1]), bound

    def test_terminal_region_all_p(self):
        t = solve(kspec(4), 30).ppos
        for x in range(5):
            for y in range(5 - x):
                assert t[x, y]

    def test_symmetry(self):
        for spec in (kspec(2), wspec(2)):
            t = solve(spec, 60).ppos
            assert np.array_equal(t, t.T)

    def test_memoized(self):
        assert solve(kspec(1), 50) is solve(kspec(1), 50)

    def test_pairs_read_the_solve_memo(self, monkeypatch):
        table = solve(kspec(3), 300)

        def no_sweep(*args):
            raise AssertionError("solve_pairs swept a box that solve had memoised")

        monkeypatch.setattr("wythlab.games._sweep", no_sweep)
        assert solve_pairs(kspec(3), 300) == list(ppos_list(table).pairs)
        assert solve_pairs(kspec(3), np.int64(300)) == list(ppos_list(table).pairs)

    def test_huge_k_keeps_few_planes(self):
        # no cell of [0,20]^2 has more than 60 options, so with k = 10^9 every
        # cell is P; the sweep keeps 3 * 20 + 1 planes, not k
        _solve_cached.cache_clear()
        tracemalloc.start()
        try:
            table = solve(wspec(10**9), 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.xs.size == 21**2
        assert peak < 2**20

    def test_table_read_only(self):
        t = solve(kspec(1), 40)
        with pytest.raises(ValueError):
            t.ppos[0, 0] = False

    def test_bound_cap(self):
        with pytest.raises(ResourceLimitError):
            solve(kspec(1), MAX_SOLVE_BOUND + 1)
        with pytest.raises(ValueError):
            solve(kspec(1), -1)

    def test_bound_is_read_by_the_spec_rule(self):
        # a numpy integer is the int it holds, in the memo too; a bool or a
        # float is no bound, for every entry point that takes one
        table = solve(kspec(1), np.int64(5))
        assert table is solve(kspec(1), 5) and type(table.bound) is int
        assert solve_pairs(kspec(1), np.int64(30)) == solve_pairs(kspec(1), 30)
        for bound in (True, 2.0):
            for call in (lambda: solve(kspec(1), bound), lambda: solve_pairs(kspec(1), bound),
                         lambda: check_stable([], kspec(1), bound),
                         lambda: check_absorbing(np.zeros((6, 6), bool), kspec(1), bound),
                         lambda: non_redundant_witness(kspec(1), (1, 0), bound),
                         lambda: PNTable.from_cells(kspec(1), bound, [], [])):
                with pytest.raises(ValueError, match=re.escape(f"bound {bound} is not")):
                    call()

    def test_classic_wythoff_pairs(self):
        # terminal (0, 0) is excluded from the listing
        pp = ppos_list(solve(kspec(0), 60))
        assert pp.pairs[:5] == ((1, 2), (3, 5), (4, 7), (6, 10), (8, 13))


class TestPairExtraction:
    def test_ppos_list_excludes_k_terminals(self):
        pp = ppos_list(solve(kspec(1), 60))
        assert pp.pairs[0] == (2, 4)
        assert pp.ell == 1
        assert all(a + b > 1 for a, b in pp.pairs)
        assert all(a <= b for a, b in pp.pairs)

    def test_ppos_list_keeps_w_pairs(self):
        pp = ppos_list(solve(wspec(3), 40))
        assert pp.pairs[0] == (0, 0)
        assert (0, 1) in pp.pairs and (0, 2) in pp.pairs
        assert pp.ell is None

    @pytest.mark.parametrize("spec,bound", [
        (kspec(0), 150), (kspec(3), 150), (wspec(2), 150), (wspec(3), 90),
    ])
    def test_solve_pairs_streams_same_list(self, spec, bound):
        assert tuple(solve_pairs(spec, bound)) == ppos_list(solve(spec, bound)).pairs

    def test_solve_pairs_stays_linear_in_memory(self):
        tracemalloc.start()
        try:
            pairs = solve_pairs(kspec(2), 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 1527
        assert peak < 2 * 2**20

    def test_solve_stays_linear_in_memory(self):
        _solve_cached.cache_clear()  # measure the sweep, not a memo hit
        tracemalloc.start()
        try:
            table = solve(kspec(2), 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.xs.size == 2 * 1527  # both orientations; no terminal cell
        assert peak < 4 * 2**20

    def test_terminal_box_stays_small(self):
        _solve_cached.cache_clear()
        tracemalloc.start()
        try:
            table = solve(kspec(2000), 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.xs.size == 0  # the whole box is terminal: the rule's, not cells
        assert table.ppos.all()
        assert peak < 2**20

    def test_sequence_container(self):
        pp = ppos_list(solve(kspec(1), 60))
        assert len(pp) == len(pp.pairs)
        assert pp[0] == (2, 4)
        a, b = pp.arrays()
        assert a.tolist() == [p[0] for p in pp.pairs]
        assert b.tolist() == [p[1] for p in pp.pairs]
        assert pp[-1] == pp.pairs[-1] and type(pp[-1][0]) is int

    def test_sequence_arrays_read_only(self):
        a, b = ppos_list(solve(kspec(1), 60)).arrays()
        assert a.dtype == b.dtype == np.int64
        for arr in (a, b):
            with pytest.raises(ValueError):
                arr[0] = 9

    def test_sequence_from_arrays_equals_tuples(self):
        pairs = ((2, 4), (3, 6), (5, 9))
        twins = [PposSequence(ell=1, pairs=pairs),
                 PposSequence(1, np.array(pairs)),
                 PposSequence(1, np.array(pairs, dtype=np.int32)),
                 PposSequence(1, [list(p) for p in pairs])]
        assert all(pp == twins[0] and hash(pp) == hash(twins[0]) for pp in twins)
        assert len(set(twins)) == 1
        assert twins[0] != PposSequence(2, pairs)
        assert twins[0] != PposSequence(1, pairs[:2])
        assert twins[0] != pairs

    def test_sequence_copies_its_input(self):
        arr = np.array([[2, 4], [3, 6]])
        pp = PposSequence(1, arr)
        arr[0, 0] = 7
        assert pp.pairs == ((2, 4), (3, 6))

    def test_empty_sequence(self):
        for empty in ((), [], np.zeros((0, 2), dtype=np.int64)):
            pp = PposSequence(ell=2, pairs=empty)
            assert len(pp) == 0 and pp.pairs == ()
            assert [arr.dtype for arr in pp.arrays()] == [np.int64, np.int64]
            assert pp == PposSequence(2, ())
            with pytest.raises(IndexError):
                pp[-1]

    @pytest.mark.parametrize("pairs", [
        (1, 2, 3, 4),                # flat ints, never read as two pairs
        ((1, 2, 3), (4, 5, 6)),      # triples
        ((1, 2), (3,)),              # ragged rows
        [[[1, 2]], [[3, 4]]],        # one level too deep
        [[], []],                    # empty rows
        (("1", "2"),),
        ((1.5, 2),),
        ((2**70, 1),),
    ])
    def test_sequence_rejects_malformed_pairs(self, pairs):
        with pytest.raises(ValueError):
            PposSequence(ell=1, pairs=pairs)

    def test_sequence_refuses_values_past_int64(self):
        # the int64 copy would wrap 2**63 to -2**63
        # numpy reads the three mixed lists as float64, object and object
        for pairs in (((2**63, 2**63 + 5),), np.array([[1, 2**64 - 1]], np.uint64),
                      [(2**63, 1)], [(2**64, 1)], [(1, -2**63 - 1)]):
            with pytest.raises(ValueError, match="outside the int64 range"):
                PposSequence(0, pairs)
        top = 2**63 - 1
        assert PposSequence(0, np.array([[1, top]], np.uint64)).pairs == ((1, top),)

    @pytest.mark.parametrize("pairs", [[(1.5, 2)], [(2**63, 1.5)],
                                       np.array([[True, 2]], object), [(True, 2)],
                                       [(1, "2")], np.array([[1.7, 2.9]])])
    def test_non_integer_pair_is_refused(self, pairs):
        # refused by the value's own type, never cast: a bool is not read as 1
        name = r"expected integer pairs, got \w+ .*(1\.[57]|True|'2')"
        xs, ys = zip(*pairs)
        for read in (lambda: PposSequence(0, pairs),
                     lambda: check_stable(pairs, kspec(0), 5),
                     lambda: check_absorbing(pairs, kspec(0), 5),
                     lambda: PNTable.from_cells(kspec(0), 10, xs, ys),
                     lambda: PNTable.from_pairs(kspec(0), 10, xs, ys),
                     lambda: PNTable.from_cells(kspec(0), 10, np.array(xs), np.array(ys))):
            with pytest.raises(ValueError, match=name):
                read()

    def test_numpy_integer_pairs_are_read(self):
        pairs = [(np.int64(1), np.uint8(2)), (3, np.int32(5))]
        assert PposSequence(0, pairs).pairs == ((1, 2), (3, 5))
        table = PNTable.from_pairs(kspec(0), 6, *zip(*pairs))
        assert table.xs.tolist() == [1, 2, 3, 5] and table.ys.tolist() == [2, 1, 5, 3]
        assert PNTable.from_cells(kspec(0), 6, np.array([1, 3]), np.array([2, 5], np.uint8)
                                  ).xs.tolist() == [1, 3]
        for check in (check_stable, check_absorbing):
            assert check(pairs + [(2, 1), (5, 3)], kspec(0), 6) == check(table, kspec(0), 6)

    def test_from_cells_refuses_a_bound_past_the_int64_keys(self):
        # a diagonal key reaches 2B(B + 1) + B, which fits int64 up to B = 2**31 - 1;
        # past it the key x(B + 1) + y of (3e9 + 5, 1) wrapped and the cell was lost
        with pytest.raises(ValueError, match="past 2,147,483,647"):
            PNTable.from_cells(wspec(1), 4 * 10**9, [3 * 10**9 + 5, 1], [3 * 10**9, 2])
        with pytest.raises(ValueError, match="past 2,147,483,647"):
            PNTable.from_cells(kspec(1), 2**31, [], [])
        top = 2**31 - 1
        t = PNTable.from_cells(wspec(1), top, [top, 1, top], [top - 3, 2, 5])
        assert t.xs.tolist() == [1, top, top] and t.ys.tolist() == [2, 5, top - 3]

    @pytest.mark.parametrize("spec", [kspec(e) for e in range(7)]
                             + [wspec(k) for k in (1, 2, 3)] + [kspec(50)])
    @pytest.mark.parametrize("bound", [0, 1, 2, 13, 40])
    def test_from_pairs_inverts_ppos_list(self, spec, bound):
        table = solve(spec, bound)
        back = PNTable.from_pairs(spec, bound, *ppos_list(table).arrays())
        assert back.spec == spec and back.bound == bound
        assert np.array_equal(back.xs, table.xs)
        assert np.array_equal(back.ys, table.ys)
        for t in (table, back):  # row-major, each cell once
            assert np.all(np.diff(t.xs * (bound + 1) + t.ys) > 0)


class TestOptionCounts:
    def test_against_direct_count(self):
        rng = np.random.default_rng(7)
        for size in (1, 2, 25, 26):
            for density in (0.3, 0.9, 1.0):  # 1.0: every cell a member
                mask = rng.random((size, size)) < density
                cnt = option_member_counts(mask)
                for x in range(size):
                    for y in range(size):
                        want = sum(1 for q in options((x, y)) if mask[q])
                        assert cnt[x, y] == want, (size, density, x, y)

    def test_empty_mask(self):
        for size in (0, 5):
            cnt = option_member_counts(np.zeros((size, size), bool))
            assert cnt.shape == (size, size) and not cnt.any()

    @pytest.mark.parametrize("bound", [10**6, 2**31 - 1])
    def test_counts_hold_no_bound_sized_array(self, bound):
        # three cells in a huge box: each count holds memory for its cells,
        # where per-line start arrays of 2 * (bound + 1) entries took 107 MiB
        # at 10^6 and raised MemoryError at 2^31 - 1
        table = PNTable.from_cells(wspec(1), bound, [bound, 1, bound], [bound - 3, 2, 5])
        tracemalloc.start()
        try:
            counts = _option_counts(table, table.xs, table.ys)
            stable = check_stable(table, wspec(2), bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # row-major (1, 2), (bound, 5), (bound, bound - 3): the last sees one on its row
        assert counts.tolist() == [0, 0, 1]
        assert stable.ok  # W^2 allows each member one member option
        assert peak < 2**20

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4,), (2, 2, 2)])
    def test_non_square_mask_is_refused(self, shape):
        # a 3x5 mask holding (0, 0) once gave 0 at (0, 3) and (0, 4)
        mask = np.zeros(shape, bool)
        mask[(0,) * mask.ndim] = True
        with pytest.raises(ValueError, match="expected a square mask"):
            option_member_counts(mask)

    @pytest.mark.parametrize("mask", [np.full((4, 4), 0.5), np.eye(4, dtype=int)])
    def test_mask_of_numbers_is_refused(self, mask):
        # nonzero would count each 0.5 as a member
        with pytest.raises(ValueError, match=f"got {mask.dtype} "):
            option_member_counts(mask)


class TestKernelChecks:
    @pytest.mark.parametrize("spec,bound", [
        (kspec(0), 120), (kspec(2), 120), (wspec(2), 120), (wspec(3), 120),
    ])
    def test_solver_output_is_kernel(self, spec, bound):
        t = solve(spec, bound)
        assert check_stable(t, spec, bound).ok
        assert check_absorbing(t, spec, bound).ok

    def test_added_member_breaks_stability(self):
        spec = kspec(1)
        mask = solve(spec, 80).ppos.copy()
        assert not mask[10, 10]
        mask[10, 10] = True
        res = check_stable(mask, spec, 80)
        assert not res.ok
        src, target = res.counterexample
        assert mask[src] and mask[target]
        assert not check_absorbing(mask, spec, 80).ok or True  # may still absorb

    def test_removed_member_breaks_absorption(self):
        spec = kspec(1)
        mask = solve(spec, 80).ppos.copy()
        assert mask[2, 4]
        mask[2, 4] = False
        res = check_absorbing(mask, spec, 80)
        assert not res.ok
        assert res.counterexample == (2, 4)

    def test_w_member_with_too_many_options(self):
        spec = wspec(2)
        mask = solve(spec, 80).ppos.copy()
        flat = np.flatnonzero(~mask)
        x, y = divmod(int(flat[len(flat) // 2]), 81)
        mask[x, y] = True
        res = check_stable(mask, spec, 80)
        assert not res.ok
        src, targets = res.counterexample
        assert len(targets) == 2
        assert all(mask[t] for t in targets)

    def test_w_removed_member_breaks_absorption(self):
        spec = wspec(3)
        mask = solve(spec, 80).ppos.copy()
        mask[1, 3] = False
        res = check_absorbing(mask, spec, 80)
        assert not res.ok

    def test_terminal_cells_are_the_rules(self):
        # the rule makes x + y <= ell P, so a candidate's cells there are not
        # read: one missing, all missing or extra ones get the table's verdicts
        spec, bound = kspec(2), 50
        table = solve(spec, bound)
        want = [check(table, spec, bound) for check in (check_stable, check_absorbing)]
        missing, blank = table.ppos.copy(), table.ppos.copy()
        missing[0, 2] = False
        blank[:3, :3] = False
        extra = [(2, 0), (0, 0), (1, 1), (0, 0), (1, 0)] + list(
            zip(table.xs.tolist(), table.ys.tolist()))
        wide = PNTable.from_cells(wspec(1), bound, *np.nonzero(table.ppos))
        assert wide.xs.size == table.xs.size + 6  # W^1 keeps the six as cells
        for candidate in (missing, blank, extra, wide):
            got = [check(candidate, spec, bound) for check in (check_stable, check_absorbing)]
            assert got == want == [CheckResult(True, f"stable on [0,{bound}]^2"),
                                   CheckResult(True, f"absorbing on [0,{bound}]^2")]

    def test_stability_report_names_a_terminal_option(self):
        # a member's first member option in options() order may be terminal
        spec = kspec(4)
        mask = solve(spec, 10).ppos.copy()
        mask[2, 5] = True
        for candidate in (mask, [(2, 5), (5, 10), (10, 5)]):
            assert check_stable(candidate, spec, 10) == CheckResult(
                False, "member (2, 5) moves to member (2, 0)", ((2, 5), (2, 0)))

    def test_candidate_forms_agree(self):
        spec = wspec(3)
        bound = 50
        table = solve(spec, bound)
        mask = table.ppos
        from_pairs = [
            (x, y)
            for x in range(bound + 1)
            for y in range(bound + 1)
            if mask[x, y]
        ]
        for candidate in (table, solve(spec, bound + 10), mask, from_pairs):
            assert check_stable(candidate, spec, bound).ok
            assert check_absorbing(candidate, spec, bound).ok
        # a table stands for its whole set, its own terminal triangle included,
        # whatever the checked spec: it, its mask, the mask's cells and a table
        # of a larger box get one result, verdict, detail and counterexample
        for table_spec in (kspec(0), kspec(3), kspec(40), wspec(1), wspec(3)):
            for spec in (kspec(0), kspec(2), wspec(1), wspec(3)):
                for bound in (0, 1, 7, 30):
                    table = solve(table_spec, bound)
                    cells = np.argwhere(table.ppos).tolist()
                    for check in (check_stable, check_absorbing):
                        want = check(table.ppos, spec, bound)
                        for candidate in (table, cells, solve(table_spec, bound + 5)):
                            got = check(candidate, spec, bound)
                            assert got == want, (table_spec, spec, bound, check)

    @pytest.mark.parametrize("spec", [kspec(0), kspec(2), wspec(1), wspec(3)])
    def test_mask_layouts_agree(self, spec):
        # a mask's cells are its first bound + 1 rows, read row-major whatever
        # its shape or memory order; cells past the box are not read
        rng = np.random.default_rng(spec.ell if spec.ell is not None else 10 + spec.k)
        bound, n = 40, 41
        failed = set()
        for flips in (0, 1, 3):
            box = solve(spec, bound).ppos.copy()
            box[rng.integers(0, n, flips), rng.integers(0, n, flips)] ^= True
            wide = rng.random((n, 2 * bound + 3)) < 0.3
            wide[:, :n] = box
            tall = rng.random((2 * bound + 3, n)) < 0.3
            tall[:n] = box
            big = rng.random((2 * n, 2 * n)) < 0.3
            big[::2, ::2] = box
            forms = {"wide": wide, "tall": tall, "fortran": np.asfortranarray(box),
                     "strided": big[::2, ::2], "pairs": np.argwhere(box).tolist()}
            assert wide.flags.c_contiguous and not big[::2, ::2].flags.contiguous
            for check in (check_stable, check_absorbing):
                want = check(box, spec, bound)
                failed.add(want.ok)
                for name, candidate in forms.items():
                    assert check(candidate, spec, bound) == want, (flips, check, name)
        assert failed == {True, False}  # both verdicts occur

    def test_wide_mask_rows_are_not_copied(self):
        # the first bound + 1 rows of a C-ordered mask are a view that one flat
        # scan reads in place; a flat scan of a rows-and-columns slice would
        # copy its 4 MB first
        bound = 2000
        mask = np.zeros((bound + 1, 2 * bound + 1), dtype=bool)
        mask[:, : bound + 1] = solve(kspec(2), bound).ppos
        mask[::97, bound + 1 :: 89] = True  # cells past the box's columns
        for check in (check_stable, check_absorbing):
            want = check(mask[:, : bound + 1].copy(), kspec(2), bound)
            tracemalloc.start()
            try:
                got = check(mask, kspec(2), bound)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == want and got.ok
            assert peak < 2**20, check

    def test_predicate_candidate_is_refused(self):
        # a predicate is not a candidate form; a mask or pairs stand for it
        for check in (check_stable, check_absorbing):
            with pytest.raises(TypeError, match="'function' object is not iterable"):
                check(lambda x, y: x == y, kspec(1), 5)

    def test_flat_candidate_is_refused(self):
        # a flat list is not read as the cells (1, 2) and (3, 4)
        for check in (check_stable, check_absorbing):
            with pytest.raises(ValueError, match="expected integer pairs"):
                check([1, 2, 3, 4], kspec(1), 5)
            with pytest.raises(ValueError, match="expected integer pairs"):
                check([(1, 2, 3)], kspec(1), 5)
        assert check_stable([], kspec(1), 5) == check_stable(np.zeros((6, 6), bool),
                                                            kspec(1), 5)

    def test_candidate_too_small(self):
        with pytest.raises(ValueError):
            check_stable(np.zeros((10, 10), bool), kspec(1), 20)
        with pytest.raises(ValueError):
            check_stable(solve(kspec(1), 20), kspec(1), 21)

    def test_cells_are_distinct_in_box_and_ordered(self):
        xs, ys = [3, 0, 3, 1, 5, -1, 2], [0, 2, 0, 1, 0, 1, 4]  # a repeat, two outside
        t = PNTable.from_cells(kspec(1), 4, xs, ys)
        assert t.xs.tolist() == [0, 1, 2, 3] and t.ys.tolist() == [2, 1, 4, 0]
        with pytest.raises(ValueError):
            t.xs[0] = 1

    def test_result_truthiness(self):
        assert CheckResult(True)
        assert not CheckResult(False, "no")

    def test_negative_bound(self):
        t = solve(kspec(1), 20)
        for bound in (-1, -3):
            for check in (check_stable, check_absorbing):
                with pytest.raises(ValueError, match="negative bound"):
                    check(t, kspec(1), bound)

    @pytest.mark.parametrize("shape", [(3, 3, 3), (3,), ()])
    def test_mask_that_is_not_2d_is_refused(self, shape):
        for check in (check_stable, check_absorbing):
            with pytest.raises(ValueError, match=re.escape(f"candidate {shape}")):
                check(np.zeros(shape, bool), kspec(1), 2)

    @pytest.mark.parametrize("mask,name", [(np.full((6, 6), 0.5), "float 0.5"),
                                           (np.ones((6, 6), int), "int64 (6, 6)")])
    def test_mask_of_numbers_is_refused(self, mask, name):
        # only a boolean mask is a mask; a float one is not read as its nonzero
        # cells, and an int one is not (n, 2) pairs
        for check in (check_stable, check_absorbing):
            with pytest.raises(ValueError, match=re.escape(f"expected integer pairs, got {name}")):
                check(mask, kspec(1), 5)


def scan_over_options(mask, spec: GameSpec, bound: int, stable: bool):
    """Row-major scan that counts member options with options() directly;
    the terminal triangle, P by the rule, counts as members."""
    limit = spec.k - 1 if spec.variant == "W" else 0

    def member(q):
        return mask[q] or sum(q) <= spec.terminal_sum

    for x in range(bound + 1):
        for y in range(bound + 1):
            p = (x, y)
            members = [q for q in options(p) if member(q)]
            rule_p = x + y <= spec.terminal_sum or len(members) <= limit
            if stable and member(p) and not rule_p:
                if spec.variant == "K":
                    return CheckResult(
                        False, f"member {p} moves to member {members[0]}",
                        (p, members[0]))
                return CheckResult(
                    False,
                    f"member {p} has {len(members)} member options (max {limit})",
                    (p, tuple(members[:spec.k])))
            if not stable and not member(p) and rule_p:
                return CheckResult(
                    False,
                    f"non-member {p} has {len(members)} member options "
                    f"(needs {limit + 1})",
                    p)
    verdict = "stable" if stable else "absorbing"
    return CheckResult(True, f"{verdict} on [0,{bound}]^2")


class TestKernelChecksAgainstOptions:
    @pytest.mark.parametrize("spec", [
        kspec(0), kspec(1), kspec(2), kspec(3), kspec(4),
        wspec(1), wspec(2), wspec(3), wspec(4), wspec(5), kspec(8), kspec(40),
    ])
    @pytest.mark.parametrize("bound", [0, 1, 2, 29])
    def test_verdicts_match_scan(self, spec, bound):
        rng = np.random.default_rng(bound)
        table = solve(spec, bound).ppos
        candidates = [table]
        for flips in (1, 2, 1, 2):
            mask = table.copy()
            for _ in range(flips):
                x, y = rng.integers(0, bound + 1, size=2)
                mask[x, y] = not mask[x, y]
            candidates.append(mask)
        for density in (0.05, 0.3, 0.9, 1.0):
            candidates.append(rng.random(table.shape) < density)
        for mask in candidates:
            assert check_stable(mask, spec, bound) == scan_over_options(
                mask, spec, bound, stable=True)
            assert check_absorbing(mask, spec, bound) == scan_over_options(
                mask, spec, bound, stable=False)

    @pytest.mark.parametrize("spec", [kspec(2), wspec(3)], ids=GameSpec.label)
    def test_stability_never_sweeps_the_box(self, spec, monkeypatch):
        bound = 40
        table = solve(spec, bound)
        mask = table.ppos.copy()
        flipped = mask.copy()
        flipped[7, 12] = not flipped[7, 12]

        def no_sweep(spec, bound, given=None):
            raise AssertionError("check_stable swept the box")

        monkeypatch.setattr("wythlab.games._sweep", no_sweep)
        for candidate, scan_mask in ((table, mask), (mask, mask), (flipped, flipped)):
            assert check_stable(candidate, spec, bound) == scan_over_options(
                scan_mask, spec, bound, stable=True)
        assert not check_stable(flipped, spec, bound).ok

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_absorption_count_spans_row_column_and_diagonal(self, k):
        # every cell is a member but the lines of v = (8, 20) and the cells
        # after it; k - 1 members on those lines, the diagonal's first, then
        # the row's and the column's, leave v the first violator, since each
        # earlier non-member keeps at least 7 member options
        spec, bound, (x0, y0) = wspec(k), 30, (8, 20)
        mask = np.ones((bound + 1, bound + 1), bool)
        mask[x0, :] = mask[x0 + 1 :, :] = mask[:x0, y0] = False
        for t in range(1, x0 + 1):
            mask[x0 - t, y0 - t] = False
        for cell in [(x0 - 5, y0 - 5), (x0, 3), (2, y0), (x0, 11), (6, y0)][: k - 1]:
            mask[cell] = True
        want = CheckResult(False, f"non-member {(x0, y0)} has {k - 1} member options "
                           f"(needs {k})", (x0, y0))
        assert scan_over_options(mask, spec, bound, stable=False) == want
        table = PNTable.from_cells(spec, bound, *np.nonzero(mask))
        for candidate in (table, mask, np.argwhere(mask).tolist()):
            assert check_absorbing(candidate, spec, bound) == want

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_absorption_count_reads_a_terminal_row(self, ell):
        # checked as W^k, a K^ell table's triangle cells are members like any
        # other, so the first violator lies in a row x <= ell and its count
        # holds triangle cells; checked as K^ell, every cell of such a row has
        # the terminal (x, 0) as an option, so even the empty candidate is
        # absorbed there and its first violator lies past row ell
        bound = 30
        table = solve(kspec(ell), bound)
        for k in (2, 3, 4):
            want = scan_over_options(table.ppos, wspec(k), bound, stable=False)
            assert not want.ok and want.counterexample[0] <= ell
            assert f" has {k - 1} member options" in want.detail
            for candidate in (table, table.ppos, np.argwhere(table.ppos).tolist()):
                assert check_absorbing(candidate, wspec(k), bound) == want
        empty = np.zeros_like(table.ppos)
        want = scan_over_options(empty, kspec(ell), bound, stable=False)
        assert not want.ok and want.counterexample[0] > ell
        for candidate in (empty, []):
            assert check_absorbing(candidate, kspec(ell), bound) == want

    @pytest.mark.parametrize("spec", [kspec(2), wspec(3)], ids=GameSpec.label)
    def test_absorption_never_counts_by_line_keys(self, spec, monkeypatch):
        # the sweep gives the violator's count; no _option_counts call, so no
        # line keys of the candidate
        bound = 40
        table = solve(spec, bound)
        flipped = table.ppos.copy()
        flipped[table.xs[9], table.ys[9]] = False  # a removed member

        def no_count(table, x, y):
            raise AssertionError("check_absorbing counted by line keys")

        monkeypatch.setattr("wythlab.games._option_counts", no_count)
        for mask in (table.ppos, flipped):
            want = scan_over_options(mask, spec, bound, stable=False)
            for candidate in (PNTable.from_cells(spec, bound, *np.nonzero(mask)),
                              mask, np.argwhere(mask).tolist()):
                assert check_absorbing(candidate, spec, bound) == want
        assert not check_absorbing(flipped, spec, bound).ok

    @pytest.mark.parametrize("bound", [20, 40])
    def test_terminal_cells_are_never_counted(self, bound, monkeypatch):
        # every cell of [0,20]^2 is terminal; at bound 40 the witness search
        # counts (39, 2), the move (0, 2) from the terminal target (39, 0)
        spec, sums = kspec(40), []

        def spy(table, x, y):
            sums.extend((x + y).tolist())
            return _option_counts(table, x, y)

        monkeypatch.setattr("wythlab.games._option_counts", spy)
        assert check_stable(solve(spec, bound), spec, bound).ok
        for move in ((1, 0), (0, 2), (3, 3)):
            non_redundant_witness(spec, move, bound)
        assert all(s > spec.terminal_sum for s in sums)
        assert bool(sums) == (bound == 40)

    @pytest.mark.parametrize("spec,want", [
        (kspec(0), ((0, 1), (0, 0))),
        (wspec(3), ((0, 3), ((0, 0), (0, 1), (0, 2)))),
    ], ids=["K0", "W3"])
    def test_violator_report_reads_only_its_lines(self, spec, want):
        # the all-ones box: the report lists the first violator's member
        # options without a set of all 10^6 cells
        mask = np.ones((1001, 1001), bool)
        tracemalloc.start()
        try:
            res = check_stable(mask, spec, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (res.ok, res.counterexample) == (False, want)
        assert peak < 120 * 2**20

    @pytest.mark.parametrize("spec,xs,ys,want", [
        (wspec(1), [10**6, 1, 10**6], [10**6 - 3, 2, 5], ((10**6, 10**6 - 3), ((10**6, 5),))),
        (kspec(2), [10**6], [1], ((10**6, 1), (0, 1))),  # a terminal member option
    ], ids=["W1", "K2"])
    def test_violator_far_from_the_origin_reads_its_lines(self, spec, xs, ys, want):
        # a report that listed options(src) held 3 * 10^6 tuples: 313 MiB
        table = PNTable.from_cells(spec, 10**6, xs, ys)
        tracemalloc.start()
        try:
            res = check_stable(table, spec, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (res.ok, res.counterexample) == (False, want)
        assert peak < 2**20

    @pytest.mark.parametrize("spec", [kspec(e) for e in range(5)]
                             + [wspec(k) for k in range(1, 6)], ids=GameSpec.label)
    def test_flip_past_the_diagonal_cut_matches_counts(self, spec):
        # the sweep cuts its diagonal planes to the box every 64 rows; one
        # flipped cell in a later row must give the row-major first
        # non-member that the rule calls P by a count that never sweeps
        bound = 200
        table = solve(spec, bound)
        non_terminal = np.indices((bound + 1, bound + 1)).sum(axis=0) > spec.terminal_sum
        rule_p = ~non_terminal | (option_member_counts(table.ppos) < spec.need)
        assert np.array_equal(table.ppos, rule_p)  # the solve is the rule's fixed point
        assert check_absorbing(table, spec, bound).ok
        for x in {int(table.xs[table.xs > 64][0]), int(table.xs[table.xs > 128][0]),
                  int(table.xs[-1])}:  # rows that hold a P-cell
            row = table.ys[table.xs == x].tolist()
            added = next(y for y in range(bound + 1) if y not in row)
            for y in (row[0], added):  # a removal, then an addition
                mask = table.ppos.copy()
                mask[x, y] = not mask[x, y]
                lacks = ~mask & non_terminal & (option_member_counts(mask) < spec.need)
                cells = np.argwhere(lacks)  # row-major
                want = tuple(cells[0].tolist()) if len(cells) else None
                res = check_absorbing(mask, spec, bound)
                assert (res.ok, res.counterexample) == (want is None, want)

    def test_checkers_stay_linear_in_memory(self):
        spec, bound = kspec(2), 2000
        table = solve(spec, bound)
        tracemalloc.start()
        try:
            assert check_stable(table, spec, bound).ok
            assert check_absorbing(table, spec, bound).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


WITNESS_SPECS = [kspec(e) for e in range(5)] + [wspec(k) for k in (1, 2, 3)]
MOVES_90 = [m for i in range(1, 31) for m in ((i, 0), (0, i), (i, i))]


def assert_row_major_first_witnesses(spec):
    want = 1 if spec.variant == "K" else spec.k
    moves = [m for i in range(1, 13) for m in ((i, 0), (0, i), (i, i))]
    for bound in range(41):
        table = solve(spec, bound).ppos
        needs = ~table & (option_member_counts(table) == want)
        n, firsts = bound + 1, []
        for dx, dy in moves:
            first = None
            if dx <= bound and dy <= bound:
                hits = np.argwhere(needs[dx:, dy:] & table[: n - dx, : n - dy])
                if hits.size:
                    first = int(hits[0, 0]) + dx, int(hits[0, 1]) + dy
            assert non_redundant_witness(spec, (dx, dy), bound) == first, (bound, (dx, dy))
            firsts.append(first)
        assert non_redundant_witnesses(spec, moves, bound) == firsts, bound


def assert_90_witnesses_match_brute_force(spec):
    # the row-major first non-member with exactly spec.need P-options,
    # one of them reached by the move, counted over options() one by one
    bound = 60
    cells = set(zip(*np.nonzero(solve(spec, bound).ppos)))
    box = [(x, y) for x in range(bound + 1) for y in range(bound + 1)]
    needs = [p for p in box if p not in cells
             and sum(q in cells for q in options(p)) == spec.need]
    firsts = []
    for dx, dy in MOVES_90:
        first = next(((x, y) for x, y in needs if (x - dx, y - dy) in cells), None)
        assert first is not None
        assert non_redundant_witness(spec, (dx, dy), bound) == first, (dx, dy)
        firsts.append(first)
    assert non_redundant_witnesses(spec, MOVES_90, bound) == firsts


class TestWitnesses:
    def test_move_validation(self):
        for bad in ((0, 0), (1, 2), (-1, 0), (0, -2), (2, 3), (1.5, 0), (True, 0), (2, 2.0)):
            with pytest.raises(ValueError):
                non_redundant_witness(kspec(1), bad, 50)

    @pytest.mark.parametrize("spec,want", [(kspec(1), 1), (wspec(2), 2)])
    def test_witness_semantics(self, spec, want):
        bound = 120
        table = solve(spec, bound).ppos
        cnt = option_member_counts(table)
        for move in ((1, 0), (0, 3), (2, 2)):
            w = non_redundant_witness(spec, move, bound)
            assert w is not None
            x, y = w
            assert not table[x, y]
            assert cnt[x, y] == want
            assert table[x - move[0], y - move[1]]

    @pytest.mark.parametrize("spec", WITNESS_SPECS, ids=GameSpec.label)
    def test_witness_is_row_major_first(self, spec):
        assert_row_major_first_witnesses(spec)

    @pytest.mark.parametrize("spec", [kspec(2), wspec(3)], ids=GameSpec.label)
    def test_all_90_witnesses_match_brute_force(self, spec):
        assert_90_witnesses_match_brute_force(spec)

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_chunk_boundaries_keep_the_first_witness(self, chunk, monkeypatch):
        monkeypatch.setattr("wythlab.games._WITNESS_CHUNK", chunk)
        for spec in WITNESS_SPECS:
            assert_row_major_first_witnesses(spec)
        for spec in (kspec(2), wspec(3)):
            assert_90_witnesses_match_brute_force(spec)
        # K^1 on [0,6]^2, move (0, 3): the candidates start with the terminal
        # targets (0, 3), (0, 4), (1, 3), and only the third is a witness, so
        # it lies past the first chunk
        assert non_redundant_witness(kspec(1), (0, 3), 6) == (1, 3)
        assert non_redundant_witness(kspec(1), (3, 0), 6) == (3, 1)

    def test_work_does_not_grow_with_the_bound(self, monkeypatch):
        counted = []

        def spy(table, x, y):
            counted.append(x.size)
            return _option_counts(table, x, y)

        monkeypatch.setattr("wythlab.games._option_counts", spy)
        assert all(non_redundant_witness(kspec(1), m, 6476) for m in MOVES_90)
        assert sum(counted) < 90 * (_WITNESS_CHUNK + 4)

    def test_batch_counts_once_a_round(self, monkeypatch):
        # one count a chunk round for all the moves still open, not one a move
        counted = []

        def spy(table, x, y):
            counted.append(x.size)
            return _option_counts(table, x, y)

        monkeypatch.setattr("wythlab.games._option_counts", spy)
        assert all(non_redundant_witnesses(kspec(1), MOVES_90, 6476))
        assert len(counted) <= 3
        assert sum(counted) < 90 * (_WITNESS_CHUNK + 4)

    def test_witness_stays_linear_in_memory(self):
        tracemalloc.start()
        try:
            witness = non_redundant_witness(kspec(2), (1, 0), 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert witness is not None
        assert peak < 4 * 2**20

    def test_batch_stays_linear_in_memory(self):
        _solve_cached.cache_clear()  # the peak holds the solve too
        tracemalloc.start()
        try:
            witnesses = non_redundant_witnesses(kspec(2), MOVES_90, 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert None not in witnesses
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("spec", [kspec(2), wspec(3)], ids=GameSpec.label)
    def test_batch_answers_in_the_order_given(self, spec):
        # out of order, repeated, a numpy integer, and moves longer than the box
        # (a count of 2**70 would overflow int64) among moves that have witnesses
        bound = 40
        moves = [(30, 30), (1, 0), (45, 0), (0, 3), (1, 0), (12, 12), (0, 41),
                 (np.int64(2), 0), (0, 3), (2**70, 0), (0, 2**70), (5, 5)]
        want = [non_redundant_witness(spec, m, bound) for m in moves]
        assert non_redundant_witnesses(spec, moves, bound) == want
        assert want[2] is want[6] is want[9] is want[10] is None
        assert want[1] == want[4] and want[3] == want[8] and None not in want[:2]

    def test_batch_solves_nothing_it_does_not_need(self, monkeypatch):
        def no_solve(spec, bound):
            raise AssertionError("solved")

        monkeypatch.setattr("wythlab.games.solve", no_solve)
        assert non_redundant_witnesses(kspec(1), [], 50) == []
        assert non_redundant_witnesses(kspec(1), [(2**70, 0), (0, 51)], 50) == [None, None]
        assert non_redundant_witness(kspec(1), (2**70, 2**70), 50) is None
        # every move is checked before the one solve; the first bad one is named
        for moves, bad in [([(1, 0), (1, 2), (0, 0)], r"\(1, 2\)"),
                           ([(2**70, 0), (True, 0)], r"\(True, 0\)"),
                           ([(3, 3), (2, 2.0)], r"\(2, 2.0\)")]:
            with pytest.raises(ValueError, match=f"^move {bad} is not of Wythoff shape$"):
                non_redundant_witnesses(kspec(1), moves, 50)

    def test_unreachable_move_returns_none(self):
        # bound 2 is too small for any witness of a length-30 slide
        assert non_redundant_witness(kspec(1), (30, 0), 2) is None

    def test_move_longer_than_bound_returns_none(self):
        for move in ((25, 0), (0, 21), (30, 30)):
            assert non_redundant_witness(kspec(1), move, 20) is None

    def test_negative_bound(self):
        for move in ((1, 0), (0, 3), (2, 2)):
            with pytest.raises(ValueError, match="negative bound"):
                non_redundant_witness(kspec(1), move, -1)
        for moves in ([], [(1, 0), (0, 3)]):
            with pytest.raises(ValueError, match="^negative bound -1$"):
                non_redundant_witnesses(kspec(1), moves, -1)


class TestTerminalTriangle:
    @pytest.mark.parametrize("spec", [wspec(2), kspec(0), kspec(3), kspec(9), kspec(17),
                                      kspec(10**30)])
    @pytest.mark.parametrize("bound", [0, 1, 8])
    def test_triangle_lists_the_capped_cells_row_major(self, spec, bound):
        xs, ys = _triangle(spec, bound)
        want = [(x, y) for x in range(bound + 1) for y in range(bound + 1)
                if x + y <= spec.terminal_sum]
        assert list(zip(xs.tolist(), ys.tolist())) == want
        assert xs.dtype == ys.dtype == np.int64

    def test_larger_triangle_of_a_candidate_is_listed_not_masked(self):
        # K^3's ten terminal cells against W^1, which has none: the check reads
        # those cells, never a (B + 1)^2 mask of the candidate's box
        candidate = PNTable.from_cells(kspec(3), 20000, [], [])
        tracemalloc.start()
        try:
            res = check_stable(candidate, wspec(1), 20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (res.ok, res.counterexample) == (False, ((0, 1), ((0, 0),)))
        assert peak < 2**20

    @pytest.mark.parametrize("spec,bound", [(kspec(2000), 1000), (kspec(1500), 1000),
                                            (kspec(4), 1000), (wspec(3), 300)])
    def test_ppos_writes_the_triangle_by_rows(self, spec, bound):
        # the triangle is written a row slice at a time, so the read holds
        # the mask and the cells, not a list of the triangle's cells
        table = solve(spec, bound)
        tracemalloc.start()
        try:
            got = table.ppos
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        r = np.arange(bound + 1)
        want = np.add.outer(r, r) <= spec.terminal_sum
        want[table.xs, table.ys] = True
        assert np.array_equal(got, want)
        assert peak < 2 * 2**20

    def test_huge_ell_holds_no_cell(self):
        # K^(10^9) makes all of [0,2000]^2 terminal; the rule keeps that as
        # one integer, so neither the solve, the checks nor the witness
        # search holds a cell of it
        spec, bound = kspec(10**9), 2000
        _solve_cached.cache_clear()
        runs = {
            "solve": lambda: solve(spec, bound).xs.size == 0,
            "stable": lambda: check_stable(solve(spec, bound), spec, bound).ok,
            "absorbing": lambda: check_absorbing(solve(spec, bound), spec, bound).ok,
            "witnesses": lambda: all(non_redundant_witness(spec, m, bound) is None
                                     for m in MOVES_90),
        }
        for name, run in runs.items():
            tracemalloc.start()
            try:
                assert run(), name
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20, name

    @pytest.mark.parametrize("ell", [2**63 - 1, 10**30])
    @pytest.mark.parametrize("bound", [0, 1, 12])
    def test_ell_past_the_box_acts_as_the_whole_box(self, ell, bound):
        # every ell >= 2 * bound makes the whole box terminal, so ell reaches
        # numpy capped at 2 * bound: 10^30 used to raise OverflowError, and
        # at 2^63 - 1 the counts' ell + 1 - x would wrap
        spec, same = kspec(ell), kspec(2 * bound + 1)
        got, want = solve(spec, bound), solve(same, bound)
        assert got.xs.size == want.xs.size == 0
        assert got.ppos.all() and got.ppos.shape == (bound + 1, bound + 1)
        for keys, keys2 in zip(got._line_keys, want._line_keys, strict=True):
            assert np.array_equal(keys, keys2)
        x, y = np.indices((bound + 1, bound + 1)).reshape(2, -1)
        assert np.array_equal(_option_counts(got, x, y), _option_counts(want, x, y))
        ones, pairs = np.ones((bound + 1, bound + 1), bool), [(bound, bound)]
        for candidate in (got, want, ones, pairs):
            for check in (check_stable, check_absorbing):
                assert check(candidate, spec, bound) == check(candidate, same, bound)
                assert check(candidate, spec, bound).ok
        for move in MOVES_90[:6]:
            assert non_redundant_witness(spec, move, bound) is None
            assert non_redundant_witness(same, move, bound) is None


class TestCache:
    def test_round_trip(self, tmp_path):
        tables = [solve(spec, bound) for spec in [kspec(e) for e in range(5)]
                  + [wspec(k) for k in (1, 2, 3)] for bound in (0, 1, 7, 40, 300)]
        tables.append(PNTable.from_cells(kspec(1), 6, [0, 5, 2], [3, 1, 6]))
        for t in tables:
            path = fresh(tmp_path / "table.pn")
            write_table_cache(t, path)
            back = read_table_cache(path)
            assert back.spec == t.spec and back.bound == t.bound, (t.spec, t.bound)
            assert np.array_equal(back.xs, t.xs) and np.array_equal(back.ys, t.ys)
            assert back.xs.dtype == back.ys.dtype == np.int64
            assert path.stat().st_size == HEAD_LEN + 8 * t.xs.size + 32

    def test_round_trip_keeps_orientation(self, tmp_path):
        t = PNTable.from_cells(kspec(1), 6, [0, 5, 2], [3, 1, 6])
        path = tmp_path / "table.pn"
        write_table_cache(t, path)
        back = read_table_cache(path)
        assert back.xs.tolist() == [0, 2, 5] and back.ys.tolist() == [3, 6, 1]

    def test_checksum_detects_corruption(self, tmp_path):
        t = solve(kspec(1), 30)
        path = tmp_path / "table.pn"
        write_table_cache(t, path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheError):
            read_table_cache(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "table.pn"
        path.write_bytes(b"WYPN\x01")
        with pytest.raises(CacheError):
            read_table_cache(path)

    def test_versions_1_and_2_are_refused(self, tmp_path):
        # versions 1 and 2 held the (B + 1)^2-bit box, msb first; version 1
        # also set the terminal bits.  Neither reads: the file is written again.
        t = solve(kspec(2), 20)
        cells = np.zeros((21, 21), bool)
        cells[t.xs, t.ys] = True
        for version, box in ((1, t.ppos), (2, cells), (4, cells)):
            body = (b"WYPN" + struct.pack("<BcII", version, b"K", 2, 20)
                    + np.packbits(box).tobytes())
            path = fresh(tmp_path / "table.pn")
            path.write_bytes(resealed(body + bytes(32)))
            with pytest.raises(CacheError, match=f"cache version {version} is not 3; "
                                                 "write it again"):
                read_table_cache(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "table.pn"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CacheError):
            read_table_cache(path)

    @pytest.mark.parametrize("spec,bound", [(wspec(10**10), 5), (kspec(2**32), 3),
                                            (kspec(1), 2**32)])
    def test_header_field_past_uint32(self, tmp_path, spec, bound):
        with pytest.raises(ValueError, match="up to 4,294,967,295"):
            _cache_header(spec, bound)
        if bound <= 2**31 - 1:  # a PNTable holds no larger bound
            path = tmp_path / "table.pn"
            with pytest.raises(ValueError, match="up to 4,294,967,295"):
                write_table_cache(PNTable.from_cells(spec, bound, [], []), path)
            assert not path.exists()
        path = tmp_path / "largest.pn"
        t = PNTable.from_cells(kspec(2**32 - 1), 3, [0], [0])  # the largest that fits
        write_table_cache(t, path)
        assert read_table_cache(path).spec == t.spec

    def test_reloaded_table_read_only(self, tmp_path):
        t = solve(kspec(1), 20)
        path = tmp_path / "table.pn"
        write_table_cache(t, path)
        back = read_table_cache(path)
        with pytest.raises(ValueError):
            back.ppos[0, 0] = False
        with pytest.raises(ValueError):
            back.xs[0] = 0

    def test_no_box_sized_buffer(self, tmp_path):
        # the file is 8 bytes per listed cell, where the (B+1)^2-bit box of
        # versions 1 and 2 took 1,125,797 bytes at this bound; reading goes
        # through from_cells, at some 60 bytes per cell
        t = solve(kspec(2), 3000)
        path = tmp_path / "table.pn"
        tracemalloc.start()
        try:
            write_table_cache(t, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = read_table_cache(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size == HEAD_LEN + 8 * t.xs.size + 32 == 18_366
        assert write_peak < 16 * size
        assert read_peak < 16 * size
        assert np.array_equal(back.xs, t.xs) and np.array_equal(back.ys, t.ys)


def resealed(blob: bytes) -> bytes:
    """The cache file blob with its sha256 trailer recomputed."""
    body = blob[:-32]
    return body + hashlib.sha256(body).digest()


def fresh(path):
    """path with any old file removed: rewriting in place is slow on some filesystems."""
    path.unlink(missing_ok=True)
    return path


def cache_blob(tmp_path) -> bytes:
    path = fresh(tmp_path / "valid.pn")
    write_table_cache(solve(kspec(1), 20), path)
    return path.read_bytes()


def read_blob(tmp_path, blob: bytes):
    """read_table_cache on blob, with the tracemalloc peak of the read."""
    path = fresh(tmp_path / "crafted.pn")
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        try:
            return read_table_cache(path), tracemalloc.get_traced_memory()[1]
        except CacheError:
            return None, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def with_cells(cells) -> bytes:
    """cache_blob's header with the given (x, y) cells as its payload, resealed."""
    return resealed(b"WYPN" + struct.pack("<BcII", 3, b"K", 1, 20)
                    + np.array(cells, "<u4").tobytes() + bytes(32))


# Header: magic (4 bytes), version, variant, param (uint32), bound (uint32).
VERSION_AT, VARIANT_AT, PARAM_AT, BOUND_AT, HEAD_LEN = 4, 5, 6, 10, 14


class TestCacheHeaders:
    @pytest.mark.parametrize("variant,param", [
        (b"Z", 1), (b"\xff", 1), (b"k", 1), (b"W", 0),
    ])
    def test_bad_rule_set_with_valid_checksum(self, tmp_path, variant, param):
        blob = bytearray(cache_blob(tmp_path))
        blob[VARIANT_AT:VARIANT_AT + 1] = variant
        blob[PARAM_AT:PARAM_AT + 4] = struct.pack("<I", param)
        path = fresh(tmp_path / "crafted.pn")
        path.write_bytes(resealed(bytes(blob)))
        with pytest.raises(CacheError, match="bad rule-set"):
            read_table_cache(path)

    @pytest.mark.parametrize("bound", [5, 21, 20000, 2**32 - 1])
    def test_oversized_bound_allocates_nothing(self, tmp_path, bound):
        # a larger box holds the same cells; a bound below a listed cell is
        # refused, and so is one past what a PNTable holds
        blob = bytearray(cache_blob(tmp_path))
        blob[BOUND_AT:BOUND_AT + 4] = struct.pack("<I", bound)
        table, peak = read_blob(tmp_path, resealed(bytes(blob)))
        if bound in (5, 2**32 - 1):
            assert table is None
        else:
            want = solve(kspec(1), 20)
            assert table.bound == bound
            assert np.array_equal(table.xs, want.xs) and np.array_equal(table.ys, want.ys)
        assert peak < 2**16

    def test_half_pair_is_refused(self, tmp_path):
        for cut in (4, 1, 7):
            blob = bytearray(cache_blob(tmp_path))
            del blob[-32 - cut : -32]
            path = fresh(tmp_path / "crafted.pn")
            path.write_bytes(resealed(bytes(blob)))
            with pytest.raises(CacheError, match="is not whole"):
                read_table_cache(path)

    @pytest.mark.parametrize("cells", [
        [(1, 2), (21, 0)], [(1, 2), (0, 21)], [(1, 2), (2**32 - 1, 5)],  # outside the box
        [(0, 1), (1, 2)], [(1, 0), (1, 2)], [(0, 0)],                    # terminal
        [(1, 2), (1, 2)], [(1, 2), (2, 1), (1, 2)],                      # repeated
        [(2, 1), (1, 2)], [(1, 5), (1, 2)],                              # out of row-major order
    ])
    def test_non_canonical_cells_are_refused(self, tmp_path, cells):
        # from_cells would drop, dedupe or sort these, so the file is not a table's
        want = solve(kspec(1), 20)
        assert with_cells(np.c_[want.xs, want.ys]) == cache_blob(tmp_path)
        path = fresh(tmp_path / "crafted.pn")
        path.write_bytes(with_cells(cells))
        with pytest.raises(CacheError, match="not distinct, non-terminal, row-major"):
            read_table_cache(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mutated_files_raise_only_cache_error(self, tmp_path, data):
        blob = bytearray(cache_blob(tmp_path))
        kind = data.draw(st.sampled_from(["flip", "truncate", "bound"]))
        if kind == "flip":
            bits = st.one_of(st.integers(0, 8 * BOUND_AT + 31),  # the header
                             st.integers(0, 8 * len(blob) - 1))
            for at in data.draw(st.lists(bits, min_size=1, max_size=4)):
                blob[at // 8] ^= 1 << (at % 8)
        elif kind == "truncate":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        else:
            blob[BOUND_AT:BOUND_AT + 4] = struct.pack(
                "<I", data.draw(st.integers(0, 2**32 - 1)))
        if len(blob) >= 32 and data.draw(st.booleans()):
            blob = resealed(bytes(blob))
        table, peak = read_blob(tmp_path, bytes(blob))
        if table is not None:
            assert table.spec.variant.encode() == blob[VARIANT_AT:VARIANT_AT + 1]
            assert table.bound == struct.unpack("<I", blob[BOUND_AT:BOUND_AT + 4])[0]
            assert 8 * table.xs.size == len(blob) - HEAD_LEN - 32  # every cell is kept
            x, y = table.xs, table.ys
            assert np.all((0 <= x) & (x <= table.bound) & (0 <= y) & (y <= table.bound))
            assert np.all(x + y > table.spec.terminal_sum)
            assert np.all(np.diff(x * (table.bound + 1) + y) > 0)
        assert peak < 2**16
