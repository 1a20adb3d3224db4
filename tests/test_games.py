"""Rule-sets, the retrograde solver, kernel checks, witnesses, caching."""
import functools
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wythlab.games import (
    _solve_cached,
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

    def test_w_requires_k(self):
        with pytest.raises(ValueError):
            GameSpec("W")
        with pytest.raises(ValueError):
            GameSpec("W", k=0)
        with pytest.raises(ValueError):
            GameSpec("W", ell=1, k=1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            GameSpec("Z", ell=1)

    def test_helpers_and_labels(self):
        assert kspec(3) == GameSpec("K", ell=3)
        assert wspec(2) == GameSpec("W", k=2)
        assert kspec(3).label() == "K ell=3"
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
    ])
    def test_matches_brute_force(self, spec):
        # odd and even bounds read different parity arrays of the sweep
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

    def test_table_read_only(self):
        t = solve(kspec(1), 40)
        with pytest.raises(ValueError):
            t.ppos[0, 0] = False

    def test_bound_cap(self):
        with pytest.raises(ResourceLimitError):
            solve(kspec(1), MAX_SOLVE_BOUND + 1)
        with pytest.raises(ValueError):
            solve(kspec(1), -1)

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

    def test_ppos_list_spec_mismatch(self):
        t = solve(kspec(1), 30)
        with pytest.raises(ValueError):
            ppos_list(t, kspec(2))

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
        assert table.xs.size == 2 * 1527 + 6  # both orientations, 6 terminals
        assert peak < 4 * 2**20

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

    @pytest.mark.parametrize("spec", [kspec(e) for e in range(7)]
                             + [wspec(k) for k in (1, 2, 3)])
    @pytest.mark.parametrize("bound", [0, 1, 2, 13, 40])
    def test_from_pairs_inverts_ppos_list(self, spec, bound):
        table = solve(spec, bound)
        back = PNTable.from_pairs(spec, bound, *ppos_list(table).arrays())
        assert back.spec == spec and back.bound == bound
        assert np.array_equal(back.xs, table.xs)
        assert np.array_equal(back.ys, table.ys)


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
        assert option_member_counts(np.zeros((5, 5), bool)).sum() == 0


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

    def test_excluded_terminal_reported(self):
        spec = kspec(2)
        mask = solve(spec, 50).ppos.copy()
        mask[0, 2] = False     # terminal position, has no moves at all
        res = check_absorbing(mask, spec, 50)
        assert not res.ok
        assert res.counterexample == (0, 2)

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
        for candidate in (table, mask, from_pairs,
                          lambda x, y: bool(mask[x, y])):
            assert check_stable(candidate, spec, bound).ok
            assert check_absorbing(candidate, spec, bound).ok

    def test_candidate_too_small(self):
        with pytest.raises(ValueError):
            check_stable(np.zeros((10, 10), bool), kspec(1), 20)
        with pytest.raises(ValueError):
            check_stable(solve(kspec(1), 20), kspec(1), 21)

    def test_cells_are_distinct_in_box_and_ordered(self):
        xs, ys = [3, 0, 3, 1, 5, -1, 2], [0, 2, 0, 1, 0, 1, 4]  # a repeat, two outside
        t = PNTable.from_cells(kspec(1), 4, xs, ys)
        assert t.xs.tolist() == [0, 1, 3, 2] and t.ys.tolist() == [2, 1, 0, 4]
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


def scan_over_options(mask, spec: GameSpec, bound: int, stable: bool):
    """Row-major scan that counts member options with options() directly."""
    limit = spec.k - 1 if spec.variant == "W" else 0
    for x in range(bound + 1):
        for y in range(bound + 1):
            p = (x, y)
            members = [q for q in options(p) if mask[q]]
            rule_p = x + y <= spec.terminal_sum or len(members) <= limit
            if stable and mask[p] and not rule_p:
                if spec.variant == "K":
                    return CheckResult(
                        False, f"member {p} moves to member {members[0]}",
                        (p, members[0]))
                return CheckResult(
                    False,
                    f"member {p} has {len(members)} member options (max {limit})",
                    (p, tuple(members[:spec.k])))
            if not stable and not mask[p] and rule_p:
                return CheckResult(
                    False,
                    f"non-member {p} has {len(members)} member options "
                    f"(needs {limit + 1})",
                    p)
    verdict = "stable" if stable else "absorbing"
    return CheckResult(True, f"{verdict} on [0,{bound}]^2")


class TestKernelChecksAgainstOptions:
    @pytest.mark.parametrize("spec", [
        kspec(0), kspec(1), kspec(2), wspec(2), wspec(3),
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
        for density in (0.05, 0.3):
            candidates.append(rng.random(table.shape) < density)
        for mask in candidates:
            assert check_stable(mask, spec, bound) == scan_over_options(
                mask, spec, bound, stable=True)
            assert check_absorbing(mask, spec, bound) == scan_over_options(
                mask, spec, bound, stable=False)

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


class TestWitnesses:
    def test_move_validation(self):
        for bad in ((0, 0), (1, 2), (-1, 0), (0, -2), (2, 3)):
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

    @pytest.mark.parametrize("spec", [kspec(e) for e in range(5)]
                             + [wspec(k) for k in (1, 2, 3)], ids=GameSpec.label)
    def test_witness_is_row_major_first(self, spec):
        want = 1 if spec.variant == "K" else spec.k
        moves = [m for i in range(1, 13) for m in ((i, 0), (0, i), (i, i))]
        for bound in range(41):
            table = solve(spec, bound).ppos
            needs = ~table & (option_member_counts(table) == want)
            n = bound + 1
            for dx, dy in moves:
                got = non_redundant_witness(spec, (dx, dy), bound)
                if dx > bound or dy > bound:
                    assert got is None
                    continue
                hits = np.argwhere(needs[dx:, dy:] & table[: n - dx, : n - dy])
                first = (int(hits[0, 0]) + dx, int(hits[0, 1]) + dy) if hits.size else None
                assert got == first, (bound, (dx, dy))

    def test_witness_stays_linear_in_memory(self):
        tracemalloc.start()
        try:
            witness = non_redundant_witness(kspec(2), (1, 0), 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert witness is not None
        assert peak < 4 * 2**20

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


class TestCache:
    def test_round_trip(self, tmp_path):
        for spec in (kspec(2), wspec(3)):
            t = solve(spec, 37)
            path = tmp_path / "table.pn"
            write_table_cache(t, path)
            back = read_table_cache(path)
            assert back.spec == spec
            assert back.bound == 37
            assert np.array_equal(back.ppos, t.ppos)

    def test_round_trip_keeps_orientation(self, tmp_path):
        t = PNTable.from_cells(kspec(1), 6, [0, 5, 2], [0, 1, 6])
        path = tmp_path / "table.pn"
        write_table_cache(t, path)
        back = read_table_cache(path)
        assert back.xs.tolist() == [0, 5, 2] and back.ys.tolist() == [0, 1, 6]

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

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "table.pn"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CacheError):
            read_table_cache(path)

    def test_reloaded_table_read_only(self, tmp_path):
        t = solve(kspec(1), 20)
        path = tmp_path / "table.pn"
        write_table_cache(t, path)
        back = read_table_cache(path)
        with pytest.raises(ValueError):
            back.ppos[0, 0] = False


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


# Header: magic (4 bytes), version, variant, param (uint32), bound (uint32).
VARIANT_AT, PARAM_AT, BOUND_AT = 5, 6, 10


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

    @pytest.mark.parametrize("bound", [21, 20000, 2**32 - 1])
    def test_oversized_bound_allocates_nothing(self, tmp_path, bound):
        blob = bytearray(cache_blob(tmp_path))
        blob[BOUND_AT:BOUND_AT + 4] = struct.pack("<I", bound)
        table, peak = read_blob(tmp_path, resealed(bytes(blob)))
        assert table is None
        assert peak < 2**16

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
            n = table.bound + 1
            assert table.ppos.shape == (n, n)
            assert (n * n + 7) // 8 <= len(blob)
        assert peak < 2**16
