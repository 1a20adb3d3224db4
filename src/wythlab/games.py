"""Rule-sets and exact bounded solvers for two Wythoff variants.

Positions are pairs of naturals; a move removes tokens from one pile or the
same number from both.  Variant K declares every position with coordinate
sum at most ell terminal: terminal positions are winning to enter and allow
no further moves.  Variant W lets the player who just moved forbid up to
k-1 of the opponent's options for one turn, which turns the usual "some
option is P" losing test into "at least k options are P".

Every option of a position lies in an earlier row of the box, or earlier
in its own row, so solving the positions in row-major order is exact on the
full box with no truncation at the boundary.  One counting sweep, a single
loop with the rule inline, visits the rows in that order.  It keeps each
column's and each diagonal's member count as "used" bit-planes in Python
ints, bit y of plane c set when the line through cell y of the current row
holds more than c members, and in each row finds the lowest cell after the
last member that the rule calls P.  It has two modes.  The solver takes
each such cell as a member and gets the P-cells back.  The absorption
check takes the members from a candidate's row-major cells, a PNTable, a
boolean mask or integer pairs that list their whole set, and gets the first
such cell that is not one, with its count of member options read off the
planes.  A mask's cells come from one flat scan of its rows, never a 2-D
nonzero.  Other sets enter a PNTable by from_cells, which never casts.
Exact counts for given cells, for stability (of the members alone), the
witness search and option_member_counts, come from binary search in the
line keys that a PNTable builds once and keeps.  The witness search takes
a list of moves and solves once; it reads the row-major targets in growing
chunks, counts each chunk's candidates of every move still open in one
call, and drops a move at the first chunk with its witness.
A P-set is kept as its O(bound) row-major cells, never as a box mask, and a
table cache file holds the same cells; the terminal triangle, P by the
rule, stays the one integer spec.terminal_sum.
P-pairs (a_n, b_n) are two int64 arrays; ppos_list and PNTable.from_pairs
turn cells into pairs and back.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, islice

import numpy as np

from .fibnum import _is_int, _natural

__all__ = [
    "GameSpec",
    "kspec",
    "wspec",
    "PNTable",
    "PposSequence",
    "CheckResult",
    "ResourceLimitError",
    "CacheError",
    "options",
    "solve",
    "solve_pairs",
    "ppos_list",
    "option_member_counts",
    "check_stable",
    "check_absorbing",
    "non_redundant_witness",
    "non_redundant_witnesses",
    "write_table_cache",
    "read_table_cache",
]

MAX_SOLVE_BOUND = 32768
_WITNESS_CHUNK = 64  # candidates in the witness search's first chunk


class ResourceLimitError(RuntimeError):
    """Raised instead of attempting a solve past the bound cap.  The sweep
    keeps min(k, 3B + 1) "used" bit-planes, each no longer than the box's B + 1
    bits plus the 64 rows between the cuts of the diagonal planes, so the cap
    bounds its time: O(B^2 / word) for a sparse P-set, growing with each
    row's members for large k."""


class CacheError(ValueError):
    """Raised when a table cache file is malformed or corrupt."""


@dataclass(frozen=True)
class GameSpec:
    """Rule-set identifier: variant 'K' with ell, or variant 'W' with k."""

    variant: str
    ell: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        # the solver's bit planes need Python ints: numpy integers become one
        # and a bool, a float or any other non-integer is refused
        if self.variant == "K":
            if not _is_int(self.ell) or self.ell < 0 or self.k is not None:
                raise ValueError(f"K variant needs ell >= 0 and no k: {self}")
            object.__setattr__(self, "ell", int(self.ell))
        elif self.variant == "W":
            if not _is_int(self.k) or self.k < 1 or self.ell is not None:
                raise ValueError(f"W variant needs k >= 1 and no ell: {self}")
            object.__setattr__(self, "k", int(self.k))
        else:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def terminal_sum(self) -> int:
        """Largest coordinate sum of a terminal position (-1 when none)."""
        return self.ell if self.variant == "K" else -1

    @property
    def need(self) -> int:
        """Least number of P-options of a non-terminal N-position: 1 for K, k for W."""
        return 1 if self.variant == "K" else self.k

    def label(self) -> str:
        if self.variant == "K":
            return f"K ell={self.ell}"
        return f"W k={self.k}"


def kspec(ell: int) -> GameSpec:
    return GameSpec("K", ell=ell)


def wspec(k: int) -> GameSpec:
    return GameSpec("W", k=k)


@dataclass(frozen=True, eq=False)
class PNTable:
    """P/N classification of the full box [0,B]^2, kept as its P-cells.

    xs, ys are read-only and list each P-position with x + y > spec.terminal_sum
    once, row-major: by x, then by y.  ppos builds the whole box mask on each read,
    the terminal triangle a row slice at a time.
    """

    spec: GameSpec
    bound: int
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        self.xs.flags.writeable = self.ys.flags.writeable = False

    @classmethod
    def from_cells(cls, spec: GameSpec, bound: int, xs, ys) -> PNTable:
        """The table of the integer cells (xs[i], ys[i]) in the box, less terminal ones;
        columns of two dtypes are zipped, not stacked, so numpy casts neither."""
        bound = _natural(bound, "bound")
        if bound > 2**31 - 1:  # the diagonal keys reach 2 * bound * (bound + 1) + bound
            raise ValueError(f"bound {bound} past {2**31 - 1:,} overflows a table's int64 keys")
        same = type(xs) is type(ys) is np.ndarray and xs.dtype == ys.dtype
        xs, ys = _int_pairs(np.column_stack((xs, ys)) if same
                            else list(zip(xs, ys, strict=True))).T
        keep = (xs >= 0) & (xs <= bound) & (ys >= 0) & (ys <= bound)
        keep &= xs + ys > _terminal_sum(spec, bound)
        n = bound + 1
        key = np.sort(xs[keep] * n + ys[keep])
        return cls(spec, bound, *np.divmod(key[np.diff(key, prepend=-1) > 0], n))

    @classmethod
    def from_pairs(cls, spec: GameSpec, bound: int, a, b) -> PNTable:
        """The table of the pairs (a[i], b[i]) in both orientations; see ppos_list."""
        t = cls.from_cells(spec, bound, a, b)  # the box and the triangle are symmetric
        return cls.from_cells(spec, bound, np.r_[t.xs, t.ys], np.r_[t.ys, t.xs])

    @property
    def ppos(self) -> np.ndarray:
        n, ell = self.bound + 1, _terminal_sum(self.spec, self.bound)
        mask = np.zeros((n, n), dtype=bool)
        mask.reshape(-1)[self.xs * n + self.ys] = True
        for x in range(min(ell, self.bound) + 1):  # the terminal triangle, a slice a row
            mask[x, : min(ell - x, self.bound) + 1] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def _line_keys(self) -> tuple[np.ndarray, ...]:
        """Per line kind (row, column, difference x - y + bound), the sorted
        keys line * (bound + 1) + at of the P-cells; read-only."""
        n = self.bound + 1
        out = []
        for line, at in ((self.xs, self.ys), (self.ys, self.xs),
                         (self.xs - self.ys + self.bound, self.xs)):
            keys = np.sort(line * n + at)
            keys.flags.writeable = False
            out.append(keys)
        return tuple(out)


def _terminal_sum(spec: GameSpec, bound: int) -> int:
    """spec.terminal_sum capped at 2 * bound, where it already covers the box."""
    return min(spec.terminal_sum, 2 * bound)


def _triangle(spec: GameSpec, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The row-major cells (xs, ys) of [0,bound]^2 with x + y <= _terminal_sum."""
    ell = _terminal_sum(spec, bound)
    rows = np.arange(min(ell, bound) + 1)
    sizes = np.minimum(ell - rows, bound) + 1
    ys = np.arange(sizes.sum())
    ys -= np.repeat(sizes.cumsum() - sizes, sizes)  # less the row's first index
    return np.repeat(rows, sizes), ys


def _int_pairs(pairs) -> np.ndarray:
    """Integer pairs or an (n, 2) integer array as a new (n, 2) int64 array;
    anything else is read as Python objects, and a bool, a float, a str, a
    value outside int64 or a shape but (n, 2) is a ValueError naming it."""
    arr = pairs
    if not (isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu"):
        arr = np.asarray(pairs, object)
        for v in arr.flat:  # a plain int skips the call to _is_int
            if type(v) is not int and not _is_int(v):
                raise ValueError(f"expected integer pairs, got {type(v).__name__} {v!r}")
    if arr.shape != (0,) and (arr.ndim != 2 or arr.shape[1] != 2):  # () holds no pairs
        raise ValueError(f"expected integer pairs, got {arr.dtype} {arr.shape}")
    lim = np.iinfo(np.int64)
    try:  # the cast raises for an object past int64; a uint64 array would wrap
        if arr.dtype != np.uint64 or not arr.size or arr.max() <= lim.max:
            return arr.reshape(-1, 2).astype(np.int64)
    except OverflowError:
        pass
    worst = next(v for v in arr.flat if not lim.min <= v <= lim.max)
    raise ValueError(f"pair value {worst} outside the int64 range [{lim.min}, {lim.max}]")


class PposSequence:
    """Sorted non-terminal P-pairs (a_n, b_n), a_n <= b_n, indexed from 0.

    ell, K^ell's natural threshold or None for W, is read by _natural.  pairs,
    integer pairs or an (n, 2) integer array, is read by _int_pairs into the
    read-only int64 arrays a and b; .pairs builds the tuples on each read.
    """

    def __init__(self, ell: int | None, pairs) -> None:
        self.ell = None if ell is None else _natural(ell, "ell")
        self.a, self.b = _int_pairs(pairs).T.copy()
        self.a.flags.writeable = self.b.flags.writeable = False

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.a.tolist(), self.b.tolist()))

    def __len__(self) -> int:
        return self.a.size

    def __getitem__(self, n: int) -> tuple[int, int]:
        return int(self.a[n]), int(self.b[n])

    def __eq__(self, other) -> bool:
        return (isinstance(other, PposSequence) and self.ell == other.ell
                and np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b))

    def __hash__(self) -> int:
        return hash((self.ell, self.a.tobytes(), self.b.tobytes()))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The a- and b-sequences, read-only."""
        return self.a, self.b


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a bounded check; counterexample is None when ok."""

    ok: bool
    detail: str = ""
    counterexample: object = None

    def __bool__(self) -> bool:
        return self.ok


def _first_failure(passed: str, *properties) -> CheckResult:
    """Verdict of a check stated as an ordered list of properties.

    A property is a pair (fails, report): a boolean array, True where the
    property fails, and a function from its first failing index to the
    (detail, counterexample) of the failure.  The first property that fails
    decides; when none fails the check passes with detail passed.
    """
    for fails, report in properties:
        if fails.any():
            return CheckResult(False, *report(int(fails.argmax())))
    return CheckResult(True, passed)


def options(p: tuple[int, int]) -> list[tuple[int, int]]:
    """All Wythoff options of p: shrink one pile, or both by the same amount."""
    x, y = p
    out = [(c, y) for c in range(x)]
    out += [(x, c) for c in range(y)]
    out += [(x - t, y - t) for t in range(1, min(x, y) + 1)]
    return out


def _sweep(spec: GameSpec, bound: int, given: PNTable | None = None):
    """The one row-major counting sweep of [0,bound]^2 under spec's rule.

    Every option of (x, y) lies in an earlier row, or earlier in row x, so
    row-major order is exact.  A cell has at most 3 * bound options, so the
    sweep keeps need = min(spec.need, 3 * bound + 1) "used" bit-planes in
    Python ints: bit y of cols[c] is set when column y holds more than c
    members of the earlier rows, and bit y of diags[c] when the difference
    y - x of the current row x does.  The rule calls a cell P when its lines
    hold fewer than t = need - found members, found counting the row's
    members before it, terminal ones included: a zero bit of the AND over
    a < t of cols[a] | diags[t - 1 - a].  Each row's lowest such cell after
    its last member costs O(t) big-int operations.

    With given None that cell is the next member, and the sweep returns the
    P-cells outside the terminal triangle as lists xs, ys, row-major.  With
    given a candidate's PNTable on the box, the members are its row-major
    cells, walked in order, and the sweep returns the row-major first
    non-member that the rule calls P as (x, y, count), or None.  Its count of
    member options is found plus bit y of every cols and diags plane: exact,
    since an open cell's lines hold fewer than need members and the planes
    saturate only at need.

    Updating the planes costs O(need) operations a row on ints no longer
    than the highest column or diagonal that holds a member; the diagonal
    planes shift one bit a row and are cut to the box every 64 rows.  bound
    is a Python int >= 0.
    """
    need, n = min(spec.need, 3 * bound + 1), bound + 1
    ell, full = _terminal_sum(spec, bound), (1 << n) - 1
    cols, diags = [0] * need, [0] * need
    planes = range(need - 1, 0, -1)
    if given:  # a last row past the box ends the walk
        rows, cells, i = given.xs.tolist() + [n], given.ys.tolist(), 0
    xs: list[int] = []
    ys: list[int] = []
    for x in range(n):
        first = 0 if x > ell else min(ell - x + 1, n)  # the row's terminal cells are P
        members = (1 << first) - 1
        found = y = first
        while True:
            z = n
            if found < need:
                t = need - found
                used = cols[0] | diags[t - 1]
                for a in range(1, t):
                    used &= cols[a] | diags[t - 1 - a]
                used >>= y  # its lowest zero bit is the lowest open cell >= y
                z = y + (used ^ (used + 1)).bit_length() - 1
            if given:
                m = cells[i] if rows[i] == x else n
                if z < m:
                    return x, z, found + sum(p >> z & 1 for p in chain(cols, diags))
                if m == n:
                    break
                i += 1
            else:
                if z > bound:
                    break
                m = z
                xs.append(x)
                ys.append(z)
            members |= 1 << m
            found += 1
            y = m + 1
        for c in planes:
            cols[c] |= cols[c - 1] & members
            diags[c] = (diags[c] | diags[c - 1] & members) << 1
        cols[0] |= members
        diags[0] = (diags[0] | members) << 1  # row x + 1 reads difference y - x - 1 at bit y
        if x & 63 == 63:
            diags = [d & full for d in diags]
    return None if given else (xs, ys)


@lru_cache(maxsize=64)
def _solve_cached(spec: GameSpec, bound: int) -> PNTable:
    if bound > MAX_SOLVE_BOUND:
        raise ResourceLimitError(
            f"bound {bound} exceeds the solver cap {MAX_SOLVE_BOUND}; "
            "no partial table is produced"
        )
    return PNTable(spec, bound, *(np.array(c, np.int64) for c in _sweep(spec, bound)))


def solve(spec: GameSpec, bound: int) -> PNTable:
    """Exact classification of the full box [0,bound]^2, memoised as P-cells;
    the table is immutable and safe to share."""
    return _solve_cached(spec, _natural(bound, "bound"))


def solve_pairs(spec: GameSpec, bound: int) -> list[tuple[int, int]]:
    """Sorted non-terminal P-pairs of the box, from solve's memo."""
    return list(ppos_list(solve(spec, bound)).pairs)


def ppos_list(table: PNTable) -> PposSequence:
    """Non-terminal P-pairs (a_n, b_n) of a solved table, sorted, a_n <= b_n.

    For K-boards the in-box pairs are a true prefix of the infinite pair
    sequence, because the b-sequence is increasing; the bound only truncates.
    """
    keep = table.xs <= table.ys
    return PposSequence(table.spec.ell, np.c_[table.xs[keep], table.ys[keep]])


def _mask_cells(mask: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The row-major cells (xs, ys) of a 2-D bool mask's first rows rows, by one
    flat scan: numpy's 1-D nonzero is many times faster than its 2-D one, and a
    slice of rows alone is a view of a C-ordered mask, not a copy."""
    return np.divmod(np.flatnonzero(mask[:rows]), mask.shape[1])


def _candidate_table(candidate, spec: GameSpec, bound: int) -> PNTable:
    """A candidate's whole set as spec's table on [0,bound]^2, through from_cells:
    a PNTable's cells and triangle, the cells of a bool array's first bound + 1
    rows (from_cells drops those past column bound) or integer pairs."""
    bound = _natural(bound, "bound")
    if isinstance(candidate, PNTable):
        if candidate.bound < bound:
            raise ValueError(f"candidate bound {candidate.bound} below {bound}")
        xs, ys = candidate.xs, candidate.ys
        if _terminal_sum(candidate.spec, bound) > _terminal_sum(spec, bound):
            xs, ys = np.hstack((_triangle(candidate.spec, bound), (xs, ys)))
    elif isinstance(candidate, np.ndarray) and candidate.dtype == bool:
        if candidate.ndim != 2 or min(candidate.shape) <= bound:
            raise ValueError(f"candidate {candidate.shape} is not a 2-D array "
                             f"covering [0,{bound}]^2")
        xs, ys = _mask_cells(candidate, bound + 1)
    else:
        xs, ys = _int_pairs(candidate if isinstance(candidate, np.ndarray)
                            else list(candidate)).T
    return PNTable.from_cells(spec, bound, xs, ys)


def option_member_counts(mask: np.ndarray) -> np.ndarray:
    """cnt[x,y] = number of options of (x,y) that lie in the square boolean mask."""
    if mask.dtype != bool or mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError(f"expected a square mask of bools, got {mask.dtype} {mask.shape}")
    # W has no terminal cells; an empty mask counts over the box [0,0]^2
    n = mask.shape[0]
    table = PNTable.from_cells(wspec(1), max(n - 1, 0), *_mask_cells(mask, n))
    x, y = np.indices(mask.shape).reshape(2, -1)
    return _option_counts(table, x, y).reshape(mask.shape)


def _option_counts(table: PNTable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Number of P-cells of table among the options of each cell (x[i], y[i])
    of its box: the P-cells before it on its row, column and difference.  A
    line's terminal cells precede the rest, and a binary search in the line
    keys finds where the rest start, so a count holds O(len(x)) memory."""
    n, ell = table.bound + 1, _terminal_sum(table.spec, table.bound)
    d = x - y
    count = 0
    if ell >= 0:  # the terminal cells; W has none
        count = (np.maximum(ell + 1 - x, 0) + np.maximum(ell + 1 - y, 0)
                 + np.maximum((ell + 2 - abs(d)) // 2, 0))
    for keys, line, at in zip(table._line_keys, (x, y, d + table.bound), (y, x, x)):
        start = line * n
        count += keys.searchsorted(start + at) - keys.searchsorted(start)
    return count


def check_stable(candidate, spec: GameSpec, bound: int) -> CheckResult:
    """Bounded stability check of a candidate P-set.

    K variant: no move may connect two members when the source is outside
    the terminal region (terminal positions allow no moves).  W variant: a
    member may have at most k-1 member options.  The rule makes the terminal
    cells members; the others are visited, each counting its member options
    over the line keys.  The counterexample of the row-major first violator
    is (source, member option) for K and (source, tuple of k member options)
    for W, in options() order: column, row, then the diagonal by falling x.
    The report reads the candidate's cells on the violator's three lines and
    the terminal cells on them, never the violator's whole option list.
    """
    table = _candidate_table(candidate, spec, bound)
    tx, ty = table.xs, table.ys
    counts = _option_counts(table, tx, ty)

    def report(i):
        src = sx, sy = int(tx[i]), int(ty[i])
        # its member options: the candidate's cells on its three lines and the
        # terminal cells, which lie nearest the origin, so they come first on
        # the column and the row and last on the diagonal, walked by falling x
        ell, before = _terminal_sum(spec, table.bound), tx < sx
        lo = max(-((ell - sx - sy) // 2), 1)  # (sx - t, sy - t) is terminal for t >= lo
        col = chain(range(min(sx, ell - sy + 1)), tx[before & (ty == sy)].tolist())
        row = chain(range(min(sy, ell - sx + 1)), ty[(tx == sx) & (ty < sy)].tolist())
        diag = chain(tx[before & (tx - ty == sx - sy)][::-1].tolist(),
                     range(sx - lo, max(sx - sy, 0) - 1, -1))
        members = chain(((c, sy) for c in col), ((sx, c) for c in row),
                        ((c, c - sx + sy) for c in diag))
        first = tuple(islice(members, spec.need))  # a terminal range may be O(bound)
        if spec.variant == "K":
            return f"member {src} moves to member {first[0]}", (src, first[0])
        detail = f"member {src} has {counts[i]} member options (max {spec.k - 1})"
        return detail, (src, first)

    return _first_failure(f"stable on [0,{bound}]^2", (counts >= spec.need, report))


def check_absorbing(candidate, spec: GameSpec, bound: int) -> CheckResult:
    """Bounded absorption check of a candidate P-set.

    K variant: every non-member must have a member option; the terminal
    cells are members by the rule, whatever the candidate holds there.
    W variant: every non-member needs at least k member options.  This reads
    every cell, so it runs the solver's counting sweep with the candidate's
    table as the members, walking its row-major cells in order; the row's
    own member count is constant between them, so the sweep tests only the
    lowest open cell before each one, and it stops at the first non-member
    that the rule calls P: the row-major first violator.  The report's
    count of its member options comes off the sweep's planes.
    """
    table = _candidate_table(candidate, spec, bound)
    violator = _sweep(spec, table.bound, table)
    if violator is None:
        return CheckResult(True, f"absorbing on [0,{bound}]^2")
    x, y, count = violator
    return CheckResult(False, f"non-member {(x, y)} has {count} member options "
                       f"(needs {spec.need})", (x, y))


def non_redundant_witnesses(
    spec: GameSpec, moves: list[tuple[int, int]], bound: int
) -> list[tuple[int, int] | None]:
    """The witness, or None, of each move, in the order given: an N-position
    that needs the move.

    K variant: a witness has exactly one P-option, reached by this move.
    W variant: a witness has exactly k P-options, one reached by this move
    (blocking the other k-1 would leave only it).  None means no witness in
    the box, which is inconclusive, never a redundancy proof.  Each answer
    is the move's row-major first witness.  Every move is checked before the
    one solve, and a repeated move is searched once.  The targets, the
    terminal corners and then the P-cells, are listed once in row-major
    order; a target plus the move is a candidate.  The targets are read in
    chunks, 64 and then each chunk 4 times larger than the one before, and
    one count covers a chunk's candidates of every move still without a
    witness; a move drops out at the chunk that holds its first witness.  A
    witness near the start of the box costs one small chunk, no move's
    candidates are counted twice, and a chunk holds the moves still open
    times its targets.
    """
    bound = _natural(bound, "bound")
    keys = []
    for move in moves:
        dx, dy = move
        if not (_is_int(dx) and _is_int(dy) and (dx > 0 and dy in (0, dx) or dx == 0 < dy)):
            raise ValueError(f"move {move} is not of Wythoff shape")
        keys.append((int(dx), int(dy)))
    found = dict.fromkeys(keys)
    todo = [m for m in found if max(m) <= bound]  # a longer move has no witness in the box
    if todo:
        P, ell = solve(spec, bound), _terminal_sum(spec, bound)
        # a K witness has one P-option, so a terminal target is alone on its line;
        # a non-terminal P-cell lies past row and column ell, so the targets come first
        ends = np.array(sorted({t for t in ((ell, 0), (ell - 1, 0), (0, ell), (0, ell - 1))
                                if min(t) >= 0}), np.int64).reshape(-1, 2)
        tx, ty = np.concatenate((ends[:, 0], P.xs)), np.concatenate((ends[:, 1], P.ys))
        lo, hi = 0, _WITNESS_CHUNK
        while todo and lo < tx.size:
            # one row per move still open, row-major: the move takes (x, y) to the target
            dx, dy = np.array(todo, np.int64).T[:, :, None]
            x, y = tx[lo:hi] + dx, ty[lo:hi] + dy
            hit = (np.maximum(x, y) <= bound) & (x + y > ell)  # in the box, non-terminal
            # count == spec.need leaves out every P-cell, since the solver
            # gives it no P-option in K and at most k - 1 in W
            hit[hit] = _option_counts(P, x[hit], y[hit]) == spec.need
            for r, (move, i) in enumerate(zip(todo, hit.argmax(1).tolist())):
                if hit[r, i]:  # the row's first hit is the move's row-major first witness
                    found[move] = int(x[r, i]), int(y[r, i])
            todo = [m for m in todo if found[m] is None]
            lo, hi = hi, 5 * hi - 4 * lo  # the next chunk is 4 times larger
    return [found[m] for m in keys]


def non_redundant_witness(
    spec: GameSpec, move: tuple[int, int], bound: int
) -> tuple[int, int] | None:
    """The row-major first N-position that needs the given move, or None:
    non_redundant_witnesses for the one move."""
    return non_redundant_witnesses(spec, [move], bound)[0]


# ---------------------------------------------------------------------------
# Table cache files: fixed header, the table's cells, sha256 trailer.
# ---------------------------------------------------------------------------

_MAGIC = b"WYPN"
_VERSION = 3


def _cache_header(spec: GameSpec, bound: int) -> bytes:
    """The header of a cache of spec's table on [0,bound]^2; a ValueError when
    its uint32 fields cannot hold ell, k or the bound."""
    param = spec.ell if spec.variant == "K" else spec.k
    if max(param, bound) > 2**32 - 1:
        raise ValueError(f"a table cache holds ell, k and bound up to "
                         f"{2**32 - 1:,}: {spec.label()}, bound {bound}")
    return _MAGIC + struct.pack("<BcII", _VERSION, spec.variant.encode(), param, bound)


def write_table_cache(table: PNTable, path) -> None:
    """Write a table: the header, its cells xs, ys as little-endian uint32
    (x, y) pairs in row-major order, and the sha256 of both."""
    header = _cache_header(table.spec, table.bound)  # so every cell fits uint32
    payload = np.column_stack((table.xs, table.ys)).astype("<u4").tobytes()
    with open(path, "wb") as fh:
        fh.writelines((header, payload, hashlib.sha256(header + payload).digest()))


def read_table_cache(path) -> PNTable:
    """Read a table written by write_table_cache, verifying the checksum; its
    cells enter through PNTable.from_cells and must already be that table's."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = len(_MAGIC) + struct.calcsize("<BcII")
    if len(blob) < head_len + 32 or blob[: len(_MAGIC)] != _MAGIC:
        raise CacheError(f"{path}: not a table cache")
    version, variant, param, bound = struct.unpack(
        "<BcII", blob[len(_MAGIC) : head_len]
    )
    if version != _VERSION:
        raise CacheError(f"{path}: cache version {version} is not {_VERSION}; write it again")
    if hashlib.sha256(memoryview(blob)[:-32]).digest() != blob[-32:]:
        raise CacheError(f"{path}: checksum mismatch")
    try:
        spec = {b"K": kspec, b"W": wspec}[variant](param)
    except (KeyError, ValueError) as exc:
        raise CacheError(f"{path}: bad rule-set {variant!r} {param}") from exc
    payload = memoryview(blob)[head_len:-32]
    if len(payload) % 8:
        raise CacheError(f"{path}: payload of {len(payload)} bytes is not whole (x, y) pairs")
    cells = np.frombuffer(payload, "<u4").reshape(-1, 2)
    try:
        table = PNTable.from_cells(spec, bound, *cells.T)
    except ValueError as exc:
        raise CacheError(f"{path}: {exc}") from exc
    if not np.array_equal(np.c_[table.xs, table.ys], cells):
        raise CacheError(f"{path}: cells not distinct, non-terminal, row-major in [0,{bound}]^2")
    return table
