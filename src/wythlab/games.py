"""Rule-sets and exact bounded solvers for two Wythoff variants.

Positions are pairs of naturals; a move removes tokens from one pile or the
same number from both.  Variant K declares every position with coordinate
sum at most ell terminal: terminal positions are winning to enter and allow
no further moves.  Variant W lets the player who just moved forbid up to
k-1 of the opponent's options for one turn, which turns the usual "some
option is P" losing test into "at least k options are P".

Every option of a position lies in an earlier row of the box, or earlier
in its own row, so solving the positions in row-major order is exact on the
full box with no truncation at the boundary.  One counting sweep visits the
rows in that order, keeps each column's and each diagonal's member count as
bit-planes in Python ints, and applies the rule: it sizes the planes and
gives each row its first non-terminal cell and the cells the rule calls P.
The solver takes those cells as members; the absorption check reads members
from a candidate, a PNTable, a boolean mask or integer pairs that list their
whole set, and reports the first such cell that is not one.  Other sets enter
a PNTable by from_cells, which never casts.  Exact counts, for stability (of
the members alone), the witness search, option_member_counts and the
absorption check's report, come from binary search in the line keys that a
PNTable builds once and keeps.  A P-set is kept as its O(bound) row-major
cells, never as a box mask, and a table cache file holds the same cells; the
terminal triangle, P by the rule, stays the one integer spec.terminal_sum.
P-pairs (a_n, b_n) are two int64 arrays; ppos_list and PNTable.from_pairs
turn cells into pairs and back.
"""
from __future__ import annotations

import hashlib
import numbers
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
    "write_table_cache",
    "read_table_cache",
]

MAX_SOLVE_BOUND = 32768


class ResourceLimitError(RuntimeError):
    """Raised instead of attempting a solve past the bound cap.  The solve
    keeps min(k, 3B + 1) planes of B + 1 bits, so the cap bounds its time:
    O(B^2 / word) for a sparse P-set, growing with each row's members for large k."""


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


def _is_int(v) -> bool:  # the type test spares a plain int the slower ABC test
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def kspec(ell: int) -> GameSpec:
    return GameSpec("K", ell=ell)


def wspec(k: int) -> GameSpec:
    return GameSpec("W", k=k)


@dataclass(frozen=True, eq=False)
class PNTable:
    """P/N classification of the full box [0,B]^2, kept as its P-cells.

    xs, ys are read-only and list each P-position with x + y > spec.terminal_sum
    once, row-major: by x, then by y.  ppos builds the whole box mask on each read.
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
        bound = _bound(bound)
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
        mask = np.zeros((self.bound + 1, self.bound + 1), dtype=bool)
        mask[self.xs, self.ys] = True
        ell = _terminal_sum(self.spec, self.bound)
        for x in range(min(ell, self.bound) + 1):
            mask[x, : ell - x + 1] = True  # the terminal triangle
        mask.flags.writeable = False
        return mask

    @cached_property
    def _line_keys(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per line kind (row, column, difference x - y + bound), the sorted
        keys line * (bound + 1) + at of the P-cells, and where each line starts
        among them less its terminal cells, which precede the rest; read-only."""
        n, ell = self.bound + 1, _terminal_sum(self.spec, self.bound)
        r = np.arange(2 * n)
        edge = np.maximum(ell - r + 1, 0)  # terminal cells of row or column r
        diag = np.maximum((ell - abs(r - self.bound)) // 2 + 1, 0)
        out = []
        for line, at, terminal in ((self.xs, self.ys, edge), (self.ys, self.xs, edge),
                                   (self.xs - self.ys + self.bound, self.xs, diag)):
            keys = np.sort(line * n + at)
            starts = np.searchsorted(keys, r * n) - terminal
            keys.flags.writeable = starts.flags.writeable = False
            out.append((keys, starts))
        return tuple(out)


def _terminal_sum(spec: GameSpec, bound: int) -> int:
    """spec.terminal_sum capped at 2 * bound, where it already covers the box."""
    return min(spec.terminal_sum, 2 * bound)


def _bound(bound) -> int:
    """bound as a Python int >= 0, by GameSpec's rule, which refuses a bool."""
    if not _is_int(bound) or bound < 0:
        raise ValueError(f"negative bound {bound}" if _is_int(bound)
                         else f"bound {bound!r} is not an integer")
    return int(bound)


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

    pairs, integer pairs or an (n, 2) integer array, is read by _int_pairs
    into the read-only int64 arrays a and b; .pairs builds the tuples on each read.
    """

    def __init__(self, ell: int | None, pairs) -> None:
        self.ell = ell
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


def options(p: tuple[int, int]) -> list[tuple[int, int]]:
    """All Wythoff options of p: shrink one pile, or both by the same amount."""
    x, y = p
    out = [(c, y) for c in range(x)]
    out += [(x, c) for c in range(y)]
    out += [(x - t, y - t) for t in range(1, min(x, y) + 1)]
    return out


def _sweep(spec: GameSpec, bound: int, row) -> None:
    """Visit the rows x = 0..bound of [0,bound]^2 in order under spec's rule.

    Every option of (x, y) lies in an earlier row, or earlier in row x, so
    row-major order is exact.  A cell has at most 3 * bound options, so the
    sweep keeps need = min(spec.need, 3 * bound + 1) unary bit-planes in
    Python ints: bit y of cols[c] is set when column y holds at most c
    members of the earlier rows, and bit y of diags[c] when the difference
    y - x of the current row x does.  row(x, first, open) gets row x's first
    non-terminal cell and open(found), a bitmask whose bits y >= first are
    the cells that the rule calls P after found members of the row, at
    O(need - found) big-int operations; it returns the bitmask of row x's
    members, or None to stop the sweep.  Updating the planes costs O(need)
    operations on B/30-digit ints per row.  bound is a Python int >= 0.
    """
    need, n = min(spec.need, 3 * bound + 1), bound + 1
    full = (1 << n) - 1
    cols = [full] * need
    diags = [full] * need

    def open(found: int) -> int:
        t = need - found
        out = 0
        for a in range(t):
            out |= cols[a] & diags[t - 1 - a]
        return out

    for x in range(n):
        first = min(max(spec.terminal_sum - x + 1, 0), n)
        members = row(x, first, open)
        if members is None:
            return
        others = ~members
        for c in range(need - 1, 0, -1):
            cols[c] = cols[c] & others | cols[c - 1] & members
            diags[c] = diags[c] & others | diags[c - 1] & members
        cols[0] &= others
        diags[0] &= others
        # row x + 1 reads difference y - x - 1 at bit y; the new one at bit 0 is empty
        diags[:] = [(d << 1 | 1) & full for d in diags]


def _p_cells(spec: GameSpec, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the O(bound) P-positions of [0,bound]^2 outside the
    terminal triangle, row-major."""
    if bound > MAX_SOLVE_BOUND:
        raise ResourceLimitError(
            f"bound {bound} exceeds the solver cap {MAX_SOLVE_BOUND}; "
            "no partial table is produced"
        )
    xs: list[int] = []
    ys: list[int] = []

    def classify(x, first, open):
        members = (1 << first) - 1  # terminal cells are P
        found = y = first  # the row's members so far, and the next cell
        while free := open(found) >> y:
            y += (free & -free).bit_length() - 1
            members |= 1 << y
            xs.append(x)
            ys.append(y)
            found += 1
            y += 1
        return members

    _sweep(spec, bound, classify)
    return np.array(xs, np.int64), np.array(ys, np.int64)


@lru_cache(maxsize=64)
def _solve_cached(spec: GameSpec, bound: int) -> PNTable:
    return PNTable(spec, bound, *_p_cells(spec, bound))


def solve(spec: GameSpec, bound: int) -> PNTable:
    """Exact classification of the full box [0,bound]^2, memoised as P-cells;
    the table is immutable and safe to share."""
    return _solve_cached(spec, _bound(bound))


def solve_pairs(spec: GameSpec, bound: int) -> list[tuple[int, int]]:
    """Sorted non-terminal P-pairs of the box, computed afresh, not memoised."""
    bound = _bound(bound)
    return list(ppos_list(PNTable(spec, bound, *_p_cells(spec, bound))).pairs)


def ppos_list(table: PNTable) -> PposSequence:
    """Non-terminal P-pairs (a_n, b_n) of a solved table, sorted, a_n <= b_n.

    For K-boards the in-box pairs are a true prefix of the infinite pair
    sequence, because the b-sequence is increasing; the bound only truncates.
    """
    keep = table.xs <= table.ys
    return PposSequence(table.spec.ell, np.c_[table.xs[keep], table.ys[keep]])


def _candidate_table(candidate, spec: GameSpec, bound: int) -> PNTable:
    """A candidate's whole set as spec's table on [0,bound]^2, through from_cells:
    a PNTable's cells and triangle, a bool array's nonzero cells or integer pairs."""
    bound = _bound(bound)
    if isinstance(candidate, PNTable):
        if candidate.bound < bound:
            raise ValueError(f"candidate bound {candidate.bound} below {bound}")
        xs, ys = candidate.xs, candidate.ys
        if _terminal_sum(candidate.spec, bound) > _terminal_sum(spec, bound):
            tri = PNTable.from_cells(candidate.spec, bound, [], []).ppos  # its own triangle
            xs, ys = np.hstack((np.nonzero(tri), (xs, ys)))
    elif isinstance(candidate, np.ndarray) and candidate.dtype == bool:
        if candidate.ndim != 2 or min(candidate.shape) <= bound:
            raise ValueError(f"candidate {candidate.shape} is not a 2-D array "
                             f"covering [0,{bound}]^2")
        xs, ys = np.nonzero(candidate[: bound + 1, : bound + 1])
    else:
        xs, ys = _int_pairs(candidate if isinstance(candidate, np.ndarray)
                            else list(candidate)).T
    return PNTable.from_cells(spec, bound, xs, ys)


def option_member_counts(mask: np.ndarray) -> np.ndarray:
    """cnt[x,y] = number of options of (x,y) that lie in the square boolean mask."""
    if mask.dtype != bool or mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError(f"expected a square mask of bools, got {mask.dtype} {mask.shape}")
    # W has no terminal cells; an empty mask counts over the box [0,0]^2
    table = PNTable.from_cells(wspec(1), max(mask.shape[0] - 1, 0), *np.nonzero(mask))
    x, y = np.indices(mask.shape).reshape(2, -1)
    return _option_counts(table, x, y).reshape(mask.shape)


def _option_counts(table: PNTable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Number of P-cells of table among the options of each cell (x[i], y[i])
    of its box: the P-cells before it on its row, column and difference."""
    n = table.bound + 1
    count = 0
    cell_keys = ((x, y), (y, x), (x - y + table.bound, x))
    for (keys, starts), (line, at) in zip(table._line_keys, cell_keys):
        count += np.searchsorted(keys, line * n + at) - starts[line]
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
    """
    table = _candidate_table(candidate, spec, bound)
    tx, ty = table.xs, table.ys
    bad = np.flatnonzero(_option_counts(table, tx, ty) >= spec.need)
    if not bad.size:
        return CheckResult(True, f"stable on [0,{bound}]^2")
    src = sx, sy = int(tx[bad[0]]), int(ty[bad[0]])
    on = (tx == sx) | (ty == sy) | (tx - ty == sx - sy)  # the violator's lines
    cells = set(zip(tx[on].tolist(), ty[on].tolist()))
    members = [q for q in options(src) if q in cells or sum(q) <= spec.terminal_sum]
    if spec.variant == "K":
        return CheckResult(False, f"member {src} moves to member {members[0]}",
                           (src, members[0]))
    return CheckResult(False, f"member {src} has {len(members)} member options "
                       f"(max {spec.k - 1})", (src, tuple(members[: spec.k])))


def check_absorbing(candidate, spec: GameSpec, bound: int) -> CheckResult:
    """Bounded absorption check of a candidate P-set.

    K variant: every non-member must have a member option; the terminal
    cells are members by the rule, whatever the candidate holds there.
    W variant: every non-member needs at least k member options.  This reads
    every cell, so it runs the counting sweep, in which a row's own member
    count is constant between its members, and stops at the first row with
    a non-member that the rule calls P: the row-major first violator.
    """
    table = _candidate_table(candidate, spec, bound)
    starts = np.r_[0, np.bincount(table.xs, minlength=table.bound + 1).cumsum()].tolist()
    violator = None

    def read(x, first, open):
        nonlocal violator
        members = sum(1 << y for y in table.ys[starts[x] : starts[x + 1]].tolist())
        later, bad, found, y = members, 0, first, first  # the first cells are terminal
        while free := open(found):
            nxt = later & -later  # the next member; 0 after the last
            bad |= free & (nxt - 1) >> y << y
            if not nxt:
                break
            later ^= nxt
            y = nxt.bit_length()
            found += 1
        if bad:
            violator = x, (bad & -bad).bit_length() - 1
            return None
        return members | (1 << first) - 1

    _sweep(spec, table.bound, read)
    if violator is None:
        return CheckResult(True, f"absorbing on [0,{bound}]^2")
    x, y = violator
    count = int(_option_counts(table, np.array([x]), np.array([y]))[0])
    return CheckResult(False, f"non-member {violator} has {count} member options "
                       f"(needs {spec.need})", violator)


def non_redundant_witness(
    spec: GameSpec, move: tuple[int, int], bound: int
) -> tuple[int, int] | None:
    """Search for an N-position that needs the given move.

    K variant: a witness has exactly one P-option, reached by this move.
    W variant: a witness has exactly k P-options, one reached by this move
    (blocking the other k-1 would leave only it).  None means no witness in
    the box, which is inconclusive, never a redundancy proof.  The answer is
    the row-major first witness.
    """
    bound = _bound(bound)
    dx, dy = move
    if not (_is_int(dx) and _is_int(dy) and (dx > 0 and dy in (0, dx) or dx == 0 < dy)):
        raise ValueError(f"move {move} is not of Wythoff shape")
    if dx > bound or dy > bound:
        return None
    P, ell, n = solve(spec, bound), _terminal_sum(spec, bound), bound + 1
    # a K witness has one P-option, so a terminal target is alone on its line
    ends = np.array([t for t in ((ell, 0), (ell - 1, 0), (0, ell), (0, ell - 1))
                     if min(t) >= 0 and sum(t) + dx + dy > ell], np.int64).reshape(-1, 2)
    tx, ty = np.concatenate((P.xs, ends[:, 0])), np.concatenate((P.ys, ends[:, 1]))
    keep = (tx <= bound - dx) & (ty <= bound - dy)
    x, y = tx[keep] + dx, ty[keep] + dy  # the move takes (x, y) to a P-cell
    # (x, y) is non-terminal; count == spec.need leaves out every P-cell,
    # since the solver gives it no P-option in K and at most k - 1 in W
    hits = (x * n + y)[_option_counts(P, x, y) == spec.need]
    return divmod(int(hits.min()), n) if hits.size else None


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
