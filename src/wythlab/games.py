"""Rule-sets and exact bounded solvers for two Wythoff variants.

Positions are pairs of naturals; a move removes tokens from one pile or the
same number from both.  Variant K declares every position with coordinate
sum at most ell terminal: terminal positions are winning to enter and allow
no further moves.  Variant W lets the player who just moved forbid up to
k-1 of the opponent's options for one turn, which turns the usual "some
option is P" losing test into "at least k options are P".

Every move strictly decreases the coordinate sum, so solving all positions
in increasing-sum order is exact on the full box with no truncation at the
boundary.  One counting sweep visits the anti-diagonals in that order and
gives each cell's number of member options.  The solver takes members from
the game rule; the stability and absorption checks read them from the
candidate and compare with the rule; and option_member_counts records the
counts.  A P-set is kept as its O(bound) cells, never as a box mask: the
solver memoises cells, every candidate form becomes cells, and the witness
search counts a cell's P-options by binary search over the P-cells.  A
sequence of P-pairs (a_n, b_n) is kept as two int64 arrays; ppos_list turns
cells into pairs and PNTable.from_pairs turns pairs back into cells.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache

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
    """Raised instead of attempting a solve that would exhaust memory."""


class CacheError(ValueError):
    """Raised when a table cache file is malformed or corrupt."""


@dataclass(frozen=True)
class GameSpec:
    """Rule-set identifier: variant 'K' with ell, or variant 'W' with k."""

    variant: str
    ell: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.variant == "K":
            if self.ell is None or self.ell < 0 or self.k is not None:
                raise ValueError(f"K variant needs ell >= 0 and no k: {self}")
        elif self.variant == "W":
            if self.k is None or self.k < 1 or self.ell is not None:
                raise ValueError(f"W variant needs k >= 1 and no ell: {self}")
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

    xs, ys are read-only and list each P-position once, ordered by x + y and
    then by x.  ppos builds the box mask on each read; ppos[x,y] is True for P.
    """

    spec: GameSpec
    bound: int
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        self.xs.flags.writeable = self.ys.flags.writeable = False

    @classmethod
    def from_cells(cls, spec: GameSpec, bound: int, xs, ys) -> PNTable:
        """The table whose P-set is the cells (xs[i], ys[i]) inside the box."""
        return cls(spec, bound, *_canonical(xs, ys, bound))

    @classmethod
    def from_pairs(cls, spec: GameSpec, bound: int, a, b) -> PNTable:
        """The table of the pairs (a[i], b[i]) in both orientations plus the
        terminal triangle x + y <= spec.terminal_sum; the inverse of ppos_list."""
        tx, ty = np.nonzero(np.tri(spec.terminal_sum + 1, dtype=bool)[::-1])
        return cls.from_cells(spec, bound, np.r_[a, b, tx], np.r_[b, a, ty])

    @property
    def ppos(self) -> np.ndarray:
        mask = np.zeros((self.bound + 1, self.bound + 1), dtype=bool)
        mask[self.xs, self.ys] = True
        mask.flags.writeable = False
        return mask


def _canonical(xs, ys, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct cells of (xs, ys) inside [0,bound]^2, by x + y, then x."""
    if bound < 0:
        raise ValueError(f"negative bound {bound}")
    xs, ys = np.asarray(xs, np.int64), np.asarray(ys, np.int64)
    keep = (xs >= 0) & (xs <= bound) & (ys >= 0) & (ys <= bound)
    n = bound + 1
    key = np.unique((xs[keep] + ys[keep]) * n + xs[keep])
    xs = key % n
    return xs, key // n - xs


class PposSequence:
    """Sorted non-terminal P-pairs (a_n, b_n), a_n <= b_n, indexed from 0.

    pairs, integer pairs or an (n, 2) integer array, is copied into the
    read-only int64 arrays a and b; .pairs builds the tuples on each read.
    """

    def __init__(self, ell: int | None, pairs) -> None:
        arr = np.asarray(pairs)
        if arr.shape == (0,):
            arr = arr.reshape(0, 2).astype(np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
            raise ValueError(f"expected integer pairs, got {arr.dtype} {arr.shape}")
        self.ell = ell
        self.a, self.b = np.array(arr.T, np.int64, order="C")
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


def _sweep(bound: int, member) -> None:
    """Visit the anti-diagonals s = 0..2*bound of [0,bound]^2 in order.

    cnt, the number of member options of cell (x, s-x), sums the members
    seen so far in its row, column and difference e = x-y+B = 2x+c, c = B-s:
    all its options lie on earlier anti-diagonals, and the cells of one
    anti-diagonal have distinct rows, columns and differences.  The counts
    are stored as h[x], v[B-y] and, by parity, d[e & 1][e // 2], so cells
    x0..x1 read forward unit-stride slices from x0 at offsets 0, c and c // 2
    (floor division, also for c < 0).  cnt is a view of one int32 buffer,
    valid only during member(s, x0, cnt), which returns the distinct int
    offsets of the members; the sweep adds 1 at each: O(members) writes.
    """
    if bound < 0:
        raise ValueError(f"negative bound {bound}")
    B = bound
    h, v, *d = np.zeros((4, B + 1), dtype=np.int32)
    buf = np.empty(B + 1, dtype=np.int32)
    for s in range(2 * B + 1):
        x0 = max(0, s - B)
        x1 = min(s, B)
        c = B - s
        rows = h[x0 : x1 + 1]
        cols = v[x0 + c : x1 + c + 1]
        diffs = d[c & 1][x0 + c // 2 : x1 + c // 2 + 1]
        cnt = np.add(rows, cols, out=buf[: x1 - x0 + 1])
        cnt += diffs
        at = member(s, x0, cnt)
        if at.size:
            rows[at] += 1
            cols[at] += 1
            diffs[at] += 1


def _rule(spec: GameSpec, s: int, cnt: np.ndarray) -> np.ndarray:
    """The game's P/N classification of anti-diagonal s from its P-option counts."""
    if s <= spec.terminal_sum:
        return np.ones(cnt.size, dtype=bool)
    return cnt < spec.need


def _p_cells(spec: GameSpec, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of every P-position of [0,bound]^2; there are O(bound)."""
    if bound > MAX_SOLVE_BOUND:
        raise ResourceLimitError(
            f"bound {bound} exceeds the solver cap {MAX_SOLVE_BOUND}; "
            "no partial table is produced"
        )
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []

    def classify(s, x0, cnt):
        at = _rule(spec, s, cnt).nonzero()[0]
        if at.size:
            xs.append(at + x0)
            ys.append(s - x0 - at)
        return at

    _sweep(bound, classify)
    return np.concatenate(xs), np.concatenate(ys)  # (0, 0) is always P


@lru_cache(maxsize=64)
def _solve_cached(spec: GameSpec, bound: int) -> PNTable:
    return PNTable(spec, bound, *_p_cells(spec, bound))


def solve(spec: GameSpec, bound: int) -> PNTable:
    """Exact classification of the full box [0,bound]^2, memoised as P-cells;
    the table is immutable and safe to share."""
    return _solve_cached(spec, bound)


def solve_pairs(spec: GameSpec, bound: int) -> list[tuple[int, int]]:
    """Sorted non-terminal P-pairs of the box, computed afresh, not memoised."""
    return list(ppos_list(PNTable(spec, bound, *_p_cells(spec, bound))).pairs)


def ppos_list(table: PNTable, spec: GameSpec | None = None) -> PposSequence:
    """Non-terminal P-pairs (a_n, b_n) of a solved table, sorted, a_n <= b_n.

    For K-boards the in-box pairs are a true prefix of the infinite pair
    sequence, because the b-sequence is increasing; the bound only truncates.
    """
    spec = table.spec if spec is None else spec
    if spec != table.spec:
        raise ValueError(f"table solved for {table.spec}, not {spec}")
    keep = (table.xs <= table.ys) & (table.xs + table.ys > spec.terminal_sum)
    xs, ys = table.xs[keep], table.ys[keep]
    order = np.lexsort((ys, xs))
    return PposSequence(spec.ell, np.column_stack((xs[order], ys[order])))


def _candidate_cells(candidate, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """A candidate P-set as its cells of [0,bound]^2, in PNTable order.

    The candidate is a PNTable, a boolean array at least (bound+1)^2, a
    predicate f(x, y), or an iterable of (x, y) pairs.
    """
    if isinstance(candidate, PNTable):
        if candidate.bound < bound:
            raise ValueError(f"candidate bound {candidate.bound} below {bound}")
        xs, ys = candidate.xs, candidate.ys
    elif isinstance(candidate, np.ndarray):
        if min(candidate.shape) <= bound:
            raise ValueError(f"candidate {candidate.shape} too small for bound {bound}")
        xs, ys = np.nonzero(candidate[: bound + 1, : bound + 1])
    else:
        if callable(candidate):
            box = range(bound + 1)
            candidate = [(x, y) for x in box for y in box if candidate(x, y)]
        xs, ys = np.asarray(list(candidate), np.int64).reshape(-1, 2).T
    return _canonical(xs, ys, bound)


def _members(xs: np.ndarray, ys: np.ndarray, bound: int):
    """member(s, x0): offsets from x0 of the cells on anti-diagonal s."""
    starts = np.searchsorted(xs + ys, np.arange(2 * bound + 2))
    return lambda s, x0: xs[starts[s] : starts[s + 1]] - x0


def option_member_counts(mask: np.ndarray) -> np.ndarray:
    """cnt[x,y] = number of options of (x,y) that lie in the square mask.

    The counting sweep over the mask's cells, writing each anti-diagonal's
    counts into an int32 table.
    """
    bound = mask.shape[0] - 1
    member = _members(*_candidate_cells(mask, bound), bound)
    out = np.zeros(mask.shape, dtype=np.int32)

    def record(s, x0, cnt):
        xs = np.arange(x0, x0 + cnt.size)
        out[xs, s - xs] = cnt
        return member(s, x0)

    _sweep(bound, record)
    return out


def _first_violation(candidate, spec: GameSpec, bound: int, stable: bool):
    """Sweep the candidate against the game rule; return (cells, first).

    A member the rule calls N breaks stability, a non-member it calls P
    breaks absorption.  first is ((x, y), member-option count) of the
    row-major first violation, the least x over all anti-diagonals, or None.
    """
    cells = _candidate_cells(candidate, bound)
    member = _members(*cells, bound)
    first = None

    def read(s, x0, cnt):
        nonlocal first
        at = member(s, x0)
        is_p, is_member = _rule(spec, s, cnt), np.zeros(cnt.size, dtype=bool)
        is_member[at] = True
        bad = np.flatnonzero(is_member & ~is_p if stable else is_p & ~is_member)
        if bad.size and (first is None or x0 + bad[0] < first[0][0]):
            x = x0 + int(bad[0])
            first = (x, s - x), int(cnt[bad[0]])
        return at

    _sweep(bound, read)
    return cells, first


def check_stable(candidate, spec: GameSpec, bound: int) -> CheckResult:
    """Bounded stability check of a candidate P-set.

    K variant: no move may connect two members when the source is outside
    the terminal region (terminal positions allow no moves).  W variant: a
    member may have at most k-1 member options.  The counterexample is
    (source, member option) for K and (source, tuple of k member options)
    for W.
    """
    (xs, ys), first = _first_violation(candidate, spec, bound, stable=True)
    if first is None:
        return CheckResult(True, f"stable on [0,{bound}]^2")
    src, count = first
    cells = set(zip(xs.tolist(), ys.tolist()))
    members = [q for q in options(src) if q in cells]
    if spec.variant == "K":
        return CheckResult(False, f"member {src} moves to member {members[0]}",
                           (src, members[0]))
    return CheckResult(False, f"member {src} has {count} member options "
                       f"(max {spec.k - 1})", (src, tuple(members[: spec.k])))


def check_absorbing(candidate, spec: GameSpec, bound: int) -> CheckResult:
    """Bounded absorption check of a candidate P-set.

    K variant: every non-member must have a member option; a non-member
    inside the terminal region has no moves at all and is reported directly.
    W variant: every non-member needs at least k member options.
    """
    _, first = _first_violation(candidate, spec, bound, stable=False)
    if first is None:
        return CheckResult(True, f"absorbing on [0,{bound}]^2")
    pos, count = first
    return CheckResult(
        False, f"non-member {pos} has {count} member options (needs {spec.need})", pos
    )


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
    if bound < 0:
        raise ValueError(f"negative bound {bound}")
    dx, dy = move
    if not ((dx > 0 and dy in (0, dx)) or (dx == 0 and dy > 0)):
        raise ValueError(f"move {move} is not of Wythoff shape")
    if dx > bound or dy > bound:
        return None
    P = solve(spec, bound)
    n = bound + 1
    inside = (P.xs <= bound - dx) & (P.ys <= bound - dy)
    x, y = P.xs[inside] + dx, P.ys[inside] + dy  # the move takes (x, y) to a P-cell
    # the P-options of a cell are the P-cells before it on its row, column
    # and difference x - y: binary search over their keys line * n + at
    count = 0
    for line, at, cell_line, cell_at in (
        (P.xs, P.ys, x, y),
        (P.ys, P.xs, y, x),
        (P.xs - P.ys + bound, P.xs, x - y + bound, x),
    ):
        keys = np.sort(line * n + at)
        starts = np.searchsorted(keys, np.arange(2 * n) * n)
        count += np.searchsorted(keys, cell_line * n + cell_at) - starts[cell_line]
    # count == spec.need leaves out every P-cell but the terminals of K: the
    # solver gives other P-cells no P-option in K and at most k - 1 in W
    hits = (x * n + y)[(count == spec.need) & (x + y > spec.terminal_sum)]
    return divmod(int(hits.min()), n) if hits.size else None


# ---------------------------------------------------------------------------
# Table cache files: fixed header, bit-packed rows, sha256 trailer.
# ---------------------------------------------------------------------------

_MAGIC = b"WYPN"
_VERSION = 1


def write_table_cache(table: PNTable, path) -> None:
    """Write a solved table; layout is header, packed bits, checksum."""
    spec = table.spec
    param = spec.ell if spec.variant == "K" else spec.k
    header = _MAGIC + struct.pack(
        "<BcII", _VERSION, spec.variant.encode(), param, table.bound
    )
    payload = np.packbits(table.ppos.reshape(-1)).tobytes()
    digest = hashlib.sha256(header + payload).digest()
    with open(path, "wb") as fh:
        fh.write(header + payload + digest)


def read_table_cache(path) -> PNTable:
    """Read a table written by write_table_cache, verifying the checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = len(_MAGIC) + struct.calcsize("<BcII")
    if len(blob) < head_len + 32 or blob[: len(_MAGIC)] != _MAGIC:
        raise CacheError(f"{path}: not a table cache")
    version, variant, param, bound = struct.unpack(
        "<BcII", blob[len(_MAGIC) : head_len]
    )
    if version != _VERSION:
        raise CacheError(f"{path}: unsupported cache version {version}")
    header, payload, digest = blob[:head_len], blob[head_len:-32], blob[-32:]
    if hashlib.sha256(header + payload).digest() != digest:
        raise CacheError(f"{path}: checksum mismatch")
    try:
        spec = {b"K": kspec, b"W": wspec}[variant](param)
    except (KeyError, ValueError) as exc:
        raise CacheError(f"{path}: bad rule-set {variant!r} {param}") from exc
    n = bound + 1
    expect = (n * n + 7) // 8
    if len(payload) != expect:
        raise CacheError(f"{path}: payload length {len(payload)} != {expect}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n * n)
    return PNTable.from_cells(spec, bound, *np.nonzero(bits.reshape(n, n)))
