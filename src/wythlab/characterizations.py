"""Closed-form, recursive, morphic and asymptotic descriptions of the P-sets.

Every rule-set the solver handles exactly also admits at least one compact
description: a mex recursion for every K^ell, with b_n = a_n + n + ell + 1;
one table (CLOSED_FORMS) of Beatty floors a_n perturbed by an automatic
sequence for K^1..K^4, whose b_n follow by the same law; a Zeckendorf
pattern for K^1; explicit pair families for the blocking variants; and
partition words whose n-th letters 'a' and 'b' locate the n-th pair.
closed_form_table turns the K^1..K^4 and W^2/W^3 forms into the P-cells of a
box, the shape the solver's tables and the kernel checks use.  This module
implements all of them together with the finite checks that compare them to
each other and to solver ground truth, plus discrepancy and counting
quantities.  Each check lists its properties in order and reports the
first failure: the first failing index of the first property that fails.

Comparisons against irrational thresholds (multiples of phi and sqrt(5))
are decided exactly by Beatty floors floor(n phi), never by floating point.
A discrepancy profile counts the b-values below each a_n as the mex
partition's a_n - n - ell - 1 wherever the neighbouring b-values prove that
count, and by binary search wherever they do not, so the count is exact
whatever the recursion gives.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .catalog import adjust_dfao
from .fibnum import _is_int, _natural, floor_phi, floor_phi_range, rep_F
from .games import (CheckResult, GameSpec, PNTable, PposSequence, _first_failure, kspec,
                    wspec)
from .morphisms import DFAO, Coding, Morphism, _fixed_point, eval_dfao, eval_dfao_range

__all__ = [
    "mex_sequence",
    "CLOSED_FORMS",
    "closed_form_table",
    "closed_form_mask",
    "closed_form_K1",
    "k1_remark_pair",
    "k1_closed_form_mask",
    "closed_form_K2",
    "k2_closed_form_mask",
    "closed_form_K3",
    "closed_form_K4",
    "closed_form_pairs",
    "k3_adjust_prefix_bruteforce",
    "k4_adjust_prefix_bruteforce",
    "ppos_W2",
    "ppos_W3",
    "w2_closed_form_mask",
    "w3_closed_form_mask",
    "DiscrepancyProfile",
    "discrepancy_profile",
    "check_discrepancy",
    "density_certificate",
    "spectrum_bounds",
    "morphic_coding_check",
    "counting_check",
]


# ---------------------------------------------------------------------------
# mex recursion, shared by every K^ell
# ---------------------------------------------------------------------------

def _mex_arrays(ell: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First count pairs of the recursion as int64 arrays (a, b).

    Every value up to the last known b is final: b_n - b_{n-1} = a_n -
    a_{n-1} + 1 >= 2, so no later b lands at or below it, and the unused
    values between the last a and the last b are exactly the next a's, in
    order.  Each block takes them at once, growing the count about phi-fold.
    """
    ell, count = _natural(ell, "ell", None), _natural(count, "count", None)
    if ell < 0 or count < 0:
        raise ValueError(f"ell and count must be naturals: {ell}, {count}")
    # No b lies below base = 2 ell + 2, so pairs 0..ell are (ell + 1 + n,
    # base + 2n); the blocks start after them and used[v] marks b = base + v.
    # a_n <= 2n + ell + 1 by pigeonhole, so b_n - base <= 3n < len(used)
    base, n = 2 * ell + 2, min(count, ell + 1)
    used = np.zeros(3 * count + 16, bool)
    used[: 2 * n : 2] = True
    a = np.empty(count, np.int64)
    b = np.empty(count, np.int64)
    a[:n] = np.arange(ell + 1, ell + 1 + n)
    b[:n] = 2 * a[:n]
    last_a, last_b = ell + n, 2 * (ell + n)
    while n < count:
        new = np.flatnonzero(~used[last_a + 1 - base : last_b + 1 - base])[: count - n]
        new += last_a + 1
        if not new.size:  # ell 0's pair (1, 2) leaves no value between
            new = np.array([last_b + 1])
        m = n + new.size
        a[n:m] = new
        b[n:m] = new + np.arange(n + ell + 1, m + ell + 1)
        used[b[n:m] - base] = True
        n, last_a, last_b = m, int(a[m - 1]), int(b[m - 1])
    return a, b


def mex_sequence(ell: int, count: int) -> PposSequence:
    """First count non-terminal P-pairs of K^ell by the mex recursion.

    a_n is the least natural outside {0..ell} not yet used by either
    sequence, and b_n = a_n + n + ell + 1; the first pair is
    (ell+1, 2 ell+2).
    """
    return PposSequence(ell, np.column_stack(_mex_arrays(ell, count)))


# ---------------------------------------------------------------------------
# K^1..K^4: one table of Beatty floors plus an automatic adjustment
# ---------------------------------------------------------------------------

# Row ell holds (adjust, lag, alpha): pair n of K^ell sits at Beatty index
# m = n + 2 as (a, b) = (floor(m phi) + adj(m-lag) + alpha, a + m + ell - 1),
# where adj is the output sequence of the automaton adjust; b - a is the mex
# recursion's n + ell + 1.  K^1's one-state automaton outputs 0 throughout.
CLOSED_FORMS = {
    1: (DFAO(((0, 0),), (0,)), 0, -1),
    2: (adjust_dfao(2), 0, -1),
    3: (adjust_dfao(3), 1, -1),
    4: (adjust_dfao(4), 1, 0),
}


def _closed_form_arrays(ell: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-terminal CLOSED_FORMS pairs of K^ell, at Beatty indices 2..stop-1."""
    ell = _natural(ell, "ell", None)
    if ell not in CLOSED_FORMS:
        raise ValueError(f"no closed form for K^{ell}; closed forms cover ell "
                         f"{', '.join(map(str, CLOSED_FORMS))}")
    adjust, lag, alpha = CLOSED_FORMS[ell]
    a = floor_phi_range(stop - 1)[2:] + alpha
    a += eval_dfao_range(adjust, stop - lag - 1)[2 - lag :]
    return a, a + np.arange(ell + 1, stop + ell - 1)


def _closed_form_pair(ell: int, n: int, shift: int) -> tuple[int, int]:
    """Pair n of a K^ell family that starts at Beatty index shift: the
    CLOSED_FORMS row at the one index m = n + shift, in O(log m)."""
    n = _natural(n, "pair index")
    adjust, lag, alpha = CLOSED_FORMS[ell]
    m = n + shift
    a = floor_phi(m) + eval_dfao(adjust, m - lag) + alpha
    return a, a + m + ell - 1


def closed_form_pairs(ell: int, count: int) -> PposSequence:
    """First count non-terminal pairs of K^ell from its closed form."""
    count = _natural(count, "pair count")
    return PposSequence(ell, np.column_stack(_closed_form_arrays(ell, count + 2)))


def closed_form_table(spec: GameSpec, bound: int) -> PNTable:
    """The closed-form P-set of K^1..K^4 or W^2/W^3 on [0,bound]^2, as cells.

    K^ell: the CLOSED_FORMS pairs, and .ppos adds the terminal triangle.
    W^k: the explicit pair families plus (0, 0).  Both orientations.
    """
    bound = _natural(bound, "bound")
    if spec.variant == "K":
        # adj >= 0 and alpha >= -1 give a > m phi - 2, so every pair with
        # a <= bound has m < (bound + 2) / phi, below this stop
        a, b = _closed_form_arrays(spec.ell, bound * 2 // 3 + 8)
    elif spec.k in (2, 3):  # {n, 2n+1} plus, for W^2, the all-even pairs
        n = np.arange(bound // 2 + 2)
        if spec.k == 2:
            fp = floor_phi_range(bound // 2 + 1)
            a, b = 2 * fp + 2, 2 * (fp + n) + 2
        else:
            a, b = n, 2 * n + 2
        a, b = np.r_[0, n, a], np.r_[0, 2 * n + 1, b]
    else:
        raise ValueError(f"no closed form for W^{spec.k}")
    return PNTable.from_pairs(spec, bound, a, b)


def closed_form_mask(ell: int, bound: int) -> np.ndarray:
    """Box mask of the K^ell closed form plus the terminal triangle
    x + y <= ell, both orientations."""
    return closed_form_table(kspec(ell), bound).ppos


def closed_form_K1(a: int, b: int) -> bool:
    """Membership test for K^1 pairs with a <= b, independent of the table.

    True on the terminal pairs (a+b <= 1) and when the representation of b
    is the representation of a, ending in 0, with a 1 appended.
    """
    a, b = _natural(a, "coordinate"), _natural(b, "coordinate")
    if a > b:
        raise ValueError(f"expected a <= b, got ({a}, {b})")
    if a + b <= 1:
        return True
    ra = rep_F(a)
    return ra.endswith("0") and rep_F(b) == ra + "1"


def k1_remark_pair(n: int) -> tuple[int, int]:
    """Pair n of K^1 counting the terminal pair (0, 1) as pair 0.

    Evaluates (floor((n+1) phi) - 1, floor((n+1) phi^2) - 1) exactly.
    """
    return _closed_form_pair(1, n, 1)


def k1_closed_form_mask(bound: int) -> np.ndarray:
    """Box mask of the K^1 closed form, both orientations."""
    return closed_form_table(kspec(1), bound).ppos


def closed_form_K2(n: int) -> tuple[int, int]:
    """Pair n of the K^2 algebraic family (indices 0 and 1 fall in the
    terminal region; the family is meant as a set)."""
    return _closed_form_pair(2, n, 0)


def k2_closed_form_mask(bound: int) -> np.ndarray:
    """Box mask of the K^2 family plus the terminal region x+y <= 2."""
    return closed_form_table(kspec(2), bound).ppos


def closed_form_K3(n: int) -> tuple[int, int]:
    """n-th non-terminal pair of K^3; the adjustment enters at index n+1."""
    return _closed_form_pair(3, n, 2)


def closed_form_K4(n: int) -> tuple[int, int]:
    """n-th non-terminal pair of K^4; the adjustment enters at index n+1."""
    return _closed_form_pair(4, n, 2)


def _adjust_from_mex(ell: int, count: int) -> tuple[int, ...]:
    """First count adjustment values of K^ell read back from the mex recursion.

    Inverts the CLOSED_FORMS row: adj(m) = a_{m-2+lag} - floor((m+lag) phi)
    - alpha.  For the lag-1 rows (ell 3 and 4) index 0 lies under no pair and
    takes the sequence's defined initial value 1.
    """
    count = _natural(count, "count", None)
    if count <= 0:
        return ()
    _, lag, alpha = CLOSED_FORMS[ell]
    head = 2 - lag
    a, _ = _mex_arrays(ell, max(count - head, 0))
    fp = floor_phi_range(count - 1 + lag)
    out = np.ones(count, np.int64)
    out[head:] = a - fp[head + lag :] - alpha
    return tuple(out.tolist())


def k3_adjust_prefix_bruteforce(count: int) -> tuple[int, ...]:
    """K^3 adjustment values recovered from the pair recursion."""
    return _adjust_from_mex(3, count)


def k4_adjust_prefix_bruteforce(count: int) -> tuple[int, ...]:
    """K^4 adjustment values recovered from the pair recursion."""
    return _adjust_from_mex(4, count)


# ---------------------------------------------------------------------------
# Blocking variants: explicit unordered-pair families
# ---------------------------------------------------------------------------

def ppos_W2(x: int, y: int) -> bool:
    """Membership in the W^2 P-set: (0,0), the pairs {n, 2n+1}, and the
    all-even pairs {2 floor(n phi)+2, 2 floor(n phi^2)+2}."""
    x, y = _natural(x, "coordinate"), _natural(y, "coordinate")
    u, v = (x, y) if x <= y else (y, x)
    if u == 0 and v == 0:
        return True
    if v == 2 * u + 1:
        return True
    if u >= 2 and u % 2 == 0 and v % 2 == 0:
        # (p, q) = (floor(n phi), floor(n phi^2)) forces n = q - p
        p, q = (u - 2) // 2, (v - 2) // 2
        return floor_phi(q - p) == p
    return False


def ppos_W3(x: int, y: int) -> bool:
    """Membership in the W^3 P-set: (0,0) and the pairs {n, 2n+1}, {n, 2n+2}."""
    x, y = _natural(x, "coordinate"), _natural(y, "coordinate")
    u, v = (x, y) if x <= y else (y, x)
    if u == 0 and v == 0:
        return True
    return v == 2 * u + 1 or v == 2 * u + 2


def w2_closed_form_mask(bound: int) -> np.ndarray:
    """Box mask of the W^2 family, both orientations."""
    return closed_form_table(wspec(2), bound).ppos


def w3_closed_form_mask(bound: int) -> np.ndarray:
    """Box mask of the W^3 family, both orientations."""
    return closed_form_table(wspec(3), bound).ppos


# ---------------------------------------------------------------------------
# Discrepancy of the a-sequence against the Beatty line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscrepancyProfile:
    """Per-index data for the K^ell pair sequence up to some horizon.

    S[n] counts b-values strictly below a_n.  eps[n] is the defect
    S_n + S_{S_n} - n + ell.  lam[n] is a_n - floor((n+ell) phi).  The
    irrational quantity S_n - n/phi is never stored; inequalities about it
    are answered by Beatty floors of n - ell and n + ell.
    """

    ell: int
    a: np.ndarray
    b: np.ndarray
    S: np.ndarray
    eps: np.ndarray
    lam: np.ndarray


def discrepancy_profile(ell: int, horizon: int) -> DiscrepancyProfile:
    """Profile of K^ell pairs for all indices n <= horizon."""
    ell, horizon = _natural(ell, "ell", None), _natural(horizon, "horizon", None)
    if ell < 0 or horizon < 0:
        raise ValueError(f"ell and horizon must be naturals: {ell}, {horizon}")
    count = horizon + 1
    a, b = _mex_arrays(ell, count)
    S = _count_below(a, b, ell)
    eps = S[S]
    eps += S
    eps -= np.arange(-ell, count - ell)  # S_n + S_{S_n} - (n - ell)
    lam = a - floor_phi_range(horizon + ell)[ell:]
    return DiscrepancyProfile(ell=ell, a=a, b=b, S=S, eps=eps, lam=lam)


def _count_below(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    """S_n = #{k : b_k < a_n} for every n, for a strictly increasing b.

    The mex partition puts a_n - n - ell - 1 b-values below a_n.  That
    candidate is kept only where b[S - 1] < a_n <= b[S] proves it; every
    other index is counted by binary search.  A candidate outside
    1..len(b) - 1 reads both ends at one clipped index, so it never passes.
    So S is the exact count even if the recursion is not a partition, and
    the check it feeds does not rest on what it checks.
    """
    if not b.size:
        return b.searchsorted(a)
    S = np.arange(-ell - 1, -ell - 1 - a.size, -1)
    S += a
    bad = b.take(S - 1, mode="clip") >= a
    bad |= b.take(S, mode="clip") < a
    bad = np.flatnonzero(bad)
    S[bad] = b.searchsorted(a[bad])
    return S


def _bound_verdicts(ell: int, S, lam) -> tuple[np.ndarray, np.ndarray]:
    """Per-index truth of |S_n - n/phi| <= phi ell and |lam_n| <= sqrt(5) ell + 2.

    With 1/phi = phi - 1 the first is floor((n - ell) phi) < S_n + n <=
    floor((n + ell) phi), its lower end -(S_n + n) <= floor((ell - n) phi)
    for n <= ell; the second is |lam_n| <= isqrt(5 ell^2) + 2.  S and lam are
    only compared, never computed with, so no int64 value overflows.
    """
    N = len(S) - 1
    fp = floor_phi_range(max(N + ell, 0))
    n = np.arange(N + 1)
    m = min(ell, N) + 1  # the indices n <= ell
    lo = np.empty(N + 1, np.int64)
    lo[:m] = -n[:m] - fp[ell::-1][:m]
    lo[m:] = fp[1 : N + 2 - m] - n[m:] + 1
    hi = fp[ell : N + ell + 1] - n
    c = isqrt(5 * ell * ell) + 2
    return (lo <= S) & (S <= hi), (-c <= lam) & (lam <= c)


def check_discrepancy(profile: DiscrepancyProfile) -> CheckResult:
    """All identities and certified bounds of the profile at once.

    Checks, for every index: the base values and monotonicity of S; the
    defect eps equal to ell-n below index ell-1 and in {0,1} from ell-1 on;
    |S_n - n/phi| <= phi ell; and |lam_n| <= sqrt(5) ell + 2.  The two bounds
    are decided exactly with Beatty floors, so every int64 profile gets a
    verdict.  The bound is stated for ell >= 1; an ell 0 profile is refused.
    """
    ell = profile.ell
    if ell < 1:
        raise ValueError(f"the discrepancy bound is stated for ell >= 1, not {ell}")
    S, eps, lam = profile.S, profile.eps, profile.lam
    lo = ell - 1  # the base region is n < lo
    ok_d, ok_lam = _bound_verdicts(ell, S, lam)
    return _first_failure(
        f"ell={ell}, all indices through {len(S) - 1}",
        (S[: ell + 1] != 0, lambda k: (f"S must vanish through index {ell}", k)),
        (S[ell + 1 : ell + 2] != 1,
         lambda _: (f"S[{ell + 1}] = {S[ell + 1]}, expected 1", ell + 1)),
        (np.diff(S) < 0, lambda k: ("S decreases", k)),
        ((eps[lo:] < 0) | (eps[lo:] > 1),
         lambda k: (f"eps[{k + lo}] = {eps[k + lo]} outside {{0,1}}", k + lo)),
        (eps[:lo] != ell - np.arange(eps[:lo].size),
         lambda k: (f"eps[{k}] != ell - n in the base region", k)),
        (~ok_d, lambda k: (f"discrepancy bound fails at n={k}", k)),
        (~ok_lam, lambda k: (f"|lam| <= sqrt(5) ell + 2 fails at n={k}", k)),
    )


def density_certificate(a_n: int, n: int, num: int, den: int) -> bool:
    """Exact truth of |a_n/n - phi| <= num/den for positive n, den: den a_n -
    num n <= den n phi <= den a_n + num n, decided by the floor of den n phi."""
    a_n, num = _natural(a_n, "a_n", None), _natural(num, "num", None)
    n, den = _natural(n, "n", 1), _natural(den, "den", 1)
    return den * a_n - num * n <= floor_phi(den * n) < den * a_n + num * n


# ---------------------------------------------------------------------------
# Spectrum bounds from a prefix of an increasing sequence
# ---------------------------------------------------------------------------

def spectrum_bounds(prefix) -> tuple[Fraction, Fraction]:
    """The pair (max over i,k of (c_k - c_{k-i} - 1)/i,
                  min over i,k of (c_k - c_{k-i} + 1)/i) as exact rationals.

    A strictly increasing sequence embeds in some floor(n alpha + beta)
    exactly when the first quantity stays below the second in the limit;
    both are computed over every gap length i of the given prefix.
    """
    c, lim = list(prefix), np.iinfo(np.int64)
    if len(c) < 2 or not all(map(_is_int, c)):
        raise ValueError(f"need at least two integer values, got {c!r:.60}")
    if any(u >= v for u, v in zip(c, c[1:])):
        raise ValueError("prefix must be strictly increasing")
    if c[0] < lim.min or c[-1] > lim.max or int(c[-1]) - int(c[0]) > lim.max:
        raise ValueError(f"prefix {c[0]}..{c[-1]} leaves int64, or its differences do")
    c = np.array(c, np.int64)
    lower, upper = zip(*((Fraction(int(d.max()) - 1, i), Fraction(int(d.min()) + 1, i))
                         for i in range(1, c.size) for d in [c[i:] - c[:-i]]))
    return max(lower), min(upper)


# ---------------------------------------------------------------------------
# Partition words and counting
# ---------------------------------------------------------------------------

def morphic_coding_check(
    m: Morphism,
    c: Coding,
    offset: int,
    pp: PposSequence,
    horizon: int,
) -> CheckResult:
    """Compare a coded fixed point against a pair list, value by value.

    Position j of the coded word describes the value j + offset: the letter
    must be 'a' when the value is some a_n and 'b' when it is some b_n.  A
    value that both sequences claim agrees with no letter; the pairs say
    'ab' for it.  Raises ValueError when the pair list leaves a value below
    the horizon unclaimed, which signals a truncated list rather than a
    mismatch.
    """
    offset, horizon = _natural(offset, "offset"), _natural(horizon, "horizon")
    if horizon < offset:
        raise ValueError(f"horizon {horizon} below offset {offset}")
    length = horizon - offset + 1
    a, b = pp.arrays()
    want = np.zeros(length, np.int8)  # bit 1: some a_n, bit 2: some b_n
    want[a[(a >= offset) & (a <= horizon)] - offset] = 1
    want[b[(b >= offset) & (b <= horizon)] - offset] |= 2
    if not want.all():
        raise ValueError(f"pair list does not classify value "
                         f"{int(np.argmin(want)) + offset}; extend the list")
    word = _fixed_point(m, 0, length)
    code = np.array([1 if o == "a" else 2 if o == "b" else 0 for o in c.outputs], np.int8)

    def report(j):
        got, said = c(word[j]), ("", "a", "b", "ab")[want[j]]
        detail = f"value {j + offset}: word says {got!r}, pairs say {said!r}"
        return detail, (j + offset, got, said)

    return _first_failure(f"values {offset}..{horizon} all agree",
                          (code[word] != want, report))


def counting_check(pp: PposSequence, X: int) -> CheckResult:
    """Counting identities pi_A(x) + pi_B(x) = x - ell - 1 and pi_A(b_n) = a_n.

    pi counts sequence values strictly below x; the first identity is
    checked for every x with ell+1 < x <= X, the second for every pair with
    b_n <= X.
    """
    X = _natural(X, "X")
    if pp.ell is None:
        raise ValueError("counting identity applies to K rule-sets only")
    ell = pp.ell
    a, b = pp.arrays()
    if np.any(a[1:] <= a[:-1]) or np.any(b[1:] <= b[:-1]):  # searchsorted needs it
        raise ValueError("the a- and b-sequences must be strictly increasing")
    if a.size == 0 or a[-1] < X or b[-1] < X:
        raise ValueError(f"pair list horizon below X={X}")
    xs = np.arange(ell + 2, X + 1, dtype=np.int64)
    pi = np.searchsorted(a, xs, side="left") + np.searchsorted(b, xs, side="left")
    sel = b <= X
    piAb = np.searchsorted(a, b[sel], side="left")

    def sum_report(i):
        x = int(xs[i])
        return f"pi_A({x}) + pi_B({x}) = {pi[i]} != {x - ell - 1}", x

    return _first_failure(
        f"identities hold through x={X}",
        (pi != xs - ell - 1, sum_report),
        (piAb != a[sel], lambda k: (f"pi_A(b_{k}) = {piAb[k]} != a_{k} = {a[k]}", k)),
    )
