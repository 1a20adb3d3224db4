"""Closed-form, recursive, morphic and asymptotic descriptions of the P-sets.

Every rule-set the solver handles exactly also admits at least one compact
description: a Zeckendorf pattern for K^1, one table (CLOSED_FORMS) of
Beatty floors perturbed by an automatic sequence for K^1..K^4, a mex
recursion for every K^ell, explicit pair families for the blocking variants,
and partition words whose n-th letters 'a' and 'b' locate the n-th pair.
closed_form_table turns the K^1..K^4 and W^2/W^3 forms into the P-cells of a
box, the shape the solver's tables and the kernel checks use.  This module
implements all of them together with the finite checks that compare them to
each other and to solver ground truth, plus discrepancy and counting
quantities.

Comparisons against irrational thresholds (multiples of the golden ratio)
are decided by integer certificates, never by floating point.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .catalog import adjust_dfao
from .fibnum import (
    floor_phi,
    floor_phi2,
    floor_phi_range,
    rep_F,
    sqrt5_times_geq,
    sqrt5_times_leq,
)
from .games import CheckResult, GameSpec, PNTable, PposSequence, kspec, wspec
from .morphisms import (
    Coding,
    Morphism,
    eval_dfao_range,
    fixed_point_prefix,
    k2_adjust_prefix,
)

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
    """First count pairs of the recursion as int64 arrays (a, b)."""
    if ell < 0 or count < 0:
        raise ValueError(f"ell and count must be naturals: {ell}, {count}")
    # b_n < phi^2 n + 2 ell + 2, so this sieve never truncates a used value
    size = 3 * count + 2 * ell + 16
    used = bytearray(size)
    for v in range(ell + 1):
        used[v] = 1
    a_out = array("q", [0]) * count
    b_out = array("q", [0]) * count
    cand = 0
    for n in range(count):
        while used[cand]:
            cand += 1
        a = cand
        b = a + n + ell + 1
        used[a] = 1
        if b < size:
            used[b] = 1
        a_out[n] = a
        b_out[n] = b
    return np.frombuffer(a_out, np.int64), np.frombuffer(b_out, np.int64)


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

# Row ell holds (adjust, lag, alpha, beta): pair n of K^ell sits at Beatty
# index m = n + 2 as
#     (floor(m phi) + adj(m-lag) + alpha, floor(m phi^2) + adj(m-lag) + beta),
# where adjust(count) returns adj(0..count-1) and None stands for adj = 0.
CLOSED_FORMS = {
    1: (None, 0, -1, -1),
    2: (lambda count: np.asarray(k2_adjust_prefix(count)), 0, -1, 0),
    3: (lambda count: eval_dfao_range(adjust_dfao(3), count - 1), 1, -1, 1),
    4: (lambda count: eval_dfao_range(adjust_dfao(4), count - 1), 1, 0, 3),
}


def _closed_form_arrays(ell: int, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The CLOSED_FORMS pairs of K^ell at Beatty indices first..stop-1."""
    if ell not in CLOSED_FORMS:
        raise ValueError(f"no closed form for K^{ell}; closed forms cover ell 1..4")
    adjust, lag, alpha, beta = CLOSED_FORMS[ell]
    fp = floor_phi_range(stop - 1)[first:]
    adj = 0 if adjust is None else adjust(stop - lag)[first - lag :]
    return fp + adj + alpha, fp + np.arange(first, stop) + adj + beta


def _closed_form_pair(ell: int, n: int, shift: int) -> tuple[int, int]:
    """Pair n of a K^ell family that starts at Beatty index shift."""
    if n < 0:
        raise ValueError(f"negative pair index {n}")
    a, b = _closed_form_arrays(ell, n + shift, n + shift + 1)
    return int(a[0]), int(b[0])


def closed_form_pairs(ell: int, count: int) -> PposSequence:
    """First count non-terminal pairs of K^ell from its closed form."""
    if count < 0:
        raise ValueError(f"negative pair count {count}")
    return PposSequence(ell, np.column_stack(_closed_form_arrays(ell, 2, count + 2)))


def closed_form_table(spec: GameSpec, bound: int) -> PNTable:
    """The closed-form P-set of K^1..K^4 or W^2/W^3 on [0,bound]^2, as cells.

    K^ell: the CLOSED_FORMS pairs plus the terminal triangle x + y <= ell.
    W^k: the explicit pair families plus (0, 0).  Both orientations.
    """
    if bound < 0:
        raise ValueError(f"negative bound {bound}")
    if spec.variant == "K":
        # adj >= 0 and alpha >= -1 give a > m phi - 2, so every pair with
        # a <= bound has m < (bound + 2) / phi, below this stop
        a, b = _closed_form_arrays(spec.ell, 2, bound * 2 // 3 + 8)
    elif spec.k in (2, 3):  # {n, 2n+1} plus, for W^2, the all-even pairs
        n = np.arange(bound // 2 + 2)
        fp = floor_phi_range(bound // 2 + 1)
        a, b = (2 * fp + 2, 2 * (fp + n) + 2) if spec.k == 2 else (n, 2 * n + 2)
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
    if count <= 0:
        return ()
    _, lag, alpha, _ = CLOSED_FORMS[ell]
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
    u, v = (x, y) if x <= y else (y, x)
    if u < 0:
        raise ValueError(f"negative coordinate in ({x}, {y})")
    if u == 0 and v == 0:
        return True
    if v == 2 * u + 1:
        return True
    if u >= 2 and u % 2 == 0 and v % 2 == 0:
        p = (u - 2) // 2
        q = (v - 2) // 2
        # invert p = floor(n phi); the candidate is within 1 of p/phi
        n0 = floor_phi(p + 1) - (p + 1)
        for n in (n0 - 1, n0, n0 + 1):
            if n >= 0 and floor_phi(n) == p and floor_phi2(n) == q:
                return True
    return False


def ppos_W3(x: int, y: int) -> bool:
    """Membership in the W^3 P-set: (0,0) and the pairs {n, 2n+1}, {n, 2n+2}."""
    u, v = (x, y) if x <= y else (y, x)
    if u < 0:
        raise ValueError(f"negative coordinate in ({x}, {y})")
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
    are answered by integer certificates on S and n.
    """

    ell: int
    a: np.ndarray
    b: np.ndarray
    S: np.ndarray
    eps: np.ndarray
    lam: np.ndarray

    def __len__(self) -> int:
        return len(self.a)


def discrepancy_profile(ell: int, horizon: int) -> DiscrepancyProfile:
    """Profile of K^ell pairs for all indices n <= horizon."""
    if ell < 0 or horizon < 0:
        raise ValueError(f"ell and horizon must be naturals: {ell}, {horizon}")
    count = horizon + 1
    a, b = _mex_arrays(ell, count)
    S = np.searchsorted(b, a, side="left").astype(np.int64)
    eps = S + S[S] - np.arange(count) + ell
    fp = floor_phi_range(horizon + ell)
    lam = a - fp[ell : horizon + ell + 1]
    return DiscrepancyProfile(ell=ell, a=a, b=b, S=S, eps=eps, lam=lam)


# Largest |x| with 5 x^2 < 2^63 and largest |z| with z^2 < 2^63.
_SQRT5_X_MAX, _SQRT5_Z_MAX = 1_358_187_913, 3_037_000_499


def _sqrt5_leq_vec(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Elementwise truth of sqrt(5)*x <= z on int64 arrays; ValueError when
    a magnitude is too large to square exactly."""
    if ((x < -_SQRT5_X_MAX) | (x > _SQRT5_X_MAX)
            | (z < -_SQRT5_Z_MAX) | (z > _SQRT5_Z_MAX)).any():
        raise ValueError("sqrt(5) certificate operands exceed the exact int64 range")
    x2 = 5 * x * x
    z2 = z * z
    return np.where(x >= 0, (z >= 0) & (x2 <= z2), (z >= 0) | (z2 <= x2))


def _sqrt5_geq_vec(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    return _sqrt5_leq_vec(-x, -z)


def check_discrepancy(profile: DiscrepancyProfile) -> CheckResult:
    """All identities and certified bounds of the profile at once.

    Checks, for every index: the base values and monotonicity of S; the
    defect eps equal to ell-n below index ell-1 and in {0,1} from ell-1 on;
    the certificate for |S_n - n/phi| <= phi ell; and the certificate for
    |lam_n| <= sqrt(5) ell + 2.  Values too large for the exact int64
    certificates raise ValueError instead of giving a verdict.
    """
    ell = profile.ell
    S, eps, lam = profile.S, profile.eps, profile.lam
    N = len(S) - 1
    n = np.arange(N + 1)
    head = S[: ell + 1]
    if head.size and head.any():
        return CheckResult(False, f"S must vanish through index {ell}",
                           int(np.flatnonzero(head)[0]))
    if N >= ell + 1 and S[ell + 1] != 1:
        return CheckResult(False, f"S[{ell + 1}] = {int(S[ell + 1])}, expected 1",
                           ell + 1)
    if np.any(np.diff(S) < 0):
        bad = int(np.flatnonzero(np.diff(S) < 0)[0])
        return CheckResult(False, "S decreases", bad)
    lo = max(0, ell - 1)
    bad_eps = np.flatnonzero((eps[lo:] < 0) | (eps[lo:] > 1))
    if bad_eps.size:
        k = int(bad_eps[0]) + lo
        return CheckResult(False, f"eps[{k}] = {int(eps[k])} outside {{0,1}}", k)
    if lo and np.any(eps[:lo] != ell - n[:lo]):
        k = int(np.flatnonzero(eps[:lo] != ell - n[:lo])[0])
        return CheckResult(False, f"eps[{k}] != ell - n in the base region", k)
    # |S - n/phi| <= phi ell, certified after multiplying through by phi
    ok_d = _sqrt5_leq_vec(S - ell, 2 * n + 3 * ell - S) & _sqrt5_geq_vec(
        S + ell, 2 * n - 3 * ell - S
    )
    if not ok_d.all():
        k = int(np.flatnonzero(~ok_d)[0])
        return CheckResult(False, f"discrepancy bound fails at n={k}", k)
    ell_n = np.full_like(lam, ell)
    ok_lam = _sqrt5_geq_vec(ell_n, lam - 2) & _sqrt5_geq_vec(ell_n, -lam - 2)
    if not ok_lam.all():
        k = int(np.flatnonzero(~ok_lam)[0])
        return CheckResult(False, f"|lam| <= sqrt(5) ell + 2 fails at n={k}", k)
    return CheckResult(True, f"ell={ell}, all indices through {N}")


def density_certificate(a_n: int, n: int, num: int, den: int) -> bool:
    """Exact truth of |a_n/n - phi| <= num/den for positive n, den."""
    if n <= 0 or den <= 0:
        raise ValueError("n and den must be positive")
    lhs = den * n
    return sqrt5_times_geq(lhs, 2 * den * a_n - den * n - 2 * num * n) and sqrt5_times_leq(
        lhs, 2 * den * a_n - den * n + 2 * num * n
    )


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
    c = np.asarray(list(prefix), dtype=np.int64)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("need at least two values")
    if np.any(np.diff(c) <= 0):
        raise ValueError("prefix must be strictly increasing")
    lower = None
    upper = None
    for i in range(1, c.size):
        diffs = c[i:] - c[:-i]
        lo = Fraction(int(diffs.max()) - 1, i)
        hi = Fraction(int(diffs.min()) + 1, i)
        if lower is None or lo > lower:
            lower = lo
        if upper is None or hi < upper:
            upper = hi
    return lower, upper


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
    word = np.asarray(fixed_point_prefix(m, 0, length))
    code = np.array([1 if o == "a" else 2 if o == "b" else 0 for o in c.outputs], np.int8)
    bad = np.flatnonzero(code[word] != want)
    if bad.size:
        j = int(bad[0])
        got, said = c(word[j]), ("", "a", "b", "ab")[want[j]]
        return CheckResult(False, f"value {j + offset}: word says {got!r}, "
                           f"pairs say {said!r}", (j + offset, got, said))
    return CheckResult(True, f"values {offset}..{horizon} all agree")


def counting_check(pp: PposSequence, X: int) -> CheckResult:
    """Counting identities pi_A(x) + pi_B(x) = x - ell - 1 and pi_A(b_n) = a_n.

    pi counts sequence values strictly below x; the first identity is
    checked for every x with ell+1 < x <= X, the second for every pair with
    b_n <= X.
    """
    if pp.ell is None:
        raise ValueError("counting identity applies to K rule-sets only")
    ell = pp.ell
    a, b = pp.arrays()
    if a.size == 0 or a[-1] < X or b[-1] < X:
        raise ValueError(f"pair list horizon below X={X}")
    xs = np.arange(ell + 2, X + 1, dtype=np.int64)
    piA = np.searchsorted(a, xs, side="left")
    piB = np.searchsorted(b, xs, side="left")
    bad = np.flatnonzero(piA + piB != xs - ell - 1)
    if bad.size:
        x = int(xs[bad[0]])
        return CheckResult(
            False,
            f"pi_A({x}) + pi_B({x}) = {int(piA[bad[0]] + piB[bad[0]])} != {x - ell - 1}",
            x,
        )
    sel = b <= X
    piAb = np.searchsorted(a, b[sel], side="left")
    bad2 = np.flatnonzero(piAb != a[sel])
    if bad2.size:
        k = int(bad2[0])
        return CheckResult(
            False,
            f"pi_A(b_{k}) = {int(piAb[k])} != a_{k} = {int(a[k])}",
            k,
        )
    return CheckResult(True, f"identities hold through x={X}")
