"""Exact integer arithmetic in the Fibonacci numeration system.

Numbers are written in the Zeckendorf base F_0=1, F_1=2, F_{i+2}=F_{i+1}+F_i:
every natural has a unique representation with digits in {0,1}, no two
adjacent 1s, and no leading zero.  Left-shifting a representation (appending
a 0) multiplies by the golden ratio up to bounded error, which yields exact
formulas for the Beatty floors floor(n*phi) and floor(n*phi^2) without any
floating point.  `shift_range`, the array twin of `shift`, builds each
weight's block from an earlier prefix, and `floor_phi_range` is the shift
identity on it; one greedy digit pass over all rows gives the columns that
`zeckendorf_digits` and `morphisms.eval_dfao_range` read.  These floors
decide comparisons against multiples of phi and sqrt(5).  The module
also provides the Hofstadter G-sequence, mex, and reference sqrt(5) certificates.
"""
from __future__ import annotations

import numbers
from bisect import bisect_right
from collections.abc import Sequence
from math import isqrt

import numpy as np

__all__ = [
    "fib",
    "rep_F",
    "zeckendorf_digits",
    "val_F",
    "is_canonical",
    "shift",
    "shift_range",
    "floor_phi",
    "floor_phi2",
    "floor_phi_range",
    "is_floor_phi",
    "hofstadter_h",
    "mex",
    "sqrt5_times_leq",
    "sqrt5_times_geq",
]

_FIBS: list[int] = [1, 2]


def _is_int(v) -> bool:  # the type test spares a plain int the slower ABC test
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _natural(value, what: str, least: int | None = 0) -> int:
    """One rule for every natural argument: value, numpy integers too, as an int >= least
    (any int if least is None); a bool, a float, another non-integer or a smaller value
    is a ValueError naming it.  Hot callers skip the call for a plain int >= least."""
    if type(value) is not int:
        if not _is_int(value):
            raise ValueError(f"{what} {value!r} is not an integer")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"negative {what} {value}" if least == 0
                         else f"{what} must be >= {least}, got {value}")
    return value


def _fibs_through(n: int, i: int = 0) -> list[int]:
    """Extend the weight table until it holds fib(i) and a weight above n."""
    while len(_FIBS) <= i or _FIBS[-1] <= n:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS


def fib(i: int) -> int:
    """The i-th numeration weight: fib(0)=1, fib(1)=2, fib(2)=3, ..."""
    i = _natural(i, "index")
    return _fibs_through(0, i)[i]


def rep_F(n: int) -> str:
    """Greedy Zeckendorf representation of n, msd first; rep_F(0) = ''."""
    n = _natural(n, "argument")
    if n == 0:
        return ""
    fs = _fibs_through(n)
    i = bisect_right(fs, n) - 1
    digits = []
    for j in range(i, -1, -1):
        if fs[j] <= n:
            digits.append("1")
            n -= fs[j]
        else:
            digits.append("0")
    return "".join(digits)


def _digit_columns(n_max: int):
    """Yield (j, bool digits of weight fib(j) in rep_F(0..n_max)), msd first,
    zero-padded: one greedy pass over all rows at once."""
    fs = _fibs_through(n_max)
    rest = np.arange(n_max + 1)
    for j in range(bisect_right(fs, n_max) - 1, -1, -1):
        take = rest >= fs[j]
        np.subtract(rest, fs[j], out=rest, where=take)
        yield j, take


def zeckendorf_digits(n_max: int) -> np.ndarray:
    """(n_max+1, L) uint8 matrix whose row n is rep_F(n), msd first, zero-padded."""
    n_max = _natural(n_max, "argument")
    cols = [take for _, take in _digit_columns(n_max)]
    return np.array(cols, dtype=np.uint8).reshape(len(cols), n_max + 1).T


def _bit(d) -> int | None:
    """The digit d, "0", "1", 0 or 1, as 0 or 1; None for any other symbol.
    True and 1.0 equal 1 but are no digit, and "10" is no digit either."""
    if (isinstance(d, str) or _is_int(d)) and d in ("0", "1", 0, 1):
        return int(d)
    return None


def val_F(word: str | Sequence[int]) -> int:
    """Value of a 0/1 word under the Fibonacci weights (canonicity not required)."""
    total = 0
    for i, d in enumerate(reversed(word)):
        bit = _bit(d)
        if bit is None:
            raise ValueError(f"non-binary symbol {d!r} in word")
        if bit:
            total += fib(i)
    return total


def is_canonical(word: str | Sequence[int]) -> bool:
    """True iff the word is a valid greedy representation (of its own value):
    digits as val_F reads them, no leading 0 and no two adjacent 1s."""
    bits = [_bit(d) for d in word]
    if None in bits:
        return False
    s = "".join(map(str, bits))
    return s == "" or s[0] == "1" and "11" not in s


def shift(n: int) -> int:
    """Value of rep_F(n) with one zero appended."""
    return val_F(rep_F(n) + "0")


def shift_range(n_max: int, i: int = 1) -> np.ndarray:
    """Array of val_F(rep_F(n) + "0" * i) for n = 0..n_max; i=1 gives shift.
    rep_F(fib(j) + r) is rep_F(r) under a leading 1 when r < fib(j - 1), so
    out[fib(j) + r] = out[r] + fib(j + i): one slice per weight."""
    n_max, i = _natural(n_max, "argument"), _natural(i, "argument")
    top = bisect_right(_fibs_through(n_max), n_max)  # weights <= n_max
    if top and fib(top + i) > np.iinfo(np.int64).max:  # bounds every value
        raise ValueError(f"shift_range({n_max}, {i}) overflows int64")
    out = np.zeros(n_max + 1, dtype=np.int64)
    for j in range(top):
        lo, hi = fib(j), min(fib(j + 1), n_max + 1)
        out[lo:hi] = out[: hi - lo] + fib(j + i)
    return out


def floor_phi(n: int) -> int:
    """floor(n * phi) = floor((n + n sqrt(5)) / 2), by isqrt: independent of
    floor_phi_range, which it checks."""
    if type(n) is not int or n < 0:
        n = _natural(n, "argument")
    return (n + isqrt(5 * n * n)) // 2


def floor_phi2(n: int) -> int:
    """floor(n * phi^2) = floor(n * phi) + n, exactly, as phi^2 = phi + 1."""
    return floor_phi(n) + _natural(n, "argument")  # floor_phi has refused a non-natural


def floor_phi_range(n_max: int) -> np.ndarray:
    """Array of floor(n*phi) for n = 0..n_max, as shift(n - 1) + 1 from n = 1."""
    out = shift_range(n_max)
    out[1:] = out[:-1] + 1
    out[0] = 0
    return out


def is_floor_phi(n: int, m: int) -> bool:
    """Independent oracle: m == floor(n*phi), by integer arithmetic only.

    m <= n*phi < m+1 is equivalent to (2m-n)^2 < 5n^2 and (2m+2-n)^2 > 5n^2
    for n >= 1 (both sides of each comparison are integers; equality cannot
    occur because sqrt(5) is irrational).  m may be any integer.
    """
    if type(n) is not int or n < 0 or type(m) is not int:
        n, m = _natural(n, "argument"), _natural(m, "argument", None)
    if n == 0:
        return m == 0
    return (2 * m - n) ** 2 < 5 * n * n and (2 * m + 2 - n) ** 2 > 5 * n * n


def hofstadter_h(n: int) -> int:
    """Hofstadter G-sequence: h(n) = floor((n+1)/phi) = floor((n+1)*phi) - n - 1."""
    n = _natural(n, "argument")
    return floor_phi(n + 1) - n - 1


def mex(s) -> int:
    """Least natural number not contained in the finite set s."""
    present = set(s)
    m = 0
    while m in present:
        m += 1
    return m


def sqrt5_times_leq(x: int, z: int) -> bool:
    """Exact decision of sqrt(5)*x <= z for integers x, z.

    Equality sqrt(5)*x == z only happens at x == z == 0, so signs plus one
    squared comparison settle every case without rounding.  Both are read by
    _natural as any int, so a numpy integer's square cannot wrap.
    """
    x, z = _natural(x, "x", None), _natural(z, "z", None)
    if x >= 0:
        return z >= 0 and 5 * x * x <= z * z
    return z >= 0 or z * z <= 5 * x * x


def sqrt5_times_geq(x: int, z: int) -> bool:
    """Exact decision of sqrt(5)*x >= z for integers x, z."""
    return sqrt5_times_leq(-_natural(x, "x", None), -_natural(z, "z", None))
