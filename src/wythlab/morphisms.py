"""Substitutions, codings, automata with output, and morphism inference.

A golden-ratio substitution maps every letter to a word of length 1 or 2.
Its fixed point can be read off an automaton fed the Zeckendorf digits of
the position, msd first: the classical promotion of the substitution to a
DFAO.  The inference heuristic runs the other way, recovering a candidate
substitution and coding from a sequence prefix by grouping positions whose
iterated image blocks agree.

`eval_dfao` answers n < fib(22) = 46,368, the widest weight within 2**16
entries, with one lookup in an automaton's lazily built start table, the
state reached from state 0 on each such rep_F(n), whatever the state count;
a larger n is walked greedily off the integer, msd first, with no string.
`eval_dfao_range` steps all of 0..N at once on the greedy digit columns of
`fibnum`, each column only on the rows that have started.  They share no
code, so one checks the other; neither reads the substitution.

A fixed point is built as an int array by iterating the substitution
alone: each round appends the images of all pending letters at once
through a flat table of the images, and while few letters are pending the
word grows as a list.  It reads no digits, so it checks the automata.

Positions and image blocks are connected through the numeration system:
appending i zeros to rep_F(n) gives the first position of the i-th iterated
image of the letter at position n, and rep_F(n+1) followed by i zeros is one
past its last position; `shift_range(L, i)` lists them for every n.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .fibnum import (_digit_columns, _fibs_through, _is_int, _natural, fib,
                     floor_phi_range, rep_F, shift_range, val_F)

__all__ = [
    "Morphism",
    "Coding",
    "DFAO",
    "fixed_point_prefix",
    "promote",
    "eval_dfao",
    "eval_dfao_range",
    "block_span",
    "InferenceError",
    "InferenceResult",
    "infer_morphism",
    "infer_morphism_auto",
    "k2_adjust",
    "k2_adjust_prefix",
    "k2_adjust_prefix_by_recurrence",
]

Word = tuple[int, ...]

# An automaton's start table (DFAO._starts) covers n < fib(w), the widest
# weight within 2**16 entries, whatever the automaton's state count.
_START_DIGITS = bisect_right(_fibs_through(1 << 16), 1 << 16) - 1  # w = 22
_STARTS = fib(_START_DIGITS)  # 46,368


@dataclass(frozen=True)
class Morphism:
    """Substitution over letters 0..k-1, letter i mapping to images[i]."""

    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        k = len(self.images)
        if k == 0:
            raise ValueError("a morphism needs at least one letter")
        for i, img in enumerate(self.images):
            if len(img) == 0:
                raise ValueError(f"letter {i} has an empty image")
            for c in img:  # a letter is an int, not a bool or a float, below k
                if not (_is_int(c) and 0 <= c < k):
                    raise ValueError(f"image of letter {i} holds {c!r}, not a letter "
                                     f"0..{k - 1}: {img}")

    @property
    def alphabet_size(self) -> int:
        return len(self.images)

    def is_golden(self) -> bool:
        """True iff every image has length 1 or 2."""
        return all(len(img) in (1, 2) for img in self.images)

    def apply(self, word: Sequence[int]) -> Word:
        return tuple(c for letter in word for c in self.images[letter])


@dataclass(frozen=True)
class Coding:
    """Letter-to-symbol map, total on letters 0..len(outputs)-1."""

    outputs: tuple

    def __call__(self, letter: int):
        return self.outputs[letter]

    def map(self, word: Sequence[int]) -> tuple:
        return tuple(self.outputs[c] for c in word)


@dataclass(frozen=True)
class DFAO:
    """Automaton with output; state s reads digit d into transitions[s][d].

    A missing transition is None.  Evaluation feeds the greedy digits of n,
    rep_F(n), msd first from state 0 and returns the output of the final state.
    """

    transitions: tuple[tuple[int | None, int | None], ...]
    outputs: tuple

    def __post_init__(self) -> None:
        n = len(self.transitions)
        if n == 0:
            raise ValueError("an automaton needs at least one state")
        if len(self.outputs) < n:
            raise ValueError(f"{n} states but {len(self.outputs)} outputs "
                             f"{self.outputs!r}; each state needs one")
        for s, row in enumerate(self.transitions):  # a target is an int, not a bool
            if len(row) != 2 or not all(t is None or _is_int(t) and 0 <= t < n
                                        for t in row):
                raise ValueError(f"state {s} has transitions {row!r}, not two "
                                 f"entries each None or a state 0..{n - 1}")

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    def __getstate__(self) -> dict:  # the start table is a cache, not state
        return {"transitions": self.transitions, "outputs": self.outputs}

    @cached_property
    def _starts(self) -> list[int]:
        """The state 0 reaches on rep_F(r), for every r < _STARTS; the sink,
        state_count, marks a walk past a missing transition.

        rep_F(shift(p) + e) is rep_F(p) followed by the digit e, and e = 1 only
        where rep_F(p) ends in 0, where shift(p + 1) - shift(p) is 2: the states
        on the words of j + 1 digits are two scatters off those on j digits."""
        sink = len(self.transitions)
        zero, one = (np.array([sink if t is None else t for t in col] + [sink])
                     for col in zip(*self.transitions))
        starts = np.zeros(_STARTS, dtype=int)  # rep_F(0) is empty
        starts[1] = one[0]
        pos = shift_range(fib(_START_DIGITS - 1))
        for j in range(1, _START_DIGITS):
            lo, hi = fib(j - 1), fib(j)  # the words of j digits
            at, state = pos[lo:hi], starts[lo:hi]
            starts[at] = zero[state]
            free = pos[lo + 1 : hi + 1] - at == 2
            starts[at[free] + 1] = one[state[free]]
        return starts.tolist()


def fixed_point_prefix(m: Morphism, seed: int, length: int) -> Word:
    """First `length` letters of the fixed point of m starting with `seed`.

    Requires m(seed) to start with seed and have length >= 2, which makes the
    iteration limit well defined.
    """
    return tuple(_fixed_point(m, seed, length).tolist())


# While fewer letters than this are pending, the word grows as a list, this
# many letters at a time: a morphism whose word grows by one letter a round,
# such as 0 -> 01, 1 -> 1, would otherwise pay a numpy round per letter.
_LIST_BLOCK = 256


def _fixed_point(m: Morphism, seed: int, length: int) -> np.ndarray:
    """fixed_point_prefix as an int array, built by iterating m alone.

    The word is m applied to its first `done` letters.  A round appends the
    images of all the pending letters after those at once, through a flat
    table of m's images, so the word grows by m's growth factor a round.
    """
    length, seed = _natural(length, "length", 1), _natural(seed, "seed")
    if seed >= m.alphabet_size:
        raise ValueError(f"seed {seed} is not a letter 0..{m.alphabet_size - 1}")
    images = m.images
    first = images[seed]
    if first[0] != seed or len(first) < 2:
        raise ValueError(f"letter {seed} is not prolongable: image {first}")
    w, done = list(first), 1
    reader = iter(w)  # also reads the letters appended while it runs
    next(reader)
    while len(w) < length and len(w) - done < _LIST_BLOCK:
        for c in islice(reader, _LIST_BLOCK):
            w.extend(images[c])
        done += _LIST_BLOCK
    if len(w) >= length:
        return np.array(w[:length], np.intp)
    sizes = np.array([len(img) for img in images], np.intp)
    flat = np.array([c for img in images for c in img], np.intp)
    ends = np.cumsum(sizes)  # letter i's image is flat[ends[i] - sizes[i] : ends[i]]
    word = np.empty(length, np.intp)
    word[: len(w)] = w
    filled = len(w)
    while filled < length:  # each pending letter gives at least one letter
        letters = word[done : min(filled, done + length - filled)]
        done += letters.size
        size = sizes[letters]
        stop = np.cumsum(size)  # one past each image's place in the round
        take = np.repeat(ends[letters] - stop, size)
        take += np.arange(stop[-1])
        new = flat[take[: length - filled]]
        word[filled : filled + new.size] = new
        filled += new.size
    return word


def promote(m: Morphism, c: Coding) -> DFAO:
    """Build the position automaton of a golden substitution with coding c.

    Letter x with image de gets edges x --0--> d and x --1--> e; an image of
    length one gives only the 0-edge.
    """
    if not m.is_golden():
        raise ValueError("image lengths must all be 1 or 2")
    if len(c.outputs) < m.alphabet_size:
        raise ValueError(f"coding {c.outputs} has {len(c.outputs)} outputs "
                         f"for {m.alphabet_size} letters")
    trans = []
    for img in m.images:
        if len(img) == 2:
            trans.append((img[0], img[1]))
        else:
            trans.append((img[0], None))
    return DFAO(transitions=tuple(trans), outputs=tuple(c.outputs))


def eval_dfao(d: DFAO, n: int):
    """Output of d on input rep_F(n), msd first, read off n with no string.

    n < 46,368 = fib(22), the widest weight within 2**16 entries, is one
    lookup in d's start table, which the first such call builds; a larger n,
    or one whose entry is the sink of a missing transition, is walked greedily
    digit by digit, and that walk raises the error naming the transition.  It
    shares no code with the eval_dfao_range it checks."""
    if type(n) is not int or n < 0:
        n = _natural(n, "argument")
    if n < _STARTS:
        state = d._starts[n]
        if state < len(d.transitions):
            return d.outputs[state]
    return d.outputs[_walk(d, n)]


def _walk(d: DFAO, n: int) -> int:
    """State d reaches from state 0 on n's greedy digits, msd first."""
    transitions = d.transitions
    fs = _fibs_through(n)
    rest = n
    state = 0
    for j in range(bisect_right(fs, n) - 1, -1, -1):
        if fs[j] <= rest:
            rest -= fs[j]
            digit = 1
        else:
            digit = 0
        nxt = transitions[state][digit]
        if nxt is None:
            raise ValueError(
                f"undefined transition from state {state} on {digit} at n={n}"
            )
        state = nxt
    return state


def eval_dfao_range(d: DFAO, n_max: int) -> np.ndarray:
    """Array of eval_dfao(d, n) for n = 0..n_max, one digit column at a time.

    The column of weight fib(j) steps only the rows n >= fib(j), the ones that
    have started.  A missing transition raises the ValueError eval_dfao gives
    for the least such n.  Outputs of mixed types stay objects, as eval_dfao's.
    """
    n_max = _natural(n_max, "argument")
    sink = d.state_count  # absorbs every missing transition
    table = np.array([[sink if t is None else t for t in edges]
                      for edges in d.transitions] + [[sink, sink]])
    state = np.zeros(n_max + 1, dtype=np.int64)
    for j, col in _digit_columns(n_max):
        lo = fib(j)
        state[lo:] = table[state[lo:], col[lo:].view(np.uint8)]
    stuck = np.flatnonzero(state == sink)
    if stuck.size:
        eval_dfao(d, int(stuck[0]))  # raises the scalar error for that n
    return _output_table(d.outputs)[state]


def _output_table(outputs) -> np.ndarray:
    """outputs as an array to index by state or letter; outputs of mixed
    types stay objects, which numpy would cast to one type."""
    mixed = len(set(map(type, outputs))) > 1
    return np.array(outputs, object if mixed else None)


def block_span(i: int, n: int) -> tuple[int, int]:
    """First and last position of the i-th iterated image of the letter at n.

    Returns (val_F(rep_F(n)*0^i), val_F(rep_F(n+1)*0^i) - 1).
    """
    i = _natural(i, "iteration depth", 1)
    zeros = "0" * i
    return val_F(rep_F(n) + zeros), val_F(rep_F(n + 1) + zeros) - 1


class InferenceError(ValueError):
    """Raised when no consistent substitution explains the prefix."""


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of morphism inference on a sequence prefix.

    `structural` relabels each letter 'a' or 'b' by its image length; when
    `is_fibonacci_conjugate` is true that relabeling intertwines the inferred
    substitution with the Fibonacci substitution a->ab, b->a, which is the
    structural sanity check for a genuine golden substitution fixed point.
    """

    morphism: Morphism
    coding: Coding
    structural: Coding
    t: int
    typed_positions: int
    is_fibonacci_conjugate: bool


def infer_morphism(prefix: Sequence, t: int) -> InferenceResult:
    """Infer a substitution and coding whose coded fixed point is `prefix`.

    Positions are grouped by the (t+1)-tuple of their value and their first
    t iterated-image blocks; distinct tuples become letters, numbered by
    first appearance.  The image of a letter is read off the depth-1 block of
    any position carrying it; all carriers must agree, and regenerating the
    fixed point must reproduce the prefix exactly.  Failures raise
    InferenceError with advice.
    """
    t = _natural(t, "t", 1)
    seq = tuple(prefix)
    L = len(seq)
    # the depth-t block of position 1 ends at fib(t+1) - 1; fib(t+1) > L is read
    # off the digit count of L, which builds no weights beyond L
    if t + 1 >= len(rep_F(L)):
        raise InferenceError(
            f"prefix of length {L} types no positions at depth t={t}; "
            "provide a longer prefix"
        )
    # typed n: depth-t block inside seq; starts[i-1][n]: start of its depth-i block
    n_typed = int(np.searchsorted(shift_range(L, t)[1:], L, side="right"))
    starts = [shift_range(n_typed, i).tolist() for i in range(1, t + 1)]
    type_index: dict[tuple, int] = {}
    letter_of: list[int] = []
    for n in range(n_typed):
        tup = (seq[n],) + tuple(seq[s[n] : s[n + 1]] for s in starts)
        letter_of.append(type_index.setdefault(tup, len(type_index)))
    images: dict[int, Word] = {}
    for n, (a, b) in enumerate(zip(starts[0], starts[0][1:])):
        if b > n_typed:
            continue
        img = tuple(letter_of[a:b])
        letter = letter_of[n]
        known = images.setdefault(letter, img)
        if known != img:
            raise InferenceError(
                f"letter {letter} has conflicting images {known} and {img} "
                f"(witness position {n}); increase t or lengthen the prefix"
            )
    undetermined = sorted(set(range(len(type_index))) - set(images))
    if undetermined:
        raise InferenceError(
            f"no in-range image block for letters {undetermined}; "
            "lengthen the prefix"
        )
    morphism = Morphism(tuple(images[i] for i in range(len(type_index))))
    coding = Coding(tuple(tup[0] for tup in type_index))
    regenerated = coding.map(fixed_point_prefix(morphism, letter_of[0], L))
    if regenerated != seq:
        first_bad = next(i for i in range(L) if regenerated[i] != seq[i])
        raise InferenceError(
            f"inferred substitution diverges from the prefix at position "
            f"{first_bad}; increase t or lengthen the prefix"
        )
    structural = Coding(
        tuple("a" if len(img) == 2 else "b" for img in morphism.images)
    )
    conjugate = all(
        "".join(structural(c) for c in morphism.images[i])
        == ("ab" if structural(i) == "a" else "a")
        for i in range(morphism.alphabet_size)
    )
    return InferenceResult(
        morphism=morphism,
        coding=coding,
        structural=structural,
        t=t,
        typed_positions=n_typed,
        is_fibonacci_conjugate=conjugate,
    )


_AUTO_DEPTHS = range(2, 7)


def infer_morphism_auto(prefix: Sequence) -> InferenceResult:
    """Try type depths 2..6 in turn until inference is consistent."""
    last: InferenceError | None = None
    for t in _AUTO_DEPTHS:
        try:
            return infer_morphism(prefix, t)
        except InferenceError as exc:
            last = exc
    raise InferenceError(
        f"no consistent substitution found for t in "
        f"[{_AUTO_DEPTHS[0]}, {_AUTO_DEPTHS[-1]}]; "
        f"last failure: {last}"
    )


# ---------------------------------------------------------------------------
# The two-valued adjustment sequence appearing in the K^2 characterization.
# Primary definition: value 1 unless floor(n*phi) = floor(m*phi^2) + 1 for
# some m, in which case the value flips that of m.  The m-search needs no
# seeded base: n=0 finds no m, n=1 finds m=0.
# ---------------------------------------------------------------------------


def k2_adjust_prefix(count: int) -> tuple[int, ...]:
    """First `count` values from the primary definition, by exact search.

    All targets floor(n phi) - 1 are looked up among floor(m phi^2) at once.
    A match has m < n, so one pass in increasing n reads only settled values.
    """
    if _natural(count, "count", None) <= 0:
        return ()
    fp = floor_phi_range(count)
    fp2 = fp + np.arange(count + 1)
    target = fp[:count] - 1
    m = np.searchsorted(fp2, target)
    hit = np.flatnonzero(fp2[m] == target)
    out = [1] * count
    for n, k in zip(hit.tolist(), m[hit].tolist()):
        out[n] = 1 - out[k]
    return tuple(out)


def k2_adjust(n: int) -> int:
    """Value at n from the primary definition."""
    return k2_adjust_prefix(_natural(n, "argument") + 1)[n]


def k2_adjust_prefix_by_recurrence(count: int) -> tuple[int, ...]:
    """First `count` values from the Hofstadter-recurrence form.

    Independent oracle: value at n (n >= 2) flips the value at h(n-1) when
    h(n-2) < h(n-1) and is 1 otherwise, with h the Hofstadter G-sequence and
    base values 1, 0.
    """
    if _natural(count, "count", None) <= 0:
        return ()
    h = [0] * max(count, 2)
    for n in range(1, count):
        h[n] = n - h[h[n - 1]]
    out = [1, 0][:count] + [0] * max(0, count - 2)
    for n in range(2, count):
        out[n] = 1 - out[h[n - 1]] if h[n - 2] < h[n - 1] else 1
    return tuple(out)
