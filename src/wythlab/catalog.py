"""Built-in substitution systems for the solved rule-sets.

Two families live here.  The adjustment systems generate the small integer
sequences that perturb the Beatty floors in the closed forms for K^2, K^3
and K^4 (the K^2 one is two-valued, the others three-valued).  The partition
systems generate words over {a, b} whose letters classify every value from
some offset onward as an a-value or a b-value of the corresponding rule-set;
the offset is the smallest non-terminal value, ell + 1.

All systems are fixed points seeded at letter 0, with letters numbered by
first appearance in the fixed point, so inference on the matching sequence
prefixes reproduces them verbatim.  The built-in automata (adjust_dfao,
builtin_dfaos) are promoted from these rows each time they are asked for,
so they follow the tables and nothing is memoised.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fibnum import _natural
from .morphisms import DFAO, Coding, Morphism, promote

__all__ = [
    "FIBONACCI_MORPHISM",
    "FIBONACCI_AB",
    "K2_ADJUST_MORPHISM",
    "K2_ADJUST_CODING",
    "K3_ADJUST_MORPHISM",
    "K3_ADJUST_CODING",
    "K4_ADJUST_MORPHISM",
    "K4_ADJUST_CODING",
    "ADJUST_SYSTEMS",
    "MorphicPartition",
    "PARTITION_SYSTEMS",
    "adjust_dfao",
    "builtin_dfaos",
]

# Fibonacci substitution a->ab, b->a over letters 0='a', 1='b'.
FIBONACCI_MORPHISM = Morphism(((0, 1), (0,)))
FIBONACCI_AB = Coding(("a", "b"))

# K^2 adjustment: six letters, values in {0,1}.
K2_ADJUST_MORPHISM = Morphism(((0, 1), (2,), (3, 1), (4, 5), (3, 5), (4,)))
K2_ADJUST_CODING = Coding((1, 0, 1, 1, 0, 1))

# K^3 adjustment: twelve letters, values in {0,1,2}.
K3_ADJUST_MORPHISM = Morphism(
    (
        (0, 1),
        (2,),
        (3, 4),
        (5, 6),
        (7,),
        (7, 8),
        (9,),
        (10, 11),
        (10,),
        (5, 6),
        (10, 11),
        (7,),
    )
)
K3_ADJUST_CODING = Coding((1, 2, 2, 1, 0, 1, 1, 2, 1, 2, 1, 1))

# K^4 adjustment: eighteen letters, values in {0,1,2}.
K4_ADJUST_MORPHISM = Morphism(
    (
        (0, 1),
        (2,),
        (3, 4),
        (5, 6),
        (7,),
        (8, 9),
        (10,),
        (11, 12),
        (13, 12),
        (13,),
        (14, 15),
        (14, 15),
        (14,),
        (7, 16),
        (14, 17),
        (11,),
        (13,),
        (11,),
    )
)
K4_ADJUST_CODING = Coding((1, 2, 2, 1, 0, 0, 0, 1, 1, 1, 2, 1, 1, 1, 1, 0, 0, 1))

ADJUST_SYSTEMS: dict[int, tuple[Morphism, Coding]] = {
    2: (K2_ADJUST_MORPHISM, K2_ADJUST_CODING),
    3: (K3_ADJUST_MORPHISM, K3_ADJUST_CODING),
    4: (K4_ADJUST_MORPHISM, K4_ADJUST_CODING),
}


@dataclass(frozen=True)
class MorphicPartition:
    """Word over {a,b} partitioning values >= offset into a- and b-values."""

    morphism: Morphism
    coding: Coding
    offset: int


# Classic Wythoff: the Fibonacci word itself, values from 1.
_W_PARTITION = MorphicPartition(FIBONACCI_MORPHISM, FIBONACCI_AB, 1)

# K^1: five letters, values from 2.
_K1_PARTITION = MorphicPartition(
    Morphism(((0, 1), (2,), (3, 4), (3, 1), (2,))),
    Coding(("a", "a", "b", "a", "b")),
    2,
)

# K^2: sixteen letters, values from 3.
_K2_PARTITION = MorphicPartition(
    Morphism(
        (
            (0, 1),
            (2,),
            (3, 4),
            (5, 6),
            (7,),
            (8, 9),
            (10,),
            (11, 12),
            (10, 13),
            (14,),
            (10, 13),
            (5, 6),
            (15,),
            (5,),
            (8, 9),
            (11, 12),
        )
    ),
    Coding(
        ("a", "a", "a", "b", "a", "b", "a", "b", "a", "a", "b", "a", "a", "a", "a", "a")
    ),
    3,
)

# K^3: twenty-two letters, values from 4.
_K3_PARTITION = MorphicPartition(
    Morphism(
        (
            (0, 1),
            (2,),
            (3, 4),
            (5, 6),
            (7,),
            (8, 9),
            (10,),
            (11, 12),
            (13, 12),
            (14,),
            (15, 16),
            (14, 17),
            (18,),
            (14, 17),
            (19, 12),
            (18, 20),
            (21,),
            (18,),
            (13, 12),
            (19, 12),
            (14,),
            (15, 16),
        )
    ),
    Coding(
        (
            "a", "a", "a", "a", "b", "a", "b", "a", "b", "a", "b",
            "a", "a", "b", "a", "b", "a", "b", "a", "b", "b", "a",
        )
    ),
    4,
)

# Keyed by terminal threshold; 0 is classic Wythoff.
PARTITION_SYSTEMS: dict[int, MorphicPartition] = {
    0: _W_PARTITION,
    1: _K1_PARTITION,
    2: _K2_PARTITION,
    3: _K3_PARTITION,
}


def adjust_dfao(ell: int) -> DFAO:
    """Automaton computing the K^ell adjustment sequence, ell in {2,3,4},
    promoted from its ADJUST_SYSTEMS row on each call."""
    ell = _natural(ell, "ell", None)
    if ell not in ADJUST_SYSTEMS:
        raise ValueError(f"no adjustment system for ell={ell}")
    return promote(*ADJUST_SYSTEMS[ell])


def _partition_dfao(part: MorphicPartition) -> DFAO:
    # Walnut outputs must be integers; print 'a' as 1 and 'b' as 2.
    numeric = Coding(tuple(1 if s == "a" else 2 for s in part.coding.outputs))
    return promote(part.morphism, numeric)


def builtin_dfaos() -> dict[str, DFAO]:
    """Named automata available to the command-line export and eval tools."""
    out = {f"k{ell}-adjust": adjust_dfao(ell) for ell in ADJUST_SYSTEMS}
    for ell, part in PARTITION_SYSTEMS.items():
        out[f"k{ell}-partition" if ell else "wythoff-partition"] = _partition_dfao(part)
    return out
