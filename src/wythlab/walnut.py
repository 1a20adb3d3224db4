"""Reader and writer for the Walnut word-automaton text format.

The canonical form written here is:

    msd_fib
    <state-id> <output>
    0 -> <state-id>
    1 -> <state-id>
    ...

with one block per state in state order, state 0 initial, and transition
lines in digit order.  Absent digits mean the transition is undefined.
Import of the exported text reproduces the automaton exactly.
"""
from __future__ import annotations

import re

from .fibnum import _is_int
from .morphisms import DFAO

__all__ = ["to_walnut", "from_walnut", "WalnutFormatError"]

_HEADER = "msd_fib"
# ASCII: int() would read any Unicode decimal digit that \d matches
_STATE_RE = re.compile(r"^(\d+)\s+(-?\d+)$", re.ASCII)
_EDGE_RE = re.compile(r"^([01])\s*->\s*(\d+)$", re.ASCII)


class WalnutFormatError(ValueError):
    """Raised when automaton text does not parse."""


def to_walnut(d: DFAO) -> str:
    """Render the automaton in canonical text form.

    Outputs must be integers; state numbering is preserved, which keeps the
    export of a promoted substitution aligned with its letter numbering.
    """
    lines = [_HEADER]
    for state, (out, edges) in enumerate(zip(d.outputs, d.transitions)):
        if not _is_int(out):  # numpy integers too; a bool, a float or a str is refused
            raise ValueError(f"state {state} output {out!r} is not an integer")
        lines.append(f"{state} {int(out)}")
        for digit, target in enumerate(edges):
            if target is not None:
                lines.append(f"{digit} -> {target}")
    return "\n".join(lines) + "\n"


def from_walnut(text: str) -> DFAO:
    """Parse automaton text in the canonical form."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != _HEADER:
        raise WalnutFormatError(f"expected leading '{_HEADER}' token")
    outputs: list[int] = []
    transitions: list[list[int | None]] = []
    current: list[int | None] | None = None
    for ln in lines[1:]:
        m = _STATE_RE.match(ln) or _EDGE_RE.match(ln)
        if not m:
            raise WalnutFormatError(f"unparseable line: {ln!r}")
        try:
            key, value = map(int, m.groups())  # state and output, or digit and target
        except ValueError:  # more digits than int() converts
            raise WalnutFormatError(f"number too long in line {ln[:30]!r}...") from None
        if m.re is _STATE_RE:
            if key != len(outputs):
                raise WalnutFormatError(
                    f"state {key} out of order (expected {len(outputs)})"
                )
            outputs.append(value)
            current = [None, None]
            transitions.append(current)
        elif current is None:
            raise WalnutFormatError(f"transition before any state: {ln!r}")
        elif current[key] is not None:
            raise WalnutFormatError(f"duplicate digit {key} transition")
        else:
            current[key] = value
    try:  # DFAO refuses an automaton with no state or a target past the last
        return DFAO(tuple(map(tuple, transitions)), tuple(outputs))
    except ValueError as exc:
        raise WalnutFormatError(str(exc)) from None
