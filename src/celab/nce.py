"""Iterated difference/union combinations of enumerable sets.

A combination is a nonempty tuple of programs ``(A1, ..., An)``
denoting ``((A1 - A2) | A3) - A4 ...`` folded left to right: even
positions subtract, odd positions (from the third on) add back.
Membership of a point can therefore change at most ``n`` times along
the stages, once per alternation level.  ``ltomega_encode`` codes
nonempty tuples of naturals bijectively.
"""

from __future__ import annotations

from .pairing import pair, unpair


def fold_point(slots) -> bool:
    """Whether a point lies in the fold, given whether it lies in each
    slot, in order."""
    acc = False
    for i, inside in enumerate(slots, start=1):
        if i == 1:
            acc = inside
        elif i % 2 == 0:
            acc = acc and not inside
        else:
            acc = acc or inside
    return acc


def nce_stage_value(ev, terms, s: int, bound=None) -> frozenset:
    """The fold evaluated on the stage-s approximations, or on their
    elements <= bound: the fold works point by point."""
    sets = [ev.approx(t, s) if bound is None else ev.upto(t, s, bound)
            for t in terms]
    return frozenset(x for x in frozenset().union(*sets)
                     if fold_point(x in a for a in sets))


def toggle_count(ev, terms, x: int, last_stage: int) -> int:
    """How often membership of x flips over stages 0..last_stage."""
    flips = 0
    prev = False
    for s in range(last_stage + 1):
        cur = x in nce_stage_value(ev, terms, s)
        if cur != prev:
            flips += 1
        prev = cur
    return flips


def toggle_bound(terms) -> int:
    """Monotone inputs flip the fold at most once per tuple slot."""
    return len(terms)


def ltomega_encode(t) -> int:
    """Bijection between nonempty tuples of naturals and naturals:
    iterated right-nested pairing with a length prefix."""
    if not t:
        raise ValueError("level tuples are nonempty")
    x = t[-1]
    for v in reversed(t[:-1]):
        x = pair(v, x)
    return pair(len(t) - 1, x)


def ltomega_decode(code: int) -> tuple:
    n, x = unpair(code)
    out = []
    for _ in range(n):
        h, x = unpair(x)
        out.append(h)
    out.append(x)
    return tuple(out)
