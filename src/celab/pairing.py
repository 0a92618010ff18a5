"""Cantor pairing and the derived codecs used throughout the lab.

All codes are plain naturals.  The pairing is fixed bit-exactly: every
serialized program index and corpus file depends on it.
"""

from __future__ import annotations

import math
from itertools import accumulate


def pair(c: int, k: int) -> int:
    """Cantor pairing <c,k> = (c+k)(c+k+1)/2 + k."""
    s = c + k
    return s * (s + 1) // 2 + k


def pairs(cs, ks) -> list:
    """[pair(c, k) for c, k in zip(cs, ks)], with the formula spelled
    out so that a construction emitting a whole row or column of codes
    makes no call per code; hold one side fixed with itertools.repeat."""
    return [(c + k) * (c + k + 1) // 2 + k for c, k in zip(cs, ks)]


def row(x: int, n: int) -> list:
    """[<c, x> for c < n], by <c+1, x> = <c, x> + c + x + 1."""
    first = x * (x + 3) // 2
    return [*accumulate(range(x + 1, x + n), initial=first)] if n else []


def column(c: int, n: int) -> list:
    """[<c, k> for k < n], by <c, k+1> = <c, k> + c + k + 2."""
    first = c * (c + 1) // 2
    return [*accumulate(range(c + 2, c + n + 1), initial=first)] if n else []


def unpair(z: int) -> tuple[int, int]:
    """Inverse of pair, by closed form (exact integer sqrt)."""
    w = (math.isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    k = z - t
    return w - k, k


def triple(a: int, b: int, c: int) -> int:
    return pair(a, pair(b, c))


def untriple(z: int) -> tuple[int, int, int]:
    a, bc = unpair(z)
    b, c = unpair(bc)
    return a, b, c


def seq_encode(seq: tuple[int, ...]) -> int:
    """Bijection between finite tuples of naturals and naturals.

    () <-> 0, (h, *t) <-> pair(h, seq_encode(t)) + 1.
    """
    code = 0
    for x in reversed(seq):
        code = pair(x, code) + 1
    return code


def seq_decode(code: int) -> tuple[int, ...]:
    out = []
    while code > 0:
        h, code = unpair(code - 1)
        out.append(h)
    return tuple(out)


def set_encode(elems) -> int:
    """Finite set of naturals as a bitmask natural."""
    code = 0
    for x in elems:
        code |= 1 << x
    return code


def set_decode(code: int) -> frozenset[int]:
    out = []
    i = 0
    while code:
        if code & 1:
            out.append(i)
        code >>= 1
        i += 1
    return frozenset(out)
