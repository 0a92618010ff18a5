"""The rational order on codes.

A bijection between the naturals and the rationals, built on the
Calkin-Wilf sequence, codes the rationals: code 0 is 0, code 2k + 1 the
k-th positive rational and code 2k + 2 its negative.

One process-wide table holds each code's rational in lowest terms as
an integer pair ``(numerator, denominator)``, the denominator positive.
It covers a prefix of the codes and grows on demand, one entry from the
last by Newman's successor ``q' = 1 / (2 floor(q) - q + 1)`` (Calkin &
Wilf, *Recounting the rationals*, Amer. Math. Monthly 2000), so it
holds only codes up to the largest one asked for.  Comparisons are
exact integer tests by cross-multiplication: ``code_below`` compares a
code's rational with a fraction, and a ``CodeKey`` orders codes by
their rationals in a heap.  No floats, and no ``Fraction`` on the
comparison paths.
"""

from __future__ import annotations

import threading
from fractions import Fraction

# code -> numerator, code -> denominator: a prefix of the codes, the
# positive and negative rationals of each Calkin-Wilf entry side by side
_NUMS = [0, 1, -1]
_DENS = [1, 1, 1]
_GROWING = threading.Lock()


def _grow(code: int) -> None:
    """Extend the table through ``code``."""
    if code < 0:
        raise ValueError(f"negative rational code {code}")
    with _GROWING:
        nums, dens = _NUMS, _DENS
        n, d = nums[-2], dens[-2]  # the last positive rational
        while len(nums) <= code:
            # n/d -> 1 / (2 floor(n/d) - n/d + 1), again in lowest terms
            n, d = d, (2 * (n // d) + 1) * d - n
            # readers test the length of _NUMS: its entries come last
            dens += (d, d)
            nums += (n, -n)


def rational_parts(code: int) -> tuple:
    """The rational of a code as ``(numerator, denominator)`` in lowest
    terms, the denominator positive."""
    if code >= len(_NUMS) or code < 0:
        _grow(code)
    return _NUMS[code], _DENS[code]


def code_below(code: int, num: int, den: int) -> bool:
    """Whether the rational of ``code`` is below ``num / den``, for
    ``den > 0``."""
    if code >= len(_NUMS) or code < 0:
        _grow(code)
    return _NUMS[code] * den < num * _DENS[code]


class CodeKey:
    """A code that orders by its rational, for heaps and sorts: ``<``
    is the cross-multiplied test of ``code_below`` between two codes."""

    __slots__ = ("code", "num", "den")

    def __init__(self, code: int):
        self.code = code
        self.num, self.den = rational_parts(code)

    def __lt__(self, other: CodeKey) -> bool:
        return self.num * other.den < other.num * self.den


def rational_from_code(code: int) -> Fraction:
    """0 <-> 0, odd 2k+1 <-> k-th positive, even 2k+2 <-> k-th negative."""
    return Fraction(*rational_parts(code))


def _calkin_wilf_index(q: Fraction) -> int:
    """The position of a positive rational in the Calkin-Wilf sequence:
    its path from 1 in the Calkin-Wilf tree, read as binary digits."""
    num, den = q.numerator, q.denominator
    bits = []
    while (num, den) != (1, 1):
        if num > den:
            bits.append("1")
            num -= den
        else:
            bits.append("0")
            den -= num
    return int("1" + "".join(reversed(bits)), 2) - 1


def rational_to_code(q: Fraction) -> int:
    """The code of q, from its Calkin-Wilf path rather than the table
    (the tests' independent check of the table)."""
    if q == 0:
        return 0
    k = _calkin_wilf_index(abs(q))
    return 2 * k + 1 if q > 0 else 2 * k + 2
