"""Coded linear orders: omega, its reverse, and the rationals.

Each order interprets the naturals as its domain and supplies an exact
``less`` comparator.  The rational order uses a bijection between the
naturals and the rationals built on the Calkin-Wilf sequence: code 0 is
0, code 2k + 1 the k-th positive rational and code 2k + 2 its negative.

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
from dataclasses import dataclass
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
    if q == 0:
        return 0
    k = _calkin_wilf_index(abs(q))
    return 2 * k + 1 if q > 0 else 2 * k + 2


@dataclass(frozen=True)
class CodedOrder:
    name: str
    less: object  # Callable[[int, int], bool], strict order on codes


OMEGA = CodedOrder("omega", lambda a, b: a < b)
OMEGA_STAR = CodedOrder("omega_star", lambda a, b: a > b)
RATIONALS = CodedOrder(
    "rationals", lambda a, b: code_below(a, *rational_parts(b)))

ORDERS = {o.name: o for o in (OMEGA, OMEGA_STAR, RATIONALS)}


def order_sum(l1: CodedOrder, l2: CodedOrder) -> CodedOrder:
    """L1 followed by L2, with L1 on the even codes and L2 on the odd
    codes (code 2a is the L1-element a, code 2b+1 the L2-element b)."""

    def less(x: int, y: int) -> bool:
        if x % 2 == 0 and y % 2 == 0:
            return l1.less(x // 2, y // 2)
        if x % 2 == 1 and y % 2 == 1:
            return l2.less(x // 2, y // 2)
        return x % 2 == 0  # every L1 element precedes every L2 element

    return CodedOrder(f"sum({l1.name},{l2.name})", less)


def order_reverse(l: CodedOrder) -> CodedOrder:
    return CodedOrder(f"reverse({l.name})", lambda a, b: l.less(b, a))


def order_from_spec(spec: str) -> CodedOrder:
    """Parse a nested constructor expression like
    ``sum(omega,reverse(omega))`` into a coded order."""
    spec = spec.strip()
    if spec in ORDERS:
        return ORDERS[spec]
    if spec.startswith("reverse(") and spec.endswith(")"):
        return order_reverse(order_from_spec(spec[len("reverse("):-1]))
    if spec.startswith("sum(") and spec.endswith(")"):
        body = spec[len("sum("):-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return order_sum(order_from_spec(body[:i]),
                                 order_from_spec(body[i + 1:]))
        raise ValueError(f"missing summand in {spec!r}")
    raise ValueError(f"not an order spec: {spec!r}")
