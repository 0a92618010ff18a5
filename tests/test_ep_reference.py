"""The int-bitset ``EP`` against a frozenset reference.

``RefEP`` is the eventually periodic analysis as it was before bitsets:
``head`` and ``residues`` are frozensets, every combine samples a Python
predicate at each point below the threshold and at each residue of the
lcm period, and the result is re-minimised by comparing residue sets.
Both must agree on the canonical form and on every query.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from hypothesis import given, settings, strategies as st

from celab.descriptors import (EP, UnsupportedDescriptor, _tile, ep_combine,
                               ep_difference, ep_intersection, ep_union)


@dataclass(frozen=True)
class RefEP:
    """x < threshold: x in head; x >= threshold: x % period in residues."""

    threshold: int
    period: int
    head: frozenset
    residues: frozenset  # absolute residues mod period

    @staticmethod
    def make(threshold: int, period: int, head, residues) -> "RefEP":
        head = frozenset(head)
        residues = frozenset(residues)
        period, residues = _minimal_period(period, residues)
        t = threshold
        head = frozenset(x for x in head if x < t)
        while t > 0 and ((t - 1) in head) == ((t - 1) % period in residues):
            head = head - {t - 1}
            t -= 1
        return RefEP(t, period, head, residues)

    def member(self, x: int) -> bool:
        if x < self.threshold:
            return x in self.head
        return x % self.period in self.residues

    @property
    def is_finite(self) -> bool:
        return not self.residues

    @property
    def is_empty(self) -> bool:
        return self.is_finite and not self.head

    @property
    def is_full(self) -> bool:
        return self.threshold == 0 and len(self.residues) == self.period

    def complement(self) -> "RefEP":
        return ref_combine(ref_full(), self, lambda a, b: a and not b)

    @property
    def is_cofinite(self) -> bool:
        return self.complement().is_finite

    def elements(self) -> frozenset:
        if not self.is_finite:
            raise UnsupportedDescriptor("infinite set has no element list")
        return self.head

    def cardinality(self):
        return len(self.head) if self.is_finite else math.inf

    def min(self) -> Optional[int]:
        small = min(self.head) if self.head else None
        if self.residues:
            first = min(_first_at_least(self.threshold, r, self.period)
                        for r in self.residues)
            small = first if small is None else min(small, first)
        return small

    def max(self) -> Optional[int]:
        if not self.is_finite:
            raise UnsupportedDescriptor("max of infinite set")
        return max(self.head) if self.head else None

    def density(self) -> Fraction:
        return Fraction(len(self.residues), self.period)

    def gcd_value(self):
        g = 0
        for x in self.head:
            g = math.gcd(g, x)
        for r in self.residues:
            a = _first_at_least(self.threshold, r, self.period)
            g = math.gcd(g, math.gcd(a, self.period))
        return math.inf if g == 0 else g

    def gcd_witness(self) -> int:
        w = 0
        for x in self.head:
            w = max(w, x)
        for r in self.residues:
            x0 = _first_at_least(self.threshold, r, self.period)
            w = max(w, x0 + self.period)
        return w

    def lcm_value(self):
        if not self.is_finite:
            return math.inf
        l = 1
        for x in self.head:
            if x > 0:
                l = l * x // math.gcd(l, x)
        return l

    def median_key(self):
        if self.is_empty:
            return ("empty",)
        if not self.is_finite:
            return ("inf",)
        xs = sorted(self.head)
        n = len(xs)
        return ("med", Fraction(xs[(n - 1) // 2] + xs[n // 2], 2))

    def e0_key(self):
        if self.is_finite:
            return ("fin",)
        return ("inf",) + _minimal_period(self.period, self.residues)

    def triadic_sum(self) -> Fraction:
        total = Fraction(0)
        for x in self.head:
            total += Fraction(1, 3 ** (x + 1))
        for r in self.residues:
            a = _first_at_least(self.threshold, r, self.period)
            p = self.period
            total += Fraction(3 ** p, (3 ** p - 1)) * Fraction(1, 3 ** (a + 1))
        return total


def _minimal_period(period: int, residues: frozenset) -> tuple:
    for q in range(1, period + 1):
        if period % q:
            continue
        classes = frozenset(r % q for r in residues)
        if len(classes) * (period // q) == len(residues):
            return q, classes
    raise AssertionError("unreachable: period itself always qualifies")


def _first_at_least(t: int, r: int, p: int) -> int:
    return t + (r - t) % p


def ref_full() -> RefEP:
    return RefEP.make(0, 1, frozenset(), {0})


def ref_combine(a: RefEP, b: RefEP, op) -> RefEP:
    t = max(a.threshold, b.threshold)
    p = a.period * b.period // math.gcd(a.period, b.period)
    head = frozenset(x for x in range(t) if op(a.member(x), b.member(x)))
    residues = frozenset((t + i) % p for i in range(p)
                         if op(a.member(t + i), b.member(t + i)))
    return RefEP.make(t, p, head, residues)


COMBINES = [
    (ep_union, lambda x, y: x or y),
    (ep_intersection, lambda x, y: x and y),
    (ep_difference, lambda x, y: x and not y),
    (lambda a, b: ep_combine(a, b, operator.xor), lambda x, y: x != y),
]


def positions(bits):
    return frozenset(i for i in range(bits.bit_length()) if bits >> i & 1)


def mask(xs):
    return sum(1 << x for x in xs)


def as_bits(ref: RefEP) -> tuple:
    return (ref.threshold, ref.period, mask(ref.head), mask(ref.residues))


def as_tuple(ep: EP) -> tuple:
    return (ep.threshold, ep.period, ep.head, ep.residues)


def outcome(f):
    try:
        return f()
    except UnsupportedDescriptor:
        return UnsupportedDescriptor


@st.composite
def raw_eps(draw):
    """(threshold, period, head, residues) as make takes them: head bits
    may reach past the threshold and residues past the period."""
    t = draw(st.integers(0, 24))
    p = draw(st.integers(1, 12))
    head = draw(st.integers(0, (1 << (t + 4)) - 1))
    if draw(st.booleans()):
        # a pattern of a smaller period tiled up to p
        q = draw(st.sampled_from([d for d in range(1, p + 1) if p % d == 0]))
        pattern = draw(st.integers(0, (1 << q) - 1))
        residues = sum(pattern << k for k in range(0, p, q))
    else:
        residues = draw(st.integers(0, (1 << (p + 2)) - 1))
    return t, p, head, residues


def both(raw):
    t, p, head, residues = raw
    ref = RefEP.make(t, p, positions(head), positions(residues & ((1 << p) - 1)))
    return EP.make(t, p, head, residues), ref


@settings(max_examples=300, deadline=None)
@given(raw_eps(), raw_eps())
def test_bitset_ep_agrees_with_the_frozenset_reference(raw_a, raw_b):
    pairs = [both(raw_a), both(raw_b)]
    for ep, ref in pairs:
        assert as_tuple(ep) == as_bits(ref)
        span = ep.threshold + 2 * ep.period + 5
        assert [ep.member(x) for x in range(span + 1)] == \
            [ref.member(x) for x in range(span + 1)]
        assert as_tuple(ep.complement()) == as_bits(ref.complement())
        for at_least in range(span + 1):
            brute = next((x for x in range(at_least, at_least + span + 1)
                          if ref.member(x)), None)
            assert ep.min(at_least=at_least) == brute
        assert ep.min() == ref.min()
        for query in ("max", "cardinality", "density", "gcd_value",
                      "lcm_value", "median_key", "triadic_sum", "elements"):
            assert outcome(getattr(ep, query)) == \
                outcome(getattr(ref, query)), query
        if ep.gcd_value() is not math.inf:
            assert ep.gcd_witness() == ref.gcd_witness()
        for prop in ("is_finite", "is_empty", "is_full", "is_cofinite"):
            assert getattr(ep, prop) == getattr(ref, prop), prop
    (a, ref_a), (b, ref_b) = pairs
    for combine, op in COMBINES:
        assert as_tuple(combine(a, b)) == as_bits(ref_combine(ref_a, ref_b, op))
    assert (a.e0_key() == b.e0_key()) == (ref_a.e0_key() == ref_b.e0_key())


# periods of the size the oracle corpora reach: lcms of small periods
# such as 15, 20, 30 and 60, and anything up to 64
_WIDE_PERIODS = st.integers(1, 64) | st.sampled_from([15, 20, 24, 30, 36,
                                                      40, 48, 60])


@st.composite
def wide_raw_eps(draw):
    """Like raw_eps, with periods up to 64, thresholds up to 256 and
    residue bits reaching well past the period."""
    t = draw(st.integers(0, 256))
    p = draw(_WIDE_PERIODS)
    head = draw(st.integers(0, (1 << (t + 8)) - 1))
    if draw(st.booleans()):
        q = draw(st.sampled_from([d for d in range(1, p + 1) if p % d == 0]))
        pattern = draw(st.integers(0, (1 << q) - 1))
        residues = sum(pattern << k for k in range(0, p, q))
        # bits above the period are cut off before the period is sought
        residues |= draw(st.integers(0, 255)) << p
    else:
        residues = draw(st.integers(0, (1 << (2 * p + 8)) - 1))
    return t, p, head, residues


def ref_bits(ref: RefEP, n: int) -> int:
    return mask(x for x in range(n) if ref.member(x))


@settings(max_examples=200, deadline=None)
@given(wide_raw_eps(), wide_raw_eps(), st.integers(0, 400))
def test_wide_periods_agree_with_the_frozenset_reference(raw_a, raw_b, n):
    (a, ref_a), (b, ref_b) = both(raw_a), both(raw_b)
    for ep, ref in ((a, ref_a), (b, ref_b)):
        assert as_tuple(ep) == as_bits(ref)
        for m in (0, n, ep.threshold, ep.threshold + ep.period):
            assert ep._bits(m) == ref_bits(ref, m), m
    for combine, op in COMBINES:
        assert as_tuple(combine(a, b)) == as_bits(ref_combine(ref_a, ref_b, op))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 70), st.integers(0, 600))
def test_tile_repeats_its_pattern_bit_by_bit(data, period, n):
    pattern = data.draw(st.integers(0, (1 << period) - 1))
    want = sum(1 << x for x in range(n) if pattern >> x % period & 1)
    assert _tile(pattern, period, n) == want
