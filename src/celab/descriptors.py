"""Closed-form set descriptors: the ground-truth side of every check.

A Descriptor denotes a subset of the naturals.  Membership is decidable
in finite time, every descriptor compiles to a stage-monotone program
with a known settlement stage, and the relations module decides
equivalence relations on descriptors exactly.

The workhorse is the *eventually periodic* analysis ``EP``: the class of
Finite/Cofinite/Progression descriptors is closed under union and
difference and supports exact minima, cardinalities, densities, gcd/lcm
and symmetric-difference reasoning.  The two block-image shapes
(``DyadicBlocks``/``WeightBlocks``) fall outside EP when their index set
is infinite and co-infinite; for those, same-shape comparisons reduce to
the index level and anything else raises ``UnsupportedDescriptor``
(which signals a corpus bug, never a guess).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count
from typing import Optional, Tuple, Union as TUnion

from .pairing import (
    pair, positions, seq_decode, seq_encode, set_decode, set_encode,
    unpair,
)
from .programs import (
    Built, Combinator, columns_of, param, register_combinator, script,
)

# Block shapes whose total extent exceeds this are kept symbolic.
MATERIALIZE_CAP = 1 << 16


class UnsupportedDescriptor(Exception):
    """No closed form applies; the corpus should never trigger this."""


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class Finite:
    elems: frozenset

    def __post_init__(self):
        object.__setattr__(self, "elems", frozenset(self.elems))


@dataclass(frozen=True)
class Cofinite:
    excluded: frozenset

    def __post_init__(self):
        object.__setattr__(self, "excluded", frozenset(self.excluded))


@dataclass(frozen=True)
class Progression:
    start: int
    step: int  # >= 1


@dataclass(frozen=True)
class Union:
    parts: tuple


@dataclass(frozen=True)
class Difference:
    left: "Descriptor"
    right: "Descriptor"


@dataclass(frozen=True)
class DyadicBlocks:
    """Union of the dyadic intervals [2^n, 2^(n+1)) over n in the index set."""

    index: "Descriptor"


@dataclass(frozen=True)
class WeightBlocks:
    """Union of consecutive blocks I_n with sum of 1/(i+1) >= 1 each."""

    index: "Descriptor"


@dataclass(frozen=True)
class Columns:
    """A set of pair codes: finitely many explicit columns plus a default."""

    cols: tuple  # sorted tuple of (column, Descriptor)
    default: "Descriptor"


@dataclass(frozen=True)
class ColumnsBySet:
    """Column c is `incol` when c lies in the index set, else `outcol`."""

    index: "Descriptor"
    incol: "Descriptor"
    outcol: "Descriptor"


@dataclass(frozen=True)
class TailColumns:
    """Column x is base minus {0, ..., x-1}."""

    base: "Descriptor"


@dataclass(frozen=True)
class OverrideColumns:
    """Finitely many explicit columns on top of a column-shaped base."""

    cols: tuple  # sorted tuple of (column, Descriptor)
    base: "Descriptor"


Descriptor = TUnion[
    Finite, Cofinite, Progression, Union, Difference,
    DyadicBlocks, WeightBlocks, Columns, ColumnsBySet, TailColumns,
    OverrideColumns,
]

EMPTY = Finite(frozenset())
FULL = Cofinite(frozenset())


def finite(*elems) -> Finite:
    return Finite(frozenset(elems))


def columns(colmap: dict, default: Descriptor = EMPTY) -> Columns:
    return Columns(tuple(sorted(colmap.items())), default)


# ---------------------------------------------------------------------------
# eventually periodic analysis


def _low(n: int) -> int:
    """The bitset {0, ..., n - 1}."""
    return (1 << n) - 1


def _tile(pattern: int, period: int, n: int) -> int:
    """Bits [0, n) of ``pattern`` repeated every ``period`` bits.

    ``pattern`` lies below ``1 << period``: each doubling shift then
    lands its copy on zero bits."""
    width = period
    while width < n:
        pattern |= pattern << width
        width <<= 1
    return pattern & (1 << n) - 1


def _lowest(bits: int) -> int:
    """The least set bit of a nonzero ``bits``."""
    return (bits & -bits).bit_length() - 1


@dataclass(frozen=True)
class EP:
    """x < threshold: x in the bitset head; x >= threshold: x % period
    in the bitset residues.

    ``make`` keeps the form canonical (least period, then least
    threshold), so equal sets are equal EPs.
    """

    threshold: int
    period: int
    head: int
    residues: int

    # -- construction --------------------------------------------------

    @staticmethod
    def make(threshold: int, period: int, head: int, residues: int) -> "EP":
        full = (1 << period) - 1
        residues &= full
        # the least period is the least divisor q of period under which
        # every residue r < period - q agrees with r + q
        for q in range(1, period // 2 + 1):
            if not period % q and residues >> q == residues & (full >> q):
                residues &= (1 << q) - 1
                period = q
                break
        head &= (1 << threshold) - 1
        # past the last disagreement with the periodic part, head is
        # redundant
        t = (head ^ _tile(residues, period, threshold)).bit_length()
        return EP(t, period, head & (1 << t) - 1, residues)

    @staticmethod
    def from_finite(elems) -> "EP":
        bits = set_encode(elems)
        return EP.make(bits.bit_length(), 1, bits, 0)

    @staticmethod
    def from_cofinite(excluded) -> "EP":
        bits = set_encode(excluded)
        t = bits.bit_length()
        return EP.make(t, 1, _low(t) ^ bits, 1)

    @staticmethod
    def from_progression(start: int, step: int) -> "EP":
        return EP.make(start, step, 0, 1 << start % step)

    def _bits(self, n: int) -> int:
        """The members below n, as a bitset."""
        t = self.threshold
        if n <= t:
            return self.head & (1 << n) - 1
        return self.head | _tile(self.residues, self.period, n) >> t << t

    # -- membership & basic data ---------------------------------------

    def member(self, x: int) -> bool:
        if x < self.threshold:
            return bool(self.head >> x & 1)
        return bool(self.residues >> x % self.period & 1)

    @property
    def is_finite(self) -> bool:
        return not self.residues

    @property
    def is_empty(self) -> bool:
        return self.is_finite and not self.head

    @property
    def is_full(self) -> bool:
        return self.threshold == 0 and self.is_cofinite

    @property
    def is_cofinite(self) -> bool:
        return self.residues == _low(self.period)

    def complement(self) -> "EP":
        # flipping every bit keeps both minimality conditions
        return EP(self.threshold, self.period,
                  self.head ^ _low(self.threshold),
                  self.residues ^ _low(self.period))

    def elements(self) -> frozenset:
        if not self.is_finite:
            raise UnsupportedDescriptor("infinite set has no element list")
        return set_decode(self.head)

    def cardinality(self):
        return self.head.bit_count() if self.is_finite else math.inf

    def cocardinality(self):
        return self.complement().cardinality()

    def min(self, at_least: int = 0) -> Optional[int]:
        """The least element >= at_least, or None."""
        head = self.head >> at_least
        if head:
            return at_least + _lowest(head)
        if not self.residues:
            return None
        start = max(at_least, self.threshold)
        r = start % self.period
        # rotate so that bit i stands for the class of start + i
        ahead = self.residues >> r | self.residues << (self.period - r)
        return start + _lowest(ahead)

    def max(self) -> Optional[int]:
        if not self.is_finite:
            raise UnsupportedDescriptor("max of infinite set")
        return self.head.bit_length() - 1 if self.head else None

    def gcd_value(self):
        """gcd of all elements; infinity for sets within {0} (or empty)."""
        # each residue class contributes its first member and the period
        g = math.gcd(*positions(self._bits(self.threshold + self.period)),
                     self.period if self.residues else 0)
        return math.inf if g == 0 else g

    def gcd_witness(self) -> int:
        """A bound w such that the members <= w already have the gcd of
        the whole set: the first two members of a residue class past
        the threshold have the gcd of the whole class."""
        last = self._bits(self.threshold + self.period).bit_length() - 1
        return last + self.period if self.residues else last

    def lcm_value(self):
        """lcm of the positive elements; 1 if none; infinity if unbounded."""
        if not self.is_finite:
            return math.inf
        return math.lcm(*positions(self.head & ~1))

    def median_key(self):
        """('empty',) | ('inf',) | ('med', Fraction midpoint)."""
        if self.is_empty:
            return ("empty",)
        if not self.is_finite:
            return ("inf",)
        xs = positions(self.head)
        n = len(xs)
        mid = Fraction(xs[(n - 1) // 2] + xs[n // 2], 2)
        return ("med", mid)

    def e0_key(self):
        """Canonical invariant of the almost-equality class."""
        if self.is_finite:
            return ("fin",)
        return ("inf", self.period, self.residues)

    def triadic_sum(self) -> Fraction:
        """Exact sum of 3^-(n+1) over the set."""
        t, p = self.threshold, self.period
        # a member x >= t recurs at x + p, x + 2p, ...: a geometric series
        repeat = Fraction(3 ** p, 3 ** p - 1)
        return sum((Fraction(1, 3 ** (x + 1)) * (repeat if x >= t else 1)
                    for x in positions(self._bits(t + p))), Fraction(0))


def ep_combine(a: EP, b: EP, op) -> EP:
    """The EP of ``op`` (a bitwise operator) applied to both sets.

    Both sides are periodic with the lcm period from the first multiple
    t of it at or past both thresholds, so the bits of [t, t + lcm) are
    the residues of the result.
    """
    p = math.lcm(a.period, b.period)
    t = -(-max(a.threshold, b.threshold) // p) * p
    bits = op(a._bits(t + p), b._bits(t + p))
    return EP.make(t, p, bits, bits >> t)


def _and_not(x: int, y: int) -> int:
    return x & ~y


def ep_union(a, b):
    return ep_combine(a, b, operator.or_)


def ep_difference(a, b):
    return ep_combine(a, b, _and_not)


def ep_intersection(a, b):
    return ep_combine(a, b, operator.and_)


# ---------------------------------------------------------------------------
# block images


_GREEDY_CAP = 10
_greedy_bounds = [0]


def _greedy_boundary(n: int) -> int:
    """Left endpoint of the n-th greedy harmonic block (n <= cap)."""
    while len(_greedy_bounds) <= n:
        total = 0.0
        hi = _greedy_bounds[-1]
        while total < 1.0:
            total += 1.0 / (hi + 1)
            hi += 1
        _greedy_bounds.append(hi)
    return _greedy_bounds[n]


def weight_block(n: int) -> Tuple[int, int]:
    """The n-th block of a fixed partition of the naturals into
    consecutive intervals, each of harmonic weight >= 1.

    The first blocks are greedy: each ends as soon as the sum of
    1/(i+1) over it reaches 1 ([0,1), [1,4), [4,13), ...).  Beyond a
    fixed prefix the partition continues by tripling, so block bounds
    for arbitrarily large indices stay cheap to compute; the sum of
    1/(i+1) over such a block is at least ln 3 > 1, so every block
    still carries at least unit weight.
    """
    if n < _GREEDY_CAP:
        return _greedy_boundary(n), _greedy_boundary(n + 1)
    base = _greedy_boundary(_GREEDY_CAP) + 1
    lo = base * 3 ** (n - _GREEDY_CAP) - 1
    hi = base * 3 ** (n + 1 - _GREEDY_CAP) - 1
    return lo, hi


def dyadic_block(n: int) -> Tuple[int, int]:
    return (1 << n, 1 << (n + 1))


def block_bounds(kind: str, n: int) -> Tuple[int, int]:
    return dyadic_block(n) if kind == "dyadic" else weight_block(n)


def block_words(kind: str, n: int) -> int:
    """The 64-bit words of the n-th block's lower bound, from n alone:
    1 << n has n + 1 bits, and a tripling adds log2(3), about 1623/1024."""
    if kind == "dyadic" or n < _GREEDY_CAP:
        return (n + 1) >> 6
    base = _greedy_boundary(_GREEDY_CAP) + 1
    return (base.bit_length() + ((n - _GREEDY_CAP) * 1623 >> 10)) >> 6


def block_of(kind: str, x: int) -> Optional[int]:
    """Index n with x in the n-th block, or None (dyadic blocks miss 0)."""
    if kind == "dyadic":
        return None if x == 0 else x.bit_length() - 1
    n = 0
    while weight_block(n)[1] <= x:
        n += 1
    return n


@dataclass(frozen=True)
class BlockImage:
    """The union of the blocks indexed by an EP, kept symbolic.

    ``analyze`` makes one only where ``_block_image`` cannot materialize
    the union: its index is infinite and co-infinite, or it names or
    misses a block that ends past MATERIALIZE_CAP.  It answers the
    questions of ``EP`` that a block union decides exactly, under EP's
    names.  Each block is a finite nonempty interval, so the image is
    finite, cofinite or empty exactly when its index set is.
    """

    kind: str  # 'dyadic' | 'weight'
    index: EP

    def member(self, x: int) -> bool:
        n = block_of(self.kind, x)
        return n is not None and self.index.member(n)

    @property
    def is_finite(self) -> bool:
        return self.index.is_finite

    @property
    def is_cofinite(self) -> bool:
        return self.index.is_cofinite

    @property
    def is_empty(self) -> bool:
        return self.index.is_empty

    def _extent(self, ns: EP) -> int:
        """The total length of the blocks indexed by a finite ns."""
        return sum(hi - lo for lo, hi in
                   (block_bounds(self.kind, n) for n in ns.elements()))

    def cardinality(self):
        return self._extent(self.index) if self.is_finite else math.inf

    def cocardinality(self):
        if not self.is_cofinite:
            # the image misses infinitely many whole blocks
            return math.inf
        # dyadic blocks never cover 0
        return (self.kind == "dyadic") + self._extent(self.index.complement())

    def min(self, at_least: int = 0) -> Optional[int]:
        """The least element >= at_least, or None."""
        n = block_of(self.kind, at_least)
        if n is not None and self.index.member(n):
            return at_least
        m = self.index.min(0 if n is None else n + 1)
        return None if m is None else block_bounds(self.kind, m)[0]

    def max(self) -> Optional[int]:
        if not self.is_finite:
            raise UnsupportedDescriptor("max of infinite set")
        n = self.index.max()
        return None if n is None else block_bounds(self.kind, n)[1] - 1


Analysis = TUnion[EP, BlockImage]
"""The analysis of a 1-D descriptor.  Both classes answer ``member``,
``is_finite``, ``is_cofinite``, ``is_empty``, ``min(at_least)``,
``max()``, ``cardinality()`` and ``cocardinality()``; the other
questions (medians, gcd/lcm, ``e0_key``, ``triadic_sum``) are EP's
alone, asked through ``ep_only``."""


def ep_only(ana: Analysis, question: str) -> EP:
    """ana, for a question only an EP answers; a block image raises."""
    if not isinstance(ana, EP):
        raise UnsupportedDescriptor(f"{question} needs an EP analysis")
    return ana


# ---------------------------------------------------------------------------
# analysis of 1-D descriptors


def kept(obj, name: str, compute):
    """``compute(obj)``, kept on obj itself as the attribute ``name``
    after the first call, so that later calls on the same object cost
    one lookup.  Payloads are frozen, so a kept value never goes stale.
    The attribute is no dataclass field: ``==``, ``hash`` and ``repr``
    do not see it."""
    out = getattr(obj, name, None)
    if out is None:
        out = compute(obj)
        object.__setattr__(obj, name, out)
    return out


def analyze(d: Descriptor) -> Analysis:
    """The analysis of d, kept on d itself after its first lookup.

    A cache hit hashes and compares the whole nested descriptor, so
    only an object's first lookup goes through the shared cache, which
    hands equal objects (a payload read back from JSON, say) one
    analysis."""
    return kept(d, "_analysis", _shared_analysis)


def _shared_analysis(d: Descriptor) -> Analysis:
    out = _ANALYSIS_CACHE.get(d)
    if out is None:
        out = _analyze(d)
        if len(_ANALYSIS_CACHE) >= ANALYSIS_CACHE_CAP:
            _ANALYSIS_CACHE.clear()
        _ANALYSIS_CACHE[d] = out
    return out


# A long run meets new descriptors without end (every corpus draws
# fresh ones), so the cache is emptied when it reaches the cap.  The
# cap is about twice what the criterion-1 sweep keeps after set-up.
ANALYSIS_CACHE_CAP = 1 << 14
_ANALYSIS_CACHE: dict = {}


def _block_bits(kind: str, ns) -> int:
    """The union of the blocks indexed by ns, as a bitset."""
    bits = 0
    for n in ns:
        lo, hi = block_bounds(kind, n)
        bits |= _low(hi) ^ _low(lo)
    return bits


def _block_image(kind: str, index: EP) -> Analysis:
    """The union of the blocks indexed by index, in canonical form: an
    EP when the index set is finite or cofinite and the blocks it names
    or misses end by MATERIALIZE_CAP, else a symbolic BlockImage."""
    cofinite = index.is_cofinite
    if not (cofinite or index.is_finite):
        return BlockImage(kind, index)
    ns = (index.complement() if cofinite else index).elements()
    hi = max((block_bounds(kind, n)[1] for n in ns), default=1)
    if hi > MATERIALIZE_CAP:
        return BlockImage(kind, index)
    bits = _block_bits(kind, ns)
    if not cofinite:
        return EP.make(hi, 1, bits, 0)
    if kind == "dyadic":
        bits |= 1  # dyadic blocks never cover 0
    return EP.make(hi, 1, _low(hi) ^ bits, 1)


def _blocks_analysis(kind: str, d: Descriptor) -> Analysis:
    index = analyze(d)
    if not isinstance(index, EP):
        raise UnsupportedDescriptor("block index must be EP-analyzable")
    return _block_image(kind, index)


def _analyze(d: Descriptor) -> Analysis:
    if isinstance(d, Finite):
        return EP.from_finite(d.elems)
    if isinstance(d, Cofinite):
        return EP.from_cofinite(d.excluded)
    if isinstance(d, Progression):
        if d.step < 1:
            raise UnsupportedDescriptor("progression step must be >= 1")
        return EP.from_progression(d.start, d.step)
    if isinstance(d, Union):
        return _combine(d, "union", ep_union, d.parts)
    if isinstance(d, Difference):
        return _combine(d, "difference", ep_difference, (d.left, d.right))
    if isinstance(d, DyadicBlocks):
        return _blocks_analysis("dyadic", d.index)
    if isinstance(d, WeightBlocks):
        return _blocks_analysis("weight", d.index)
    raise UnsupportedDescriptor(f"not a 1-D descriptor: {type(d).__name__}")


def _combine(d: Descriptor, name: str, ep_op, parts) -> Analysis:
    """The analysis of a union or difference d of parts: their EPs
    combined, or, where a part is a block image, the block image of the
    combined index, when all of d is blocks of one kind."""
    anas = [analyze(p) for p in parts]
    if all(isinstance(a, EP) for a in anas):
        return reduce(ep_op, anas) if anas else EP.from_finite(())
    blocks = _block_index(d)
    if blocks is None:
        raise UnsupportedDescriptor(f"{name} outside the closed class")
    return _block_image(*blocks)


_BLOCK_KIND = {DyadicBlocks: "dyadic", WeightBlocks: "weight"}


def _block_index(d: Descriptor):
    """(kind, index) when the analyzable d is the union of the blocks of
    one kind that index names: a block descriptor, or unions and
    differences of such, taken index by index (blocks are nonempty and
    disjoint).  None for any other descriptor."""
    kind = _BLOCK_KIND.get(type(d))
    if kind is not None:
        return kind, analyze(d.index)
    if isinstance(d, Union):
        ep_op, parts = ep_union, d.parts
    elif isinstance(d, Difference):
        ep_op, parts = ep_difference, (d.left, d.right)
    else:
        return None
    found = [_block_index(p) for p in parts]
    if not found or any(b is None or b[0] != found[0][0] for b in found):
        return None
    return found[0][0], reduce(ep_op, [index for _, index in found])


# ---------------------------------------------------------------------------
# membership


def member(d: Descriptor, x: int) -> bool:
    """Whether x lies in d.  Each node costs one dict lookup on its
    class, in ``_MEMBER``, and a call of the membership function found
    there, which tests the nested nodes it needs the same way.

    Like ``members``, it raises ``UnsupportedDescriptor`` on a
    progression whose step is not positive and on a part that is no
    descriptor (an ``EP`` or a number, say), wherever the walk meets
    them.  A union stops at its first part that holds x, a difference
    whose left side lacks x never reads its right side."""
    return _MEMBER.get(type(d), _not_a_descriptor)(d, x)


def _not_a_descriptor(d, x: int) -> bool:
    raise UnsupportedDescriptor(f"not a descriptor: {d!r}")


def _finite_member(d: Finite, x: int) -> bool:
    return x in d.elems


def _cofinite_member(d: Cofinite, x: int) -> bool:
    return x not in d.excluded


def _progression_member(d: Progression, x: int) -> bool:
    if d.step < 1:
        raise UnsupportedDescriptor("progression step must be >= 1")
    return x >= d.start and (x - d.start) % d.step == 0


def _union_member(d: Union, x: int) -> bool:
    for p in d.parts:
        if _MEMBER.get(type(p), _not_a_descriptor)(p, x):
            return True
    return False


def _difference_member(d: Difference, x: int) -> bool:
    left, right = d.left, d.right
    return (_MEMBER.get(type(left), _not_a_descriptor)(left, x)
            and not _MEMBER.get(type(right), _not_a_descriptor)(right, x))


def _dyadic_member(d: DyadicBlocks, x: int) -> bool:
    n = block_of("dyadic", x)
    if n is None:
        return False
    index = d.index
    return _MEMBER.get(type(index), _not_a_descriptor)(index, n)


def _weight_member(d: WeightBlocks, x: int) -> bool:
    index = d.index
    return _MEMBER.get(type(index), _not_a_descriptor)(
        index, block_of("weight", x))


def _columns_member(d: Columns, x: int) -> bool:
    c, k = unpair(x)
    col = d.default
    for cc, cd in d.cols:
        if cc == c:
            col = cd
            break
    return _MEMBER.get(type(col), _not_a_descriptor)(col, k)


def _columns_by_set_member(d: ColumnsBySet, x: int) -> bool:
    c, k = unpair(x)
    index = d.index
    col = (d.incol if _MEMBER.get(type(index), _not_a_descriptor)(index, c)
           else d.outcol)
    return _MEMBER.get(type(col), _not_a_descriptor)(col, k)


def _tail_columns_member(d: TailColumns, x: int) -> bool:
    c, k = unpair(x)
    base = d.base
    return k >= c and _MEMBER.get(type(base), _not_a_descriptor)(base, k)


def _override_columns_member(d: OverrideColumns, x: int) -> bool:
    c, k = unpair(x)
    for cc, cd in d.cols:
        if cc == c:
            return _MEMBER.get(type(cd), _not_a_descriptor)(cd, k)
    base = d.base
    return _MEMBER.get(type(base), _not_a_descriptor)(base, x)


# the membership function of each descriptor class (the keys of _TAGS)
_MEMBER = {
    Finite: _finite_member, Cofinite: _cofinite_member,
    Progression: _progression_member, Union: _union_member,
    Difference: _difference_member, DyadicBlocks: _dyadic_member,
    WeightBlocks: _weight_member, Columns: _columns_member,
    ColumnsBySet: _columns_by_set_member, TailColumns: _tail_columns_member,
    OverrideColumns: _override_columns_member,
}


def members(d: Descriptor, lo: int, hi: int) -> int:
    """The members of d in [lo, hi) (0 <= lo) as a bitset, bit i for
    lo + i, found in one walk of d rather than one per candidate.

    It allocates in proportion to hi - lo and to the size of d, never to
    a number inside d, which is why it does not go through ``analyze``.
    Like ``analyze``, it raises ``UnsupportedDescriptor`` on a
    progression whose step is not positive and on a part that is no
    descriptor, wherever the walk meets them."""
    if hi <= lo:
        return 0
    return _members(d, lo, hi)


def _members(d: Descriptor, lo: int, hi: int) -> int:
    if isinstance(d, Finite):
        return _elem_bits(d.elems, lo, hi)
    if isinstance(d, Cofinite):
        return _low(hi - lo) ^ _elem_bits(d.excluded, lo, hi)
    if isinstance(d, Progression):
        if d.step < 1:
            raise UnsupportedDescriptor("progression step must be >= 1")
        start, step = d.start, d.step
        first = max(start, lo)
        first += (start - first) % step
        if first >= hi:
            return 0
        if step >= hi - first:
            return 1 << first - lo
        return _tile(1, step, hi - first) << first - lo
    if isinstance(d, Union):
        bits = 0
        for p in d.parts:
            bits |= _members(p, lo, hi)
        return bits
    if isinstance(d, Difference):
        return _members(d.left, lo, hi) & ~_members(d.right, lo, hi)
    if isinstance(d, (DyadicBlocks, WeightBlocks)):
        kind = "dyadic" if isinstance(d, DyadicBlocks) else "weight"
        return _block_members(kind, d.index, lo, hi)
    if isinstance(d, (Columns, ColumnsBySet, TailColumns, OverrideColumns)):
        return _column_members(d, lo, hi)
    raise UnsupportedDescriptor(f"not a descriptor: {d!r}")


def _elem_bits(elems: frozenset, lo: int, hi: int) -> int:
    """The elements of a finite set in [lo, hi), as a bitset from lo."""
    if len(elems) > hi - lo:
        return set_encode(x - lo for x in range(lo, hi) if x in elems)
    return set_encode(x - lo for x in elems if lo <= x < hi)


def _block_members(kind: str, index: Descriptor, lo: int, hi: int) -> int:
    """``members`` of a block image: the blocks that meet [lo, hi) and
    whose index is a member, cut to the range."""
    first = block_of(kind, lo) or 0  # dyadic blocks miss 0
    last = block_of(kind, hi - 1)
    if last is None:
        return 0
    bits = 0
    for i in positions(_members(index, first, last + 1)):
        a, b = block_bounds(kind, first + i)
        bits |= _low(min(b, hi) - lo) ^ _low(max(a, lo) - lo)
    return bits


def _first_row(c: int, col: int, row: int) -> int:
    """The least k with <c, k> >= <col, row>."""
    # column c crosses the diagonal col + row at or past the code iff
    # c <= col, else it enters past it on the next diagonal
    if c <= col:
        return col + row - c
    return max(col + row + 1 - c, 0)


def _column_spans(lo: int, hi: int) -> list:
    """The columns with a code in [lo, hi), as one or two ranges."""
    c0, r0 = unpair(lo)
    c1, r1 = unpair(hi - 1)
    w0, w1 = c0 + r0, c1 + r1
    # the codes run down diagonal w0 from column c0, across the whole
    # diagonals between, and down diagonal w1 to column c1
    if w1 == w0:
        return [range(c1, c0 + 1)]
    if w1 == w0 + 1 and c1 > c0 + 1:
        return [range(c0 + 1), range(c1, w1 + 1)]
    return [range(w1 + 1)]


def _scatter(c: int, k0: int, rows: int, lo: int) -> int:
    """The codes <c, k0 + i> for the bits i of rows, as a bitset from
    lo."""
    return set_encode(pair(c, k0 + i) - lo for i in positions(rows))


def _column_members(d: Descriptor, lo: int, hi: int) -> int:
    """``members`` of a column shape, column by column: one 1-D call per
    column with codes in [lo, hi), on the rows k0 <= k < k1 whose codes
    lie there."""
    at_lo, at_hi = unpair(lo), unpair(hi)
    if isinstance(d, OverrideColumns):
        # the base answers for every code, and an explicit column
        # replaces its own (the first one given, as member reads)
        bits = _members(d.base, lo, hi)
        done = set()
        for c, cd in d.cols:
            k0, k1 = _first_row(c, *at_lo), _first_row(c, *at_hi)
            if k0 < k1 and c not in done:
                done.add(c)
                bits &= ~_scatter(c, k0, _low(k1 - k0), lo)
                bits |= _scatter(c, k0, _members(cd, k0, k1), lo)
        return bits
    if isinstance(d, Columns):
        explicit = {}
        for c, cd in d.cols:
            explicit.setdefault(c, cd)
    bits = 0
    for cs in _column_spans(lo, hi):
        if isinstance(d, ColumnsBySet):
            index = _members(d.index, cs.start, cs.stop)
        for c in cs:
            k0, k1 = _first_row(c, *at_lo), _first_row(c, *at_hi)
            if isinstance(d, TailColumns):
                # column c is the base from row c on
                start = max(k0, c)
                rows = (_members(d.base, start, k1) << start - k0
                        if start < k1 else 0)
            elif isinstance(d, ColumnsBySet):
                col = d.incol if index >> c - cs.start & 1 else d.outcol
                rows = _members(col, k0, k1)
            else:
                rows = _members(explicit.get(c, d.default), k0, k1)
            bits |= _scatter(c, k0, rows, lo)
    return bits


# ---------------------------------------------------------------------------
# column views (for E_1 / E_3 / E_set reasoning)


@dataclass
class ColumnsView:
    """A partition of the column indices into EP regions with one
    column descriptor per region."""

    regions: list  # list of (EP, Descriptor); the EPs partition N


def columns_view(d: Descriptor) -> ColumnsView:
    """The column view of d, kept on d itself like its analysis."""
    return kept(d, "_columns_view", _columns_view)


def _columns_view(d: Descriptor) -> ColumnsView:
    if isinstance(d, Columns):
        regions = []
        taken = set()
        for c, cd in d.cols:
            regions.append((EP.from_finite({c}), cd))
            taken.add(c)
        regions.append((EP.from_cofinite(taken), d.default))
        return ColumnsView(regions)
    if isinstance(d, ColumnsBySet):
        ix = analyze(d.index)
        if not isinstance(ix, EP):
            raise UnsupportedDescriptor("column index set must be EP")
        return ColumnsView([(ix, d.incol), (ix.complement(), d.outcol)])
    if isinstance(d, Finite):
        cols = columns_of(d.elems)
        regions = [(EP.from_finite({c}), Finite(v))
                   for c, v in sorted(cols.items())]
        regions.append((EP.from_cofinite(cols.keys()), EMPTY))
        return ColumnsView(regions)
    if isinstance(d, OverrideColumns):
        base = columns_view(d.base)
        taken = EP.from_finite(frozenset(c for c, _ in d.cols))
        regions = [(EP.from_finite({c}), cd) for c, cd in d.cols]
        for region, col in base.regions:
            rest = ep_difference(region, taken)
            if not rest.is_empty:
                regions.append((rest, col))
        return ColumnsView(regions)
    raise UnsupportedDescriptor(
        f"no column view for {type(d).__name__}"
    )


def _single_column(region: EP) -> Optional[int]:
    """The one column of a singleton region, else None."""
    head = region.head
    if region.residues or head & (head - 1):
        return None
    return head.bit_length() - 1 if head else None


def region_pairs(va: ColumnsView, vb: ColumnsView):
    """All (region, colA, colB) with nonempty region intersection.

    A singleton region (each explicit column is one) meets another
    region exactly when that region holds its column, and the meet is
    the singleton itself: canonical EPs are equal exactly when their
    sets are."""
    singles = [_single_column(rb) for rb, _ in vb.regions]
    for ra, ca in va.regions:
        c = _single_column(ra)
        for (rb, cb), d in zip(vb.regions, singles):
            if c is not None:
                meet = ra if rb.member(c) else None
            elif d is not None:
                meet = rb if ra.member(d) else None
            else:
                meet = ep_intersection(ra, rb)
                if meet.is_empty:
                    meet = None
            if meet is not None:
                yield meet, ca, cb


# ---------------------------------------------------------------------------
# descriptor <-> natural codec (used for compiled-program parameters)

_TAGS = {
    Finite: 0, Cofinite: 1, Progression: 2, Union: 3, Difference: 4,
    DyadicBlocks: 5, WeightBlocks: 6, Columns: 7, ColumnsBySet: 8,
    TailColumns: 9, OverrideColumns: 10,
}
_NTAGS = 11


def encode_descriptor(d: Descriptor) -> int:
    if isinstance(d, (Finite, Cofinite)):
        elems = d.elems if isinstance(d, Finite) else d.excluded
        payload = seq_encode(tuple(sorted(elems)))
    elif isinstance(d, Progression):
        payload = pair(d.start, d.step - 1)
    elif isinstance(d, Union):
        payload = seq_encode(tuple(encode_descriptor(p) for p in d.parts))
    elif isinstance(d, Difference):
        payload = pair(encode_descriptor(d.left), encode_descriptor(d.right))
    elif isinstance(d, (DyadicBlocks, WeightBlocks)):
        payload = encode_descriptor(d.index)
    elif isinstance(d, Columns):
        flat = []
        for c, cd in d.cols:
            flat.extend((c, encode_descriptor(cd)))
        payload = pair(seq_encode(tuple(flat)), encode_descriptor(d.default))
    elif isinstance(d, ColumnsBySet):
        payload = pair(encode_descriptor(d.index),
                       pair(encode_descriptor(d.incol),
                            encode_descriptor(d.outcol)))
    elif isinstance(d, TailColumns):
        payload = encode_descriptor(d.base)
    elif isinstance(d, OverrideColumns):
        flat = []
        for c, cd in d.cols:
            flat.extend((c, encode_descriptor(cd)))
        payload = pair(seq_encode(tuple(flat)), encode_descriptor(d.base))
    else:
        raise UnsupportedDescriptor(f"cannot encode {d!r}")
    return payload * _NTAGS + _TAGS[type(d)]


def decode_descriptor(code: int) -> Descriptor:
    payload, tag = divmod(code, _NTAGS)
    if tag == 0:
        return Finite(frozenset(seq_decode(payload)))
    if tag == 1:
        return Cofinite(frozenset(seq_decode(payload)))
    if tag == 2:
        a, d = unpair(payload)
        return Progression(a, d + 1)
    if tag == 3:
        return Union(tuple(decode_descriptor(c) for c in seq_decode(payload)))
    if tag == 4:
        l, r = unpair(payload)
        return Difference(decode_descriptor(l), decode_descriptor(r))
    if tag == 5:
        return DyadicBlocks(decode_descriptor(payload))
    if tag == 6:
        return WeightBlocks(decode_descriptor(payload))
    if tag == 7:
        flat_code, default_code = unpair(payload)
        flat = seq_decode(flat_code)
        cols = tuple(
            (flat[i], decode_descriptor(flat[i + 1]))
            for i in range(0, len(flat) - 1, 2)
        )
        return Columns(cols, decode_descriptor(default_code))
    if tag == 8:
        ix, rest = unpair(payload)
        inc, outc = unpair(rest)
        return ColumnsBySet(decode_descriptor(ix), decode_descriptor(inc),
                            decode_descriptor(outc))
    if tag == 9:
        return TailColumns(decode_descriptor(payload))
    flat_code, base_code = unpair(payload)
    flat = seq_decode(flat_code)
    cols = tuple(
        (flat[i], decode_descriptor(flat[i + 1]))
        for i in range(0, len(flat) - 1, 2)
    )
    return OverrideColumns(cols, decode_descriptor(base_code))


# ---------------------------------------------------------------------------
# compilation to programs


def _finite_top(d: Descriptor) -> Optional[int]:
    """A bound on the elements of d when its structure shows d finite
    (-1 when it shows d empty), else None.

    Read off the structure rather than ``analyze``, which would build a
    bitset as long as the largest element of a program's parameter."""
    if isinstance(d, Finite):
        return max(d.elems, default=-1)
    if isinstance(d, Union):
        tops = [_finite_top(p) for p in d.parts]
        return None if None in tops else max(tops, default=-1)
    if isinstance(d, Difference):
        return _finite_top(d.left)
    return None


# Candidates a from_descriptor cell answers per walk of its descriptor.
CHUNK = 256


def _stages_from_descriptor(ev, args, params, bound=None):
    """Stage s tests the candidate s - delay, the descriptor and the
    delay being the term's two parameters."""
    d = decode_descriptor(param(params, 0))
    top = _finite_top(d)
    # candidates rise with the stage: past the largest element none
    # would pass, and past the bound (at or past last) none is tested
    last = min(math.inf if bound is None else bound,
               math.inf if top is None else top)
    for x in range(-param(params, 1), 0):
        if x >= last:
            return ()
        yield ()
    if last < 0:
        return ()
    # one walk of the descriptor answers a chunk of candidates, from lo
    # up to hi - 1, and gives their stages as one list
    for lo in count(0, CHUNK):
        hi = min(lo + CHUNK, last + 1)
        stages = [()] * (hi - lo)
        for i in positions(members(d, lo, hi)):
            stages[i] = (lo + i,)
        if hi > last:
            # the chunk ends on the last candidate: its stage closes
            yield from stages[:-1]
            return stages[-1]
        yield from stages


def _descriptor_floor(params):
    """Stage t tests t - delay, and later stages larger candidates."""
    delay = param(params, 1)
    return lambda t: t - delay + 1


register_combinator("from_descriptor", _stages_from_descriptor, reads=0,
                    floor=_descriptor_floor)


def compile_descriptor(d: Descriptor, delay: int = 0,
                       as_script: bool = False,
                       rng=None) -> Built:
    """Compile a descriptor into a program with known settlement.

    With ``as_script`` (finite 1-D descriptors only) the result is a
    plain Script; an optional rng shuffles the enumeration schedule so
    that corpora exercise schedule independence.
    """
    if as_script:
        ana = analyze(d)
        if not isinstance(ana, EP) or not ana.is_finite:
            raise UnsupportedDescriptor("scripts encode finite sets only")
        elems = sorted(ana.elements())
        if rng is not None:
            rng.shuffle(elems)
        entries = [(delay + i, {x}) for i, x in enumerate(elems)]
        last = delay + len(elems)
        return Built(script(entries), lambda M: last)

    term = Combinator("from_descriptor",
                      params=(encode_descriptor(d), delay))
    return Built(term, lambda M: M + delay + 1)
