"""Image constructions and stage machines for the almost-equality family.

The first half holds direct image reductions: a source set (or column
family) is mapped to a structured set whose target-relation class tracks
the source class exactly.  These constructions are schedule independent:
the limit of the built program depends only on the limit of its
argument, so exact window validation applies.

The second half holds two stage machines verified structurally rather
than through the reduction registry (their outputs are built from a
whole family of inputs at once, not from a single set).

``run_pairwise_module`` takes two enumerations A and B and builds two
sets D_ab and D_ba so that, column by column, D_ab and D_ba agree
exactly where A and B agree, and carry a finite nonempty difference
where A and B differ.

``TrackedFamilyMachine`` runs the full family version: from K input
enumerations it builds K output enumerations, one slice of the output
space per (column, input) pair, each slice managed by a movable marker.
Two outputs differ on finitely many values exactly when the two inputs
differ on finitely many columns.  The machine exposes its invariants
(per-slice differences bounded by the current marker, retired markers
present everywhere, churning slices staying synchronized) so the test
suite can check them at every stage.  Both machines grow their stage
sets by one membership test per stage and input.  The family machine
also updates only the least column differences that the stage's new
element can change, and compares a slice's outputs pairwise only when
its bookkeeping shows they may differ beyond the current marker.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import add, mul

from ..pairing import column, pair, pairs, row, unpair
from ..programs import register_combinator, param
from ..descriptors import (
    ColumnsBySet, Columns, Difference, Finite, EMPTY, FULL,
    Descriptor, EP, analyze, block_bounds, block_of, column_descriptor,
    ep_only, member, DyadicBlocks, WeightBlocks, TailColumns,
)
from ..relations import ClassKey, columnwise_key, decide
from . import (
    Reduction, register_reduction, register_mutant,
    gen_pair_1d, gen_pair_columns, one_arg_build, perturbed, adding,
)


_ZERO = Finite(frozenset({0}))


def _column_reach(b: int) -> int:
    """The largest c with <c, 0> = c(c+1)/2 <= b."""
    return (math.isqrt(8 * b + 1) - 1) // 2


def _row_reach(b: int) -> int:
    """The largest x with <0, x> = x(x+3)/2 <= b."""
    return (math.isqrt(8 * b + 9) - 3) // 2


def _pair_width(m: int) -> int:
    """Largest component value a pair code <= m can involve."""
    return _column_reach(m) + 1


# ---------------------------------------------------------------------------
# combinator steps


def _line_stages(ev, a, bound, heads, lag):
    """Emit every line's stage-s code in start order: last stage's plus
    its lag plus s, then start a line at each element x new in argument
    cell a, at code heads(new) with lag x + lag - s.  Drop the lines
    past the bound; close once none is left and the argument can start
    no more."""
    read, tick = ev.read, ev.tick
    cur, kept = (), []
    for s in count():
        new = read(a, s)
        tick(len(cur) + len(new))
        out = cur = [*map(add, cur, map(add, kept, repeat(s)))]
        if new:
            out += heads(new)
            kept += map(add, new, repeat(lag - s))
        # a C-level max spares the filter on the stages where no code
        # passed
        if bound is not None and out and max(out) > bound:
            keep = [*map(bound.__ge__, out)]
            cur, kept = [*compress(out, keep)], [*compress(kept, keep)]
        if not cur and a.closed(s):
            return out
        yield out


def _column_heads(cs):
    return pairs(cs, repeat(0))


def _row_heads(ks):
    return pairs(repeat(0), ks)


def _stages_expand_columns(ev, args, params, bound=None):
    """Element c of the argument grows the full column c, one row per
    stage from the stage c appeared."""
    # column c's next row rises with the stage: a column past the bound
    # is done.  <c, k+1> = <c, k> + c + k + 2: entered at stage t,
    # column c starts at <c, 0> and rises by c + 1 - t + s at stage s
    return _line_stages(ev, args[0], bound, _column_heads, 1)


def _stages_tail_columns(ev, args, params, bound=None):
    """New element x contributes <c, x> for every column c <= x."""
    # <c, x> rises with c: the row stops at the bound
    a = args[0]
    read, tick = ev.read, ev.tick
    for s in count():
        out = []
        for x in read(a, s):
            # under a bound, the row runs to its first column past the
            # bound: <c, x> <= b exactly when c + x <= _column_reach(b - x)
            n = x + 1 if bound is None else min(
                x + 1, _column_reach(bound - x) - x + 2)
            tick(n)
            out += row(x, n)
        if a.closed(s):
            return out
        yield out


def _stages_replicate_columns(ev, args, params, bound=None):
    """Every column of the output converges to the argument set."""
    # row k's next column rises with the stage: a row past the bound is
    # done.  <c+1, k> = <c, k> + c + k + 1: entered at stage t, row k
    # starts at <0, k> and rises by k - t + s at stage s
    return _line_stages(ev, args[0], bound, _row_heads, 0)


def _progression_stages(ev, a, starts_of):
    """Emit every progression's stage-s value in start order: last
    stage's plus its step, or the first of each new (first, end, step)
    that ``starts_of`` gives for the argument's new elements.  Each
    stops at the stage its rising value reaches its end; close once
    none is left and the argument can start no more."""
    read, tick = ev.read, ev.tick
    cur, steps, stops, due = (), [], [], math.inf
    for s in count():
        starts = starts_of(read(a, s))
        tick(len(cur) + len(starts))
        cur = [*map(add, cur, steps)]
        for first, end, step in starts:
            stop = s - (first - end) // step  # the stage it reaches its end
            if stop > s:
                cur.append(first)
                steps.append(step)
                stops.append(stop)
                due = min(due, stop)
        # the stage the first one stops spares a check on every other
        # stage
        while due <= s:
            i = stops.index(due)
            del cur[i], steps[i], stops[i]
            due = min(stops, default=math.inf)
        if not cur and a.closed(s):
            return cur
        yield cur


def _stages_block_union(ev, args, params, bound=None):
    """Element n of the argument grows the n-th block, one value per
    stage, in increasing order."""
    # block n starts at or past n and its values rise: a block stops
    # at the bound
    kind = "weight" if param(params, 0) == 1 else "dyadic"

    def starts_of(new):
        starts = []
        for n in new:
            lo, hi = block_bounds(kind, n)
            starts.append((lo, hi if bound is None else min(hi, bound + 1),
                           1))
        return starts
    return _progression_stages(ev, args[0], starts_of)


def _stages_scaled_blocks(ev, args, params, bound=None):
    """Interleave the dyadic-block images of the argument's columns
    into geometrically thinning residue classes.

    Column c of the argument is sent into the class of x with
    v2(x+1) = c; the row k in column c grows the image of the k-th
    dyadic block there, one value per stage.
    """
    # the image of <c, k> starts at 2^c - 1 + 2^(c+k+1) >= <c, k> and
    # rises: an image stops at the bound
    def starts_of(new):
        starts = []
        for z in new:
            c, k = unpair(z)
            step = 1 << (c + 1)
            lo = (1 << c) - 1
            hi = lo + (step << (k + 1))
            starts.append((lo + (step << k), hi if bound is None
                           else min(hi, bound + 1), step))
        return starts
    return _progression_stages(ev, args[0], starts_of)


def string_of(m: int) -> tuple:
    """The m-th binary string in length-then-value order (m=0: empty)."""
    bits = bin(m + 1)[3:]
    return tuple(1 if b == "1" else 0 for b in bits)


def _open_column(lens, ys, codes, s, d, y0, size):
    """Open column s, d past the last of its family: advance the codes
    of rows ys by d y + (s-d+1) + ... + s, from <m, x> = <m-1, x> + m + x,
    start the rows that came since, and drop the rows y < y0 + size; a
    later string, as long or longer, skips them too."""
    if codes:
        dys = ys if d == 1 else map(mul, ys, repeat(d))
        sums = repeat(d * (2 * s + 1 - d) // 2)
        codes[:] = map(add, codes, map(add, dys, sums))
    if len(ys) > len(codes):
        codes += pairs(repeat(s), ys[len(codes):])
    if lens and size > lens[-1]:
        keep = [*map((y0 + size).__le__, ys)]
        ys[:] = compress(ys, keep)
        codes[:] = compress(codes, keep)
    lens.append(size)


def _stages_prefixed_columns(ev, args, params, bound=None):
    """Output column <n, m> holds n ones, a zero, the m-th binary
    string, then column n of the argument beyond the string's length.

    Generator <n, m> activates at stage <n, m>; its static part is
    emitted at once, its tail follows the argument's column n.
    """
    a = args[0]
    read, tick = ev.read, ev.tick
    # n -> (the columns <n, m> of its active generators and their |s_m|,
    # the first ones take row k; the rows n + 1 + k past the last string
    # and their codes there)
    family = {}
    for s in count():
        out = []
        # route new argument elements to active generators; the row
        # <<n, m>, n + 1 + k> it gives <n, k> is >= <n, k>
        for z in read(a, s):
            n, k = unpair(z)
            cols, lens, ys, _ = family.get(n) or family.setdefault(
                n, ([], [], [], []))
            j = bisect_right(lens, k)
            if j:
                tick(j)
                out += pairs(cols[:j], repeat(n + 1 + k))
            if j == len(lens):
                ys.append(n + 1 + k)
        # every output of generator <n, m> = s is a pair <s, y> >= <s, 0>,
        # so past the bound only the argument can add outputs
        closed = (bound is not None and pair(s + 1, 0) > bound
                  and a.closed(s))
        if bound is None or pair(s, 0) <= bound:
            # activate the next generator, whose column <n, m> is s; the
            # last one, <n, m-1>, lies n + m + 1 columns back
            n, m = unpair(s)
            word = string_of(m)
            cols, lens, ys, tail = family.get(n) or family.setdefault(
                n, ([], [], [], []))
            cols.append(s)
            _open_column(lens, ys, tail, s, n + m + 1, n + 1, len(word))
            # rows 0..n-1, then n + 1 + i for each 1 at position i of the
            # string, then the known rows of argument column n past it
            tick(n + sum(word) + len(tail))
            codes = column(s, n + 1 + len(word))
            out += chain(codes[:n], compress(codes[n + 1:], word), tail)
        if closed:
            return out
        yield out


def _stages_prefix_family(ev, args, params, bound=None):
    """Output column m holds the m-th binary string, then the argument
    set beyond the string's length."""
    a = args[0]
    read, tick = ev.read, ev.tick
    # |s_m| of every open column m, which are the first ones to take
    # x, the known x past the last string, and their codes there
    lens, known, cur = [], [], []
    for s in count():
        out = []
        for x in read(a, s):
            n = bisect_right(lens, x)
            if n:
                tick(n)
                out += row(x, n)
            if n == len(lens):
                known.append(x)
        # column m = s opens now, and <m, y> >= <m, 0>: past the bound
        # only the argument can add outputs
        closed = (bound is not None and pair(s + 1, 0) > bound
                  and a.closed(s))
        if bound is None or pair(s, 0) <= bound:
            word = string_of(s)
            _open_column(lens, known, cur, s, 1, 0, len(word))
            tick(sum(word) + len(cur))
            if any(word):
                out += compress(column(s, len(word)), word)
            out += cur
        if closed:
            return out
        yield out


def _same(b: int) -> int:
    return b


# Each construction reads its argument under the bound that keeps every
# element an output <= b can come from: <c, k> >= <c, 0>, so only
# c <= _column_reach(b) can start a column of expand_columns; <c, x> >=
# <0, x>, so only x <= _row_reach(b) can give a row of tail_columns,
# replicate_columns or prefix_family; and an output of block_union,
# scaled_blocks or prefixed_columns is >= the element it comes from.
register_combinator("expand_columns", _stages_expand_columns,
                    reach=_column_reach)
register_combinator("tail_columns", _stages_tail_columns, reach=_row_reach)
register_combinator("replicate_columns", _stages_replicate_columns,
                    reach=_row_reach)
register_combinator("block_union", _stages_block_union, reach=_same)
register_combinator("scaled_blocks", _stages_scaled_blocks, reach=_same)
register_combinator("prefixed_columns", _stages_prefixed_columns,
                    reach=_same)
register_combinator("prefix_family", _stages_prefix_family,
                    reach=_row_reach)


# ---------------------------------------------------------------------------
# builds


# eqce_to_e0: c in A becomes the full column c --------------------------------

def _expand_transform(a: Descriptor) -> Descriptor:
    return ColumnsBySet(a, FULL, EMPTY)


def _column_settle(payload, sa, M):
    return sa(M) + M + 1


eqce_to_e0 = register_reduction(Reduction(
    name="eqce_to_e0", source="eq_ce", target="e0",
    build=one_arg_build("expand_columns", _column_settle),
    predict=_expand_transform,
    gen_case=gen_pair_1d,
    window=128,
    doc="equality drops to finite-difference via full-column images",
))


# e0_to_e1: column x is the argument minus [0, x) -----------------------------

e0_to_e1 = register_reduction(Reduction(
    name="e0_to_e1", source="e0", target="e1",
    build=one_arg_build("tail_columns", lambda p, sa, M: sa(M) + 1),
    predict=TailColumns,
    gen_case=gen_pair_1d,
    window=128,
    doc="finite difference becomes almost-every-column equality",
))
register_mutant("e0_to_e1", "drops-zero",
                perturbed(e0_to_e1.build, lambda a: Difference(a, _ZERO)))


# e0_to_e2 / e0_to_z0: block unions ------------------------------------------

def _block_settle(kind):
    def settle(payload, sa, M):
        n = block_of(kind, M)
        if n is None:
            n = 0
        return sa(n) + M + 2
    return settle


e0_to_e2 = register_reduction(Reduction(
    name="e0_to_e2", source="e0", target="e2",
    build=one_arg_build("block_union", _block_settle("weight"), (1,)),
    predict=WeightBlocks,
    gen_case=gen_pair_1d,
    window=128,
    doc="finite difference becomes finite-weight difference",
))
register_mutant("e0_to_e2", "adds-zero", perturbed(e0_to_e2.build, adding(0)))

e0_to_z0 = register_reduction(Reduction(
    name="e0_to_z0", source="e0", target="z0",
    build=one_arg_build("block_union", _block_settle("dyadic"), (0,)),
    predict=DyadicBlocks,
    gen_case=gen_pair_1d,
    window=128,
    doc="finite difference becomes density-zero difference",
))
register_mutant("e0_to_z0", "adds-one", perturbed(e0_to_z0.build, adding(1)))


# e0_to_e3: every column is the argument --------------------------------------

def _replicate_transform(a: Descriptor) -> Descriptor:
    return Columns((), a)


e0_to_e3 = register_reduction(Reduction(
    name="e0_to_e3", source="e0", target="e3",
    build=one_arg_build("replicate_columns", _column_settle),
    predict=_replicate_transform,
    gen_case=gen_pair_1d,
    window=96,
    doc="finite difference becomes columnwise almost equality",
))
register_mutant("e0_to_e3", "adds-zero", perturbed(e0_to_e3.build, adding(0)))
# copying the argument into every column transposes the full columns
register_mutant("eqce_to_e0", "transposed-pairs", e0_to_e3.build)


# e3_to_z0: interleave column block images into thinning classes --------------

def _scaled_member(payload):
    def mem(x):
        y = x + 1
        c = (y & -y).bit_length() - 1  # 2-adic valuation of x+1
        r = (y - (1 << c)) >> (c + 1)
        if r < 1:
            return False
        b = r.bit_length() - 1
        return member(column_descriptor(payload, c), b)
    return mem


def _e0_colkey(col):
    return col.e0_key() if isinstance(col, EP) else col


def _scaled_settle(payload, sa, M):
    lg = max(M, 1).bit_length()
    return sa(pair(lg + 1, lg + 1)) + M + 2


e3_to_z0 = register_reduction(Reduction(
    name="e3_to_z0", source="e3", target="z0",
    build=one_arg_build("scaled_blocks", _scaled_settle),
    predict=lambda payload: ClassKey(
        "z0", columnwise_key(payload, _e0_colkey), _scaled_member(payload)),
    gen_case=gen_pair_columns,
    window=128,
    doc="columnwise almost equality becomes density-zero difference",
))
register_mutant("e3_to_z0", "adds-zero", perturbed(e3_to_z0.build, adding(0)))


# e3_to_eset: prefix-closed column variants ------------------------------------

def _prefixed_member(payload):
    def mem(x):
        col, y = unpair(x)
        n, m = unpair(col)
        word = string_of(m)
        if y < n:
            return True
        if y == n:
            return False
        i = y - n - 1
        if i < len(word):
            return word[i] == 1
        return member(column_descriptor(payload, n), i)
    return mem


def _prefixed_settle(payload, sa, M):
    w = _pair_width(M)
    return max(M, sa(pair(w + 1, w + 1))) + 2


e3_to_eset = register_reduction(Reduction(
    name="e3_to_eset", source="e3", target="eset",
    build=one_arg_build("prefixed_columns", _prefixed_settle),
    predict=lambda payload: ClassKey(
        "eset", ("marked-variants", columnwise_key(payload, _e0_colkey)),
        _prefixed_member(payload)),
    gen_case=gen_pair_columns,
    window=96,
    doc="columnwise almost equality becomes column-family equality",
))
register_mutant("e3_to_eset", "adds-zero",
                perturbed(e3_to_eset.build, adding(0)))


# e0_to_eset: all finite variants of one set -----------------------------------

def _prefix_family_member(payload):
    def mem(x):
        m, y = unpair(x)
        word = string_of(m)
        if y < len(word):
            return word[y] == 1
        return member(payload, y)
    return mem


def _prefix_family_settle(payload, sa, M):
    w = _pair_width(M)
    return max(w, sa(w)) + M + 2


e0_to_eset = register_reduction(Reduction(
    name="e0_to_eset", source="e0", target="eset",
    build=one_arg_build("prefix_family", _prefix_family_settle),
    predict=lambda payload: ClassKey(
        "eset", ("prefix-family",
                 ep_only(analyze(payload), "an e0 key").e0_key()),
        _prefix_family_member(payload)),
    gen_case=gen_pair_1d,
    window=128,
    doc="finite difference becomes equality of finite-variant families",
))
register_mutant("e0_to_eset", "adds-zero",
                perturbed(e0_to_eset.build, adding(0)))


# ---------------------------------------------------------------------------
# input families: column-structured descriptors with small footprints


def gen_pair_inputs(rng: random.Random, cols: int = 5, height: int = 4):
    """Two column-structured descriptors for the pairwise module."""
    def cell():
        return Finite(frozenset(
            rng.randrange(height) for _ in range(rng.randrange(3))))

    base = {c: cell() for c in range(rng.randrange(1, cols + 1))}
    other = dict(base)
    for c in list(other):
        if rng.random() < 0.4:
            other[c] = cell()
    defaults = [EMPTY, Finite(frozenset({0}))]
    da = rng.choice(defaults)
    db = da if rng.random() < 0.6 else rng.choice(defaults)
    a = Columns(tuple(sorted(base.items())), da)
    b = Columns(tuple(sorted(other.items())), db)
    return a, b


def gen_family(rng: random.Random, k: int = 4, cols: int = 4,
               height: int = 4):
    """K column-structured inputs sharing or splitting their tails.

    Explicit columns sit at c < cols with entries below height, so every
    relevant input element is a small pair code and the machine settles
    early.  Tail columns are EMPTY or {0} per input, which decides the
    infinite part of the column-agreement pattern.
    """
    def cell():
        return Finite(frozenset(
            rng.randrange(height) for _ in range(rng.randrange(3))))

    defaults = [EMPTY, Finite(frozenset({0}))]
    family = []
    base = {c: cell() for c in range(cols)}
    for i in range(k):
        mine = dict(base)
        for c in range(cols):
            if rng.random() < 0.35:
                mine[c] = cell()
        d = rng.choice(defaults)
        family.append(Columns(tuple(sorted(mine.items())), d))
    return family


def _explicit_bound(family) -> int:
    """First column index past every explicitly listed column."""
    top = 0
    for d in family:
        for c, _ in d.cols:
            top = max(top, c + 1)
    return top


def _column(ws: set, c: int, height: int = 16) -> frozenset:
    return frozenset(k for k in range(height)
                     if pair(c, k) in ws)


# ---------------------------------------------------------------------------
# the pairwise module


@dataclass
class PairwiseResult:
    d_ab: set
    d_ba: set
    stages: int
    # element -> the stage it entered D_ab (D_ba)
    ab_from: dict = field(default_factory=dict)
    ba_from: dict = field(default_factory=dict)

    def before(self, stages: int) -> tuple:
        """(D_ab, D_ba) as a run of the first ``stages`` stages leaves
        them: every stage depends only on the stages before it."""
        return ({x for x, t in self.ab_from.items() if t < stages},
                {x for x, t in self.ba_from.items() if t < stages})


def run_pairwise_module(a: Descriptor, b: Descriptor,
                        stages: int) -> PairwiseResult:
    """Build D_ab and D_ba from enumerations of a and b.

    A and B are enumerated canonically: A_s is everything below s that
    belongs to a.  A pair code <c, k> enters D_ab at stage s+1 when it
    lies in A_s \\ B_s and the two stage approximations agree on every
    <c, n> with n < k; and it also enters (the echo rule) once it lies
    in D_ba together with both A_s and B_s.  The stage sets grow by one
    membership test per stage.
    """
    d_ab: dict = {}  # element -> entry stage
    d_ba: dict = {}
    ws_a: set = set()
    ws_b: set = set()
    for s in range(stages):
        if s and member(a, s - 1):
            ws_a.add(s - 1)
        if s and member(b, s - 1):
            ws_b.add(s - 1)
        new_ab = set()
        new_ba = set()
        for x in ws_a | ws_b:
            c, k = unpair(x)
            agree_below = all(
                (pair(c, n) in ws_a) == (pair(c, n) in ws_b)
                for n in range(k))
            if x in ws_a and x not in ws_b and agree_below:
                new_ab.add(x)
            if x in ws_b and x not in ws_a and agree_below:
                new_ba.add(x)
            if x in d_ba and x in ws_a and x in ws_b:
                new_ab.add(x)
            if x in d_ab and x in ws_a and x in ws_b:
                new_ba.add(x)
        for x in new_ab:
            d_ab.setdefault(x, s)
        for x in new_ba:
            d_ba.setdefault(x, s)
    return PairwiseResult(set(d_ab), set(d_ba), stages, d_ab, d_ba)


def check_pairwise(a: Descriptor, b: Descriptor, columns: int = 10,
                   height: int = 8, stages: int = 90,
                   probe: int = 30) -> list:
    """Structural checks for the pairwise module on settled inputs.

    Returns a list of human-readable issues (empty when all hold):
    output columns agree exactly where the input columns agree, carry at
    least one difference where they do not, and every difference is
    finite (stable under extra stages).
    """
    issues = []
    longer = run_pairwise_module(a, b, stages + probe)
    d_ab, d_ba = longer.before(stages)
    for c in range(columns):
        in_a = frozenset(k for k in range(height) if member(a, pair(c, k)))
        in_b = frozenset(k for k in range(height) if member(b, pair(c, k)))
        out_ab = _column(d_ab, c, height=stages)
        out_ba = _column(d_ba, c, height=stages)
        if in_a == in_b:
            if out_ab != out_ba:
                issues.append(f"column {c}: inputs agree but outputs differ")
        else:
            if out_ab == out_ba:
                issues.append(f"column {c}: inputs differ but outputs agree")
            later_ab = _column(longer.d_ab, c, height=stages + probe)
            later_ba = _column(longer.d_ba, c, height=stages + probe)
            if later_ab ^ later_ba != out_ab ^ out_ba:
                issues.append(f"column {c}: difference is still growing")
    return issues


# ---------------------------------------------------------------------------
# the tracked-family machine


@dataclass
class _Slice:
    """Per-(column, input) bookkeeping.

    ``marker`` counts how many marker positions have been used;
    ``current`` is the current marker element, the pair code of
    ((c, j), marker).
    ``minima`` maps each smaller input index i to the least column
    difference between inputs i and j seen so far, or None.
    ``retired`` lists the retired marker elements in order; the first
    ``checked`` of them were found in every output by an earlier
    invariant check.  ``split`` maps each element that some outputs hold
    on the slice, but not all, to the number that hold it.
    """

    c: int
    j: int
    marker: int = 0
    minima: dict = field(default_factory=dict)
    retired: list = field(default_factory=list)
    checked: int = 0
    last_churn: int = -1
    last_move: int = 0
    split: dict = field(default_factory=dict)
    current: int = field(init=False)

    def __post_init__(self):
        self.current = _marker_element(self)


def _marker_element(sl: _Slice) -> int:
    return pair(pair(sl.c, sl.j), sl.marker)


class TrackedFamilyMachine:
    """Family version of the pairwise module.

    Builds outputs G[0..K-1] from K column-structured inputs.  Slice
    (c, j) watches whether input j differs on column c from every
    earlier input, and if so plants one permanent marker separating
    G[j] from the earlier outputs there; whenever the evidence shifts,
    the old marker is retired into every output and a fresh one is
    planted.  Inputs k with j < k <= c are steered to match G[j] or the
    earlier outputs on the slice according to how W_k treats the least
    column differences.

    Input k is enumerated canonically: ``stage_sets[k]`` is W_k at the
    current stage, everything below it that belongs to input k.  The
    machine keeps its checks incremental, since a stage changes little:

    - each stage set grows by one membership test per stage and input;
    - W at stage s differs from W at stage s-1 by at most the element
      s-1 = <c, n>, so only column c's slices can see a new least
      difference, and only at position n;
    - ``_add``, the one writer of ``outputs`` and ``cells``, keeps each
      slice's ``split`` elements, so ``invariant_issues`` compares a
      slice's cells pairwise only when something besides the current
      marker tells two outputs apart;
    - each retired marker is checked until it is first found in every
      output.
    """

    def __init__(self, family, slices_c: int, height: int = 16):
        self.family = list(family)
        self.k = len(family)
        self.slices_c = slices_c
        self.height = height
        self.outputs = [set() for _ in range(self.k)]
        self.cells = {}  # (c, j) -> per-output restriction to the slice
        self.slices = {}
        self.stage = 0
        self.stage_sets = [set() for _ in self.family]
        self._columns = {}  # (input, column) -> memberships below height
        for c in range(slices_c):
            for j in range(self.k):
                sl = _Slice(c, j, minima=dict.fromkeys(range(j)))
                self.slices[(c, j)] = sl
                self.cells[(c, j)] = [set() for _ in range(self.k)]
                self._add(j, sl, sl.current)

    def _add(self, g: int, sl: _Slice, x: int):
        cell = self.cells[(sl.c, sl.j)][g]
        if x in cell:
            return
        cell.add(x)
        self.outputs[g].add(x)
        held = sl.split.pop(x, 0) + 1
        if held < self.k:
            sl.split[x] = held

    def _new_minima(self, x: int) -> set:
        """Take in element x, the one that entered the stage sets since
        the last stage; returns the slices whose minima it changed.

        Before x entered, no input held <c, n> = x, so it now differs
        between inputs i and j exactly when one of them took it in, and
        their least difference becomes min(old, n).
        """
        c, n = unpair(x)
        if n >= self.height or c >= self.slices_c:
            return set()
        held = [x in ws for ws in self.stage_sets]
        changed = set()
        for j in range(1, self.k):
            sl = self.slices[(c, j)]
            for i in range(j):
                m = sl.minima[i]
                if held[i] != held[j] and (m is None or n < m):
                    sl.minima[i] = n
                    changed.add((c, j))
        return changed

    def _fact(self, sl: _Slice, k: int, stage_sets) -> bool:
        """Input k treats every recorded least difference of slice
        (c, j) the same way input j does."""
        c, j = sl.c, sl.j
        for i in range(j):
            m = sl.minima.get(i)
            if m is None:
                return False
            e = pair(c, m)
            if (e in stage_sets[k]) != (e in stage_sets[j]):
                return False
        return True

    def _retire(self, sl: _Slice):
        x = sl.current
        for g in range(self.k):
            self._add(g, sl, x)
        sl.retired.append(x)
        sl.marker += 1
        sl.current = _marker_element(sl)
        sl.last_move = self.stage
        self._add(sl.j, sl, sl.current)

    def step(self):
        s = self.stage
        # the minima read W at stage s, the facts W at stage s+1
        changed = self._new_minima(s - 1) if s else set()
        next_sets = self.stage_sets
        for d, ws in zip(self.family, next_sets):
            if member(d, s):
                ws.add(s)
        for key, sl in self.slices.items():
            c, j = key
            churn = key in changed or None in sl.minima.values()
            steered = range(j + 1, min(c, self.k - 1) + 1)
            matching = [k for k in steered if self._fact(sl, k, next_sets)]
            if not churn:
                # a steered input that holds its marker but no longer
                # matches input j on the minima forces a fresh marker
                x = sl.current
                churn = any(x in self.outputs[k]
                            for k in steered if k not in matching)
            if churn:
                self._retire(sl)
                sl.last_churn = s + 1
            x = sl.current
            for k in matching:
                self._add(k, sl, x)
        self.stage += 1

    def run(self, stages: int):
        while self.stage < stages:
            self.step()

    # ------ invariants and verdicts ------

    def slice_of(self, g: int, key) -> set:
        return self.cells[key][g]

    def invariant_issues(self) -> list:
        """Checks that must hold at every stage."""
        issues = []
        for key, sl in self.slices.items():
            x = sl.current
            # outputs only grow (``_add`` is their one writer), so a
            # retired marker found in every output stays there: each is
            # checked until it is first found, then never again
            for r in sl.retired[sl.checked:]:
                if any(r not in g for g in self.outputs):
                    issues.append(f"slice {key}: retired marker {r} missing"
                                  " from some output")
                    break
                sl.checked += 1
            # two outputs differ on the slice only where some output
            # lacks an element another holds
            if all(y == x for y in sl.split):
                continue
            cells = [self.slice_of(g, key) for g in range(self.k)]
            for a in range(self.k):
                for b in range(a + 1, self.k):
                    d = cells[a] ^ cells[b]
                    if d - {x}:
                        issues.append(f"slice {key}: outputs {a},{b} differ"
                                      " beyond the current marker")
        return issues

    def _column(self, m: int, c: int) -> tuple:
        """Input m's memberships on column c below the height, kept
        once computed: the verdicts ask for the same columns again."""
        col = self._columns.get((m, c))
        if col is None:
            d = self.family[m]
            col = self._columns[(m, c)] = tuple(
                member(d, pair(c, k)) for k in range(self.height))
        return col

    def column_agree(self, m: int, n: int, c: int) -> bool:
        return self._column(m, c) == self._column(n, c)

    def agreement_issues(self) -> list:
        """Slices where some earlier input matches input j's column must
        churn forever and keep every output synchronized there."""
        issues = []
        for key, sl in self.slices.items():
            c, j = key
            if not any(self.column_agree(i, j, c) for i in range(j)):
                continue
            if self.stage - sl.last_churn > 2 * self.height + 4:
                issues.append(f"slice {key}: agreement slice stopped"
                              " churning")
            x = sl.current
            cells = [self.slice_of(g, key) - {x} for g in range(self.k)]
            if any(cell != cells[0] for cell in cells):
                issues.append(f"slice {key}: agreement slice outputs differ"
                              " beyond the current marker")
        return issues

    def settlement_issues(self, checkpoint: int) -> list:
        """Non-churning slices must have stopped moving their markers by
        the checkpoint stage."""
        issues = []
        for key, sl in self.slices.items():
            c, j = key
            if any(self.column_agree(i, j, c) for i in range(j)):
                continue
            if sl.last_move > checkpoint:
                issues.append(f"slice {key}: marker moved at stage"
                              f" {sl.last_move}, after the checkpoint")
        return issues

    def output_verdict(self, m: int, n: int, tail_from: int) -> bool:
        """Finitely-many-differences verdict for outputs m and n.

        Differences within the explicitly listed columns are finite by
        construction; the verdict is decided by the uniform tail slices,
        where every input column equals its per-input default.
        """
        for key, sl in self.slices.items():
            c, j = key
            if c < tail_from:
                continue
            x = sl.current
            a = self.slice_of(m, key) - {x}
            b = self.slice_of(n, key) - {x}
            if a != b:
                return False
            if any(self.column_agree(i, j, c) for i in range(j)):
                continue  # churning slice: the marker is transient
            if (x in self.outputs[m]) != (x in self.outputs[n]):
                return False
        return True


@dataclass
class FamilyReport:
    issues: list
    verdicts: dict       # (m, n) -> (input verdict, output verdict)


def run_tracked_family(family, checkpoint: int = 30, horizon: int = 60,
                       slices_c: int = 8, height: int = 8) -> FamilyReport:
    """Run the machine and collect every structural check.

    The input-side verdict (finitely many differing columns) comes from
    the descriptor oracle; the output-side verdict is read off the
    machine's tail slices.  They must agree on every pair.
    """
    machine = TrackedFamilyMachine(family, slices_c, height=height)
    issues = []
    while machine.stage < horizon:
        machine.step()
        issues.extend(machine.invariant_issues())
        if issues:
            break
    if not issues:
        issues.extend(machine.agreement_issues())
        issues.extend(machine.settlement_issues(checkpoint))
    tail_from = max(_explicit_bound(family), len(family) - 1)
    verdicts = {}
    for m in range(len(family)):
        for n in range(m + 1, len(family)):
            want = decide("e1", family[m], family[n])
            got = machine.output_verdict(m, n, tail_from)
            verdicts[(m, n)] = (want, got)
            if want != got:
                issues.append(f"pair ({m},{n}): input verdict {want} but"
                              f" output verdict {got}")
    return FamilyReport(issues, verdicts)
