"""Reductions among the order-invariant relations below set equality.

These relations (same minimum, same maximum, same median, same gcd/lcm,
same cut or hull in a fixed coded order) all compare a single numeric
invariant of the enumerated set.  The reductions either *saturate* the
set into a canonical representative of its class, or emit a stream of
stage invariants whose limit class is the right one.

Saturations are schedule independent and window-validated.  The
invariant streams (stage gcds, running factorials, median multiples)
legitimately depend on the enumeration schedule, so they carry custom
semantic validators instead of exact window predictions.
"""

from __future__ import annotations

import bisect
import heapq
import math
from fractions import Fraction
from itertools import count

from ..programs import register_combinator, param
from ..descriptors import (
    Descriptor, Finite, Progression, EMPTY, FULL, analyze, ep_only,
)
from ..orders import CodeKey, code_below, rational_parts
from ..relations import ClassKey, QCut, max_key
from . import (
    Reduction, register_reduction, register_mutant,
    gen_pair_1d, one_arg_build, perturbed, adding, without_minimum,
)


def _fact(n: int) -> int:
    return math.factorial(n)


# ---------------------------------------------------------------------------
# combinator steps


def _widen(bounds, new):
    """The (least, largest) element so far, given last stage's (None
    while the argument was empty) and the argument's new elements."""
    if not new:
        return bounds
    lo, hi = min(new), max(new)
    if bounds is None:
        return lo, hi
    return min(lo, bounds[0]), max(hi, bounds[1])


def _stages_saturate_up(ev, args, params, bound=None):
    """Enumerate [current minimum + offset, infinity), one new value per
    stage, extending downward whenever the minimum drops."""
    # high counts stages from the argument's first minimum, which can
    # lie past the bound, so the argument is read whole
    off = param(params, 0)
    a = args[0]
    read, tick = ev.read, ev.tick
    least = low = high = None
    for s in count():
        new = read(a, s)
        if new:
            least = min(new) if least is None else min(least, min(new))
        elif least is None:
            if a.closed(s):
                return ()
            yield ()
            continue
        tick()
        m = least + off
        if low is None:
            low, high = m, m - 1
        if m < low:
            out = [*range(m, low), high + 1]
            low = m
        else:
            out = [high + 1]
        high += 1
        # [low, high] is out; past the bound only a new minimum below
        # low - off extends it downward
        if (bound is not None and high >= bound
                and a.closed(s, low - off - 1)):
            return out
        yield out


def _stages_saturate_down(ev, args, params, bound=None):
    """Enumerate [0, current maximum - trim], extending upward as the
    maximum grows."""
    # the maximum needs all of the argument; the output stops at the
    # bound
    a = args[0]
    trim = param(params, 0)
    read, tick = ev.read, ev.tick
    top, filled = None, -1
    for s in count():
        new = read(a, s)
        if new:
            top = max(new) if top is None else max(top, max(new))
        done = a.closed(s)
        out = ()
        if top is not None:
            tick()
            mx = top - trim
            if bound is not None:
                mx = min(mx, bound)
                if mx >= bound:
                    done = True
            if mx > filled:
                out = range(filled + 1, mx + 1)
                filled = mx
        if done:
            return out
        yield out


def _stages_interval_hull(ev, args, params, bound=None):
    """Enumerate [current minimum, current maximum].

    The minimum only falls and the maximum only rises, so each stage's
    interval contains the last one and only its new ends are emitted."""
    # the maximum needs all of the argument
    a = args[0]
    read, tick = ev.read, ev.tick
    bounds = done = None  # done: the interval emitted so far
    for s in count():
        bounds = _widen(bounds, read(a, s))
        closed = a.closed(s)
        out = ()
        if bounds is not None:
            tick()
            lo, hi = bounds
            # once hi reaches the bound, only a new minimum below lo can
            # add an output <= b
            if (bound is not None and hi >= bound
                    and a.closed(s, lo - 1)):
                closed = True
            if done is None:
                out = range(lo, hi + 1)
            else:
                out = [*range(lo, done[0]), *range(done[1] + 1, hi + 1)]
            done = bounds
        if closed:
            return out
        yield out


def _factorial_stages(side: int):
    """A step whose generator emits (m + 2)! whenever the running bound
    m changes: the minimum for side 0, the maximum for side 1.

    It keeps its last factorial and reaches the next one by multiplying
    or dividing by the factors in between, charging one step per
    factor before it computes."""
    def stages(ev, args, params, bound=None):
        a = args[0]
        read, tick = ev.read, ev.tick
        bounds, last, fact = None, -1, 1  # (-1 + 2)! = 1
        for s in count():
            bounds = _widen(bounds, read(a, s))
            closed = a.closed(s)
            out = ()
            if bounds is not None:
                tick()
                m = bounds[side]
                if last != m:
                    tick(abs(m - last))
                    if m > last:
                        fact *= math.prod(range(last + 3, m + 3))
                    else:
                        fact //= math.prod(range(m + 3, last + 3))
                    last = m
                    out = (fact,)
            if closed:
                return out
            yield out
    return stages


def _stages_stage_gcds(ev, args, params, bound=None):
    """Emit the gcd of the stage approximation when it changes to a
    finite value: to a proper divisor, so a new value."""
    a = args[0]
    read, tick = ev.read, ev.tick
    g = 0  # 0 while the gcd is infinite
    for s in count():
        tick()
        was = g
        for x in read(a, s):
            g = math.gcd(g, x)
        out = () if g == was else (g,)
        if a.closed(s):
            return out
        yield out


def _stages_stage_lcms(ev, args, params, bound=None):
    """Emit the lcm of the positive stage elements (1 when none) at
    stage 0 and on a change: to a proper multiple, so a new value."""
    a = args[0]
    read, tick = ev.read, ev.tick
    l = 1
    for s in count():
        tick()
        was = l
        for x in read(a, s):
            if x > 0:
                l = l * x // math.gcd(l, x)
        out = (l,) if s == 0 or l != was else ()
        if a.closed(s):
            return out
        yield out


def _two_middle(sorted_elems):
    n = len(sorted_elems)
    return sorted_elems[(n - 1) // 2], sorted_elems[n // 2]


def _stages_median_multiples(ev, args, params, bound=None):
    """Emit positive multiples of a step size derived from the current
    median; on every median change, fill everything up to the largest
    value emitted so far.

    The step size is a + b + 2 where a, b are the two middle elements,
    so distinct medians give distinct (>= 2) step sizes.  After a fill
    every value up to the old top is emitted, so the next fill scans
    only from there.
    """
    a = args[0]
    read, tick = ev.read, ev.tick
    elems, done = [], set()  # done: every value emitted
    mid, top, filled, mult = None, -1, 0, 0
    for s in count():
        for x in read(a, s):
            bisect.insort(elems, x)
        out = []
        if elems:
            tick()
            now = _two_middle(elems)
            if now != mid:
                mid = now
                tick(max(top + 1 - filled, 0))
                out.extend(x for x in range(filled, top + 1)
                           if x not in done)
                done.update(out)
                filled = top + 1
                mult = 0
            mult += 1
            v = (mid[0] + mid[1] + 2) * mult
            if v not in done:
                out.append(v)
                done.add(v)
            top = max(top, max(out, default=-1))
        yield out


def _codes_below(a, s, waiting, cut, bound, unreachable=None):
    """Rational codes <= s (and <= bound) whose rational lies below the
    fraction ``cut = (num, den)``, den > 0, each emitted at the first
    stage it qualifies; ``cut`` None emits none.  Returns them, and
    whether the cell closes at stage s.

    The cut only rises, so the codes still waiting are kept in the heap
    ``waiting`` of ``CodeKey``s, ordered by their rationals, and leave
    it from the small end: each code is looked up once, in the
    code-to-rational table, instead of being rescanned at every stage,
    and every test is an exact integer one.  Once every code <= bound
    has been pushed, the cell closes when none waits or the argument,
    and with it the cut, can change no more; or when
    ``unreachable(least)`` shows that the cut can never pass ``least``,
    the least waiting code, and so none of them."""
    if bound is None or s <= bound:
        heapq.heappush(waiting, CodeKey(s))
    out = []
    if cut is not None:
        num, den = cut
        while waiting and code_below(waiting[0].code, num, den):
            out.append(heapq.heappop(waiting).code)
    return out, (bound is not None and s >= bound
                 and (not waiting or a.closed(s)
                      or (unreachable is not None
                          and unreachable(waiting[0]))))


def _stages_rational_cut(ev, args, params, bound=None):
    """Enumerate rational codes q with q < (current maximum) - 1."""
    a = args[0]
    read, tick = ev.read, ev.tick
    bounds, waiting, cut = None, [], None
    for s in count():
        bounds = _widen(bounds, read(a, s))
        if bounds is not None:
            tick()
            if bounds[1] > 0:  # the cut of {0} is empty; until then codes wait
                cut = bounds[1] - 1, 1
        out, closed = _codes_below(a, s, waiting, cut, bound)
        if closed:
            return out
        yield out


def _stages_triadic_cut(ev, args, params, bound=None):
    """Enumerate rational codes q with q < sum of 3^-(n+1) over the
    stage approximation.

    The sum is kept exactly as an integer numerator over 3^e, e one
    past the largest element so far.  The argument is read whole, and
    an unbounded cell never closes on an infinite argument, since its
    sum never stops changing.  A bounded one also closes once its least
    waiting rational is >= sum + 3^-f / 2, where f is the argument's
    floor and no element below f can still enter it: the elements still
    to come are all >= f and add at most sum over n >= f of 3^-(n+1)
    = 3^-f / 2, so the limit of the sum stays at or below that rational
    and no waiting code can ever enter."""
    a = args[0]
    read, tick = ev.read, ev.tick
    waiting = []
    num, e, den = 0, 0, 1  # the sum is num / den

    def unreachable(least):
        return _sum_cannot_reach(a, s, num, e, den, least)

    for s in count():
        tick()
        for n in read(a, s):
            if n >= e:
                scale = 3 ** (n + 1 - e)
                num, e, den = num * scale, n + 1, den * scale
            num += 3 ** (e - n - 1)
        out, closed = _codes_below(a, s, waiting, (num, den), bound,
                                   unreachable)
        if closed:
            return out
        yield out


def _sum_cannot_reach(a, s, num, e, den, least):
    """Whether the limit of the triadic sum num / den, den = 3^e, stays
    <= the rational of the CodeKey ``least``: the argument cell a
    reports a floor f, nothing below f can enter it after stage s, and
    least >= sum + 3^-f / 2."""
    f = a.floor()
    if f is None:
        return False
    f = max(f, 0)  # elements are naturals
    if not a.closed(s, f - 1):
        return False
    # past e + the bit length of least.den the answer no longer changes
    # (least > sum by at least 1 / (least.den * 3^e), or least == sum),
    # so the power of 3 below stays small
    f = min(f, e + least.den.bit_length())
    if f >= e:
        t = 3 ** (f - e)
        return not code_below(least.code, 2 * num * t + 1, 2 * den * t)
    return not code_below(least.code, 2 * num + 3 ** (e - f), 2 * den)


register_combinator("saturate_up", _stages_saturate_up)
register_combinator("saturate_down", _stages_saturate_down)
register_combinator("interval_hull", _stages_interval_hull)
register_combinator("min_factorials", _factorial_stages(0))
register_combinator("max_factorials", _factorial_stages(1))
register_combinator("stage_gcds", _stages_stage_gcds)
register_combinator("stage_lcms", _stages_stage_lcms)
register_combinator("median_multiples", _stages_median_multiples)
register_combinator("rational_cut", _stages_rational_cut)
register_combinator("triadic_cut", _stages_triadic_cut)


# ---------------------------------------------------------------------------
# payload invariants


def _min_of(payload):
    return analyze(payload).min()


# ---------------------------------------------------------------------------
# settle bounds shared by several builds


def _max_settle(trim):
    """For constructions that follow the running maximum: the maximum
    of a finite set is in by sa(maximum); an unbounded set's first
    member >= M + trim, by sa of it, takes the image past [0, M]."""
    def settle(payload, sa, M):
        key = max_key(analyze(payload))
        if key[0] == "empty":
            return M + 2
        w = (key[1] if key[0] == "max"
             else analyze(payload).min(at_least=M + trim))
        return sa(w) + 2
    return settle


def _upward_settle(payload, sa, M):
    """The cone is filled up to M one value per stage."""
    m = _min_of(payload)
    return sa(M if m is None else m) + M + 2


# ---------------------------------------------------------------------------
# saturations (schedule independent)


def _upward_image(payload) -> Descriptor:
    m = _min_of(payload)
    return EMPTY if m is None else Progression(m, 1)


saturate_up = register_reduction(Reduction(
    name="saturate_up", source="e_min", target="eq_ce",
    build=one_arg_build("saturate_up", _upward_settle),
    predict=_upward_image,
    gen_case=gen_pair_1d,
    window=256,
    combinator="saturate_up",
    doc="sets with equal minima saturate to the same upward cone",
))


def _downward_image(payload) -> Descriptor:
    key = max_key(analyze(payload))
    if key[0] == "empty":
        return EMPTY
    if key[0] == "inf":
        return FULL
    return Finite(frozenset(range(key[1] + 1)))


_build_saturate_down = one_arg_build("saturate_down", _max_settle(0))

saturate_down = register_reduction(Reduction(
    name="saturate_down", source="e_max", target="eq_ce",
    build=_build_saturate_down,
    predict=_downward_image,
    gen_case=gen_pair_1d,
    window=256,
    combinator="saturate_down",
    doc="sets with equal maxima saturate to the same initial segment",
))

emax_to_emed = register_reduction(Reduction(
    name="emax_to_emed", source="e_max", target="e_med",
    build=_build_saturate_down,
    predict=_downward_image,
    gen_case=gen_pair_1d,
    window=256,
    combinator="saturate_down",
    doc="the initial segment [0, max] has median max/2, an injective"
        " function of the maximum",
))


# ---------------------------------------------------------------------------
# cuts and hulls in the order omega


def _cut_image(payload) -> Descriptor:
    key = max_key(analyze(payload))
    if key in (("empty",), ("max", 0)):
        return EMPTY
    if key[0] == "inf":
        return FULL
    return Finite(frozenset(range(key[1])))


# the cut {x : x < max} is the initial segment [0, max - 1]
_build_cut_below = one_arg_build("saturate_down", _max_settle(1), (1,))

cut_omega = register_reduction(Reduction(
    name="cut_omega", source="el_omega", target="eq_ce",
    build=_build_cut_below,
    predict=_cut_image,
    gen_case=gen_pair_1d,
    window=256,
    combinator="saturate_down",
    doc="replace a set by the cut it determines in the order omega",
))

elomega_to_homega = register_reduction(Reduction(
    name="elomega_to_homega", source="el_omega", target="h_omega",
    build=_build_cut_below,
    predict=_cut_image,
    gen_case=gen_pair_1d,
    window=256,
    combinator="saturate_down",
    doc="a cut is its own convex hull, so the cut map also reduces"
        " same-cut to same-hull",
))
# the initial segment [0, max] and the cut [0, max) are each other's
# mutants
register_mutant("saturate_down", "drops-maximum", _build_cut_below)
register_mutant("emax_to_emed", "drops-maximum", _build_cut_below)
register_mutant("cut_omega", "keeps-maximum", _build_saturate_down)
register_mutant("elomega_to_homega", "keeps-maximum", _build_saturate_down)


def _hull_image(payload) -> Descriptor:
    ana = analyze(payload)
    if ana.is_empty:
        return EMPTY
    m = ana.min()
    if not ana.is_finite:
        return Progression(m, 1)
    return Finite(frozenset(range(m, ana.max() + 1)))


hull_omega = register_reduction(Reduction(
    name="hull_omega", source="h_omega", target="eq_ce",
    build=one_arg_build("interval_hull", _max_settle(0)),
    predict=_hull_image,
    gen_case=gen_pair_1d,
    window=256,
    combinator="interval_hull",
    doc="replace a set by its convex hull in the order omega",
))
register_mutant("hull_omega", "drops-minimum",
                perturbed(hull_omega.build, without_minimum))


def _upper_cone_image(payload) -> Descriptor:
    m = _min_of(payload)
    return EMPTY if m is None else Progression(m + 1, 1)


emin_to_homega = register_reduction(Reduction(
    name="emin_to_homega", source="e_min", target="h_omega",
    build=one_arg_build("saturate_up", _upward_settle, (1,)),
    predict=_upper_cone_image,
    gen_case=gen_pair_1d,
    window=256,
    combinator="saturate_up",
    doc="the strict upper cone is the hull of the reverse-order cut,"
        " an injective function of the minimum",
))
register_mutant("emin_to_homega", "drops-minimum",
                perturbed(emin_to_homega.build, without_minimum))
# the strict cone misses the minimum
register_mutant("saturate_up", "excludes-minimum", emin_to_homega.build)


# ---------------------------------------------------------------------------
# rational cuts


def _qcut_of_max(payload) -> QCut:
    key = max_key(analyze(payload))
    if key in (("empty",), ("max", 0)):
        return QCut(-math.inf)
    if key[0] == "inf":
        return QCut(math.inf)
    return QCut(Fraction(key[1] - 1))


def _rational_cut_settle(payload, sa, M):
    key = max_key(analyze(payload))
    if key[0] == "empty":
        return M + 2
    if key[0] == "max":
        return sa(key[1]) + M + 2
    # a witness above every rational with code <= M
    top = max((-(-n // d) for n, d in map(rational_parts, range(M + 1))),
              default=0)
    return sa(analyze(payload).min(at_least=top + 2)) + M + 2


def _gen_pair_small(rng):
    """Pairs over small values: rationals near a small maximum have
    small codes, so the bounded window can actually see the cut edge."""
    return gen_pair_1d(rng, hi=6)


omega_into_rationals = register_reduction(Reduction(
    name="omega_into_rationals", source="el_omega", target="eq_ce",
    build=one_arg_build("rational_cut", _rational_cut_settle),
    predict=_qcut_of_max,
    gen_case=_gen_pair_small,
    window=96,
    combinator="rational_cut",
    doc="embed cuts of the order omega into cuts of the rationals",
))
register_mutant("omega_into_rationals", "adds-seven",
                perturbed(omega_into_rationals.build, adding(7)))


def _triadic_sum(payload) -> Fraction:
    return ep_only(analyze(payload), "a triadic sum").triadic_sum()


def _triadic_cut_settle(payload, sa, M):
    total = _triadic_sum(payload)
    num, den = total.numerator, total.denominator
    # the largest rational with code <= M below the sum, if any
    nearest = max((CodeKey(c) for c in range(M + 1)
                   if code_below(c, num, den)), default=None)
    if nearest is None:
        return M + 2
    need = total - Fraction(nearest.num, nearest.den)
    n = 0
    while Fraction(3, 2) * Fraction(1, 3 ** (n + 2)) >= need:
        n += 1
    return sa(n) + M + 2


eqce_to_eQ = register_reduction(Reduction(
    name="eqce_to_eQ", source="eq_ce", target="eq_ce",
    build=one_arg_build("triadic_cut", _triadic_cut_settle),
    predict=lambda payload: QCut(_triadic_sum(payload)),
    gen_case=gen_pair_1d,
    window=96,
    combinator="triadic_cut",
    doc="set equality embeds into equality of rational cuts via exact"
        " base-3 sums",
))
register_mutant("eqce_to_eQ", "adds-zero",
                perturbed(eqce_to_eQ.build, adding(0)))


# ---------------------------------------------------------------------------
# invariant streams (schedule dependent; semantic validators)


def _min_settle(payload, sa, M):
    """The running minimum settles by sa(minimum)."""
    m = _min_of(payload)
    return M + 2 if m is None else sa(m) + 2


def _validate_min_factorials(ev, built, payload, window, stage):
    issues = []
    m = _min_of(payload)
    got = ev.approx(built.term, stage)
    if m is None:
        if got:
            issues.append("image of the empty set is nonempty")
        return issues
    if _fact(m + 2) not in got:
        issues.append("factorial of the settled minimum is missing")
    allowed = {_fact(k + 2) for k in range(m, m + 64)}
    if not got <= allowed:
        issues.append("image contains a value that is not a factorial of"
                      " a value at or above the minimum")
    return issues


def _min_gcd_key(payload) -> ClassKey:
    m = _min_of(payload)
    return ClassKey("e_gcd", math.inf if m is None else _fact(m + 2))


min_to_gcd = register_reduction(Reduction(
    name="min_to_gcd", source="e_min", target="e_gcd",
    build=one_arg_build("min_factorials", _min_settle),
    predict=_min_gcd_key,
    gen_case=lambda rng: gen_pair_1d(rng, hi=18),
    window=64,
    validator=_validate_min_factorials,
    combinator="min_factorials",
    doc="emit factorials of running minima; their gcd is the factorial"
        " of the true minimum",
))
register_mutant("min_to_gcd", "drops-minimum",
                perturbed(min_to_gcd.build, without_minimum))


def _stage_gcds_settle(payload, sa, M):
    ana = analyze(payload)
    if ana.gcd_value() is math.inf:
        return M + 2
    return sa(ana.gcd_witness()) + 2


def _validate_stage_gcds(ev, built, payload, window, stage):
    issues = []
    g = analyze(payload).gcd_value()
    got = ev.approx(built.term, stage)
    if g is math.inf:
        if got:
            issues.append("image of an infinite-gcd set is nonempty")
        return issues
    if g not in got:
        issues.append("settled gcd missing from the image")
    if any(x % g != 0 or x == 0 for x in got):
        issues.append("image contains a value that is not a positive"
                      " multiple of the settled gcd")
    return issues


def _gcd_min_key(payload) -> ClassKey:
    g = analyze(payload).gcd_value()
    return ClassKey("e_min", ("empty",) if g is math.inf else ("min", g))


gcd_to_min = register_reduction(Reduction(
    name="gcd_to_min", source="e_gcd", target="e_min",
    build=one_arg_build("stage_gcds", _stage_gcds_settle),
    predict=_gcd_min_key,
    gen_case=lambda rng: gen_pair_1d(rng, hi=18),
    window=64,
    validator=_validate_stage_gcds,
    combinator="stage_gcds",
    doc="emit the running gcds; their minimum is the true gcd",
))
register_mutant("gcd_to_min", "adds-one",
                perturbed(gcd_to_min.build, adding(1)))


def _validate_max_factorials(ev, built, payload, window, stage):
    issues = []
    key = max_key(analyze(payload))
    got = ev.approx(built.term, stage)
    if key[0] == "empty":
        if got:
            issues.append("image of the empty set is nonempty")
        return issues
    if key[0] == "max":
        mx = key[1]
        if _fact(mx + 2) not in got:
            issues.append("factorial of the settled maximum is missing")
        if not got <= {_fact(k + 2) for k in range(mx + 1)}:
            issues.append("image contains a value that is not a factorial"
                          " of a value at or below the maximum")
        return issues
    w = analyze(payload).min(at_least=window)
    if w is not None and max(got, default=0) < _fact(w + 2):
        issues.append("image of an unbounded set grows too slowly")
    return issues


def _max_lcm_key(payload) -> ClassKey:
    key = max_key(analyze(payload))
    return ClassKey("e_lcm", 1 if key[0] == "empty"
                    else _fact(key[1] + 2) if key[0] == "max" else math.inf)


max_to_lcm = register_reduction(Reduction(
    name="max_to_lcm", source="e_max", target="e_lcm",
    build=one_arg_build("max_factorials", _max_settle(0)),
    predict=_max_lcm_key,
    gen_case=lambda rng: gen_pair_1d(rng, hi=18),
    window=64,
    validator=_validate_max_factorials,
    combinator="max_factorials",
    doc="emit factorials of running maxima; their lcm is the factorial"
        " of the true maximum",
))
register_mutant("max_to_lcm", "adds-nineteen",
                perturbed(max_to_lcm.build, adding(19)))


def _stage_lcms_settle(payload, sa, M):
    ana = analyze(payload)
    if ana.lcm_value() is math.inf:
        return sa(ana.min(at_least=M + 1)) + 2
    return sa(0 if ana.is_empty else ana.max()) + 2


def _validate_stage_lcms(ev, built, payload, window, stage):
    issues = []
    l = analyze(payload).lcm_value()
    got = ev.approx(built.term, stage)
    if l is math.inf:
        if max(got, default=0) <= window:
            issues.append("image of an unbounded-lcm set grows too slowly")
        return issues
    if l not in got:
        issues.append("settled lcm missing from the image")
    if any(l % x != 0 for x in got if x > 0):
        issues.append("image contains a value that does not divide the"
                      " settled lcm")
    return issues


def _lcm_max_key(payload) -> ClassKey:
    l = analyze(payload).lcm_value()
    return ClassKey("e_max", ("inf",) if l is math.inf else ("max", l))


lcm_to_max = register_reduction(Reduction(
    name="lcm_to_max", source="e_lcm", target="e_max",
    build=one_arg_build("stage_lcms", _stage_lcms_settle),
    predict=_lcm_max_key,
    gen_case=lambda rng: gen_pair_1d(rng, hi=18),
    window=64,
    validator=_validate_stage_lcms,
    combinator="stage_lcms",
    doc="emit the running lcms; their maximum is the true lcm",
))
register_mutant("lcm_to_max", "adds-sixty-one",
                perturbed(lcm_to_max.build, adding(61)))


# ---------------------------------------------------------------------------
# medians into almost equality


def _med_step(key) -> int:
    """The step a + b + 2 = 2 * mid + 2 of the limit progression, for
    the median key of a finite nonempty set (a, b its two middle
    elements)."""
    return int(2 * key[1]) + 2


def _emed_predict(payload):
    key = analyze(payload).median_key()
    if key[0] == "empty":
        return ClassKey("e0", ("fin",))
    if key[0] == "inf":
        return ClassKey("e0", ("inf", 1, frozenset({0})))
    return ClassKey("e0", ("inf", _med_step(key), frozenset({0})))


def _median_settle(payload, sa, M):
    ana = analyze(payload)
    if ana.is_empty:
        return M + 2
    return sa(ana.max() if ana.is_finite else M) + 2


def _median_changes(ev, term, s):
    """The stages <= s at which the two middle elements of term's
    approximation change (from none, at the first nonempty one), and
    their value at stage s: what ``median_multiples`` over term reacts
    to, replayed from term's new elements."""
    elems, changes, mid = [], [], None
    for t in range(s + 1):
        for x in ev.fresh(term, t):
            bisect.insort(elems, x)
        if elems and _two_middle(elems) != mid:
            mid = _two_middle(elems)
            changes.append(t)
    return changes, mid


def _validate_median_multiples(ev, built, payload, window, stage):
    issues = []
    key = analyze(payload).median_key()
    span = 50
    first = ev.approx(built.term, stage)
    second = ev.approx(built.term, stage + span)
    fresh = second - first
    if key[0] == "empty":
        if second:
            issues.append("image of the empty set is nonempty")
        return issues
    # a median change starts a fill and the multiples afresh; every
    # value emitted so far is in first
    changes, mid = _median_changes(ev, built.term.args[0], stage + span)
    fills1 = bisect.bisect_right(changes, stage)
    if key[0] == "inf":
        if len(changes) <= max(fills1, 1):
            issues.append("median of an infinite set stopped moving")
        top1 = max(first, default=-1)
        if any(x not in second for x in range(top1 + 1)):
            issues.append("fills of an infinite-median image left gaps"
                          " below the running top")
        return issues
    xs = sorted(analyze(payload).elements())
    if mid != _two_middle(xs):
        issues.append("running median differs from the settled median")
    if len(changes) != fills1:
        issues.append("median changed after the settlement stage")
    # the multiples emitted since the last change up to stage
    mult1 = stage - changes[fills1 - 1] + 1 if fills1 else 0
    d = _med_step(key)
    expected = {d * k for k in range(mult1 + 1, mult1 + span + 1)} - first
    if fresh != expected:
        issues.append("settled image does not continue with consecutive"
                      " multiples of the median step")
    return issues


emed_to_e0 = register_reduction(Reduction(
    name="emed_to_e0", source="e_med", target="e0",
    build=one_arg_build("median_multiples", _median_settle),
    predict=_emed_predict,
    gen_case=gen_pair_1d,
    window=64,
    validator=_validate_median_multiples,
    combinator="median_multiples",
    doc="emit multiples of the running median step, refilling on every"
        " median change",
))
register_mutant("emed_to_e0", "adds-hundred",
                perturbed(emed_to_e0.build, adding(100)))
