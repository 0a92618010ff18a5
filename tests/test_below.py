"""Reductions below set equality: saturations, cuts, hulls, order
statistics, and the exact rational order plumbing."""

import heapq
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import celab  # noqa: F401
from celab.descriptors import (EMPTY, Cofinite, Finite, analyze,
                               compile_descriptor)
from celab.harness import DEFAULT_BUDGET, TestCase, verify_case
from celab.orders import (CodeKey, code_below, rational_from_code,
                          rational_parts, rational_to_code)
from celab.programs import Combinator, Evaluator, script
from celab.reductions import REDUCTIONS, gen_pair_1d
from celab.relations import decide
from test_programs import CLOSING_ARGUMENTS

SELECTORS = ["saturate_up", "saturate_down", "hull_omega"]


@pytest.mark.parametrize("name", SELECTORS)
def test_selector_law(name):
    """A selector's image is equivalent to its input and constant on
    classes: checked on 100 settled pairs."""
    red = REDUCTIONS[name]
    rng = random.Random(hash(name) % 997)
    done = 0
    while done < 100:
        a, b = red.gen_case(rng)
        try:
            ia, ib = red.predict(a), red.predict(b)
        except ValueError:
            continue  # outside the selector's supported class
        assert decide(red.source, a, ia)
        assert decide(red.source, b, ib)
        if decide(red.source, a, b):
            assert decide("eq_ce", ia, ib)
        done += 1


def test_stage_gcd_chain_is_divisibility_decreasing():
    rng = random.Random(8)
    for _ in range(60):
        xs = [rng.randrange(1, 60) for _ in range(rng.randrange(1, 8))]
        g = 0
        chain = []
        for x in xs:
            g = math.gcd(g, x)
            chain.append(g)
        for earlier, later in zip(chain, chain[1:]):
            assert earlier % later == 0


def test_rational_coding_is_a_bijection():
    seen = set()
    for code in range(400):
        q = rational_from_code(code)
        assert rational_to_code(q) == code
        assert q not in seen
        seen.add(q)


def test_rational_order_is_dense_on_small_codes():
    codes = sorted(range(200), key=rational_from_code)
    for a, b in zip(codes, codes[1:]):
        qa, qb = rational_from_code(a), rational_from_code(b)
        mid = (qa + qb) / 2
        assert qa < mid < qb
        assert rational_from_code(rational_to_code(mid)) == mid


# ---------------------------------------------------------------------------
# the code-to-rational table and its integer tests, against the tree path


def _calkin_wilf(k: int) -> Fraction:
    """The k-th positive rational in Calkin-Wilf (tree path) order."""
    num, den = 1, 1
    for bit in bin(k + 1)[3:]:
        if bit == "1":
            num += den
        else:
            den += num
    return Fraction(num, den)


def _reference_rational(code: int) -> Fraction:
    """0 <-> 0, odd 2k+1 <-> k-th positive, even 2k+2 <-> k-th negative."""
    if code == 0:
        return Fraction(0)
    k, rem = divmod(code - 1, 2)
    q = _calkin_wilf(k)
    return q if rem == 0 else -q


def test_the_code_table_follows_the_tree_path_on_a_prefix():
    for code in range(5001):
        q = _reference_rational(code)
        assert rational_parts(code) == (q.numerator, q.denominator), code
    codes = range(2000)
    assert sorted(codes, key=CodeKey) == sorted(codes,
                                                key=_reference_rational)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_the_code_table_follows_the_tree_path(code):
    q = _reference_rational(code)
    assert rational_parts(code) == (q.numerator, q.denominator)
    assert rational_from_code(code) == q


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=-10 ** 7, max_value=10 ** 7),
       st.integers(min_value=1, max_value=10 ** 6)
       | st.integers(min_value=0, max_value=60).map(lambda e: 3 ** e))
def test_code_below_is_the_fraction_order(code, num, den):
    """Cuts as the steps hand them over: any numerator, negative ones
    too, over any denominator or a power of 3, unreduced."""
    q = _reference_rational(code)
    assert code_below(code, num, den) == (q < Fraction(num, den))
    # the code's own rational, scaled, and the next fraction above it
    for m in (1, 3, den):
        assert not code_below(code, q.numerator * m, q.denominator * m)
        assert code_below(code, q.numerator * m + 1, q.denominator * m)
    assert (CodeKey(code) < CodeKey(num % 5000)) == (
        q < _reference_rational(num % 5000))


def test_negative_codes_are_rejected():
    for code in (-1, -2, -10 ** 6):
        with pytest.raises(ValueError):
            rational_parts(code)
        with pytest.raises(ValueError):
            code_below(code, 0, 1)


def _reference_cut_fresh(cid, a, stages):
    """Each stage's new codes of an unbounded rational_cut or
    triadic_cut over a, from Fractions: the codes wait in a heap keyed
    by their Fractions and leave it while they lie below the cut."""
    ev = Evaluator()
    waiting, total, top, out = [], Fraction(0), -1, []
    for s in range(stages + 1):
        for n in ev.fresh(a, s):
            total += Fraction(1, 3 ** (n + 1))
            top = max(top, n)
        heapq.heappush(waiting, (_reference_rational(s), s))
        if cid == "triadic_cut":
            cut = total
        else:  # the cut of {0} is empty; until then codes wait
            cut = top - 1 if top > 0 else None
        new = []
        while cut is not None and waiting and waiting[0][0] < cut:
            new.append(heapq.heappop(waiting)[1])
        out.append(new)
    return out


CUT_ARGUMENTS = {
    **CLOSING_ARGUMENTS,
    "forty": script([(3, {40})]),
    # at stage 62 the floor is 4 and the sum 10/27 lies 1/216 below
    # 3/8 (code 39), less than 3^-4 / 2: the limit 61/162 passes it
    "slow": compile_descriptor(Cofinite(frozenset({1, 3})), delay=59).term,
}


@pytest.mark.parametrize("name", sorted(CUT_ARGUMENTS))
@pytest.mark.parametrize("cid", ["rational_cut", "triadic_cut"])
def test_cuts_enter_codes_as_the_fraction_reference_does(cid, name):
    """Every stage's new codes, in entry order, unbounded and bounded.
    A code enters at the first stage its rational lies below the cut,
    whatever other codes wait, so the bounded reference is the
    unbounded one cut at the bound; a cell that closes too early shows
    as a missing code."""
    a = CUT_ARGUMENTS[name]
    term = Combinator(cid, (a,))
    want = _reference_cut_fresh(cid, a, 300)
    for bound in (None, 21, 62, 96):
        ev = Evaluator()
        for s, new in enumerate(want):
            if bound is not None:
                new = [c for c in new if c <= bound]
            assert ev.fresh(term, s, bound) == new, (bound, s)


def test_triadic_cut_separates_subsets_of_seven():
    keys = set()
    for mask in range(128):
        d = Finite(frozenset(i for i in range(7) if mask >> i & 1))
        keys.add(analyze(d).triadic_sum())
    assert len(keys) == 128


def test_factorial_images_divide_consistently():
    red = REDUCTIONS["min_to_gcd"]
    rng = random.Random(12)
    for _ in range(40):
        a, b = red.gen_case(rng)
        if decide("e_min", a, b):
            assert decide("e_gcd", red.predict(a), red.predict(b))


def test_rational_cut_of_zero_is_empty():
    """{0} and the empty set have the same (empty) cut in omega, and
    both images must be the empty cut of the rationals."""
    red = REDUCTIONS["omega_into_rationals"]
    case = TestCase(0, red.source, Finite(frozenset({0})), EMPTY, True)
    assert verify_case(red, case, random.Random(1), red.window,
                       DEFAULT_BUDGET) is None
