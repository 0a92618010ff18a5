"""Reductions below set equality: saturations, cuts, hulls, order
statistics, and the exact rational order plumbing."""

import math
import random
from fractions import Fraction

import pytest

import celab  # noqa: F401
from celab.descriptors import EMPTY, Finite, analyze
from celab.harness import TestCase, default_budget, verify_case
from celab.orders import (OMEGA, OMEGA_STAR, RATIONALS, order_from_spec,
                          order_reverse, order_sum, rational_from_code,
                          rational_to_code)
from celab.reductions import REDUCTIONS, gen_pair_1d
from celab.reductions.below import (check_el_from_embedding,
                                    cut_downward_issues, el_from_embedding)
from celab.relations import decide

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


@pytest.mark.parametrize("order", [OMEGA, OMEGA_STAR, RATIONALS,
                                   order_sum(OMEGA, OMEGA_STAR),
                                   order_reverse(RATIONALS)])
def test_cut_downward_closure(order):
    rng = random.Random(order.name)
    for _ in range(20):
        seeds = {rng.randrange(40) for _ in range(rng.randrange(1, 5))}
        cut = {l for l in range(80)
               if any(order.less(l, w) for w in seeds)}
        assert cut_downward_issues(cut, order.less, 60) == []
    # a poked hole is reported
    full = {l for l in range(40) if order.less(l, 39) or l == 39}
    hole = sorted(full)[:1]
    if hole and len(full) > 2:
        broken = full - set(hole)
        victims = [l for l in broken if order.less(hole[0], l)]
        if victims:
            assert cut_downward_issues(broken, order.less, 39) != []


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


def test_order_constructors_and_parser():
    s = order_sum(OMEGA, order_reverse(OMEGA))
    # every omega element precedes every reversed element
    assert s.less(2 * 5, 2 * 3 + 1)
    assert not s.less(2 * 3 + 1, 2 * 5)
    # within the reversed part the order flips
    assert s.less(2 * 7 + 1, 2 * 3 + 1)
    parsed = order_from_spec("sum(omega,reverse(omega))")
    for x in range(12):
        for y in range(12):
            assert parsed.less(x, y) == s.less(x, y)
    assert order_from_spec("rationals").name == "rationals"
    with pytest.raises(ValueError):
        order_from_spec("lexicographic(omega)")


def test_el_from_embedding_into_rationals():
    # embed omega into the rationals at the integer points
    def point_cut(n):
        return lambda l: rational_from_code(l) < n

    rng = random.Random(31)
    pairs = []
    while len(pairs) < 30:
        a = Finite(frozenset(rng.randrange(8) for _ in range(rng.randrange(1, 4))))
        b = Finite(frozenset(rng.randrange(8) for _ in range(rng.randrange(1, 4))))
        if analyze(a).is_empty or analyze(b).is_empty:
            continue
        pairs.append((a, b))
    assert check_el_from_embedding(point_cut, "el_omega", pairs) == []
    # a collapsing point map (every image cut empty) is flagged
    def bad_cut(n):
        return lambda l: False
    diff = [(Finite(frozenset({1})), Finite(frozenset({2})))]
    assert check_el_from_embedding(bad_cut, "el_omega", diff) != []

    # infinite payloads are rejected: the lift needs an element list
    from celab.descriptors import FULL
    image = el_from_embedding(point_cut)
    with pytest.raises(ValueError):
        image(FULL)


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
                       default_budget()) is None
