"""Descriptor analysis agrees with brute-force membership, and compiled
programs enumerate exactly the described sets."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import celab  # noqa: F401
from celab.descriptors import (EMPTY, EP, FULL, Cofinite, Difference,
                               DyadicBlocks, Finite, Progression, Union,
                               WeightBlocks, analyze, block_of,
                               compile_descriptor, dyadic_block, member,
                               weight_block)
from celab.programs import Evaluator
from celab.reductions import random_ep_descriptor

WINDOW = 200


def brute(d):
    return {x for x in range(WINDOW + 1) if member(d, x)}


def descriptors(seed):
    rng = random.Random(seed)
    return [random_ep_descriptor(rng) for _ in range(60)]


@pytest.mark.parametrize("d", descriptors(11))
def test_analysis_matches_membership(d):
    ana = analyze(d)
    assert {x for x in range(WINDOW + 1) if ana.member(x)} == brute(d)


@pytest.mark.parametrize("d", descriptors(12))
def test_complement_is_involutive_on_window(d):
    ana = analyze(d)
    comp = ana.complement()
    for x in range(WINDOW + 1):
        assert comp.member(x) != ana.member(x)
    assert comp.complement() == ana


@pytest.mark.parametrize("d", [
    DyadicBlocks(Finite(frozenset({0, 3}))),
    DyadicBlocks(Cofinite(frozenset({1, 2}))),
    DyadicBlocks(FULL),
    WeightBlocks(EMPTY),
    WeightBlocks(Finite(frozenset({1, 3}))),
    WeightBlocks(Cofinite(frozenset({0, 2}))),
])
def test_materialized_block_images_match_membership(d):
    ana = analyze(d)
    assert isinstance(ana, EP)
    assert {x for x in range(WINDOW + 1) if ana.member(x)} == brute(d)


@pytest.mark.parametrize("d", descriptors(13))
def test_min_and_cardinality(d):
    ana = analyze(d)
    got = brute(d)
    if got:
        assert ana.min() == min(got)
    if ana.is_finite:
        assert ana.cardinality() == len(got)
        assert ana.max() == (max(got) if got else None)
    else:
        assert ana.cardinality() == math.inf


@pytest.mark.parametrize("d", descriptors(14))
def test_compiled_program_enumerates_the_set(d):
    built = compile_descriptor(d, delay=2)
    ev = Evaluator()
    s = built.settle(WINDOW)
    got = {x for x in ev.approx(built.term, s) if x <= WINDOW}
    assert got == brute(d)
    # settled: nothing changes on the window afterwards
    later = {x for x in ev.approx(built.term, s + 64) if x <= WINDOW}
    assert later == got


def test_weight_blocks_partition_the_naturals():
    edges = [weight_block(n) for n in range(14)]
    assert edges[0][0] == 0
    for (lo, hi), (lo2, hi2) in zip(edges, edges[1:]):
        assert hi == lo2 and lo < hi
    # every block carries harmonic weight >= 1 (exact on the small
    # greedy blocks; the later blocks triple, and [n, 3n) has harmonic
    # weight ln 3 > 1 whose cheapest certificate is hi >= 3 * lo)
    for lo, hi in edges[:7]:
        assert sum(Fraction(1, x + 1) for x in range(lo, hi)) >= 1
    for lo, hi in edges[11:]:
        assert hi + 1 >= 3 * (lo + 1)


def test_dyadic_blocks_partition_the_positives():
    edges = [dyadic_block(n) for n in range(10)]
    assert edges[0][0] == 1
    for (lo, hi), (lo2, hi2) in zip(edges, edges[1:]):
        assert hi == lo2 and lo < hi


@given(st.integers(min_value=0, max_value=5000))
def test_block_of_inverts_the_bounds(x):
    for kind in ("dyadic", "weight"):
        n = block_of(kind, x)
        if n is None:
            assert kind == "dyadic" and x == 0
        else:
            lo, hi = (dyadic_block if kind == "dyadic" else weight_block)(n)
            assert lo <= x < hi


def test_triadic_sums_separate_small_sets():
    seen = {}
    for mask in range(256):
        d = Finite(frozenset(i for i in range(8) if mask >> i & 1))
        key = analyze(d).triadic_sum()
        assert key not in seen or seen[key] == mask
        seen[key] = mask
    assert len(seen) == 256


def test_gcd_and_lcm_conventions():
    assert analyze(EMPTY).gcd_value() == math.inf
    assert analyze(Finite(frozenset({0}))).gcd_value() == math.inf
    assert analyze(Finite(frozenset({6, 10}))).gcd_value() == 2
    assert analyze(Progression(4, 4)).gcd_value() == 4
    assert analyze(EMPTY).lcm_value() == 1
    assert analyze(Finite(frozenset({0, 4, 6}))).lcm_value() == 12
    assert analyze(FULL).lcm_value() == math.inf


def test_e0_key_ignores_finite_modifications():
    base = Progression(3, 4)
    tweaked = Union((Difference(base, Finite(frozenset({7, 11}))),
                     Finite(frozenset({0, 2}))))
    assert analyze(base).e0_key() == analyze(tweaked).e0_key()
    assert analyze(base).e0_key() != analyze(Progression(3, 5)).e0_key()


def reference_minimal_period(period, residues):
    """The minimal-period search by full residue-set comparison."""
    for q in range(1, period + 1):
        if period % q:
            continue
        classes = frozenset(r % q for r in residues)
        if frozenset(r for r in range(period) if r % q in classes) == residues:
            return q, classes


def test_minimal_period_matches_the_set_comparison():
    rng = random.Random(5)
    for _ in range(3000):
        period = rng.randrange(1, 97)
        q = rng.choice([d for d in range(1, period + 1) if period % d == 0])
        classes = {r for r in range(q) if rng.random() < 0.5}
        residues = {r for r in range(period) if r % q in classes}
        if rng.random() < 0.5:
            residues ^= {rng.randrange(period)}  # break the period q
        residues = frozenset(residues)
        ep = EP.make(0, period, 0, sum(1 << r for r in residues))
        q, classes = reference_minimal_period(period, residues)
        assert (ep.period, ep.residues) == (q, sum(1 << r for r in classes))


def test_analysis_cache_stays_bounded():
    """The cache empties at its cap, and analyses after a clear are the
    same as before it."""
    from celab import descriptors as D
    n = 2 ** 14 + 1
    ds = [Finite(frozenset({i % 64, 64 + i // 64})) for i in range(n)]
    first = [analyze(d) for d in ds]
    assert len(D._ANALYSIS_CACHE) <= 2 ** 14
    assert [analyze(d) for d in ds] == first
    assert all(a.elements() == d.elems for a, d in zip(first, ds))
