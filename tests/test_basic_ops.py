"""Ground-floor constructions: the universal enumerated relation and
orbit actions."""

import random

from hypothesis import given, settings, strategies as st

import celab  # noqa: F401
from celab.pairing import pair, triple
from celab.programs import Evaluator, script
from celab.reductions.basic import (CeAction, Uce, UnionFind, orbit_from_ce,
                                    uce_embed)


def test_union_find_least_representatives():
    uf = UnionFind()
    uf.union(5, 9)
    uf.union(9, 2)
    uf.union(7, 7)
    assert uf.representative(5) == 2
    assert uf.classes()[2] == frozenset({2, 5, 9})
    assert uf.classes()[7] == frozenset({7})


def test_uce_classes_only_merge():
    term = script([(0, {pair(1, 2)}), (2, {pair(2, 3)}), (4, {pair(5, 6)})])
    u = Uce(term)
    assert u.related(1, 2, 0) and not u.related(1, 3, 0)
    assert u.related(1, 3, 2)
    # monotone: anything related at stage s stays related later
    for s in range(5):
        for a in (1, 2, 3, 5, 6):
            for b in (1, 2, 3, 5, 6):
                if u.related(a, b, s):
                    assert u.related(a, b, s + 1)


def test_uce_embed_is_injective_per_slice():
    codes = {uce_embed(e, a) for e in range(10) for a in range(10)}
    assert len(codes) == 100


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=-6, max_value=6).filter(bool),
                max_size=8),
       st.integers(min_value=0, max_value=9))
def test_ce_action_word_inverse_cancels(word, x):
    term = script([(0, {pair(0, 1), pair(2, 3)}), (1, {pair(1, 4)})])
    action = orbit_from_ce(term)
    w = tuple(word)
    inv = tuple(-l for l in reversed(w))
    assert action.act(w + inv, x) == x


def test_ce_action_generators_are_involutions():
    term = script([(0, {pair(0, 1)}), (3, {pair(1, 2)})])
    action = orbit_from_ce(term)
    for i in range(60):
        for x in range(6):
            assert action.act_letter(i + 1, action.act_letter(i + 1, x)) == x
            assert action.act_letter(-(i + 1), x) == action.act_letter(i + 1, x)


def test_orbit_matches_closure_classes():
    rng = random.Random(17)
    for _ in range(20):
        pairs = {pair(rng.randrange(8), rng.randrange(8))
                 for _ in range(rng.randrange(1, 6))}
        term = script([(0, pairs)])
        action = orbit_from_ce(term)
        closure = Uce(term)
        for x in range(8):
            orb = action.orbit(x, stage=0, depth=8)
            cls = {y for y in range(8) if closure.related(x, y, 0)}
            assert orb == cls
