"""Class enumerators and group actions computable in the indices."""

import random

import pytest

import celab  # noqa: F401
from celab.descriptors import Finite, compile_descriptor, member
from celab.enumerable import (e0_class_enumerator, e0_class_member,
                              enumerable_to_eset, fomega_orbit,
                              gamma_to_fomega, string_of, translate_set,
                              translation_action, ugamma_act, ugamma_columns,
                              ugamma_embed)
from celab.groups import FW_IDENTITY, cyclic, fw_inv, fw_mul, fw_reduce
from celab.pairing import unpair
from celab.programs import Evaluator
from celab.reductions import compile_arg, random_ep_descriptor
from celab.relations import decide

WINDOW = 96


def test_strings_are_ordered_by_length_then_value():
    words = [string_of(m) for m in range(15)]
    assert words[0] == ()
    for a, b in zip(words, words[1:]):
        assert (len(a), a) < (len(b), b)
    assert len(set(words)) == 15


def test_class_enumerator_walks_the_almost_equality_class():
    rng = random.Random(6)
    for _ in range(20):
        p = random_ep_descriptor(rng)
        term, settle = compile_arg(p, rng)
        n = rng.randrange(12)
        prog = e0_class_enumerator(n, term)
        ev = Evaluator()
        s = settle(WINDOW) + 2
        got = {x for x in ev.approx(prog, s) if x <= WINDOW}
        mem = e0_class_member(n, p)
        assert got == {x for x in range(WINDOW + 1) if mem(x)}
        # the enumerated member differs from the payload only before
        # the substituted prefix ends
        word = string_of(n)
        for x in range(WINDOW + 1):
            if mem(x) != member(p, x):
                assert x < len(word)


def test_class_enumerator_members_are_pairwise_almost_equal():
    p = Finite(frozenset({3, 5, 9}))
    mems = [e0_class_member(n, p) for n in range(8)]
    for a in mems:
        for b in mems:
            assert all(a(x) == b(x) for x in range(16, 64))


def test_enumerable_to_eset_produces_the_column_family():
    p = Finite(frozenset({1, 4}))
    fam = enumerable_to_eset(e0_class_member)(p)
    for x in range(300):
        n, y = unpair(x)
        assert fam(x) == e0_class_member(n, p)(y)


def test_translation_action_law_on_fifty_triples():
    G = cyclic(6)
    rng = random.Random(7)
    for _ in range(50):
        p = random_ep_descriptor(rng, hi=12)
        term, settle = compile_arg(p, rng)
        g1, g2 = rng.randrange(6), rng.randrange(6)
        ev = Evaluator()
        s = settle(64) + 3
        joint = translation_action(G, G.op(g1, g2), term)
        nested = translation_action(G, g1, translation_action(G, g2, term))
        want = translate_set(G, G.op(g1, g2), p)
        assert set(ev.approx(joint, s)) == want
        assert set(ev.approx(nested, s)) == want
        identity = translation_action(G, G.identity, term)
        assert set(ev.approx(identity, s)) == translate_set(G, 0, p)


def test_ugamma_biconditional_exhaustively_on_c3():
    G = cyclic(3)
    for mask_a in range(8):
        wa = {i for i in range(3) if mask_a >> i & 1}
        ta = compile_descriptor(Finite(frozenset(wa))).term
        for mask_b in range(8):
            wb = {i for i in range(3) if mask_b >> i & 1}
            tb = compile_descriptor(Finite(frozenset(wb))).term
            for gamma in range(3):
                translated = {G.op(gamma, w) for w in wa}
                ev = Evaluator()
                acted = ugamma_act(G, G.inv(gamma), ugamma_embed(G, ta))
                cols_acted = ugamma_columns(G, acted, 40, ev)
                cols_b = ugamma_columns(G, ugamma_embed(G, tb), 40, ev)
                assert (translated == wb) == (cols_acted == cols_b)


def test_free_group_realization_matches_direct_orbits():
    rng = random.Random(8)
    letters = [i for i in range(1, 5)] + [-i for i in range(1, 5)]
    for _ in range(30):
        n = rng.randrange(2, 7)
        G = cyclic(n)
        gens = [rng.randrange(n) for _ in range(4)]
        act = gamma_to_fomega(G, gens)
        x = rng.randrange(n)
        # direct closure under the chosen group elements
        direct, frontier = {x}, {x}
        while frontier:
            nxt = set()
            for y in frontier:
                for g in gens:
                    for z in (G.op(g, y), G.op(G.inv(g), y)):
                        if z not in direct:
                            direct.add(z)
                            nxt.add(z)
            frontier = nxt
        assert fomega_orbit(act, x, letters, depth=6) == direct
        # inverses cancel
        w = tuple(rng.choice(letters) for _ in range(4))
        assert act(fw_mul(w, fw_inv(w)), x) == x
        assert act(FW_IDENTITY, x) == x


def test_reduced_words_behave_like_a_group():
    assert fw_reduce((1, -1, 2)) == (2,)
    assert fw_mul((1, 2), (-2, 3)) == (1, 3)
    assert fw_inv((1, -2, 3)) == (-3, 2, -1)
    with pytest.raises(ValueError):
        fw_reduce((1, 0))
