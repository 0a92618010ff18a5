"""Structure codings and the degree-theoretic plumbing: star graphs,
membership trees, permuted copies and difference tuples."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import celab  # noqa: F401
from celab.descriptors import compile_descriptor
from celab.harness import verify_reduction
from celab.nce import (ltomega_decode, ltomega_encode, nce_stage_value,
                       toggle_bound, toggle_count)
from celab.pairing import pair
from celab.programs import Evaluator, script
from celab.reductions import REDUCTIONS, random_ep_descriptor
from celab.reductions.structures import (_copies_point, _copies_reach,
                                         _tree_edge, _tree_reach)

STRUCTURE_REDUCTIONS = ["eqm_to_eq1", "eq1_to_compiso", "eset_to_isobin",
                        "compiso_to_eset", "nce_embed", "ltomega_to_e3",
                        "eqnat_to_emin"]


@pytest.mark.parametrize("name", STRUCTURE_REDUCTIONS)
def test_small_corpus_is_clean(name):
    rep = verify_reduction(name, seed=4, size=8)
    assert rep.agreements == rep.cases == 8, rep.disagreements[:2]


def test_toggle_counts_respect_the_ladder_bound():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randrange(1, 5)
        parts = [random_ep_descriptor(rng, hi=20) for _ in range(n)]
        terms = [compile_descriptor(d, delay=rng.randrange(3)).term
                 for d in parts]
        ev = Evaluator()
        for x in range(12):
            assert toggle_count(ev, terms, x, 60) <= toggle_bound(terms)


def test_nce_stage_value_matches_hand_fold():
    ev = Evaluator()
    t1 = script([(0, {1, 2, 3})])
    t2 = script([(1, {2})])
    t3 = script([(2, {5})])
    assert nce_stage_value(ev, [t1, t2, t3], 0) == frozenset({1, 2, 3})
    assert nce_stage_value(ev, [t1, t2, t3], 1) == frozenset({1, 3})
    assert nce_stage_value(ev, [t1, t2, t3], 2) == frozenset({1, 3, 5})


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_ltomega_codes_are_a_bijection(code):
    t = ltomega_decode(code)
    assert t and all(x >= 0 for x in t)
    assert ltomega_encode(t) == code


@given(st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                max_size=5))
def test_ltomega_encodes_every_tuple(t):
    assert ltomega_decode(ltomega_encode(tuple(t))) == tuple(t)


def _largest_wait(point, top):
    """For each b <= top, the largest element a code <= b waits on."""
    out, largest = [], -1
    for x in range(top + 1):
        wanted = []
        point(x, lambda e: wanted.append(e) or True)
        largest = max([largest] + wanted)
        out.append(largest)
    return out


def test_copies_reach_covers_every_code_below_the_bound():
    for b, largest in enumerate(_largest_wait(_copies_point, 2000)):
        assert largest <= _copies_reach(b), b


def test_tree_codes_wait_below_half_the_bound():
    tree_point = lambda x, has: _tree_edge(x, lambda n, k: has(pair(n, k)))
    for b, largest in enumerate(_largest_wait(tree_point, 2000)):
        assert largest <= (b - 2) // 2, b


def test_tree_reach_covers_every_code_below_the_bound():
    """The argument bound membership_tree reads under is far below
    (b - 2) // 2: 1, 12 and 24 at b = 24, 256 and 2000."""
    tree_point = lambda x, has: _tree_edge(x, lambda n, k: has(pair(n, k)))
    for b, largest in enumerate(_largest_wait(tree_point, 2000)):
        assert largest <= _tree_reach(b), b
    assert [_tree_reach(b) for b in (24, 256, 2000)] == [1, 12, 24]
