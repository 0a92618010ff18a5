"""The combinator registry and the program numbering built on it."""

import inspect
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

import celab  # noqa: F401  (registers combinators)
from celab.numbering import COMBINATOR_CODES, decode, encode
from celab.harness import predicted_member
from celab.programs import (COMBINATORS, EMPTY, Built, Combinator,
                            Evaluator, FullColumnOf, script)
from celab.reductions import MUTANTS, REDUCTIONS

# encode(Combinator(cid, (FullColumnOf(1),), (2,))) for every live
# combinator; these codes must never change
PINNED_CODES = {
    "block_union": 92878,
    "expand_columns": 94602,
    "from_descriptor": 96342,
    "interval_hull": 98098,
    "level_columns": 98982,
    "max_factorials": 99870,
    "median_multiples": 100762,
    "membership_tree": 101658,
    "min_factorials": 102558,
    "perm_copies": 103462,
    "prefix_family": 105282,
    "prefixed_columns": 107118,
    "rational_cut": 108042,
    "replicate_columns": 108970,
    "saturate_down": 110838,
    "saturate_up": 111778,
    "scaled_blocks": 112722,
    "stage_gcds": 113670,
    "stage_lcms": 114622,
    "star_edges": 115578,
    "tail_columns": 116538,
    "triadic_cut": 119442,
}
# retired ids keep the codes they had while live
RETIRED_CODES = {
    "group_columns": 97218,
    "permute_columns_mod": 104370,
    "prefix_substitution": 106198,
    "translate_mod": 118470,
}


def cids(term) -> set:
    if not isinstance(term, Combinator):
        return set()
    out = {term.cid}
    for a in term.args:
        out |= cids(a)
    return out


def test_every_live_combinator_keeps_its_code():
    assert set(PINNED_CODES) == set(COMBINATORS)
    for cid, code in PINNED_CODES.items():
        term = Combinator(cid, (FullColumnOf(1),), (2,))
        assert encode(term) == code
        assert decode(code) == term


def test_retired_code_slots_enumerate_nothing():
    retired = set(COMBINATOR_CODES) - set(COMBINATORS)
    assert len(retired) == len(COMBINATOR_CODES) - len(COMBINATORS) == 8
    assert set(RETIRED_CODES) <= retired
    for cid in retired:
        code = encode(Combinator(cid, (FullColumnOf(1),), ()))
        assert Evaluator().approx(decode(code), 20) == frozenset()
    for cid, code in RETIRED_CODES.items():
        term = Combinator(cid, (FullColumnOf(1),), (2,))
        assert encode(term) == code
        assert decode(code) == term


def test_every_cell_holds_a_generator():
    """One step path: the cell of every term kind, a live or retired
    combinator, a ``Script`` and a ``FullColumnOf``, is advanced by
    resuming the generator it holds."""
    terms = [Combinator(cid, (FullColumnOf(1),), (2,))
             for cid in sorted(COMBINATOR_CODES)]
    terms += [EMPTY, script([(0, {1}), (3, {2})]), FullColumnOf(1)]
    ev = Evaluator()
    for term in terms:
        for bound in (None, 21):
            assert inspect.isgenerator(ev._cell(term, bound).stages), term


def test_encode_rejects_negative_parameters():
    with pytest.raises(ValueError):
        encode(Combinator("saturate_down", (FullColumnOf(1),), (-1,)))
    with pytest.raises(ValueError):
        encode(Combinator("unknown_construction", ()))


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10 ** 15))
def test_numbering_round_trips_both_ways(code):
    term = decode(code)
    assert encode(term) == code
    assert decode(encode(term)) == term


def signature(term):
    # from_descriptor's parameters are the compiled payload itself
    return (term.cid, () if term.cid == "from_descriptor" else term.params)


def built_terms(build, payload):
    built = build(payload, random.Random(0))
    return (built.term,) + tuple(built.parts)


PRODUCTION_SIGNATURES = {
    signature(term)
    for red in REDUCTIONS.values()
    for term in built_terms(red.build, red.gen_case(random.Random(0))[0])
    if isinstance(term, Combinator)
}


def test_every_combinator_is_built_by_a_reduction_or_mutant():
    """A registered combinator that no production build or mutant uses
    is dead code: retire its id instead."""
    built = set()
    for name, red in REDUCTIONS.items():
        builds = [red.build] + [build for _, build in MUTANTS.get(name, ())]
        rng = random.Random(1)
        for _ in range(20):
            payload = red.gen_case(rng)[0]
            for build in builds:
                for term in built_terms(build, payload):
                    built |= cids(term)
    assert set(COMBINATORS) - built == set()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_use_only_production_combinators(name):
    """A mutant is built from production constructions with the
    parameters production gives them: its fault lies in its input or in
    the choice of construction, never in a parameter of its own."""
    payload, _ = REDUCTIONS[name].gen_case(random.Random(0))
    for _, build in MUTANTS[name]:
        for term in built_terms(build, payload):
            assert cids(term) <= set(COMBINATORS)
            if isinstance(term, Combinator):
                assert signature(term) in PRODUCTION_SIGNATURES


# every reduction's combinator (the benchmark's deep workload selects
# by it): one_arg_build supplies all of them but ltomega_to_e3's
COMBINATOR_OF = {
    "compiso_to_eset": "perm_copies", "cut_omega": "saturate_down",
    "e0_to_e1": "tail_columns", "e0_to_e2": "block_union",
    "e0_to_e3": "replicate_columns", "e0_to_eset": "prefix_family",
    "e0_to_z0": "block_union", "e3_to_eset": "prefixed_columns",
    "e3_to_z0": "scaled_blocks", "elomega_to_homega": "saturate_down",
    "emax_to_emed": "saturate_down", "emed_to_e0": "median_multiples",
    "emin_to_homega": "saturate_up", "eq1_to_compiso": "star_edges",
    "eqce_to_e0": "expand_columns", "eqce_to_eQ": "triadic_cut",
    "eqm_to_eq1": "expand_columns", "eqnat_to_emin": "",
    "eset_to_isobin": "membership_tree", "gcd_to_min": "stage_gcds",
    "hull_omega": "interval_hull", "lcm_to_max": "stage_lcms",
    "ltomega_to_e3": "level_columns", "max_to_lcm": "max_factorials",
    "min_to_gcd": "min_factorials", "nce_embed": "",
    "omega_into_rationals": "rational_cut", "saturate_down": "saturate_down",
    "saturate_up": "saturate_up",
}


def test_each_reduction_derives_its_combinator():
    assert {name: red.combinator for name, red in REDUCTIONS.items()} \
        == COMBINATOR_OF


@pytest.mark.parametrize("name", sorted(
    name for name, red in REDUCTIONS.items() if red.validator is None))
def test_a_window_checked_prediction_states_its_image(name):
    """A reduction without a validator is checked on its window, so its
    prediction states the membership the window is checked against."""
    red = REDUCTIONS[name]
    rng = random.Random(8)
    for _ in range(10):
        for payload in red.gen_case(rng):
            assert predicted_member(red.predict(payload)) is not None


def test_no_build_states_a_membership():
    """What an image holds is the prediction's to state: a build
    carries no membership of its own."""
    assert "member" not in {f.name for f in fields(Built)}
