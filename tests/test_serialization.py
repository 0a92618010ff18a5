"""S-expression round trips for program terms and descriptors."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import celab  # noqa: F401
from celab.programs import Combinator, Evaluator, FullColumnOf, script
from celab.reductions import gen_pair_columns, random_ep_descriptor
from celab.serialization import (ParseError, desc_from_sexpr, desc_to_sexpr,
                                 term_from_sexpr, term_to_sexpr)


def test_term_round_trips():
    terms = [
        script([(0, {1, 5}), (3, {2})]),
        FullColumnOf(4),
        Combinator("expand_columns", (script([(0, {2})]),), ()),
        Combinator("cut_below", (FullColumnOf(1),), (2,), variant=3),
    ]
    for t in terms:
        assert term_from_sexpr(term_to_sexpr(t)) == t


def test_term_parse_examples():
    t = term_from_sexpr("(script (0 (5)))")
    assert Evaluator().approx(t, 3) == frozenset({5})
    assert term_from_sexpr("(fullcolumn 2)") == FullColumnOf(2)


@pytest.mark.parametrize("bad", [
    "", "(script", "(script (x (1)))", "(combinator)", "(indexed a)",
    "(script (0 (1))) extra", "(unknown 1)",
])
def test_malformed_terms_are_rejected(bad):
    with pytest.raises(ParseError):
        term_from_sexpr(bad)


def test_descriptor_round_trips():
    rng = random.Random(2)
    for _ in range(150):
        d = random_ep_descriptor(rng)
        assert desc_from_sexpr(desc_to_sexpr(d)) == d
    for _ in range(60):
        a, b = gen_pair_columns(rng)
        assert desc_from_sexpr(desc_to_sexpr(a)) == a
        assert desc_from_sexpr(desc_to_sexpr(b)) == b


@pytest.mark.parametrize("bad", [
    "(progression 1)", "(difference (finite 1))", "(blocks (finite))",
    "(finite -3)", "(dyadic)", "(weight (finite) (finite))",
    "(progression 1 0)",
])
def test_malformed_descriptors_are_rejected(bad):
    with pytest.raises(ParseError):
        desc_from_sexpr(bad)


_TOKENS = st.sampled_from([
    "(", ")", "()", "0", "7", "-1", "x",
    "script", "fullcolumn", "combinator", "indexed", "saturate_up",
    "finite", "cofinite", "progression", "union", "difference", "dyadic",
    "weight", "columns", "overridecolumns", "columnsbyset", "tailcolumns",
]) | st.text("()0123456789ax", max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TOKENS, max_size=24), st.sampled_from([0, 1, 3, 3000]),
       st.integers(0, 3000))
def test_readers_raise_only_parse_errors(tokens, opened, closed):
    """Any token string, however deeply nested, parses or is rejected
    with ParseError."""
    text = "(" * opened + " ".join(tokens) + ")" * min(closed, opened)
    for read in (term_from_sexpr, desc_from_sexpr):
        try:
            read(text)
        except ParseError:
            pass
