"""S-expression round trips for program terms and descriptors."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import celab  # noqa: F401
from celab.programs import Combinator, Evaluator, FullColumnOf, script
from celab.reductions import gen_pair_columns, random_ep_descriptor
from celab.serialization import (ParseError, _build, _build_desc,
                                 _tokenize, desc_from_sexpr, desc_to_sexpr,
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


# The recursive reader the one-pass reader replaced, kept as a reference.


def _ref_read(tokens: list, pos: int):
    if pos >= len(tokens):
        raise ParseError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        out = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            node, pos = _ref_read(tokens, pos)
            out.append(node)
        if pos >= len(tokens):
            raise ParseError("unbalanced parentheses")
        return out, pos + 1
    if tok == ")":
        raise ParseError("unexpected ')'")
    return tok, pos + 1


def _ref_parse(text: str, build, what: str):
    tokens = _tokenize(text)
    try:
        node, pos = _ref_read(tokens, 0)
        if pos != len(tokens):
            raise ParseError(f"trailing input after {what}")
        return build(node)
    except RecursionError:
        raise ParseError(f"{what} nested too deeply") from None


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return ParseError, str(e)


@settings(max_examples=500, deadline=None)
@given(st.lists(_TOKENS, max_size=24), st.integers(0, 3), st.integers(0, 4))
def test_the_one_pass_reader_agrees_with_the_recursive_one(tokens, opened,
                                                            closed):
    """Equal values, or ParseError with the same message, at any depth
    the recursive reader could read."""
    text = "(" * opened + " ".join(tokens) + ")" * closed
    for read, build, what in ((term_from_sexpr, _build, "term"),
                              (desc_from_sexpr, _build_desc, "descriptor")):
        assert _outcome(read, text) == \
            _outcome(lambda t: _ref_parse(t, build, what), text)


@pytest.mark.parametrize("read", [term_from_sexpr, desc_from_sexpr])
def test_deeply_unbalanced_input_is_a_parse_error(read):
    with pytest.raises(ParseError, match="unbalanced parentheses"):
        read("(" * 10 ** 5)
