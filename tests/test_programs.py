"""Evaluator semantics: stage monotonicity, determinism, budgets."""

import gc
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import celab  # noqa: F401  (registers combinators)
from celab.descriptors import Cofinite, Finite, Progression, compile_descriptor
from celab.pairing import pair
from celab.numbering import decode as program_from_code, encode as program_code
from celab.orders import rational_from_code
from celab.programs import (COMBINATORS, BudgetExceeded, Combinator,
                            Evaluator, FullColumnOf, Indexed, columns_of,
                            script)

entries = st.lists(
    st.tuples(st.integers(min_value=0, max_value=8),
              st.sets(st.integers(min_value=0, max_value=30), max_size=4)),
    max_size=5)


@given(entries, st.integers(min_value=0, max_value=12))
def test_script_approx_is_monotone(pairs, s):
    term = script(pairs)
    ev = Evaluator()
    assert ev.approx(term, s) <= ev.approx(term, s + 1)


@given(entries)
def test_script_limit_is_union_of_entries(pairs):
    term = script(pairs)
    ev = Evaluator()
    top = max((stage for stage, _ in pairs), default=0)
    want = set()
    for _, elems in pairs:
        want |= set(elems)
    assert set(ev.approx(term, top)) == want


def test_full_column_contents():
    ev = Evaluator()
    got = ev.approx(FullColumnOf(3), 4)
    assert got == frozenset(pair(3, k) for k in range(5))
    assert columns_of(got) == {3: frozenset(range(5))}


def test_separate_evaluators_agree():
    term = Combinator("expand_columns", (script([(0, {1}), (2, {4})]),), ())
    a = Evaluator().approx(term, 9)
    b = Evaluator().approx(term, 9)
    assert a == b


def test_budget_exhaustion_raises():
    ev = Evaluator(budget=50)
    with pytest.raises(BudgetExceeded):
        ev.approx(Combinator("expand_columns", (FullColumnOf(0),), ()), 40)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=5000))
def test_program_numbering_is_a_bijection(code):
    term = program_from_code(code)
    assert program_code(term) == code


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 * 10 ** 5))
def test_decoded_terms_grow_with_the_stage(code):
    term = program_from_code(code)
    ev = Evaluator(budget=20000)
    prev = frozenset()
    for s in range(20):
        try:
            got = ev.approx(term, s)
        except BudgetExceeded:
            break
        assert prev <= got, f"stage {s}"
        prev = got


@pytest.mark.parametrize("query", [
    lambda ev, term: ev.approx(term, 300),
    lambda ev, term: ev.upto(term, 300, 10 ** 9),
    lambda ev, term: ev.fresh(term, 300),
    lambda ev, term: ev.entry_stage(term, 0, 300),
], ids=["approx", "upto", "fresh", "entry_stage"])
def test_budget_bounds_every_entry_point(query):
    term = Combinator("expand_columns", (FullColumnOf(0),), ())
    with pytest.raises(BudgetExceeded):
        query(Evaluator(budget=5000), term)


@pytest.mark.parametrize("cid", ["min_factorials", "max_factorials"])
def test_the_budget_bounds_a_factorial(cid):
    """A factorial step charges one step per factor, before it
    multiplies: (10^5 + 2)! does not fit a budget of 1000."""
    term = Combinator(cid, (script([(0, {10 ** 5})]),))
    with pytest.raises(BudgetExceeded):
        Evaluator(budget=1000).approx(term, 0)


def test_the_budget_stops_a_median_fill_before_it_is_built():
    # the median moves at stage 2, when the running top is 10^5 + 2
    a = script([(0, {0}), (1, {10 ** 5}), (2, {1})])
    ev = Evaluator(budget=1000)
    ev.approx(a, 0)  # makes the argument's cell, for the step to read
    stages = COMBINATORS["median_multiples"].step(
        ev._meter, (ev.cell_of(a),), ())
    given = []
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            for _ in range(3):
                given.append(list(next(stages)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert given == [[2], [0, 1, 10 ** 5 + 2]]
    # the fill of stage 2 would hold 10^5 values
    assert peak < 10 ** 5


# Combinators whose output grows faster than the stage count on an
# infinite argument; their steps per stage grow with it.
SUPERLINEAR_OUTPUT = {
    "expand_columns": "element c grows column c at every later stage",
    "replicate_columns": "element k enters one more column at every stage",
    "prefix_family": "every column m copies every element",
    "level_columns": "column k grows at every stage while k is in the fold",
    "tail_columns": "element x brings x + 1 points",
    "block_union": "element n grows a block of about 2^n points",
    "scaled_blocks": "row k grows a block of 2^k points",
    "prefixed_columns": "generator <n, m> starts with n points",
}


def _ticks(term, s: int) -> int:
    ev = Evaluator()
    ev.approx(term, s)
    return ev._steps


@pytest.mark.parametrize(
    "cid", sorted(set(COMBINATORS) - set(SUPERLINEAR_OUTPUT)))
def test_steps_grow_linearly_with_the_stage(cid):
    """A construction whose output is linear in s reacts to new argument
    elements; rescanning its argument or its own codes at every stage
    would make the steps quadratic (a ratio near 4)."""
    a = compile_descriptor(Progression(3, 7)).term
    term = Combinator(cid, (a,))
    assert _ticks(term, 400) / _ticks(term, 200) <= 2.3


# Constructions whose steps use the bound: under one they stop their
# generators or close.  The others ignore it and read all of their
# argument.
TAKE_BOUND = {"block_union", "expand_columns", "from_descriptor",
              "interval_hull", "membership_tree", "perm_copies",
              "prefix_family", "prefixed_columns", "rational_cut",
              "replicate_columns", "saturate_down", "saturate_up",
              "scaled_blocks", "star_edges", "tail_columns", "triadic_cut"}


def _upto_ticks(term, s: int, bound: int) -> int:
    ev = Evaluator()
    ev.upto(term, s, bound)
    return ev._steps


@pytest.mark.parametrize("cid", sorted(TAKE_BOUND))
def test_bounded_steps_grow_linearly_with_the_stage(cid):
    """Under a bound, a construction that takes one stops its
    generators at the bound, so past it every stage costs a constant,
    even where its unbounded output grows superlinearly."""
    a = compile_descriptor(Cofinite(frozenset({0, 2, 3}))).term
    term = Combinator(cid, (a,))
    assert _upto_ticks(term, 400, 64) / _upto_ticks(term, 200, 64) <= 2.3


def cell_closed(ev, term, s, bound=None, below=None):
    """Whether ev's cell of term under bound reads as closed at stage s,
    below its bound or below ``below``; False while ev has no such
    cell."""
    cell = ev.cell_of(term, bound)
    return cell is not None and cell.closed(s, below)


def assert_cells_distinct(ev):
    """Every cell of ev holds each element once: a step gives only
    elements it has not given before, and the evaluator appends them
    unchecked."""
    for key, cell in ev._cells.items():
        assert len(set(cell.order)) == len(cell.order), key


# Constructions that close: once their argument has and, under a bound,
# once what they still have to emit lies past it.
CLOSING = {"block_union", "expand_columns", "from_descriptor",
           "interval_hull", "max_factorials", "membership_tree",
           "min_factorials", "perm_copies", "prefix_family",
           "prefixed_columns", "rational_cut", "replicate_columns",
           "saturate_down", "saturate_up", "scaled_blocks", "stage_gcds",
           "stage_lcms", "star_edges", "tail_columns", "triadic_cut"}
CLOSING_ARGUMENTS = {
    "script": script([(0, {1}), (2, {4, 0}), (3, {9}), (7, {2}),
                      (11, {30})]),
    "finite": compile_descriptor(Finite(frozenset({0, 1, 5, 12}))).term,
    "fullcolumn": FullColumnOf(1),
    "progression": compile_descriptor(Progression(3, 4)).term,
    "cofinite": compile_descriptor(Cofinite(frozenset({0, 2, 3})),
                                   delay=2).term,
    # every natural: its triadic sum is exactly 1/2, the rational of
    # code 3, so that code waits at the sum's limit
    "cofinite-from-0": compile_descriptor(Cofinite(frozenset())).term,
}


def _closing_terms():
    for cid in sorted(CLOSING):
        for name, a in CLOSING_ARGUMENTS.items():
            # past the bound only a bounded construction can close on
            # an infinite argument
            if name not in ("script", "finite") and cid not in TAKE_BOUND:
                continue
            params = (1, 2) if cid == "from_descriptor" else ()
            yield pytest.param(Combinator(cid, (a,), params),
                               id=f"{cid}-{name}")


@pytest.mark.parametrize("term", _closing_terms())
def test_closed_cells_cost_nothing(term):
    for t in (term, Indexed(program_code(term))):
        ev = Evaluator()
        ev.upto(t, 200, 21)
        assert cell_closed(ev, t, 200, 21)
        window = ev.upto(t, 2000, 21)
        assert ev._steps == 0
        # a closed cell stores nothing per later stage
        assert ev.upto(t, 10 ** 12, 21) == window and ev._steps == 0
        assert ev.fresh(t, 10 ** 12, 21) == [] and ev._steps == 0


def test_a_triadic_cut_closes_at_its_limit_without_entering_it():
    """Over every natural the triadic sum stays below its limit 1/2,
    the rational of code 3: the bounded cell still closes, as the sum
    can no longer pass that code, and code 3 never enters."""
    assert rational_from_code(3) == Fraction(1, 2)
    term = Combinator("triadic_cut", (CLOSING_ARGUMENTS["cofinite-from-0"],))
    ev = Evaluator()
    assert 3 not in ev.upto(term, 300, 21) | ev.approx(term, 300)
    assert cell_closed(ev, term, 300, 21)


@pytest.mark.parametrize("cid", sorted(CLOSING))
def test_an_argument_closed_ahead_still_feeds_its_construction(cid):
    """A cell closed at a later stage than its reader has reached still
    hands the reader what it gained after the reader's stage."""
    a = CLOSING_ARGUMENTS["script"]
    term = Combinator(cid, (a,), (1, 2) if cid == "from_descriptor" else ())
    ahead, inner_ahead, alone = Evaluator(), Evaluator(), Evaluator()
    ahead.approx(a, 40)
    for b in range(22):
        ahead.upto(a, 40, b)
    inner_ahead.approx(term, 40)
    inner_ahead.upto(term, 40, 21)
    for s in range(41):
        want = alone.upto(term, s, 21)
        assert ahead.upto(term, s, 21) == want, f"stage {s}"
        assert inner_ahead.upto(Indexed(program_code(term)), s, 21) == want


@pytest.mark.parametrize("name", ["fullcolumn", "progression", "cofinite"])
@pytest.mark.parametrize(
    "cid", sorted(CLOSING & TAKE_BOUND))
def test_an_argument_read_ahead_still_feeds_its_construction(cid, name):
    """A floor speaks of the stages after the last one its cell has
    reached: what another query made the argument gain after the
    reader's stage, below the bound, is still new to the reader."""
    a = CLOSING_ARGUMENTS[name]
    term = Combinator(cid, (a,), (1, 2) if cid == "from_descriptor" else ())
    ahead, alone = Evaluator(), Evaluator()
    ahead.approx(a, 60)
    for b in range(22):
        ahead.upto(a, 60, b)
    for s in range(61):
        assert ahead.upto(term, s, 21) == alone.upto(term, s, 21), \
            f"stage {s}"


@pytest.mark.parametrize("name", ["fullcolumn", "progression", "cofinite"])
def test_a_floor_tells_what_can_still_enter(name):
    """Whether anything <= below can still enter an unbounded argument
    after stage s, asked of a cell advanced through s and of one that
    another query advanced far past s."""
    a = CLOSING_ARGUMENTS[name]
    lockstep, ahead = Evaluator(), Evaluator()
    ahead.approx(a, 200)
    for s in range(100):
        lockstep.approx(a, s)
        # the least element a later stage can add: the next row, or the
        # next candidate the descriptor is tested on
        floor = pair(1, s + 1) if name == "fullcolumn" else \
            s - a.params[1] + 1
        assert cell_closed(lockstep, a, s, below=floor - 1)
        assert not cell_closed(lockstep, a, s, below=floor)
        nxt = min(ahead.approx(a, 200) - ahead.approx(a, s))
        assert cell_closed(ahead, a, s, below=nxt - 1)
        assert not cell_closed(ahead, a, s, below=nxt)


@pytest.mark.parametrize("name", ["fullcolumn", "cofinite"])
@pytest.mark.parametrize("cid", sorted(COMBINATORS))
def test_a_retry_after_the_budget_runs_out_gives_the_true_set(cid, name):
    """A call that runs out of budget leaves no half-stepped cell: the
    same evaluator, asked again with budget to spare, gives what a fresh
    one gives.  Half of what the call costs always runs out."""
    term = Combinator(cid, (CLOSING_ARGUMENTS[name],),
                      (1, 2) if cid == "from_descriptor" else ())
    fresh = Evaluator(budget=10 ** 8)
    want = fresh.approx(term, 120)
    for budget in (3000, fresh._steps // 2):
        ev = Evaluator(budget=budget)
        try:
            ev.approx(term, 120)
        except BudgetExceeded:
            pass
        ev.budget = 10 ** 8
        assert ev.approx(term, 120) == want, f"budget {budget}"


@pytest.mark.parametrize("cid", sorted(COMBINATORS))
def test_an_evaluator_is_freed_by_reference_counting(cid):
    """The generators of an evaluator's cells hold its budget meter,
    never the evaluator: dropping an evaluator frees it, and with it
    every cell, without the cycle collector."""
    ev = Evaluator()
    for a in CLOSING_ARGUMENTS.values():
        term = Combinator(cid, (a,), (1, 2) if cid == "from_descriptor"
                          else ())
        ev.approx(term, 40)
        ev.upto(term, 40, 21)
    alive = weakref.ref(ev)
    gc.disable()
    try:
        del ev
        assert alive() is None
    finally:
        gc.enable()
