"""The incremental evaluator against a naive reference evaluator.

``ReferenceEvaluator`` is the evaluator as it was before ``fresh``: one
dict per term from element to first stage, with its elements listed in
entry order, every approximation the prefix of that list entered by its
stage, ``fresh`` and ``Indexed`` the elements entered at the stage, and
a bound applied by filtering them.  It makes each combinator's
generator once per cell, handing it one handle per argument the step
reads: a handle reads its term whole through the reference's
``fresh``, never reads as closed and has no floor.  It fails on an
element a step gives twice, within a stage or at a later one, and every
cell of the incremental evaluator must hold each element once.  Both
evaluators run the same registered steps, so they must agree on every
approximation and entry stage, and the incremental one may never charge
more steps.  Under a bound the incremental evaluator hands the bound to
every construction; it must still give exactly the filtered sets, in the
unbounded entry order, at no more steps.  The reference never closes a
cell, so it asks every cell for every stage, and as no handle reads as
closed, only a step that can gain nothing more whatever its arguments
do returns: a cell the incremental evaluator closes too early shows as
a missing element.  A state machine at the end asks one long-lived
evaluator everything in any order.
"""

from dataclasses import dataclass
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import celab  # noqa: F401  (registers combinators)
from celab.descriptors import (CHUNK, Cofinite, ColumnsBySet, DyadicBlocks,
                               Finite, Progression, TailColumns, Union,
                               compile_descriptor, member)
from celab.nce import nce_stage_value
from celab.numbering import decode, encode
from celab.pairing import pair
from celab.programs import (COMBINATORS, DEFAULT_BUDGET, EMPTY,
                            BudgetExceeded, Combinator, CombinatorDef,
                            Evaluator, FullColumnOf, Indexed, Script, script)
from test_programs import (CLOSING_ARGUMENTS, assert_cells_distinct,
                           cell_closed)

S = 24


@dataclass(frozen=True)
class Handle:
    """An argument as the reference hands it to a step."""

    term: object

    def closed(self, s, below=None):
        return False

    def floor(self):
        return None


def _handles(term):
    """One handle per argument the term's step reads: the first
    ``reads`` of them (all, reads None), a missing one ``EMPTY``."""
    cdef = COMBINATORS.get(term.cid)
    if cdef is None:
        return ()
    n = len(term.args) if cdef.reads is None else cdef.reads
    return tuple(map(Handle, (*term.args, *(EMPTY,) * n)[:n]))



class ReferenceEvaluator:
    def __init__(self, budget=DEFAULT_BUDGET):
        self.budget = budget
        self._cells = {}
        self._steps = 0
        self._depth = 0

    def tick(self, n=1):
        self._steps += n
        if self._steps > self.budget:
            raise BudgetExceeded(f"exceeded {self.budget} primitive steps")

    def _stage_elements(self, term, s, cell):
        if isinstance(term, Script):
            for stage, elems in term.entries:
                if stage == s:
                    return elems
            return ()
        if isinstance(term, FullColumnOf):
            return (pair(term.c, s),)
        if isinstance(term, Combinator):
            cdef = COMBINATORS.get(term.cid)
            if cdef is None:
                return ()
            if "stages" not in cell:
                cell["stages"] = cdef.step(self, _handles(term),
                                           term.params)
            try:
                return next(cell["stages"])
            except StopIteration as stop:
                # a step that closed its cell gives nothing more
                return stop.value or ()
        if "inner" not in cell:
            cell["inner"] = decode(term.code)
        return self.fresh(cell["inner"], s)

    def _advance(self, term, s):
        # order lists the elements in the order they entered, so the
        # elements entered by stage t are its first ends[t]
        cell = self._cells.setdefault(
            term, {"entries": {}, "order": [], "ends": []})
        while len(cell["ends"]) <= s:
            t = len(cell["ends"])
            self.tick()
            for x in self._stage_elements(term, t, cell):
                self.tick()
                assert x not in cell["entries"], (
                    f"{term}: {x} returned again at stage {t}")
                cell["entries"][x] = t
                cell["order"].append(x)
            cell["ends"].append(len(cell["order"]))
        return cell

    def _run(self, term, s):
        if self._depth == 0:
            self._steps = 0
        self._depth += 1
        try:
            return self._advance(term, s)
        finally:
            self._depth -= 1

    def approx(self, term, s):
        if s < 0:
            return frozenset()
        cell = self._run(term, s)
        return frozenset(cell["order"][:cell["ends"][s]])

    def entry_stage(self, term, x, s):
        t = self._advance(term, s)["entries"].get(x)
        return t if t is not None and t <= s else None

    def upto(self, term, s, bound):
        return frozenset(x for x in self.approx(term, s) if x <= bound)

    def fresh(self, term, s, bound=None):
        if s < 0:
            return frozenset()
        cell = self._run(term, s)
        ends = cell["ends"]
        new = cell["order"][ends[s - 1] if s else 0:ends[s]]
        if bound is None:
            return frozenset(new)
        return frozenset(x for x in new if x <= bound)

    def read(self, handle, s):
        return self.fresh(handle.term, s)


def assert_agree(term, stages=S):
    new, ref = Evaluator(), ReferenceEvaluator()
    prev = frozenset()
    for s in range(stages + 1):
        got = new.approx(term, s)
        new_ticks = new._steps
        want = ref.approx(term, s)
        assert got == want, f"stage {s}"
        assert new_ticks <= ref._steps, f"stage {s}"
        fresh = new.fresh(term, s)
        assert len(fresh) == len(set(fresh)) and set(fresh) == got - prev
        # the reference's entries of stage s are want - prev: each
        # element is asked for its entry stage once, at that stage
        for x in fresh:
            assert new.entry_stage(term, x, s) == ref.entry_stage(
                term, x, s) == s
        prev = got
    assert_cells_distinct(new)


def assert_bound_agrees(term, bound, stages=S):
    full, cut, ref = Evaluator(), Evaluator(), ReferenceEvaluator()
    for s in range(stages + 1):
        want = full.approx(term, s)
        full_ticks = full._steps
        got = cut.upto(term, s, bound)
        assert got == {x for x in want if x <= bound}, f"stage {s}"
        assert cut._steps <= full_ticks, f"stage {s}"
        assert got == ref.upto(term, s, bound), f"stage {s}"
        new = cut.fresh(term, s, bound)
        assert new == [x for x in full.fresh(term, s) if x <= bound]
        assert set(new) == ref.fresh(term, s, bound), f"stage {s}"
    assert_cells_distinct(full)
    assert_cells_distinct(cut)


ARGUMENTS = {
    "script": script([(0, {1}), (2, {4, 0}), (3, {9}), (7, {2}), (11, {30})]),
    "fullcolumn": FullColumnOf(1),
    "progression": compile_descriptor(Progression(3, 4)).term,
    "finite": compile_descriptor(Finite(frozenset({0, 1, 5, 12}))).term,
    "cofinite": compile_descriptor(Cofinite(frozenset({0, 2, 3})),
                                   delay=2).term,
    # a small element and a new maximum after stage 21 move both cuts
    "late": script([(0, {3}), (30, {0, 9})]),
}


@pytest.mark.parametrize("cid", sorted(COMBINATORS))
@pytest.mark.parametrize("name", sorted(ARGUMENTS))
def test_every_combinator_agrees_with_the_reference(cid, name):
    a = ARGUMENTS[name]
    args = (a, ARGUMENTS["script"], a) if cid == "level_columns" else (a,)
    params = (1, 2) if cid == "from_descriptor" else ()
    term = Combinator(cid, args, params)
    assert_agree(term)
    assert_agree(Indexed(encode(term)))
    # 21 = <6, 0> and 27 = <0, 6> sit on the edges of the argument
    # bounds of expand_columns and of replicate_columns, tail_columns
    # and prefix_family; under bound 21, stage 80 lies past every
    # closure
    for bound, stages in ((21, 80), (27, S), (62, S)):
        assert_bound_agrees(term, bound, stages)
        assert_bound_agrees(Indexed(encode(term)), bound, stages)


def test_level_columns_follow_the_fold_of_whole_approximations():
    # 4 enters the fold at stage 4, leaves it at 10 and is back at 15
    parts = (compile_descriptor(Cofinite(frozenset({0, 2, 3}))).term,
             script([(10, {4}), (12, {1})]), script([(15, {4})]))
    ev, ref = Evaluator(), ReferenceEvaluator()
    term = Combinator("level_columns", parts)
    want = set()
    for s in range(S + 1):
        want |= {pair(k, s) for k in nce_stage_value(ref, parts, s) if k <= s}
        assert ev.approx(term, s) == want, f"stage {s}"


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 * 10 ** 5),
       st.integers(min_value=0, max_value=200))
def test_decoded_terms_agree_with_the_reference(code, bound):
    # codes this small decode to terms with small elements and
    # parameters, so no factorial or block size blows up within S stages
    assert_agree(decode(code), stages=12)
    assert_bound_agrees(decode(code), bound, stages=12)
    assert_bound_agrees(Indexed(code), bound, stages=12)


# from_descriptor answers CHUNK candidates per walk of its descriptor.
# Members sit on both sides of the chunk edges, the largest element of
# the finite set lies past the second one, and the delay moves the edges
# off the stage numbers.
CHUNKED = {
    "progression": Progression(3, 7),
    "cofinite": Cofinite({0, 255, 256, 257, 511, 512, 513}),
    "finite": Finite({0, 255, 256, 257, 511, 512, 530}),
    "union": Union((Progression(1, 5), Finite({256, 512}))),
    "dyadic": DyadicBlocks(Progression(1, 2)),
    "bycolumn": ColumnsBySet(Progression(0, 2), Progression(1, 3),
                             Finite({0, 4})),
    "tail": TailColumns(Cofinite({3, 300})),
}


@pytest.mark.parametrize("delay", [0, 3])
@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_from_descriptor_agrees_across_chunk_edges(name, delay):
    d = CHUNKED[name]
    term = compile_descriptor(d, delay).term
    stages = 2 * CHUNK + 100
    ev, want = Evaluator(), set()
    for s in range(stages + 1):
        # stage s tests s - delay
        if s >= delay and member(d, s - delay):
            want.add(s - delay)
        assert ev.approx(term, s) == want, f"stage {s}"
    assert_agree(term, stages)
    for bound in (CHUNK - 1, CHUNK + 1, 2 * CHUNK + 1):
        assert_bound_agrees(term, bound, stages)


def _stages_uneven(ev, args, params, bound=None):
    """Stages of many and of few elements, every one new, ignoring the
    bound."""
    for s in count():
        base = 20 * s
        if s % 4 == 0:  # many, ascending
            yield [base + i for i in range(15)]
        elif s % 4 == 1:  # many, out of order
            yield [base + 9 - i for i in range(10)] + [base + 13, base + 11,
                                                       base + 17]
        elif s % 4 == 2:  # a few
            yield [base + 1, base]
        else:  # many, descending
            yield [base + 15 - i for i in range(16)]


@pytest.mark.parametrize("bound", [None, 45, 65, 90])
def test_uneven_stages_of_new_elements_join_as_the_reference_does(
        monkeypatch, bound):
    monkeypatch.setitem(COMBINATORS, "uneven",
                        CombinatorDef("uneven", _stages_uneven, reads=0))
    term = Combinator("uneven")
    assert_agree(term)
    if bound is not None:
        assert_bound_agrees(term, bound)
    new, ref = Evaluator(), ReferenceEvaluator()
    for s in range(S + 1):
        want = ref.approx(term, s)
        if bound is not None:
            want = {x for x in want if x <= bound}
            assert new.upto(term, s, bound) == want, f"stage {s}"
        # fresh keeps the elements in the order the step returned them
        entered = ref._cells[term]["entries"].items()
        assert new.fresh(term, s, bound) == [
            x for x, t in entered
            if t == s and (bound is None or x <= bound)], f"stage {s}"
    for s in (0, 5, S):
        for x in range(20 * S + 20):
            assert (new.entry_stage(term, x, s)
                    == ref.entry_stage(term, x, s)), f"{x} at stage {s}"


# One shared evaluator against the reference, under queries in any order.
# The pool holds closing terms and terms that never close, terms whose
# steps use the bound and terms whose steps ignore it, subterms shared
# between terms, and (indexed n) forms of some of them.
_column, _cofinite = ARGUMENTS["fullcolumn"], ARGUMENTS["cofinite"]
_gcds = Combinator("stage_gcds", (ARGUMENTS["script"],))
_down = Combinator("saturate_down", (_column,))
_POOL = [
    ARGUMENTS["script"], _column, _cofinite, _gcds, _down,
    Combinator("saturate_up", (_cofinite,)),
    Combinator("interval_hull", (_column,)),
    Combinator("interval_hull", (_down,)),
    Combinator("median_multiples", (_column,)),
    Combinator("max_factorials", (ARGUMENTS["late"],)),
    Combinator("expand_columns", (_gcds,)),
    Combinator("rational_cut", (_cofinite,)),
    Combinator("stage_lcms", (ARGUMENTS["script"],)),
]
_POOL += [Indexed(encode(t)) for t in _POOL[3:9]]
# every other closing construction over the closing script, so that
# their bounded paths close on the shared evaluator too, and their kept
# argument cells meet shared cells, closings and budget retries
_POOL += [Combinator(cid, (CLOSING_ARGUMENTS["script"],), params)
          for cid, params in [("block_union", (0,)), ("block_union", (1,)),
                              ("expand_columns", ()), ("prefix_family", ()),
                              ("prefixed_columns", ()),
                              ("replicate_columns", ()),
                              ("scaled_blocks", ()), ("tail_columns", ()),
                              ("interval_hull", ()), ("min_factorials", ()),
                              ("max_factorials", ()),
                              ("membership_tree", ()), ("perm_copies", ()),
                              ("rational_cut", ()), ("saturate_down", ()),
                              ("saturate_up", ()), ("star_edges", ()),
                              ("triadic_cut", ())]]
_HORIZON = 30


class SharedEvaluatorMachine(RuleBasedStateMachine):
    """Model-based test (QuickCheck's state machines): every answer of
    one long-lived evaluator, whatever it was asked before and whatever
    calls ran out of budget, equals the reference's."""

    def __init__(self):
        super().__init__()
        self.ev, self.ref = Evaluator(), ReferenceEvaluator()

    @invariant()
    def cells_are_distinct(self):
        assert_cells_distinct(self.ev)

    terms = st.sampled_from(_POOL)
    stages = st.integers(min_value=0, max_value=40)
    bounds = st.integers(min_value=0, max_value=120)

    @rule(term=terms, s=stages)
    def approx(self, term, s):
        assert self.ev.approx(term, s) == self.ref.approx(term, s)

    @rule(term=terms, s=stages, bound=bounds)
    def upto(self, term, s, bound):
        assert self.ev.upto(term, s, bound) == self.ref.upto(term, s, bound)

    @rule(term=terms, s=stages, bound=st.none() | bounds)
    def fresh(self, term, s, bound):
        got = self.ev.fresh(term, s, bound)
        assert len(got) == len(set(got))
        assert set(got) == self.ref.fresh(term, s, bound)

    @rule(term=terms, s=stages, data=st.data())
    def entry_stage(self, term, s, data):
        x = data.draw(st.sampled_from(sorted(self.ref.approx(term, 40)))
                      | st.integers(min_value=0, max_value=200))
        assert (self.ev.entry_stage(term, x, s)
                == self.ref.entry_stage(term, x, s))

    @rule(term=terms, s=stages, bound=st.none() | bounds,
          below=st.none() | bounds)
    def closed(self, term, s, bound, below):
        if not cell_closed(self.ev, term, s, bound, below):
            return
        # nothing new after s, or nothing new <= every limit given
        limits = [b for b in (bound, below) if b is not None]
        later = (self.ref.approx(term, s + _HORIZON)
                 - self.ref.approx(term, s))
        assert all(limits and x > min(limits) for x in later)

    @rule(term=terms, s=stages, bound=st.none() | bounds,
          budget=st.integers(min_value=1, max_value=400))
    def retry(self, term, s, bound, budget):
        """A call under a small budget, then the same call again."""
        ask = ((lambda: self.approx(term, s)) if bound is None
               else (lambda: self.upto(term, s, bound)))
        self.ev.budget = budget
        try:
            ask()
        except BudgetExceeded:
            pass
        finally:
            self.ev.budget = DEFAULT_BUDGET
        ask()


TestSharedEvaluator = SharedEvaluatorMachine.TestCase
TestSharedEvaluator.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None)
