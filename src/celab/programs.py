"""Stage-monotone set programs and their evaluator.

A program is a closed term built from four constructors:

* ``Script``   -- a finite, hard-coded enumeration schedule;
* ``FullColumnOf(c)`` -- the infinite column {<c,k> : k}, paced one
  element per stage;
* ``Combinator(cid, args, params)`` -- a named construction applied to
  argument programs (the constructions register themselves in
  ``COMBINATORS``);
* ``Indexed(code)`` -- indirection through the program numbering.

Evaluation is stage-by-stage and incremental.  For every term the
evaluator keeps its elements in the order they first appeared, with the
end of each stage in that order, so ``approx(P, s)`` is monotone in
``s`` by construction and re-evaluation is cheap.  A cell appends what
its step gives at each stage, only elements new to it.  ``fresh(P, s)``
gives the elements that first appear at stage ``s``; constructions
react to those instead of rescanning their whole argument at every
stage (semi-naive evaluation: fire only on new facts).  A budget on
primitive steps (the tick rule of ``CombinatorDef``) turns runaway
simulations into a ``BudgetExceeded`` error instead of a hang.

The evaluator keeps one cell per (term, bound), the bound None for an
unbounded one, and an ``(indexed n)`` reads the cell of the term that n
decodes to.  A cell holds a generator of its term's stages, made with
the cell, which yields the elements new at each stage and keeps its
running state in local variables.  The one stage loop, the budget
meter's ``read(cell, s)``, resumes it once a stage through s and gives
the elements new at s.  A ``Script`` yields from a ``map`` over its
stages, a compiled descriptor (``from_descriptor``) from the list of a
chunk's stages that one walk of the descriptor gives.  A combinator's
cell is made with the cells of the arguments its step reads, each under
the bound its construction declares, and its generator reads them with
``ev.read(cell, s)``, the same loop, so no query looks a term up past
the cell it asks for.  What a generator is handed as ``ev`` is that
budget meter, never the evaluator itself, so no evaluator lies on a
reference cycle and each is freed as soon as it is dropped.  A caller
that reads a program only on ``[0, bound]`` asks ``upto(P, s, bound)``,
and the bound is pushed down through the term (the demand, or "magic
sets", transformation of Datalog), once, when the cells are made: a
construction declares the bound under which it reads its arguments, so
constructions stop computing what the caller cannot see.  Every step is
handed the bound of its cell and may ignore it, because the evaluator
drops what a step gives above it; a step must never miss an element
``<= bound``.  A construction that needs all of its argument reads it
unbounded.

A cell that can gain nothing more is *closed*: from the stage it closes
at, no later stage can give it an element that is new and ``<= bound``
(any new element, for an unbounded cell).  The evaluator answers for a
closed cell at any later stage from what it holds at the stage it
closed at: it resumes no generator, charges no step and stores nothing
per later stage, so a query past the point where its demand is met,
such as the harness's re-check of a window past its settle bound,
costs the same at stage 10^10 as at the next stage.  Once the demanded
part of a fixpoint is complete, evaluation stops.  A generator closes
its cell by returning, instead of yielding, the elements of its last
stage: a ``Script``'s at its last entry stage, ``FullColumnOf``'s once
its rows reach the bound, and a construction's when its step knows no
later stage can add one.

A term whose elements rise with the stage also reports a *floor*: the
least element a stage after a given one can still add, declared when
its cell is made (``FullColumnOf`` and the constructions that register
one).  A reader that needs only the elements below some threshold, such
as a saturation past its bound, then learns that the unbounded cell it
reads can give it nothing more, though that cell never closes.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Callable, Iterable, Iterator, Optional, Union

from .pairing import pair, unpair

DEFAULT_BUDGET = 10 ** 6


class BudgetExceeded(Exception):
    """Raised when an evaluator call exceeds the configured step ceiling."""


class Unknown(Exception):
    """A built program that cannot be certified: its settle bound lies
    past the stage budget, or its image still moves after that bound
    (the bound is wrong).  Never a disagreement."""


def _hash_once(term) -> int:
    """A term's hash, computed from its fields once and then kept.

    Evaluator cells are looked up by term at every stage, and hashing a
    deep term or a big-int parameter takes time in its size."""
    try:
        return term._hash
    except AttributeError:
        h = hash(tuple(getattr(term, f) for f in term.__dataclass_fields__))
        object.__setattr__(term, "_hash", h)
        return h


def _state_without_hash(term) -> dict:
    # string hashes differ between processes, so a kept hash must not
    # travel with a pickled term
    return {k: v for k, v in term.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class Script:
    """A finite enumeration schedule.

    ``entries`` is canonical: stages strictly increase, every stage set
    is a nonempty frozenset, and no element appears at two stages.  Use
    the ``script()`` helper to build one from arbitrary (stage, set)
    pairs.
    """

    entries: tuple  # tuple of (stage, frozenset)

    __hash__ = _hash_once
    __getstate__ = _state_without_hash


@dataclass(frozen=True)
class FullColumnOf:
    c: int


@dataclass(frozen=True)
class Combinator:
    cid: str
    args: tuple = ()
    params: tuple = ()
    # Semantically inert tag.  It exists so that the program numbering
    # can be a genuine bijection (every combinator occupies infinitely
    # many codes, one per variant).
    variant: int = 0

    __hash__ = _hash_once
    __getstate__ = _state_without_hash


@dataclass(frozen=True)
class Indexed:
    code: int


Term = Union[Script, FullColumnOf, Combinator, Indexed]


def script(pairs: Iterable) -> Script:
    """Canonicalize (stage, elements) pairs into a Script term."""
    first = {}
    for stage, elems in pairs:
        if stage < 0:
            raise ValueError("negative stage")
        for x in elems:
            if x < 0:
                raise ValueError("negative element")
            if x not in first or stage < first[x]:
                first[x] = stage
    by_stage = {}
    for x, stage in first.items():
        by_stage.setdefault(stage, set()).add(x)
    entries = tuple(
        (stage, frozenset(by_stage[stage])) for stage in sorted(by_stage)
    )
    return Script(entries)


EMPTY = Script(())


@dataclass
class Built:
    """A program with its settlement bound: a compiled descriptor, or
    the build of a reduction.

    ``settle(M)`` bounds the stage at which the program agrees with its
    limit on [0, M].  It is the certificate of the harness's window: the
    window is read at this stage and once more ``M`` stages later, so a
    bound that is too low shows as an unknown case.  ``parts`` carries
    auxiliary terms for multi-program constructions.  What the limit is
    is stated by the reduction's prediction, never by the build.
    """

    term: Term
    settle: Callable[[int], int]
    parts: tuple = ()


@dataclass
class CombinatorDef:
    """A registered construction.

    ``step(ev, args, params, bound=None)`` is called once, when the
    cell of its term under bound (None: unbounded) is made, and returns
    a generator of that cell's stages: its n-th value holds the elements
    entering the cell at stage n, as a list, tuple, range or set of
    distinct elements, none given at an earlier stage, with or without
    a bound, which the evaluator appends to the cell unchecked.  The
    evaluator resumes it once per stage, in order, so it keeps its
    running state, the stage included, in local variables.  ``ev`` is
    the evaluator's budget meter, not the evaluator: a step reads and
    ticks through it.

    ``args`` are the cells of the first ``reads`` arguments of the term
    (all of them, ``reads`` None), a missing one the cell of ``EMPTY``,
    bound when the step's cell is made: under ``reach(b)`` for a cell
    with bound b, and whole for an unbounded cell or ``reach`` None.  A
    term's further arguments get no cell.  A step reads argument cell
    ``a``'s new elements at stage s with ``ev.read(a, s)``, and may read
    it only at stages <= s.  It keeps what it needs of earlier elements
    rather than rescan the argument at every stage; it may ``yield
    from`` an iterator of stages.  The tick rule: the stage loop charges
    one tick per stage of a cell and one per element given, the whole
    flat charge of a stage; a step charges ``ev.tick(n)`` only for work
    in proportion to what it handles (new argument elements, factors it
    multiplies, the machine words of a number, before it builds it),
    never per element rescanned.

    A step may ignore the bound, because the evaluator drops what it
    gives above the bound: under a bound b it must give every element
    <= b that the unbounded step gives, in the same order, and may give
    more above b, each new too.  A construction whose step uses the
    bound declares a ``reach`` that keeps every argument element an
    output <= b can come from, and its step stops generators whose next
    output lies past b.  One that needs all of its argument declares
    none.

    A step that knows no later stage can give a new element ``<= b``
    (any new element, unbounded) closes its cell by returning its last
    stage's elements instead of yielding them; the evaluator stores
    them and resumes it no more.  It may close only after it has read
    every argument to that stage s, and it learns that argument cell
    ``a`` can give nothing new after stage s and ``<=`` its bound
    (nothing new, unbounded) from ``a.closed(s)``, or nothing new
    ``<= below`` from ``a.closed(s, below)``.

    A construction whose elements rise with the stage may declare a
    ``floor``: given the term's parameters, when its cell is made, it
    gives a function of the stage t, the least element that a stage
    after t can still add.  A cell without one never closes for a reader
    before its step closes it.
    """

    cid: str
    step: Callable
    reads: Optional[int] = 1  # None: all of the term's arguments
    reach: Optional[Callable] = None  # cell bound -> argument bound
    floor: Optional[Callable] = None  # params -> (stage -> least element)


COMBINATORS: dict = {}


def register_combinator(cid: str, step: Callable, reads: Optional[int] = 1,
                        reach: Optional[Callable] = None,
                        floor: Optional[Callable] = None) -> None:
    if cid in COMBINATORS:
        if COMBINATORS[cid].step is step:
            return  # idempotent re-registration
        raise ValueError(f"combinator {cid!r} already registered")
    COMBINATORS[cid] = CombinatorDef(cid, step, reads, reach, floor)


def param(params: tuple, i: int, default: int = 0) -> int:
    return params[i] if 0 <= i < len(params) else default


def _script_stages(entries: tuple):
    """A ``Script``'s stages: the elements of each entry stage, closing
    at the last one (at stage 0, with none, for no entries)."""
    at = dict(entries)
    last = entries[-1][0] if entries else 0
    yield from map(at.get, range(last), repeat(()))
    return at.get(last, ())


def _column_stages(c: int, bound: Optional[int]):
    """``FullColumnOf(c)``'s stages: row s of column c at stage s."""
    for s in count():
        x = pair(c, s)
        # rows rise with the stage: once one reaches the bound, no later
        # one is <= it
        if bound is not None and x >= bound:
            return (x,)
        yield (x,)


def _no_stages():
    """The stages of a combinator id that names no construction, such
    as a retired one: nothing, at every stage."""
    while True:
        yield ()


# the stages of a closed cell: resuming it stops at once
_CLOSED = iter(())


@dataclass
class _Cell:
    # the generator of its term's stages; _CLOSED once its step closed
    stages: Iterator
    bound: Optional[int]
    # t -> the least element a stage after t can add, for a term whose
    # elements rise with the stage
    floor_at: Optional[Callable] = None
    order: list = field(default_factory=list)  # elements in entry order
    ends: list = field(default_factory=list)   # order[:ends[t]]: stage t
    # no element enters from this stage on: the last entry stage once
    # the evaluator has seen the cell closed, infinite until then
    settled: float = math.inf

    def end(self, s: int) -> int:
        """How many elements the cell holds at stage s, once advanced
        through s: past the stage it closed at, all of them."""
        ends = self.ends
        return ends[s] if s < len(ends) else len(self.order)

    def closed(self, s: int, below: Optional[int] = None) -> bool:
        """Whether no element new after stage s and <= below can enter
        the cell, below the cell's own bound when not given (any new
        element, when neither is): it has closed, or its floor past the
        last stage it reached lies above below and nothing <= below
        entered it after stage s.

        The stage matters because cells are shared: another query may
        have advanced the cell past s, and what it gained there is still
        new to a reader at stage s.  The evaluator sees that a step
        closed its cell when it next advances the cell, so a reader at
        the closing stage learns of it one stage later, unless the floor
        tells it at once."""
        if self.settled <= s:
            return True
        if below is None:
            below = self.bound
            if below is None:
                return False
        floor = self.floor()
        if floor is None or floor <= below:
            return False
        return all(x > below for x in self.order[self.end(s):])

    def floor(self) -> Optional[int]:
        """The least element a stage past the last one the cell reached
        can add, or None when its term declares no floor."""
        floor_at = self.floor_at
        return None if floor_at is None else floor_at(len(self.ends) - 1)


def step_budget() -> int:
    """``CELAB_STEP_BUDGET`` when set, else DEFAULT_BUDGET."""
    return int(os.environ.get("CELAB_STEP_BUDGET", DEFAULT_BUDGET))


class _Meter:
    """An evaluator's step count against its budget, and the stage loop
    that advances its cells: all that the generators of its cells hold
    of it, so that no evaluator is part of a reference cycle."""

    __slots__ = ("steps", "budget")

    def __init__(self, budget: int):
        self.steps = 0
        self.budget = budget

    def tick(self, n: int = 1) -> None:
        """Charge n primitive steps against the current top-level call."""
        self.steps += n
        if self.steps > self.budget:
            raise BudgetExceeded(
                f"exceeded {self.budget} primitive steps"
            )

    def read(self, cell: _Cell, s: int) -> list:
        """Step the cell through stage s, one resumption of its
        generator a stage, and give the elements that entered it at
        stage s, in entry order, as a new list: the stage loop of every
        query, and how a step reads an argument cell it was handed."""
        order, ends, stages = cell.order, cell.ends, cell.stages
        bound = cell.bound
        while len(ends) <= s:
            try:
                elems = next(stages)
            except StopIteration as stop:
                if stages is _CLOSED:
                    # its step closed the cell at its last stage: the
                    # ends stop there, and nothing enters from its last
                    # entry on
                    cell.settled = bisect_left(ends, len(order))
                    break
                # the step closed the cell with this stage's elements
                stages = cell.stages = _CLOSED
                elems = stop.value
            # one step for the stage, one per element given
            self.steps += 1 + len(elems)
            if self.steps > self.budget:
                self.tick(0)  # raises BudgetExceeded
            if bound is None:
                order.extend(elems)
            else:
                for x in elems:
                    if x <= bound:
                        order.append(x)
            ends.append(len(order))
        try:
            return order[ends[s - 1] if s else 0:ends[s]]
        except IndexError:
            return []  # the cell closed before stage s


class Evaluator:
    """Caching, budgeted evaluator for program terms.

    All evaluation is deterministic given (term, stage); the cache only
    memoizes it.  One evaluator instance must not be shared between
    threads.  The budget bounds the steps of each top-level call of
    ``approx``, ``upto``, ``fresh`` or ``entry_stage``, nested calls
    included.  A tick counts one stage of a cell, one element a step
    gives, and whatever further work its step charges.

    A top-level call that raises, as when the budget runs out, leaves no
    cell behind: a generator that raised can never be resumed, and one
    may have taken its arguments' new elements into its state before its
    own were stored, so the call drops every cell and the next one
    starts from an empty cache.  Only the terms decoded from program
    codes stay.
    """

    def __init__(self, budget: Optional[int] = None):
        if budget is None:
            budget = step_budget()
        self._meter = _Meter(budget)
        # (term, bound) -> the cell of its elements <= bound (all of
        # them, bound None); never keyed by an Indexed term
        self._cells: dict = {}
        self._decoded: dict = {}  # program code -> the term it decodes to
        self._depth = 0

    @property
    def budget(self) -> int:
        return self._meter.budget

    @budget.setter
    def budget(self, budget: int) -> None:
        self._meter.budget = budget

    @property
    def _steps(self) -> int:
        """The steps charged so far by the current top-level call, or by
        the last one once it has returned."""
        return self._meter.steps

    def _decoded_term(self, term: Term) -> Term:
        """The term an ``(indexed n)`` stands for, through any chain of
        them; each code is decoded once, since decoding a big code is
        dear."""
        while isinstance(term, Indexed):
            inner = self._decoded.get(term.code)
            if inner is None:
                from . import numbering
                inner = self._decoded[term.code] = numbering.decode(term.code)
            term = inner
        return term

    def _cell(self, term: Term, bound: Optional[int]) -> _Cell:
        """The cell of term under bound, made on first use."""
        cell = self._cells.get((term, bound))
        if cell is None:
            if isinstance(term, Indexed):
                return self._cell(self._decoded_term(term), bound)
            cell = self._cells[term, bound] = self._new_cell(term, bound)
        return cell

    def _new_cell(self, term: Term, bound: Optional[int]) -> _Cell:
        """An empty cell for term under bound, the generator of its
        stages made and a combinator's argument cells bound.  A
        combinator's step is looked up in ``COMBINATORS`` now, not at
        import, so a step registered or wrapped later is the one
        called."""
        if isinstance(term, Combinator):
            cdef = COMBINATORS.get(term.cid)
            if cdef is None:
                return _Cell(_no_stages(), bound)
            reads = len(term.args) if cdef.reads is None else cdef.reads
            reach = (None if bound is None or cdef.reach is None
                     else cdef.reach(bound))
            # a missing argument reads as the empty program
            args = (*term.args[:reads],
                    *(EMPTY,) * (reads - len(term.args)))
            args = tuple(self._cell(a, reach) for a in args)
            return _Cell(cdef.step(self._meter, args, term.params, bound),
                         bound,
                         None if cdef.floor is None
                         else cdef.floor(term.params))
        if isinstance(term, Script):
            return _Cell(_script_stages(term.entries), bound)
        if isinstance(term, FullColumnOf):
            c = term.c
            # row t + 1 is the least a stage after t adds
            return _Cell(_column_stages(c, bound), bound,
                         lambda t: pair(c, t + 1))
        raise TypeError(f"not a program term: {term!r}")

    def _run(self, term: Term, s: int,
             bound: Optional[int] = None) -> tuple:
        """Step the cell of term under bound through stage s; give it and
        its elements new at s.  The entry point of every public query: a
        top-level call starts a fresh step count, and one that raises
        drops every cell."""
        top = self._depth == 0
        if top:
            self._meter.steps = 0
        self._depth += 1
        try:
            cell = self._cell(term, bound)
            return cell, self._meter.read(cell, s)
        except BaseException:
            if top:
                self._cells.clear()
            raise
        finally:
            self._depth -= 1

    def _window(self, term: Term, s: int, bound: Optional[int]) -> frozenset:
        if s < 0:
            return frozenset()
        cell = self._run(term, s, bound)[0]
        # no copy of the order when the answer is all of it
        order, end = cell.order, cell.end(s)
        return frozenset(order if end == len(order) else order[:end])

    def approx(self, term: Term, s: int) -> frozenset:
        """The stage-s approximation of the set enumerated by term."""
        return self._window(term, s, None)

    def upto(self, term: Term, s: int, bound: int) -> frozenset:
        """``{x in approx(term, s) : x <= bound}``, computed only as far
        as the bound lets the term's constructions stop."""
        return self._window(term, s, bound)

    def fresh(self, term: Term, s: int,
              bound: Optional[int] = None) -> list:
        """The elements that first appear at stage s, in entry order:
        ``approx(term, s) - approx(term, s - 1)`` as a new list, only
        those <= bound when a bound is given."""
        if s < 0:
            return []
        return self._run(term, s, bound)[1]

    def cell_of(self, term: Term,
                bound: Optional[int] = None) -> Optional[_Cell]:
        """The cell that answers for term under bound, once made."""
        return self._cells.get((self._decoded_term(term), bound))

    def entry_stage(self, term: Term, x: int, s: int) -> Optional[int]:
        """First stage <= s at which x appeared, or None.

        It finds x's place in the cell's entry order by a scan, so it
        costs O(len(order)); nothing in the library calls it."""
        cell = self._run(term, s)[0]
        try:
            t = bisect_right(cell.ends, cell.order.index(x))
        except ValueError:  # x is not in the cell
            return None
        return t if t <= s else None


def columns_of(elems: Iterable) -> dict:
    """Split a set of pair codes into {column: frozenset(rows)}."""
    cols = {}
    for x in elems:
        c, k = unpair(x)
        cols.setdefault(c, set()).add(k)
    return {c: frozenset(v) for c, v in cols.items()}
