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
``s`` by construction and re-evaluation is cheap.  A set of the same
elements answers membership.  ``fresh(P, s)`` gives the elements that
first appear at stage ``s``; constructions react to those instead of
rescanning their whole argument at every stage (semi-naive evaluation:
fire only on new facts).  A budget on primitive steps turns runaway
simulations into a ``BudgetExceeded`` error instead of a hang.

The evaluator keeps one cell per (term, bound), the bound None for an
unbounded one, and an ``(indexed n)`` reads the cell of the term that n
decodes to.  Every term kind has a step of one signature (a ``Script``
and ``FullColumnOf`` too), and a cell resolves its term's step when it
is made, so advancing a cell a stage is one call of its step.  A step
reads its argument through ``arg_fresh``, which keeps the argument's
cell in the step's state after the first stage and advances that cell
in place: past its first stage a query makes no lookup of a term.  A
caller that reads a program only on ``[0, bound]`` asks
``upto(P, s, bound)``, and a step reads its argument under a bound
(``arg_fresh(ev, state, arg, s, bound)``): the bound is pushed down
through the term (the demand, or "magic sets", transformation of
Datalog), so constructions stop computing what the caller cannot see.
Every step is handed the bound of its cell and may ignore it, because
the evaluator drops what a step returns above it; a step must never
miss an element ``<= bound``.  A construction that needs all of its
argument reads it unbounded.

A cell that can gain nothing more is *closed*: from the stage it closes
at, no later stage can give it an element that is new and ``<= bound``
(any new element, for an unbounded cell).  The evaluator answers for a
closed cell at any later stage from what it holds at the stage it
closed at: it calls no step, charges no step and stores nothing per
later stage, so a query past the point where its demand is met, such
as the harness's stability re-check, costs the same at stage 10^10 as
at the next stage.  Once the demanded part of a fixpoint is complete,
evaluation stops.  A ``Script`` closes at its last entry stage,
``FullColumnOf`` once its rows reach the bound, and a construction when
its step calls ``close(state)``.

A term whose elements rise with the stage also reports a *floor*: the
least element a stage after a given one can still add.  A reader that
needs only the elements below some threshold, such as a saturation
past its bound, then learns that the unbounded cell it reads can give
it nothing more, though that cell never closes.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from .pairing import pair, unpair

DEFAULT_BUDGET = 10 ** 6


class BudgetExceeded(Exception):
    """Raised when an evaluator call exceeds the configured step ceiling."""


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
class CombinatorDef:
    """A registered construction.

    ``step(ev, args, params, s, state, bound=None)`` is called once per
    stage, in order, for the cell of its term under bound (None:
    unbounded), and returns the elements entering that cell at stage
    ``s`` as a list, tuple or set.  It may query argument programs only
    at stages <= s.  The cell looks the step up in ``COMBINATORS`` once,
    when it is made, and the evaluator's stage loop then calls it
    directly.

    A step reads its argument's new elements at stage s through
    ``arg_fresh(ev, state, arg, s, bound)``, which answers as
    ``ev.fresh(arg, s, bound)`` does but keeps the argument's cell in
    ``state`` and advances it in place.  It keeps what it needs of
    earlier elements in ``state``, rather than rescan
    ``ev.approx(arg, s)`` at every stage.  The evaluator charges one
    step per stage and one per element returned; a step charges
    ``ev.tick()`` for its own further work, once per stage or once per
    new element it handles, never per element rescanned.

    A step may ignore the bound, because the evaluator drops what it
    returns above the bound: under a bound b it must return every
    element <= b that the unbounded step returns, in the same order, and
    may return more.  A step that uses the bound reads its argument
    under one that keeps every argument element an output <= b can come
    from, and stops generators whose next output lies past b.  A step
    that needs all of its argument reads it unbounded.

    A step that knows no later stage can give a new element ``<= b``
    (any new element, unbounded) calls ``close(state)``, which sets the
    reserved state key ``"closed"``; the evaluator then calls it no
    more.  It may close only after it has advanced every argument it
    reads to stage s, and it learns that an argument can give nothing
    more from ``arg_closed(ev, state, arg, s, bound)``, asked with the
    bound it reads the argument under, or nothing more ``<= below`` from
    ``arg_closed(ev, state, arg, s, bound, below)``.

    A step whose elements rise with the stage may set, once, the
    reserved state key ``"floor"`` to a function of the stage t: the
    least element that a stage after t can still add.  A cell without
    one never closes for a reader before its step closes it.
    """

    cid: str
    step: Callable


COMBINATORS: dict = {}


def register_combinator(cid: str, step: Callable) -> None:
    if cid in COMBINATORS:
        if COMBINATORS[cid].step is step:
            return  # idempotent re-registration
        raise ValueError(f"combinator {cid!r} already registered")
    COMBINATORS[cid] = CombinatorDef(cid, step)


def close(state: dict) -> None:
    """Declare, from a step, that its cell is closed after this stage."""
    state["closed"] = True


def arg_closed(ev: Evaluator, state: dict, term: Term, s: int,
               bound: Optional[int] = None,
               below: Optional[int] = None) -> bool:
    """Whether nothing new after stage s and ``<= bound`` (any new
    element, without a bound) can enter the cell a step reads of term
    under bound; with ``below``, nothing new ``<= below``.

    A step asks at every stage, and most arguments never close, so the
    argument's cell is looked up once, after the step's first read of
    it, and kept in the reserved state key ``"arg_cell"``, where
    ``arg_fresh`` keeps it too."""
    cell = state.get("arg_cell")
    if cell is None:
        cell = ev.cell_of(term, bound)
        if cell is None:
            return False
        state["arg_cell"] = cell
    if below is None:
        below = bound
    if below is None:
        return cell.settled <= s  # without a call: most readers ask this
    return cell.closed(s, below)


def arg_fresh(ev: Evaluator, state: dict, term: Term, s: int,
              bound: Optional[int] = None) -> list:
    """``ev.fresh(term, s, bound)``, for the argument a step reads.

    The first call inside a query asks ``ev.fresh`` and keeps the
    argument's cell in the reserved state key ``"arg_cell"``, the key
    ``arg_closed`` keeps it in; later calls advance that cell in place,
    with no lookup of the term.  A step that reads several arguments
    hands each one its own dict as ``state``.  Outside a query (a step
    called directly) or on an evaluator that shows no cells, every call
    asks ``ev.fresh``."""
    cell = state.get("arg_cell")
    if cell is None or not ev._depth:
        new = ev.fresh(term, s, bound)
        if cell is None and ev._depth:
            cell = ev.cell_of(term, bound)
            if cell is not None:
                state["arg_cell"] = cell
        return new
    ev._advance_cell(cell, s)
    ends = cell.ends
    try:
        return cell.order[ends[s - 1] if s else 0:ends[s]]
    except IndexError:
        return []  # the cell closed before stage s


def arg(args: tuple, i: int) -> Term:
    """The i-th argument of a combinator, defaulting to the empty program.

    Decoded combinator terms can carry any number of arguments, so the
    constructions index their arguments through this total accessor.
    """
    return args[i] if 0 <= i < len(args) else EMPTY


def param(params: tuple, i: int, default: int = 0) -> int:
    return params[i] if 0 <= i < len(params) else default


def _step_script(ev, entries: dict, last: int, s: int, state: dict,
                 bound: Optional[int] = None):
    """A ``Script``'s step: ``entries`` maps each entry stage to its
    elements, and ``last`` is the last entry stage (-1: none)."""
    if s >= last:
        close(state)
    return entries.get(s, ())


def _step_full_column(ev, c: int, params, s: int, state: dict,
                      bound: Optional[int] = None):
    """``FullColumnOf(c)``'s step: row s of column c."""
    x = pair(c, s)
    # rows rise with the stage: once one reaches the bound, no later
    # one is <= it
    if bound is not None and x >= bound:
        close(state)
    return (x,)


def _step_nothing(ev, args, params, s, state, bound=None):
    """The step of a combinator id that names no construction, such as
    a retired one."""
    return ()


@dataclass
class _Cell:
    # the term's step and what it is called with, resolved when the
    # cell is made: step(ev, args, params, t, state, bound)
    step: Callable
    args: object
    params: object
    bound: Optional[int]
    state: dict = field(default_factory=dict)
    seen: set = field(default_factory=set)     # the elements of order
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
        """Whether no element new after stage s and <= below (any new
        element, without one) can enter the cell: it has closed, or its
        floor past the last stage it reached lies above below and
        nothing <= below entered it after stage s.

        The stage matters because cells are shared: another query may
        have advanced the cell past s, and what it gained there is still
        new to a reader at stage s.  The evaluator sees that a step
        closed its cell when it next advances the cell, so a reader at
        the closing stage learns of it one stage later, unless the floor
        tells it at once."""
        if self.settled <= s:
            return True
        if below is None:
            return False
        floor = self.floor()
        if floor is None or floor <= below:
            return False
        return all(x > below for x in self.order[self.end(s):])

    def floor(self) -> Optional[int]:
        """The least element a stage past the last one the cell reached
        can add, or None when its step reports no floor."""
        floor = self.state.get("floor")
        return None if floor is None else floor(len(self.ends) - 1)


def _new_cell(term: Term, bound: Optional[int]) -> _Cell:
    """An empty cell for term under bound, its step resolved.  A
    combinator's step is looked up in ``COMBINATORS`` now, not at
    import, so a step registered or wrapped later is the one called."""
    if isinstance(term, Combinator):
        cdef = COMBINATORS.get(term.cid)
        return _Cell(_step_nothing if cdef is None else cdef.step,
                     term.args, term.params, bound)
    if isinstance(term, Script):
        entries = term.entries
        return _Cell(_step_script, dict(entries),
                     entries[-1][0] if entries else -1, bound)
    if isinstance(term, FullColumnOf):
        cell = _Cell(_step_full_column, term.c, (), bound)
        # row t + 1 is the least a stage after t adds
        c = term.c
        cell.state["floor"] = lambda t: pair(c, t + 1)
        return cell
    raise TypeError(f"not a program term: {term!r}")


def step_budget() -> int:
    """``CELAB_STEP_BUDGET`` when set, else DEFAULT_BUDGET."""
    return int(os.environ.get("CELAB_STEP_BUDGET", DEFAULT_BUDGET))


class Evaluator:
    """Caching, budgeted evaluator for program terms.

    All evaluation is deterministic given (term, stage); the cache only
    memoizes it.  One evaluator instance must not be shared between
    threads.  The budget bounds the steps of each top-level call of
    ``approx``, ``upto``, ``fresh`` or ``entry_stage``, nested calls
    included.  A tick counts one stage of a cell, one element a step
    returns, and whatever further work its step charges.

    A top-level call that raises, as when the budget runs out, leaves no
    cell behind: a step may have taken its arguments' new elements into
    its state and raised before its own were stored, so the call drops
    every cell and the next one starts from an empty cache.  Only the
    terms decoded from program codes stay.
    """

    def __init__(self, budget: Optional[int] = None):
        if budget is None:
            budget = step_budget()
        self.budget = budget
        # (term, bound) -> the cell of its elements <= bound (all of
        # them, bound None); never keyed by an Indexed term
        self._cells: dict = {}
        self._decoded: dict = {}  # program code -> the term it decodes to
        self._steps = 0
        self._depth = 0

    def tick(self, n: int = 1) -> None:
        """Charge n primitive steps against the current top-level call."""
        self._steps += n
        if self._steps > self.budget:
            raise BudgetExceeded(
                f"exceeded {self.budget} primitive steps"
            )

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

    def _advance(self, term: Term, s: int, bound: Optional[int]) -> _Cell:
        cell = self._cells.get((term, bound))
        if cell is None:
            if isinstance(term, Indexed):
                return self._advance(self._decoded_term(term), s, bound)
            cell = self._cells[term, bound] = _new_cell(term, bound)
        self._advance_cell(cell, s)
        return cell

    def _advance_cell(self, cell: _Cell, s: int) -> None:
        """Step the cell through stage s: one call of its step a stage."""
        state, seen, order, ends = cell.state, cell.seen, cell.order, cell.ends
        step, args, params = cell.step, cell.args, cell.params
        bound = cell.bound
        while len(ends) <= s:
            if "closed" in state:
                # its step closed the cell at its last stage: the ends
                # stop there, and nothing enters from its last entry on
                cell.settled = bisect_left(ends, len(order))
                break
            t = len(ends)
            elems = step(self, args, params, t, state, bound)
            # one step for the stage, one per element emitted
            self._steps += 1 + len(elems)
            if self._steps > self.budget:
                self.tick(0)  # raises BudgetExceeded
            if bound is None:
                for x in elems:
                    if x not in seen:
                        seen.add(x)
                        order.append(x)
            else:
                for x in elems:
                    if x <= bound and x not in seen:
                        seen.add(x)
                        order.append(x)
            ends.append(len(order))

    def _run(self, term: Term, s: int,
             bound: Optional[int] = None) -> _Cell:
        """Advance the cell of term under bound through stage s.  The
        entry point of every public query: a top-level call starts a
        fresh step count, and one that raises drops every cell."""
        top = self._depth == 0
        if top:
            self._steps = 0
        self._depth += 1
        try:
            return self._advance(term, s, bound)
        except BaseException:
            if top:
                self._cells.clear()
            raise
        finally:
            self._depth -= 1

    def approx(self, term: Term, s: int) -> frozenset:
        """The stage-s approximation of the set enumerated by term."""
        if s < 0:
            return frozenset()
        cell = self._run(term, s)
        # no copy of the order when the answer is all of it
        order, end = cell.order, cell.end(s)
        return frozenset(order if end == len(order) else order[:end])

    def upto(self, term: Term, s: int, bound: int) -> frozenset:
        """``{x in approx(term, s) : x <= bound}``, computed only as far
        as the bound lets the term's constructions stop."""
        if s < 0:
            return frozenset()
        cell = self._run(term, s, bound)
        order, end = cell.order, cell.end(s)
        return frozenset(order if end == len(order) else order[:end])

    def fresh(self, term: Term, s: int,
              bound: Optional[int] = None) -> list:
        """The elements that first appear at stage s, in entry order:
        ``approx(term, s) - approx(term, s - 1)`` as a new list, only
        those <= bound when a bound is given."""
        if s < 0:
            return []
        # asked by a step, inside a query: no top-level bookkeeping
        cell = (self._advance(term, s, bound) if self._depth
                else self._run(term, s, bound))
        ends = cell.ends
        try:
            return cell.order[ends[s - 1] if s else 0:ends[s]]
        except IndexError:
            return []  # the cell closed before stage s

    def cell_of(self, term: Term,
                bound: Optional[int] = None) -> Optional[_Cell]:
        """The cell that answers for term under bound, once made."""
        return self._cells.get((self._decoded_term(term), bound))

    def entry_stage(self, term: Term, x: int, s: int) -> Optional[int]:
        """First stage <= s at which x appeared, or None.

        It finds x's place in the cell's entry order by a scan, so it
        costs O(len(order)); nothing in the library calls it."""
        cell = self._run(term, s)
        if x not in cell.seen:
            return None
        t = bisect_right(cell.ends, cell.order.index(x))
        return t if t <= s else None


def columns_of(elems: Iterable) -> dict:
    """Split a set of pair codes into {column: frozenset(rows)}."""
    cols = {}
    for x in elems:
        c, k = unpair(x)
        cols.setdefault(c, set()).add(k)
    return {c: frozenset(v) for c, v in cols.items()}
