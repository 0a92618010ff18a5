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
``s`` by construction and re-evaluation is cheap.  ``fresh(P, s)``
gives the elements that first appear at stage ``s``; constructions
react to those instead of rescanning their whole argument at every
stage (semi-naive evaluation: fire only on new facts).  A budget on
primitive steps turns runaway simulations into a ``BudgetExceeded``
error instead of a hang.
"""

from __future__ import annotations

import os
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

    ``step(ev, args, params, s, state)`` is called once per stage, in
    order, and returns the elements entering the output at stage ``s``
    as a list, tuple or set.  It may query argument programs only at
    stages <= s.

    A step should react to ``ev.fresh(arg, s)``, the argument's new
    elements, and keep what it needs of earlier ones in ``state``,
    rather than rescan ``ev.approx(arg, s)`` at every stage.  The
    evaluator charges one step per stage and one per element returned;
    a step charges ``ev.tick()`` for its own further work, once per
    stage or once per new element it handles, never per element
    rescanned.
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


def arg(args: tuple, i: int) -> Term:
    """The i-th argument of a combinator, defaulting to the empty program.

    Decoded combinator terms can carry any number of arguments, so the
    constructions index their arguments through this total accessor.
    """
    return args[i] if 0 <= i < len(args) else EMPTY


def param(params: tuple, i: int, default: int = 0) -> int:
    return params[i] if 0 <= i < len(params) else default


@dataclass
class _Cell:
    state: dict = field(default_factory=dict)
    entries: dict = field(default_factory=dict)  # element -> first stage
    order: list = field(default_factory=list)    # elements in entry order
    ends: list = field(default_factory=list)     # order[:ends[t]]: stage t


class Evaluator:
    """Caching, budgeted evaluator for program terms.

    All evaluation is deterministic given (term, stage); the cache only
    memoizes it.  One evaluator instance must not be shared between
    threads.  The budget bounds the steps of each top-level call of
    ``approx``, ``fresh`` or ``entry_stage``, nested calls included.
    """

    def __init__(self, budget: Optional[int] = None):
        if budget is None:
            budget = int(os.environ.get("CELAB_STEP_BUDGET", DEFAULT_BUDGET))
        self.budget = budget
        self._cells: dict = {}
        self._steps = 0
        self._depth = 0

    def tick(self, n: int = 1) -> None:
        """Charge n primitive steps against the current top-level call."""
        self._steps += n
        if self._steps > self.budget:
            raise BudgetExceeded(
                f"exceeded {self.budget} primitive steps"
            )

    def _stage_elements(self, term: Term, s: int, cell: _Cell) -> Iterable:
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
            return cdef.step(self, term.args, term.params, s, cell.state)
        if isinstance(term, Indexed):
            from . import numbering
            inner = cell.state.get("inner")
            if inner is None:
                inner = numbering.decode(term.code)
                cell.state["inner"] = inner
            return self.fresh(inner, s)
        raise TypeError(f"not a program term: {term!r}")

    def _advance(self, term: Term, s: int) -> _Cell:
        cell = self._cells.get(term)
        if cell is None:
            cell = self._cells[term] = _Cell()
        entries, order, ends = cell.entries, cell.order, cell.ends
        append = order.append
        while len(ends) <= s:
            t = len(ends)
            elems = self._stage_elements(term, t, cell)
            # one step for the stage, one per element emitted
            self.tick(1 + len(elems))
            for x in elems:
                if x not in entries:
                    entries[x] = t
                    append(x)
            ends.append(len(order))
        return cell

    def _run(self, term: Term, s: int) -> _Cell:
        """Advance term through stage s.  The entry point of every
        public query: a top-level call starts a fresh step count."""
        if self._depth == 0:
            self._steps = 0
        self._depth += 1
        try:
            return self._advance(term, s)
        finally:
            self._depth -= 1

    def approx(self, term: Term, s: int) -> frozenset:
        """The stage-s approximation of the set enumerated by term."""
        if s < 0:
            return frozenset()
        cell = self._run(term, s)
        return frozenset(cell.order[:cell.ends[s]])

    def fresh(self, term: Term, s: int) -> list:
        """The elements that first appear at stage s, in entry order:
        ``approx(term, s) - approx(term, s - 1)`` as a new list."""
        if s < 0:
            return []
        cell = self._run(term, s)
        ends = cell.ends
        return cell.order[ends[s - 1] if s else 0:ends[s]]

    def entry_stage(self, term: Term, x: int, s: int) -> Optional[int]:
        """First stage <= s at which x appeared, or None."""
        t = self._run(term, s).entries.get(x)
        return t if t is not None and t <= s else None


def columns_of(elems: Iterable) -> dict:
    """Split a set of pair codes into {column: frozenset(rows)}."""
    cols = {}
    for x in elems:
        c, k = unpair(x)
        cols.setdefault(c, set()).add(k)
    return {c: frozenset(v) for c, v in cols.items()}
