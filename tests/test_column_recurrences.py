"""The column constructions against their per-element formulas.

The seven steps of ``reductions.benchmark`` keep last stage's codes and
advance them by the pairing identities.  Each reference below computes
every code of every stage from scratch, one ``pair`` per element, as the
steps did before.  Like the steps, each is a generator of its cell's
stages, closing by returning its last stage.  Both run on their own
evaluator over the same drawn argument and bound; at every stage they
must give the same list, in the same order, charge the same ticks and
close at the same stage.
The last test checks the order of the binary strings that
``prefixed_columns`` and ``prefix_family`` read.
"""

from bisect import bisect_right
from contextlib import contextmanager
from itertools import count
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import celab  # noqa: F401  (registers combinators)
from celab.descriptors import (Cofinite, ColumnsBySet, Finite, Progression,
                               block_bounds, block_words,
                               compile_descriptor)
from celab.pairing import pair, unpair
from celab.programs import (COMBINATORS, Combinator, Evaluator,
                            FullColumnOf, param, script)
from celab.reductions.benchmark import _column_reach, string_of

S = 40


def _ref_lines(ev, a, bound, code):
    """Lines started at each new element x of a, the stage-s code of the
    line of x entered at stage t being code(x, s - t)."""
    entered = []
    for s in count():
        entered.extend((x, s) for x in ev.read(a, s))
        ev.tick(len(entered))
        out = [code(x, s - t) for x, t in entered]
        if bound is not None:
            entered = [e for e, x in zip(entered, out) if x <= bound]
        if not entered and a.closed(s):
            return out
        yield out


def _ref_expand_columns(ev, args, params, bound=None):
    return _ref_lines(ev, args[0], bound, pair)


def _ref_replicate_columns(ev, args, params, bound=None):
    return _ref_lines(ev, args[0], bound, lambda k, c: pair(c, k))


def _ref_tail_columns(ev, args, params, bound=None):
    a = args[0]
    for s in count():
        out = []
        for x in ev.read(a, s):
            n = x + 1 if bound is None else min(
                x + 1, _column_reach(bound - x) - x + 2)
            ev.tick(n)
            out += [pair(c, x) for c in range(n)]
        if a.closed(s):
            return out
        yield out


def _ref_progressions(ev, a, starts_of):
    gens = []
    for s in count():
        gens += [(s, *g) for g in starts_of(ev.read(a, s))]
        ev.tick(len(gens))
        out = [x for s0, lo, end, step in gens
               if (x := lo + (s - s0) * step) < end]
        gens = [g for g in gens if g[1] + (s - g[0]) * g[3] < g[2]]
        if not gens and a.closed(s):
            return out
        yield out


def _ref_block_union(ev, args, params, bound=None):
    kind = "weight" if param(params, 0) == 1 else "dyadic"

    def starts_of(new):
        for n in new:
            ev.tick(block_words(kind, n))
            lo, hi = block_bounds(kind, n)
            yield lo, hi if bound is None else min(hi, bound + 1), 1
    return _ref_progressions(ev, args[0], starts_of)


def _ref_scaled_blocks(ev, args, params, bound=None):
    def starts_of(new):
        for z in new:
            c, k = unpair(z)
            step = 1 << (c + 1)
            lo = (1 << c) - 1
            hi = lo + (step << (k + 1))
            ev.tick((lo + (step << k)).bit_length() >> 6)
            yield (lo + (step << k),
                   hi if bound is None else min(hi, bound + 1), step)
    return _ref_progressions(ev, args[0], starts_of)


def _ref_prefixed_columns(ev, args, params, bound=None):
    a = args[0]
    active, rows = {}, {}
    for s in count():
        out = []
        for z in ev.read(a, s):
            n, k = unpair(z)
            rows.setdefault(n, []).append(k)
            gens = active.get(n)
            if gens:
                cols = [col for col, slen in gens if k >= slen]
                ev.tick(len(cols))
                out += [pair(col, n + 1 + k) for col in cols]
        closed = (bound is not None and pair(s + 1, 0) > bound
                  and a.closed(s))
        if bound is None or pair(s, 0) <= bound:
            n, m = unpair(s)
            word = string_of(m)
            active.setdefault(n, []).append((s, len(word)))
            ys = [*range(n), *(n + 1 + i for i, b in enumerate(word) if b),
                  *[n + 1 + k for k in rows.get(n, ()) if k >= len(word)]]
            ev.tick(len(ys))
            out += [pair(s, y) for y in ys]
        if closed:
            return out
        yield out


def _ref_prefix_family(ev, args, params, bound=None):
    a = args[0]
    lens, known = [], []
    for s in count():
        out = []
        for x in ev.read(a, s):
            known.append(x)
            n = bisect_right(lens, x)
            if n:
                ev.tick(n)
                out += [pair(c, x) for c in range(n)]
        closed = (bound is not None and pair(s + 1, 0) > bound
                  and a.closed(s))
        if bound is None or pair(s, 0) <= bound:
            word = string_of(s)
            lens.append(len(word))
            ys = [*(i for i, b in enumerate(word) if b),
                  *[x for x in known if x >= len(word)]]
            ev.tick(len(ys))
            out += [pair(s, y) for y in ys]
        if closed:
            return out
        yield out


REFERENCES = {
    "block_union": _ref_block_union,
    "expand_columns": _ref_expand_columns,
    "prefix_family": _ref_prefix_family,
    "prefixed_columns": _ref_prefixed_columns,
    "replicate_columns": _ref_replicate_columns,
    "scaled_blocks": _ref_scaled_blocks,
    "tail_columns": _ref_tail_columns,
}

# the largest script element per construction: a row of tail_columns
# holds x + 1 codes, and weight block n spans 3^n values
TOP = {"tail_columns": 3000, "block_union": 400}


def _recorded(step, log):
    """The step, logging what each stage gives and whether it closed
    there."""
    def rec(ev, args, params, bound=None):
        stages = step(ev, args, params, bound)
        for s in count():
            try:
                out = next(stages)
            except StopIteration as stop:
                log.append((s, list(stop.value), True))
                return stop.value
            log.append((s, list(out), False))
            yield out
    return rec


@contextmanager
def _registered(cid, step, like):
    """Register a test-only combinator for the duration of a test, its
    arguments read as the production combinator ``like`` reads them."""
    COMBINATORS[cid] = replace(COMBINATORS[like], cid=cid, step=step)
    try:
        yield
    finally:
        del COMBINATORS[cid]


def _run(cid, step, like, a, params, bound):
    """Per stage: what the step returned, whether it closed, and the
    ticks of the call that advanced its cell to that stage."""
    log, ticks = [], []
    ev = Evaluator()
    term = Combinator(cid, (a,), params)
    with _registered(cid, _recorded(step, log), like):
        for s in range(S + 1):
            if bound is None:
                ev.approx(term, s)
            else:
                ev.upto(term, s, bound)
            ticks.append(ev._steps)
    return log, ticks


def _scripts(top):
    elems = st.integers(0, 40) | st.integers(0, top)
    # several elements a stage, and entries up to the last stage
    return st.lists(st.tuples(st.integers(0, S), st.sets(elems, max_size=5)),
                    max_size=8).map(script)


_DESCRIPTORS = [
    Progression(0, 1), Progression(2, 3), Finite(frozenset({0, 4, 21})),
    Cofinite(frozenset({1, 2, 5})),
    ColumnsBySet(Progression(0, 2), Progression(1, 3), Finite({0, 4})),
]


def _arguments(top):
    return (_scripts(top)
            | st.builds(FullColumnOf, st.integers(0, 6))
            | st.builds(lambda d, delay: compile_descriptor(d, delay).term,
                        st.sampled_from(_DESCRIPTORS), st.integers(0, 3)))


@pytest.mark.parametrize("cid", sorted(REFERENCES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_step_matches_its_per_element_formula(cid, data):
    params = data.draw(st.sampled_from([(0,), (1,)])) \
        if cid == "block_union" else ()
    top = 10 ** 6 if params == (0,) else TOP.get(cid, 10 ** 6)
    a = data.draw(_arguments(top))
    bound = data.draw(st.none() | st.integers(0, 300))
    want = _run("ref", REFERENCES[cid], cid, a, params, bound)
    got = _run("real", COMBINATORS[cid].step, cid, a, params, bound)
    assert got == want


def test_strings_are_ordered_by_length_then_value():
    words = [string_of(m) for m in range(15)]
    assert words[0] == ()
    for a, b in zip(words, words[1:]):
        assert (len(a), a) < (len(b), b)
    assert len(set(words)) == 15
