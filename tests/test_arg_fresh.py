"""Steps read their argument through a kept cell (``arg_fresh``).

``arg_fresh`` keeps the cell of a step's argument in the step's state
and advances it in place, where ``ev.fresh`` looks the term up at every
stage.  Every production combinator over every closing argument, with
and without a bound, must answer, tick and close exactly as the same
step reading through ``ev.fresh``.  Once a cell has taken its first
stage, its step makes no further lookup of its argument: the stage loop
runs one call of the step a stage.
"""

import sys

import pytest

import celab  # noqa: F401  (registers combinators)
from celab import programs
from celab.programs import COMBINATORS, Combinator, Evaluator, arg_closed
from test_programs import CLOSING_ARGUMENTS, assert_cells_distinct

S = 40
BOUNDS = (None, 20)
PRODUCTION = sorted(COMBINATORS)


def _term(cid, a):
    args = (a, CLOSING_ARGUMENTS["script"], a) if cid == "level_columns" \
        else (a,)
    return Combinator(cid, args, (1, 2) if cid == "from_descriptor" else ())


def _through_fresh(ev, state, term, s, bound=None):
    return ev.fresh(term, s, bound)


def _read_through_fresh(monkeypatch):
    """Make every step read its argument through ``ev.fresh``."""
    kept = programs.arg_fresh
    patched = 0
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("celab.")
                and getattr(mod, "arg_fresh", None) is kept):
            monkeypatch.setattr(mod, "arg_fresh", _through_fresh)
            patched += 1
    # programs and the three modules of steps that read an argument
    assert patched == 4


def _stages(term, bound, ahead):
    """Per stage: the cell's new elements, the ticks of the query that
    advanced it there, the stage it settled at (inf while open) and
    whether it reads as closed.  With ``ahead``, the arguments' cells
    under every bound a step can read them with have first been advanced
    past every stage asked."""
    ev, got = Evaluator(), []
    if ahead:
        for a in term.args:
            ev.approx(a, S)
            for b in range(S + 1):
                ev.upto(a, S, b)
    for s in range(S + 1):
        new = ev.fresh(term, s, bound)
        got.append((new, ev._steps, ev.cell_of(term, bound).settled,
                    arg_closed(ev, {}, term, s, bound)))
    assert_cells_distinct(ev)
    return got


@pytest.mark.parametrize("ahead", [False, True])
@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", sorted(CLOSING_ARGUMENTS))
@pytest.mark.parametrize("cid", PRODUCTION)
def test_a_kept_argument_cell_answers_as_fresh_does(monkeypatch, cid, name,
                                                    bound, ahead):
    term = _term(cid, CLOSING_ARGUMENTS[name])
    kept = _stages(term, bound, ahead)
    with monkeypatch.context() as m:
        _read_through_fresh(m)
        want = _stages(term, bound, ahead)
    assert kept == want


class CountingEvaluator(Evaluator):
    """An evaluator that counts the ``fresh`` calls made inside a query
    (nested) and outside one (top)."""

    def __init__(self):
        super().__init__()
        self.nested = self.top = 0

    def fresh(self, term, s, bound=None):
        if self._depth:
            self.nested += 1
        else:
            self.top += 1
        return super().fresh(term, s, bound)


@pytest.mark.parametrize("name", sorted(CLOSING_ARGUMENTS))
@pytest.mark.parametrize("cid", PRODUCTION)
def test_no_lookup_after_the_first_stage(cid, name):
    """The property the one-call-a-stage loop rests on: after its first
    stage a cell reads its arguments through the cells it kept."""
    term = _term(cid, CLOSING_ARGUMENTS[name])
    for bound in BOUNDS:
        ev = CountingEvaluator()
        ev.fresh(term, 0, bound)
        assert ev.nested == (0 if cid == "from_descriptor"
                             else len(term.args))
        ev.nested = 0
        for s in range(1, S + 1):
            ev.fresh(term, s, bound)
        assert ev.nested == 0, f"bound {bound}"


def _direct(ev, cid, a):
    """A step called directly, outside any query, stage by stage."""
    term = _term(cid, a)
    step, state, got = COMBINATORS[cid].step, {}, []
    for s in range(S + 1):
        out = step(ev, term.args, term.params, s, state)
        got.append((list(out), ev._steps))
    return got


@pytest.mark.parametrize("cid", PRODUCTION)
def test_a_step_called_directly_reads_through_top_level_fresh(
        monkeypatch, cid):
    """Outside a query every read is a top-level ``fresh``: it starts
    its own step count, and the step gives what it gives reading through
    ``ev.fresh``."""
    a = CLOSING_ARGUMENTS["script"]
    ev = CountingEvaluator()
    got = _direct(ev, cid, a)
    reads = 0 if cid == "from_descriptor" else len(_term(cid, a).args)
    assert (ev.top, ev.nested) == ((S + 1) * reads, 0)
    with monkeypatch.context() as m:
        _read_through_fresh(m)
        assert got == _direct(Evaluator(), cid, a)
