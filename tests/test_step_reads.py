"""Steps read the argument cells they are handed.

A combinator's cell is made with the cells of the arguments its step
reads, each under the bound its construction declares, and its step
reads them with ``ev.read``.  For every production combinator over every
closing argument, with and without a bound, and with its arguments
advanced ahead of it or not, the per-stage records (the new elements,
the ticks of the query that advanced the cell there, the stage it
settled at and whether it reads as closed) are pinned by one sha256 a
case in ``goldens/step_reads.json``.  The pins were recorded when each
step still looked its argument up and worked out its bound at every
stage, so they hold the binding to the same answers, ticks and
closings.  ``PYTHONPATH=src python tests/test_step_reads.py`` rewrites
them.

Once a cell is made, a query looks up only its own cell: the stage loop
resumes the cell's generator once a stage.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

import celab  # noqa: F401  (registers combinators)
from celab.programs import COMBINATORS, Combinator, Evaluator
from test_programs import CLOSING_ARGUMENTS, assert_cells_distinct, \
    cell_closed

S = 40
BOUNDS = (None, 20)
PRODUCTION = sorted(COMBINATORS)
GOLDEN = Path(__file__).parent / "goldens" / "step_reads.json"


def _term(cid, a):
    args = (a, CLOSING_ARGUMENTS["script"], a) if cid == "level_columns" \
        else (a,)
    return Combinator(cid, args, (1, 2) if cid == "from_descriptor" else ())


def _key(cid, name, bound, ahead):
    return f"{cid}/{name}/{bound}/{'ahead' if ahead else 'lockstep'}"


def _digest(cid, name, bound, ahead) -> str:
    """The sha256 of the per-stage records: the cell's new elements, the
    ticks of the query that advanced it there, the stage it settled at
    (None while open) and whether it reads as closed.  With ``ahead``,
    the arguments' cells under every bound a step can read them with
    have first been advanced past every stage asked."""
    term = _term(cid, CLOSING_ARGUMENTS[name])
    ev, got = Evaluator(), []
    if ahead:
        for a in term.args:
            ev.approx(a, S)
            for b in range(S + 1):
                ev.upto(a, S, b)
    for s in range(S + 1):
        new = ev.fresh(term, s, bound)
        settled = ev.cell_of(term, bound).settled
        got.append([new, ev._steps, None if settled == math.inf else settled,
                    cell_closed(ev, term, s, bound)])
    assert_cells_distinct(ev)
    return hashlib.sha256(json.dumps(got).encode()).hexdigest()


CASES = [(cid, name, bound, ahead) for cid in PRODUCTION
         for name in sorted(CLOSING_ARGUMENTS) for bound in BOUNDS
         for ahead in (False, True)]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(pinned):
    assert set(pinned) == {_key(*case) for case in CASES}


@pytest.mark.parametrize("ahead", [False, True])
@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", sorted(CLOSING_ARGUMENTS))
@pytest.mark.parametrize("cid", PRODUCTION)
def test_a_step_reads_as_pinned(pinned, cid, name, bound, ahead):
    key = _key(cid, name, bound, ahead)
    assert _digest(cid, name, bound, ahead) == pinned.get(key), key


class CountingEvaluator(Evaluator):
    """An evaluator that counts its lookups of a term's cell."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def _cell(self, term, bound):
        self.lookups += 1
        return super()._cell(term, bound)


@pytest.mark.parametrize("name", sorted(CLOSING_ARGUMENTS))
@pytest.mark.parametrize("cid", PRODUCTION)
def test_each_query_after_the_first_makes_one_lookup(cid, name):
    """The property the stage loop rests on: the first query
    makes the cell and the cells of the arguments its step reads, and
    every later query looks up its own cell only."""
    term = _term(cid, CLOSING_ARGUMENTS[name])
    for bound in BOUNDS:
        ev = CountingEvaluator()
        ev.fresh(term, 0, bound)
        assert ev.lookups == 1 + (0 if cid == "from_descriptor"
                                  else len(term.args))
        for s in range(1, S + 1):
            ev.lookups = 0
            ev.fresh(term, s, bound)
            assert ev.lookups == 1, f"bound {bound}, stage {s}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {_key(*case): _digest(*case) for case in CASES},
        indent=1, sort_keys=True) + "\n")
