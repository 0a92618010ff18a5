"""Acceptance gate: ten exact, desk-scale criteria, one test each.

Every check is discrete (no tolerances).  Each test prints a single
PASS line on success; a failure carries the offending detail in the
assertion message.  Criteria 1 and 10 pin the seed-1 report of every
shipped reduction and of every registered mutant byte for byte against
``tests/goldens/``; ``PYTHONPATH=src python tests/test_acceptance.py``
rewrites those goldens.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import celab  # noqa: F401
from celab.descriptors import (ColumnsBySet, Finite, Progression, Union,
                               compile_descriptor)
from celab.harness import (exit_code, gen_corpus, predicted_member,
                           verify_reduction)
from celab.hierarchy import DIAGRAMS, render
from celab.nce import (ltomega_decode, ltomega_encode, toggle_bound,
                       toggle_count)
from celab.pairing import pair
from celab.programs import Evaluator, script
from celab.reductions import (MUTANTS, REDUCTIONS, mutated, random_finite,
                              random_ep_descriptor)
from celab.reductions.basic import Uce, orbit_from_ce, uce_embed
from celab.reductions.benchmark import (check_pairwise, gen_family,
                                        gen_pair_inputs, run_tracked_family)
from celab.relations import NceTuple, nce_value


GOLDENS = Path(__file__).parent / "goldens"


def _report_golden(name):
    return GOLDENS / f"report_{name}.json"


def _mutant_golden(name, mname):
    return GOLDENS / f"mutant_{name}_{mname}.json"


def _mutant_report(name, mbuild):
    return verify_reduction(mutated(REDUCTIONS[name], mbuild), seed=1,
                            size=50)


def _ok(label):
    print(f"PASS {label}")


def test_criterion_01_biconditional_suites():
    """Seed-1 corpora of 50 pairs per shipped reduction: balanced,
    0 disagreements, 0 unknowns, reports byte-identical to their
    goldens, under five minutes in total."""
    assert len(REDUCTIONS) >= 20
    started = time.monotonic()
    for name in sorted(REDUCTIONS):
        corpus = gen_corpus(name, seed=1, size=50)
        assert len(corpus) >= 50, name
        eq = sum(1 for c in corpus if c.expected)
        assert eq >= 15 and len(corpus) - eq >= 15, (name, eq)
        report = verify_reduction(name, corpus=corpus, seed=1)
        assert not report.disagreements, (name, report.disagreements[:2])
        assert report.unknowns == 0, name
        assert report.to_bytes() == _report_golden(name).read_bytes(), name
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"suite took {elapsed:.0f}s"
    _ok(f"criterion 1: {len(REDUCTIONS)} reductions x 50 cases clean"
        f" in {elapsed:.0f}s")


def test_criterion_02_tracked_family_suite():
    """25 tracked-family runs: all stagewise invariants hold and the
    output verdict matches the input verdict on every pair."""
    rng = random.Random(101)
    # explicit columns <= 6; entry heights shrink with width so every
    # relevant pair code is enumerated before the stage-30 checkpoint
    shapes = [(3, 5), (4, 4), (5, 3), (6, 2)]
    for run in range(25):
        cols, height = shapes[rng.randrange(len(shapes))]
        family = gen_family(rng, k=4, cols=cols, height=height)
        report = run_tracked_family(family, checkpoint=30)
        assert report.issues == [], (run, report.issues[:3])
        for pair_idx, (want, got) in report.verdicts.items():
            assert want == got, (run, pair_idx)
    _ok("criterion 2: 25 tracked-family runs, invariants and verdicts")


def test_criterion_03_pairwise_suite():
    """20 settled pairs through the pairwise difference module."""
    rng = random.Random(102)
    for run in range(20):
        a, b = gen_pair_inputs(rng)
        issues = check_pairwise(a, b)
        assert issues == [], (run, issues[:3])
    _ok("criterion 3: 20 pairwise-module runs structurally clean")


MONOTONE = ["eqce_to_e0", "saturate_up", "saturate_down", "cut_omega",
            "eqce_to_eQ", "eset_to_isobin", "eqm_to_eq1", "ltomega_to_e3"]


def _image_member(red, payload):
    if red.name == "ltomega_to_e3":
        # column k of the image grows forever exactly when k survives
        # the fold; stagewise the fold is pointwise monotone in slot 1
        return nce_value(payload.parts).member
    return predicted_member(red.predict(payload))


def _grow(rng, red, payload):
    if red.name == "ltomega_to_e3":
        head = Union((payload.parts[0], random_finite(rng, hi=25, size=3)))
        return NceTuple((head,) + payload.parts[1:])
    if isinstance(payload, ColumnsBySet):
        # grow both column contents so every column only gains elements
        return ColumnsBySet(payload.index,
                            Union((payload.incol,
                                   random_finite(rng, hi=6, size=2))),
                            Union((payload.outcol,
                                   random_finite(rng, hi=6, size=2))))
    return Union((payload, random_finite(rng, hi=30, size=3)))


def _chain_seed(rng, red):
    if red.name == "ltomega_to_e3":
        return NceTuple(tuple(random_ep_descriptor(rng, hi=25)
                              for _ in range(rng.randrange(1, 4))))
    if red.name == "eset_to_isobin":
        return ColumnsBySet(Progression(rng.randrange(2), rng.randrange(2, 4)),
                            random_finite(rng, hi=6, size=3),
                            random_finite(rng, hi=6, size=2))
    return random_ep_descriptor(rng, hi=30)


def test_criterion_04_monotonicity_meta_test():
    """Constructions well-defined on enumerated sets must be
    subset-monotone: verified on 50 chains per construction."""
    for name in MONOTONE:
        red = REDUCTIONS[name]
        rng = random.Random(103)
        done = 0
        while done < 50:
            a = _chain_seed(rng, red)
            b = _grow(rng, red, a)
            try:
                ma, mb = _image_member(red, a), _image_member(red, b)
            except ValueError:
                continue  # payload outside the construction's class
            for x in range(129):
                assert not ma(x) or mb(x), (name, done, x)
            done += 1
    _ok(f"criterion 4: {len(MONOTONE)} constructions subset-monotone"
        " on 50 chains each")


def test_criterion_05_universal_relation():
    """Slice embeddings into the universal closure preserve and reflect
    equivalence, exhaustively over 30 scripted relations."""
    rng = random.Random(104)
    relations = []
    universal_entries = []
    for e in range(30):
        entries = []
        for _ in range(rng.randrange(1, 7)):
            stage = rng.randrange(5)
            a, b = rng.randrange(31), rng.randrange(31)
            entries.append((stage, {pair(a, b)}))
            universal_entries.append(
                (stage, {pair(uce_embed(e, a), uce_embed(e, b))}))
        relations.append(Uce(script(entries)))
    universal = Uce(script(universal_entries))
    for e, closure in enumerate(relations):
        for a in range(31):
            for b in range(31):
                want = closure.related(a, b, 5)
                got = universal.related(uce_embed(e, a), uce_embed(e, b), 5)
                assert want == got, (e, a, b)
    _ok("criterion 5: universal closure exhaustive on 30 scripted"
        " relations")


def test_criterion_06_orbit_realization():
    """The generated permutation action's orbits equal the transitive
    closure on 30 instances, with words of length at most 4."""
    rng = random.Random(105)
    for run in range(30):
        pairs = {pair(rng.randrange(8), rng.randrange(8))
                 for _ in range(rng.randrange(1, 5))}
        term = script([(0, pairs)])
        action = orbit_from_ce(term)
        closure = Uce(term)
        for x in range(8):
            orbit = action.orbit(x, stage=0, depth=4)
            cls = {y for y in range(8) if closure.related(x, y, 0)}
            assert orbit == cls, (run, x)
    _ok("criterion 6: 30 orbit realizations match transitive closures")


def test_criterion_07_rational_cut_injectivity():
    """All 128 subsets of [0, 6] map to pairwise distinct cuts."""
    red = REDUCTIONS["eqce_to_eQ"]
    cuts = {}
    for mask in range(128):
        d = Finite(frozenset(i for i in range(7) if mask >> i & 1))
        bound = red.predict(d).key
        assert isinstance(bound, Fraction)
        assert bound not in cuts, (mask, cuts[bound])
        cuts[bound] = mask
    assert len(cuts) == 128
    _ok("criterion 7: 128 subsets of [0,6] give 128 distinct cuts")


def test_criterion_08_nce_ladder():
    """Toggle bounds, column-finiteness of the level construction, and
    the tuple code bijection."""
    rng = random.Random(106)
    for _ in range(100):
        n = rng.randrange(1, 5)
        parts = [random_ep_descriptor(rng, hi=20) for _ in range(n)]
        terms = [compile_descriptor(d, delay=rng.randrange(3)).term
                 for d in parts]
        ev = Evaluator()
        for x in range(8):
            assert toggle_count(ev, terms, x, 50) <= toggle_bound(terms)

    red = REDUCTIONS["ltomega_to_e3"]
    for run in range(30):
        payload = NceTuple(tuple(random_ep_descriptor(rng, hi=25)
                                 for _ in range(rng.randrange(1, 4))))
        built = red.build(payload, rng)
        issues = red.validator(Evaluator(), built, payload, red.window,
                               built.settle(red.window))
        assert issues == [], (run, issues[:2])

    for code in range(1000):
        assert ltomega_encode(ltomega_decode(code)) == code
    _ok("criterion 8: toggle bounds, level columns, and 10^3 code"
        " round-trips")


def test_criterion_09_hierarchy_goldens():
    """DOT and JSON outputs match the checked-in goldens byte-for-byte."""
    for d in DIAGRAMS:
        for fmt in ("dot", "json"):
            golden = (GOLDENS / f"fig{d.number}.{fmt}").read_bytes()
            assert render(d.number, fmt).encode() == golden, (d.number, fmt)
    _ok("criterion 9: 7 diagrams x 2 formats byte-identical to goldens")


def test_criterion_10_mutation_suite():
    """Every shipped reduction has a registered mutant that its default
    corpus catches with a disagreement exit; each mutant's full report,
    every disagreement trace included, is byte-identical to its
    golden."""
    caught = 0
    for name in sorted(REDUCTIONS):
        mutants = MUTANTS.get(name, [])
        assert mutants, f"{name} has no registered mutant"
        for mname, mbuild in mutants:
            report = _mutant_report(name, mbuild)
            assert exit_code(report) == 2, (name, mname)
            golden = _mutant_golden(name, mname).read_bytes()
            assert report.to_bytes() == golden, (name, mname)
            caught += 1
    _ok(f"criterion 10: {caught} mutants all caught (exit code 2)")


def test_report_goldens_are_one_per_reduction_and_mutant():
    """A renamed, added or removed reduction or mutant leaves no report
    golden stale or missing."""
    want = {_report_golden(name).name for name in REDUCTIONS}
    want |= {_mutant_golden(name, mname).name
             for name, mutants in MUTANTS.items() for mname, _ in mutants}
    assert len(want) == len(REDUCTIONS) + sum(map(len, MUTANTS.values()))
    have = {path.name for pattern in ("report_*.json", "mutant_*.json")
            for path in GOLDENS.glob(pattern)}
    assert have == want


if __name__ == "__main__":
    for pattern in ("report_*.json", "mutant_*.json"):
        for path in GOLDENS.glob(pattern):
            path.unlink()
    for name in sorted(REDUCTIONS):
        _report_golden(name).write_bytes(
            verify_reduction(name, seed=1, size=50).to_bytes())
        for mname, mbuild in MUTANTS[name]:
            _mutant_golden(name, mname).write_bytes(
                _mutant_report(name, mbuild).to_bytes())
