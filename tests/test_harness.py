"""Corpus generation and the settlement-aware verifier."""

import json
import random
from dataclasses import replace

import pytest

import celab  # noqa: F401
from celab.descriptors import Finite
from celab.harness import (DEFAULT_BUDGET, TestCase, VerificationReport,
                           check_built, corpus_from_json, corpus_to_json,
                           exit_code, gen_corpus, verify_reduction)
from celab.programs import Built, Combinator, Evaluator, Unknown, script
from celab.reductions import MUTANTS, REDUCTIONS, Reduction, mutated
from celab.relations import NceTuple
from test_reference_evaluator import ReferenceEvaluator


def test_corpora_are_deterministic_and_balanced():
    for name in ("eqce_to_e0", "saturate_up", "nce_embed"):
        c1 = gen_corpus(name, seed=9, size=30)
        c2 = gen_corpus(name, seed=9, size=30)
        assert [(x.a, x.b, x.expected) for x in c1] == \
               [(x.a, x.b, x.expected) for x in c2]
        eq = sum(1 for c in c1 if c.expected)
        assert 9 <= eq <= 21  # both verdicts hold at least 30%


def test_single_case_corpus_is_allowed():
    assert len(gen_corpus("eqce_to_e0", seed=1, size=1)) == 1


def test_corpus_size_must_be_positive():
    with pytest.raises(ValueError):
        gen_corpus("eqce_to_e0", seed=1, size=0)


def test_test_case_validates_its_expected_verdict():
    case = gen_corpus("eqce_to_e0", seed=2, size=4)[0]
    with pytest.raises(ValueError):
        TestCase(case.index, case.source, case.a, case.b, not case.expected)


def test_corpus_json_round_trip():
    for name in ("e0_to_e3", "ltomega_to_e3", "eqnat_to_emin"):
        cases = gen_corpus(name, seed=3, size=12)
        blob = json.dumps(corpus_to_json(name, 3, cases))
        back = corpus_from_json(json.loads(blob))
        assert [(c.a, c.b, c.expected) for c in back] == \
               [(c.a, c.b, c.expected) for c in cases]


def test_reports_are_byte_identical_for_identical_inputs():
    r1 = verify_reduction("cut_omega", seed=5, size=10)
    r2 = verify_reduction("cut_omega", seed=5, size=10)
    assert r1.to_bytes() == r2.to_bytes()
    assert r1.elapsed >= 0  # wall-clock tracked but not serialized
    assert b"elapsed" not in r1.to_bytes()


def test_report_tally_always_adds_up():
    rep = verify_reduction("hull_omega", seed=6, size=15)
    assert rep.agreements + len(rep.disagreements) + rep.unknowns == rep.cases
    assert exit_code(rep) == 0


def test_empty_corpus_gives_an_empty_report():
    rep = verify_reduction("cut_omega", corpus=[])
    assert rep.cases == 0 and rep.agreements == 0
    assert exit_code(rep) == 0


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_budget_starvation_reports_unknown_not_disagreement(name):
    rep = verify_reduction(name, seed=1, size=5, budget=1)
    assert not rep.disagreements
    assert rep.unknowns == 5
    assert exit_code(rep) == 3


def _scripted(settle):
    """A reduction whose every build is a script that gains 1 at stage
    0 and 2 at stage 5, under the given settle bound."""
    built = Built(script([(0, {1}), (5, {2})]), settle)
    return Reduction("scripted", "eq_ce", "eq_ce", lambda payload, rng: built,
                     None, None)


def test_a_window_that_changes_after_the_settle_bound_is_unknown():
    with pytest.raises(Unknown, match="changed after the settle bound"):
        check_built(_scripted(lambda M: 0), None, Finite(frozenset({1, 2})),
                    None, 10, DEFAULT_BUDGET)


def test_a_window_settled_by_its_bound_is_certified():
    assert check_built(_scripted(lambda M: 5), None,
                       Finite(frozenset({1, 2})), None, 10,
                       DEFAULT_BUDGET) == []


def _report_of_one_build(name, payload, built):
    """The report of a reduction over the one case (payload, payload),
    every build of it the hand-made ``built``."""
    red = REDUCTIONS[name]
    case = TestCase(0, red.source, payload, payload, True)
    return verify_reduction(replace(red, build=lambda payload, rng: built),
                            corpus=[case])


def test_a_fold_moving_after_the_settle_bound_is_unknown():
    """nce_embed's validator re-checks the fold past the bound."""
    # the one part gains 2 at stage 5, past the settle bound 0
    parts = (script([(0, {1}), (5, {2})]),)
    built = Built(parts[0], lambda M: 0, parts=parts)
    rep = _report_of_one_build("nce_embed", NceTuple((Finite({1, 2}),)),
                               built)
    assert (rep.unknowns, rep.disagreements) == (1, [])


def test_a_median_moving_after_the_settle_bound_is_unknown():
    """emed_to_e0's validator re-checks the median past the bound."""
    # the argument's median moves from 1 to 2 at stage 5, past the
    # settle bound 0
    built = Built(Combinator("median_multiples",
                             (script([(0, {1}), (5, {3})]),)), lambda M: 0)
    rep = _report_of_one_build("emed_to_e0", Finite({1, 3}), built)
    assert (rep.unknowns, rep.disagreements) == (1, [])


@pytest.mark.parametrize(
    "name", sorted(n for n, r in REDUCTIONS.items() if r.validator is None))
def test_certified_windows_match_the_reference_past_the_bound(name):
    """Each window check_built certifies equals the reference
    evaluator's, whose cells never close, read ``window`` stages past
    the settle bound."""
    red = REDUCTIONS[name]
    window = red.window
    rng = random.Random(f"{name}/1/build")
    for case in gen_corpus(red, seed=1, size=50)[:4]:
        for payload in case.a, case.b:
            built = red.build(payload, rng)
            once = replace(red, build=lambda payload, rng: built)
            assert check_built(once, payload, red.predict(payload), None,
                               window, DEFAULT_BUDGET) == []
            stage = built.settle(window)
            assert Evaluator().upto(built.term, stage, window) == \
                ReferenceEvaluator().upto(built.term, stage + window, window)


def test_mutants_disagree_with_traces():
    red = REDUCTIONS["e0_to_e3"]
    mname, mbuild = MUTANTS["e0_to_e3"][0]
    rep = verify_reduction(mutated(red, mbuild), seed=1, size=20)
    assert exit_code(rep) == 2
    trace = rep.disagreements[0]
    assert {"index", "expected", "got", "detail"} <= set(trace)

