"""Corpus generation and the settlement-aware verifier."""

import json

import pytest
from hypothesis import given, strategies as st

import celab  # noqa: F401
from celab.harness import (TestCase, VerificationReport, bits_below,
                           corpus_from_json, corpus_to_json, exit_code,
                           gen_corpus, verify_reduction)
from celab.reductions import MUTANTS, REDUCTIONS, mutated


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


def test_mutants_disagree_with_traces():
    red = REDUCTIONS["e0_to_e3"]
    mname, mbuild = MUTANTS["e0_to_e3"][0]
    rep = verify_reduction(mutated(red, mbuild), seed=1, size=20)
    assert exit_code(rep) == 2
    trace = rep.disagreements[0]
    assert {"index", "expected", "got", "detail"} <= set(trace)


@given(st.integers(min_value=0, max_value=2 ** 300),
       st.integers(min_value=0, max_value=320))
def test_bits_below_reads_every_set_bit_below_n(bits, n):
    assert bits_below(bits, n) == frozenset(
        x for x in range(n) if bits >> x & 1)
