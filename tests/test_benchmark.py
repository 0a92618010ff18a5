"""Image reductions into the combinatorial benchmark relations, plus the
two stage machines (pairwise difference module and tracked families)."""

import random

import pytest

import celab  # noqa: F401
from celab.descriptors import member
from celab.harness import verify_reduction
from celab.pairing import pair, unpair
from celab.reductions import REDUCTIONS
from celab.reductions.benchmark import (TrackedFamilyMachine, _marker_element,
                                        check_pairwise, gen_family,
                                        gen_pair_inputs, run_pairwise_module,
                                        run_tracked_family)

IMAGE_REDUCTIONS = ["eqce_to_e0", "e0_to_e1", "e0_to_e2", "e0_to_e3",
                    "e0_to_z0", "e3_to_z0", "e3_to_eset", "e0_to_eset"]


@pytest.mark.parametrize("name", IMAGE_REDUCTIONS)
def test_small_corpus_is_clean(name):
    rep = verify_reduction(name, seed=3, size=8)
    assert rep.agreements == rep.cases == 8, rep.disagreements[:2]


def test_pairwise_module_structure():
    rng = random.Random(41)
    for _ in range(6):
        a, b = gen_pair_inputs(rng)
        assert check_pairwise(a, b) == []


def test_tracked_family_runs_clean():
    rng = random.Random(42)
    for _ in range(4):
        family = gen_family(rng)
        report = run_tracked_family(family)
        assert report.issues == []
        for want, got in report.verdicts.values():
            assert want == got


def test_registry_metadata_is_complete():
    for name, red in REDUCTIONS.items():
        assert red.source and red.target, name
        assert red.doc, name
        assert red.window >= 16, name


# Naive references for the machines' incremental fast paths: stage sets
# rebuilt from scratch at every stage, every retired marker re-checked.

FAMILY_SHAPES = [(3, 5), (4, 4), (5, 3), (6, 2)]  # criterion 2's shapes


def _stage_set(d, s):
    """Canonical enumeration: everything below s that belongs."""
    return {x for x in range(s) if member(d, x)}


def _naive_pairwise(a, b, stages):
    d_ab, d_ba = set(), set()
    for s in range(stages):
        ws_a, ws_b = _stage_set(a, s), _stage_set(b, s)
        new_ab, new_ba = set(), set()
        for x in ws_a | ws_b:
            c, k = unpair(x)
            agree_below = all((pair(c, n) in ws_a) == (pair(c, n) in ws_b)
                              for n in range(k))
            if x in ws_a and x not in ws_b and agree_below:
                new_ab.add(x)
            if x in ws_b and x not in ws_a and agree_below:
                new_ba.add(x)
            if x in d_ba and x in ws_a and x in ws_b:
                new_ab.add(x)
            if x in d_ab and x in ws_a and x in ws_b:
                new_ba.add(x)
        d_ab |= new_ab
        d_ba |= new_ba
    return d_ab, d_ba


def _full_invariant_issues(machine):
    """Every retired marker and every cell, checked from scratch."""
    issues = []
    for key, sl in machine.slices.items():
        x = _marker_element(sl)
        for r in sl.retired:
            if any(r not in g for g in machine.outputs):
                issues.append(f"slice {key}: retired marker {r} missing"
                              " from some output")
                break
        cells = [machine.slice_of(g, key) for g in range(machine.k)]
        for a in range(machine.k):
            for b in range(a + 1, machine.k):
                if (cells[a] ^ cells[b]) - {x}:
                    issues.append(f"slice {key}: outputs {a},{b} differ"
                                  " beyond the current marker")
    return issues


def _run_against_references(family, horizon=60):
    """Step a machine as run_tracked_family does, comparing its stage
    sets and its invariant check with the naive references at every
    stage; returns the stages after which issues were reported."""
    machine = TrackedFamilyMachine(family, 8, height=8)
    flagged = []
    while machine.stage < horizon:
        assert machine.stage_sets == [_stage_set(d, machine.stage)
                                      for d in family]
        machine.step()
        issues = machine.invariant_issues()
        assert issues == _full_invariant_issues(machine), machine.stage
        if issues:
            flagged.append(machine.stage)
    return machine, flagged


@pytest.mark.parametrize("cols,height", FAMILY_SHAPES)
def test_family_machine_matches_the_naive_rebuild(cols, height):
    rng = random.Random(cols * 10 + height)
    for _ in range(3):
        family = gen_family(rng, k=4, cols=cols, height=height)
        machine, flagged = _run_against_references(family)
        assert flagged == []
        assert any(sl.retired for sl in machine.slices.values())


def test_a_missing_retired_marker_is_reported_when_it_happens(monkeypatch):
    faults = []
    retire = TrackedFamilyMachine._retire

    def leaky_retire(machine, sl):
        """Retire as usual, but the first retirement from stage 5 on
        leaves the marker out of one output that lacks it."""
        x = _marker_element(sl)
        lacking = [g for g in range(machine.k) if x not in machine.outputs[g]]
        if faults or machine.stage < 5 or not lacking:
            return retire(machine, sl)
        faults.append(machine.stage)
        add = machine._add

        def add_but_one(g, s, y):
            if (g, y) != (lacking[0], x):
                add(g, s, y)

        machine._add = add_but_one
        try:
            retire(machine, sl)
        finally:
            del machine._add

    monkeypatch.setattr(TrackedFamilyMachine, "_retire", leaky_retire)
    family = gen_family(random.Random(5), k=4, cols=4, height=4)
    _, flagged = _run_against_references(family)
    assert faults, "no retirement to leave out"
    # the fault at stage s shows in the check after step s, and the
    # marker stays missing from then on
    assert flagged == list(range(faults[0] + 1, 61))
    faults.clear()
    report = run_tracked_family(family)
    assert "retired marker" in report.issues[0]


def test_pairwise_module_matches_the_naive_rebuild():
    rng = random.Random(43)
    for _ in range(25):
        a, b = gen_pair_inputs(rng)
        for stages in (0, 1, 2, 45):
            res = run_pairwise_module(a, b, stages)
            assert (res.d_ab, res.d_ba) == _naive_pairwise(a, b, stages)
