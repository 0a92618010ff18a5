"""Image reductions into the combinatorial benchmark relations, plus the
two stage machines (pairwise difference module and tracked families)."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import celab  # noqa: F401
from celab.descriptors import member
from celab.harness import verify_reduction
from celab.pairing import pair, unpair
from celab.reductions import REDUCTIONS, benchmark
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
# rebuilt from scratch at every stage, every minimum found by walking the
# column from its start, every retired marker and every slice's cells
# re-checked.

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


def _minimum(ws_i, ws_j, c, height):
    """Least position below height where column c of two stage sets
    differs, or None."""
    return next((k for k in range(height)
                 if (pair(c, k) in ws_i) != (pair(c, k) in ws_j)), None)


class _NaiveMachine(TrackedFamilyMachine):
    """The machine without its incremental checks: new stage sets
    built by copying, every slice's minima recomputed from the column's
    start and every slice's cells compared pairwise."""

    def step(self):
        s = self.stage
        prev_sets = self.stage_sets
        next_sets = [ws | {s} if member(d, s) else ws
                     for d, ws in zip(self.family, prev_sets)]
        for sl in self.slices.values():
            c, j = sl.c, sl.j
            churn = False
            for i in range(j):
                m = _minimum(prev_sets[i], prev_sets[j], c, self.height)
                if m is None or m != sl.minima.get(i, m):
                    churn = True
                sl.minima[i] = m
            steered = range(j + 1, min(c, self.k - 1) + 1)
            matching = [k for k in steered if self._fact(sl, k, next_sets)]
            if not churn:
                x = _marker_element(sl)
                churn = any(x in self.outputs[k]
                            for k in steered if k not in matching)
            if churn:
                self._retire(sl)
                sl.last_churn = s + 1
            x = _marker_element(sl)
            for k in matching:
                self._add(k, sl, x)
        self.stage_sets = next_sets
        self.stage += 1

    def invariant_issues(self):
        return _full_invariant_issues(self)


def _with_stray(machine_class, stray):
    """machine_class, or a subclass that, after step ``at``, adds the
    element y to output g's cell of slice key."""
    if stray is None:
        return machine_class
    at, g, key, y = stray

    class Stray(machine_class):
        def step(self):
            super().step()
            if self.stage == at:
                self._add(g, self.slices[key], y)

    return Stray


def _report(machine_class, family) -> tuple:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(benchmark, "TrackedFamilyMachine", machine_class)
        report = run_tracked_family(family)
    return report.issues, report.verdicts


def _run_against_references(family, horizon=60,
                            machine_class=TrackedFamilyMachine):
    """Step a machine as run_tracked_family does, comparing its stage
    sets, its minima and its invariant check with the naive references
    at every stage; returns the stages after which issues were
    reported."""
    machine = machine_class(family, 8, height=8)
    flagged = []
    while machine.stage < horizon:
        sets = [_stage_set(d, machine.stage) for d in family]
        assert machine.stage_sets == sets
        machine.step()
        for (c, j), sl in machine.slices.items():
            assert sl.minima == {i: _minimum(sets[i], sets[j], c, 8)
                                 for i in range(j)}, (machine.stage, c, j)
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


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(FAMILY_SHAPES), seed=st.integers(0, 2**32 - 1),
       k=st.integers(2, 5),
       stray=st.none() | st.tuples(st.integers(1, 59), st.integers(0, 4),
                                   st.integers(0, 7), st.integers(0, 4),
                                   st.integers(0, 2000)))
def test_family_machine_matches_the_naive_machine(shape, seed, k, stray):
    """Per stage, the minima and the invariant check equal the naive
    references, and the end state and the report equal the naive
    machine's; a stray element in one output's cell sends the check to
    its pairwise comparison."""
    cols, height = shape
    family = gen_family(random.Random(seed), k=k, cols=cols, height=height)
    if stray is not None:
        at, g, c, j, y = stray
        stray = (at, g % k, (c, j % k), y)
    machine, _ = _run_against_references(
        family, machine_class=_with_stray(TrackedFamilyMachine, stray))
    naive = _with_stray(_NaiveMachine, stray)(family, 8, height=8)
    naive.run(machine.stage)
    assert _slice_states(machine) == _slice_states(naive)
    assert (_report(_with_stray(TrackedFamilyMachine, stray), family)
            == _report(_with_stray(_NaiveMachine, stray), family))


def test_pairwise_module_matches_the_naive_rebuild():
    rng = random.Random(43)
    for _ in range(25):
        a, b = gen_pair_inputs(rng)
        for stages in (0, 1, 2, 45):
            res = run_pairwise_module(a, b, stages)
            assert (res.d_ab, res.d_ba) == _naive_pairwise(a, b, stages)


# End-state golden of the tracked-family machine: reports and every
# slice's bookkeeping for fixed families, so an optimization of the
# machine is held to the behaviour it had before.

FAMILY_GOLDEN = Path(__file__).parent / "goldens" / "family_machine.json"
GOLDEN_SEEDS = (1, 2, 3)


def _slice_states(machine) -> list:
    """Every slice's bookkeeping and its restriction of each output."""
    states = []
    for (c, j), sl in machine.slices.items():
        cells = machine.cells[(c, j)]
        shared = set.intersection(*cells)
        states.append({
            "slice": [c, j], "marker": sl.marker, "retired": sl.retired,
            "last_churn": sl.last_churn, "last_move": sl.last_move,
            "minima": [sl.minima[i] for i in range(j)],
            # each output's restriction to the slice is the shared part
            # plus its own
            "shared": sorted(shared),
            "outputs": [sorted(cell - shared) for cell in cells]})
    return states


def _family_machine_golden() -> str:
    """One JSON line per family report and per slice, in run order."""
    lines = []
    for seed in GOLDEN_SEEDS:
        for cols, height in FAMILY_SHAPES:
            family = gen_family(random.Random(seed), cols=cols,
                                height=height)
            report = run_tracked_family(family)
            head = {"seed": seed, "shape": [cols, height]}
            lines.append(json.dumps({
                **head, "issues": report.issues,
                "verdicts": [[m, n, want, got] for (m, n), (want, got)
                             in sorted(report.verdicts.items())]}))
            # the same run as run_tracked_family, kept to read its end
            # state (the report above says whether it stopped early)
            machine = TrackedFamilyMachine(family, 8, height=8)
            while machine.stage < 60:
                machine.step()
                if machine.invariant_issues():
                    break
            lines.extend(json.dumps({**head, **state})
                         for state in _slice_states(machine))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_family_machine_end_state_matches_the_golden():
    assert _family_machine_golden() == FAMILY_GOLDEN.read_text()


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_benchmark.py rewrites the golden
    FAMILY_GOLDEN.write_text(_family_machine_golden())
