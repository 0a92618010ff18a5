"""The benchmark's three workloads and their output checks.

A workload is built from a seed (its set-up) and then yields rounds of
items.  An item is one or more operations plus a check on their
results; every round holds the same operations in the same order, so a
run that stops between rounds always attempts whole rounds.  A
workload's ``tail_pct`` is the percentile of ``op_tail_ms``, read over
the first ``fixed_rounds`` rounds of a timed run, as is the peak RSS;
``trace_rounds`` is the length of a traced run.

Checks return a list of ``(kind, message)`` pairs: ``"failed"`` marks an
operation that gave no verdict (an unknown), ``"wrong"`` a verdict or
set that disagrees with the descriptor-level oracle.  The checks are
module-level functions so that ``selftest.py`` can feed them mutant
builds and corrupted corpora.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from celab import (descriptors, harness, numbering, programs, relations,
                   serialization)
from celab.reductions import REDUCTIONS
from celab.reductions import benchmark as machines


@dataclass
class Item:
    label: str
    ops: list          # zero-argument callables; one operation each
    check: Callable    # results -> [(kind, message)]


# ---------------------------------------------------------------------------
# a known fault, kept as one fixed failing item per round
#
# omega_into_rationals maps a set whose maximum is 0 to the rationals
# below -1, though its predicted image (like that of the empty set,
# which el_omega relates to it) is the empty cut.  Seeded inputs hit it
# only now and then, so they leave such payloads out, and every round of
# sweep and deep instead carries the fixed payload {0}: its operations
# count as failed, the same share of every run.

KNOWN_FAULT = "omega_into_rationals"
FAULT_PAYLOAD = descriptors.Finite(frozenset({0}))


def hits_known_fault(red, payload) -> bool:
    if red.name != KNOWN_FAULT:
        return False
    ana = descriptors.analyze(payload)
    return ana.is_finite and ana.elements() == {0}


def as_known_fault(check, n_ops):
    """A check whose every complaint marks all n_ops operations failed."""
    def known(results):
        issues = check(results)
        if not issues:
            return []
        return [("failed", f"known fault: {issues[0][1]}")] * n_ops
    return known


# ---------------------------------------------------------------------------
# inputs drawn stratified by cost
#
# An operation's cost follows the density of its payload: one reduction's
# cases take from 1 ms (a finite set) to 570 ms (a cofinite one).  Drawn
# independently, the mix of cheap and dear inputs moved a run's figures
# from seed to seed as much as the machine did.  So sweep and deep draw a
# pool of inputs per reduction, sort it by cost_proxy, and take from it
# by spread_index.

# members below 64 rank the pools as members below 128 do (rank
# correlation 0.97 or more over 50 pools) at half the set-up time
COST_POINTS = range(64)


def cost_proxy(*payloads) -> int:
    """Members among COST_POINTS, summed over payloads; 0 for payloads
    that are not descriptors (numbers and the like, all cheap)."""
    total = 0
    for p in payloads:
        try:
            total += sum(descriptors.member(p, x) for x in COST_POINTS)
        except descriptors.UnsupportedDescriptor:
            pass
    return total


def spread_index(n: int, slots: int, size: int) -> int:
    """The position, in a cost-sorted pool of `size`, of input number n.

    The pool is cut into `slots` (a power of two) equal slots and input n
    is the middle of slot bitreverse(n mod slots).  Any 2**j consecutive
    inputs then take one slot of each of 2**j equal cost strata: a short
    run spans the whole range, and a reduction at position k that takes
    input r + k in round r puts a different stratum into every round."""
    bits = slots.bit_length() - 1
    slot = int(format(n % slots, f"0{bits}b")[::-1], 2) if bits else 0
    return (2 * slot + 1) * size // (2 * slots)


# ---------------------------------------------------------------------------
# sweep: harness.verify_reduction, one case at a time


SWEEP_CASES = 96  # corpus size per reduction, the pool of its cases
SWEEP_SLOTS = 32  # cost slots of a pool; a run past 32 rounds repeats cases


def corpus_seed(seed: int, k: int, r: int = 0) -> int:
    """The corpus seed of reduction number k (in name order) in round r.

    gen_corpus draws from Random(seed), so reductions that share a
    generator would get the same payloads from one seed, and their costs
    would rise and fall together from seed to seed."""
    return (seed * 100_000 + r) * 100 + k


def sweep_op(red, case, seed):
    return harness.verify_reduction(red, corpus=[case], seed=seed)


def check_sweep(red, case, results):
    (report,) = results
    out = []
    if report.unknowns:
        out.append(("failed", f"{red.name} case {case.index}: unknown"))
    # a TestCase cannot hold a verdict that differs from decide(source)
    image = relations.decide(red.target, red.predict(case.a),
                             red.predict(case.b))
    if image != case.expected:
        out.append(("wrong", f"{red.name} case {case.index}: image"
                    f" verdict {image}, source verdict {case.expected}"))
    if report.disagreements or report.agreements + report.unknowns != 1:
        detail = [d["detail"] for d in report.disagreements]
        out.append(("wrong", f"{red.name} case {case.index}: harness"
                    f" disagrees with the oracle: {detail}"))
    return out


class Sweep:
    name = "sweep"
    tail_pct = 90
    fixed_rounds = 16
    trace_rounds = 2

    def __init__(self, seed: int):
        self.reds = [REDUCTIONS[n] for n in sorted(REDUCTIONS)]
        self.corpora = {}
        for k, red in enumerate(self.reds):
            cseed = corpus_seed(seed, k)
            corpus = harness.gen_corpus(red.name, seed=cseed,
                                        size=SWEEP_CASES)
            corpus = [c for c in corpus
                      if not (hits_known_fault(red, c.a)
                              or hits_known_fault(red, c.b))]
            corpus.sort(key=lambda c: cost_proxy(c.a, c.b))
            # verify_reduction seeds the build randomness (argument
            # schedules) from its seed alone: one seed per case keeps the
            # cases of a reduction from sharing one schedule
            self.corpora[red.name] = [(c, 1000 * cseed + c.index)
                                      for c in corpus]
        fault = REDUCTIONS[KNOWN_FAULT]
        case = harness.TestCase(0, fault.source, FAULT_PAYLOAD,
                                descriptors.EMPTY, True)
        self.fault = Item("known fault", [partial(sweep_op, fault.name, case,
                                                  seed)],
                          as_known_fault(partial(check_sweep, fault, case), 1))

    def round(self, r: int):
        for k, red in enumerate(self.reds):
            corpus = self.corpora[red.name]
            case, build_seed = corpus[spread_index(r + k, SWEEP_SLOTS,
                                                   len(corpus))]
            yield Item(f"{red.name}#{case.index}",
                       [partial(sweep_op, red.name, case, build_seed)],
                       partial(check_sweep, red, case))
        yield self.fault


# ---------------------------------------------------------------------------
# deep: one long evaluation per (term, form)


INDEXED_WINDOW = 64     # the indexed form's window, capped by the reduction's
DEEP_BUDGET = 10 ** 8   # step budget; no deep term comes near it
DEEP_ROUNDS = 16        # rounds built in set-up; later rounds reuse them
DEEP_POOL = 64          # payloads drawn per reduction; DEEP_ROUNDS are used
DEEP_STRATA = 4         # cost quarters; a timed run does at least 4 rounds
DEEP_FORMS = ("direct", "parsed", "indexed")


def deep_reductions() -> list:
    """Reductions whose image is one combinator over compiled arguments
    and whose limit is predicted exactly (no custom validator)."""
    return [red for _, red in sorted(REDUCTIONS.items())
            if red.combinator and red.validator is None]


@dataclass
class DeepTerm:
    red: object
    payload: object
    built: object
    window: int          # direct and parsed forms
    stage: int
    index_window: int    # indexed form
    index_stage: int


def deep_term(red, payload, rng, build=None) -> DeepTerm:
    built = (build or red.build)(payload, rng)
    # The harness, and with it sweep, evaluates a term to one whole
    # window past the settle bound; the direct and parsed forms go to
    # twice that stage.  Indexed takes the difference of two full
    # approximations at every stage, so it stops where the harness would
    # for a window of at most INDEXED_WINDOW.
    window = red.window
    iw = min(INDEXED_WINDOW, window)
    return DeepTerm(red, payload, built,
                    window, 2 * (built.settle(window) + window),
                    iw, built.settle(iw) + iw)


def deep_op(term, stage, form):
    """Evaluate a term in one form on a fresh evaluator: to stage//2,
    then on to stage.  Returns both sets and t(0..stage)/t(0..stage//2)."""
    if form == "parsed":
        term = serialization.term_from_sexpr(
            serialization.term_to_sexpr(term))
    elif form == "indexed":
        term = programs.Indexed(numbering.encode(term))
    ev = programs.Evaluator(budget=DEEP_BUDGET)
    t0 = time.perf_counter()
    mid = ev.approx(term, stage // 2)
    t1 = time.perf_counter()
    deep = ev.approx(term, stage)
    t2 = time.perf_counter()
    return mid, deep, (t2 - t0) / max(t1 - t0, 1e-9)


def deep_ops(dt: DeepTerm) -> list:
    """The operations of one term, one per form, in DEEP_FORMS order."""
    return [partial(deep_op, dt.built.term, dt.stage, "direct"),
            partial(deep_op, dt.built.term, dt.stage, "parsed"),
            partial(deep_op, dt.built.term, dt.index_stage, "indexed")]


def check_deep(dt: DeepTerm, results):
    """Check the results of the first len(results) forms."""
    red = dt.red
    mem = (harness.predicted_member(red.predict(dt.payload))
           or dt.built.member)
    out = []
    for form, (mid, deep, _) in zip(DEEP_FORMS, results):
        stage, w = ((dt.index_stage, dt.index_window) if form == "indexed"
                    else (dt.stage, dt.window))
        label = f"{red.name} ({form}) at stage {stage}"
        if not mid <= deep:
            out.append(("wrong", f"{label}: stage {stage // 2} is not a"
                        " subset of the deep stage"))
        got = frozenset(x for x in deep if x <= w)
        want = frozenset(x for x in range(w + 1) if mem(x))
        if got != want:
            out.append(("wrong", f"{label}: window [0,{w}]"
                        f" spurious {sorted(got - want)[:6]}, missing"
                        f" {sorted(want - got)[:6]}"))
    sets = [deep for _, deep, _ in results]
    if len(sets) > 1 and sets[1] != sets[0]:
        out.append(("wrong", f"{red.name}: the parsed form's set differs"
                    " from the direct form's"))
    # stages only add elements, and index_stage <= stage
    if len(sets) > 2 and not sets[2] <= sets[0]:
        out.append(("wrong", f"{red.name}: the indexed form's set at stage"
                    f" {dt.index_stage} is not within the direct form's"
                    f" at stage {dt.stage}"))
    return out


class Deep:
    name = "deep"
    tail_pct = 90
    fixed_rounds = DEEP_STRATA  # one payload of each cost quarter
    trace_rounds = 2

    def __init__(self, seed: int):
        # a run sees only four or five payloads per reduction
        columns = []
        for k, red in enumerate(deep_reductions()):
            rng = random.Random(f"deep/{seed}/{red.name}")
            pool = []
            while len(pool) < DEEP_POOL:
                payload, _ = red.gen_case(rng)
                if not hits_known_fault(red, payload):
                    pool.append(payload)
            pool.sort(key=cost_proxy)
            columns.append([deep_term(red, pool[spread_index(
                                r + k, DEEP_ROUNDS, DEEP_POOL)], rng)
                            for r in range(DEEP_ROUNDS)])
        self.rounds = [list(terms) for terms in zip(*columns)]
        fault = deep_term(REDUCTIONS[KNOWN_FAULT], FAULT_PAYLOAD,
                          random.Random("deep/known-fault"))
        self.fault = self._item(fault)
        self.fault.check = as_known_fault(self.fault.check, len(DEEP_FORMS))

    @staticmethod
    def _item(dt):
        return Item(dt.red.name, deep_ops(dt), partial(check_deep, dt))

    def round(self, r: int):
        for dt in self.rounds[r % DEEP_ROUNDS]:
            yield self._item(dt)
        yield self.fault

    @staticmethod
    def growth(results):
        return results[0][2]


# ---------------------------------------------------------------------------
# oracle: corpora and stage machines, no program evaluation


ORACLE_CASES = 50     # cases per corpus
ORACLE_MACHINES = 4   # tracked-family runs and pairwise runs per round
ORACLE_ROUNDS = 64    # machine inputs built in set-up; later rounds reuse
# family shapes (explicit columns, entry height) that settle before the
# stage-30 checkpoint
FAMILY_SHAPES = ((3, 5), (4, 4), (5, 3), (6, 2))


def corpus_text(red, seed: int, cases) -> str:
    return json.dumps(harness.corpus_to_json(red.name, seed, cases))


def check_corpus(red, text: str, original) -> list:
    """Read a corpus back and hold every case to the oracles."""
    try:
        back = harness.corpus_from_json(json.loads(text))
    except ValueError as exc:
        return [("wrong", f"{red.name}: corpus does not read back: {exc}")]
    out = []
    if len(back) != len(original):
        out.append(("wrong", f"{red.name}: {len(back)} cases read back"
                    f" from {len(original)}"))
    decide = relations.decide
    for c, o in zip(back, original):
        where = f"{red.name} case {c.index}"
        if (c.a, c.b, c.expected) != (o.a, o.b, o.expected):
            out.append(("wrong", f"{where}: changed by the JSON round trip"))
        # corpus_from_json builds TestCases, which already reject a
        # stored verdict that differs from decide(source, a, b)
        verdict = c.expected
        if decide(red.target, red.predict(c.a),
                  red.predict(c.b)) != verdict:
            out.append(("wrong", f"{where}: image verdict differs"))
        if not (decide(red.source, c.a, c.a)
                and decide(red.source, c.b, c.b)):
            out.append(("wrong", f"{where}: decide is not reflexive"))
        if decide(red.source, c.b, c.a) != verdict:
            out.append(("wrong", f"{where}: decide is not symmetric"))
    return out


def corpus_op(red, seed: int):
    cases = harness.gen_corpus(red.name, seed=seed, size=ORACLE_CASES)
    return check_corpus(red, corpus_text(red, seed, cases), cases)


def family_op(family):
    report = machines.run_tracked_family(family, checkpoint=30)
    out = [("wrong", issue) for issue in report.issues]
    for (m, n), (want, got) in sorted(report.verdicts.items()):
        if want != got:
            out.append(("wrong", f"outputs {m},{n}: verdict {got}, input"
                        f" verdict {want}"))
    return out


def pairwise_op(a, b):
    return [("wrong", issue) for issue in machines.check_pairwise(a, b)]


def passed_through(results):
    (issues,) = results
    return issues


class Oracle:
    name = "oracle"
    tail_pct = 95
    fixed_rounds = 16
    trace_rounds = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.reds = [REDUCTIONS[n] for n in sorted(REDUCTIONS)]
        rng = random.Random(f"oracle/{seed}")
        self.families, self.pairs = [], []
        # a family's cost follows its shape, so every round runs each
        # shape once
        for i in range(ORACLE_ROUNDS * ORACLE_MACHINES):
            cols, height = FAMILY_SHAPES[i % len(FAMILY_SHAPES)]
            self.families.append(machines.gen_family(rng, k=4, cols=cols,
                                                     height=height))
            self.pairs.append(machines.gen_pair_inputs(rng))

    def round(self, r: int):
        for k, red in enumerate(self.reds):
            yield Item(f"corpus {red.name}",
                       [partial(corpus_op, red, corpus_seed(self.seed, k, r))],
                       passed_through)
        base = (r % ORACLE_ROUNDS) * ORACLE_MACHINES
        for i in range(base, base + ORACLE_MACHINES):
            yield Item(f"family {i}", [partial(family_op, self.families[i])],
                       passed_through)
            yield Item(f"pairwise {i}",
                       [partial(pairwise_op, *self.pairs[i])],
                       passed_through)


WORKLOADS = {wl.name: wl for wl in (Sweep, Deep, Oracle)}
