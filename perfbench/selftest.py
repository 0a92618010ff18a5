#!/usr/bin/env python3
"""Checks with teeth: every workload's output check must reject a
broken program or a corrupted input.

    python3 perfbench/selftest.py

* sweep: every registered mutant build (``celab.reductions.MUTANTS``)
  goes through the sweep operation and check, case by case over its
  reduction's seed-1 corpus, until the check reports a wrong verdict;
* deep: the mutant of every deep reduction is evaluated in the three
  forms on seeded payloads until the deep check reports a wrong set;
* oracle: one verdict of every reduction's corpus is flipped in the
  JSON text, and the corpus check must report it.  What rejects the
  flip is ``corpus_from_json``: it builds ``harness.TestCase``s, whose
  construction raises when the stored verdict differs from ``decide``.

Exits 0 when every check caught its breakage, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import celab  # noqa: E402,F401
from celab import harness  # noqa: E402
from celab.reductions import MUTANTS, REDUCTIONS, mutated  # noqa: E402
from workloads import (check_corpus, check_deep, check_sweep,  # noqa: E402
                       corpus_text, deep_ops, deep_reductions, deep_term,
                       sweep_op)

DEEP_ATTEMPTS = 20  # seeded payloads tried per deep mutant


def wrong(issues) -> bool:
    return any(kind == "wrong" for kind, _ in issues)


def sweep_catches(red, mname, mbuild) -> bool:
    broken = mutated(red, mbuild)
    for case in harness.gen_corpus(red.name, seed=1, size=50):
        if wrong(check_sweep(red, case, [sweep_op(broken, case, 1)])):
            return True
    return False


def deep_catches(red, mname, mbuild) -> bool:
    rng = random.Random(f"selftest/{red.name}")
    for _ in range(DEEP_ATTEMPTS):
        payload, _ = red.gen_case(rng)
        dt = deep_term(red, payload, rng, build=mbuild)
        # the direct form alone must already be rejected; some mutant
        # parameters (negative shifts) have no s-expression or code
        results = [deep_ops(dt)[0]()]
        if wrong(check_deep(dt, results)):
            return True
    return False


def oracle_catches(red) -> bool:
    cases = harness.gen_corpus(red.name, seed=1, size=50)
    data = json.loads(corpus_text(red, 1, cases))
    data["cases"][0]["expected"] = not data["cases"][0]["expected"]
    return wrong(check_corpus(red, json.dumps(data), cases))


def main() -> int:
    missed = []
    for name in sorted(REDUCTIONS):
        red = REDUCTIONS[name]
        for mname, mbuild in MUTANTS.get(name, []):
            if not sweep_catches(red, mname, mbuild):
                missed.append(f"sweep: mutant {name}/{mname}")
        if not oracle_catches(red):
            missed.append(f"oracle: flipped verdict in {name}")
    for red in deep_reductions():
        for mname, mbuild in MUTANTS.get(red.name, []):
            if not deep_catches(red, mname, mbuild):
                missed.append(f"deep: mutant {red.name}/{mname}")
    for m in missed:
        print(f"not caught: {m}")
    print(f"selftest: {len(missed)} breakages not caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
