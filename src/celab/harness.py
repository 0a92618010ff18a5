"""Corpus generation and settlement-aware verification of reductions.

The central check is the reduction contract

    a related to b (source oracle)  <=>  image(a) related to image(b),

decided exactly at the descriptor level, plus an independent check that
the built programs really enumerate the predicted sets: membership on a
bounded observation window [0, W].  One rule certifies the window: the
construction's analytic settle bound is the certificate, and a re-check
W stages past it guards the bound.  A wrong bound therefore shows as a
window that changed, and the case is reported as unknown, as is one
whose bound exceeds the stage budget; neither is ever a disagreement.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .descriptors import member as desc_member, members as desc_members
from .pairing import set_decode
from .programs import BudgetExceeded, Evaluator, Unknown
from .reductions import REDUCTIONS, Reduction
from .relations import ClassKey, NceTuple, decide
from .serialization import desc_from_sexpr, desc_to_sexpr

CORPUS_VERSION = 1
DEFAULT_WINDOW = 256   # observation window: naturals [0, M]
DEFAULT_BUDGET = 2000  # stage budget per program


@dataclass(frozen=True)
class TestCase:
    """One corpus entry: a payload pair with its oracle verdict."""

    __test__ = False  # not a pytest collection target

    index: int
    source: str
    a: object
    b: object
    expected: bool

    def __post_init__(self):
        actual = decide(self.source, self.a, self.b)
        if actual != self.expected:
            raise ValueError(
                f"case {self.index}: expected verdict {self.expected} but"
                f" the oracle says {actual}")


def _decided_case(index: int, source: str, a, b,
                  expected: bool) -> TestCase:
    """A TestCase whose verdict the caller has just computed with
    ``decide``, built without deciding it again."""
    case = object.__new__(TestCase)
    case.__dict__.update(index=index, source=source, a=a, b=b,
                         expected=expected)
    return case


@dataclass
class VerificationReport:
    reduction: str
    seed: int
    cases: int
    agreements: int
    disagreements: list = field(default_factory=list)
    unknowns: int = 0
    budget: int = DEFAULT_BUDGET
    window: int = DEFAULT_WINDOW
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        """Serializable form; excludes wall-clock so that identical
        inputs give byte-identical reports."""
        return {
            "reduction": self.reduction,
            "seed": self.seed,
            "cases": self.cases,
            "agreements": self.agreements,
            "disagreements": sorted(self.disagreements,
                                    key=lambda t: t["index"]),
            "unknowns": self.unknowns,
            "budget": self.budget,
            "window": self.window,
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2).encode()


# ---------------------------------------------------------------------------
# corpora


def _resolve(red) -> Reduction:
    if isinstance(red, str):
        if red not in REDUCTIONS:
            raise KeyError(f"no reduction named {red!r}")
        return REDUCTIONS[red]
    return red


def gen_corpus(red, seed: int = 1, size: int = 50) -> list:
    """A deterministic, verdict-balanced corpus for a reduction.

    Draws pairs from the reduction's generator, rejecting any draw that
    would leave fewer than 30% of slots for the minority verdict; both
    verdicts therefore reach at least 30% of the corpus whenever the
    size permits.
    """
    red = _resolve(red)
    if size < 1:
        raise ValueError("corpus size must be at least 1")
    rng = random.Random(seed)
    cap = max(size - math.ceil(0.3 * size), 1)
    cases = []
    counts = {True: 0, False: 0}
    attempts = 0
    while len(cases) < size:
        attempts += 1
        if attempts > 400 * size + 400:
            raise RuntimeError(
                f"generator for {red.name} cannot balance a corpus of"
                f" size {size}")
        a, b = red.gen_case(rng)
        expected = decide(red.source, a, b)
        if counts[expected] >= cap:
            continue
        counts[expected] += 1
        cases.append(_decided_case(len(cases), red.source, a, b, expected))
    return cases


def _payload_to_json(payload):
    """A natural as itself, a difference/union tuple as the list of its
    parts' s-expressions, a descriptor as its s-expression: the inverse
    of ``_payload_from_json``."""
    if type(payload) is int:
        return payload
    if isinstance(payload, NceTuple):
        return [desc_to_sexpr(d) for d in payload.parts]
    return desc_to_sexpr(payload)


def _payload_from_json(raw):
    """A natural from an int >= 0 (not a bool), a descriptor from its
    s-expression string, a difference/union tuple from a list of them."""
    if type(raw) is int and raw >= 0:
        return raw
    if isinstance(raw, str):
        return desc_from_sexpr(raw)
    if isinstance(raw, list) and all(isinstance(d, str) for d in raw):
        return NceTuple(tuple(map(desc_from_sexpr, raw)))
    raise ValueError(f"a payload is a natural, a descriptor string or a"
                     f" list of them, not {json.dumps(raw)[:40]}")


def corpus_to_json(red, seed: int, cases: list) -> dict:
    red = _resolve(red)
    return {
        "version": CORPUS_VERSION,
        "relation": red.source,
        "seed": seed,
        "cases": [
            {
                "descA": _payload_to_json(c.a),
                "descB": _payload_to_json(c.b),
                "expected": c.expected,
            }
            for c in cases
        ],
    }


def corpus_from_json(data: dict) -> list:
    if not isinstance(data, dict):
        raise ValueError("a corpus is a JSON object")
    if data.get("version") != CORPUS_VERSION:
        raise ValueError(f"unsupported corpus version {data.get('version')!r}")
    relation = data["relation"]
    if not isinstance(data["cases"], list) or not data["cases"]:
        raise ValueError("corpus cases must be a nonempty list")
    out = []
    for i, raw in enumerate(data["cases"]):
        if not isinstance(raw["expected"], bool):
            raise ValueError(f"case {i}: expected must be true or false")
        out.append(TestCase(i, relation,
                            _payload_from_json(raw["descA"]),
                            _payload_from_json(raw["descB"]),
                            raw["expected"]))
    return out


# ---------------------------------------------------------------------------
# verification


def predicted_member(pred) -> Optional[object]:
    """Limit membership of a predicted payload.

    A descriptor is its own set.  A ClassKey names a class, so it yields
    the membership its reduction stated with it (a rational cut's, the
    rational codes below its bound): None when the reduction checks its
    image with a validator instead."""
    if isinstance(pred, ClassKey):
        return pred.member
    return lambda x: desc_member(pred, x)


def check_built(red: Reduction, payload, pred, rng, window: int,
                budget: int) -> list:
    """Issues with the built program for one payload ([] when clean);
    ``pred`` is ``red.predict(payload)``.

    The analytic bound ``built.settle(window)`` is the certificate: the
    window is read at that stage and once more ``window`` stages later.
    A bound past the stage budget, or a window that changed between the
    two reads (a wrong bound), raises Unknown, never a disagreement; so
    does a validator that finds its image moving after the bound.
    """
    built = red.build(payload, rng)
    stage = built.settle(window)
    if stage > budget:
        raise Unknown(f"settle stage {stage} exceeds budget {budget}")
    ev = Evaluator()
    if red.validator is not None:
        return list(red.validator(ev, built, payload, window, stage))
    got = ev.upto(built.term, stage, window)
    if ev.upto(built.term, stage + window, window) != got:
        raise Unknown("window content changed after the settle bound")
    if isinstance(pred, ClassKey):
        mem = predicted_member(pred)
        want = frozenset(x for x in range(window + 1) if mem(x))
    else:
        # a descriptor: its members on the window in one walk
        want = set_decode(desc_members(pred, 0, window + 1))
    if got != want:
        return [f"window diff: spurious {sorted(got - want)[:6]},"
                f" missing {sorted(want - got)[:6]}"]
    return []


def verify_case(red: Reduction, case: TestCase, rng, window: int,
                budget: int) -> Optional[dict]:
    """None on agreement, a trace dict on disagreement; raises Unknown
    or BudgetExceeded when the case cannot be certified."""
    preds = red.predict(case.a), red.predict(case.b)
    got = decide(red.target, *preds)
    if got != case.expected:
        return {
            "index": case.index,
            "expected": case.expected,
            "got": got,
            "detail": f"source verdict {case.expected} but image verdict"
                      f" {got}",
        }
    issues = []
    for side, payload, pred in zip("AB", (case.a, case.b), preds):
        for issue in check_built(red, payload, pred, rng, window, budget):
            issues.append(f"payload {side}: {issue}")
    if issues:
        return {
            "index": case.index,
            "expected": case.expected,
            "got": case.expected,
            "detail": "; ".join(issues),
        }
    return None


def verify_reduction(red, corpus: Optional[list] = None, seed: int = 1,
                     size: int = 50, budget: int = DEFAULT_BUDGET,
                     window: Optional[int] = None) -> VerificationReport:
    """Run the reduction contract over a corpus and report the tally."""
    red = _resolve(red)
    window = red.window if window is None else window
    started = time.monotonic()
    if corpus is None:
        corpus = gen_corpus(red, seed, size)
    rng = random.Random(f"{red.name}/{seed}/build")
    report = VerificationReport(
        reduction=red.name, seed=seed, cases=len(corpus), agreements=0,
        budget=budget, window=window)
    for case in corpus:
        try:
            trace = verify_case(red, case, rng, window, budget)
        except (Unknown, BudgetExceeded):
            report.unknowns += 1
            continue
        if trace is None:
            report.agreements += 1
        else:
            report.disagreements.append(trace)
    report.elapsed = time.monotonic() - started
    return report


def exit_code(report: VerificationReport) -> int:
    if report.disagreements:
        return 2
    if report.unknowns:
        return 3
    return 0
