"""Registry of computable reductions between equivalence relations.

A reduction consists of a program construction (``build``), an exact
prediction of the image's target-relation payload (``predict``), a
corpus generator for source payload pairs (``gen_case``), and a
settlement bound.  The harness checks the biconditional

    source-related(a, b)  <=>  target-related(predict(a), predict(b))

against the oracles, and independently validates that the built
programs enumerate exactly the predicted sets on a bounded window (or
satisfy a custom semantic validator when the image is legitimately
schedule-dependent).

Each reduction also registers at least one *mutant*: a deliberately
broken variant that the default corpus must catch.  Mutants are how the
test suite knows the validation has teeth.  A mutant is another
reduction's production build, or the production build of a finitely
perturbed payload checked against the honest prediction (``perturbed``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..descriptors import (
    Descriptor, Finite, Cofinite, Progression, Union, Difference,
    EP, ColumnsBySet, OverrideColumns, FULL, UnsupportedDescriptor, analyze,
    compile_descriptor, member,
)
from ..programs import Built, Combinator


@dataclass
class Reduction:
    name: str
    source: str
    target: str
    build: Callable            # (payload, rng) -> Built
    predict: Callable          # payload -> target-relation payload
    gen_case: Callable         # rng -> (payloadA, payloadB)
    window: int = 256
    validator: Optional[Callable] = None  # (ev, built, payload, window, stage)
    payload_kind: str = "descriptor"
    doc: str = ""
    # the cid the build applies to raw argument programs, as the build
    # states it ("" for none); read once, so a build wrapped later (by a
    # tracer, say) keeps it
    combinator: str = field(init=False, default="")

    def __post_init__(self):
        self.combinator = getattr(self.build, "cid", "")


REDUCTIONS: dict = {}
MUTANTS: dict = {}  # reduction name -> list of (mutant name, build fn)


def register_reduction(red: Reduction) -> Reduction:
    if red.name in REDUCTIONS:
        raise ValueError(f"reduction {red.name!r} already registered")
    REDUCTIONS[red.name] = red
    return red


def register_mutant(name: str, mutant_name: str, build) -> None:
    MUTANTS.setdefault(name, []).append((mutant_name, build))


def perturbed(build, perturb):
    """A mutant build: the production build of a finitely perturbed
    payload.  The harness checks it against the honest payload's
    prediction, which states the image the build must enumerate."""
    return lambda payload, rng=None: build(perturb(payload), rng)


def adding(x: int):
    """A perturbation: the payload with the element x added."""
    extra = Finite(frozenset({x}))
    return lambda d: Union((d, extra))


def without_minimum(d: Descriptor) -> Descriptor:
    """A perturbation: the payload without its least element."""
    m = analyze(d).min()
    return d if m is None else Difference(d, Finite(frozenset({m})))


def mutated(red: Reduction, build) -> Reduction:
    """A copy of a reduction with a broken build (for mutation runs)."""
    return replace(red, build=build)


# ---------------------------------------------------------------------------
# corpus building blocks: random descriptors with controlled relatedness


def random_finite(rng, hi: int = 40, size: int = 6) -> Finite:
    n = rng.randrange(size + 1)
    return Finite(frozenset(rng.randrange(hi) for _ in range(n)))


def random_ep_descriptor(rng, hi: int = 40) -> Descriptor:
    """A random descriptor from the eventually periodic family."""
    roll = rng.randrange(6)
    if roll == 0:
        return random_finite(rng, hi)
    if roll == 1:
        return Cofinite(frozenset(
            rng.randrange(hi) for _ in range(rng.randrange(5))
        ))
    if roll == 2:
        return Progression(rng.randrange(10), rng.randrange(1, 7))
    if roll == 3:
        return Union((Progression(rng.randrange(8), rng.randrange(2, 6)),
                      random_finite(rng, hi, 3)))
    if roll == 4:
        return Difference(
            Progression(rng.randrange(6), rng.randrange(1, 5)),
            random_finite(rng, hi, 3),
        )
    return Difference(FULL, Progression(rng.randrange(6), rng.randrange(2, 6)))


def perturb_finitely(rng, d: Descriptor, hi: int = 40) -> Descriptor:
    """A descriptor almost-equal to d (finite symmetric difference)."""
    add = frozenset(rng.randrange(hi) for _ in range(rng.randrange(1, 4)))
    drop = frozenset(rng.randrange(hi) for _ in range(rng.randrange(0, 3)))
    out: Descriptor = d
    if drop:
        out = Difference(out, Finite(drop))
    if add:
        out = Union((out, Finite(add)))
    return out


def repackage(rng, d: Descriptor, hi: int = 40) -> Descriptor:
    """An extensionally equal descriptor with a different presentation."""
    probe = Finite(frozenset({rng.randrange(hi)}))
    return Union((d, Difference(d, probe)))


def gen_pair_1d(rng, equal_bias: float = 0.35,
                almost_bias: float = 0.3, hi: int = 40):
    """A random pair of 1-D descriptors with a healthy verdict mix."""
    a = random_ep_descriptor(rng, hi)
    roll = rng.random()
    if roll < equal_bias:
        return a, repackage(rng, a, hi)
    if roll < equal_bias + almost_bias:
        return a, perturb_finitely(rng, a, hi)
    return a, random_ep_descriptor(rng, hi)


def gen_pair_columns(rng, hi: int = 20):
    """A random pair of column-structured descriptors.

    Mixes identical presentations, finite-column overrides (almost-all
    columns equal), columnwise finite perturbations (all columns almost
    equal), and unrelated shapes.
    """
    index = Progression(rng.randrange(3), rng.randrange(2, 5))
    inc = random_ep_descriptor(rng, hi)
    outc = random_ep_descriptor(rng, hi)
    a = ColumnsBySet(index, inc, outc)
    roll = rng.random()
    if roll < 0.3:
        return a, ColumnsBySet(index, repackage(rng, inc, hi), outc)
    if roll < 0.55:
        touched = sorted({rng.randrange(8) for _ in range(2)})
        cols = tuple(
            (c, perturb_finitely(rng, inc if member(index, c) else outc, hi))
            for c in touched
        )
        return a, OverrideColumns(cols, ColumnsBySet(index, inc, outc))
    if roll < 0.75:
        return a, ColumnsBySet(index, perturb_finitely(rng, inc, hi),
                               perturb_finitely(rng, outc, hi))
    return a, ColumnsBySet(index, random_ep_descriptor(rng, hi),
                           random_ep_descriptor(rng, hi))


def compile_arg(payload: Descriptor, rng) -> Built:
    """Compile a source payload with a randomized enumeration schedule.

    Randomizing the delay (and using plain scripts for small finite
    sets) keeps corpora honest about schedule independence.
    """
    delay = rng.randrange(4) if rng is not None else 0
    try:
        ana = analyze(payload)
        # scripts list their elements: a block image may be finite yet
        # too large to list
        finite = isinstance(ana, EP) and ana.is_finite
    except UnsupportedDescriptor:
        finite = False
    if finite and rng is not None and rng.random() < 0.4:
        return compile_descriptor(payload, delay=delay, as_script=True,
                                  rng=rng)
    return compile_descriptor(payload, delay=delay)


def one_arg_build(cid: str, settle, params: tuple = ()):
    """The build of a one-argument construction: combinator ``cid``
    applied to the payload compiled by ``compile_arg``.

    ``settle(payload, sa, M)`` bounds the image's settle stage on
    [0, M], given the argument's settle function ``sa``.  The build
    carries ``cid``, which a ``Reduction`` on it reads as its
    ``combinator``.
    """
    def build(payload, rng=None):
        arg = compile_arg(payload, rng)
        return Built(Combinator(cid, (arg.term,), params),
                     lambda M: settle(payload, arg.settle, M))
    build.cid = cid
    return build
