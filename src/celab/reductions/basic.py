"""Ground-floor constructions on enumerated relations.

Small reductions that sit underneath the image constructions: maps into
relations with finitely many classes, deciders for relations with a
known maximal witness system, the injective repair of a many-one
reduction, the universal enumerated relation (incremental transitive
closure), and the realization of any enumerated relation as the orbit
relation of a permutation action.

Everything here works on plain naturals or on hashable payloads; the
oracle hooks take a relation id from the registry when a semantic check
is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from ..pairing import pair, unpair, untriple
from ..programs import BudgetExceeded, Evaluator
from ..relations import decide


class WitnessViolation(ValueError):
    """A supposed system of pairwise-inequivalent witnesses is not one."""


# ---------------------------------------------------------------------------
# relations with finitely many classes


def reduce_to_min_n(witnesses, rid=None):
    """Reduce equality-mod-n to any relation with n distinct classes.

    ``witnesses`` lists one representative per class; the returned total
    map sends k to the k-th representative, clamping k >= n to the last
    one.  When a relation id is given the representatives are checked to
    be pairwise inequivalent against the oracle first.
    """
    witnesses = list(witnesses)
    if not witnesses:
        raise ValueError("need at least one witness")
    if rid is not None:
        for i, j in combinations(range(len(witnesses)), 2):
            if decide(rid, witnesses[i], witnesses[j]):
                raise WitnessViolation(
                    f"witnesses {i} and {j} are {rid}-equivalent")

    def f(k: int):
        return witnesses[min(k, len(witnesses) - 1)]

    return f


def reduce_eqN_to_pi01(diseq, budget: int = 10_000):
    """Reduce equality on the naturals to a relation with a co-enumerable
    complement, given an enumerator of inequivalent pairs.

    ``diseq`` yields pairs declared inequivalent.  A system of mutually
    inequivalent elements is grown greedily in enumeration order: an
    element joins once the enumeration has certified it against every
    current member.  The returned map sends n to the n-th system member
    (so distinct inputs land in distinct classes by construction).
    """
    edges: set = set()
    system: list = []
    seen: list = []
    source = iter(diseq)
    consumed = 0

    def certified(x) -> bool:
        return x not in system and all(
            (x, s) in edges or (s, x) in edges for s in system)

    def f(n: int):
        nonlocal consumed
        while len(system) <= n:
            grew = False
            for x in seen:
                if certified(x):
                    system.append(x)
                    grew = True
                    break
            if grew:
                continue
            if consumed >= budget:
                raise BudgetExceeded(
                    f"no system of size {n + 1} within {budget} pairs")
            try:
                a, b = next(source)
            except StopIteration:
                raise BudgetExceeded(
                    f"enumeration exhausted before a system of size {n + 1}")
            consumed += 1
            edges.add((a, b))
            for x in (a, b):
                if x not in seen:
                    seen.append(x)
        return system[n]

    return f


def finite_class_decider(mode: str, enum, witnesses, budget: int = 10_000):
    """Decide a relation with a known maximal finite witness system.

    ``mode='sigma'``: ``enum`` yields equivalent pairs; each input is
    classified by connecting it to a witness through the enumerated
    pairs.  ``mode='pi'``: ``enum`` yields inequivalent pairs; each
    input is classified by eliminating all witnesses but one.  Either
    way ``decide(a, b)`` compares the witness classes, short-circuiting
    on ``a == b``.
    """
    if mode not in ("sigma", "pi"):
        raise ValueError(f"unknown mode {mode!r}")
    witnesses = list(witnesses)
    source = iter(enum)
    consumed = 0
    uf = UnionFind()          # sigma: enumerated equivalences
    ruled_out: dict = {}      # pi: element -> witnesses refuted so far

    def classify_sigma(x):
        nonlocal consumed
        while True:
            for i, w in enumerate(witnesses):
                if uf.find(x) == uf.find(w):
                    return i
            if consumed >= budget:
                raise BudgetExceeded(f"{x} not classified in {budget} pairs")
            try:
                a, b = next(source)
            except StopIteration:
                raise BudgetExceeded(f"{x} not classified: pairs exhausted")
            consumed += 1
            uf.union(a, b)

    def classify_pi(x):
        nonlocal consumed
        if x in witnesses:
            return witnesses.index(x)
        while True:
            out = ruled_out.setdefault(x, set())
            if len(out) == len(witnesses) - 1:
                return next(i for i in range(len(witnesses)) if i not in out)
            if consumed >= budget:
                raise BudgetExceeded(f"{x} not classified in {budget} pairs")
            try:
                a, b = next(source)
            except StopIteration:
                raise BudgetExceeded(f"{x} not classified: pairs exhausted")
            consumed += 1
            for u, v in ((a, b), (b, a)):
                if v in witnesses:
                    ruled_out.setdefault(u, set()).add(witnesses.index(v))

    classify = classify_sigma if mode == "sigma" else classify_pi

    def decider(a, b) -> bool:
        if a == b:
            return True
        return classify(a) == classify(b)

    return decider


# ---------------------------------------------------------------------------
# two-class relations and the injective repair


def check_two_class(f, in_a, in_b, bound: int = 200) -> list:
    """Issues with f as a reduction of the A/non-A relation to the
    B/non-B relation, checked exhaustively on [0, bound]."""
    issues = []
    side_a = [bool(in_a(x)) for x in range(bound + 1)]
    side_b = [bool(in_b(f(x))) for x in range(bound + 1)]
    for x in range(bound + 1):
        for y in range(x + 1, bound + 1):
            if (side_a[x] == side_a[y]) != (side_b[x] == side_b[y]):
                issues.append(f"pair ({x},{y}): source verdict "
                              f"{side_a[x] == side_a[y]}, image verdict "
                              f"{side_b[x] == side_b[y]}")
                if len(issues) >= 5:
                    return issues
    return issues


def one_reduction_repair(f, b_term, budget: int = 2000,
                         ev: Evaluator = None):
    """Make a many-one reduction injective by rerouting collisions.

    ``g(n) = f(n)`` unless that value was already used by some ``g(m)``
    with ``m < n``; a collision is resolved by enumerating the target
    program for a fresh element.  Values are assigned in input order, so
    the repaired map is well-defined and injective.
    """
    if ev is None:
        ev = Evaluator()
    used: set = set()
    memo: dict = {}

    def fresh() -> int:
        for s in range(budget):
            for x in sorted(ev.approx(b_term, s)):
                if x not in used:
                    return x
        raise BudgetExceeded(
            f"no fresh target element within {budget} stages")

    def g(n: int) -> int:
        for m in range(n + 1):
            if m in memo:
                continue
            v = f(m)
            if v in used:
                v = fresh()
            used.add(v)
            memo[m] = v
        return memo[n]

    return g


# ---------------------------------------------------------------------------
# the universal enumerated relation


class UnionFind:
    """Union-find with path compression; representatives are the least
    elements of their classes (stable canonical output)."""

    def __init__(self):
        self.parent: dict = {}
        self.least: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        self.least.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        self.parent[ra] = rb
        self.least[rb] = min(self.least[ra], self.least[rb])

    def representative(self, x):
        return self.least[self.find(x)]

    def classes(self) -> dict:
        """Map least representative -> frozenset of known members."""
        out: dict = {}
        for x in list(self.parent):
            out.setdefault(self.representative(x), set()).add(x)
        return {r: frozenset(v) for r, v in out.items()}


class Uce:
    """The closure of an enumerated pair-set, maintained stage by stage.

    The program's elements are pair codes; at each stage the decoded
    pairs are merged into a union-find, so the induced partition at
    stage s+1 coarsens the one at stage s (classes only ever merge).
    """

    def __init__(self, term, ev: Evaluator = None):
        self.term = term
        self.ev = ev if ev is not None else Evaluator()
        self.uf = UnionFind()
        self.stage = 0

    def advance(self, s: int) -> None:
        while self.stage <= s:
            for z in self.ev.fresh(self.term, self.stage):
                a, b = unpair(z)
                self.uf.union(a, b)
            self.stage += 1

    def related(self, a: int, b: int, s: int) -> bool:
        self.advance(s)
        if a == b:
            return True
        if a not in self.uf.parent or b not in self.uf.parent:
            return False
        return self.uf.find(a) == self.uf.find(b)

    def classes(self, s: int) -> dict:
        self.advance(s)
        return self.uf.classes()


def uce_embed(e: int, a: int) -> int:
    """The slice embedding of relation e's domain into the universal
    relation's domain."""
    return pair(e, a)


# ---------------------------------------------------------------------------
# orbit realization by a permutation action


@dataclass
class CeAction:
    """A permutation action of the free group on countably many
    generators realizing an enumerated relation as its orbit relation.

    Generator i acts as the transposition (n n') when i decodes to a
    triple (s, n, n') whose pair code was enumerated by stage s;
    otherwise it acts as the identity.  Every generator is an
    involution, so a letter and its formal inverse act alike.
    """

    term: object
    ev: Evaluator = field(default_factory=Evaluator)

    def transposition(self, i: int):
        """The swapped pair for generator index i, or None (identity)."""
        s, n, np = untriple(i)
        if n != np and pair(n, np) in self.ev.approx(self.term, s):
            return (n, np)
        return None

    def act_letter(self, letter: int, x: int) -> int:
        swap = self.transposition(abs(letter) - 1)
        if swap is None:
            return x
        n, np = swap
        if x == n:
            return np
        if x == np:
            return n
        return x

    def act(self, word, x: int) -> int:
        """Apply a (reduced or unreduced) word, rightmost letter first."""
        for letter in reversed(tuple(word)):
            if letter == 0:
                raise ValueError("0 is not a generator letter")
            x = self.act_letter(letter, x)
        return x

    def enumerated_swaps(self, stage: int) -> list:
        """All transpositions available from pairs seen by the stage."""
        swaps = []
        for z in self.ev.approx(self.term, stage):
            n, np = unpair(z)
            if n != np:
                swaps.append((n, np))
        return swaps

    def orbit(self, x: int, stage: int, depth: int = 4) -> frozenset:
        """BFS over generator applications, up to the given word length."""
        swaps = self.enumerated_swaps(stage)
        frontier = {x}
        seen = {x}
        for _ in range(depth):
            nxt = set()
            for y in frontier:
                for n, np in swaps:
                    z = np if y == n else n if y == np else y
                    if z not in seen:
                        seen.add(z)
                        nxt.add(z)
            frontier = nxt
            if not frontier:
                break
        return frozenset(seen)


def orbit_from_ce(term, ev: Evaluator = None) -> CeAction:
    """Realize the closure of an enumerated pair-set as the orbit
    relation of a permutation action."""
    return CeAction(term, ev if ev is not None else Evaluator())
