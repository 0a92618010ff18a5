"""The universal enumerated relation and orbit actions.

The closure of an enumerated pair-set is maintained stage by stage by
an incremental union-find, and the slice embedding places any relation's
domain inside the universal relation's.  Any enumerated relation is
also realized as the orbit relation of a permutation action of the free
group on countably many generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pairing import pair, unpair, untriple
from ..programs import Evaluator


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
