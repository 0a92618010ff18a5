"""Class enumerators and group actions on enumerated sets.

A relation is *enumerable in the indices* when some uniform family
alpha(n, e) enumerates exactly the class of W_e as n varies.  This
module ships the finite-modification witness for almost-equality, the
generic lift of such a witness into a column family, and the two group
constructions: translation actions of finite cyclic groups (computable
in the indices) and the realization of any such action as an action of
the free group on countably many generators.

The negative side of the theory (no action computable in the indices
has almost-equality as its orbit relation: the empty set's class has a
subset-minimum, which translation by a nontrivial element cannot
preserve) is a documented obstruction, not an executable check; the
tests only exercise the positive constructions.
"""

from __future__ import annotations

from .pairing import pair, unpair
from .programs import Combinator, Evaluator, register_combinator, arg, param
from .descriptors import member
from .groups import FiniteGroup, fw_reduce


def string_of(m: int) -> tuple:
    """The m-th binary string in length-then-value order (m=0: empty)."""
    bits = bin(m + 1)[3:]
    return tuple(1 if b == "1" else 0 for b in bits)


# ---------------------------------------------------------------------------
# combinator steps


def _step_prefix_substitution(ev, args, params, s, state, bound=None):
    """Positions of 1s in a fixed binary string, then the argument
    beyond the string's length."""
    a = arg(args, 0)
    word = string_of(param(params, 0))
    out = []
    if s == 0:
        out.extend(i for i, bit in enumerate(word) if bit)
    for k in ev.fresh(a, s):
        ev.tick()
        if k >= len(word):
            out.append(k)
    return out


def _step_translate_mod(ev, args, params, s, state, bound=None):
    """Left translation by gamma in the cyclic group of order n."""
    a = arg(args, 0)
    gamma = param(params, 0)
    n = max(param(params, 1, 1), 1)
    out = []
    for g in ev.fresh(a, s):
        ev.tick()
        if g < n:
            out.append((g + gamma) % n)
    return out


def _step_group_columns(ev, args, params, s, state, bound=None):
    """Element w of the argument contributes g*w to column g, for every
    group element g (cyclic of order n)."""
    a = arg(args, 0)
    n = max(param(params, 0, 1), 1)
    out = []
    for w in ev.fresh(a, s):
        if w < n:
            for g in range(n):
                ev.tick()
                out.append(pair(g, (g + w) % n))
    return out


def _step_permute_columns_mod(ev, args, params, s, state, bound=None):
    """Send input column c to output column c + gamma (mod n): the
    action (gamma . phi)(g) = phi(g gamma^{-1}) on column families."""
    a = arg(args, 0)
    gamma = param(params, 0)
    n = max(param(params, 1, 1), 1)
    out = []
    for x in ev.fresh(a, s):
        ev.tick()
        c, y = unpair(x)
        if c < n:
            out.append(pair((c + gamma) % n, y))
    return out


register_combinator("prefix_substitution", _step_prefix_substitution)
register_combinator("translate_mod", _step_translate_mod)
register_combinator("group_columns", _step_group_columns)
register_combinator("permute_columns_mod", _step_permute_columns_mod)


# ---------------------------------------------------------------------------
# the finite-modification class enumerator


def e0_class_enumerator(n: int, term) -> Combinator:
    """The n-th member of the almost-equality class of the argument:
    the n-th binary string, then the argument beyond its length."""
    return Combinator("prefix_substitution", (term,), (n,))


def e0_class_member(n: int, payload):
    """Limit membership of e0_class_enumerator(n, compiled payload)."""
    word = string_of(n)

    def mem(x: int) -> bool:
        if x < len(word):
            return word[x] == 1
        return member(payload, x)

    return mem


def enumerable_to_eset(alpha_member):
    """Lift a class enumerator into a column-family transform.

    ``alpha_member(n, payload)`` is the limit membership of the n-th
    enumerated class member; the image family has it as column n.  Two
    payloads are related exactly when their image families are equal as
    sets of columns (the registered prefix-family reduction is this
    lift applied to the finite-modification witness).
    """

    def image(payload):
        def mem(x: int) -> bool:
            n, y = unpair(x)
            return alpha_member(n, payload)(y)
        return mem

    return image


# ---------------------------------------------------------------------------
# translation actions of finite cyclic groups


def translate_set(group: FiniteGroup, gamma: int, payload) -> frozenset:
    """{gamma * g : g in W, g in the group's domain}, descriptor level."""
    dom = range(len(group.elements))
    return frozenset(
        group.op(gamma, g) for g in dom if member(payload, g))


def translation_action(group: FiniteGroup, gamma: int, term) -> Combinator:
    """Program-level left translation (cyclic groups: op is addition
    mod n, matching the shipped tables)."""
    return Combinator("translate_mod", (term,),
                      (gamma, len(group.elements)))


def ugamma_embed(group: FiniteGroup, term) -> Combinator:
    """The function g -> gW as a column family: column g holds gW."""
    return Combinator("group_columns", (term,), (len(group.elements),))


def ugamma_act(group: FiniteGroup, gamma: int, term) -> Combinator:
    """Act on a column family by right-translating the argument:
    output column g equals input column g * gamma^{-1}."""
    return Combinator("permute_columns_mod", (term,),
                      (gamma, len(group.elements)))


def ugamma_columns(group: FiniteGroup, term, stage: int,
                   ev: Evaluator = None) -> dict:
    """The settled column family of a program over the group's domain."""
    if ev is None:
        ev = Evaluator()
    n = len(group.elements)
    cols = {g: set() for g in range(n)}
    for x in ev.approx(term, stage):
        c, y = unpair(x)
        if c < n:
            cols[c].add(y)
    return cols


# ---------------------------------------------------------------------------
# finite group actions as free-group actions


def gamma_to_fomega(group: FiniteGroup, gens):
    """Let generator x_i act as the i-th listed group element; words act
    by composition (rightmost letter first)."""

    def act(word, x: int) -> int:
        for letter in reversed(fw_reduce(word)):
            g = gens[abs(letter) - 1]
            if letter < 0:
                g = group.inv(g)
            x = group.op(g, x)
        return x

    return act


def fomega_orbit(act, x: int, letters, depth: int = 4) -> frozenset:
    """BFS over one-letter applications, up to the given word length."""
    frontier = {x}
    seen = {x}
    for _ in range(depth):
        nxt = set()
        for y in frontier:
            for letter in letters:
                z = act((letter,), y)
                if z not in seen:
                    seen.add(z)
                    nxt.add(z)
        frontier = nxt
        if not frontier:
            break
    return frozenset(seen)
