"""Reductions into structures and between computability degrees.

Images here are binary structures (edge sets coded as pairs), column
families, or column-family copies of input graphs; sources range over
the degree-style relations (cardinality matching, many-one and one-one
interreducibility) and the iterated difference/union hierarchy.
"""

from __future__ import annotations

import math
from itertools import count

from ..pairing import pair, unpair, seq_decode, set_decode
from ..programs import Combinator, register_combinator, columns_of
from ..descriptors import (
    Finite, Cofinite, Union, Difference,
    EMPTY, FULL, analyze, member,
)
from ..relations import (
    ClassKey, NceTuple, column_family_key, digraph_canonical, many_one_key,
    one_equivalence_key,
)
from ..nce import fold_point, nce_stage_value
from .benchmark import _column_reach, _row_reach, eqce_to_e0
from . import (
    Built, Reduction, register_reduction, register_mutant,
    gen_pair_1d, gen_pair_columns, compile_arg, one_arg_build,
    random_ep_descriptor, repackage, perturbed, adding, without_minimum,
)


# ---------------------------------------------------------------------------
# combinator steps


def _stages_star_edges(ev, args, params, bound=None):
    """Element n of the argument adds the edge root -> leaf n+1."""
    a = args[0]
    read, tick = ev.read, ev.tick
    for s in count():
        out = []
        for n in read(a, s):
            tick()
            out.append(pair(0, n + 1))
        if a.closed(s):
            return out
        yield out


def _react_by_code(ev, a, point, bound=None):
    """Emit each code x at the first stage >= x at which it is a point.

    ``point(x, has)`` decides x and calls ``has(e)``, a test of the
    argument's membership, at most once and as its last test.  So code
    s is decided once, at stage s; when it waits on an element e not
    yet present, it is parked under e and released at the stage e
    enters.  Under a bound b only the codes <= b are decided, and the
    argument cell a is read under a bound on every element they can wait
    on.
    """
    read, tick = ev.read, ev.tick
    have, parked = set(), {}  # parked: element -> codes waiting on it
    wanted = []

    def has(e):
        wanted.append(e)
        return True

    for s in count():
        out = []
        for e in read(a, s):
            tick()
            have.add(e)
            out.extend(parked.pop(e, ()))
        if bound is None or s <= bound:
            tick()
            wanted.clear()
            if point(s, has):
                if not wanted or wanted[0] in have:
                    out.append(s)
                else:
                    parked.setdefault(wanted[0], []).append(s)
        # from stage b on every code <= b is decided, and what is parked
        # waits on the argument
        if (bound is not None and s >= bound
                and (not parked or a.closed(s))):
            return out
        yield out


def _tree_edge(x: int, has) -> bool:
    """Decode x as an edge of the membership tree.

    Vertex codes: 0 is the root; 1 + 2*b is the branch for b = <n, r>
    (column n, copy r); 2 + 2*<b, <k, t>> is position t of the chain
    recording element k under branch b.  ``has(n, k)`` tests column
    membership; chains run to position k.  ``has`` is called at most
    once, as the last test.
    """
    u, v = unpair(x)
    if u == 0:
        return v % 2 == 1          # the root sees every branch copy
    if v < 2 or v % 2 != 0:
        return False
    bv, ktv = unpair((v - 2) // 2)
    k, t = unpair(ktv)
    if t > k:
        return False
    n = unpair(bv)[0]
    if u % 2 == 1:                 # branch -> chain start
        return (u - 1) // 2 == bv and t == 0 and has(n, k)
    bu, ktu = unpair((u - 2) // 2)
    k2, t2 = unpair(ktu)
    return bu == bv and k2 == k and t2 + 1 == t and has(n, k)


def _stages_membership_tree(ev, args, params, bound=None):
    """Emit the tree's edges among the codes <= s.

    An edge needs one column membership, and the argument only grows,
    so each code is decided once and waits for its membership."""
    return _react_by_code(
        ev, args[0],
        lambda x, has: _tree_edge(x, lambda n, k: has(pair(n, k))), bound)


def _tree_reach(b: int) -> int:
    """A bound on every element a code <= b of ``membership_tree``
    waits on; -1 when none waits."""
    # x = <u, v> <= b has v <= _row_reach(b) and waits only when v >= 2,
    # on <n, k> for <bv, <k, t>> = (v - 2) // 2 and n the column of bv;
    # a code z has its column <= _column_reach(z), its row <= _row_reach(z)
    y = _row_reach(b)
    if y < 2:
        return -1
    m = (y - 2) // 2
    return pair(_column_reach(_column_reach(m)), _column_reach(_row_reach(m)))


def _perm_of(m: int):
    """The candidate finite-support permutation coded by m, or None."""
    p = seq_decode(m)
    if sorted(p) != list(range(len(p))):
        return None
    return p


def _copies_point(x: int, edge_has) -> bool:
    """Decode x as a point of the copies family.

    Odd columns 2t+1 enumerate the t-th marked finite set ({0} plus the
    set shifted up by one); even columns 2m hold the image of the input
    edge set under candidate permutation m (edge codes shifted up by one,
    keeping 0 free as the marker), or the marked empty set {0} when m is
    not a valid permutation code.  ``edge_has`` is called at most once,
    as the last test.
    """
    c, y = unpair(x)
    if c % 2 == 1:
        t = (c - 1) // 2
        return y == 0 or (y - 1) in set_decode(t)
    p = _perm_of(c // 2)
    if p is None:
        return y == 0
    if y == 0:
        return False
    u, v = unpair(y - 1)
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    pu = inv[u] if u < len(p) else u
    pv = inv[v] if v < len(p) else v
    return edge_has(pair(pu, pv))


def _longest_seq(m: int) -> int:
    """The greatest length of a tuple whose ``seq_encode`` code is <= m.

    A tuple of length n has a code at least that of n zeros, as pair
    is monotone, and those codes grow doubly exponentially with n."""
    n, code = 0, 1
    while code <= m:
        n, code = n + 1, pair(0, code) + 1
    return n


def _copies_reach(b: int) -> int:
    """A bound on every edge a code <= b of ``perm_copies`` waits on."""
    # x = <c, y> <= b has c <= _column_reach(b) and y <= _row_reach(b);
    # it waits on <pu, pv> for <u, v> = y - 1, where a permutation of
    # length L keeps each of pu, pv <= max(u, v, L - 1)
    y = _row_reach(b)
    if y == 0:
        return -1
    k = max(_column_reach(y - 1), _longest_seq(_column_reach(b) // 2) - 1)
    return pair(k, k)


def _stages_perm_copies(ev, args, params, bound=None):
    return _react_by_code(ev, args[0], _copies_point, bound)


def _stages_level_columns(ev, args, params, bound=None):
    """Column k of the output grows at exactly the stages where k lies
    in the running difference/union fold of the arguments."""
    read, tick = ev.read, ev.tick
    # per argument, its elements so far, and the fold of them
    seen = [set() for _ in args]
    cur = set()
    for s in count():
        # only the points new in some argument can change their fold
        # value
        new = set()
        for a, have in zip(args, seen):
            for x in read(a, s):
                have.add(x)
                new.add(x)
        for x in new:
            if fold_point(x in have for have in seen):
                cur.add(x)
            else:
                cur.discard(x)
        tick(len(cur))
        yield [pair(k, s) for k in cur if k <= s]


def _leaf_reach(b: int) -> int:
    """The largest n with <0, n + 1> <= b."""
    return _row_reach(b) - 1


register_combinator("star_edges", _stages_star_edges, reach=_leaf_reach)
register_combinator("membership_tree", _stages_membership_tree,
                    reach=_tree_reach)
register_combinator("perm_copies", _stages_perm_copies,
                    reach=_copies_reach)
register_combinator("level_columns", _stages_level_columns, reads=None)


# ---------------------------------------------------------------------------
# eqm_to_eq1: full-column images separate empty / full / proper


_EQ1_KEY = {
    "empty": (0, math.inf),
    "full": (math.inf, 0),
    "proper": (math.inf, math.inf),
}


def _eqm_predict(payload):
    return ClassKey("eq_1", _EQ1_KEY[many_one_key(analyze(payload))])


def _gen_pair_eqm(rng):
    """Pairs mixing the three many-one classes in varied presentations."""
    def one():
        roll = rng.random()
        if roll < 0.25:
            return rng.choice([
                EMPTY,
                Finite(frozenset()),
                Difference(Finite(frozenset({2})), Finite(frozenset({2}))),
            ])
        if roll < 0.5:
            return rng.choice([
                FULL,
                Cofinite(frozenset()),
                Union((FULL, Finite(frozenset({1})))),
            ])
        return random_ep_descriptor(rng, 20)
    return one(), one()


eqm_to_eq1 = register_reduction(Reduction(
    name="eqm_to_eq1", source="eq_m", target="eq_1",
    build=eqce_to_e0.build,
    predict=_eqm_predict,
    gen_case=_gen_pair_eqm,
    window=128,
    combinator="expand_columns",
    doc="many-one classes of decidable sets drop to cardinality classes"
        " via full-column images",
))
register_mutant("eqm_to_eq1", "adds-zero",
                perturbed(eqce_to_e0.build, adding(0)))


# ---------------------------------------------------------------------------
# eq1_to_compiso: star graphs


def _star_member(payload):
    def mem(x):
        u, v = unpair(x)
        return u == 0 and v >= 1 and member(payload, v - 1)
    return mem


eq1_to_compiso = register_reduction(Reduction(
    name="eq1_to_compiso", source="eq_1", target="compiso_bin",
    build=one_arg_build("star_edges", lambda p, sa, M: sa(M) + 1,
                        member=_star_member),
    predict=lambda payload: ClassKey(
        "compiso_bin", one_equivalence_key(analyze(payload))),
    gen_case=gen_pair_1d,
    window=128,
    combinator="star_edges",
    doc="cardinality classes become computable-isomorphism classes of"
        " star graphs",
))
register_mutant("eq1_to_compiso", "drops-minimum",
                perturbed(eq1_to_compiso.build, without_minimum))


# ---------------------------------------------------------------------------
# eset_to_isobin: column families as membership trees


def _tree_member(payload):
    return lambda x: _tree_edge(x, lambda n, k: member(payload, pair(n, k)))


def _tree_settle(payload, sa, M):
    h = max((M - 2) // 2 + 1, 1)
    return max(M, sa(pair(h, h))) + 1


eset_to_isobin = register_reduction(Reduction(
    name="eset_to_isobin", source="eset", target="iso_bin",
    build=one_arg_build("membership_tree", _tree_settle,
                        member=_tree_member),
    predict=lambda payload: ClassKey(
        "iso_bin", ("membership-tree", column_family_key(payload))),
    gen_case=lambda rng: gen_pair_columns(rng, hi=6),
    window=24,
    combinator="membership_tree",
    doc="column families become trees: one branch per (column, copy),"
        " one depth-k chain per column element k",
))
register_mutant("eset_to_isobin", "adds-zero",
                perturbed(eset_to_isobin.build, adding(0)))


# ---------------------------------------------------------------------------
# compiso_to_eset: all permuted copies, padded by marked finite sets


def _edge_codes(payload) -> frozenset:
    if not isinstance(payload, Finite):
        raise ValueError("expected a finite edge-set payload")
    return payload.elems


def _copies_member(payload):
    edges = _edge_codes(payload)
    return lambda x: _copies_point(x, lambda e: e in edges)


def _copies_settle(payload, sa, M):
    return max(M, sa(max(_edge_codes(payload), default=0))) + 1


def _gen_pair_digraphs(rng):
    """Random digraphs on at most 3 vertices, with isomorphic-relabel
    and equal-presentation pairs mixed in."""
    def graph():
        n = rng.randrange(1, 4)
        edges = frozenset(
            pair(rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randrange(4)))
        return Finite(edges)

    a = graph()
    roll = rng.random()
    if roll < 0.2:
        return a, a
    if roll < 0.45:
        verts = sorted({w for e in a.elems for w in unpair(e)})
        relabel = {v: i for i, v in enumerate(
            rng.sample(verts, len(verts)))} if verts else {}
        b = Finite(frozenset(
            pair(relabel[u], relabel[v])
            for u, v in (unpair(e) for e in a.elems)))
        return a, b
    return a, graph()


compiso_to_eset = register_reduction(Reduction(
    name="compiso_to_eset", source="compiso_bin", target="eset",
    build=one_arg_build("perm_copies", _copies_settle,
                        member=_copies_member),
    predict=lambda payload: ClassKey(
        "eset", ("iso-copies", digraph_canonical(
            frozenset(unpair(e) for e in _edge_codes(payload))))),
    gen_case=_gen_pair_digraphs,
    window=128,
    combinator="perm_copies",
    doc="a graph maps to the family of all its finite-support permuted"
        " copies, hidden among the marked finite sets",
))
register_mutant("compiso_to_eset", "adds-loop", perturbed(
    compiso_to_eset.build, lambda g: Finite(g.elems | {pair(0, 0)})))


# ---------------------------------------------------------------------------
# the iterated difference/union ladder


def _compile_tuple(payload: NceTuple, rng):
    terms = []
    settles = []
    for d in payload.parts:
        term, settle = compile_arg(d, rng)
        terms.append(term)
        settles.append(settle)
    return tuple(terms), lambda M: max((s(M) for s in settles),
                                       default=0) + 1


def gen_pair_nce(rng, hi: int = 25):
    """Pairs of difference/union tuples with a healthy verdict mix."""
    def tup():
        n = rng.randrange(1, 4)
        return NceTuple(tuple(
            random_ep_descriptor(rng, hi) for _ in range(n)))

    a = tup()
    roll = rng.random()
    if roll < 0.2:
        return a, NceTuple(tuple(repackage(rng, d, hi) for d in a.parts))
    if roll < 0.4:
        # padding with empty slots never changes the fold's value
        pad = (EMPTY,) * rng.randrange(1, 3)
        return a, NceTuple(a.parts + pad)
    return a, tup()


def _validate_nce_embed(ev, built, payload, window, stage):
    issues = []
    # the empty last slot of the image never changes the fold's value
    limit = payload.value()
    got = nce_stage_value(ev, built.parts, stage, window)
    want = {x for x in range(window + 1) if limit.member(x)}
    if got != want:
        issues.append(f"fold window diff +{sorted(got - want)[:5]}"
                      f" -{sorted(want - got)[:5]}")
    later = nce_stage_value(ev, built.parts, stage + 20, window)
    if later != got:
        issues.append("fold value still moving after the settle bound")
    return issues


def _build_nce_embed(payload, rng=None):
    term_f, settle_f = compile_arg(EMPTY, rng)
    terms, settle = _compile_tuple(payload, rng)
    terms = terms + (term_f,)
    return Built(terms[0],
                 lambda M: max(settle(M), settle_f(M)) + 1,
                 None, parts=terms)


nce_embed = register_reduction(Reduction(
    name="nce_embed", source="eq_nce", target="eq_ltomega",
    build=_build_nce_embed,
    predict=lambda payload: NceTuple(payload.parts + (EMPTY,)),
    gen_case=gen_pair_nce,
    window=64,
    validator=_validate_nce_embed,
    payload_kind="nce",
    combinator="",
    doc="a length-n difference/union tuple embeds into length n+1 by an"
        " empty slot",
))
# a FULL slot before the empty filler folds exactly like a FULL filler
register_mutant("nce_embed", "full-filler", perturbed(
    _build_nce_embed, lambda t: NceTuple(t.parts + (FULL,))))


def _validate_level_columns(ev, built, payload, window, stage):
    issues = []
    limit = payload.value()
    span = 20
    first = ev.approx(built.term, stage)
    # approximations only grow, so a column changed between the stages
    # exactly when one of its rows <= stage + span entered then:
    # the columns of those new elements, read in one pass
    grown = columns_of(ev.approx(built.term, stage + span) - first)
    for k in range(window + 1):
        grew = any(t <= stage + span for t in grown.get(k, ()))
        if limit.member(k):
            if not grew:
                issues.append(f"column {k} stopped growing despite limit"
                              " membership")
        else:
            if grew:
                issues.append(f"column {k} kept growing after its level"
                              " left the fold")
        if len(issues) >= 3:
            break
    return issues


def _build_level_columns(payload, rng=None):
    terms, settle = _compile_tuple(payload, rng)
    return Built(Combinator("level_columns", terms),
                 lambda M: settle(M) + M + 1,
                 None, parts=terms)


ltomega_to_e3 = register_reduction(Reduction(
    name="ltomega_to_e3", source="eq_ltomega", target="e3",
    build=_build_level_columns,
    predict=lambda payload: ClassKey(
        "e3", ("level-set", payload.value())),
    gen_case=gen_pair_nce,
    window=24,
    validator=_validate_level_columns,
    payload_kind="nce",
    combinator="level_columns",
    doc="column k grows forever exactly when k stays in the limit of the"
        " difference/union fold",
))
register_mutant("ltomega_to_e3", "adds-zero", perturbed(
    _build_level_columns,
    lambda t: NceTuple((adding(0)(t.parts[0]),) + t.parts[1:])))


# ---------------------------------------------------------------------------
# eq_nat into E_min: singleton images


def _build_singleton(a, rng=None):
    return Built(*compile_arg(Finite(frozenset({a})), rng))


def _gen_pair_nat(rng):
    a = rng.randrange(30)
    if rng.random() < 0.4:
        return a, a
    return a, rng.randrange(30)


eqnat_to_emin = register_reduction(Reduction(
    name="eqnat_to_emin", source="eq_nat", target="e_min",
    build=_build_singleton,
    predict=lambda a: Finite(frozenset({a})),
    gen_case=_gen_pair_nat,
    window=64,
    payload_kind="nat",
    combinator="",
    doc="equality of naturals realized by singleton minima",
))
register_mutant("eqnat_to_emin", "shifted-point",
                perturbed(_build_singleton, lambda a: a + 1))
