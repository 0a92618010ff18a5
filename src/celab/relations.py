"""Exact deciders for the equivalence relations under study.

Every relation is registered with a decision procedure on *semantic
payloads*: usually descriptors (compared through their eventually
periodic analysis), sometimes richer objects produced by reduction
transforms (class keys, difference/union tuples).  The
deciders are ground truth: they either answer correctly or raise
``UnsupportedDescriptor``; they never guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Optional

from .pairing import unpair
from .descriptors import (
    EP, BlockImage, Finite, Columns, ColumnsBySet, TailColumns,
    OverrideColumns, UnsupportedDescriptor, analyze, columns_view,
    ep_difference, ep_only, ep_union, kept, region_pairs,
)

# ---------------------------------------------------------------------------
# semantic payload objects


@dataclass(frozen=True)
class ClassKey:
    """A point given directly by its class invariant under a relation.

    ``member(x)``, when set, is the limit membership of the set that a
    reduction's image enumerates, so the prediction states both the
    image's class and the set the built program must enumerate.  It
    takes no part in ``==``, ``hash`` or ``repr``: two keys of one class
    are equal whatever sets they stand for.  A rational cut is the
    ``eq_ce`` key of its bound (an exact Fraction, or -inf or inf),
    whose member is the set of rational codes below the bound."""

    rid: str
    key: object
    member: Optional[Callable[[int], bool]] = field(
        default=None, compare=False, repr=False)


@dataclass(frozen=True)
class NceTuple:
    """An alternating difference/union combination of descriptors.

    Denotes ((d1 - d2) | d3) - d4 ... folding left to right.
    """

    parts: tuple  # tuple of Descriptor

    def value(self) -> EP:
        """``nce_value`` of the parts, kept on the tuple like an
        analysis on its descriptor."""
        return kept(self, "_value", _fold_parts)


# ---------------------------------------------------------------------------
# analysis-level helpers (EP | BlockImage)


def _sem(x):
    if isinstance(x, (EP, BlockImage)):
        return x
    return analyze(x)


def _size_class(a) -> str:
    """'fin' / 'cofin' / 'sym' (infinite and co-infinite)."""
    return "fin" if a.is_finite else "cofin" if a.is_cofinite else "sym"


def ana_eq(a, b) -> bool:
    if isinstance(a, EP) and isinstance(b, EP):
        return a == b
    if isinstance(a, BlockImage) and isinstance(b, BlockImage):
        if a.kind == b.kind:
            return a.index == b.index
        if one_equivalence_key(a) != one_equivalence_key(b):
            return False
        raise UnsupportedDescriptor("cross-kind block image comparison")
    ep, bi = (a, b) if isinstance(a, EP) else (b, a)
    if _size_class(bi) != "sym":
        # a finite or cofinite union reaches this path only past the
        # materialization cap, so counting separates it from any EP the
        # corpora can build
        if one_equivalence_key(ep) != one_equivalence_key(bi):
            return False
        raise UnsupportedDescriptor("block union beyond materialization cap")
    # an infinite, co-infinite block union has unbounded runs of both
    # members and gaps, so it is never eventually periodic
    return False


def ana_almost_eq(a, b) -> bool:
    """Finite symmetric difference.

    On this closed class the finite-weighted-difference and
    density-zero-difference relations coincide with it: any infinite
    block-level difference contributes a fixed positive weight and a
    fixed positive density per differing block, and any infinite EP
    difference is an arithmetic progression.

    Two EPs differ finitely exactly when they agree from some point on.
    The least period of an eventually periodic set divides all its
    periods, so canonical EPs agree from some point on exactly when
    their ``e0_key``s (least period and residues) are equal.
    """
    if isinstance(a, EP) and isinstance(b, EP):
        return a.e0_key() == b.e0_key()
    if isinstance(a, BlockImage) and isinstance(b, BlockImage):
        if a.kind == b.kind:
            return a.index.e0_key() == b.index.e0_key()
        sa, sb = _size_class(a), _size_class(b)
        if sa == sb == "sym":
            raise UnsupportedDescriptor("cross-kind block image comparison")
        # two finite sets, or two cofinite sets, always differ finitely;
        # any other mix differs on an infinite set
        return sa == sb
    ep, bi = (a, b) if isinstance(a, EP) else (b, a)
    sb = _size_class(bi)
    if sb != "sym":
        return sb == _size_class(ep)
    # the symmetric difference hits a positive fraction of infinitely
    # many blocks whatever the EP density, so it is infinite
    return False


# ---------------------------------------------------------------------------
# per-relation keys on 1-D payloads: an EP and a BlockImage answer the
# questions they share under the same names


def sup_key(a):
    """Order type of the strict cut below the set, as a count."""
    if a.is_empty:
        return 0
    if not a.is_finite:
        return math.inf
    return a.max()


def hull_key(a):
    if a.is_empty:
        return ("empty",)
    if a.is_finite:
        return ("fin", a.min(), a.max())
    return ("inf", a.min())


def min_key(a):
    m = a.min()
    return ("empty",) if m is None else ("min", m)


def max_key(a):
    if a.is_empty:
        return ("empty",)
    if not a.is_finite:
        return ("inf",)
    return ("max", a.max())


def med_key(a):
    return ep_only(a, "median").median_key()


def gcd_key(a):
    return ep_only(a, "gcd").gcd_value()


def lcm_key(a):
    return ep_only(a, "lcm").lcm_value()


def one_equivalence_key(a):
    return (a.cardinality(), a.cocardinality())


def many_one_key(a):
    if isinstance(a, EP):
        if a.is_empty:
            return "empty"
        if a.is_full:
            return "full"
    return "proper"


def set_identity_key(a):
    """A canonical token for extensional equality of a 1-D payload."""
    if isinstance(a, EP):
        return a
    return ("blocks", a.kind, a.index)


# ---------------------------------------------------------------------------
# column-structured relations


def _columnish(d) -> bool:
    return isinstance(d, (Columns, ColumnsBySet, TailColumns,
                          OverrideColumns))


def _columns_agree(a, b, on_finite, on_infinite) -> bool:
    """Whether two column-structured payloads agree region by region.

    The regions are the meets of a region of a's column view with one
    of b's, each with one column of a and one of b.  The two columns
    are compared under ``on_finite`` on a region of finitely many
    columns (None: not compared), under ``on_infinite`` on the
    others.  Column c of a tail payload is base minus [0, c), so two
    tail payloads agree under each relation here exactly when their
    bases do under ``on_finite``; with None (all but finitely many
    columns equal) the tails agree from some column on exactly when
    the bases are almost equal.
    """
    if isinstance(a, TailColumns) and isinstance(b, TailColumns):
        return (on_finite or ana_almost_eq)(analyze(a.base),
                                            analyze(b.base))
    if isinstance(a, TailColumns) or isinstance(b, TailColumns):
        raise UnsupportedDescriptor("mixed tail/constant column shapes")
    for region, ca, cb in region_pairs(columns_view(a), columns_view(b)):
        test = on_finite if region.is_finite else on_infinite
        if test is not None and not test(analyze(ca), analyze(cb)):
            return False
    return True


def _decide_e1(a, b) -> bool:
    """All but finitely many columns extensionally equal."""
    if isinstance(a, TailColumns) != isinstance(b, TailColumns):
        tc, other = (a, b) if isinstance(a, TailColumns) else (b, a)
        base = analyze(tc.base)
        view = columns_view(other)
        if not isinstance(base, EP):
            raise UnsupportedDescriptor("tail base must be EP")
        if not base.is_finite:
            # the tails base-minus-[0,c) are pairwise distinct, so they
            # match any fixed column family only finitely often
            return False
        # beyond max(base) every tail column is empty
        return all(region.is_finite or analyze(col).is_empty
                   for region, col in view.regions)
    return _columns_agree(a, b, None, ana_eq)


def columnwise_key(d, colkey) -> frozenset:
    """Canonical form of the map column-index -> colkey(column).

    Regions with the same column invariant are merged, so the key does
    not depend on how the payload happens to be presented.
    """
    buckets: dict = {}
    for region, col in columns_view(d).regions:
        if region.is_empty:
            continue
        k = colkey(analyze(col))
        buckets[k] = (region if k not in buckets
                      else ep_union(buckets[k], region))
    return frozenset(buckets.items())


def column_family_key(a) -> frozenset:
    """The set of distinct columns occurring in a column payload, kept
    on the payload like its analysis."""
    return kept(a, "_column_family_key", _column_family_key)


def _column_family_key(a) -> frozenset:
    view = columns_view(a)
    keys = set()
    for region, col in view.regions:
        if not region.is_empty:
            keys.add(set_identity_key(analyze(col)))
    return frozenset(keys)


# ---------------------------------------------------------------------------
# finite binary structures


def digraph_canonical(edges) -> tuple:
    """Canonical form of a finite digraph up to vertex renaming.

    Vertices are the endpoints of the given edges; the canonical form is
    the lexicographically least relabeled edge tuple.  Brute force over
    vertex bijections -- payloads stay small by corpus design.
    """
    verts = sorted({v for e in edges for v in e})
    if len(verts) > 8:
        raise UnsupportedDescriptor("digraph too large for brute force")
    best = None
    for perm in permutations(range(len(verts))):
        relabel = dict(zip(verts, perm))
        cand = tuple(sorted((relabel[u], relabel[v]) for u, v in edges))
        if best is None or cand < best:
            best = cand
    return best if best is not None else ()


def _edges_of(payload) -> frozenset:
    if isinstance(payload, Finite):
        return frozenset(unpair(x) for x in payload.elems)
    raise UnsupportedDescriptor("expected a finite edge-set payload")


# ---------------------------------------------------------------------------
# tuples of descriptors (iterated difference/union)


def nce_value(parts) -> EP:
    """((d1 - d2) | d3) - d4 ..., as an EP analysis."""
    acc = EP.from_finite(())
    for i, d in enumerate(parts, start=1):
        ana = analyze(d) if not isinstance(d, EP) else d
        if not isinstance(ana, EP):
            raise UnsupportedDescriptor("tuple parts must be EP")
        if i == 1:
            acc = ana
        elif i % 2 == 0:
            acc = ep_difference(acc, ana)
        else:
            acc = ep_union(acc, ana)
    return acc


def _fold_parts(t: NceTuple) -> EP:
    return nce_value(t.parts)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Relation:
    rid: str
    decide: Optional[Callable]  # (payload, payload) -> bool, or None
    level: str = ""
    doc: str = ""


RELATIONS: dict = {}


def register_relation(rid: str, decide, level: str = "", doc: str = "") -> None:
    if rid in RELATIONS:
        raise ValueError(f"relation {rid!r} already registered")
    RELATIONS[rid] = Relation(rid, decide, level, doc)


def decide(rid: str, a, b) -> bool:
    rel = RELATIONS.get(rid)
    if rel is None or rel.decide is None:
        raise KeyError(f"no decider for relation {rid!r}")
    if isinstance(a, ClassKey) or isinstance(b, ClassKey):
        if not (isinstance(a, ClassKey) and isinstance(b, ClassKey)
                and a.rid == rel.rid == b.rid):
            raise UnsupportedDescriptor("mismatched class-key payloads")
        return a.key == b.key
    return rel.decide(a, b)


def _keyed(keyfn):
    return lambda a, b: keyfn(_sem(a)) == keyfn(_sem(b))


def _decide_eq_ce(a, b):
    if _columnish(a) or _columnish(b):
        return _columns_agree(a, b, ana_eq, ana_eq)
    return ana_eq(_sem(a), _sem(b))


def _decide_e0(a, b):
    if _columnish(a) or _columnish(b):
        return _columns_agree(a, b, ana_almost_eq, ana_eq)
    return ana_almost_eq(_sem(a), _sem(b))


def _decide_iso(a, b):
    return digraph_canonical(_edges_of(a)) == digraph_canonical(_edges_of(b))


def _decide_eq_nat(a, b):
    if not all(type(x) is int and x >= 0 for x in (a, b)):
        raise UnsupportedDescriptor("expected naturals")
    return a == b


def _decide_tuple_eq(a, b):
    if not (isinstance(a, NceTuple) and isinstance(b, NceTuple)):
        raise UnsupportedDescriptor("expected difference/union tuples")
    return a.value() == b.value()


register_relation(
    "eq_ce", _decide_eq_ce, level="Pi-0-2-complete",
    doc="extensional equality of enumerated sets",
)
register_relation(
    "e0", _decide_e0,
    level="Sigma-0-3-complete", doc="finite symmetric difference",
)
register_relation(
    "e1", _decide_e1, level="Pi-0-3",
    doc="all but finitely many columns equal",
)
register_relation(
    "e2", lambda a, b: ana_almost_eq(_sem(a), _sem(b)), level="Sigma-0-3",
    doc="symmetric difference of finite harmonic weight",
)
register_relation(
    "e3", lambda a, b: _columns_agree(a, b, ana_almost_eq, ana_almost_eq),
    level="Pi-0-4",
    doc="every column pair almost equal",
)
register_relation(
    "eset", lambda a, b: column_family_key(a) == column_family_key(b),
    level="Pi-0-3-complete", doc="equality of enumerated column families",
)
register_relation(
    "z0", lambda a, b: ana_almost_eq(_sem(a), _sem(b)), level="Pi-0-3",
    doc="symmetric difference of vanishing density",
)
register_relation("e_min", _keyed(min_key), level="Delta-0-2",
                  doc="equal minima (or both empty)")
register_relation("e_max", _keyed(max_key), level="Pi-0-2-complete",
                  doc="equal maxima (both empty / both unbounded)")
register_relation("e_med", _keyed(med_key),
                  doc="equal medians of finite nonempty sets")
register_relation("e_gcd", _keyed(gcd_key),
                  doc="equal gcd of all elements (infinite for subsets of {0})")
register_relation("e_lcm", _keyed(lcm_key),
                  doc="equal lcm of the positive elements")
register_relation("el_omega", _keyed(sup_key),
                  doc="equal cuts induced in the order omega")
register_relation("h_omega", _keyed(hull_key),
                  doc="equal convex hulls in the order omega")
register_relation("eq_nat", _decide_eq_nat, doc="equality of naturals")
register_relation("eq_1", _keyed(one_equivalence_key),
                  level="Sigma-0-3-complete",
                  doc="matching cardinality and co-cardinality")
register_relation("eq_m", _keyed(many_one_key), level="Sigma-0-3-complete",
                  doc="many-one interreducibility of decidable sets")
register_relation("eq_T", lambda a, b: True, level="Sigma-0-3-complete",
                  doc="Turing interreducibility of decidable sets")
register_relation("iso_bin", _decide_iso, level="Sigma-1-1-complete",
                  doc="isomorphism of binary structures")
register_relation("compiso_bin", _decide_iso, level="Sigma-0-3",
                  doc="computable isomorphism of binary structures")
register_relation("eq_nce", _decide_tuple_eq, level="Pi-0-2",
                  doc="equality of iterated difference/union combinations")
register_relation("eq_ltomega", _decide_tuple_eq,
                  doc="equality across all finite difference levels")
register_relation("ufomega", None,
                  doc="orbit relation of a free group action (node only)")
register_relation("egamma", None,
                  doc="orbit relation of a finite group action (node only)")
