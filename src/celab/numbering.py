"""A bijective numbering of program terms.

Every natural is the code of exactly one canonical term and vice versa:
``decode(encode(t)) == t`` for canonical ``t`` and
``encode(decode(n)) == n`` for every ``n``.  The low two bits select the
constructor::

    4q + 0  Script         q = seq of per-entry pair(gap, mask - 1)
    4q + 1  FullColumnOf   q = column index
    4q + 2  Combinator     q = pair(variant*K + idx, pair(seq(args), seq(params)))
    4q + 3  Indexed        q = inner code

Script entries are coded by stage gaps (first stage, then successive
differences minus one) and nonempty element bitmasks, which matches the
canonical-form invariants exactly.  Combinators are numbered through the
append-only id table ``COMBINATOR_CODES`` (size K); the ``variant`` tag
soaks up the codes beyond the table so the map stays a bijection.
"""

from __future__ import annotations

import bisect

from .pairing import pair, unpair, seq_encode, seq_decode, set_encode, set_decode
from .programs import Script, FullColumnOf, Combinator, Indexed, Term

# Combinator codes index this table, not the live registry, so a code
# (indexed n) names the same term in every release.  Append new ids at
# the end; never reorder or reuse a slot.  A retired id keeps its slot
# and decodes to an unregistered combinator, which enumerates nothing.
COMBINATOR_CODES = (
    "block_union",
    "cut_below",                  # retired: saturate_down with trim + 1
    "expand_columns",
    "expand_columns_swapped",     # retired: replicate_columns
    "from_descriptor",
    "group_columns",              # retired
    "interval_hull",
    "level_columns",
    "max_factorials",
    "median_multiples",
    "membership_tree",
    "min_factorials",
    "perm_copies",
    "permute_columns_mod",        # retired
    "prefix_family",
    "prefix_substitution",        # retired
    "prefixed_columns",
    "rational_cut",
    "replicate_columns",
    "replicate_columns_shifted",  # retired
    "saturate_down",
    "saturate_up",
    "scaled_blocks",
    "stage_gcds",
    "stage_lcms",
    "star_edges",
    "tail_columns",
    "tail_columns_short",         # retired
    "translate_mod",              # retired
    "triadic_cut",
)
_CODE_OF = {cid: i for i, cid in enumerate(COMBINATOR_CODES)}


def encode(term: Term) -> int:
    if isinstance(term, Script):
        parts = []
        prev = -1
        seen: list = []  # sorted elements of earlier entries
        for stage, elems in term.entries:
            gap = stage - prev - 1
            if not elems:
                raise ValueError("non-canonical script: empty stage set")
            # positional mask: bit r selects the r-th smallest natural
            # not used by earlier entries (keeps the coding bijective)
            ranks = frozenset(
                x - bisect.bisect_left(seen, x) for x in elems
            )
            parts.append(pair(gap, set_encode(ranks) - 1))
            prev = stage
            for x in elems:
                bisect.insort(seen, x)
        return 4 * seq_encode(tuple(parts))
    if isinstance(term, FullColumnOf):
        return 4 * term.c + 1
    if isinstance(term, Combinator):
        idx = _CODE_OF.get(term.cid)
        if idx is None:
            raise ValueError(f"combinator {term.cid!r} has no code")
        if term.variant < 0 or any(p < 0 for p in term.params):
            raise ValueError("combinator parameters must be naturals")
        cidx = term.variant * len(COMBINATOR_CODES) + idx
        argcode = seq_encode(tuple(encode(a) for a in term.args))
        q = pair(cidx, pair(argcode, seq_encode(term.params)))
        return 4 * q + 2
    if isinstance(term, Indexed):
        return 4 * term.code + 3
    raise TypeError(f"not a program term: {term!r}")


def decode(code: int) -> Term:
    q, tag = divmod(code, 4)
    if tag == 0:
        entries = []
        prev = -1
        seen: list = []
        for part in seq_decode(q):
            gap, mask = unpair(part)
            stage = prev + 1 + gap
            elems = set()
            for r in set_decode(mask + 1):
                # the r-th smallest natural unused before this entry
                x = r
                while True:
                    x2 = r + bisect.bisect_right(seen, x)
                    if x2 == x:
                        break
                    x = x2
                elems.add(x)
            entries.append((stage, frozenset(elems)))
            for x in elems:
                bisect.insort(seen, x)
            prev = stage
        return Script(tuple(entries))
    if tag == 1:
        return FullColumnOf(q)
    if tag == 2:
        cidx, rest = unpair(q)
        argcode, paramcode = unpair(rest)
        variant, idx = divmod(cidx, len(COMBINATOR_CODES))
        args = tuple(decode(a) for a in seq_decode(argcode))
        return Combinator(COMBINATOR_CODES[idx], args, seq_decode(paramcode),
                          variant)
    return Indexed(q)
