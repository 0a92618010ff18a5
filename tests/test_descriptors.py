"""Descriptor analysis agrees with brute-force membership, and compiled
programs enumerate exactly the described sets."""

import contextlib
import json
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import celab  # noqa: F401
from celab import descriptors as D, relations as R
from celab.descriptors import (EMPTY, EP, FULL, BlockImage, Cofinite,
                               Columns, ColumnsBySet, Difference,
                               DyadicBlocks, Finite, OverrideColumns,
                               Progression, TailColumns, Union,
                               UnsupportedDescriptor, WeightBlocks, analyze,
                               block_of, columns_view, compile_descriptor,
                               decode_descriptor, dyadic_block,
                               ep_intersection, member, members,
                               region_pairs, weight_block)
from celab.harness import corpus_from_json, corpus_to_json, gen_corpus
from celab.pairing import unpair
from celab.programs import Evaluator
from celab.reductions import (compile_arg, gen_pair_columns,
                              random_ep_descriptor)
from celab.relations import NceTuple
from celab.serialization import desc_from_sexpr, desc_to_sexpr

WINDOW = 200


def brute(d):
    return {x for x in range(WINDOW + 1) if member(d, x)}


def descriptors(seed):
    rng = random.Random(seed)
    return [random_ep_descriptor(rng) for _ in range(60)]


@pytest.mark.parametrize("d", descriptors(11))
def test_analysis_matches_membership(d):
    ana = analyze(d)
    assert {x for x in range(WINDOW + 1) if ana.member(x)} == brute(d)


@pytest.mark.parametrize("d", descriptors(12))
def test_complement_is_involutive_on_window(d):
    ana = analyze(d)
    comp = ana.complement()
    for x in range(WINDOW + 1):
        assert comp.member(x) != ana.member(x)
    assert comp.complement() == ana


@pytest.mark.parametrize("d", [
    DyadicBlocks(Finite(frozenset({0, 3}))),
    DyadicBlocks(Cofinite(frozenset({1, 2}))),
    DyadicBlocks(FULL),
    WeightBlocks(EMPTY),
    WeightBlocks(Finite(frozenset({1, 3}))),
    WeightBlocks(Cofinite(frozenset({0, 2}))),
])
def test_materialized_block_images_match_membership(d):
    ana = analyze(d)
    assert isinstance(ana, EP)
    assert {x for x in range(WINDOW + 1) if ana.member(x)} == brute(d)


def _answers(ana, at_least):
    """What an analysis says to the questions EP and BlockImage share,
    and the keys the relations build from them."""
    def ask(question):
        try:
            return question()
        except UnsupportedDescriptor as exc:
            return f"unsupported: {exc}"
    return {
        "is_finite": ana.is_finite, "is_cofinite": ana.is_cofinite,
        "is_empty": ana.is_empty, "min": ana.min(),
        "min_at_least": ana.min(at_least), "max": ask(ana.max),
        "cardinality": ana.cardinality(),
        "cocardinality": ana.cocardinality(),
        **{key.__name__: ask(lambda: key(ana)) for key in (
            R.min_key, R.max_key, R.sup_key, R.hull_key,
            R.one_equivalence_key)},
    }


# index sets whose blocks end below MATERIALIZE_CAP for both kinds
_SMALL_INDEXES = st.one_of(
    st.builds(Finite, st.frozensets(st.integers(0, 9), max_size=4)),
    st.builds(Cofinite, st.frozensets(st.integers(0, 9), max_size=4)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["dyadic", "weight"]), _SMALL_INDEXES,
       st.integers(0, 20000))
def test_a_block_image_answers_like_its_materialized_ep(kind, index,
                                                       at_least):
    ep = analyze((DyadicBlocks if kind == "dyadic" else WeightBlocks)(index))
    assert isinstance(ep, EP)
    image = BlockImage(kind, analyze(index))
    assert _answers(image, at_least) == _answers(ep, at_least)


@pytest.mark.parametrize("d", descriptors(13))
def test_min_and_cardinality(d):
    ana = analyze(d)
    got = brute(d)
    if got:
        assert ana.min() == min(got)
    if ana.is_finite:
        assert ana.cardinality() == len(got)
        assert ana.max() == (max(got) if got else None)
    else:
        assert ana.cardinality() == math.inf


@pytest.mark.parametrize("d", descriptors(14))
def test_compiled_program_enumerates_the_set(d):
    built = compile_descriptor(d, delay=2)
    ev = Evaluator()
    s = built.settle(WINDOW)
    got = {x for x in ev.approx(built.term, s) if x <= WINDOW}
    assert got == brute(d)
    # settled: nothing changes on the window afterwards
    later = {x for x in ev.approx(built.term, s + 64) if x <= WINDOW}
    assert later == got


def test_compile_arg_lists_only_finite_eps_in_a_script():
    # dyadic block 16 is finite, but kept symbolic: too long to list
    blocks = DyadicBlocks(Finite(frozenset({16})))
    assert isinstance(analyze(blocks), BlockImage)
    assert analyze(blocks).is_finite
    rng = random.Random(3)
    kinds = {type(compile_arg(d, rng)[0]).__name__
             for d in (blocks, Finite(frozenset({16}))) for _ in range(20)}
    assert kinds == {"Combinator", "Script"}
    assert all(compile_arg(blocks, rng)[0].cid == "from_descriptor"
               for _ in range(20))


def test_weight_blocks_partition_the_naturals():
    edges = [weight_block(n) for n in range(14)]
    assert edges[0][0] == 0
    for (lo, hi), (lo2, hi2) in zip(edges, edges[1:]):
        assert hi == lo2 and lo < hi
    # every block carries harmonic weight >= 1 (exact on the small
    # greedy blocks; the later blocks triple, and [n, 3n) has harmonic
    # weight ln 3 > 1 whose cheapest certificate is hi >= 3 * lo)
    for lo, hi in edges[:7]:
        assert sum(Fraction(1, x + 1) for x in range(lo, hi)) >= 1
    for lo, hi in edges[11:]:
        assert hi + 1 >= 3 * (lo + 1)


def test_dyadic_blocks_partition_the_positives():
    edges = [dyadic_block(n) for n in range(10)]
    assert edges[0][0] == 1
    for (lo, hi), (lo2, hi2) in zip(edges, edges[1:]):
        assert hi == lo2 and lo < hi


@given(st.integers(min_value=0, max_value=5000))
def test_block_of_inverts_the_bounds(x):
    for kind in ("dyadic", "weight"):
        n = block_of(kind, x)
        if n is None:
            assert kind == "dyadic" and x == 0
        else:
            lo, hi = (dyadic_block if kind == "dyadic" else weight_block)(n)
            assert lo <= x < hi


def test_triadic_sums_separate_small_sets():
    seen = {}
    for mask in range(256):
        d = Finite(frozenset(i for i in range(8) if mask >> i & 1))
        key = analyze(d).triadic_sum()
        assert key not in seen or seen[key] == mask
        seen[key] = mask
    assert len(seen) == 256


def test_gcd_and_lcm_conventions():
    assert analyze(EMPTY).gcd_value() == math.inf
    assert analyze(Finite(frozenset({0}))).gcd_value() == math.inf
    assert analyze(Finite(frozenset({6, 10}))).gcd_value() == 2
    assert analyze(Progression(4, 4)).gcd_value() == 4
    assert analyze(EMPTY).lcm_value() == 1
    assert analyze(Finite(frozenset({0, 4, 6}))).lcm_value() == 12
    assert analyze(FULL).lcm_value() == math.inf


def test_e0_key_ignores_finite_modifications():
    base = Progression(3, 4)
    tweaked = Union((Difference(base, Finite(frozenset({7, 11}))),
                     Finite(frozenset({0, 2}))))
    assert analyze(base).e0_key() == analyze(tweaked).e0_key()
    assert analyze(base).e0_key() != analyze(Progression(3, 5)).e0_key()


def reference_minimal_period(period, residues):
    """The minimal-period search by full residue-set comparison."""
    for q in range(1, period + 1):
        if period % q:
            continue
        classes = frozenset(r % q for r in residues)
        if frozenset(r for r in range(period) if r % q in classes) == residues:
            return q, classes


def test_minimal_period_matches_the_set_comparison():
    rng = random.Random(5)
    for _ in range(3000):
        period = rng.randrange(1, 97)
        q = rng.choice([d for d in range(1, period + 1) if period % d == 0])
        classes = {r for r in range(q) if rng.random() < 0.5}
        residues = {r for r in range(period) if r % q in classes}
        if rng.random() < 0.5:
            residues ^= {rng.randrange(period)}  # break the period q
        residues = frozenset(residues)
        ep = EP.make(0, period, 0, sum(1 << r for r in residues))
        q, classes = reference_minimal_period(period, residues)
        assert (ep.period, ep.residues) == (q, sum(1 << r for r in classes))


def test_analysis_cache_stays_bounded():
    """The cache empties at its cap, and analyses after a clear are the
    same as before it."""
    from celab import descriptors as D
    n = 2 ** 14 + 1
    ds = [Finite(frozenset({i % 64, 64 + i // 64})) for i in range(n)]
    first = [analyze(d) for d in ds]
    assert len(D._ANALYSIS_CACHE) <= 2 ** 14
    assert [analyze(d) for d in ds] == first
    assert all(a.elements() == d.elems for a, d in zip(first, ds))


class CountingDict(dict):
    """A dict that counts how often it is read or written."""

    consulted = 0

    def get(self, key, default=None):
        self.consulted += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.consulted += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.consulted += 1
        return super().__contains__(key)

    def __setitem__(self, key, value):
        self.consulted += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("d", descriptors(17)[:20] + [
    DyadicBlocks(Progression(1, 2)), WeightBlocks(Finite({0, 2}))])
def test_a_second_analysis_reads_what_the_object_keeps(monkeypatch, d):
    cache = CountingDict()
    monkeypatch.setattr(D, "_ANALYSIS_CACHE", cache)
    first = analyze(d)
    consulted = cache.consulted
    assert consulted > 0
    assert analyze(d) is first
    assert cache.consulted == consulted


def test_equal_objects_read_back_from_json_share_one_analysis(monkeypatch):
    monkeypatch.setattr(D, "_ANALYSIS_CACHE", {})
    cases = gen_corpus("e0_to_e3", seed=4, size=12)
    back = corpus_from_json(json.loads(json.dumps(
        corpus_to_json("e0_to_e3", 4, cases))))
    for c, r in zip(cases, back):
        for d, e in ((c.a, r.a), (c.b, r.b)):
            assert e == d and e is not d
            assert analyze(e) is analyze(d)


@pytest.mark.parametrize("d", descriptors(19)[:20] + [
    DyadicBlocks(Progression(1, 2)), WeightBlocks(Finite({0, 2}))])
def test_a_kept_analysis_is_invisible(d):
    twin = desc_from_sexpr(desc_to_sexpr(d))
    assert twin == d and twin is not d
    analyze(d)
    assert d == twin and twin == d
    assert hash(d) == hash(twin)
    assert repr(d) == repr(twin)
    assert desc_to_sexpr(d) == desc_to_sexpr(twin)
    back = pickle.loads(pickle.dumps(d))
    assert back == twin and hash(back) == hash(twin)
    assert repr(back) == repr(twin)
    assert analyze(back) == analyze(twin) == analyze(d)


# ---------------------------------------------------------------------------
# region pairs of column views


_INDEX_SETS = st.one_of(
    st.builds(Finite, st.frozensets(st.integers(0, 9), max_size=3)),
    st.builds(Cofinite, st.frozensets(st.integers(0, 9), max_size=3)),
    st.builds(Progression, st.integers(0, 6), st.integers(1, 4)),
)
# explicit columns in any order, a column named twice now and then
_EXPLICIT = st.lists(st.tuples(st.integers(0, 8), _INDEX_SETS),
                     max_size=4).map(tuple)
_PLAIN_COLUMNS = st.one_of(
    st.builds(Columns, _EXPLICIT, _INDEX_SETS),
    st.builds(Finite, st.frozensets(st.integers(0, 80), max_size=8)),
    st.builds(ColumnsBySet, _INDEX_SETS, _INDEX_SETS, _INDEX_SETS),
)
_COLUMN_PAYLOADS = _PLAIN_COLUMNS | st.builds(OverrideColumns, _EXPLICIT,
                                              _PLAIN_COLUMNS)


def _singleton(region):
    return region.is_finite and region.cardinality() == 1


@settings(max_examples=300, deadline=None)
@given(_COLUMN_PAYLOADS, _COLUMN_PAYLOADS)
def test_region_pairs_match_the_intersection_of_all_pairs(a, b):
    va, vb = columns_view(a), columns_view(b)
    want = [(meet, ca, cb) for ra, ca in va.regions for rb, cb in vb.regions
            for meet in [ep_intersection(ra, rb)] if not meet.is_empty]

    def larger_only(ra, rb):
        assert not (_singleton(ra) or _singleton(rb))
        return ep_intersection(ra, rb)

    with mock.patch.object(D, "ep_intersection", larger_only):
        assert list(region_pairs(va, vb)) == want


# ---------------------------------------------------------------------------
# members: the bits of member on a range, in one walk


def member_bits(d, lo, hi):
    """members(d, lo, hi) by member."""
    return sum(1 << x - lo for x in range(lo, hi) if member(d, x))


def _drawn(kind, seed):
    rng = random.Random(seed)
    if kind == "ep":
        return random_ep_descriptor(rng, rng.choice([10, 40, 1000]))
    if kind == "blocks":
        shape = rng.choice([DyadicBlocks, WeightBlocks])
        return shape(random_ep_descriptor(rng, 16))
    if kind == "columns":
        d = rng.choice(gen_pair_columns(rng, rng.choice([6, 20])))
        roll = rng.randrange(4)
        if roll == 0:
            return TailColumns(random_ep_descriptor(rng))
        if roll == 1:
            cols = tuple((rng.randrange(60), random_ep_descriptor(rng))
                         for _ in range(rng.randrange(4)))
            return Columns(cols, random_ep_descriptor(rng))
        if roll == 2:
            cols = ((rng.randrange(40), random_ep_descriptor(rng)),)
            return OverrideColumns(cols, TailColumns(d))
        return d
    return decode_descriptor(rng.getrandbits(rng.choice([8, 32, 96, 200])))


# no decoded code or parsed s-expression makes these: each maps to the
# points of range(30) that member answers, as its walk stops before the
# step < 1 or the part that is no descriptor (a union at a part that
# holds x, a difference at a left side that lacks it); every other
# point meets it and raises UnsupportedDescriptor
_MEMBER_ANSWERS = {
    Progression(5, 0): set(),
    Progression(3, -2): set(),
    Union((FULL, Progression(0, 0))): set(range(30)),
    Union((EMPTY, Progression(20, 0))): set(),
    Difference(EMPTY, "junk"): set(range(30)),
    Difference(Progression(1, 3), Union((Finite({4}), "junk"))):
        {x for x in range(30) if x % 3 != 1} | {4},
    Columns(((3, "junk"),), FULL): {x for x in range(30) if unpair(x)[0] != 3},
    DyadicBlocks(Progression(2, 0)): {0},
    "junk": set(),
}
_MALFORMED = list(_MEMBER_ANSWERS)


@contextlib.contextmanager
def _no_point_tests():
    """Fail on any call of member or of a membership function in its
    dispatch table, whether through the table or by its name."""
    fail = mock.Mock(side_effect=AssertionError)
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(D, "member", fail))
        for fn in D._MEMBER.values():
            stack.enter_context(mock.patch.object(D, fn.__name__, fail))
        stack.enter_context(
            mock.patch.dict(D._MEMBER, dict.fromkeys(D._MEMBER, fail)))
        yield


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["ep", "blocks", "columns", "code"]),
       st.integers(0, 2 ** 32), st.integers(1, 5000), st.integers(1, 600))
def test_members_are_the_bits_of_member(kind, seed, lo, width):
    d = _drawn(kind, seed)
    # a well-formed descriptor is answered in one walk, with no point test
    with _no_point_tests():
        got = members(d, lo, lo + width)
    assert got == member_bits(d, lo, lo + width)


@pytest.mark.parametrize("d", [
    Columns(((2, FULL), (5, EMPTY), (2, EMPTY)), Progression(1, 2)),
    OverrideColumns(((2, Progression(0, 3)), (2, FULL)),
                    ColumnsBySet(Progression(0, 2), FULL, EMPTY)),
])
def test_members_read_the_first_of_repeated_columns(d):
    """Decoded codes can name a column twice; member reads the first."""
    for lo, hi in ((0, 100), (3, 40), (30, 31)):
        assert members(d, lo, hi) == member_bits(d, lo, hi)


@pytest.mark.parametrize("d", _MALFORMED, ids=repr)
@pytest.mark.parametrize("lo, hi", [(1, 30), (4, 700)])
def test_members_rejects_malformed_descriptors(d, lo, hi):
    """Like analyze, members rejects a step < 1 and a part that is no
    descriptor wherever its walk meets them (column 3 has codes in
    both ranges)."""
    with pytest.raises(UnsupportedDescriptor):
        members(d, lo, hi)


@pytest.mark.parametrize("d", _MALFORMED, ids=repr)
def test_member_rejects_malformed_descriptors(d):
    """member raises UnsupportedDescriptor wherever its walk meets a
    step < 1 or a part that is no descriptor, and answers elsewhere."""
    answered = set()
    for x in range(30):
        try:
            member(d, x)
        except UnsupportedDescriptor:
            continue
        answered.add(x)
    assert answered == _MEMBER_ANSWERS[d]


def test_every_descriptor_class_has_a_membership_function():
    assert D._MEMBER.keys() == D._TAGS.keys()


@pytest.mark.parametrize("d", [
    EP.from_finite((1, 2)), BlockImage("dyadic", EP.from_finite((1,))),
    NceTuple((FULL, EMPTY)), 3, "junk",
], ids=repr)
def test_member_rejects_what_is_no_descriptor(d):
    with pytest.raises(UnsupportedDescriptor, match="not a descriptor"):
        member(d, 1)


COPRIME = (999_983, 1_000_003, 999_979)  # three primes near 10^6

CRAFTED = [
    (Finite({10 ** 9}), 10 ** 9 - 300),
    (Finite({10 ** 9}), 1),
    (Cofinite({10 ** 9, 10 ** 9 + 2}), 10 ** 9 - 1),
    (Progression(10 ** 12, 10 ** 12 + 1), 10 ** 12 - 100),
    (Progression(10 ** 12, 10 ** 12 + 1), 2 * 10 ** 12 + 1 - 300),
    (Union(tuple(Progression(7, p) for p in COPRIME)), 2 * COPRIME[2]),
    (Difference(Union(tuple(Progression(0, p) for p in COPRIME)),
                Progression(0, COPRIME[0])), COPRIME[1] - 1),
    (DyadicBlocks(Cofinite(())), 2 ** 40),
    (DyadicBlocks(Cofinite(())), 2 ** 40 - 300),
    (WeightBlocks(Finite({60})), weight_block(60)[0] - 300),
    (TailColumns(Finite({10 ** 9})), 10 ** 6),
]


@pytest.mark.parametrize("d, lo", CRAFTED)
def test_members_allocate_nothing_in_proportion_to_a_constant(d, lo):
    """A descriptor whose constants are huge is answered in memory
    proportional to the range: analyze would build a bitset as long as
    the largest constant (or an lcm of periods)."""
    # in one walk: no point test
    with _no_point_tests():
        tracemalloc.start()
        try:
            got = members(d, lo, lo + 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 ** 20
    assert got == member_bits(d, lo, lo + 600)
