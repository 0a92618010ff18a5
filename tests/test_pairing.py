"""Pairing and sequence codings are bijections."""

from itertools import repeat

from hypothesis import example, given, strategies as st

from celab.pairing import (column, pair, pairs, row, unpair, triple,
                           untriple, seq_encode, seq_decode, set_encode,
                           set_decode)

nats = st.integers(min_value=0, max_value=10 ** 6)
small = st.integers(min_value=0, max_value=2000)


@given(small, small)
def test_pair_unpair_roundtrip(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(nats)
def test_unpair_pair_roundtrip(n):
    a, b = unpair(n)
    assert pair(a, b) == n


@given(small, small, small)
def test_triple_roundtrip(a, b, c):
    assert untriple(triple(a, b, c)) == (a, b, c)


def test_pair_is_monotone_in_components():
    # components never exceed the code, so bounded searches terminate
    for n in range(500):
        a, b = unpair(n)
        assert a <= n and b <= n


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=6))
def test_seq_roundtrip(xs):
    assert seq_decode(seq_encode(tuple(xs))) == tuple(xs)


@given(nats)
def test_seq_decode_total(n):
    assert seq_encode(seq_decode(n)) == n


@given(st.frozensets(st.integers(min_value=0, max_value=40), max_size=10))
def test_set_roundtrip(s):
    assert set_decode(set_encode(s)) == frozenset(s)


@given(st.integers(min_value=0, max_value=10 ** 9))
def test_set_decode_total(n):
    assert set_encode(set_decode(n)) == n


# past 2^64, so that no batch form may lean on a fixed-width shortcut
huge = st.integers(min_value=0, max_value=2 ** 80)


@given(huge, st.lists(huge, max_size=8), st.lists(huge, max_size=8))
@example(0, [], [])
@example(2 ** 64 + 1, [0, 2 ** 65, 3], [2 ** 64, 0])
def test_batch_pairs_are_pairs(c, ks, cs):
    assert pairs(cs, ks) == [pair(a, k) for a, k in zip(cs, ks)]
    # a row and a column: one side held fixed
    assert pairs(repeat(c), ks) == [pair(c, k) for k in ks]
    assert pairs(ks, repeat(c)) == [pair(k, c) for k in ks]
    assert pairs(range(len(ks)), repeat(c)) == [pair(a, c)
                                                for a in range(len(ks))]


@given(huge, st.integers(min_value=0, max_value=60))
@example(0, 0)
@example(0, 1)
@example(2 ** 64 + 1, 5)
def test_a_row_and_a_column_are_pairs(x, n):
    assert row(x, n) == [pair(c, x) for c in range(n)]
    assert column(x, n) == [pair(x, k) for k in range(n)]
