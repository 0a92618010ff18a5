"""The wire formats a release must keep.

``encode_descriptor`` fixes the parameter of every compiled program, and
so what an ``(indexed n)`` code means: one nested descriptor of each of
the 11 classes is pinned to its literal code, both ways.  A corpus file
must read the same in every release: the sha256 of each reduction's
seed-1 corpus, in the bytes ``celab corpus`` writes, is pinned in
``goldens/corpus_seed1.json``.  ``PYTHONPATH=src python
tests/test_wire_formats.py`` rewrites those pins.
"""

import hashlib
import json
from pathlib import Path

import pytest

import celab  # noqa: F401  (registers the reductions)
from celab.descriptors import decode_descriptor, encode_descriptor
from celab.harness import corpus_to_json, gen_corpus
from celab.reductions import REDUCTIONS
from celab.serialization import desc_from_sexpr

CODES = {
    "(finite 0 2 5)": 197505,
    "(cofinite 1 3)": 485,
    "(progression 2 3)": 134,
    "(union (finite 1) (progression 0 2))": 578911,
    "(difference (progression 1 2) (finite 3))": 84737,
    "(dyadic (progression 0 2))": 269,
    "(weight (finite 1 2))": 2426,
    "(columns ((1 (finite 2))) (progression 0 2))": 1339723954411,
    "(columnsbyset (progression 0 2) (finite 1) (cofinite))": 503016,
    "(tailcolumns (progression 1 2))": 515,
    "(overridecolumns ((0 (finite))) (tailcolumns (finite 0)))": 99461,
}
GOLDEN = Path(__file__).parent / "goldens" / "corpus_seed1.json"


def test_every_descriptor_class_is_pinned():
    assert len({type(desc_from_sexpr(s)) for s in CODES}) == 11


@pytest.mark.parametrize("sexpr", sorted(CODES))
def test_a_descriptor_code_is_pinned(sexpr):
    d = desc_from_sexpr(sexpr)
    assert encode_descriptor(d) == CODES[sexpr]
    assert decode_descriptor(CODES[sexpr]) == d


def _digest(name: str) -> str:
    """The sha256 of the seed-1 corpus file ``celab corpus`` writes."""
    data = corpus_to_json(name, 1, gen_corpus(name, seed=1))
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


def test_every_reduction_corpus_is_pinned(pinned):
    assert set(pinned) == set(REDUCTIONS)


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_a_corpus_file_is_pinned(pinned, name):
    assert _digest(name) == pinned.get(name), name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: _digest(name) for name in sorted(REDUCTIONS)},
        indent=1, sort_keys=True) + "\n")
