"""The command-line surface, driven through main() in-process."""

import contextlib
import io
import json
import os
import random
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from celab.cli import main
from celab.descriptors import (Cofinite, Descriptor, DyadicBlocks, Finite,
                               Progression, Union, compile_descriptor,
                               member)
from celab.pairing import pair
from celab.programs import Evaluator
from celab.reductions import REDUCTIONS
from celab.relations import NceTuple
from celab.serialization import term_from_sexpr, term_to_sexpr


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_prints_relations_and_reductions(capsys):
    code, out = run(capsys, "list")
    assert code == 0
    assert "eq_ce" in out and "eqce_to_e0" in out


def test_enumerate_prints_the_approximation(capsys):
    code, out = run(capsys, "enumerate", "--term", "(script (0 (5)))",
                    "--stage", "3")
    assert code == 0
    assert out.strip() == "{5}"


def test_reduce_emits_a_program_term(capsys):
    code, out = run(capsys, "reduce", "--reduction", "eqce_to_e0",
                    "--term", "(script (0 (1 2)))")
    assert code == 0
    assert out.startswith("(combinator expand_columns")


@pytest.mark.parametrize("name", sorted(
    name for name, red in REDUCTIONS.items() if red.combinator))
def test_reduce_prints_the_build_program(capsys, name):
    """The printed program is the build's own: same combinator, same
    parameters, so it enumerates what the build's term enumerates."""
    red = REDUCTIONS[name]
    payload = Finite(frozenset({1, 3, 4}))
    if isinstance(red.gen_case(random.Random(0))[0], NceTuple):
        payload = NceTuple((payload,))
    built = red.build(payload)
    (argument,) = built.term.args
    code, out = run(capsys, "reduce", "--reduction", name,
                    "--term", term_to_sexpr(argument))
    assert code == 0
    term = term_from_sexpr(out)
    assert term.cid == red.combinator
    assert Evaluator().approx(term, 40) == Evaluator().approx(built.term, 40)


def test_verify_clean_run_exits_zero(capsys):
    code, out = run(capsys, "verify", "--reduction", "emed_to_e0",
                    "--seed", "7", "--size", "12")
    assert code == 0
    report = json.loads(out)
    assert report["agreements"] == report["cases"] == 12
    assert "elapsed" not in report


# min_to_gcd is checked by a validator, eqce_to_e0 by its window
@pytest.mark.parametrize("name", ["eqce_to_e0", "min_to_gcd"])
def test_verify_unknown_budget_exits_three(capsys, name):
    code, _ = run(capsys, "verify", "--reduction", name,
                  "--size", "3", "--budget", "1")
    assert code == 3


def test_hierarchy_matches_figure_two_golden(capsys, tmp_path):
    code, out = run(capsys, "hierarchy", "--format", "dot", "--figure", "2")
    assert code == 0
    assert out == (Path(__file__).parent / "goldens" / "fig2.dot").read_text()


def test_corpus_write_and_recheck(capsys, tmp_path):
    path = tmp_path / "corpus.json"
    code, _ = run(capsys, "corpus", "--reduction", "cut_omega",
                  "--seed", "2", "--size", "10", "--out", str(path))
    assert code == 0
    code, out = run(capsys, "corpus", "--in", str(path))
    assert code == 0 and "10 cases" in out
    code, _ = run(capsys, "verify", "--reduction", "cut_omega",
                  "--corpus", str(path))
    assert code == 0


def test_bad_inputs_exit_four(capsys):
    assert run(capsys, "verify", "--reduction", "nope")[0] == 4
    assert run(capsys, "enumerate", "--term", "(oops")[0] == 4
    assert run(capsys, "hierarchy", "--figure", "99")[0] == 4
    assert run(capsys, "corpus", "--in", "/nonexistent.json")[0] == 4
    for argv in (["verify", "--reduction", "e0_to_e1", "--size", "0"],
                 ["verify", "--reduction", "e0_to_e1", "--size", "-3"],
                 ["verify", "--reduction", "e0_to_e1", "--size", "3",
                  "--window", "-1"],
                 ["corpus", "--reduction", "e0_to_e1", "--size", "0"]):
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["frobnicate"]) == 4


@pytest.mark.parametrize("argv", [
    ["hierarchy"],
    ["verify", "--reduction", "emed_to_e0", "--size", "2"],
    ["corpus", "--reduction", "cut_omega", "--size", "2"],
], ids=["hierarchy", "verify", "corpus"])
@pytest.mark.parametrize("out", ["missing/report.json", "."])
def test_out_that_cannot_be_written_exits_four(capsys, tmp_path, argv, out):
    """A missing directory or a directory itself as --out."""
    assert main(argv + ["--out", str(tmp_path / out)]) == 4
    assert capsys.readouterr().err.startswith("error: cannot write ")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--term", "(script (0 (5)))"],
    ["verify", "--reduction", "emed_to_e0", "--size", "2"],
], ids=["enumerate", "verify"])
def test_malformed_step_budget_exits_four(capsys, monkeypatch, argv):
    monkeypatch.setenv("CELAB_STEP_BUDGET", "abc")
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: CELAB_STEP_BUDGET must be an integer")


def test_enumerate_past_the_step_budget_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("CELAB_STEP_BUDGET", "50")
    code, out = run(capsys, "enumerate", "--term", "(fullcolumn 3)",
                    "--stage", "100")
    assert code == 3 and out == ""


def test_enumerating_a_huge_block_ends_on_the_step_budget(capsys,
                                                         monkeypatch):
    """Weight block 10^6 starts near 3^(10^6): its words are charged
    before it is built, so the run exits 3 at once."""
    monkeypatch.setenv("CELAB_STEP_BUDGET", "1000")
    started = time.monotonic()
    code, out = run(capsys, "enumerate", "--term",
                    "(combinator block_union ((script (0 (1000000)))) (1))",
                    "--stage", "19")
    assert code == 3 and out == "" and time.monotonic() - started < 0.1


@pytest.mark.parametrize("term", [
    "(script)", "(script (3 (4 9)))", "(indexed 0)",
    "(combinator from_descriptor () (5786 0))"])
def test_enumerating_a_closing_term_at_a_huge_stage_is_cheap(capsys, term):
    """A closed program costs nothing per later stage, so a stage far
    past any step budget still answers at once."""
    code, out = run(capsys, "enumerate", "--term", term,
                    "--stage", str(10 ** 10))
    assert code == 0 and out.startswith("{")


@pytest.mark.parametrize("d", [
    Finite({10 ** 9}),
    Progression(10 ** 12, 10 ** 12 + 1),
    Union(tuple(Progression(7, p) for p in (999_983, 1_000_003, 999_979))),
    DyadicBlocks(Cofinite(())),
])
def test_enumerating_a_descriptor_with_huge_constants_is_prompt(capsys, d):
    """from_descriptor reads its descriptor a range of candidates at a
    time, in memory proportional to the range: an analysis of any of
    these would build a bitset as long as a constant in it."""
    term = term_to_sexpr(compile_descriptor(d, delay=1).term)
    started = time.monotonic()
    code, out = run(capsys, "enumerate", "--term", term, "--stage", "700")
    assert code == 0 and time.monotonic() - started < 5
    want = ", ".join(str(x) for x in range(700) if member(d, x))
    assert out.strip() == "{" + want + "}"


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 * 10 ** 5),
       st.integers(min_value=0, max_value=40))
def test_enumerating_any_code_under_a_small_budget_exits_0_or_3(code,
                                                                  stage):
    with mock.patch.dict(os.environ, {"CELAB_STEP_BUDGET": "500"}), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["enumerate", "--term", f"(indexed {code})",
                     "--stage", str(stage)]) in (0, 3)


def test_verify_rejects_a_corpus_of_another_relation(capsys, tmp_path):
    path = tmp_path / "corpus.json"
    code, _ = run(capsys, "corpus", "--reduction", "eqce_to_e0",
                  "--seed", "2", "--size", "4", "--out", str(path))
    assert code == 0
    # eqce_to_e0 verifies eq_ce corpora; e0_to_e1 needs e0 ones
    assert run(capsys, "verify", "--reduction", "e0_to_e1",
               "--corpus", str(path))[0] == 4


def test_malformed_corpus_exits_four(capsys, tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(
        {"version": 1, "relation": "eq_ce", "seed": 1, "cases": 5}))
    assert run(capsys, "verify", "--reduction", "eqce_to_e0",
               "--corpus", str(path))[0] == 4
    assert run(capsys, "corpus", "--in", str(path))[0] == 4


def test_corpus_case_the_oracle_refuses_exits_four(capsys, tmp_path):
    # the isomorphism oracle brute-forces at most 8 vertices
    path_graph = " ".join(str(pair(v, v + 1)) for v in range(9))
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(
        {"version": 1, "relation": "compiso_bin", "seed": 1, "cases": [
            {"descA": f"(finite {path_graph})", "descB": "(finite)",
             "expected": False}]}))
    assert run(capsys, "corpus", "--in", str(path))[0] == 4
    assert run(capsys, "verify", "--reduction", "compiso_to_eset",
               "--corpus", str(path))[0] == 4


_D = "(finite 1 2)"
# one-case corpora, as (relation, a reduction from it, descA, descB,
# expected), whose payload or verdict is not of the JSON type it must be
MALFORMED_CASES = {
    "float": ("eq_ce", "eqce_to_e0", 1.5, _D, True),
    "null": ("eq_ce", "eqce_to_e0", None, _D, True),
    "object": ("eq_ce", "eqce_to_e0", {"a": 1}, _D, True),
    "list-holding-a-float": ("eq_nce", "nce_embed", [1.5], [_D], True),
    "list-holding-null": ("eq_nce", "nce_embed", [None], [_D], True),
    "list-holding-an-object": ("eq_nce", "nce_embed", [{}], [_D], True),
    "negative-natural": ("eq_nat", "eqnat_to_emin", -3, -3, True),
    "bool-natural": ("eq_nat", "eqnat_to_emin", True, 1, True),
    "descriptor-for-a-natural": ("eq_nat", "eqnat_to_emin", _D, _D, True),
    "list-for-a-natural": ("eq_nat", "eqnat_to_emin", [_D], [_D], True),
    "too-large-to-analyse": ("eq_ce", "eqce_to_e0",
                             "(finite 99999999999999999999999)", _D, False),
    "expected-no": ("eq_ce", "eqce_to_e0", _D, _D, "no"),
    "expected-one": ("eq_ce", "eqce_to_e0", _D, _D, 1),
}


def _write_corpus(path, relation, cases):
    path.write_text(json.dumps({"version": 1, "relation": relation,
                                "seed": 1, "cases": cases}))


@pytest.mark.parametrize("verb", ["corpus", "verify"])
@pytest.mark.parametrize("name", sorted(MALFORMED_CASES))
def test_a_malformed_corpus_case_exits_four(capsys, tmp_path, name, verb):
    relation, reduction, a, b, expected = MALFORMED_CASES[name]
    path = tmp_path / "corpus.json"
    _write_corpus(path, relation,
                  [{"descA": a, "descB": b, "expected": expected}])
    argv = (["corpus", "--in"] if verb == "corpus"
            else ["verify", "--reduction", reduction, "--corpus"])
    assert main([*argv, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad corpus file: ")
    assert captured.err.count("\n") == 1


def test_a_natural_too_large_for_the_target_exits_four(capsys, tmp_path):
    # 10^30 is a natural, so the corpus reads; the e_min side of
    # eqnat_to_emin then analyses the singleton {10^30}
    path = tmp_path / "corpus.json"
    _write_corpus(path, "eq_nat", [{"descA": 10 ** 30, "descB": 10 ** 30,
                                    "expected": True}])
    assert run(capsys, "corpus", "--in", str(path))[0] == 0
    assert main(["verify", "--reduction", "eqnat_to_emin", "--corpus",
                 str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad corpus file: an element too large"
                            " to analyse\n")


@pytest.mark.parametrize("argv", [
    ("corpus", "--in"),
    ("verify", "--reduction", "eqce_to_e0", "--corpus"),
    # saturate_up verifies e_min corpora: an empty one of eq_ce must not
    # pass its relation check by having no case to check
    ("verify", "--reduction", "saturate_up", "--corpus"),
])
def test_an_empty_corpus_exits_four(capsys, tmp_path, argv):
    path = tmp_path / "corpus.json"
    _write_corpus(path, "eq_ce", [])
    assert main([*argv, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad corpus file: corpus cases must be"
                            " a nonempty list\n")


def test_a_corpus_of_empty_tuples_verifies(capsys, tmp_path):
    # the fold of no parts is the empty set
    path = tmp_path / "corpus.json"
    _write_corpus(path, "eq_nce", [{"descA": [], "descB": [],
                                    "expected": True}])
    assert run(capsys, "verify", "--reduction", "nce_embed",
               "--corpus", str(path))[0] == 0


# block unions that the analysis keeps symbolic: two with an infinite,
# co-infinite index set and one whose block ends past the
# materialization cap
BLOCK_PAYLOADS = ["(weight (progression 0 2))", "(dyadic (progression 1 2))",
                  "(dyadic (finite 16))"]


@pytest.mark.parametrize("payload", BLOCK_PAYLOADS)
@pytest.mark.parametrize("name", sorted(
    name for name, red in REDUCTIONS.items()
    if isinstance(red.gen_case(random.Random(0))[0], Descriptor)))
def test_a_block_image_payload_ends_in_an_exit_code(capsys, tmp_path, name,
                                                    payload):
    red = REDUCTIONS[name]
    path = tmp_path / "corpus.json"
    _write_corpus(path, red.source, [{"descA": payload, "descB": payload,
                                      "expected": True}])
    code = main(["verify", "--reduction", name, "--corpus", str(path)])
    assert code in (0, 3, 4)
    if code == 4:
        assert capsys.readouterr().err.startswith("error: bad corpus file: ")


@pytest.mark.parametrize("name", ["min_to_gcd", "max_to_lcm"])
def test_a_factorial_key_is_never_built(capsys, tmp_path, name):
    """The predicted key of a payload whose minimum or maximum is 2^21 - 1
    names its factorial instead of computing it, so the run ends on the
    stage budget at once."""
    red = REDUCTIONS[name]
    path = tmp_path / "corpus.json"
    _write_corpus(path, red.source, [{"descA": "(dyadic (finite 20))",
                                      "descB": "(dyadic (finite 20))",
                                      "expected": True}])
    started = time.monotonic()
    code = main(["verify", "--reduction", name, "--corpus", str(path)])
    assert code == 3 and time.monotonic() - started < 2


def _nested(depth):
    term = "(fullcolumn 0)"
    for _ in range(depth):
        term = f"(combinator saturate_up ({term}) ())"
    return term


@pytest.mark.parametrize("argv", [
    ("enumerate", "--stage", "3"),
    ("reduce", "--reduction", "eqce_to_e0"),
])
def test_too_deep_a_term_exits_four(capsys, argv):
    assert main([*argv, "--term", _nested(3000)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: term nested too deeply\n"


def test_too_deep_an_evaluation_exits_four(capsys):
    # readable, but evaluating it recurses two frames per level;
    # 330 is the least depth at which `celab enumerate` run from a shell
    # exits 4
    assert main(["enumerate", "--term", _nested(330), "--stage", "3"]) == 4
    assert capsys.readouterr().err == \
        "error: term nested too deeply to evaluate\n"


def test_an_element_too_large_to_print_exits_four(capsys):
    # (m + 2)! of the running maximum passes the int-to-str digit limit
    assert main(["enumerate", "--term",
                 "(combinator max_factorials ((fullcolumn 0)) ())",
                 "--stage", "100"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _nested_union(depth):
    desc = "(finite 2)"
    for _ in range(depth):
        desc = f"(union {desc})"
    return desc


@pytest.mark.parametrize("argv", [
    ("verify", "--reduction", "e0_to_e1", "--corpus"),
    ("corpus", "--in"),
])
def test_a_corpus_too_deep_to_decide_exits_four(capsys, tmp_path, argv):
    # readable at this depth, but deciding its verdict recurses through
    # the analysis once per level
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(
        {"version": 1, "relation": "e0", "seed": 1, "cases": [
            {"descA": _nested_union(400), "descB": "(finite)",
             "expected": True}]}))
    assert main([*argv, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad corpus file: descriptor nested too"
                            " deeply to decide\n")
