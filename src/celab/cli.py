"""Command-line surface: list, enumerate, reduce, verify, hierarchy, corpus.

Exit codes: 0 success, 2 verification disagreement, 3 unknown verdicts
remain, 4 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .harness import (DEFAULT_BUDGET, DEFAULT_WINDOW, corpus_from_json,
                      corpus_to_json, exit_code, gen_corpus, verify_reduction)
from .descriptors import EMPTY, UnsupportedDescriptor
from .hierarchy import BY_NUMBER, render, render_all
from .programs import BudgetExceeded, Evaluator, step_budget
from .reductions import REDUCTIONS
from .relations import RELATIONS, NceTuple
from .serialization import ParseError, term_from_sexpr, term_to_sexpr

EXIT_OK = 0
EXIT_DISAGREEMENT = 2
EXIT_UNKNOWN = 3
EXIT_INPUT = 4


class InputError(Exception):
    pass


def _write(text: str, out: str) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _step_budget() -> int:
    try:
        return step_budget()
    except ValueError as exc:
        raise InputError(f"CELAB_STEP_BUDGET must be an integer ({exc})")


def cmd_list(args) -> int:
    print("relations:")
    for rid in sorted(RELATIONS):
        rel = RELATIONS[rid]
        kind = "decidable" if rel.decide is not None else "node-only"
        level = rel.level or "-"
        print(f"  {rid:14s} {kind:10s} {level:12s} {rel.doc}")
    print("reductions:")
    for name in sorted(REDUCTIONS):
        red = REDUCTIONS[name]
        print(f"  {name:22s} {red.source:12s} -> {red.target:12s} {red.doc}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    try:
        term = term_from_sexpr(args.term)
    except ParseError as exc:
        raise InputError(str(exc))
    ev = Evaluator(_step_budget())
    try:
        elems = sorted(ev.approx(term, args.stage))
    except BudgetExceeded as exc:
        print(f"error: {exc} before stage {args.stage}", file=sys.stderr)
        return EXIT_UNKNOWN
    except RecursionError:
        # evaluation, and decoding an (indexed n), recurse per level
        raise InputError("term nested too deeply to evaluate")
    try:
        text = ", ".join(str(x) for x in elems)
    except ValueError:
        # int-to-str conversion refuses integers past a digit limit
        raise InputError(f"an element is too large to print (over"
                         f" {sys.get_int_max_str_digits()} digits)")
    print("{" + text + "}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    red = REDUCTIONS.get(args.reduction)
    if red is None:
        raise InputError(f"no reduction named {args.reduction!r}")
    if not red.combinator:
        raise InputError(
            f"{args.reduction} has no single-combinator program form")
    try:
        term = term_from_sexpr(args.term)
    except ParseError as exc:
        raise InputError(str(exc))
    # the build's own term on a fixed payload carries the construction's
    # parameters; only its argument is the user's
    payload = NceTuple((EMPTY,)) if red.payload_kind == "nce" else EMPTY
    out = replace(red.build(payload).term, args=(term,))
    try:
        text = term_to_sexpr(out)
    except RecursionError:
        raise InputError("term nested too deeply to print")
    print(text)
    return EXIT_OK


def _read_corpus(path: str) -> list:
    try:
        with open(path) as fh:
            return corpus_from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, ParseError,
            UnsupportedDescriptor) as exc:
        raise InputError(f"bad corpus file: {exc}")
    except OverflowError:
        # deciding a verdict analyses each element, and one can be too
        # large to analyse
        raise InputError("bad corpus file: an element too large to"
                         " analyse")
    except RecursionError:
        # the reader takes nesting its builders can recurse through, but
        # re-deciding a verdict recurses deeper, once per level
        raise InputError("bad corpus file: descriptor nested too deeply"
                         " to decide")


def _check_size(size: int) -> None:
    if size < 1:
        raise InputError(f"corpus size must be at least 1, not {size}")


def cmd_verify(args) -> int:
    red = REDUCTIONS.get(args.reduction)
    if red is None:
        raise InputError(f"no reduction named {args.reduction!r}")
    # a negative window certifies nothing: the report would read clean
    if args.window is not None and args.window < 0:
        raise InputError(f"window must be at least 0, not {args.window}")
    _step_budget()  # the harness's evaluators read it
    corpus = None
    if args.corpus:
        corpus = _read_corpus(args.corpus)
        # a corpus verdict is one of the source relation: under any
        # other relation a correct reduction would be blamed
        if any(case.source != red.source for case in corpus):
            raise InputError(
                f"corpus relation {corpus[0].source!r} is not the source"
                f" {red.source!r} of {red.name}")
    else:
        _check_size(args.size)
    try:
        report = verify_reduction(
            args.reduction, corpus=corpus, seed=args.seed, size=args.size,
            budget=args.budget, window=args.window)
    except OverflowError:
        # an element can pass the source relation's check and still be
        # too large for the target's analysis
        raise InputError("bad corpus file: an element too large to"
                         " analyse")
    except UnsupportedDescriptor as exc:
        # a payload the source relation decides can still fall outside
        # what the image's analysis or construction handles
        raise InputError(f"bad corpus file: {exc}")
    _write(report.to_bytes().decode() + "\n", args.out)
    return exit_code(report)


def cmd_hierarchy(args) -> int:
    if args.figure is not None and args.figure not in BY_NUMBER:
        raise InputError(f"no diagram numbered {args.figure}")
    if args.figure is None:
        text = render_all(args.format)
    else:
        text = render(args.figure, args.format)
    _write(text, args.out)
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.infile:
        cases = _read_corpus(args.infile)
        eq = sum(1 for c in cases if c.expected)
        print(f"{len(cases)} cases ({eq} equivalent,"
              f" {len(cases) - eq} inequivalent), all verdicts re-checked")
        return EXIT_OK
    if not args.reduction or args.reduction not in REDUCTIONS:
        raise InputError(f"no reduction named {args.reduction!r}")
    _check_size(args.size)
    cases = gen_corpus(args.reduction, args.seed, args.size)
    data = corpus_to_json(args.reduction, args.seed, cases)
    _write(json.dumps(data, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celab",
        description="computable-reducibility laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("list", help="print relations and reductions")

    p = sub.add_parser("enumerate", help="print a stage approximation")
    p.add_argument("--term", required=True, help="program term s-expression")
    p.add_argument("--stage", type=int, default=0)

    p = sub.add_parser("reduce", help="apply a construction to a term")
    p.add_argument("--reduction", required=True)
    p.add_argument("--term", required=True)

    p = sub.add_parser("verify", help="run a reduction over a corpus")
    p.add_argument("--reduction", required=True)
    p.add_argument("--corpus", default="", help="corpus JSON file")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--size", type=int, default=50)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--window", type=int, default=None,
                   help=f"observation window (reduction default,"
                        f" up to {DEFAULT_WINDOW})")
    p.add_argument("--out", default="")

    p = sub.add_parser("hierarchy", help="emit the reducibility diagrams")
    p.add_argument("--format", choices=("json", "dot"), default="dot")
    p.add_argument("--figure", type=int, default=None)
    p.add_argument("--out", default="")

    p = sub.add_parser("corpus", help="write or re-check a corpus file")
    p.add_argument("--reduction", default="")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--size", type=int, default=50)
    p.add_argument("--in", dest="infile", default="")
    p.add_argument("--out", default="")
    return parser


COMMANDS = {
    "list": cmd_list,
    "enumerate": cmd_enumerate,
    "reduce": cmd_reduce,
    "verify": cmd_verify,
    "hierarchy": cmd_hierarchy,
    "corpus": cmd_corpus,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.verb](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
