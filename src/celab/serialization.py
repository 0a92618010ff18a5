"""Textual s-expression form of program terms (CLI input/output).

Grammar::

    term   := (script entry*) | (fullcolumn NAT)
            | (combinator ID (term*) (NAT*) [NAT])   ; trailing variant
            | (indexed NAT)
    entry  := (NAT (NAT*))                           ; stage, elements
"""

from __future__ import annotations

from . import descriptors as D
from .programs import Script, FullColumnOf, Combinator, Indexed, Term, script


class ParseError(ValueError):
    pass


def term_to_sexpr(term: Term) -> str:
    if isinstance(term, Script):
        entries = " ".join(
            f"({stage} ({' '.join(str(x) for x in sorted(elems))}))"
            for stage, elems in term.entries
        )
        return f"(script {entries})" if entries else "(script)"
    if isinstance(term, FullColumnOf):
        return f"(fullcolumn {term.c})"
    if isinstance(term, Combinator):
        args = " ".join(term_to_sexpr(a) for a in term.args)
        params = " ".join(str(p) for p in term.params)
        base = f"(combinator {term.cid} ({args}) ({params})"
        if term.variant:
            base += f" {term.variant}"
        return base + ")"
    if isinstance(term, Indexed):
        return f"(indexed {term.code})"
    raise TypeError(f"not a program term: {term!r}")


def _tokenize(text: str) -> list:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list, what: str):
    """The one node that ``tokens`` spell: a symbol or a nested list.

    One pass with an explicit stack of the open lists, so nesting
    costs no recursion."""
    if not tokens:
        raise ParseError("unexpected end of input")
    rest = iter(tokens)
    node = next(rest)
    if node == ")":
        raise ParseError("unexpected ')'")
    if node == "(":
        node, stack = [], []
        for tok in rest:
            if tok == "(":
                stack.append(node)
                node = []
            elif tok == ")":
                if not stack:
                    break
                parent = stack.pop()
                parent.append(node)
                node = parent
            else:
                node.append(tok)
        else:
            raise ParseError("unbalanced parentheses")
    if next(rest, None) is not None:
        raise ParseError(f"trailing input after {what}")
    return node


def _nat(node) -> int:
    if not isinstance(node, str) or not node.isdigit():
        raise ParseError(f"expected a natural, got {node!r}")
    return int(node)


def _build(node) -> Term:
    if not isinstance(node, list) or not node:
        raise ParseError(f"expected a term, got {node!r}")
    head = node[0]
    if head == "script":
        pairs = []
        for entry in node[1:]:
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[1], list)):
                raise ParseError(f"bad script entry: {entry!r}")
            stage = _nat(entry[0])
            elems = {_nat(x) for x in entry[1]}
            pairs.append((stage, elems))
        return script(pairs)
    if head == "fullcolumn":
        if len(node) != 2:
            raise ParseError("fullcolumn takes one argument")
        return FullColumnOf(_nat(node[1]))
    if head == "combinator":
        if len(node) not in (4, 5):
            raise ParseError("combinator takes id, args, params[, variant]")
        cid = node[1]
        if not isinstance(cid, str):
            raise ParseError("combinator id must be a symbol")
        if not isinstance(node[2], list) or not isinstance(node[3], list):
            raise ParseError("combinator args/params must be lists")
        args = tuple(_build(a) for a in node[2])
        params = tuple(_nat(p) for p in node[3])
        variant = _nat(node[4]) if len(node) == 5 else 0
        return Combinator(cid, args, params, variant)
    if head == "indexed":
        if len(node) != 2:
            raise ParseError("indexed takes one argument")
        return Indexed(_nat(node[1]))
    raise ParseError(f"unknown term head {head!r}")


def _parse(text: str, build, what: str):
    node = _read(_tokenize(text), what)
    try:
        return build(node)
    except RecursionError:
        # the builders recurse once or twice per level of nesting
        raise ParseError(f"{what} nested too deeply") from None


def term_from_sexpr(text: str) -> Term:
    return _parse(text, _build, "term")


# ---------------------------------------------------------------------------
# descriptor constructor grammar (corpus files, CLI)


def desc_to_sexpr(d) -> str:
    if isinstance(d, D.Finite):
        body = " ".join(str(x) for x in sorted(d.elems))
        return f"(finite {body})" if body else "(finite)"
    if isinstance(d, D.Cofinite):
        body = " ".join(str(x) for x in sorted(d.excluded))
        return f"(cofinite {body})" if body else "(cofinite)"
    if isinstance(d, D.Progression):
        return f"(progression {d.start} {d.step})"
    if isinstance(d, D.Union):
        return "(union " + " ".join(desc_to_sexpr(p) for p in d.parts) + ")"
    if isinstance(d, D.Difference):
        return f"(difference {desc_to_sexpr(d.left)} {desc_to_sexpr(d.right)})"
    if isinstance(d, D.DyadicBlocks):
        return f"(dyadic {desc_to_sexpr(d.index)})"
    if isinstance(d, D.WeightBlocks):
        return f"(weight {desc_to_sexpr(d.index)})"
    if isinstance(d, D.Columns):
        cols = " ".join(f"({c} {desc_to_sexpr(sub)})" for c, sub in d.cols)
        return f"(columns ({cols}) {desc_to_sexpr(d.default)})"
    if isinstance(d, D.ColumnsBySet):
        return ("(columnsbyset "
                f"{desc_to_sexpr(d.index)} {desc_to_sexpr(d.incol)} "
                f"{desc_to_sexpr(d.outcol)})")
    if isinstance(d, D.TailColumns):
        return f"(tailcolumns {desc_to_sexpr(d.base)})"
    if isinstance(d, D.OverrideColumns):
        cols = " ".join(f"({c} {desc_to_sexpr(sub)})" for c, sub in d.cols)
        return f"(overridecolumns ({cols}) {desc_to_sexpr(d.base)})"
    raise TypeError(f"not a descriptor: {d!r}")


def _build_desc(node):
    if not isinstance(node, list) or not node:
        raise ParseError(f"expected a descriptor, got {node!r}")
    head = node[0]
    if head == "finite":
        return D.Finite(frozenset(_nat(x) for x in node[1:]))
    if head == "cofinite":
        return D.Cofinite(frozenset(_nat(x) for x in node[1:]))
    if head == "progression":
        if len(node) != 3:
            raise ParseError("progression takes start and step")
        step = _nat(node[2])
        if step == 0:
            raise ParseError("progression step must be >= 1")
        return D.Progression(_nat(node[1]), step)
    if head == "union":
        return D.Union(tuple(_build_desc(p) for p in node[1:]))
    if head == "difference":
        if len(node) != 3:
            raise ParseError("difference takes two descriptors")
        return D.Difference(_build_desc(node[1]), _build_desc(node[2]))
    if head in ("dyadic", "weight"):
        if len(node) != 2:
            raise ParseError(f"{head} takes one descriptor")
        cls = D.DyadicBlocks if head == "dyadic" else D.WeightBlocks
        return cls(_build_desc(node[1]))
    if head in ("columns", "overridecolumns"):
        if len(node) != 3 or not isinstance(node[1], list):
            raise ParseError(f"{head} takes a column list and a base")
        cols = []
        for entry in node[1]:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"bad column entry: {entry!r}")
            cols.append((_nat(entry[0]), _build_desc(entry[1])))
        base = _build_desc(node[2])
        cls = D.Columns if head == "columns" else D.OverrideColumns
        return cls(tuple(cols), base)
    if head == "columnsbyset":
        if len(node) != 4:
            raise ParseError("columnsbyset takes index, incol, outcol")
        return D.ColumnsBySet(_build_desc(node[1]), _build_desc(node[2]),
                              _build_desc(node[3]))
    if head == "tailcolumns":
        if len(node) != 2:
            raise ParseError("tailcolumns takes a base descriptor")
        return D.TailColumns(_build_desc(node[1]))
    raise ParseError(f"unknown descriptor head {head!r}")


def desc_from_sexpr(text: str):
    return _parse(text, _build_desc, "descriptor")
