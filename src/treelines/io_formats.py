"""Text file formats for instances and embeddings.

An instance file holds `l <id> <slope> <offset>` rows, `e <parent> <child>`
rows (root is vertex 0) and optional `a <vertex> <line-id>` rows.  An
embedding file holds `p <vertex> <x>` rows.  Numbers are ASCII: rationals
`[+-]?[0-9]+(/[0-9]+)?`, integers with no `/` part.  Comments start with
`#`.  All errors carry the 1-based source line number.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .geometry import Line
from .lineset import (ConcurrentTriple, DuplicateLine, LineSet,
                      ParallelPair, verify_general_position)
from .embed import Assignment, EmbedError, Embedding, Tree


class ParseError(ValueError):
    def __init__(self, lineno: Optional[int], message: str):
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(f"{where}{message}")
        self.lineno = lineno


class SyntaxProblem(ParseError):
    pass


class ValidationProblem(ParseError):
    pass


# int() and Fraction() would also read underscores and other scripts' digits
_NUMBER = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# a decimal or exponent literal, such as 0.5 or 1e3: a number, no rational
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _rational(tok: str, lineno: int) -> Fraction:
    try:
        if _NUMBER.fullmatch(tok):
            return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        pass
    if _DECIMAL.fullmatch(tok):
        raise SyntaxProblem(lineno, f"rationals only, got {tok!r}")
    raise SyntaxProblem(lineno, f"bad rational {tok!r}")


def _int(tok: str, lineno: int) -> int:
    try:
        if _NUMBER.fullmatch(tok):
            return int(tok)     # which turns down a "/" part
    except ValueError:
        pass
    raise SyntaxProblem(lineno, f"bad integer {tok!r}")


def _rows(text: Union[bytes, str]) -> List[Tuple[int, List[str]]]:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SyntaxProblem(None, f"not UTF-8: {exc}")
    out = []
    for k, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((k, body.split()))
    return out


def parse_lines(text: Union[bytes, str]) -> LineSet:
    """Parse a lines-only document (other directives rejected)."""
    ls, _, _ = _parse(text, allow_tree=False, require_assign=False)
    return ls


def parse_instance(text: Union[bytes, str], require_assign: bool = True
                   ) -> Tuple[LineSet, Tree, Optional[Assignment]]:
    return _parse(text, allow_tree=True, require_assign=require_assign)


# each instance row kind: its usage text and the parser of each field
_ROW_KINDS = {
    "l": ("l <id> <slope> <offset>", (_int, _rational, _rational)),
    "e": ("e <parent> <child>", (_int, _int)),
    "a": ("a <vertex> <line-id>", (_int, _int)),
}


def _parse(text, allow_tree: bool, require_assign: bool):
    found = {kind: [] for kind in (_ROW_KINDS if allow_tree else "l")}
    for lineno, toks in _rows(text):
        tag = toks[0]
        if tag not in found:
            raise SyntaxProblem(lineno, f"unknown directive {tag!r}")
        usage, fields = _ROW_KINDS[tag]
        if len(toks) != 1 + len(fields):
            raise SyntaxProblem(lineno, f"expected: {usage}")
        found[tag].append((lineno, *(read(tok, lineno) for read, tok
                                     in zip(fields, toks[1:]))))

    lines = found["l"]
    if not lines:
        raise ValidationProblem(None, "no lines declared")
    ids = set()
    for lineno, i, _, _ in lines:
        if i in ids:
            raise ValidationProblem(lineno, f"duplicate line id {i}")
        ids.add(i)
    # general-position errors name the offending rows by their declared ids,
    # at the source line of the last of them
    try:
        ls = verify_general_position(
            [Line(s, b, i) for _, i, s, b in lines])
    except (DuplicateLine, ParallelPair) as exc:
        first, last = (lines[k] for k in exc.pair)
        what = ("coincide" if isinstance(exc, DuplicateLine)
                else "are parallel")
        raise ValidationProblem(last[0],
                                f"lines {first[1]} and {last[1]} {what}")
    except ConcurrentTriple as exc:
        rows = [lines[k] for k in exc.triple]
        raise ValidationProblem(rows[-1][0], "lines " + ", ".join(
            str(row[1]) for row in rows) + " meet in a single point")
    # declared ids must match the slope-sorted numbering the library uses
    by_slope = sorted(lines, key=lambda row: row[2])
    for rank, (lineno, i, _, _) in enumerate(by_slope, 1):
        if i != rank:
            raise ValidationProblem(
                lineno, f"line id {i} is not its slope rank {rank}; ids "
                        f"must be 1..n in increasing slope order")

    if not allow_tree:
        return ls, None, None

    edges, assigns = found["e"], found["a"]
    if not edges:
        raise ValidationProblem(None, "no tree edges declared")
    n = len(edges) + 1
    try:
        tree = Tree(n, tuple((u, v) for _, u, v in edges))
    except EmbedError as exc:
        raise ValidationProblem(edges[0][0], str(exc))

    asg: Optional[Assignment] = None
    if assigns:
        iota: Dict[int, int] = {}
        for lineno, v, i in assigns:
            if v in iota:
                raise ValidationProblem(lineno, f"vertex {v} assigned twice")
            iota[v] = i
        if sorted(iota) != list(range(n)):
            raise ValidationProblem(assigns[0][0],
                                    "assignment is not total over vertices")
        asg = Assignment(tuple(iota[v] for v in range(n)))
        try:
            asg.check_bijection(len(ls))
        except EmbedError as exc:
            raise ValidationProblem(assigns[0][0], str(exc))
    elif require_assign:
        raise ValidationProblem(None, "assignment section missing")
    return ls, tree, asg


def parse_embedding(text: Union[bytes, str], n: int) -> Embedding:
    pos: Dict[int, Fraction] = {}
    for lineno, toks in _rows(text):
        if toks[0] != "p" or len(toks) != 3:
            raise SyntaxProblem(lineno, "expected: p <vertex> <x>")
        v = _int(toks[1], lineno)
        if v in pos:
            raise ValidationProblem(lineno, f"vertex {v} placed twice")
        pos[v] = _rational(toks[2], lineno)
    if sorted(pos) != list(range(n)):
        raise ValidationProblem(None, f"need one row per vertex 0..{n - 1}")
    return Embedding(tuple(pos[v] for v in range(n)))


def serialize_lines(ls: LineSet) -> str:
    return "".join(f"l {l.id} {l.slope} {l.dual_offset}\n" for l in ls)


def serialize_embedding(emb: Embedding) -> str:
    return "".join(f"p {v} {x}\n" for v, x in enumerate(emb.pos))
