"""Fuzzing the text formats: every input parses to a valid object or raises
ParseError, and serializing then parsing gives back what was written."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treelines.cli import main
from treelines.embed import Assignment, Embedding, Tree
from treelines.geometry import Line
from treelines.io_formats import (
    ParseError,
    SyntaxProblem,
    parse_embedding,
    parse_instance,
    parse_lines,
    serialize_embedding,
    serialize_lines,
)
from treelines.lineset import LineSet, LineSetError, verify_general_position

from conftest import serialize_instance

FUZZ = settings(max_examples=200, database=None, deadline=None,
                derandomize=True)
ROUND_TRIP = settings(FUZZ, max_examples=100)


def _parses_or_raises_parse_error(parse, text):
    try:
        return parse(text)
    except ParseError:
        return None


RATIONAL = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@st.composite
def line_sets(draw, min_size=1):
    lines = draw(st.lists(st.tuples(RATIONAL, RATIONAL), min_size=min_size,
                          max_size=6, unique_by=lambda sb: sb[0]))
    try:
        return verify_general_position([Line(s, b) for s, b in lines])
    except LineSetError:
        assume(False)


@st.composite
def instances(draw):
    ls = draw(line_sets(min_size=2))
    n = len(ls)
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    tree = Tree(n, tuple((p, v) for v, p in enumerate(parents, 1)))
    asg = draw(st.none() | st.permutations(range(1, n + 1)).map(
        lambda perm: Assignment(tuple(perm))))
    return ls, tree, asg


EMBEDDINGS = st.lists(
    st.builds(Fraction, st.integers(), st.integers(1, 1000)),
    max_size=4).map(lambda pos: Embedding(tuple(pos)))
# tokens the number parsers must turn down (or read) without crashing
NUMBERS = st.sampled_from(["1/0", "0/0", "1/-2", "-0", "+2", "1.5", "1e3",
                           "nan", "inf", "1_000", "0x10", "\u0663", "/",
                           "--1", "9" * 5000, "1/" + "9" * 5000])
TOKENS = st.one_of(
    NUMBERS,
    st.sampled_from(["l", "e", "a", "p", "#", "x", ""]),
    st.integers(-3, 8).map(str),
    st.text(max_size=3),
)
ROW = st.lists(TOKENS, max_size=5).map(" ".join)
SOUP = st.one_of(
    st.lists(ROW, max_size=8).map("\n".join),
    st.lists(ROW, max_size=8).map(lambda rows: "\n".join(rows).encode()),
    st.binary(max_size=64),
)


@st.composite
def mutated(draw, documents):
    """A valid document with up to three edits: a token replaced (by a
    malformed number or any token), a row dropped or a row repeated."""
    rows = [row.split() for row in draw(documents).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["number", "token", "drop", "repeat"]))
        if edit in ("number", "token"):
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(
                NUMBERS if edit == "number" else TOKENS)
        elif edit == "drop":
            del rows[r]
        else:
            rows.insert(r, list(rows[r]))
    return "\n".join(" ".join(row) for row in rows)


@given(st.one_of(mutated(line_sets().map(serialize_lines)), SOUP))
@FUZZ
def test_parse_lines_fuzz(text):
    ls = _parses_or_raises_parse_error(parse_lines, text)
    if ls is not None:
        assert isinstance(ls, LineSet) and len(ls) >= 1
        assert [l.id for l in ls] == list(range(1, len(ls) + 1))


@given(st.one_of(mutated(instances().map(
    lambda inst: serialize_instance(*inst))), SOUP), st.booleans())
@FUZZ
def test_parse_instance_fuzz(text, require_assign):
    out = _parses_or_raises_parse_error(
        lambda t: parse_instance(t, require_assign=require_assign), text)
    if out is not None:
        ls, tree, asg = out
        assert isinstance(ls, LineSet) and isinstance(tree, Tree)
        if asg is None:
            assert not require_assign
        else:
            assert sorted(asg.iota) == list(range(1, len(ls) + 1))


@given(st.one_of(mutated(EMBEDDINGS.map(serialize_embedding)), SOUP),
       st.integers(0, 4))
@FUZZ
def test_parse_embedding_fuzz(text, n):
    emb = _parses_or_raises_parse_error(lambda t: parse_embedding(t, n), text)
    if emb is not None:
        assert isinstance(emb, Embedding) and len(emb.pos) == n


@given(line_sets())
@ROUND_TRIP
def test_lines_round_trip(ls):
    assert parse_lines(serialize_lines(ls)).lines == ls.lines


@given(instances())
@ROUND_TRIP
def test_instance_round_trip(inst):
    ls, tree, asg = inst
    back = parse_instance(serialize_instance(ls, tree, asg),
                          require_assign=False)
    assert back[0].lines == ls.lines
    assert back[1:] == (tree, asg)


@given(EMBEDDINGS)
@ROUND_TRIP
def test_embedding_round_trip(emb):
    assert parse_embedding(serialize_embedding(emb), len(emb.pos)) == emb


@pytest.mark.parametrize("text, lineno, message", [
    ("l 1 -1 0\nl 2 1_0 3\n", 2, "bad rational '1_0'"),
    ("l 1 -1 0\nl 2 \uff120 1\n", 2, "bad rational '\uff120'"),
    ("l 1 -1 0\nl 2 0 1\nl \u0663 1 0\n", 3, "bad integer '\u0663'"),
    ("l 1 -1 0\n# ids have no / part\nl 4/2 0 1\n", 3, "bad integer '4/2'"),
    ("l 1 one 0\n", 1, "bad rational 'one'"),
    ("l 1 -1 0\nl 2 e 0\n", 2, "bad rational 'e'"),
    ("l 1 E5 0\n", 1, "bad rational 'E5'"),
    ("l 1 0.5 0\n", 1, "rationals only, got '0.5'"),
    ("l 1 -1 0\nl 2 0 1.5\n", 2, "rationals only, got '1.5'"),
    ("l 1 1e3 0\n", 1, "rationals only, got '1e3'"),
], ids=["underscore", "fullwidth-digit", "arabic-indic-id", "ratio-id",
        "word", "e", "exponent-alone", "decimal", "decimal-offset",
        "exponent"])
def test_numbers_are_ascii_digits_alone(text, lineno, message, tmp_path,
                                        capsys):
    # int() and Fraction() read the first three tokens as 10, 20 and 3,
    # and Fraction() reads 4/2 as 2, and 0.5, 1.5 and 1e3 too; the grammar
    # turns them all down, and names the decimal and exponent literals
    # alone as such: a word with an e in it is no decimal
    with pytest.raises(SyntaxProblem) as exc:
        parse_lines(text)
    assert str(exc.value) == f"line {lineno}: {message}"
    path = tmp_path / "lines.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line {lineno}: {message}\n"
