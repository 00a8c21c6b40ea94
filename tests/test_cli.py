"""File formats and command-line behaviour (exit codes, round trips, SVG)."""

import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from treelines import embed, svg, unstretch
from treelines.cli import main
from treelines.embed import Assignment, Embedding
from treelines.io_formats import (
    SyntaxProblem,
    ValidationProblem,
    parse_embedding,
    parse_instance,
    parse_lines,
    serialize_embedding,
    serialize_lines,
)
from treelines.lineset import longest_cap_cup

from conftest import (DOUBLING_DEGREES, angle_lineset, path_tree,
                      random_lines, serialize_instance)

LINES3 = """\
# three lines in general position
l 1 -1 0
l 2 0 -1
l 3 1 0
"""

INSTANCE3 = LINES3 + """\
e 0 1
e 1 2
a 0 1
a 1 3
a 2 2
"""

EMB3 = "p 0 -2\np 1 2\np 2 0\n"


# ---------------------------------------------------------------------------
# parsing


def test_parse_lines_basic():
    ls = parse_lines(LINES3)
    assert len(ls) == 3
    assert [l.slope for l in ls] == [-1, 0, 1]


def test_parse_rationals():
    ls = parse_lines("l 1 -7/3 0\nl 2 1/2 2/5\n")
    assert ls.line(1).slope == Fraction(-7, 3)
    assert ls.line(2).dual_offset == Fraction(2, 5)
    with pytest.raises(SyntaxProblem):
        parse_lines("l 1 0.5 0\nl 2 1 0\n")
    with pytest.raises(SyntaxProblem):
        parse_lines("l 1 1e2 0\nl 2 1 0\n")
    with pytest.raises(SyntaxProblem) as exc:
        parse_lines("l 1 0 0\nl 2 7/0 1\n")
    assert exc.value.lineno == 2


def test_parse_id_must_be_slope_rank():
    with pytest.raises(ValidationProblem):
        parse_lines("l 2 -1 0\nl 1 0 -1\nl 3 1 0\n")
    with pytest.raises(ValidationProblem):
        parse_lines("l 1 -1 0\nl 1 0 -1\n")


@pytest.mark.parametrize("parse, text, lineno, message", [
    (parse_lines, "l 1 -1 0\nl 3 0 1\nl 3 1 0\n", 3, "duplicate line id 3"),
    (parse_lines, "l 1 -1 0\nl 2 0 1\nl 3 1 0\nl 4 2 5\nl 5 0 1\n", 5,
     "lines 2 and 5 coincide"),
    (parse_lines, "l 3 0 0\n# a comment row\nl 1 1 0\nl 2 1 1\n", 4,
     "lines 1 and 2 are parallel"),
    (parse_lines,
     "# three lines through the origin\nl 2 0 0\nl 1 -1 0\nl 3 1 0\n", 4,
     "lines 2, 1, 3 meet in a single point"),
    (parse_instance, LINES3 + "a 0 1\n", None, "no tree edges declared"),
    (parse_instance, LINES3 + "e 0 1\ne 1 2\na 0 1\na 1 3\na 0 2\n", 9,
     "vertex 0 assigned twice"),
    (parse_instance, LINES3 + "e 0 1\ne 1 2\na 0 1\na 1 3\na 5 2\n", 7,
     "assignment is not total over vertices"),
    (parse_instance, LINES3 + "e 0 1\ne 1 2\na 0 1\na 1 3\na 2 3\n", 7,
     "assignment is not a bijection onto the line ids"),
], ids=["duplicate-id", "coincide", "parallel", "concurrent", "no-edges",
        "assigned-twice", "not-total", "not-bijection"])
def test_parse_errors_name_the_offending_row(parse, text, lineno, message):
    # the source line of the last offending row, and the declared ids; an
    # assignment that is not total or not a bijection is reported at its
    # first row, and a missing edge section at no row
    with pytest.raises(ValidationProblem) as exc:
        parse(text)
    assert exc.value.lineno == lineno
    where = "" if lineno is None else f"line {lineno}: "
    assert str(exc.value) == where + message


@pytest.mark.parametrize("parse, text, lineno, message", [
    (parse_lines, "l 1 -1\n", 1, "expected: l <id> <slope> <offset>"),
    (parse_instance, LINES3 + "e 0\n", 5, "expected: e <parent> <child>"),
    (parse_instance, LINES3 + "a 0 1 2\n", 5,
     "expected: a <vertex> <line-id>"),
    (parse_lines, LINES3 + "e 0 1\n", 5, "unknown directive 'e'"),
    (parse_lines, LINES3 + "a 0 1\n", 5, "unknown directive 'a'"),
    (parse_instance, LINES3 + "q 1 2\n", 5, "unknown directive 'q'"),
    (parse_lines, "l x 0.5 0\n", 1, "bad integer 'x'"),
    (parse_lines, "l 1 0.5 0\n", 1, "rationals only, got '0.5'"),
    (parse_lines, "l 1 1 7/0\n", 1, "bad rational '7/0'"),
    (parse_instance, LINES3 + "e 0 y\n", 5, "bad integer 'y'"),
], ids=["l-fields", "e-fields", "a-fields", "e-in-lines", "a-in-lines",
        "unknown", "bad-id", "decimal", "zero-denominator", "bad-vertex"])
def test_syntax_errors_name_the_row_and_the_first_bad_field(parse, text,
                                                            lineno, message):
    # a row's kind is checked first, then its field count, then its fields
    # from left to right
    with pytest.raises(SyntaxProblem) as exc:
        parse(text)
    assert exc.value.lineno == lineno
    assert str(exc.value) == f"line {lineno}: {message}"


def test_parse_instance_and_assignment():
    ls, tree, asg = parse_instance(INSTANCE3)
    assert tree.n == 3 and tree.edges == ((0, 1), (1, 2))
    assert [asg.line_of(v) for v in range(3)] == [1, 3, 2]
    with pytest.raises(ValidationProblem):
        parse_instance(LINES3 + "e 0 1\ne 1 2\n")     # assignment missing
    ls2, tree2, asg2 = parse_instance(LINES3 + "e 0 1\ne 1 2\n",
                                      require_assign=False)
    assert asg2 is None
    with pytest.raises(SyntaxProblem):
        parse_instance(INSTANCE3 + "q 1 2\n")


def test_parse_embedding():
    emb = parse_embedding(EMB3, 3)
    assert emb.pos == (-2, 2, 0)
    with pytest.raises(ValidationProblem):
        parse_embedding("p 0 1\np 0 2\np 2 0\n", 3)
    with pytest.raises(ValidationProblem):
        parse_embedding("p 0 1\n", 3)


def test_round_trip(rng):
    ls = random_lines(rng, 5)
    tree = path_tree(5)
    asg = Assignment((2, 4, 1, 5, 3))
    text = serialize_instance(ls, tree, asg)
    ls2, tree2, asg2 = parse_instance(text)
    assert serialize_instance(ls2, tree2, asg2) == text
    emb = Embedding(tuple(Fraction(k, 7) for k in range(5)))
    assert parse_embedding(serialize_embedding(emb), 5).pos == emb.pos


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "lines3.txt").write_text(LINES3)
    (tmp_path / "inst3.txt").write_text(INSTANCE3)
    (tmp_path / "emb3.txt").write_text(EMB3)
    (tmp_path / "cup6.txt").write_text(
        serialize_lines(angle_lineset(DOUBLING_DEGREES, cup=True)))
    (tmp_path / "lines12.txt").write_text(
        serialize_lines(random_lines(np.random.default_rng(5), 12)))
    return tmp_path


def test_cli_analyze(files, capsys):
    assert main(["analyze", str(files / "lines3.txt")]) == 0
    out = capsys.readouterr().out
    assert "lines: 3" in out and "general position: yes" in out


def test_cli_extract_commands(files, capsys):
    assert main(["extract-cap", str(files / "cup6.txt")]) == 0
    assert "size 6" in capsys.readouterr().out
    assert main(["extract-monotone", str(files / "cup6.txt")]) == 0
    assert main(["extract-doubling", str(files / "cup6.txt")]) == 0
    assert "variant: lower" in capsys.readouterr().out


def test_cli_extract_doubling_without_a_chain(tmp_path, capsys):
    # two negative slopes and one positive: no sign class has three lines
    path = tmp_path / "split.txt"
    path.write_text("l 1 -2 1\nl 2 -1 0\nl 3 1 3\n")
    assert main(["extract-doubling", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "no chain: majority sign class below 3 lines\n"
    assert not captured.err


def test_cli_extract_commands_need_three_lines(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("l 1 -1 0\nl 2 0 -1\n")
    for cmd in ("extract-cap", "extract-monotone", "extract-doubling"):
        assert main([cmd, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: need at least 3 lines\n"
        assert not captured.out


def test_cli_analyze_needs_three_lines(tmp_path, capsys):
    # the set is classified before anything is printed, so an input error
    # leaves stdout empty
    path = tmp_path / "two.txt"
    path.write_text("l 1 -1 0\nl 2 0 -1\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cap/cup needs at least 3 lines\n"
    assert captured.out == ""


def test_cli_extract_cap_prints_input_ids(tmp_path, capsys, rng):
    # a random set whose largest cap or cup is not a prefix of the ids;
    # its input ids are found again by matching slope and offset
    while True:
        ls = random_lines(rng, 12)
        _, sub = longest_cap_cup(ls)
        picked = {(m.slope, m.dual_offset) for m in sub}
        ids = [l.id for l in ls if (l.slope, l.dual_offset) in picked]
        if ids != list(range(1, len(ids) + 1)):
            break
    path = tmp_path / "lines.txt"
    path.write_text(serialize_lines(ls))
    assert main(["extract-cap", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "ids: " + " ".join(map(str, ids))


def test_cli_check(files, capsys):
    assert main(["check", str(files / "inst3.txt"),
                 str(files / "emb3.txt")]) == 0
    assert "CrossingFree" in capsys.readouterr().out
    bad = files / "bad_emb.txt"
    bad.write_text("p 0 0\np 1 0\np 2 0\n")
    assert main(["check", str(files / "inst3.txt"), str(bad)]) == 1
    assert "Violation" in capsys.readouterr().out


def test_cli_solve_then_check(files, tmp_path, capsys):
    assert main(["solve", str(files / "inst3.txt"), "--refine", "2",
                 "--budget", "100"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Found")
    emb_path = tmp_path / "solved.txt"
    emb_path.write_text(out.split("\n", 1)[1])
    assert main(["check", str(files / "inst3.txt"), str(emb_path)]) == 0
    assert main(["solve", str(files / "inst3.txt"), "--refine", "0"]) == 2
    assert "error: refine must be >= 1" in capsys.readouterr().err


def test_cli_scan(files, capsys):
    inst = files / "noassign.txt"
    inst.write_text(LINES3 + "e 0 1\ne 1 2\n")
    assert main(["scan", str(inst), "--refine", "2", "--budget", "50"]) == 0
    assert "found 6/6" in capsys.readouterr().out


def test_cli_searches_report_what_they_did_not_find(tmp_path, capsys,
                                                    monkeypatch):
    # with one candidate per vertex and no restarts, 8 of the 24
    # bijections of a four-vertex path find no embedding
    grid = embed.candidate_positions
    monkeypatch.setattr(embed, "candidate_positions",
                        lambda *args: grid(*args)[:1])
    lines4 = "l 1 -1 0\nl 2 0 -1\nl 3 1 0\nl 4 3 1\ne 0 1\ne 1 2\ne 2 3\n"
    inst = tmp_path / "path4.txt"
    inst.write_text(lines4 + "a 0 1\na 1 4\na 2 2\na 3 3\n")
    assert main(["solve", str(inst), "--budget", "0"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("NotFound after ")
    assert out.endswith(" nodes and 0 restarts (not a proof of "
                        "non-embeddability)\n")
    bare = tmp_path / "bare4.txt"
    bare.write_text(lines4)
    assert main(["scan", str(bare), "--budget", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["found 16/24", "candidate witness (unproven): 1 4 2 3"]
    assert len(out) == 9
    assert all(row.startswith("candidate witness (unproven): ")
               for row in out[1:])


def test_cli_negative_budget(files, capsys):
    # a negative restart budget is an input error, not an empty search
    for cmd in ("solve", "scan"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(files / "inst3.txt"), "--budget", "-2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --budget: must be >= 0, got -2" in captured.err
        assert not captured.out


@pytest.mark.parametrize("argv, env, option, text", [
    (["unstretch", "cup6.txt", "--samples", "abc"], "0", "--samples", "abc"),
    (["solve", "inst3.txt", "--budget", "x"], "0", "--budget", "x"),
    (["scan", "inst3.txt", "--seed", "x"], "0", "--seed", "x"),
    (["unstretch", "cup6.txt"], "junk", "--seed", "junk"),
])
def test_cli_malformed_ints(files, capsys, monkeypatch, argv, env, option,
                            text):
    # the message names the int type, as for --refine and --c
    monkeypatch.setenv("TREELINES_SEED", env)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(files / argv[1]), *argv[2:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {option}: invalid int value: '{text}'" in captured.err
    assert not captured.out


def test_cli_unstretch(files, capsys):
    assert main(["unstretch", str(files / "cup6.txt"),
                 "--samples", "50000", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "frame: cup, lower variant" in out
    assert "no configuration found" in out
    # a sample count below 1 is an input error, not an empty search
    for samples in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(["unstretch", str(files / "cup6.txt"), "--samples", samples])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--samples" in captured.err and not captured.out


def test_cli_unstretch_prints_a_found_configuration(files, capsys,
                                                    monkeypatch):
    # the control search, which ignores rule (ii), finds a configuration on
    # the cup frame, and its chain contradicts the gap condition
    search = unstretch.feasibility_search
    monkeypatch.setattr(unstretch, "feasibility_search",
                        lambda frame, samples, seed: search(
                            frame, samples, seed, frozenset({"ii"})))
    assert main(["unstretch", str(files / "cup6.txt"), "--samples", "60000",
                 "--seed", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["frame: cup, lower variant", "configuration found:"]
    assert [row.split(":")[0] for row in out[2:5]] == ["  e1", "  e2", "  e3"]
    assert out[5:] == ["chain check: contradiction"]


def test_cli_regions_and_svg(files, tmp_path, capsys):
    svg_path = tmp_path / "regions.svg"
    assert main(["regions", str(files / "lines12.txt"), "--c", "4",
                 "--svg", str(svg_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("R_{") == 10
    data = svg_path.read_bytes()
    ET.fromstring(data)                       # well-formed XML
    # deterministic bytes
    svg2 = tmp_path / "regions2.svg"
    main(["regions", str(files / "lines12.txt"), "--c", "4",
          "--svg", str(svg2)])
    capsys.readouterr()
    assert svg2.read_bytes() == data


def test_cli_regions_reject_flat_regions(tmp_path, capsys):
    # with c = n = 2 the regions R_{1,1} and R_{2,2} are single rays
    path = tmp_path / "two.txt"
    path.write_text("l 1 -1 0\nl 2 1 0\n")
    assert main(["regions", str(path), "--c", "2"]) == 2
    captured = capsys.readouterr()
    assert "degenerate (flat) region" in captured.err
    assert not captured.out


def test_cli_render(files, tmp_path, capsys):
    svg_path = tmp_path / "drawing.svg"
    assert main(["render", str(files / "inst3.txt"), str(files / "emb3.txt"),
                 "--svg", str(svg_path)]) == 0
    capsys.readouterr()
    root = ET.fromstring(svg_path.read_bytes())
    assert root.tag.endswith("svg")


def test_cli_render_reads_the_assignment_only_with_an_embedding(
        files, tmp_path, capsys):
    # a scan-style instance has no a rows: drawn bare it gives the same
    # picture as the instance with them, drawn with an embedding it is an
    # input error
    bare = tmp_path / "bare.txt"
    bare.write_text(LINES3 + "e 0 1\ne 1 2\n")
    with_rows, without = tmp_path / "with.svg", tmp_path / "without.svg"
    assert main(["render", str(files / "inst3.txt"),
                 "--svg", str(with_rows)]) == 0
    assert main(["render", str(bare), "--svg", str(without)]) == 0
    assert capsys.readouterr().out == (f"wrote {with_rows}\n"
                                       f"wrote {without}\n")
    assert without.read_bytes() == with_rows.read_bytes()
    out = tmp_path / "emb.svg"
    assert main(["render", str(bare), str(files / "emb3.txt"),
                 "--svg", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: assignment section missing\n"
    assert not captured.out and not out.exists()


def test_cli_input_errors(files, tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["analyze", str(missing)]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("l 1 0.5 0\n")
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["analyze"], ["extract-cap"], ["extract-monotone"], ["extract-doubling"],
    ["regions", "--c", "3", "--svg", "out.svg"], ["unstretch"],
], ids=lambda argv: argv[0])
def test_cli_line_file_errors(argv, tmp_path, capsys, monkeypatch):
    # every command that reads a line file reports the parse error alone
    monkeypatch.chdir(tmp_path)
    for text, err in (
            ("l 1 -1 0\nl 2 1 0\nl 3 1 1\n",
             "error: line 3: lines 2 and 3 are parallel\n"),
            ("l 1 -1 0\nl 2 0 -1\nl 3 1 0\ne 0 1\n",
             "error: line 4: unknown directive 'e'\n")):
        Path("l.txt").write_text(text)
        assert main([argv[0], "l.txt", *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""
        assert not Path("out.svg").exists()


def test_cli_seed_env(files, capsys, monkeypatch):
    monkeypatch.setenv("TREELINES_SEED", "42")
    assert main(["solve", str(files / "inst3.txt")]) == 0
    capsys.readouterr()
    monkeypatch.setenv("TREELINES_SEED", "junk")
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(files / "inst3.txt")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    # an explicit --seed overrides the bad environment value
    assert main(["solve", str(files / "inst3.txt"), "--seed", "1"]) == 0
    capsys.readouterr()
    # a negative seed, given or from the environment, is an input error
    for env, argv in (("-3", ["solve", str(files / "inst3.txt")]),
                      ("-3", ["scan", str(files / "inst3.txt")]),
                      ("-3", ["unstretch", str(files / "cup6.txt")]),
                      ("0", ["solve", str(files / "inst3.txt"),
                             "--seed", "-1"])):
        monkeypatch.setenv("TREELINES_SEED", env)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err and not captured.out


@pytest.mark.parametrize("call, error, message", [
    (lambda: svg.render_svg(svg.SvgScene()), svg.EmptyScene,
     "nothing to size the viewport by"),
])
def test_input_checks_raise_their_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
