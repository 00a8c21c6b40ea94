"""Smoke test of tools/differential.py on a tiny corpus: a tree recorded
twice compares identical, a changed record is reported, and a change in
the one field named by --expect-change passes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "differential.py"


def _tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    out = tmp_path_factory.mktemp("differential") / "a"
    done = _tool("record", "--tree", TOOL.parent.parent, "--out", out,
                 "--size", 1)
    assert done.returncode == 0, done.stderr
    return out


def test_differential_records_and_compares(recorded, tmp_path):
    a, b = recorded, tmp_path / "b"
    done = _tool("record", "--tree", TOOL.parent.parent, "--out", b,
                 "--size", 1)
    assert done.returncode == 0, done.stderr
    same = _tool("compare", a, b)
    assert same.returncode == 0, same.stdout
    families = same.stdout.splitlines()
    assert len(families) == 24
    assert all(line.endswith(" records, identical") for line in families)
    # every family records something even at the smallest size
    assert not [line for line in families if ": 0 records" in line]

    changed = tmp_path / "changed"
    shutil.copytree(a, changed)
    clip = changed / "clip.jsonl"
    lines = clip.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace('"record"', '"record" ', 1)
    clip.write_text("".join(lines))
    diff = _tool("compare", a, changed)
    assert diff.returncode == 1
    assert "clip: " in diff.stdout and "DIFFERENT" in diff.stdout
    assert "first difference at record 3" in diff.stdout


def _edit_solve_record(d, k, **fields):
    """Set the named fields of the k-th solve record's result in d."""
    path = d / "solve.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[k])
    rec["record"]["ok"].update(fields)
    lines[k] = json.dumps(rec, sort_keys=True)
    path.write_text("".join(line + "\n" for line in lines))


def test_expect_change_allows_only_the_named_field(recorded, tmp_path):
    nodes = tmp_path / "nodes"
    shutil.copytree(recorded, nodes)
    _edit_solve_record(nodes, 1, nodes=10**6)
    named = _tool("compare", recorded, nodes, "--expect-change",
                  "solve.nodes")
    assert named.returncode == 0, named.stdout
    assert "solve: " in named.stdout and \
        "1 with nodes changed, everything else identical" in named.stdout
    # not named, or named for another family, it is a difference
    for extra in ([], ["--expect-change", "scan.nodes"]):
        unnamed = _tool("compare", recorded, nodes, *extra)
        assert unnamed.returncode == 1
        assert "solve: " in unnamed.stdout and "DIFFERENT" in unnamed.stdout
        assert "first difference at record 2" in unnamed.stdout

    # a second field changed too fails, with either field named
    both = tmp_path / "both"
    shutil.copytree(nodes, both)
    _edit_solve_record(both, 4, restarts=7)
    for field in ("nodes", "restarts"):
        diff = _tool("compare", recorded, both, "--expect-change",
                     f"solve.{field}")
        assert diff.returncode == 1
        assert "DIFFERENT" in diff.stdout
    # both named, both may change
    assert _tool("compare", recorded, both, "--expect-change",
                 "solve.nodes", "--expect-change",
                 "solve.restarts").returncode == 0
    # a name that is not FAMILY.FIELD, or names no family, is refused
    assert _tool("compare", recorded, both, "--expect-change",
                 "solve").returncode == 2
    unknown = _tool("compare", recorded, recorded, "--expect-change",
                    "nosuch.nodes")
    assert unknown.returncode == 1
    assert "nosuch: named by --expect-change, recorded in neither" in \
        unknown.stdout
