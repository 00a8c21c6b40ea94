"""Smoke test of tools/differential.py on a tiny corpus: a tree recorded
twice compares identical, and a changed record is reported."""

import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "differential.py"


def _tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_differential_records_and_compares(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        done = _tool("record", "--tree", TOOL.parent.parent, "--out", out,
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
