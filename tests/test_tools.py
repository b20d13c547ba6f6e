"""The scripts under tools/ run and print their whole tables, so that a
rename in the package cannot silently break them."""

import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_tool(script: str, *args: str) -> list[list[str]]:
    """The whitespace-split lines a tool prints, after checking it exits 0."""
    done = subprocess.run([sys.executable, os.path.join("tools", script), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


def test_scaling_prints_a_row_per_size():
    lines = run_tool("scaling.py", "--repeats", "1")
    assert lines[0] == ["m", "d", "build", "generate", "known_f", "estimate", "pairs",
                        "floors"]
    assert [row[:2] for row in lines[1:]] == [[str(m), str(2 * m)] for m in (10, 30, 60, 90)]
    for row in lines[1:]:
        assert len(row) == len(lines[0]) and all(float(cell) >= 0.0 for cell in row[2:])


def test_src_lines_prints_every_module_and_the_total():
    lines = run_tool("src_lines.py")
    modules = sorted(os.path.basename(path) for path in
                     glob.glob(os.path.join(ROOT, "src", "gridwatch", "*.py")))
    assert lines[0] == ["module", "wc", "-l", "code"]
    assert [row[0] for row in lines[1:]] == modules + ["total"]
    counts = [tuple(map(int, row[1:])) for row in lines[1:]]
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1])))
