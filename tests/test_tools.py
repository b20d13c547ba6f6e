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
    assert lines[0] == ["m", "d", "build", "generate", "generate_mb", "known_f", "detect_mb",
                        "estimate", "pairs", "scan", "floors", "adapt100", "adapt800"]
    assert [row[:2] for row in lines[1:]] == [[str(m), str(2 * m)] for m in (10, 30, 60, 90)]
    for row in lines[1:]:
        assert len(row) == len(lines[0]) and all(float(cell) >= 0.0 for cell in row[2:-2])
        # each peak holds at least one array of 2 000 x d float values: the
        # values generate returns, the step samples run_detector scores
        assert float(row[4]) >= 2000 * int(row[1]) * 8 / 1e6
        assert float(row[6]) >= 2000 * int(row[1]) * 8 / 1e6
        # an adaptive window below nmin = d + 2 has no refreshed step to time
        for window, cell in zip((100, 800), row[-2:]):
            assert cell == "-" if window < int(row[1]) + 2 else float(cell) > 0.0
    # synthesized in row blocks, the 90-bus stream holds its values and a
    # few blocks beside them
    assert float(lines[-1][4]) < 1.5 * 2000 * 180 * 8 / 1e6


def test_startup_prints_a_row_per_job():
    lines = run_tool("startup.py", "--repeats", "1")
    assert lines[0] == ["job", "no_cache", "warm_cache"]
    assert [row[0] for row in lines[1:]] == ["pass", "numpy", "cli", "probe_path3",
                                             "probe_loop8", "probe_loop12"]
    assert all(len(row) == 3 and float(row[1]) > 0.0 and float(row[2]) > 0.0
               for row in lines[1:])


def test_src_lines_prints_every_module_and_the_total():
    lines = run_tool("src_lines.py")
    modules = sorted(os.path.basename(path) for path in
                     glob.glob(os.path.join(ROOT, "src", "gridwatch", "*.py")))
    assert lines[0] == ["module", "wc", "-l", "code"]
    assert [row[0] for row in lines[1:]] == modules + ["total"]
    counts = [tuple(map(int, row[1:])) for row in lines[1:]]
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1])))
