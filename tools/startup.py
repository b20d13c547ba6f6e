"""Start-up cost of the gridwatch CLI, timed in fresh interpreters.

It prints the median wall seconds over repeats of a fresh interpreter
running each of:

    pass          nothing: the interpreter's own start-up
    numpy         import numpy
    cli           import gridwatch.cli
    probe_<name>  the set-up work every command pays on a bundled feeder:
                  import gridwatch.cli, parse a config of that feeder with one
                  branch out, build the pre- and post-outage models

in two modes:

    no_cache    gridwatch compiles from source at every start, as it does
                under PYTHONDONTWRITEBYTECODE=1 with no __pycache__ beside it
    warm_cache  gridwatch and numpy read bytecode written by an untimed run
                to a temporary PYTHONPYCACHEPREFIX

Each child is waited for with a blocking wait(), so the times carry no
polling steps; the jobs and modes take turns in every repeat, so that drift
in host speed spreads over all cells.  Nothing is written into the checkout:
the no_cache children import a copy of the package in a temporary directory.
Only the standard library is needed.  Run from the repository root:

    python tools/startup.py [--repeats N]
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# per bundled feeder, the branch its probe config takes out
OUTAGES = {"path3": "2-3", "loop8": "7-8", "loop12": "8-10"}
MODES = ("no_cache", "warm_cache")
PROBE = """\
import sys
sys.path.insert(0, {src!r})
from gridwatch import cli
scenario = cli.build_scenario(cli.load_config({config!r}), "", 0)
scenario.pre_model()
scenario.post_model()
"""


def jobs(src: str, work: str) -> dict[str, str]:
    """Code per job, importing gridwatch from src; configs go under work."""
    out = {"pass": "pass", "numpy": "import numpy",
           "cli": f"import sys\nsys.path.insert(0, {src!r})\nimport gridwatch.cli"}
    for feeder, outage in OUTAGES.items():
        config = os.path.join(work, f"{feeder}.conf")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"[scenario]\nfeeder = {feeder}\noutage = {outage}\nlambda = 2\n")
        out[f"probe_{feeder}"] = PROBE.format(src=src, config=config)
    return out


def seconds(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running code, to its exit."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.DEVNULL)
    if child.wait() != 0:
        raise SystemExit(f"a child exited {child.returncode} running:\n{code}")
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=11, help="timed runs per cell")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="gridwatch-startup-") as work:
        copy = os.path.join(work, "src")
        shutil.copytree(os.path.join(SRC, "gridwatch"), os.path.join(copy, "gridwatch"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")}
        base.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        runs = {
            "no_cache": (jobs(copy, work), dict(base, PYTHONDONTWRITEBYTECODE="1")),
            "warm_cache": (jobs(SRC, work),
                           dict(base, PYTHONPYCACHEPREFIX=os.path.join(work, "pycache"))),
        }
        names = list(runs["no_cache"][0])
        times: dict[tuple[str, str], list[float]] = {}
        code, env = runs["warm_cache"]
        for name in names:  # an untimed round writes the warm cache
            seconds(code[name], env)
        for _ in range(args.repeats):
            for name in names:
                for mode in MODES:
                    code, env = runs[mode]
                    times.setdefault((name, mode), []).append(seconds(code[name], env))
    print(f"{'job':<14} " + " ".join(f"{mode:>10}" for mode in MODES))
    for name in names:
        print(f"{name:<14} " + " ".join(f"{statistics.median(times[name, mode]):>10.4f}"
                                        for mode in MODES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
