"""Peak memory of the monitor commands, each in a fresh interpreter.

It writes the monitor scenario (loop12, outage 8-10 at mid-stream, every bus
a phasor channel at period 1, the `known_f` detector at alpha 1e-6, branch
pairs) and runs `simulate`, `detect` and `localize` on it through
`gridwatch.cli.main`, each command twice, in a fresh interpreter each time:

    traced_mb  the tracemalloc peak of the command, started after the imports
    rss_mb     ru_maxrss of a run without tracemalloc, less ru_maxrss after
               the imports

where the imports are numpy and the gridwatch modules the command loads.
ru_maxrss is the process's high-water mark, and a command first reuses the
memory its imports freed, so rss_mb moves by a few tenths of a MB with what
the child imports first; compare it only between runs of this script.

Only the standard library and numpy are needed.  Inputs and outputs go to a
temporary directory; nothing is written into the checkout.  Run from the
repository root:

    python tools/peaks.py [--ticks N]
"""

import argparse
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# per command, the gridwatch modules it loads
COMMANDS = {"simulate": "cli", "detect": "cli, detector",
            "localize": "cli, detector, experiments, localizer"}
CONFIG = """\
[scenario]
feeder = loop12
outage = 8-10
lambda = {lam}
horizon = {ticks}
seed = 43

[detector]
mode = known_f
alpha = 1e-6

[localize]
pairs = branches
"""
# one fresh interpreter: import, then run one command with or without
# tracemalloc; prints the traced peak or the RSS growth, in bytes
CHILD = """\
import resource, sys, tracemalloc
sys.path.insert(0, {src!r})
import numpy
from gridwatch import {modules}
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if {traced!r}:
    tracemalloc.start()
code = cli.main({argv!r})
if code:
    sys.exit(code)
if {traced!r}:
    print(tracemalloc.get_traced_memory()[1])
else:
    print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) * 1024)
"""


def peak(argv: list[str], traced: bool, env: dict) -> float:
    """The MB a fresh interpreter reports running cli.main(argv)."""
    code = CHILD.format(src=SRC, modules=COMMANDS[argv[0]], argv=argv, traced=traced)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise SystemExit(f"{argv[0]} exited {done.returncode}:\n{done.stderr}")
    return int(done.stdout.split()[-1]) / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ticks", type=int, default=20_000, help="stream horizon")
    args = parser.parse_args(argv)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    rows = []
    with tempfile.TemporaryDirectory(prefix="gridwatch-peaks-") as work:
        config = os.path.join(work, "monitor.conf")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(CONFIG.format(lam=args.ticks // 2, ticks=args.ticks))
        stream = os.path.join(work, "stream")
        for command in COMMANDS:
            extra = [] if command == "simulate" else ["--stream", stream]
            mbs = []
            for traced in (True, False):
                out = stream if command == "simulate" else os.path.join(work, command)
                mbs.append(peak([command, "--config", config, "--out", out, *extra],
                                traced, env))
            rows.append((command, *mbs))
    print(f"{'command':<10} {'traced_mb':>10} {'rss_mb':>10}")
    for command, traced, rss in rows:
        print(f"{command:<10} {traced:>10.2f} {rss:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
