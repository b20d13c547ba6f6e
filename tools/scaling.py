"""Scaling sweep of the monitor path's layers over random feeder sizes.

For random_feeder(m, 5, seed) at m = 10, 30, 60 and 90 buses, sensed in
full (phasor at every bus, d = 2m), with its first loop branch (the first
branch whose removal leaves one island) out at tick 1 001 of a 2 000-tick
stream, it prints the median seconds over repeats of:

    build     model_from_topology, with the transfer cache cleared first
    generate  generate of the 2 000-tick stream
    generate_mb
              the tracemalloc peak of one such generate call, in MB (10^6
              bytes), once the feeder's transfer blocks are cached
    known_f   log_odds_traces of the 2 000 ticks with the post-outage model
    detect_mb the tracemalloc peak of one known_f run_detector call on the
              stream, in MB
    estimate  estimate_post_outage over the 2 000 ticks
    pairs     score_pairs of every bus pair of one covariance
    scan      scan_pairs over the branch pairs of the pre- and post-outage
              sample covariances, of the stream's first 1 000 rows and of
              its last 1 000
    floors    the zero-test floors over the branch pairs, as localize takes
              them for 1 000 pre rows and 1 000 post rows: the Kish size of
              the post window, then zero_test_floors
    adaptW    seconds per refreshed step of adaptive log_odds_traces with
              window W = 100 and 800: one trace of the stream's first
              nmin + 100 rows (nmin = d + 2), over its last 100 steps, the
              ones that refit; a dash where W < nmin, since no step would
              refresh (the detect command rejects such a window)

BLAS runs at one thread, set through the environment before numpy loads.
Only the standard library and numpy are needed.  Run from the repository
root:

    python tools/scaling.py [--repeats N] [--seed S]
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import statistics
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np

from gridwatch import grid
from gridwatch.detector import DetectorConfig, log_odds_traces, run_detector
from gridwatch.gaussmodel import (
    GeometricPrior,
    estimate_post_outage,
    model_from_topology,
    score_pairs,
)
from gridwatch.localizer import all_bus_pairs, scan_pairs, zero_test_floors
from gridwatch.simgen import Scenario, generate

SIZES = (10, 30, 60, 90)
TICKS = 2000
WINDOWS = (100, 800)
REFITS = 100
COLUMNS = ("build", "generate", "generate_mb", "known_f", "detect_mb", "estimate", "pairs",
           "scan", "floors", *(f"adapt{w}" for w in WINDOWS))


def median_seconds(job, repeats: int, before=None) -> float:
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        start = time.perf_counter()
        job()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_mb(job) -> float:
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def sweep_row(m: int, seed: int, repeats: int) -> list[float | None]:
    topology = grid.random_feeder(m, 5, seed)
    loop = next(br.pair for br in topology.branches
                if len(grid.islands(grid.apply_outage(topology, {br.pair}))) == 1)
    scenario = Scenario(topology, (loop,), lam=TICKS // 2 + 1, horizon=TICKS, seed=seed)
    stream = generate(scenario)
    detect = DetectorConfig(g=scenario.pre_model(), f=scenario.post_model())
    layout = stream.schedule.layout
    g = scenario.pre_model().project(layout)
    f = scenario.post_model().project(layout)
    prior = GeometricPrior(0.04)
    cov = np.cov(stream.values.T, ddof=0)
    pairs = np.array(all_bus_pairs(layout))
    branches = [br.pair for br in topology.branches]
    pre, post = (np.cov(rows.T, ddof=0) for rows in np.split(stream.values, 2))

    def floors():
        zero_test_floors(TICKS // 2, prior.kish_sizes(TICKS // 2)[-1], branches, layout)

    nmin = layout.dim + 2
    refit = [stream.values[:nmin + REFITS]]

    def adaptive(window: int) -> float | None:
        if window < nmin:
            return None
        return median_seconds(lambda: log_odds_traces(refit, g, 1e-4, max_window=window),
                              repeats) / REFITS

    return [
        median_seconds(lambda: model_from_topology(topology, 1.0, 1e-8), repeats,
                       before=grid.transfer.cache_clear),
        median_seconds(lambda: generate(scenario), repeats),
        peak_mb(lambda: generate(scenario)),
        median_seconds(lambda: log_odds_traces([stream.values], g, 1e-4, f), repeats),
        peak_mb(lambda: run_detector(stream, detect)),
        median_seconds(lambda: estimate_post_outage(stream.values, prior), repeats),
        median_seconds(lambda: score_pairs(cov, pairs, layout), repeats),
        median_seconds(lambda: scan_pairs(pre, post, branches, layout), repeats),
        median_seconds(floors, repeats),
        *map(adaptive, WINDOWS),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per cell")
    parser.add_argument("--seed", type=int, default=0, help="feeder and stream seed")
    args = parser.parse_args(argv)
    print(f"{'m':>4} {'d':>4} " + " ".join(f"{name:>10}" for name in COLUMNS))
    for m in SIZES:
        row = sweep_row(m, args.seed, args.repeats)
        print(f"{m:>4} {2 * m:>4} " + " ".join("-".rjust(10) if value is None
                                               else f"{value:>10.6f}" for value in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
