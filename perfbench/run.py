"""gridwatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload named in BENCHMARK.json through gridwatch.cli.main in this
process, on inputs made from --seed, checks every output and prints the
metrics by name and unit.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 times whole passes of the workload's commands with tracing off for
--seconds and reports the end_to_end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes for --seconds, then runs a scaling
sweep, and reports the per_layer metrics.  An operation is one pass: it fails
when a command exits nonzero, fails a check of its output, or writes other
bytes than the first pass did.

gridwatch is imported from src/ of the checkout this file sits in, with the
BLAS pinned to one thread; all files go to .perfbench_work/ in the checkout
and are removed at the end.  README.md in this directory describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

from spans import MODULES, Tracer, function_stats, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# With OpenBLAS's default of one thread per core, one 176x176 Schur step of
# the pair scorer took 8-17 ms on a 2-core machine against 0.4 ms at one
# thread: the timings would measure thread contention, not gridwatch.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
# Host speed on shared machines drifts by up to a third within seconds, so
# end-to-end times are scaled to a nominal speed sampled during each measured
# call: value = seconds * NOMINAL_SAMPLE_S / mean sample (see HostSpeed).
SAMPLE_PERIOD_S = 0.05
NOMINAL_SAMPLE_S = 4.5e-5
MIN_PASSES = 2          # the digests of a pass are compared with the first one
COMMANDS = ("simulate", "detect", "localize", "experiment", "heatmap")
SWEEP_SIZES = (8, 30, 60, 90)

# Per-layer metrics read off the spans: "<function>_s" is its inclusive time,
# "<function>_calls" its number of calls.
TIMED = ("simgen.write_stream", "simgen.parse_stream", "simgen.generate",
         "detector.run_detector", "detector.adaptive_log_odds",
         "detector.known_f_log_odds", "gaussmodel.log_density",
         "gaussmodel.estimate_post_outage", "gaussmodel.pair_conditional_stats",
         "gaussmodel.model_from_topology", "experiments.correlation_matrix",
         "experiments.run_experiment", "localizer.thresholds_from_bootstrap",
         "localizer.scan_pairs", "textconf.parse_blocks")
CALLED = ("simgen.generate", "grid.build_admittance", "grid.islands",
          "gaussmodel.log_density", "gaussmodel.estimate_post_outage",
          "gaussmodel.pair_conditional_stats", "gaussmodel.model_from_topology",
          "experiments.correlation_matrix")
OBSERVED = ("simgen.stream_bytes", "detector.steps", "detector.adaptive_steps",
            "localizer.degenerate_pairs", "experiments.censored")


class SetupError(RuntimeError):
    """The benchmark cannot run here: no gridwatch sources, BLAS not pinned, or
    metrics that do not match BENCHMARK.json."""


def blas_threads() -> dict[str, int]:
    """Thread count reported by every OpenBLAS loaded into this process."""
    found: dict[str, int] = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = int(getter())
                break
    return found


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            digest.update(b"\0")
    return digest.hexdigest()


def files_digest(paths: list[str]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_command(command, tracer: Tracer | None = None) -> tuple[int, float, str]:
    """(exit code, seconds, stderr) of one gridwatch.cli.main call."""
    from gridwatch import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        start = time.perf_counter()
        try:
            code = cli.main(command.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return code, seconds, err.getvalue()


def probe_seconds(config: str, seed: int) -> float:
    """Wall time of a fresh interpreter running probe.py."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), SRC, config, str(seed)]
    start = time.perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


class HostSpeed:
    """Scales the duration of a measured call to nominal host speed.

    While the call runs, a timer signal every SAMPLE_PERIOD_S times a short
    reference job, an interpreter loop plus a small Cholesky as gridwatch
    mixes them (about 45 us after an untimed warm-up of the same job, so that
    the caches the call evicted do not count; 0.15 % of the time in all).
    The call's seconds are multiplied by NOMINAL_SAMPLE_S / the mean sample.
    Samples taken during the call follow the host's speed far closer than a
    calibration run before or after it.
    """

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).normal(size=(24, 24))
        self._spd = a @ a.T + 24 * np.eye(24)
        self._cholesky = np.linalg.cholesky
        self._samples: list[float] = []

    def _reference(self, loops: int) -> None:
        s = 0
        for i in range(loops):
            s += i * i
        self._cholesky(self._spd)

    def _sample(self, *_) -> None:
        self._reference(200)  # refills the caches the measured call evicted
        start = time.perf_counter()
        self._reference(600)
        self._samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def sampling(self):
        """Samples from entry (one sample at once) to exit."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, seconds: float) -> float:
        """`seconds` of the call last run under sampling(), at nominal speed."""
        return seconds * NOMINAL_SAMPLE_S / statistics.fmean(self._samples)


class Passes:
    """Runs passes of one prepared workload, checks them and counts operations."""

    def __init__(self, workload, work: str, speed: HostSpeed):
        self.workload = workload
        self.work = work
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.command_seconds: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}
        self.guards: dict[str, float] | None = None
        self._checked: dict[tuple[str, str], list[str]] = {}

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, traced: bool = False) -> tuple[float, float, list[tuple[str, float, Tracer]]]:
        """One pass: its wall seconds, the same scaled to nominal host speed,
        and (command, seconds, tracer or None) per command.  Outputs are
        checked after the timed commands."""
        pass_dir = os.path.join(self.work, f"pass{self.attempted + 1}")
        commands = self.workload.commands(pass_dir)
        results = []
        scaled = 0.0
        for command in commands:
            tracer = Tracer() if traced else None
            with self.speed.sampling():
                code, seconds, err = run_command(command, tracer)
            scaled += self.speed.scale(seconds)
            results.append((command, code, seconds, err, tracer))
        problems = []
        for command, code, seconds, err, _ in results:
            if not traced:
                self.command_seconds.setdefault(command.name, []).append(seconds)
            problems += [f"pass {self.attempted + 1} {command.name}: {p}"
                         for p in self._check(command, code, err)]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        elif self.guards is None:
            self.guards = self.workload.guards({c.name: c.out for c in commands})
        shutil.rmtree(pass_dir, ignore_errors=True)
        wall = sum(r[2] for r in results)
        return wall, scaled, [(r[0].name, r[2], r[4]) for r in results]

    def _check(self, command, code: int, err: str) -> list[str]:
        if code != 0:
            return [f"exit {code} {err.strip()}"]
        digest = tree_digest(command.out)
        first = self.digests.setdefault(command.name, digest)
        problems = [] if digest == first else ["artifacts differ from the first pass"]
        key = (command.name, digest)
        if key not in self._checked:
            try:
                self._checked[key] = self.workload.check(command)
            except Exception as exc:  # noqa: BLE001 - an unreadable output fails the check
                self._checked[key] = [f"check raised {type(exc).__name__}: {exc}"]
        return problems + self._checked[key]


def measure_end_to_end(passes: Passes, config: str, seed: int, seconds: float
                       ) -> tuple[dict[str, float], dict[str, tuple[list, list]]]:
    """The end_to_end metrics, and (raw, scaled) seconds per timed metric."""
    probe_seconds(config, seed)  # fills the page and bytecode caches
    speed = passes.speed
    setup: tuple[list, list] = ([], [])
    for _ in range(SETUP_PROBES):
        with speed.sampling():
            setup[0].append(probe_seconds(config, seed))
        setup[1].append(speed.scale(setup[0][-1]))
    walls: tuple[list, list] = ([], [])
    while len(walls[0]) < MIN_PASSES or sum(walls[0]) < seconds:
        wall, scaled, _ = passes.run()
        walls[0].append(wall)
        walls[1].append(scaled)
    timings = {"setup_s": setup, "wall_s": walls}
    metrics = {name: statistics.median(scaled) for name, (_, scaled) in timings.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, timings


def median_time(fn) -> float:
    """Median seconds of fn() over up to 5 calls or 0.2 s, at least one call."""
    times: list[float] = []
    while len(times) < 5 and sum(times) < 0.2:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaling_sweep(seed: int) -> dict[str, float]:
    """Model build and all-pairs correlation time on random_feeder sizes."""
    from gridwatch.experiments import correlation_matrix
    from gridwatch.gaussmodel import model_from_topology
    from gridwatch.grid import random_feeder

    out = {}
    for m in SWEEP_SIZES:
        topology = random_feeder(m, loops=max(1, m // 18), seed=seed)
        model = model_from_topology(topology, 1.0, 1e-8)
        out[f"gaussmodel.model_from_topology.m{m}_s"] = median_time(
            lambda: model_from_topology(topology, 1.0, 1e-8))
        out[f"experiments.correlation_matrix.m{m}_s"] = median_time(
            lambda: correlation_matrix(model.cov, model.layout))
    return out


def layer_metrics(commands: list[tuple[str, float, Tracer]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own: Counter = Counter()
    calls: Counter = Counter()
    seconds: Counter = Counter()
    counts: Counter = Counter()
    for _, _, tracer in commands:
        own.update(self_times(tracer.spans))
        c, s = function_stats(tracer.spans)
        calls.update(c)
        seconds.update(s)
        counts.update(tracer.counts)
    out: dict[str, float] = {f"{m}.self_s": own.get(m, 0.0) for m in MODULES}
    out.update({f"cli.{c}_s": seconds.get(f"cli.cmd_{c}", 0.0) for c in COMMANDS})
    out.update({f"{f}_s": seconds.get(f, 0.0) for f in TIMED})
    out.update({f"{f}_calls": calls.get(f, 0) for f in CALLED})
    out.update({name: counts.get(name, 0) for name in OBSERVED})
    steps, adaptive = out["detector.steps"], out["detector.adaptive_steps"]
    out["detector.step_us"] = 1e6 * out["detector.run_detector_s"] / steps if steps else 0.0
    out["detector.adaptive_step_us"] = (1e6 * out["detector.adaptive_log_odds_s"] / adaptive
                                        if adaptive else 0.0)
    out["detector.refit_ratio"] = (out["gaussmodel.estimate_post_outage_calls"] / adaptive
                                   if adaptive else 0.0)
    return out


def self_time_gaps(commands: list[tuple[str, float, Tracer]]) -> dict[str, float]:
    """Per command: traced wall time minus the sum of the module self times."""
    return {name: wall - sum(self_times(tracer.spans).values())
            for name, wall, tracer in commands}


def measure_traced(passes: Passes, seconds: float, seed: int) -> dict[str, float]:
    """The per_layer metrics: alternating untraced and traced passes, the
    traced pass with the median wall time, then the scaling sweep."""
    untraced: list[float] = []
    traced: list[tuple[float, float, list]] = []
    while not traced or sum(untraced) + sum(t[0] for t in traced) < seconds:
        untraced.append(passes.run()[1])
        traced.append(passes.run(traced=True))
    # in nominal seconds, so that host speed drift between the passes cancels
    overhead = statistics.median(t[1] for t in traced) - statistics.median(untraced)
    tolerance = max(abs(overhead), 1e-3)
    for k, (_, _, commands) in enumerate(traced):
        for name, gap in self_time_gaps(commands).items():
            if abs(gap) > tolerance:
                passes.problems.append(f"traced pass {k + 1} {name}: module self times "
                                       f"miss the wall time by {gap:.6f} s")
    wall, _, commands = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    metrics = layer_metrics(commands)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = overhead
    metrics.update(scaling_sweep(seed))
    return metrics


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(workload, seed: int, inputs: list[str], threads: dict[str, int]) -> dict:
    import numpy
    import scipy

    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        version = re.search(r'^version\s*=\s*"([^"]+)"', fh.read(), re.M)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "config_sha256": files_digest(inputs),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gridwatch": version.group(1) if version else "unknown",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def prepare_gridwatch() -> dict[str, int]:
    """Pin the BLAS, import gridwatch from this checkout and check both."""
    os.environ.update(BLAS_ENV)
    if not os.path.isfile(os.path.join(SRC, "gridwatch", "__init__.py")):
        raise SetupError(f"no gridwatch sources under {SRC}")
    sys.path.insert(0, SRC)
    import gridwatch
    import scipy.linalg  # noqa: F401 - loads scipy's BLAS before the thread check

    if not os.path.abspath(gridwatch.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported gridwatch from {gridwatch.__file__}, not {SRC}")
    threads = blas_threads()
    if any(n != 1 for n in threads.values()):
        raise SetupError(f"BLAS not pinned to one thread: {threads}")
    return threads


def run(args, spec: dict) -> dict:
    threads = prepare_gridwatch()
    from workloads import WORKLOADS

    make, make_small = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        workload = make()
        inputs = workload.prepare(os.path.join(work, "inputs"), args.seed)
        print("manifest " + json.dumps(manifest(workload, args.seed, inputs, threads)))
        speed = HostSpeed()
        warmup = make_small()
        warmup.prepare(os.path.join(work, "warmup-inputs"), args.seed)
        Passes(warmup, os.path.join(work, "warmup"), speed).run()
        passes = Passes(workload, os.path.join(work, "passes"), speed)
        if args.trace:
            metrics, timings = measure_traced(passes, args.seconds, args.seed), {}
        else:
            metrics, timings = measure_end_to_end(passes, inputs[0], args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    report(workload, passes, timings, metrics)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        raise SetupError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                         f"the {kind} list of BENCHMARK.json")
    return {"correct": not passes.problems and passes.failed == 0,
            "attempted": passes.attempted,
            "failed": passes.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def _summary(times: list[float]) -> str:
    return f"median {statistics.median(times):.4f} max {max(times):.4f} n {len(times)}"


def report(workload, passes: Passes, timings: dict, metrics: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    for problem in passes.problems:
        print(f"problem {problem}")
    for name, times in passes.command_seconds.items():
        print(f"raw {name}_s {_summary(times)}")
    for name, (raw, scaled) in timings.items():
        print(f"raw {name} {_summary(raw)}; scaled {_summary(scaled)}")
    if "wall_s" in timings:
        wall = statistics.median(timings["wall_s"][0])
        print(f"raw {workload.unit}_per_s {workload.items / wall:.2f} "
              f"({workload.items} {workload.unit} per pass)")
    print(f"error_rate {passes.error_rate:.4f} ({passes.failed}/{passes.attempted} passes)")
    for name, value in (passes.guards or {}).items():
        print(f"quality {name} {value}")
    for name, digest in passes.digests.items():
        print(f"digest {name} {digest}")
    for name, value in metrics.items():
        print(f"metric {name} {value}")


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args, spec)
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
