"""The benchmark's workloads: gridwatch CLI command sequences on generated
inputs, the checks their outputs must pass and the quality guards read off
them.

Each workload writes its config (and, for the heatmap, a random feeder file)
from the seed, then names the CLI commands of one pass.  Each check reads the
output of one command; a failed check fails the pass.
"""

from __future__ import annotations

import os

import numpy as np

from gridwatch import cli, simgen, textconf
from gridwatch.experiments import MetricsTable, parse_heatmap_csv
from gridwatch.grid import format_feeder, random_feeder
from gridwatch.localizer import EXACT_THRESHOLDS

ALPHAS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)


class Command:
    """One CLI invocation: subcommand name, argv for gridwatch.cli.main, output dir."""

    def __init__(self, name: str, argv: list[str], out: str):
        self.name = name
        self.argv = argv
        self.out = out


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class Workload:
    """Shared plumbing; subclasses set name, unit and items and implement
    _write_inputs, commands, check and guards."""

    name = ""
    unit = ""      # what `items` counts, for the throughput line

    def prepare(self, work: str, seed: int) -> list[str]:
        """Write the inputs for `seed` under `work`; returns their paths, config first."""
        os.makedirs(work, exist_ok=True)
        self.seed = seed
        self.config = os.path.join(work, f"{self.name}.conf")
        return self._write_inputs(work)

    def _args(self, command: str, out: str, *extra: str) -> Command:
        return Command(command, [command, "--config", self.config, "--out", out,
                                 "--seed", str(self.seed), *extra], out)


class Monitor(Workload):
    """simulate -> detect -> localize on one long loop12 stream."""

    name = "monitor-loop12"
    unit = "ticks"

    def __init__(self, horizon: int = 20_000, n_boot: int = 200,
                 expected: frozenset = frozenset({(8, 10)})):
        self.horizon = horizon
        self.n_boot = n_boot
        self.expected = expected

    @property
    def items(self) -> int:
        return self.horizon

    def _write_inputs(self, work: str) -> list[str]:
        return [_write(self.config, f"""\
[scenario]
feeder = loop12
outage = 8-10
lambda = {self.horizon // 2}
horizon = {self.horizon}
seed = {self.seed}

[detector]
mode = known_f
alpha = 1e-6

[localize]
n_boot = {self.n_boot}
pairs = branches
""")]

    def commands(self, pass_dir: str) -> list[Command]:
        stream = os.path.join(pass_dir, "simulate")
        return [self._args("simulate", stream),
                self._args("detect", os.path.join(pass_dir, "detect"), "--stream", stream),
                self._args("localize", os.path.join(pass_dir, "localize"), "--stream", stream)]

    @staticmethod
    def _detection(out: str) -> tuple[int, int]:
        fields = dict(textconf.parse_blocks(_read(os.path.join(out, "detection.meta"))))
        return int(fields["detection"]["tau"]), int(fields["detection"]["lambda"])

    @staticmethod
    def _flagged(out: str) -> set:
        rows = cli.parse_localization_csv(_read(os.path.join(out, "localization.csv")))
        return {row["pair"] for row in rows if row["flagged"]}

    def check(self, command: Command) -> list[str]:
        if command.name == "simulate":
            scenario = cli.build_scenario(cli.load_config(self.config),
                                          os.path.dirname(self.config), self.seed)
            ref = simgen.generate(scenario)
            got = simgen.parse_stream(os.path.join(command.out, "stream.csv"),
                                      os.path.join(command.out, "stream.meta"))
            if not (np.array_equal(got.values, ref.values)
                    and np.array_equal(got.fresh, ref.fresh) and got.truth == ref.truth):
                return ["parsed stream differs from the generated one"]
        elif command.name == "detect":
            tau, lam = self._detection(command.out)
            if tau < lam:
                return [f"tau {tau} before lambda {lam}"]
        elif command.name == "localize":
            flagged = self._flagged(command.out)
            if flagged != self.expected:
                return [f"flagged {sorted(flagged)}, expected {sorted(self.expected)}"]
        return []

    def guards(self, outs: dict[str, str]) -> dict[str, float]:
        tau, lam = self._detection(outs["detect"])
        return {"delay_known_f_ticks": tau - lam,
                "false_alarms": int(0 <= tau < lam),
                "localize_errors": len(self._flagged(outs["localize"]) ^ self.expected)}


class Montecarlo(Workload):
    """The paper's delay curve: `experiment` on the loop8 7-8 outage, both modes."""

    name = "montecarlo-loop8"
    unit = "replications"

    def __init__(self, replications: int = 400):
        self.replications = replications

    @property
    def items(self) -> int:
        return self.replications

    def _write_inputs(self, work: str) -> list[str]:
        return [_write(self.config, f"""\
[scenario]
feeder = loop8
outage = 7-8
outage_rho = 0.04
noise_variance = 2e-2
horizon = 10
seed = {self.seed}

[experiment]
alphas = {", ".join(map(repr, ALPHAS))}
replications = {self.replications}
modes = known_f adaptive
parallelism = 1
""")]

    def commands(self, pass_dir: str) -> list[Command]:
        return [self._args("experiment", os.path.join(pass_dir, "experiment"))]

    @staticmethod
    def _table(out: str) -> MetricsTable:
        return MetricsTable.from_csv(_read(os.path.join(out, "metrics.csv")))

    def check(self, command: Command) -> list[str]:
        rows = self._table(command.out).rows
        problems = []
        if len(rows) != 2 * len(ALPHAS):
            problems.append(f"{len(rows)} metric rows, expected {2 * len(ALPHAS)}")
        # The automatic margin is sized from the known_f delay bound, so an
        # adaptive replication is now and then censored at alpha 1e-12 (1 of
        # 400 on seed 29): reported as a quality guard, checked for known_f.
        problems += [f"{r.censored} censored at alpha {r.alpha} ({r.mode})"
                     for r in rows if r.censored and r.mode == "known_f"]
        problems += [f"false-alarm rate {r.empirical_false_alarm} > 2 alpha ({r.mode})"
                     for r in rows if r.alpha == 1e-2 and r.empirical_false_alarm > 2e-2]
        return problems

    def guards(self, outs: dict[str, str]) -> dict[str, float]:
        rows = self._table(outs["experiment"]).rows
        delay = {r.mode: r.avg_delay for r in rows if r.alpha == 1e-6}
        return {"delay_known_f_ticks": delay["known_f"],
                "delay_adaptive_ticks": delay["adaptive"],
                "false_alarms": sum(r.false_alarms for r in rows),
                "censored": sum(r.censored for r in rows)}


class Heatmap(Workload):
    """All-pairs conditional correlation on a seeded random feeder."""

    name = "heatmap-random90"
    unit = "pairs"

    def __init__(self, buses: int = 90, loops: int = 5, lam: int = 1001,
                 horizon: int = 3000):
        self.buses = buses
        self.loops = loops
        self.lam = lam
        self.horizon = horizon

    @property
    def items(self) -> int:
        # heatmap_pre, heatmap_post and heatmap_post_estimated
        return 3 * self.buses * (self.buses - 1) // 2

    def _write_inputs(self, work: str) -> list[str]:
        topology = random_feeder(self.buses, loops=self.loops, seed=self.seed)
        self.branches = {br.pair for br in topology.branches}
        # random_feeder appends its loop branches after the bus_count - 1 tree branches
        self.out_branch = topology.branches[self.buses - 1].pair
        feeder = _write(os.path.join(work, "random.feeder"), format_feeder(topology))
        i, j = self.out_branch
        return [_write(self.config, f"""\
[scenario]
feeder = random.feeder
outage = {i}-{j}
lambda = {self.lam}
horizon = {self.horizon}
seed = {self.seed}
"""), feeder]

    def commands(self, pass_dir: str) -> list[Command]:
        return [self._args("heatmap", os.path.join(pass_dir, "heatmap"))]

    def _collapsed(self, out: str) -> set:
        """Branches whose exact score collapses under EXACT_THRESHOLDS.  Besides
        the out branch this can hold a branch whose own score cancels after the
        outage (seeds 6, 14 and 46 at 90 buses): a quality guard, not a check."""
        buses, pre = parse_heatmap_csv(_read(os.path.join(out, "heatmap_pre.csv")))
        _, post = parse_heatmap_csv(_read(os.path.join(out, "heatmap_post.csv")))
        pos = {bus: k for k, bus in enumerate(buses)}
        return {(i, j) for i, j in self.branches
                if pre[pos[i], pos[j]] > EXACT_THRESHOLDS.active
                and post[pos[i], pos[j]] < EXACT_THRESHOLDS.zero}

    def check(self, command: Command) -> list[str]:
        if self.out_branch not in self._collapsed(command.out):
            return [f"score of the out branch {self.out_branch} does not collapse"]
        return []

    def guards(self, outs: dict[str, str]) -> dict[str, float]:
        return {"localize_errors": len(self._collapsed(outs["heatmap"]) ^ {self.out_branch})}


# Per workload: the benchmark size and a small variant for the warm-up pass.
WORKLOADS = {
    Monitor.name: (Monitor, lambda: Monitor(horizon=400, n_boot=10)),
    Montecarlo.name: (Montecarlo, lambda: Montecarlo(replications=10)),
    Heatmap.name: (Heatmap, lambda: Heatmap(buses=12, loops=1, lam=101, horizon=300)),
}
