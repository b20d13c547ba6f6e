"""Monte Carlo experiment harness: delay/false-alarm curves over an alpha
grid, limited-sensor coverage sweeps, and conditional-correlation heatmap
emission.  Everything is deterministic given the master seed; replications
are split over forked processes in contiguous groups, scored in chunks of
bounded size and joined in replication order, so the split cannot change
the output.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import detector as det
from . import forking, textconf
from .gaussmodel import (
    CoordinateLayout,
    GeometricPrior,
    kl_divergence,
    score_pairs,
)
from .detector import expected_delay_bound
from .grid import substream
from .simgen import Scenario, _synthesize

MODES = (det.KNOWN_F, det.ADAPTIVE)


@dataclass(frozen=True)
class ExperimentConfig:
    """Delay-curve experiment: replications of (random outage time, detect)
    for every alpha in the grid and every requested mode."""

    scenario: Scenario
    alphas: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
    replications: int = 200
    modes: tuple[str, ...] = (det.KNOWN_F,)
    rho: float | None = None       # detector prior; defaults to the outage rate
    window: int = 50
    nmin: int | None = None
    master_seed: int = 0
    margin: int | None = None      # extra ticks simulated past the outage

    def __post_init__(self):
        for key in ("alphas", "modes"):
            if not getattr(self, key):
                raise ValueError(f"{key} must name at least one value")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        for a in self.alphas:
            det.DetectionRule(a)
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}")
        if not self.scenario.out_branches:
            raise ValueError("experiment scenario needs out_branches")
        if self.margin is not None and self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.rho is None and self.scenario.outage_rho is None:
            raise ValueError("need a detector rho: set rho or use a geometric "
                             "outage time in the scenario")
        if det.ADAPTIVE in self.modes:
            det._check_window("experiment", self.window, 2 * self.scenario.topology.bus_count,
                             self.nmin)

    @property
    def detector_rho(self) -> float:
        return self.rho if self.rho is not None else self.scenario.outage_rho


@dataclass(frozen=True)
class MetricsRow:
    alpha: float
    mode: str
    replications: int
    avg_delay: float
    delay_over_logalpha: float
    empirical_false_alarm: float
    bound: float
    false_alarms: int
    censored: int


# metrics.csv: one MetricsRow a line, its fields in order
METRICS = textconf.Table("alpha,mode,replications,avg_delay,delay_over_logalpha,"
                         "empirical_false_alarm,bound,false_alarms,censored",
                         "%r,%s,%d,%r,%r,%r,%r,%d,%d",
                         (float, str, int, float, float, float, float, int, int))


@dataclass(frozen=True)
class MetricsTable:
    rows: tuple[MetricsRow, ...]
    kl: float
    rho: float

    def to_csv(self) -> str:
        return METRICS.text(map(astuple, self.rows))

    @classmethod
    def from_csv(cls, text: str, kl: float = float("nan"),
                 rho: float = float("nan")) -> "MetricsTable":
        return cls(tuple(MetricsRow(*row) for row in METRICS.rows(text)), kl, rho)


def _default_margin(config: ExperimentConfig, kl: float) -> int:
    bound = expected_delay_bound(min(config.alphas), GeometricPrior(config.detector_rho),
                                 kl)
    return max(64, int(4 * bound) + 16)


def _replication_draw(config: ExperimentConfig, rep: int, margin: int) -> tuple[int, int, int]:
    """(seed, outage tick, horizon) of a replication: a fresh seed, the
    scenario's outage tick for that seed, and margin ticks past it."""
    seed = int(substream(config.master_seed, "replication", rep).integers(2 ** 62))
    lam = config.scenario.outage_tick(seed)
    return seed, lam, lam + margin


# A group scores its replications in contiguous chunks of at most this many
# stream values (512 kB; about 46 replications on loop8), or of one larger
# replication: one synthesis call and one core call per detector each.
_CHUNK_VALUES = 1 << 16


def _replication_error(rep: int, seed: int, exc: Exception) -> RuntimeError:
    return RuntimeError(f"replication {rep} (seed {seed}) failed: {exc}")


def _score_chunk(config: ExperimentConfig, reps: range, draws: list,
                 detectors: list) -> list[tuple[int, list[dict]]]:
    """(outage tick, alarms per detector) of every replication of a chunk,
    from its (seed, outage tick, horizon) draws.  A detector is (stream
    columns or None for all, g, f or None for adaptive); its alarms map each
    alpha to the first crossing or None.  The streams come from one
    simgen._synthesize call; each detector scores them in one core call
    stopped at the threshold of min(alphas), which every alpha's first
    crossing comes at or before, then finds them all in one pass.  A failure
    names its replication and seed (the first one's, in the shared set-up)."""
    made = _synthesize(config.scenario, draws)
    streams = []
    for rep, (seed, _, _) in zip(reps, draws):
        try:
            streams.append(next(made).values)
        except Exception as exc:
            raise _replication_error(rep, seed, exc) from exc
    thresholds = [det.DetectionRule(alpha).log_odds_threshold for alpha in config.alphas]
    alarms: list[list[dict]] = [[] for _ in reps]
    for cols, g, f in detectors:
        batch = streams if cols is None else [values[:, cols] for values in streams]
        traces = det.log_odds_traces(batch, g, config.detector_rho, f, max_window=config.window,
                                     nmin=config.nmin, stop_at=max(thresholds))
        for rep, (seed, _, _), (_, _, error) in zip(reps, draws, traces):
            if error is not None:
                raise _replication_error(rep, seed, error) from error
        for out, hits in zip(alarms, det.first_crossings([t for t, _, _ in traces], thresholds)):
            out.append(dict(zip(config.alphas, hits)))
    return [(lam, out) for (_, lam, _), out in zip(draws, alarms)]


def _replications(config: ExperimentConfig, margin: int,
                  detectors: list) -> list[tuple[int, list[dict]]]:
    """(outage tick, alarms per detector) of every replication, by index.

    The replications are cut into min(cpus, replications) contiguous groups
    whose sizes differ by at most one (one group unless forking.may_fork):
    the first group is scored here, each other one in a forked child.  A
    group draws its replications and scores them in contiguous chunks of at
    most _CHUNK_VALUES stream values, horizon x dim each.  The groups come
    back in order and are joined, so the result does not depend on the
    split, and a failure raises the error of the lowest failing chunk, as in
    one process."""
    dim = config.scenario.schedule.layout.dim

    def score(reps: range) -> list:
        draws = [_replication_draw(config, rep, margin) for rep in reps]
        rows, lo, total = [], 0, 0
        for k, (_, _, horizon) in enumerate(draws):
            if k > lo and total + horizon * dim > _CHUNK_VALUES:
                rows += _score_chunk(config, reps[lo:k], draws[lo:k], detectors)
                lo, total = k, 0
            total += horizon * dim
        return rows + _score_chunk(config, reps[lo:], draws[lo:], detectors)

    # one group unless a child may fork: run here, more groups would only
    # end this process's chunks short of the budget at each group's end
    n = min(forking.cpus(), config.replications) if forking.may_fork() else 1
    cuts = [config.replications * k // n for k in range(n + 1)]
    jobs = [lambda reps=range(lo, hi): score(reps) for lo, hi in zip(cuts, cuts[1:])]
    scored = forking.forked(*jobs)
    return [row for rows in scored for row in rows]


def _delays(alarms, margin: int) -> tuple[list, int]:
    """(delay per replication, censored count) of (outage step, alarm step
    or None) pairs: tau - lam for an alarm at or after the outage, NaN for
    a false alarm (before it, left out of the delay statistics), and margin
    for no alarm, a replication censored at its horizon lam + margin."""
    delays = [margin if tau is None else math.nan if tau < lam else tau - lam
              for lam, tau in alarms]
    return delays, sum(tau is None for _, tau in alarms)


def run_experiment(config: ExperimentConfig) -> MetricsTable:
    """Delay and false-alarm statistics per (alpha, mode).

    Per replication the outage tick is drawn from the geometric prior and a
    fresh stream is synthesized; a single posterior trace per mode yields the
    alarm time for every alpha.  Delays are averaged over replications that
    alarmed at or after the outage; alarms strictly before it count as false
    alarms; replications without an alarm inside the horizon are censored at
    the horizon.  The scenario must observe full phasors, every channel at
    period 1 (ValueError otherwise).
    """
    config.scenario.schedule.require_period_one("experiments")
    if config.scenario.schedule.layout.dim != 2 * config.scenario.topology.bus_count:
        raise ValueError("experiment scenarios must observe full phasors")
    g = config.scenario.pre_model()
    f = config.scenario.post_model()
    kl = kl_divergence(f, g)
    margin = config.margin if config.margin is not None else _default_margin(config, kl)
    results = _replications(config, margin, [(None, g, f if mode == det.KNOWN_F else None)
                                             for mode in config.modes])
    prior = GeometricPrior(config.detector_rho)
    rows = []
    for m, mode in enumerate(config.modes):
        for alpha in config.alphas:
            delays, censored = _delays([(lam, alarms[m][alpha]) for lam, alarms in results],
                                       margin)
            kept = [delay for delay in delays if not math.isnan(delay)]
            false_alarms = len(delays) - len(kept)
            avg_delay = float(np.mean(kept)) if kept else float("nan")
            rows.append(MetricsRow(
                alpha=alpha,
                mode=mode,
                replications=config.replications,
                avg_delay=avg_delay,
                delay_over_logalpha=avg_delay / abs(math.log(alpha)),
                empirical_false_alarm=false_alarms / config.replications,
                bound=expected_delay_bound(alpha, prior, kl),
                false_alarms=false_alarms,
                censored=censored,
            ))
    return MetricsTable(tuple(rows), kl=kl, rho=config.detector_rho)


# --- limited-sensor coverage sweep -------------------------------------------

@dataclass(frozen=True)
class PmuSweepRow:
    n_sensors: int
    buses: tuple[int, ...]
    kl: float
    avg_delay: float
    frac_delay_ge_prev: float  # fraction of seeds with delay >= previous (larger) placement


# pmu_sweep.csv: one PmuSweepRow a line, its buses space-separated
PMU_SWEEP = textconf.Table("n_sensors,buses,kl,avg_delay,frac_delay_ge_prev", "%d,%s,%r,%r,%r",
                           (int, textconf.buses, float, float, float))


@dataclass(frozen=True)
class PmuSweepTable:
    rows: tuple[PmuSweepRow, ...]

    def cells(self):
        return ((r.n_sensors, " ".join(map(str, r.buses)), r.kl, r.avg_delay,
                 r.frac_delay_ge_prev) for r in self.rows)

    def to_csv(self) -> str:
        return PMU_SWEEP.text(self.cells())


def parse_heatmap_csv(text: str) -> tuple[tuple[int, ...], np.ndarray]:
    """(bus ids, |rho| matrix) from a heatmap CSV: a header of ``bus`` and
    the bus ids, then per bus its id and one cell per bus.  ConfigError
    names the line of a bad row, or a header that does not name the rows'
    buses in order."""
    header = next(filter(str.strip, text.splitlines()), "")
    rows = textconf.Table(header, "", (int,) + (float,) * header.count(",")).rows(text)
    buses = tuple(row[0] for row in rows)
    if header != ",".join(["bus", *map(str, buses)]):
        raise textconf.ConfigError(f"heatmap header {header!r} does not name the buses "
                                   f"of its rows, {list(buses)}")
    return buses, np.array([row[1:] for row in rows]).reshape(len(buses), len(buses))


def run_pmu_sweep(config: ExperimentConfig, placements: list[list[int]] | None = None,
                  counts: list[int] | None = None) -> PmuSweepTable:
    """Detection delay as sensor coverage shrinks.

    Placements are nested sensed-bus sets, largest first (ValueError
    naming the first that is no subset of the one before it); when only
    counts are given, a seeded nested placement is drawn (dropping random
    non-slack buses).  The same streams are reused across placements
    (projected onto the observed channels), so delays are seed-wise
    comparable.  Censored replications count with the horizon-floored
    delay.  Every channel must report at period 1
    (SensorSchedule.require_period_one).
    """
    scenario = config.scenario
    scenario.schedule.require_period_one("coverage sweeps")
    m = scenario.topology.bus_count
    if placements is None:
        if not counts:
            raise ValueError("need placements or counts")
        for c in counts:
            if not 1 <= c < m:
                raise ValueError(f"sensor count {c} is outside 1..{m - 1}, the non-slack buses")
        rng = substream(config.master_seed, "replication", -1)
        order = [b for b in range(2, m + 1)]
        rng.shuffle(order)
        placements = [sorted(order[:c]) for c in sorted(counts, reverse=True)]
    if not placements:
        raise ValueError("empty placement list")
    for k, p in enumerate(placements):
        if not p:
            raise ValueError("a placement must keep at least one bus")
        for bus in p:
            if not 1 <= bus <= m:
                raise ValueError(f"placement bus {bus} is outside the feeder's buses 1..{m}")
        if len(set(p)) < len(p):
            raise ValueError(f"placement {sorted(p)} names a bus twice")
        if k and not set(p) <= set(placements[k - 1]):
            raise ValueError(f"placement {sorted(p)} is not a subset of the one before it, "
                             f"{sorted(placements[k - 1])}: placements are nested, "
                             "largest first")

    g_full = scenario.pre_model()
    f_full = scenario.post_model()
    full_layout = scenario.schedule.layout

    delays = np.zeros((len(placements), config.replications))
    projected = []
    for buses in placements:
        sub_layout = full_layout.restrict(set(buses))
        g = g_full.project(sub_layout)
        f = f_full.project(sub_layout)
        projected.append((sub_layout.indices_in(full_layout), g, f, kl_divergence(f, g)))
    # simulate far enough past the outage for the weakest placement to alarm
    margin = config.margin if config.margin is not None else _default_margin(
        config, min(p[3] for p in projected))
    results = _replications(config, margin, [(cols, g, f) for cols, g, f, _ in projected])
    for p_idx, row in enumerate(delays):
        row[:] = _delays([(lam, alarms[p_idx][config.alphas[0]]) for lam, alarms in results],
                         margin)[0]

    rows = []
    for p_idx, buses in enumerate(placements):
        cur = delays[p_idx]
        if p_idx == 0:
            frac = 1.0
        else:
            prev = delays[p_idx - 1]
            ok = ~(np.isnan(cur) | np.isnan(prev))
            frac = float(np.mean(cur[ok] >= prev[ok])) if ok.any() else float("nan")
        rows.append(PmuSweepRow(
            n_sensors=len(buses),
            buses=tuple(buses),
            kl=projected[p_idx][3],
            avg_delay=float(np.nanmean(cur)),
            frac_delay_ge_prev=frac,
        ))
    return PmuSweepTable(tuple(rows))


# --- heatmap emission ---------------------------------------------------------

def correlation_matrix(sigma: np.ndarray, layout: CoordinateLayout) -> np.ndarray:
    """|conditional correlation| per bus pair, ones on the diagonal.

    The upper-triangle pairs are scored as one array in one score_pairs
    call (one factorisation of sigma); degenerate pairs read 0.  Raises
    SingularBlockError when sigma is singular after its zero-variance
    coordinates are dropped.
    """
    buses = np.array(layout.buses)
    upper = np.triu_indices(len(buses), 1)
    scores, _ = score_pairs(sigma, buses[np.column_stack(upper)], layout)
    out = np.eye(len(buses))
    out[upper] = scores
    out.T[upper] = scores
    return out


def heatmap_csv(matrix: np.ndarray, layout: CoordinateLayout) -> str:
    """The matrix as CSV: a header row of bus ids, then per bus its id and
    the repr of each cell.  The upper triangle, diagonal included, is
    formatted once; a lower cell reuses its mirror's text when the two hold
    the same float64 bits, and is formatted itself otherwise."""
    buses = layout.buses
    matrix = np.asarray(matrix, dtype=np.float64)
    upper = np.triu_indices(len(buses))
    text = np.empty(matrix.shape, dtype=object)
    text[upper] = list(map(repr, matrix[upper].tolist()))
    text.T[upper] = text[upper]
    bits = matrix.view(np.uint64)
    skew = np.flatnonzero(np.tril(bits != bits.T, -1))
    text.flat[skew] = list(map(repr, matrix.flat[skew].tolist()))
    lines = ["bus," + ",".join(map(str, buses))]
    lines += [f"{bus}," + ",".join(row) for bus, row in zip(buses, text.tolist())]
    return "\n".join(lines) + "\n"

