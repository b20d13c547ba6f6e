"""Monte Carlo experiment harness: delay/false-alarm curves over an alpha
grid, limited-sensor coverage sweeps, and conditional-correlation heatmap
emission.  Everything is deterministic given the master seed; replications
are split over forked processes in contiguous groups, scored in chunks of
bounded size and joined in replication order, so the split cannot change
the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detector as det
from . import forking
from .gaussmodel import (
    CoordinateLayout,
    GaussianModel,
    GeometricPrior,
    kl_divergence,
    score_pairs,
)
from .detector import expected_delay_bound
from .grid import substream
from .simgen import Scenario, _synthesize, sample_outage_time

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


@dataclass(frozen=True)
class MetricsTable:
    rows: tuple[MetricsRow, ...]
    kl: float
    rho: float

    HEADER = ("alpha,mode,replications,avg_delay,delay_over_logalpha,"
              "empirical_false_alarm,bound,false_alarms,censored")

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            lines.append(f"{r.alpha!r},{r.mode},{r.replications},{r.avg_delay!r},"
                         f"{r.delay_over_logalpha!r},{r.empirical_false_alarm!r},"
                         f"{r.bound!r},{r.false_alarms},{r.censored}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, kl: float = float("nan"),
                 rho: float = float("nan")) -> "MetricsTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if lines[0] != cls.HEADER:
            raise ValueError(f"unexpected metrics header {lines[0]!r}")
        rows = []
        for ln in lines[1:]:
            a, mode, n, d, doa, fa, b, nfa, cens = ln.split(",")
            rows.append(MetricsRow(float(a), mode, int(n), float(d), float(doa),
                                   float(fa), float(b), int(nfa), int(cens)))
        return cls(tuple(rows), kl, rho)


def _default_margin(config: ExperimentConfig, kl: float) -> int:
    bound = expected_delay_bound(min(config.alphas), GeometricPrior(config.detector_rho),
                                 kl)
    return max(64, int(4 * bound) + 16)


def _replication_draw(config: ExperimentConfig, rep: int, margin: int) -> tuple[int, int, int]:
    """(seed, outage tick, horizon) of a replication: a fresh seed, the
    outage tick drawn from the geometric prior (or kept as configured when
    fixed), and margin ticks past it."""
    seed = int(substream(config.master_seed, "replication", rep).integers(2 ** 62))
    if config.scenario.outage_rho is not None:
        lam = sample_outage_time(config.scenario.outage_rho, seed)
    else:
        lam = config.scenario.lam
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
    crossing comes at or before.  A failure names its replication and seed
    (the first replication's, in the shared set-up)."""
    made = _synthesize(config.scenario, draws)
    streams = []
    for rep, (seed, _, _) in zip(reps, draws):
        try:
            streams.append(next(made).values)
        except Exception as exc:
            raise _replication_error(rep, seed, exc) from exc
    rho = config.detector_rho
    thresholds = [det.DetectionRule(alpha).log_odds_threshold for alpha in config.alphas]
    alarms: list[list[dict]] = [[] for _ in reps]
    for cols, g, f in detectors:
        batch = streams if cols is None else [values[:, cols] for values in streams]
        traces = det._log_odds_trace(batch, g, rho, f, max_window=config.window,
                                     nmin=config.nmin, stop_at=max(thresholds))
        for rep, (seed, _, _), out, (trace, _, error) in zip(reps, draws, alarms, traces):
            if error is not None:
                raise _replication_error(rep, seed, error) from error
            out.append(dict(zip(config.alphas, det.first_crossings(trace, thresholds))))
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
    dim = config.scenario.schedule.layout().dim

    def score(reps: range) -> list:
        draws = [_replication_draw(config, rep, margin) for rep in reps]
        rows, lo, total = [], 0, 0
        for k, (_, _, horizon) in enumerate(draws):
            if k > lo and total + horizon * dim > _CHUNK_VALUES:
                rows += _score_chunk(config, reps[lo:k], draws[lo:k], detectors)
                lo, total = k, 0
            total += horizon * dim
        return rows + _score_chunk(config, reps[lo:], draws[lo:], detectors)

    n = min(forking.cpus(), config.replications) if forking.may_fork() else 1
    cuts = [config.replications * k // n for k in range(n + 1)]
    jobs = [lambda reps=range(lo, hi): score(reps) for lo, hi in zip(cuts, cuts[1:])]
    scored = forking.forked(*jobs) if n > 1 else [jobs[0]()]
    return [row for rows in scored for row in rows]


def run_experiment(config: ExperimentConfig) -> MetricsTable:
    """Delay and false-alarm statistics per (alpha, mode).

    Per replication the outage tick is drawn from the geometric prior and a
    fresh stream is synthesized; a single posterior trace per mode yields the
    alarm time for every alpha.  Delays are averaged over replications that
    alarmed at or after the outage; alarms strictly before it count as false
    alarms; replications without an alarm inside the horizon are censored at
    the horizon.
    """
    if config.scenario.schedule.layout().dim != 2 * config.scenario.topology.bus_count:
        raise ValueError("experiment scenarios must observe full phasors at period 1")
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
            delays = []
            false_alarms = 0
            censored = 0
            for lam, alarms in results:
                tau = alarms[m][alpha]
                if tau is None:
                    censored += 1
                    delays.append(margin)
                elif tau < lam:
                    false_alarms += 1
                else:
                    delays.append(tau - lam)
            avg_delay = float(np.mean(delays)) if delays else float("nan")
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


@dataclass(frozen=True)
class PmuSweepTable:
    rows: tuple[PmuSweepRow, ...]

    HEADER = "n_sensors,buses,kl,avg_delay,frac_delay_ge_prev"

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            buses = " ".join(map(str, r.buses))
            lines.append(f"{r.n_sensors},{buses},{r.kl!r},{r.avg_delay!r},"
                         f"{r.frac_delay_ge_prev!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "PmuSweepTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if lines[0] != cls.HEADER:
            raise ValueError(f"unexpected sweep header {lines[0]!r}")
        rows = []
        for ln in lines[1:]:
            n, buses, kl, delay, frac = ln.split(",")
            rows.append(PmuSweepRow(int(n), tuple(int(b) for b in buses.split()),
                                    float(kl), float(delay), float(frac)))
        return cls(tuple(rows))


def parse_heatmap_csv(text: str) -> tuple[tuple[int, ...], np.ndarray]:
    """(bus ids, |rho| matrix) from a heatmap CSV."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    if header[0] != "bus":
        raise ValueError(f"unexpected heatmap header {lines[0]!r}")
    buses = tuple(int(b) for b in header[1:])
    matrix = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    if matrix.shape != (len(buses), len(buses)):
        raise ValueError("heatmap matrix is not square")
    return buses, matrix


def run_pmu_sweep(config: ExperimentConfig, placements: list[list[int]] | None = None,
                  counts: list[int] | None = None) -> PmuSweepTable:
    """Detection delay as sensor coverage shrinks.

    Placements are sensed-bus sets, largest first; when only counts are
    given, a seeded nested placement is drawn (dropping random non-slack
    buses).  The same streams are reused across placements (projected onto
    the observed channels), so delays are seed-wise comparable.  Censored
    replications count with the horizon-floored delay.  Every channel must
    report at period 1: the placements are scored tick by tick with per-tick
    models, which held values between fresh ticks do not follow (ValueError
    naming the first bus with a longer period).
    """
    scenario = config.scenario
    for bus, _, period in scenario.schedule.entries:
        if period != 1:
            raise ValueError(f"coverage sweeps need every channel at period 1: "
                             f"bus {bus} has period {period}")
    m = scenario.topology.bus_count
    if placements is None:
        if not counts:
            raise ValueError("need placements or counts")
        rng = substream(config.master_seed, "replication", -1)
        order = [b for b in range(2, m + 1)]
        rng.shuffle(order)
        placements = [sorted(order[:c]) for c in sorted(counts, reverse=True)]
    if not placements:
        raise ValueError("empty placement list")
    for p in placements:
        if not p:
            raise ValueError("a placement must keep at least one bus")

    g_full = scenario.pre_model()
    f_full = scenario.post_model()
    full_layout = scenario.schedule.layout()

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
    for rep, (lam, alarms) in enumerate(results):
        for p_idx, alarm in enumerate(alarms):
            tau = alarm[config.alphas[0]]
            if tau is None:
                delays[p_idx, rep] = margin  # censored at the horizon, lam + margin
            elif tau < lam:
                delays[p_idx, rep] = np.nan  # false alarm: excluded from delay stats
            else:
                delays[p_idx, rep] = tau - lam

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


def emit_heatmap(sigma0: np.ndarray, sigma1: np.ndarray, layout: CoordinateLayout,
                 pre_path: str, post_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Write |rho| matrices before/after to CSV; returns the matrices."""
    pre = correlation_matrix(sigma0, layout)
    post = correlation_matrix(sigma1, layout)
    with open(pre_path, "w", encoding="utf-8") as fh:
        fh.write(heatmap_csv(pre, layout))
    with open(post_path, "w", encoding="utf-8") as fh:
        fh.write(heatmap_csv(post, layout))
    return pre, post
