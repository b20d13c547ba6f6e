"""Monte Carlo experiment harness: delay/false-alarm curves over an alpha
grid, limited-sensor coverage sweeps, and conditional-correlation heatmap
emission.  Everything is deterministic given the master seed; replication
results are merged by index so worker parallelism cannot change the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import detector as det
from .gaussmodel import (
    CoordinateLayout,
    EstimationPrior,
    GaussianModel,
    kl_divergence,
    score_pairs,
)
from .detector import GeometricPrior, expected_delay_bound
from .grid import philox_key
from .simgen import Scenario, generate, sample_outage_time

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
    parallelism: int = 1
    master_seed: int = 0
    margin: int | None = None      # extra ticks simulated past the outage

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ValueError(f"alpha {a} outside (0, 1)")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}")
        if not self.scenario.out_branches:
            raise ValueError("experiment scenario needs out_branches")
        if self.rho is None and self.scenario.outage_rho is None:
            raise ValueError("need a detector rho: set rho or use a geometric "
                             "outage time in the scenario")

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


def _replication_scenario(config: ExperimentConfig, rep: int, margin: int) -> Scenario:
    """Per-replication variant: fresh seed, outage time drawn from the
    geometric prior (or kept as configured when fixed)."""
    seed = int(np.random.Generator(
        np.random.Philox(key=_rep_key(config.master_seed, rep))).integers(2 ** 62))
    if config.scenario.outage_rho is not None:
        lam = sample_outage_time(config.scenario.outage_rho, seed)
    else:
        lam = config.scenario.lam
    return replace(config.scenario, lam=lam, outage_rho=None,
                   horizon=lam + margin, seed=seed)


def _rep_key(master_seed: int, rep: int) -> int:
    return philox_key(master_seed, "replication", rep)


def _run_replication(args) -> tuple[int, dict]:
    config, rep, margin, g, f = args
    scenario = _replication_scenario(config, rep, margin)
    try:
        stream = generate(scenario)
        samples = stream.values  # all-phasor period-1 experiment streams
        out: dict[str, dict] = {}
        stop_at = det.DetectionRule(min(config.alphas)).log_odds_threshold
        for mode in config.modes:
            if mode == det.KNOWN_F:
                trace = det.known_f_log_odds(samples, g, f, config.detector_rho)
            else:
                trace = det.adaptive_log_odds(
                    samples, g, config.detector_rho,
                    EstimationPrior(config.detector_rho),
                    max_window=config.window, nmin=config.nmin, stop_at=stop_at)
            out[mode] = {alpha: det.first_crossing(trace, alpha)
                         for alpha in config.alphas}
    except Exception as exc:
        raise RuntimeError(
            f"replication {rep} (seed {scenario.seed}) failed: {exc}") from exc
    return rep, {"lam": scenario.lam, "alarms": out}


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
    jobs = [(config, rep, margin, g, f) for rep in range(config.replications)]
    if config.parallelism > 1:
        # imported here: it loads multiprocessing, which serial runs never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            results = dict(pool.map(_run_replication, jobs, chunksize=8))
    else:
        results = dict(map(_run_replication, jobs))

    prior = GeometricPrior(config.detector_rho)
    rows = []
    for mode in config.modes:
        for alpha in config.alphas:
            delays = []
            false_alarms = 0
            censored = 0
            for rep in range(config.replications):
                rec = results[rep]
                lam = rec["lam"]
                tau = rec["alarms"][mode][alpha]
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
    replications count with the horizon-floored delay.
    """
    scenario = config.scenario
    m = scenario.topology.bus_count
    if placements is None:
        if not counts:
            raise ValueError("need placements or counts")
        rng = np.random.Generator(np.random.Philox(
            key=_rep_key(config.master_seed, -1)))
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
    for rep in range(config.replications):
        scen = _replication_scenario(config, rep, margin)
        stream = generate(scen)
        for p_idx, (cols, g, f, _kl) in enumerate(projected):
            samples = stream.values[:, cols]
            trace = det.known_f_log_odds(samples, g, f, config.detector_rho)
            tau = det.first_crossing(trace, config.alphas[0])
            lam = scen.lam
            if tau is None:
                delays[p_idx, rep] = scen.horizon - lam
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

    All pairs are scored in one score_pairs call (one factorisation of
    sigma); degenerate pairs read 0.  Raises SingularBlockError when sigma
    is singular after its zero-variance coordinates are dropped.
    """
    buses = layout.buses
    upper = np.triu_indices(len(buses), 1)
    scores, _ = score_pairs(sigma, [(buses[a], buses[b]) for a, b in zip(*upper)], layout)
    out = np.eye(len(buses))
    out[upper] = scores
    out.T[upper] = scores
    return out


def heatmap_csv(matrix: np.ndarray, layout: CoordinateLayout) -> str:
    buses = layout.buses
    lines = ["bus," + ",".join(map(str, buses))]
    for a, bus in enumerate(buses):
        lines.append(f"{bus}," + ",".join(repr(float(v)) for v in matrix[a]))
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
