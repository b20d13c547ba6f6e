"""Sequential Bayesian change-point detection on measurement streams.

The posterior probability that a change happened at or before the current
step is tracked in log-odds form.  With a geometric change-time prior with
parameter rho and per-step likelihood ratio L_n = f(x_n)/g(x_n), the odds
R_n = P(change <= n | data)/P(change > n | data) satisfy

    R_n = L_n * (R_{n-1} + rho) / (1 - rho),   R_0 = 0,

which is the O(1)-per-step equivalent of the direct posterior sum (property
tested against it).  An alarm is raised the first time the posterior reaches
1 - alpha; the comparison is done in log-odds so tiny alpha stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit, logsumexp

from .gaussmodel import (
    EstimationPrior,
    GaussianModel,
    estimate_post_outage,
    log_density,
)

LOG_ODDS_CLAMP = 700.0

KNOWN_F = "known_f"
ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class GeometricPrior:
    """Geometric change-time prior, pmf rho * (1 - rho)^(k-1)."""

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")


@dataclass(frozen=True)
class DetectionRule:
    """Alarm when the posterior reaches 1 - alpha (inclusive)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def log_odds_threshold(self) -> float:
        return math.log1p(-self.alpha) - math.log(self.alpha)


@dataclass(frozen=True)
class DetectorState:
    """Posterior-odds statistic plus the adaptive-estimation window."""

    n: int = 0
    log_odds: float = -LOG_ODDS_CLAMP
    mode: str = KNOWN_F
    window: tuple = ()
    f_current: GaussianModel | None = None
    f_refreshed: bool = False

    @property
    def posterior(self) -> float:
        return float(expit(self.log_odds))


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


class NonFiniteLikelihoodError(ValueError):
    """A log-likelihood ratio is NaN or infinite, almost always because a
    sample is.  The recursion cannot absorb such a step: min(700, nan) is
    700, so it would raise an alarm on the spot."""


def advance_log_odds(log_odds: float, log_lr: float, rho: float) -> float:
    """One recursion step in log domain, clamped to +-700.

    Raises NonFiniteLikelihoodError when log_lr is not finite.
    """
    if not math.isfinite(log_lr):
        raise NonFiniteLikelihoodError(f"log-likelihood ratio is {log_lr}: "
                                       "non-finite sample")
    out = log_lr + _logaddexp(log_odds, math.log(rho)) - math.log1p(-rho)
    return max(-LOG_ODDS_CLAMP, min(LOG_ODDS_CLAMP, out))


def posterior_update(state: DetectorState, x, g: GaussianModel, f: GaussianModel,
                     prior: GeometricPrior) -> DetectorState:
    """Advance the posterior by one observation against fixed g and f."""
    log_lr = float(log_density(f, x)) - float(log_density(g, x))
    log_odds = advance_log_odds(state.log_odds, log_lr, prior.rho)
    return replace(state, n=state.n + 1, log_odds=log_odds, f_refreshed=False)


def posterior_direct(g: GaussianModel, f: GaussianModel, prior: GeometricPrior,
                     data) -> float:
    """P(change <= N | data) by the direct weighted sum over change positions.

    O(N) per evaluation; kept as the reference the recursion is tested
    against and for small-N diagnostics.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n = data.shape[0]
    if n < 1:
        raise ValueError("need at least one observation")
    log_g = np.atleast_1d(log_density(g, data))
    log_f = np.atleast_1d(log_density(f, data))
    cum_g = np.concatenate([[0.0], np.cumsum(log_g)])      # sum over first k terms
    suf_f = np.concatenate([np.cumsum(log_f[::-1])[::-1], [0.0]])  # sum over tail
    k = np.arange(1, n + 1)
    log_pi = math.log(prior.rho) + (k - 1) * math.log1p(-prior.rho)
    change_terms = log_pi + cum_g[0:n] + suf_f[0:n]
    tail = n * math.log1p(-prior.rho) + cum_g[n]
    log_num = logsumexp(change_terms)
    log_den = logsumexp(np.append(change_terms, tail))
    return float(np.exp(log_num - log_den))


def decide(state: DetectorState, rule: DetectionRule) -> int | None:
    """Alarm time (the current step) if the posterior is at/over 1 - alpha."""
    if state.log_odds >= rule.log_odds_threshold:
        return state.n
    return None


def inflated_fallback(g: GaussianModel, inflate: float = 4.0) -> GaussianModel:
    """Stand-in post-change model used before the window can support an
    estimate: g with the covariance inflated."""
    return GaussianModel(g.mean, g.cov * inflate, g.layout)


def adaptive_step(state: DetectorState, x, g: GaussianModel, prior: GeometricPrior,
                  est_prior: EstimationPrior | None = None, *,
                  max_window: int = 50, nmin: int | None = None,
                  inflate: float = 4.0,
                  fallback: GaussianModel | None = None) -> DetectorState:
    """One detector step with the post-change model learned from the window.

    The observation is scored against a model fitted on the window *before*
    it is appended: that keeps E[L_n | past] = 1 under no-change data, which
    preserves the optional-stopping false-alarm bound of the alarm rule.
    (Scoring a sample against a model that was fitted on it inflates the
    likelihood ratio without bound once the window is barely larger than the
    dimension.)

    Once the window holds at least nmin samples (default dim + 2) the fitted
    model is used, shrunk toward the inflated-g fallback with weight
    dim/(dim + window): near-singular early-window covariance estimates
    would otherwise assign vanishing density outside their empirical span
    and stall detection.  Before nmin the fallback is used alone.
    """
    if state.mode != ADAPTIVE:
        raise ValueError("adaptive_step requires an adaptive-mode state")
    x = np.asarray(x, dtype=float)
    if fallback is None:
        fallback = inflated_fallback(g, inflate)
    need = (g.dim + 2) if nmin is None else nmin
    refreshed = False
    if len(state.window) >= max(2, need):
        est = estimate_post_outage(np.asarray(state.window),
                                   est_prior or EstimationPrior(prior.rho))
        w = g.dim / (g.dim + len(state.window))
        f = GaussianModel((1.0 - w) * est.mean + w * fallback.mean,
                          (1.0 - w) * est.cov + w * fallback.cov)
        refreshed = True
    else:
        f = fallback
    log_lr = float(log_density(f, x)) - float(log_density(g, x))
    log_odds = advance_log_odds(state.log_odds, log_lr, prior.rho)
    window = (state.window + (x,))[-max_window:]
    return replace(state, n=state.n + 1, log_odds=log_odds, window=window,
                   f_current=f, f_refreshed=refreshed)


def expected_delay_bound(alpha: float, prior: GeometricPrior, dkl: float) -> float:
    """Asymptotic mean-delay limit |log alpha| / (-log(1-rho) + KL)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if dkl < 0:
        raise ValueError(f"KL divergence must be nonnegative, got {dkl}")
    denom = -math.log1p(-prior.rho) + dkl
    if denom <= 0.0:
        raise ValueError("degenerate bound: -log(1-rho) + KL is zero")
    return abs(math.log(alpha)) / denom


# --- stream-level driving ----------------------------------------------------

@dataclass(frozen=True)
class DetectorConfig:
    """Everything run_detector needs besides the stream itself.

    g/f are per-tick base models over (a superset of) the stream's channels;
    they are projected onto the stream layout and scaled by the detector step
    period automatically.
    """

    g: GaussianModel
    f: GaussianModel | None = None
    mode: str = KNOWN_F
    alpha: float = 1e-6
    rho: float = 1e-4
    estimation_rho: float | None = None
    window: int = 50
    nmin: int | None = None
    inflate: float = 4.0
    hold_last_value: bool = False

    def __post_init__(self):
        if self.mode not in (KNOWN_F, ADAPTIVE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == KNOWN_F and self.f is None:
            raise ValueError("known_f mode needs the post-change model f")


@dataclass(frozen=True)
class DetectionReport:
    """Alarm time, posterior trace and ground-truth bookkeeping."""

    tau: int | None
    step_ticks: np.ndarray = field(repr=False)
    posterior_trace: np.ndarray = field(repr=False)
    log_odds_trace: np.ndarray = field(repr=False)
    f_refreshed: np.ndarray = field(repr=False)
    mode: str = KNOWN_F
    lambda_true: int | None = None
    delay: int | None = None


def run_detector(stream, config: DetectorConfig) -> DetectionReport:
    """Drive the detector over a measurement stream.

    By default the detector steps only when every configured channel is
    fresh (once per least-common-multiple of the channel periods); channel
    values accumulated between steps form the increment over the step
    period, and the base models are scaled accordingly.  With
    hold_last_value the detector instead steps every tick, carrying stale
    channels forward against the unscaled per-tick model.
    """
    layout = stream.layout
    g = config.g.project(layout) if config.g.layout is not None else config.g
    if g.dim != layout.dim:
        raise ValueError("base model does not cover the stream channels")
    periods = stream.schedule.channel_periods(layout)
    step_period = 1 if config.hold_last_value else _lcm_all(periods)
    g_step = g.scaled_cov(float(step_period)) if step_period > 1 else g
    f_step = None
    if config.f is not None:
        f = config.f.project(layout) if config.f.layout is not None else config.f
        f_step = f.scaled_cov(float(step_period)) if step_period > 1 else f

    prior = GeometricPrior(config.rho)
    rule = DetectionRule(config.alpha)
    est_prior = EstimationPrior(config.estimation_rho
                                if config.estimation_rho is not None else config.rho)
    fallback = inflated_fallback(g_step, config.inflate)
    state = DetectorState(mode=config.mode)

    ticks: list[int] = []
    log_odds: list[float] = []
    refreshed: list[bool] = []
    tau: int | None = None
    acc = np.zeros(layout.dim)
    for frame in stream.frames:
        if frame.values.shape != (layout.dim,):
            raise ValueError(
                f"dimension drift at tick {frame.tick}: frame has "
                f"{frame.values.shape[0]} channels, layout has {layout.dim}")
        if config.hold_last_value:
            x = frame.values
        else:
            acc = acc + np.where(frame.fresh, frame.values, 0.0)
            if frame.tick % step_period != 0:
                continue
            x, acc = acc, np.zeros(layout.dim)
        try:
            if config.mode == ADAPTIVE:
                state = adaptive_step(state, x, g_step, prior, est_prior,
                                      max_window=config.window, nmin=config.nmin,
                                      fallback=fallback)
            else:
                state = posterior_update(state, x, g_step, f_step, prior)
        except NonFiniteLikelihoodError as exc:
            raise NonFiniteLikelihoodError(f"tick {frame.tick}: {exc}") from None
        ticks.append(frame.tick)
        log_odds.append(state.log_odds)
        refreshed.append(state.f_refreshed)
        if tau is None and decide(state, rule) is not None:
            tau = frame.tick

    lam = stream.truth.lam
    delay = tau - lam if (tau is not None and lam is not None and tau >= lam) else None
    lo = np.asarray(log_odds)
    return DetectionReport(
        tau=tau,
        step_ticks=np.asarray(ticks, dtype=int),
        posterior_trace=expit(lo),
        log_odds_trace=lo,
        f_refreshed=np.asarray(refreshed, dtype=bool),
        mode=config.mode,
        lambda_true=lam,
        delay=delay,
    )


def known_f_log_odds(samples: np.ndarray, g: GaussianModel, f: GaussianModel,
                     rho: float) -> np.ndarray:
    """Log-odds trace over a sample matrix with fixed models (fast path)."""
    log_lr = np.atleast_1d(log_density(f, samples)) - np.atleast_1d(log_density(g, samples))
    out = np.empty(log_lr.size)
    lo = -LOG_ODDS_CLAMP
    for k, llr in enumerate(log_lr):
        lo = advance_log_odds(lo, float(llr), rho)
        out[k] = lo
    return out


def adaptive_log_odds(samples: np.ndarray, g: GaussianModel, rho: float,
                      est_prior: EstimationPrior | None = None, *,
                      max_window: int = 50, nmin: int | None = None,
                      inflate: float = 4.0,
                      stop_at: float | None = None) -> np.ndarray:
    """Adaptive-mode log-odds trace over a sample matrix.

    stop_at truncates the trace once the log-odds reach the given level
    (alarm already decided; saves the estimator refreshes).
    """
    prior = GeometricPrior(rho)
    est = est_prior or EstimationPrior(rho)
    fallback = inflated_fallback(g, inflate)
    state = DetectorState(mode=ADAPTIVE)
    out = np.empty(samples.shape[0])
    for k in range(samples.shape[0]):
        state = adaptive_step(state, samples[k], g, prior, est,
                              max_window=max_window, nmin=nmin, fallback=fallback)
        out[k] = state.log_odds
        if stop_at is not None and state.log_odds >= stop_at:
            return out[: k + 1]
    return out


def first_crossing(log_odds: np.ndarray, alpha: float) -> int | None:
    """1-based index of the first step at/above the alarm threshold."""
    hits = np.nonzero(log_odds >= DetectionRule(alpha).log_odds_threshold)[0]
    return int(hits[0]) + 1 if hits.size else None


def _lcm_all(values) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, int(v))
    return out
