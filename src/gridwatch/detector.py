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
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit, logsumexp

from .gaussmodel import (
    EstimationPrior,
    GaussianModel,
    estimate_windows,
    log_density,
    log_density_stack,
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


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


class NonFiniteLikelihoodError(ValueError):
    """A log-likelihood ratio is NaN or infinite, almost always because a
    sample is.  The recursion cannot absorb such a step: min(700, nan) is
    700, so it would raise an alarm on the spot.  step is the 0-based index
    of the step in its trace, when known."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def _advance(log_odds: float, log_lr: float, log_rho: float, log_keep: float) -> float:
    out = log_lr + _logaddexp(log_odds, log_rho) - log_keep
    return max(-LOG_ODDS_CLAMP, min(LOG_ODDS_CLAMP, out))


def advance_log_odds(log_odds: float, log_lr: float, rho: float) -> float:
    """One recursion step in log domain, clamped to +-700.

    Raises NonFiniteLikelihoodError when log_lr is not finite.
    """
    if not math.isfinite(log_lr):
        raise NonFiniteLikelihoodError(f"log-likelihood ratio is {log_lr}: "
                                       "non-finite sample")
    return _advance(log_odds, log_lr, math.log(rho), math.log1p(-rho))


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


def inflated_fallback(g: GaussianModel, inflate: float = 4.0) -> GaussianModel:
    """Stand-in post-change model used before the window can support an
    estimate: g with the covariance inflated."""
    return GaussianModel(g.mean, g.cov * inflate, g.layout)


# Steps are scored in blocks.  With stop_at the first block holds
# _FIRST_BLOCK steps and each next one twice as many, so a trace cut short
# computes at most one block past its end, about as many steps as it kept;
# without stop_at every block is as large as the budget allows.  A block's
# largest stacked array (the adaptive windows, or the samples) holds at most
# _STACK_BUDGET float64 values, 128 kB: with 1 MB stacks the montecarlo
# benchmark peaked 1.6 MB higher than the per-step path, with 128 kB about
# as high.
_FIRST_BLOCK = 8
_STACK_BUDGET = 1 << 14


def _log_odds_trace(samples, g: GaussianModel, rho: float, f: GaussianModel | None = None,
                    est_prior: EstimationPrior | None = None, *, max_window: int = 50,
                    nmin: int | None = None, inflate: float = 4.0,
                    stop_at: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The detector core: (log-odds trace, refreshed mask) over an (n, d)
    sample matrix, one step per row.

    With a post-change model f every step scores f against g (known_f mode).
    Without one (adaptive mode) the post-change model of a step is learned
    from the window of up to max_window samples before it.  The sample is
    scored against a model fitted on the window *before* it is appended:
    that keeps E[L_n | past] = 1 under no-change data, which preserves the
    optional-stopping false-alarm bound of the alarm rule.  (Scoring a
    sample against a model that was fitted on it inflates the likelihood
    ratio without bound once the window is barely larger than the
    dimension.)  Once the window holds at least nmin samples (default
    dim + 2, never below 2) the fitted model is used and the step is marked
    refreshed; it is shrunk toward the g-with-inflated-covariance fallback
    with weight dim/(dim + window), because near-singular early-window
    covariance estimates would otherwise assign vanishing density outside
    their empirical span and stall detection.  Before nmin the fallback is
    used alone.

    All windows of a block are fitted as one stack (estimate_windows) and
    scored by one log_density_stack call; g and the fallback are scored
    once per block.  stop_at truncates the trace at the first step whose
    log-odds reach it.  An error of a step (a non-finite log-likelihood
    ratio as NonFiniteLikelihoodError with its step, a singular covariance,
    explicit estimation weights of the wrong length) is raised only if the
    recursion reaches that step.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"samples must be an (n, d) matrix, got shape {samples.shape}")
    prior = GeometricPrior(rho)
    log_rho, log_keep = math.log(prior.rho), math.log1p(-prior.rho)
    n = samples.shape[0]
    adaptive = f is None
    if adaptive:
        if max_window < 1:
            raise ValueError(f"window must be >= 1, got {max_window}")
        fallback = inflated_fallback(g, inflate)
        need = max(2, g.dim + 2 if nmin is None else nmin)
        # windows[k] holds the max_window samples before sample k, zero rows
        # standing in for those before the first
        padded = np.zeros((max_window + n, samples.shape[1]))
        padded[max_window:] = samples
        windows = sliding_window_view(padded, max_window, axis=0).transpose(0, 2, 1)
        est_prior = est_prior or EstimationPrior(rho)
    cap = max(1, _STACK_BUDGET // (samples.shape[1] * (max_window if adaptive else 1)))
    size = _FIRST_BLOCK if stop_at is not None else cap
    trace = np.empty(n)
    refreshed = np.zeros(n, dtype=bool)
    log_odds = -LOG_ODDS_CLAMP
    start = 0
    while start < n:
        end = min(n, start + size, start + cap)
        finite = np.isfinite(samples[start:end]).all(axis=1)
        if not finite.all():
            # later windows would hold the bad sample; its own step fails
            end = start + int(np.argmin(finite)) + 1
        x = samples[start:end]
        log_g = log_density(g, x)
        error = None
        if adaptive:
            lengths = np.minimum(np.arange(start, end), max_window)
            refreshed[start:end] = lengths >= need
            log_f, error = _adaptive_log_f(windows[start:end], lengths, x, g.dim,
                                           need, fallback, est_prior)
        else:
            log_f = log_density(f, x)
        with np.errstate(invalid="ignore"):  # inf - inf: raised below as non-finite
            log_lr = log_f - log_g[:log_f.size]
        bad = np.flatnonzero(~np.isfinite(log_lr))
        run = log_lr[: bad[0] if bad.size else log_lr.size].tolist()
        for k, value in enumerate(run):
            log_odds = _advance(log_odds, value, log_rho, log_keep)
            run[k] = log_odds
            if stop_at is not None and log_odds >= stop_at:
                stop = start + k + 1
                trace[start:stop] = run[: k + 1]
                return trace[:stop], refreshed[:stop]
        trace[start:start + len(run)] = run
        if bad.size:
            step = start + int(bad[0])
            raise NonFiniteLikelihoodError(
                f"log-likelihood ratio is {log_lr[bad[0]]}: non-finite sample "
                f"at step {step + 1}", step)
        if error is not None:
            raise error
        start = end
        size *= 2
    return trace, refreshed


def _adaptive_log_f(windows: np.ndarray, lengths: np.ndarray, x: np.ndarray, dim: int,
                    need: int, fallback: GaussianModel, est_prior: EstimationPrior):
    """(log f per step, error) for one adaptive block.  The steps refresh
    from the first whose window holds need samples on.  When a refit fails
    the steps are refitted one by one: log f then stops before the first
    failing step, whose error is returned."""
    log_f = np.empty(lengths.size)
    first = int(np.searchsorted(lengths, need))
    if first:
        log_f[:first] = log_density(fallback, x[:first])

    def refit(lo: int, hi: int) -> np.ndarray:
        means, covs = estimate_windows(windows[lo:hi], lengths[lo:hi], est_prior)
        w = dim / (dim + lengths[lo:hi])
        means = (1.0 - w)[:, None] * means + w[:, None] * fallback.mean
        covs = (1.0 - w)[:, None, None] * covs + w[:, None, None] * fallback.cov
        return log_density_stack(means, covs, x[lo:hi])

    if first == lengths.size:
        return log_f, None
    try:
        log_f[first:] = refit(first, lengths.size)
        return log_f, None
    except ValueError:
        # LinAlgError and so SingularBlockError are ValueErrors too
        for k in range(first, lengths.size):
            try:
                log_f[k] = refit(k, k + 1)[0]
            except ValueError as exc:
                return log_f[:k], exc
        return log_f, None


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

    rule = DetectionRule(config.alpha)
    if stream.values.shape[1] != layout.dim:
        raise ValueError(f"dimension drift: stream has {stream.values.shape[1]} "
                         f"channels, layout has {layout.dim}")
    ticks, x = _step_increments(stream, step_period, config.hold_last_value)
    est_prior = EstimationPrior(config.estimation_rho
                                if config.estimation_rho is not None else config.rho)
    try:
        log_odds, refreshed = _log_odds_trace(
            x, g_step, config.rho, f_step if config.mode == KNOWN_F else None, est_prior,
            max_window=config.window, nmin=config.nmin, inflate=config.inflate)
    except NonFiniteLikelihoodError as exc:
        raise NonFiniteLikelihoodError(f"tick {ticks[exc.step]}: {exc}", exc.step) from None

    hit = first_crossing(log_odds, rule.alpha)
    tau = int(ticks[hit - 1]) if hit is not None else None
    lam = stream.truth.lam
    delay = tau - lam if (tau is not None and lam is not None and tau >= lam) else None
    return DetectionReport(
        tau=tau,
        step_ticks=ticks,
        posterior_trace=expit(log_odds),
        log_odds_trace=log_odds,
        f_refreshed=refreshed,
        mode=config.mode,
        lambda_true=lam,
        delay=delay,
    )


def _step_increments(stream, step_period: int,
                     hold_last_value: bool) -> tuple[np.ndarray, np.ndarray]:
    """(ticks, x): the tick and the sample of every detector step.

    With hold_last_value every tick is a step and its sample is the held
    values.  Otherwise a step ends every step_period ticks (a tail of fewer
    ticks is dropped) and its sample is the sum of the fresh values of its
    ticks, added in tick order to a zero row: bit for bit what a running
    per-tick accumulator gives (ndarray.sum over the tick axis adds
    pairwise for some shapes, one channel with a long period among them).
    """
    if hold_last_value:
        return np.arange(1, stream.horizon + 1), stream.values
    steps = stream.horizon // step_period
    fresh = np.where(stream.fresh, stream.values, 0.0)[: steps * step_period]
    fresh = fresh.reshape(steps, step_period, stream.values.shape[1])
    x = np.zeros((steps, stream.values.shape[1]))
    for k in range(step_period):
        x += fresh[:, k]
    return step_period * np.arange(1, steps + 1), x


def known_f_log_odds(samples: np.ndarray, g: GaussianModel, f: GaussianModel,
                     rho: float) -> np.ndarray:
    """Log-odds trace over a sample matrix with fixed models."""
    return _log_odds_trace(samples, g, rho, f)[0]


def adaptive_log_odds(samples: np.ndarray, g: GaussianModel, rho: float,
                      est_prior: EstimationPrior | None = None, *,
                      max_window: int = 50, nmin: int | None = None,
                      inflate: float = 4.0,
                      stop_at: float | None = None) -> np.ndarray:
    """Adaptive-mode log-odds trace over a sample matrix (see _log_odds_trace).

    stop_at truncates the trace once the log-odds reach the given level
    (alarm already decided; saves the estimator refreshes).
    """
    return _log_odds_trace(samples, g, rho, None, est_prior, max_window=max_window,
                           nmin=nmin, inflate=inflate, stop_at=stop_at)[0]


def first_crossing(log_odds: np.ndarray, alpha: float) -> int | None:
    """1-based index of the first step at/above the alarm threshold."""
    hits = np.nonzero(log_odds >= DetectionRule(alpha).log_odds_threshold)[0]
    return int(hits[0]) + 1 if hits.size else None


def _lcm_all(values) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, int(v))
    return out
