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

from .gaussmodel import (
    GaussianModel,
    GeometricPrior,
    estimate_windows,
    log_density,
    log_density_stack,
)

LOG_ODDS_CLAMP = 700.0

KNOWN_F = "known_f"
ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class DetectionRule:
    """Alarm when the posterior reaches 1 - alpha (inclusive).  An alpha
    whose log-odds threshold lies past LOG_ODDS_CLAMP, below about
    9.86e-305, could never alarm and is rejected."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.log_odds_threshold > LOG_ODDS_CLAMP:
            raise ValueError(f"alpha {self.alpha!r} needs log-odds "
                             f"{self.log_odds_threshold:.1f}, past the clamp at "
                             f"{LOG_ODDS_CLAMP:g}: it could never alarm")

    @property
    def log_odds_threshold(self) -> float:
        return math.log1p(-self.alpha) - math.log(self.alpha)


class NonFiniteLikelihoodError(ValueError):
    """A log-likelihood ratio is NaN or infinite, almost always because a
    sample is.  The recursion cannot absorb such a step: min(700, nan) is
    700, so it would raise an alarm on the spot.  step is the 0-based index
    of the step in its trace, when known."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def inflated_fallback(g: GaussianModel, inflate: float = 4.0) -> GaussianModel:
    """Stand-in post-change model used before the window can support an
    estimate: g with the covariance inflated (ValueError naming inflate
    unless it is a finite number above 0)."""
    if not (math.isfinite(inflate) and inflate > 0.0):
        raise ValueError(f"inflate must be a finite number above 0, got {inflate!r}")
    return GaussianModel(g.mean, g.cov * inflate, g.layout)


# A trace is scored in blocks: with stop_at of _FIRST_BLOCK steps, then
# twice as many each time (a trace cut short computes at most one block past
# its end), else as large as the budget allows.  A block of samples, and a
# stopped adaptive trace's block of windows (a larger cap runs further past
# the stop), holds at most _STACK_BUDGET float64 values, 128 kB: with 1 MB
# the montecarlo benchmark peaked 1.6 MB higher.
# The windows of a round, filled across its traces, are refitted in stacks
# of at most _REFIT_BUDGET gathered window values, 256 kB: 40 windows of 50
# samples at d = 16.  On the montecarlo benchmark, with its replications in
# chunks of 2^16 stream values, stacks of 81 windows ran at most 4 % faster
# but peaked 0.7 MB higher, over 1 MB above chunks of 8 replications.
_FIRST_BLOCK = 8
_STACK_BUDGET = 1 << 14
_REFIT_BUDGET = 1 << 15


def log_odds_traces(batch, g: GaussianModel, rho: float, f: GaussianModel | None = None,
                    est_prior: GeometricPrior | None = None, *, max_window: int = 50,
                    nmin: int | None = None, inflate: float = 4.0,
                    stop_at: float | None = None
                    ) -> list[tuple[np.ndarray, np.ndarray, ValueError | None]]:
    """The detector core: (log-odds trace, refreshed mask, error) of every
    (n, d) sample matrix of a batch, one step per row.

    With a post-change model f every step scores f against g (known_f mode).
    Without one (adaptive mode) a step scores the model fitted on the window
    of up to max_window samples *before* it, which keeps E[L_n | past] = 1
    under no-change data and so the false-alarm bound.  Once the window
    holds nmin samples (default dim + 2, never below 2) that fit, shrunk
    toward the g-with-inflated-covariance fallback with weight
    dim/(dim + window), is used and the step is marked refreshed; before,
    the fallback is used alone.  The fit weighs the change position by
    est_prior (default: the change-time prior).  The README's adaptive
    detector notes give the reasons, and how a round scores each block.

    A trace stops at its end, at the first step whose log-odds reach
    stop_at, or before the first error of a step it reaches (a non-finite
    log-likelihood ratio as NonFiniteLikelihoodError with its step, a
    singular covariance); its result does not depend on the rest of the
    batch as long as log_density's rows keep their bits (see there).  ValueError
    at once when the matrices are not (n, d) with one d.
    """
    batch = [np.asarray(x, dtype=float) for x in batch]
    for x in batch:
        if x.ndim != 2 or x.shape[1] != batch[0].shape[1]:
            raise ValueError(f"samples must be (n, d) matrices of one d, got {x.shape}")
    prior = GeometricPrior(rho)
    log_rho, log_keep = math.log(prior.rho), math.log1p(-prior.rho)
    dim = batch[0].shape[1] if batch else g.dim
    adaptive = f is None
    if adaptive:
        if max_window < 1:
            raise ValueError(f"window must be >= 1, got {max_window}")
        fallback = inflated_fallback(g, inflate)
        need = _nmin(g.dim, nmin)
        est_prior = est_prior or prior
        longest = min(max_window, max((x.shape[0] for x in batch), default=1) - 1)
        if longest >= need:  # some step refreshes
            # window_weights rows and denominators by window length
            fits = np.arange(need, longest + 1)
            weights = np.zeros((max_window + 1, max_window)), np.zeros(max_window + 1)
            weights[0][fits], weights[1][fits] = est_prior.window_weights(fits, max_window)
            # trace i's samples follow max_window zero rows from base[i] on, so
            # windows[base[i] + k] holds the max_window samples before its
            # sample k, zero rows standing in for those before the first
            base = np.cumsum([0] + [max_window + x.shape[0] for x in batch])
            padded = np.zeros((base[-1], dim))
            for b, x in zip(base.tolist(), batch):
                padded[b + max_window:b + max_window + x.shape[0]] = x
            windows = sliding_window_view(padded, max_window, axis=0).transpose(0, 2, 1)
    cap = max(1, _STACK_BUDGET // (dim * (max_window if adaptive and stop_at is not None else 1)))
    size = _FIRST_BLOCK if stop_at is not None else cap
    stop = math.inf if stop_at is None else stop_at
    exp, log1p, clamp = math.exp, math.log1p, LOG_ODDS_CLAMP
    # a trace's last block ends at its first non-finite sample
    last = [x.shape[0] if ok.all() else int(np.argmin(ok)) + 1
            for x, ok in ((x, np.isfinite(x).all(axis=1)) for x in batch)]
    out = [(np.empty(x.shape[0]), np.zeros(x.shape[0], dtype=bool), None) for x in batch]
    log_odds = [-LOG_ODDS_CLAMP] * len(batch)
    running = [i for i, x in enumerate(batch) if x.shape[0]]
    start = 0
    while running:
        rows = [min(last[i], start + size, start + cap) - start for i in running]
        x = np.concatenate([batch[i][start:start + m] for i, m in zip(running, rows)])
        errors: dict = {}  # row: error of its step, None for a non-finite ratio
        if adaptive:
            steps = np.concatenate([np.arange(start, start + m) for m in rows])
            lengths = np.minimum(steps, max_window)
            fresh = lengths >= need
            log_f = log_density(fallback, x) if not fresh.all() else np.empty(x.shape[0])
        else:
            log_f = log_density(f, x)
        if adaptive and fresh.any():
            at = np.repeat(base[running], rows) + steps
            _fit_log_f(log_f, np.flatnonzero(fresh), windows, at, lengths, weights,
                       fallback, x, errors)
        with np.errstate(invalid="ignore"):  # inf - inf: a non-finite ratio
            log_lr = log_f - log_density(g, x)
        for r in np.flatnonzero(~np.isfinite(log_lr)).tolist():
            errors.setdefault(r, None)
        values = log_lr.tolist()
        still, lo = [], 0
        for i, m in zip(running, rows):
            trace, refreshed, _ = out[i]
            if adaptive:
                refreshed[start:start + m] = fresh[lo:lo + m]
            failed = min((r for r in errors if lo <= r < lo + m), default=lo + m)
            run, level, stopped = values[lo:failed], log_odds[i], False
            for k, value in enumerate(run):
                # log R_n = log L_n + logaddexp(log R_{n-1}, log rho) - log(1 - rho)
                if level >= log_rho:
                    level = value + (level + log1p(exp(log_rho - level))) - log_keep
                else:
                    level = value + (log_rho + log1p(exp(level - log_rho))) - log_keep
                level = run[k] = (clamp if level > clamp else -clamp if level < -clamp
                                  else level)
                if level >= stop:
                    del run[k + 1:]
                    stopped = True
                    break
            end = start + len(run)
            trace[start:end], log_odds[i] = run, level
            if stopped or end == trace.size:
                out[i] = (trace[:end], refreshed[:end], None)
            elif failed < lo + m:
                error = errors[failed] or NonFiniteLikelihoodError(
                    f"log-likelihood ratio is {values[failed]}: non-finite sample "
                    f"at step {end + 1}", end)
                out[i] = (trace[:end], refreshed[:end], error)
            else:
                still.append(i)
            lo += m
        running = still
        start += min(size, cap)
        size *= 2
    return out


def _nmin(dim: int, nmin: int | None) -> int:
    """Window length from which adaptive steps refresh (never below 2)."""
    return max(2, dim + 2 if nmin is None else nmin)


def _check_window(section: str, window: int, dim: int, nmin: int | None) -> None:
    """ValueError naming [section].window when it is below the effective
    nmin at dimension dim, so that only the fallback would ever score."""
    need = _nmin(dim, nmin)
    if window < need:
        raise ValueError(f"[{section}].window = {window} is below nmin = {need} at dim "
                         f"{dim}: no adaptive step would refresh")


def _fit_log_f(log_f: np.ndarray, fit: np.ndarray, windows: np.ndarray, at, lengths,
               weights, fallback: GaussianModel, x: np.ndarray, errors: dict) -> None:
    """log f of the rows fit of an adaptive round: the fit of the row's
    window windows[at[row]] shrunk toward the fallback, in stacks of at most
    _REFIT_BUDGET gathered window values.  The rows of a failing stack are
    refitted one by one; a row that fails again puts its error into errors."""
    def refit(sel: np.ndarray) -> np.ndarray:
        n = lengths[sel]
        dev = windows[at[sel]]
        last = dev[:, -1].copy()
        dev -= last[:, None, :]
        means, covs = estimate_windows(dev, last, weights[0][n], weights[1][n])
        w = fallback.dim / (fallback.dim + n)
        means = (1.0 - w)[:, None] * means + w[:, None] * fallback.mean
        covs *= (1.0 - w)[:, None, None]
        covs += w[:, None, None] * fallback.cov
        return log_density_stack(means, covs, x[sel])

    stack = max(1, _REFIT_BUDGET // (windows.shape[1] * windows.shape[2]))
    for lo in range(0, fit.size, stack):
        sel = fit[lo:lo + stack]
        try:
            log_f[sel] = refit(sel)
        except ValueError:
            # LinAlgError and so SingularBlockError are ValueErrors too
            for r in sel.tolist():
                try:
                    log_f[r] = refit(np.array([r]))[0]
                except ValueError as exc:
                    errors[r] = exc


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

    The detector steps only when every configured channel is fresh (once
    per least common multiple of the channel periods); channel values
    accumulated between steps form the increment over the step period, and
    the base models are scaled accordingly.  Held values are never scored.
    """
    layout = stream.schedule.layout
    g = config.g.project(layout) if config.g.layout is not None else config.g
    if g.dim != layout.dim:
        raise ValueError("base model does not cover the stream channels")
    step_period = math.lcm(*stream.schedule.channel_periods())
    g_step = g.scaled_cov(float(step_period)) if step_period > 1 else g
    f_step = None
    if config.f is not None:
        f = config.f.project(layout) if config.f.layout is not None else config.f
        f_step = f.scaled_cov(float(step_period)) if step_period > 1 else f

    if config.mode == ADAPTIVE:
        _check_window("detector", config.window, g.dim, config.nmin)
    rule = DetectionRule(config.alpha)
    if stream.values.shape[1] != layout.dim:
        raise ValueError(f"dimension drift: stream has {stream.values.shape[1]} "
                         f"channels, layout has {layout.dim}")
    ticks, x = _step_increments(stream, step_period)
    est_prior = (GeometricPrior(config.estimation_rho)
                 if config.estimation_rho is not None else None)
    [(log_odds, refreshed, error)] = log_odds_traces(
        [x], g_step, config.rho, f_step if config.mode == KNOWN_F else None, est_prior,
        max_window=config.window, nmin=config.nmin, inflate=config.inflate)
    if isinstance(error, NonFiniteLikelihoodError):
        error = NonFiniteLikelihoodError(f"tick {ticks[error.step]}: {error}", error.step)
    if error is not None:
        raise error

    [[hit]] = first_crossings([log_odds], [rule.log_odds_threshold])
    tau = int(ticks[hit - 1]) if hit is not None else None
    lam = stream.truth.lam
    delay = tau - lam if (tau is not None and lam is not None and tau >= lam) else None
    return DetectionReport(
        tau=tau,
        step_ticks=ticks,
        # log-odds lie within +-700, so exp cannot overflow
        posterior_trace=1.0 / (1.0 + np.exp(-log_odds)),
        log_odds_trace=log_odds,
        f_refreshed=refreshed,
        mode=config.mode,
        lambda_true=lam,
        delay=delay,
    )


def _step_increments(stream, step_period: int) -> tuple[np.ndarray, np.ndarray]:
    """(ticks, x): the tick and the sample of every detector step.

    A step ends every step_period ticks (a tail of fewer ticks is dropped)
    and its sample is the sum of the fresh values of its ticks, added in
    tick order to a zero row: bit for bit what a running per-tick
    accumulator gives (ndarray.sum over the tick axis adds pairwise for some
    shapes, one channel with a long period among them).  x is built in
    place, with no copy of the whole stream: the fresh values of each step's
    first tick plus 0.0 (0.0 + v, which turns a -0.0 sample into 0.0 as the
    zero row does), then those of its later ticks added in order.
    """
    steps = stream.horizon // step_period
    ticks = [slice(k, steps * step_period, step_period) for k in range(step_period)]
    x = np.where(stream.fresh[ticks[0]], stream.values[ticks[0]], 0.0)
    x += 0.0
    for rows in ticks[1:]:
        x += np.where(stream.fresh[rows], stream.values[rows], 0.0)
    return step_period * np.arange(1, steps + 1), x


def first_crossings(traces, thresholds) -> list[list[int | None]]:
    """Per trace, the 1-based index of its first step at/above each
    threshold, None where none is reached, all in one pass: the running
    maximum of the traces padded with -inf (NaN steps count as -inf,
    reaching no threshold), and for each the count of its steps below each
    threshold."""
    peak = np.full((len(traces), max(map(len, traces), default=0)), -np.inf)
    for row, trace in zip(peak, traces):
        row[:len(trace)] = trace
    peak[np.isnan(peak)] = -np.inf
    np.maximum.accumulate(peak, axis=1, out=peak)
    below = np.count_nonzero(peak[:, :, None] < np.asarray(thresholds), axis=1).tolist()
    return [[k + 1 if k < len(t) else None for k in hits] for t, hits in zip(traces, below)]
