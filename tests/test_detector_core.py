"""The batch detector core against the per-step path it replaced: a short
loop that refits estimate_post_outage on every window, scores one sample at
a time with log_density and advances the recursion step by step.  A batch
of traces against one core call per trace, the stop at the smallest
alpha's threshold against the full trace, and the alarm steps of every
alpha from one running maximum against a per-alpha scan.  Also the period aggregation of
run_detector against a per-tick accumulator and against its sum onto a zero
row, and the memory it takes."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridwatch import detector
from gridwatch.detector import (
    DetectionRule,
    DetectorConfig,
    NonFiniteLikelihoodError,
    _check_window,
    _step_increments,
    first_crossings,
    inflated_fallback,
    log_odds_traces,
    run_detector,
)
from gridwatch.gaussmodel import (
    GaussianModel,
    GeometricPrior,
    estimate_post_outage,
    log_density,
    log_density_stack,
)
from gridwatch.grid import SingularBlockError, load_feeder, random_feeder
from gridwatch.simgen import Scenario, generate
from oracles import advance_log_odds, sample, schedule_from_kinds, step_increments_from_zeros

REL = 1e-9


def per_step_trace(x, g, rho, f=None, est_prior=None, window=50, nmin=None,
                   inflate=4.0, stop_at=None):
    """(trace, refreshed, (error type, step) or None) of the per-step path."""
    fallback = inflated_fallback(g, inflate)
    est_prior = est_prior or GeometricPrior(rho)
    need = max(2, g.dim + 2 if nmin is None else nmin)
    log_odds, trace, refreshed = -700.0, [], []
    for k in range(x.shape[0]):
        window_k = x[max(0, k - window):k]
        fresh = f is None and len(window_k) >= need
        try:
            if f is not None:
                model = f
            elif fresh:
                est = estimate_post_outage(window_k, est_prior)
                w = g.dim / (g.dim + len(window_k))
                model = GaussianModel((1.0 - w) * est.mean + w * fallback.mean,
                                      (1.0 - w) * est.cov + w * fallback.cov)
            else:
                model = fallback
            log_lr = float(log_density(model, x[k])) - float(log_density(g, x[k]))
            log_odds = advance_log_odds(log_odds, log_lr, rho)
        except ValueError as exc:
            return np.array(trace), np.array(refreshed, dtype=bool), (type(exc), k)
        trace.append(log_odds)
        refreshed.append(fresh)
        if stop_at is not None and log_odds >= stop_at:
            break
    return np.array(trace), np.array(refreshed, dtype=bool), None


def core_error(x, **kwargs):
    [(_, _, error)] = log_odds_traces([x], **kwargs)
    return None if error is None else type(error)


@st.composite
def detector_cases(draw):
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(d, d))
    g = GaussianModel(rng.normal(size=d), a @ a.T + 0.5 * np.eye(d))
    x = rng.normal(size=(n, d)) * draw(st.sampled_from([0.5, 1.5, 4.0]))
    if draw(st.booleans()):  # a run of identical samples: constant windows
        start = draw(st.integers(0, n - 1))
        x[start:] = x[start]
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    rho = draw(st.floats(1e-4, 0.5))
    window = draw(st.integers(2, 60))
    kwargs = dict(g=g, rho=rho, max_window=window,
                  nmin=draw(st.one_of(st.none(), st.integers(0, 70))),
                  stop_at=draw(st.one_of(st.none(), st.floats(-5.0, 40.0))))
    mode = draw(st.sampled_from(["adaptive", "known_f"]))
    if mode == "known_f":
        b = rng.normal(size=(d, d))
        kwargs["f"] = GaussianModel(rng.normal(size=d), b @ b.T + 0.5 * np.eye(d))
    return x, kwargs


@settings(max_examples=120)
@given(detector_cases())
def test_core_matches_per_step_path(case):
    x, kwargs = case
    trace, refreshed, error = per_step_trace(
        x, kwargs["g"], kwargs["rho"], f=kwargs.get("f"), window=kwargs["max_window"],
        nmin=kwargs["nmin"], stop_at=kwargs["stop_at"])
    reached = x if error is None else x[:error[1]]
    [(got, got_refreshed, got_error)] = log_odds_traces([reached], **kwargs)
    assert got_error is None
    assert got.shape == trace.shape
    assert np.all(np.abs(got - trace) <= REL * np.maximum(1.0, np.abs(trace)))
    assert np.array_equal(got_refreshed, refreshed)
    if error is not None:
        # the same error, at the same step: the prefix before it ran clean
        assert core_error(x[:error[1] + 1], **kwargs) is error[0]
        assert core_error(x, **kwargs) is error[0]


def test_estimation_prior_apart_from_the_change_time_prior():
    rng = np.random.default_rng(5)
    g = GaussianModel(np.zeros(3), 2.0 * np.eye(3))
    x = rng.normal(size=(60, 3)) * 1.5
    [(default, _, _)] = log_odds_traces([x], g, 0.05, max_window=20)
    for est_prior in (GeometricPrior(0.3), GeometricPrior(0.9)):
        trace, refreshed, _ = per_step_trace(x, g, 0.05, est_prior=est_prior, window=20)
        [(got, got_refreshed, error)] = log_odds_traces([x], g, 0.05, None, est_prior,
                                                        max_window=20)
        assert error is None
        assert np.all(np.abs(got - trace) <= REL * np.maximum(1.0, np.abs(trace)))
        assert np.array_equal(got_refreshed, refreshed) and refreshed.any()
        assert not np.array_equal(got, default)


# --- batches ------------------------------------------------------------------------

@st.composite
def batch_cases(draw):
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(d, d))
    g = GaussianModel(rng.normal(size=d), a @ a.T + 0.5 * np.eye(d))
    batch = []
    for n in draw(st.lists(st.integers(0, 90), min_size=1, max_size=6)):
        x = rng.normal(size=(n, d)) * draw(st.sampled_from([0.5, 1.5, 4.0]))
        if n and draw(st.booleans()):  # a run of identical samples
            x[draw(st.integers(0, n - 1)):] = x[-1]
        if n and draw(st.integers(0, 3)) == 0:
            x[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
        batch.append(x)
    window = draw(st.integers(2, 60))
    kwargs = dict(g=g, rho=draw(st.floats(1e-4, 0.5)), max_window=window,
                  nmin=draw(st.one_of(st.none(), st.integers(0, 70))),
                  stop_at=draw(st.one_of(st.none(), st.floats(-5.0, 40.0))))
    mode = draw(st.sampled_from(["adaptive", "known_f"]))
    if mode == "known_f":
        b = rng.normal(size=(d, d))
        kwargs["f"] = GaussianModel(rng.normal(size=d), b @ b.T + 0.5 * np.eye(d))
    return batch, kwargs


def same_result(got, want):
    """Bit-for-bit equal traces and masks, and errors of one type, message
    and step."""
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
    assert type(got[2]) is type(want[2]) and str(got[2]) == str(want[2])
    assert getattr(got[2], "step", None) == getattr(want[2], "step", None)


@settings(max_examples=80)
@given(batch_cases())
def test_batch_matches_one_call_per_trace(case):
    batch, kwargs = case
    got = log_odds_traces(batch, **kwargs)
    assert len(got) == len(batch)
    for x, result in zip(batch, got):
        same_result(result, log_odds_traces([x], **kwargs)[0])


def test_one_row_keeps_its_bits_in_a_batch():
    # BLAS scores a one-row product by gemv, whose bits differ from the gemm
    # of a batch; log_density scores one row as two.  The example: two
    # one-row traces, the second starting with NaN.
    rng = np.random.default_rng(91)
    a = rng.normal(size=(6, 6))
    g = GaussianModel(rng.normal(size=6), a @ a.T + 0.5 * np.eye(6))
    batch = [rng.normal(size=(1, 6)), np.full((1, 6), math.nan)]
    got = log_odds_traces(batch, g, 0.5, max_window=2)
    for x, result in zip(batch, got):
        same_result(result, log_odds_traces([x], g, 0.5, max_window=2)[0])
    assert isinstance(got[1][2], NonFiniteLikelihoodError)
    for d in range(1, 32):  # a row alone and in a two-row batch, either place
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        g = GaussianModel(rng.normal(size=d), a @ a.T + 0.5 * np.eye(d))
        x = rng.normal(size=(20, d))
        for k in range(19):
            pair = log_density(g, x[k:k + 2])
            assert log_density(g, x[k]) == pair[0], (d, k)
            assert log_density(g, x[k + 1:k + 2]).tobytes() == pair[1:].tobytes(), (d, k)


@settings(max_examples=40)
@given(batch_cases())
def test_refit_stack_size_does_not_move_a_bit(case):
    # stacks of one window, and one stack per round, give the bits of the
    # default refit budget: a window's fit does not depend on its stack
    batch, kwargs = case
    want = log_odds_traces(batch, **kwargs)
    for budget in (1, 1 << 62):
        with mock.patch.object(detector, "_REFIT_BUDGET", budget):
            got = log_odds_traces(batch, **kwargs)
        for result, expected in zip(got, want):
            same_result(result, expected)


def test_failing_refit_row_stops_only_its_trace():
    # every refit stack that holds the chosen row raises: the stack's rows are
    # refitted one by one, and the chosen row's error stops its trace there
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 3))
    g = GaussianModel(np.zeros(3), a @ a.T + 0.5 * np.eye(3))
    batch = [rng.normal(size=(n, 3)) for n in (40, 30, 50)]
    kwargs = dict(g=g, rho=0.05, max_window=10)
    clean = log_odds_traces(batch, **kwargs)
    chosen, error = batch[1][17], SingularBlockError("covariance", "the chosen row")
    real = detector.log_density_stack

    def failing(means, covs, x):
        if (x == chosen).all(axis=1).any():
            raise error
        return real(means, covs, x)

    with mock.patch.object(detector, "log_density_stack", failing):
        got = log_odds_traces(batch, **kwargs)
    same_result(got[0], clean[0])
    same_result(got[2], clean[2])
    trace, refreshed, raised = got[1]
    assert raised is error and clean[1][1][17]
    assert trace.tobytes() == clean[1][0][:17].tobytes()
    assert np.array_equal(refreshed, clean[1][1][:17])


@settings(max_examples=40)
@given(batch_cases(), st.data())
def test_nan_row_fails_only_its_trace(case, data):
    batch, kwargs = case
    kwargs["stop_at"] = None
    batch = [np.nan_to_num(x, nan=0.5, posinf=0.5, neginf=0.5) for x in batch]
    long = [i for i, x in enumerate(batch) if x.shape[0]]
    assume(long)
    bad = data.draw(st.sampled_from(long))
    row = data.draw(st.integers(0, batch[bad].shape[0] - 1))
    clean = log_odds_traces(batch, **kwargs)
    poisoned = [x.copy() for x in batch]
    poisoned[bad][row, 0] = math.nan
    got = log_odds_traces(poisoned, **kwargs)
    for i, (result, want) in enumerate(zip(got, clean)):
        if i != bad:
            same_result(result, want)
        elif want[2] is None or want[0].size > row:
            # the clean trace reaches the row: the poisoned one fails there
            assert isinstance(result[2], NonFiniteLikelihoodError)
            assert result[2].step == row and result[0].size == row
            assert result[0].tobytes() == want[0][:row].tobytes()


ALPHAS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-4, 0.3))
def test_stop_at_smallest_alpha_keeps_every_crossing(d, n, seed, rho):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    g = GaussianModel(np.zeros(d), a @ a.T + 0.5 * np.eye(d))
    f = GaussianModel(rng.normal(size=d) * 0.5, b @ b.T + 0.5 * np.eye(d))
    lam = int(rng.integers(0, n))
    x = np.vstack([sample(g, lam, rng), sample(f, n - lam, rng)])
    stop_at = DetectionRule(min(ALPHAS)).log_odds_threshold
    [(full, _, _)] = log_odds_traces([x], g, rho, f)
    [(stopped, _, _)] = log_odds_traces([x], g, rho, f, stop_at=stop_at)
    thresholds = [DetectionRule(alpha).log_odds_threshold for alpha in ALPHAS]
    [at_stop, at_end] = first_crossings([stopped, full], thresholds)
    assert at_stop == at_end


def _scan_crossing(log_odds, threshold):
    """First crossing by a scan of the whole trace."""
    hits = np.nonzero(log_odds >= threshold)[0]
    return int(hits[0]) + 1 if hits.size else None


_ON_THRESHOLD = [DetectionRule(a).log_odds_threshold for a in ALPHAS]


@settings(max_examples=200)
@given(st.lists(st.one_of(st.floats(-800.0, 800.0), st.sampled_from(
           [-700.0, 700.0, math.nan, *_ON_THRESHOLD])), max_size=40).map(
           lambda xs: np.clip(np.array(xs, dtype=float), -700.0, 700.0)),
       st.permutations(ALPHAS), st.integers(1, len(ALPHAS)))
def test_first_crossings_match_per_alpha_scans(trace, alphas, count):
    # values clamped at +-700, values exactly on a threshold, NaN steps,
    # empty traces and traces that never cross; alphas in any order
    alphas = alphas[:count]
    thresholds = [DetectionRule(a).log_odds_threshold for a in alphas]
    [got] = first_crossings([trace], thresholds)
    assert got == [_scan_crossing(trace, t) for t in thresholds]
    assert [first_crossings([trace], [t])[0][0] for t in thresholds] == got


def test_first_crossings_edge_traces():
    low, high = _ON_THRESHOLD[0], _ON_THRESHOLD[-1]
    assert first_crossings([np.array([])], [low, high]) == [[None, None]]
    assert first_crossings([np.full(5, low - 1.0)], [high, low]) == [[None, None]]
    assert first_crossings([np.array([0.0, low, -700.0, high])], [high, low]) == [[4, 2]]
    assert first_crossings([np.array([math.nan, 700.0])], [low]) == [[2]]
    assert first_crossings([], [low]) == []


def test_nan_past_stop_at_does_not_raise():
    g = GaussianModel([0.0], [[1.0]])
    x = np.full((40, 1), 6.0)
    x[30, 0] = math.nan
    [(trace, _, error)] = log_odds_traces([x], g, 0.1, stop_at=5.0)
    assert error is None and trace.size < 30 and trace[-1] >= 5.0
    [(_, _, error)] = log_odds_traces([x], g, 0.1)
    assert isinstance(error, NonFiniteLikelihoodError) and error.step == 30


def test_stack_factor_falls_back_to_ridge():
    # the second covariance is only PSD: the stacked Cholesky fails and each
    # matrix takes the ridge rule of GaussianModel
    rng = np.random.default_rng(4)
    covs = np.stack([np.eye(3) * 2.0, np.outer([1.0, 2.0, 0.5], [1.0, 2.0, 0.5])])
    means = rng.normal(size=(2, 3))
    x = rng.normal(size=(2, 3))
    got = log_density_stack(means, covs, x)
    want = [log_density(GaussianModel(m, c), p) for m, c, p in zip(means, covs, x)]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    with pytest.raises(SingularBlockError):
        log_density_stack(means, np.stack([np.eye(3), -np.eye(3)]), x)


# --- run_detector period aggregation ---------------------------------------------

def per_tick_increments(stream, step_period):
    ticks, rows = [], []
    acc = np.zeros(stream.schedule.layout.dim)
    for t in range(stream.horizon):
        acc = acc + np.where(stream.fresh[t], stream.values[t], 0.0)
        if (t + 1) % step_period != 0:
            continue
        x, acc = acc, np.zeros(stream.schedule.layout.dim)
        ticks.append(t + 1)
        rows.append(x)
    return np.array(ticks, dtype=int), np.array(rows).reshape(len(rows), stream.schedule.layout.dim)


LOOP8 = load_feeder("loop8")


@settings(max_examples=40)
@given(st.dictionaries(st.integers(1, 8),
                       st.tuples(st.sampled_from(["phasor", "magnitude"]),
                                 st.sampled_from([1, 2, 3, 4, 6, 9, 12])),
                       min_size=1, max_size=4),
       st.integers(1, 80), st.integers(0, 1000))
def test_step_increments_match_per_tick_accumulator(kinds, horizon, seed):
    schedule = schedule_from_kinds(kinds)
    stream = generate(Scenario(topology=LOOP8, out_branches=((3, 4),), lam=1,
                               noise_variance=1e-2, schedule=schedule,
                               horizon=horizon, seed=seed))
    period = math.lcm(*(p for _, p in kinds.values()))
    ticks, x = _step_increments(stream, period)
    want_ticks, want = per_tick_increments(stream, period)
    assert np.array_equal(ticks, want_ticks)
    assert x.shape == want.shape and x.tobytes() == want.tobytes()


@st.composite
def marked_streams(draw):
    """(stream, step period): a stream on a random feeder, each bus a phasor
    or magnitude channel of period 1 to 3, with some samples set to -0.0
    and some to NaN, and some fresh flags flipped."""
    n = draw(st.integers(3, 10))
    top = random_feeder(n, seed=draw(st.integers(0, 999)))
    kinds = draw(st.dictionaries(st.integers(1, n),
                                 st.tuples(st.sampled_from(["phasor", "magnitude"]),
                                           st.integers(1, 3)), min_size=1))
    stream = generate(Scenario(topology=top, noise_variance=1e-2, horizon=draw(st.integers(1, 40)),
                               schedule=schedule_from_kinds(kinds),
                               seed=draw(st.integers(0, 999))))
    pick = np.random.default_rng(draw(st.integers(0, 2 ** 32))).random((2, *stream.values.shape))
    values = stream.values.copy()
    values[pick[0] < 0.2] = -0.0
    values[pick[0] > 0.9] = np.nan
    stream = dataclasses.replace(stream, values=values, fresh=stream.fresh ^ (pick[1] < 0.1))
    return stream, math.lcm(*(p for _, p in kinds.values()))


@settings(max_examples=60)
@given(case=marked_streams())
def test_step_increments_in_one_array_match_the_zero_row_sum(case):
    stream, period = case
    ticks, x = _step_increments(stream, period)
    want_ticks, want = step_increments_from_zeros(stream, period)
    assert np.array_equal(ticks, want_ticks)
    assert x.shape == want.shape and x.tobytes() == want.tobytes()


def test_run_detector_peak_memory_holds_one_array_of_step_samples():
    # a period-1 stream of 20 000 ticks of 24 channels: the step samples
    # are the one array of the stream's size that run_detector makes, so
    # its peak stays below 1.5 such arrays (the fresh values and their sum
    # onto a zero row held 2.0)
    loop12 = load_feeder("loop12")
    scen = Scenario(topology=loop12, out_branches=((8, 10),), lam=10_000, horizon=20_000,
                    seed=43)
    stream = generate(scen)
    config = DetectorConfig(g=scen.pre_model(), f=scen.post_model())
    run_detector(stream, config)
    tracemalloc.start()
    try:
        run_detector(stream, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stream.values.nbytes, peak


def test_writing_the_trace_holds_one_block_of_rows(tmp_path):
    # detect lists and formats the trace of a 20 000-step run one block of
    # rows at a time: the write peaks below 1.2 MB (the whole table as one
    # string, with its lists, row strings and encoded copy, took 4.25 MB)
    from gridwatch import cli

    loop12 = load_feeder("loop12")
    scen = Scenario(topology=loop12, out_branches=((8, 10),), lam=10_000, horizon=20_000,
                    seed=43)
    report = run_detector(generate(scen), DetectorConfig(g=scen.pre_model(),
                                                         f=scen.post_model()))
    assert len(report.step_ticks) == 20_000
    path = str(tmp_path / "trace.csv")
    cli.TRACE.write(path, cli._trace_rows(report))
    tracemalloc.start()
    try:
        cli.TRACE.write(path, cli._trace_rows(report))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6, peak


def test_run_detector_steps_on_aggregated_ticks():
    schedule = schedule_from_kinds({2: ("magnitude", 9)})
    scen = Scenario(topology=LOOP8, out_branches=((2, 6),), lam=40, horizon=100,
                    noise_variance=1e-2, schedule=schedule, seed=3)
    stream = generate(scen)
    layout = stream.schedule.layout
    g = scen.pre_model().project(layout)
    f = scen.post_model().project(layout)
    report = run_detector(stream, DetectorConfig(g=scen.pre_model(), f=scen.post_model()))
    ticks, x = per_tick_increments(stream, 9)
    [(trace, _, _)] = log_odds_traces([x], g.scaled_cov(9.0), 1e-4, f.scaled_cov(9.0))
    assert np.array_equal(report.step_ticks, ticks)
    assert np.array_equal(report.log_odds_trace, trace)
    bad = dataclasses.replace(stream, values=stream.values.copy())
    bad.values[20, 0] = math.nan  # tick 21 is not fresh: never read
    bad.values[26, 0] = math.nan  # tick 27 is fresh: its step fails
    with pytest.raises(NonFiniteLikelihoodError, match="tick 27"):
        run_detector(bad, DetectorConfig(g=scen.pre_model(), f=scen.post_model()))


@settings(max_examples=60)
@given(dim=st.integers(1, 8), nmin=st.none() | st.integers(-1, 12),
       window=st.integers(1, 14), seed=st.integers(0, 2 ** 16))
def test_every_window_check_window_accepts_refreshes_a_step(dim, nmin, window, seed):
    # the promise behind rejecting a short window: one that passes is long
    # enough for some adaptive step to fit, here the last of window + 1
    try:
        _check_window("detector", window, dim, nmin)
    except ValueError:
        assume(False)
    g = GaussianModel(np.zeros(dim), np.eye(dim))
    samples = np.random.default_rng(seed).normal(size=(window + 1, dim))
    [(_, refreshed, _)] = log_odds_traces([samples], g, 0.01, max_window=window, nmin=nmin)
    assert refreshed.any()

