"""Sequential detector: posterior recursion vs direct sum, alarm rule
boundary behaviour, adaptive mode, delay bound and stream driving."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import binom

from gridwatch.detector import (
    ADAPTIVE,
    KNOWN_F,
    DetectionRule,
    DetectorConfig,
    GeometricPrior,
    NonFiniteLikelihoodError,
    expected_delay_bound,
    first_crossings,
    log_odds_traces,
    run_detector,
)
from gridwatch.gaussmodel import GaussianModel
from gridwatch.grid import load_feeder
from gridwatch.simgen import Scenario, SensorSchedule, generate
from oracles import (
    advance_log_odds,
    all_magnitude,
    posterior_direct,
    sample,
    schedule_from_kinds,
)


def scalar_models(mu_f=1.0, var_f=1.0):
    return GaussianModel([0.0], [[1.0]]), GaussianModel([mu_f], [[var_f]])


# --- priors and rules ------------------------------------------------------------

def test_prior_and_rule_validation():
    with pytest.raises(ValueError):
        GeometricPrior(0.0)
    with pytest.raises(ValueError):
        GeometricPrior(1.0)
    with pytest.raises(ValueError):
        DetectionRule(0.0)
    with pytest.raises(ValueError):
        DetectionRule(1.5)
    # the threshold passes the log-odds clamp of 700 below alpha = 9.86e-305
    with pytest.raises(ValueError, match="alpha 9.85e-305 needs log-odds 700.0, past"):
        DetectionRule(9.85e-305)
    assert DetectionRule(9.86e-305).log_odds_threshold < 700.0


def test_alarm_threshold_boundary():
    rule = DetectionRule(1e-6)
    at = np.full(9, -1.0)
    at[8] = rule.log_odds_threshold
    below = np.full(9, rule.log_odds_threshold - 1e-9)
    [[hit_at], [hit_below]] = first_crossings([at, below], [rule.log_odds_threshold])
    assert hit_at == 9, "posterior exactly at 1-alpha must alarm"
    assert hit_below is None, "posterior just below 1-alpha must continue"


# --- posterior: recursion vs direct -----------------------------------------------

def test_identical_models_recover_prior_cdf():
    g, _ = scalar_models()
    prior = GeometricPrior(0.07)
    rng = np.random.default_rng(3)
    [(trace, _, _)] = log_odds_traces([rng.normal(size=(200, 1))], g, prior.rho, g)
    posterior = expit(trace)
    for n in range(1, 201):
        expected = 1.0 - (1.0 - prior.rho) ** n
        assert posterior[n - 1] == pytest.approx(expected, abs=1e-12), f"step {n}"


def test_single_step_even_likelihood():
    # L1 = 1, rho = 0.5 -> odds 1, posterior 1/2
    lo = advance_log_odds(-700.0, 0.0, 0.5)
    assert lo == pytest.approx(0.0, abs=1e-8)


def test_recursion_matches_direct_sum(rng):
    for trial in range(10):
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(d, d))
        g = GaussianModel(rng.normal(size=d), a @ a.T + np.eye(d))
        b = rng.normal(size=(d, d))
        f = GaussianModel(rng.normal(size=d), b @ b.T + np.eye(d))
        prior = GeometricPrior(float(rng.uniform(0.01, 0.5)))
        data = rng.normal(size=(50, d), scale=1.5)
        [(trace, _, _)] = log_odds_traces([data], g, prior.rho, f)
        posterior = expit(trace)
        for n in range(1, 51):
            direct = posterior_direct(g, f, prior, data[:n])
            assert abs(posterior[n - 1] - direct) <= 1e-10, f"trial {trial} step {n}"


def test_posterior_direct_overwhelming_first_sample():
    g, f = scalar_models(mu_f=10.0)
    assert posterior_direct(g, f, GeometricPrior(0.5), [[10.0]]) > 0.999


def test_posterior_direct_vanishing_rate():
    g, _ = scalar_models()
    data = np.zeros((20, 1))
    assert posterior_direct(g, g, GeometricPrior(1e-9), data) < 1e-6


def test_posterior_stays_in_unit_interval():
    prior = GeometricPrior(0.2)
    lo = -700.0
    rng = np.random.default_rng(0)
    for llr in rng.uniform(-2000, 2000, size=200):
        lo = advance_log_odds(lo, float(llr), prior.rho)
        p = 1.0 / (1.0 + math.exp(-lo)) if abs(lo) < 700 else (lo > 0)
        assert 0.0 <= p <= 1.0
        assert abs(lo) <= 700.0


def test_monotone_in_likelihood_ratio():
    prior = GeometricPrior(0.1)
    for prev in (-50.0, -3.0, 0.0, 4.0):
        outs = [advance_log_odds(prev, llr, prior.rho) for llr in (-1.0, 0.0, 2.0, 5.0)]
        assert outs == sorted(outs)


# --- delay bound -------------------------------------------------------------------

def test_delay_bound_arithmetic():
    rho = 1.0 - math.exp(-1.0)  # -log(1-rho) = 1
    assert expected_delay_bound(math.exp(-10.0), GeometricPrior(rho), 4.0) == \
        pytest.approx(2.0, abs=1e-12)


def test_delay_bound_decreases_with_kl():
    prior = GeometricPrior(0.04)
    assert expected_delay_bound(1e-8, prior, 8.0) < expected_delay_bound(1e-8, prior, 4.0)


def test_delay_bound_formula_reevaluation():
    alpha, rho, dkl = 1e-8, 0.04, 2.0
    expected = abs(math.log(alpha)) / (-math.log1p(-rho) + dkl)
    assert expected_delay_bound(alpha, GeometricPrior(rho), dkl) == \
        pytest.approx(expected, abs=1e-12)


def test_delay_bound_validation():
    with pytest.raises(ValueError):
        expected_delay_bound(0.0, GeometricPrior(0.1), 1.0)
    with pytest.raises(ValueError):
        expected_delay_bound(0.5, GeometricPrior(0.1), -1.0)


# --- adaptive mode -----------------------------------------------------------------

def test_adaptive_identical_window_hits_ridge_path():
    g, _ = scalar_models()
    [(trace, refreshed, error)] = log_odds_traces([np.full((12, 1), 2.0)], g, 0.1, nmin=4)
    assert error is None and trace.size == 12 and np.isfinite(trace).all()
    assert refreshed[-1]


def test_adaptive_no_change_posterior_stays_low():
    # Pure pre-change stream: the learned model underfits fresh samples, so
    # the posterior stays below one half for the whole run.
    top = load_feeder("path3")
    g = Scenario(topology=top, out_branches=(), horizon=1, noise_variance=1e-4,
                 seed=0).pre_model()
    batch = [sample(g, 10_000, np.random.default_rng(seed)) for seed in range(8)]
    for seed, (trace, _, error) in enumerate(log_odds_traces(batch, g, rho=1e-4, stop_at=0.0)):
        assert error is None
        assert trace.size == 10_000, f"seed {seed}: log-odds reached 0.5 posterior"
        assert trace.max() < 0.0


def test_adaptive_alarm_within_one_step_of_known(loop8):
    iv = {b: 1.0 for b in range(1, 9)}
    iv.update({4: 4.0, 5: 4.0, 6: 6.0})
    scen = Scenario(topology=loop8, out_branches=((3, 4), (2, 6)), lam=21,
                    horizon=30, noise_variance=1e-8, injection_variance=iv, seed=0)
    g, f = scen.pre_model(), scen.post_model()
    batch = [generate(dataclasses.replace(scen, seed=seed)).values for seed in range(30)]
    threshold = DetectionRule(1e-6).log_odds_threshold
    known, adaptive = (first_crossings([t for t, _, _ in traces], [threshold])
                       for traces in (log_odds_traces(batch, g, 1e-4, f),
                                      log_odds_traces(batch, g, 1e-4)))
    gaps = []
    for [tk], [ta] in zip(known, adaptive):
        assert tk is not None and ta is not None and ta >= 21
        gaps.append(ta - tk)
    assert np.mean(gaps) <= 1.0, f"mean extra steps {np.mean(gaps)}"


# --- stream driving ----------------------------------------------------------------

def _double_outage_scenario(loop8, **overrides):
    base = dict(topology=loop8, out_branches=((3, 4), (2, 6)), lam=21, horizon=40,
                noise_variance=1e-8,
                injection_variance={1: 1.0, 2: 1.0, 3: 1.0, 4: 4.0, 5: 4.0,
                                    6: 6.0, 7: 1.0, 8: 1.0},
                seed=2)
    base.update(overrides)
    return Scenario(**base)


def test_run_detector_immediate_alarm(loop8):
    scen = _double_outage_scenario(loop8)
    report = run_detector(generate(scen),
                          DetectorConfig(g=scen.pre_model(), f=scen.post_model(),
                                         alpha=1e-6, rho=1e-4))
    assert report.tau == 21
    assert report.delay == 0
    assert report.lambda_true == 21
    assert report.posterior_trace[19] < 0.5 < report.posterior_trace[20]


def test_run_detector_tau_freezes_at_first_crossing(loop8):
    scen = _double_outage_scenario(loop8)
    report = run_detector(generate(scen),
                          DetectorConfig(g=scen.pre_model(), f=scen.post_model(),
                                         alpha=1e-6, rho=1e-4))
    assert report.step_ticks.size == 40, "trace must continue past the alarm"
    assert report.tau == 21


def test_run_detector_no_change_stream_never_alarms(loop8):
    scen = Scenario(topology=loop8, out_branches=(), horizon=10_000,
                    noise_variance=1e-8, seed=5)
    g = scen.pre_model()
    f = _double_outage_scenario(loop8).post_model()
    batch = [generate(dataclasses.replace(scen, seed=seed)).values for seed in range(6)]
    traces = log_odds_traces(batch, g, 1e-4, f)
    assert all(error is None for _, _, error in traces)
    hits = first_crossings([t for t, _, _ in traces], [DetectionRule(1e-6).log_odds_threshold])
    assert hits == [[None]] * 6, hits


def test_run_detector_aggregated_magnitude_stream(loop8):
    period = 3
    scen = _double_outage_scenario(loop8, schedule=all_magnitude(8, period),
                          lam=22, horizon=45)
    stream = generate(scen)
    report = run_detector(stream,
                          DetectorConfig(g=scen.pre_model(), f=scen.post_model(),
                                         alpha=1e-6, rho=1e-4))
    assert np.array_equal(report.step_ticks, np.arange(period, 46, period))
    assert report.tau is not None and report.tau % period == 0
    assert report.tau >= 22


MIXED_RUNS = 50


@settings(max_examples=8)
@given(st.dictionaries(st.integers(1, 8),
                       st.tuples(st.sampled_from(["phasor", "magnitude"]),
                                 st.sampled_from([1, 2, 3, 5])),
                       min_size=1, max_size=8),
       st.integers(0, 2 ** 16))
def test_mixed_period_false_alarm_rate_within_two_alpha(loop8, kinds, seed):
    # C5 through run_detector on streams with slow channels: each run draws
    # its change step k from the detector's geometric prior, the 7-8 outage
    # starts step k and the stream ends with it, so an alarm is false
    # exactly when it comes before the outage.  Were the false-alarm rate
    # 2 alpha, a count above the limit would have probability below 1e-6.
    schedule = schedule_from_kinds(kinds)
    period = math.lcm(*(p for _, p in kinds.values()))
    base = Scenario(loop8, ((7, 8),), lam=1, noise_variance=1e-4, schedule=schedule)
    g, f = base.pre_model(), base.post_model()
    alpha, rho = 1e-2, 0.02
    prior = dataclasses.replace(base, lam=None, outage_rho=rho)
    false = {KNOWN_F: 0, ADAPTIVE: 0}
    for run in range(seed * MIXED_RUNS, (seed + 1) * MIXED_RUNS):
        k = prior.outage_tick(run)
        stream = generate(dataclasses.replace(base, lam=(k - 1) * period + 1,
                                              horizon=k * period, seed=run))
        for mode in false:
            report = run_detector(stream, DetectorConfig(g=g, f=f, mode=mode, alpha=alpha,
                                                         rho=rho))
            false[mode] += report.tau is not None and report.tau < report.lambda_true
    limit = binom.isf(1e-6, MIXED_RUNS, 2 * alpha)
    assert max(false.values()) <= limit, (false, limit)


def test_run_detector_dimension_drift_rejected(loop8):
    scen = _double_outage_scenario(loop8)
    stream = generate(scen)
    bad = dataclasses.replace(stream, values=stream.values[:, :10],
                              fresh=stream.fresh[:, :10])
    with pytest.raises(ValueError, match="drift"):
        run_detector(bad, DetectorConfig(g=scen.pre_model(), f=scen.post_model()))


def test_run_detector_rejects_adaptive_window_below_nmin(loop8):
    # six sensed buses project the 16-dim models to dim 12, where nmin is 14:
    # a window of 13 never holds it, so no step could refresh
    scen = _double_outage_scenario(loop8, schedule=SensorSchedule.all_phasor(6))
    stream = generate(scen)
    config = DetectorConfig(g=scen.pre_model(), mode=ADAPTIVE, window=13)
    with pytest.raises(ValueError,
                       match=r"^\[detector\]\.window = 13 is below nmin = 14 at dim 12"):
        run_detector(stream, config)
    report = run_detector(stream, dataclasses.replace(config, window=14))
    assert report.f_refreshed.any()


def test_magnitude_stream_detects_no_earlier_than_phasor(loop8):
    scen_p = _double_outage_scenario(loop8, noise_variance=1e-2, horizon=60)
    scen_m = dataclasses.replace(scen_p, schedule=all_magnitude(8))
    g = scen_p.pre_model()
    f = scen_p.post_model()
    lay_m = scen_m.schedule.layout
    g_m, f_m = g.project(lay_m), f.project(lay_m)
    threshold = DetectionRule(1e-6).log_odds_threshold
    hits = []
    for scen, g_s, f_s in ((scen_p, g, f), (scen_m, g_m, f_m)):
        batch = [generate(dataclasses.replace(scen, seed=seed)).values for seed in range(40)]
        traces = log_odds_traces(batch, g_s, 1e-4, f_s)
        assert all(error is None for _, _, error in traces)
        hits.append(first_crossings([t for t, _, _ in traces], [threshold]))
    wins = sum((tm or 999) >= (tp or 999) for [tp], [tm] in zip(*hits))
    assert wins >= 36, f"magnitude stream beat phasor in {40 - wins}/40 seeds"


# --- non-finite samples --------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_log_lr_raises_instead_of_alarming(bad):
    # min(700, nan) is 700: without the check the non-finite log-likelihood
    # ratio of the bad sample would alarm at once
    g, f = scalar_models(mu_f=1.0)
    x = np.zeros((6, 1))
    x[3, 0] = bad
    [(trace, refreshed, error)] = log_odds_traces([x], g, 1e-4, f, stop_at=0.0)
    assert isinstance(error, NonFiniteLikelihoodError) and error.step == 3
    assert trace.size == refreshed.size == 3 and trace.max() < 0.0
    [(_, _, error)] = log_odds_traces([x], g, 1e-4, f)
    assert isinstance(error, NonFiniteLikelihoodError) and "step 4" in str(error)


def test_nan_sample_in_loop8_stream_raises(loop8):
    scen = _double_outage_scenario(loop8)
    stream = generate(scen)
    stream.values[9, 3] = np.nan
    g, f = scen.pre_model(), scen.post_model()
    with pytest.raises(NonFiniteLikelihoodError, match="tick 10"):
        run_detector(stream, DetectorConfig(g=g, f=f, alpha=1e-6, rho=1e-4))
    with pytest.raises(NonFiniteLikelihoodError, match="tick 10"):
        run_detector(stream, DetectorConfig(g=g, mode=ADAPTIVE, alpha=1e-6, rho=1e-4))
    for post in (f, None):
        [(_, _, error)] = log_odds_traces([stream.values], g, 1e-4, post)
        assert isinstance(error, NonFiniteLikelihoodError)
