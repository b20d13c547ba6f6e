"""Sequential detector: posterior recursion vs direct sum, alarm rule
boundary behaviour, adaptive mode, delay bound and stream driving."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import expit

from gridwatch.detector import (
    ADAPTIVE,
    DetectionRule,
    DetectorConfig,
    GeometricPrior,
    NonFiniteLikelihoodError,
    _log_odds_trace,
    _one_trace,
    adaptive_log_odds,
    expected_delay_bound,
    first_crossing,
    known_f_log_odds,
    run_detector,
)
from gridwatch.gaussmodel import GaussianModel, sample
from gridwatch.grid import load_feeder
from gridwatch.simgen import Scenario, SensorSchedule, generate
from oracles import advance_log_odds, all_magnitude, posterior_direct


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
    assert first_crossing(at, 1e-6) == 9, "posterior exactly at 1-alpha must alarm"
    assert first_crossing(below, 1e-6) is None, "posterior just below 1-alpha must continue"


# --- posterior: recursion vs direct -----------------------------------------------

def test_identical_models_recover_prior_cdf():
    g, _ = scalar_models()
    prior = GeometricPrior(0.07)
    rng = np.random.default_rng(3)
    posterior = expit(known_f_log_odds(rng.normal(size=(200, 1)), g, g, prior.rho))
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
        posterior = expit(known_f_log_odds(data, g, f, prior.rho))
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
    trace, refreshed = _one_trace(np.full((12, 1), 2.0), g, 0.1, nmin=4)
    assert np.isfinite(trace).all()
    assert refreshed[-1]


def test_adaptive_no_change_posterior_stays_low():
    # Pure pre-change stream: the learned model underfits fresh samples, so
    # the posterior stays below one half for the whole run.
    top = load_feeder("path3")
    g = Scenario(topology=top, out_branches=(), horizon=1, noise_variance=1e-4,
                 seed=0).pre_model()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = sample(g, 10_000, rng)
        trace = adaptive_log_odds(x, g, rho=1e-4, stop_at=0.0)
        assert trace.size == 10_000, f"seed {seed}: log-odds reached 0.5 posterior"
        assert trace.max() < 0.0


def test_adaptive_alarm_within_one_step_of_known(loop8):
    iv = {b: 1.0 for b in range(1, 9)}
    iv.update({4: 4.0, 5: 4.0, 6: 6.0})
    scen = Scenario(topology=loop8, out_branches=((3, 4), (2, 6)), lam=21,
                    horizon=30, noise_variance=1e-8, injection_variance=iv, seed=0)
    g, f = scen.pre_model(), scen.post_model()
    gaps = []
    for seed in range(30):
        st = generate(dataclasses.replace(scen, seed=seed))
        tk = first_crossing(known_f_log_odds(st.values, g, f, 1e-4), 1e-6)
        ta = first_crossing(adaptive_log_odds(st.values, g, 1e-4), 1e-6)
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
    for seed in range(6):
        st = generate(dataclasses.replace(scen, seed=seed))
        trace = known_f_log_odds(st.values, g, f, 1e-4)
        assert first_crossing(trace, 1e-6) is None, f"seed {seed}"


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


def test_run_detector_hold_last_value_steps_every_tick(loop8):
    scen = _double_outage_scenario(loop8, schedule=all_magnitude(8, 3),
                          lam=22, horizon=45)
    stream = generate(scen)
    report = run_detector(stream,
                          DetectorConfig(g=scen.pre_model(), f=scen.post_model(),
                                         alpha=1e-6, rho=1e-4, hold_last_value=True))
    assert report.step_ticks.size == 45


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
    lay_m = scen_m.schedule.layout()
    g_m, f_m = g.project(lay_m), f.project(lay_m)
    wins = 0
    for seed in range(40):
        sp = generate(dataclasses.replace(scen_p, seed=seed))
        sm = generate(dataclasses.replace(scen_m, seed=seed))
        tp = first_crossing(known_f_log_odds(sp.values, g, f, 1e-4), 1e-6) or 999
        tm = first_crossing(known_f_log_odds(sm.values, g_m, f_m, 1e-4), 1e-6) or 999
        wins += tm >= tp
    assert wins >= 36, f"magnitude stream beat phasor in {40 - wins}/40 seeds"


# --- non-finite samples --------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_log_lr_raises_instead_of_alarming(bad):
    # min(700, nan) is 700: without the check the non-finite log-likelihood
    # ratio of the bad sample would alarm at once
    g, f = scalar_models(mu_f=1.0)
    x = np.zeros((6, 1))
    x[3, 0] = bad
    [(trace, refreshed, error)] = _log_odds_trace([x], g, 1e-4, f, stop_at=0.0)
    assert isinstance(error, NonFiniteLikelihoodError) and error.step == 3
    assert trace.size == refreshed.size == 3 and trace.max() < 0.0
    with pytest.raises(NonFiniteLikelihoodError, match="step 4"):
        known_f_log_odds(x, g, f, 1e-4)


def test_nan_sample_in_loop8_stream_raises(loop8):
    scen = _double_outage_scenario(loop8)
    stream = generate(scen)
    stream.values[9, 3] = np.nan
    g, f = scen.pre_model(), scen.post_model()
    with pytest.raises(NonFiniteLikelihoodError, match="tick 10"):
        run_detector(stream, DetectorConfig(g=g, f=f, alpha=1e-6, rho=1e-4))
    with pytest.raises(NonFiniteLikelihoodError, match="tick 10"):
        run_detector(stream, DetectorConfig(g=g, mode=ADAPTIVE, alpha=1e-6, rho=1e-4))
    with pytest.raises(NonFiniteLikelihoodError):
        known_f_log_odds(stream.values, g, f, 1e-4)
    with pytest.raises(NonFiniteLikelihoodError):
        adaptive_log_odds(stream.values, g, 1e-4)
