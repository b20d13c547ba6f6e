"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (run with -s to see
them inline).

 1. Recursive posterior == direct posterior, 200 random streams, 1e-10.
 2. Exact-covariance zero-test sweep over every bundled feeder and every
    single/double outage that keeps all buses slack-connected: flags exactly
    the removed branches.
 3. Immediate detection at the alarm level: fixed outage tick 21 detected at
    21 in >= 95% of 500 seeds (known models) and by 22 in >= 90% (adaptive).
 4. Normalized delay curve is nonincreasing (20% slack) and its final point
    lands within 35% of the asymptotic bound; 1000 replications, rho 0.04.
 5. Empirical false-alarm rate <= 2*alpha at alpha 1e-2/1e-3 over 2e4
    pre-change runs, both modes.
 6. Windowed estimator matches a literal double-sum evaluation to 1e-12;
    all-mass-at-start weights collapse to the plain MLE exactly.
 7. Schur conditional covariance matches a 1e6-sample Monte Carlo regression
    oracle within 1% (d=4).
 8. Kron reduction residual <= 1e-9 on 100 random feeders; shrinking sensor
    coverage never reduces the exact KL and delays grow seed-wise.
 9. Every CLI subcommand writes byte-identical outputs across two runs with
    a fixed master seed.
"""

import contextlib
import dataclasses
import itertools
import math
import os
import time

import numpy as np
from scipy.special import expit

from gridwatch.cli import main as cli_main
from gridwatch.detector import (
    DetectionRule,
    GeometricPrior,
    first_crossings,
    log_odds_traces,
)
from gridwatch.experiments import ExperimentConfig, run_experiment, run_pmu_sweep
from gridwatch.gaussmodel import (
    GaussianModel,
    estimate_post_outage,
    estimate_windows,
)
from gridwatch.grid import (
    apply_outage,
    build_admittance,
    bundled_feeders,
    islands,
    random_feeder,
)
from gridwatch.localizer import EXACT_THRESHOLDS, scan_pairs
from gridwatch.simgen import Scenario, generate, substream
from oracles import (
    conditional_cov,
    in_service_pairs,
    kron_reduce,
    posterior_direct,
    sample,
)


@contextlib.contextmanager
def criterion(num: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL [{time.time() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS [{time.time() - start:.1f}s]")


def strong_double_outage(horizon=30, **overrides):
    loop8 = next(t for t in bundled_feeders() if t.name == "loop8")
    fields = dict(
        topology=loop8,
        out_branches=((3, 4), (2, 6)),
        lam=21,
        horizon=horizon,
        noise_variance=1e-8,
        injection_variance={1: 1.0, 2: 1.0, 3: 1.0, 4: 4.0, 5: 4.0, 6: 6.0,
                            7: 1.0, 8: 1.0},
        seed=0,
    )
    fields.update(overrides)
    return Scenario(**fields)


def test_c1_posterior_equivalence():
    with criterion(1, "recursive == direct posterior"):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(200):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(5, 201))
            a = rng.normal(size=(d, d))
            g = GaussianModel(rng.normal(size=d), a @ a.T + 0.5 * np.eye(d))
            b = rng.normal(size=(d, d))
            f = GaussianModel(rng.normal(size=d), b @ b.T + 0.5 * np.eye(d))
            prior = GeometricPrior(float(rng.uniform(0.005, 0.5)))
            data = rng.normal(size=(n, d), scale=1.5)
            [(trace, _, _)] = log_odds_traces([data], g, prior.rho, f)
            recursive = expit(trace[-1])
            direct = posterior_direct(g, f, prior, data)
            worst = max(worst, abs(recursive - direct))
        assert worst <= 1e-10, f"max |recursive - direct| = {worst:.3e}"


def test_c2_zero_test_soundness_sweep():
    with criterion(2, "exact localization sweep"):
        checked = 0
        for top in bundled_feeders():
            pairs = in_service_pairs(top)
            for r in (1, 2):
                for out in itertools.combinations(sorted(pairs), r):
                    post_top = apply_outage(top, set(out))
                    parts = islands(post_top)
                    if not all(p.kind == "slack" for p in parts):
                        continue  # de-energises buses: outside this criterion
                    pre = Scenario(topology=top, out_branches=(), horizon=1,
                                   noise_variance=0.0).pre_model()
                    scen = Scenario(topology=top, out_branches=out, lam=1,
                                    horizon=1, noise_variance=0.0)
                    report = scan_pairs(pre.cov, scen.post_model().cov, pairs,
                                        pre.layout, EXACT_THRESHOLDS)
                    assert report.flagged == set(out), (
                        f"{top.name} outage {out}: flagged {sorted(report.flagged)}")
                    checked += 1
        assert checked >= 60, f"sweep only covered {checked} outage cases"


def test_c3_immediate_detection():
    with criterion(3, "detection at the outage tick"):
        scen = strong_double_outage()
        g, f = scen.pre_model(), scen.post_model()
        from gridwatch.gaussmodel import kl_divergence

        kl = kl_divergence(f, g)
        assert kl >= 5.0, f"scenario separation KL={kl:.2f} below 5"
        stop = DetectionRule(1e-6).log_odds_threshold
        seeds = 500
        # every seed's stream in one batch per mode: a trace does not depend
        # on the rest of its batch
        batch = [generate(dataclasses.replace(scen, seed=seed)).values for seed in range(seeds)]
        known, adaptive = ([hit for [hit] in first_crossings([t for t, _, _ in traces], [stop])]
                           for traces in (log_odds_traces(batch, g, 1e-4, f),
                                          log_odds_traces(batch, g, 1e-4, stop_at=stop)))
        known_hits = sum(tau == 21 for tau in known)
        adaptive_hits = sum(tau is not None and 21 <= tau <= 22 for tau in adaptive)
        assert known_hits >= 0.95 * seeds, f"known-f hit 21 in {known_hits}/{seeds}"
        assert adaptive_hits >= 0.90 * seeds, f"adaptive by 22 in {adaptive_hits}/{seeds}"


def test_c4_delay_bound_convergence():
    with criterion(4, "normalized delay converges to the bound"):
        loop8 = next(t for t in bundled_feeders() if t.name == "loop8")
        scen = Scenario(topology=loop8, out_branches=((7, 8),), outage_rho=0.04,
                        noise_variance=2e-2, horizon=10, seed=0)
        cfg = ExperimentConfig(scenario=scen,
                               alphas=(1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12),
                               replications=1000, master_seed=404)
        table = run_experiment(cfg)
        ratios = [r.delay_over_logalpha for r in table.rows]
        bounds = [r.bound / abs(math.log(r.alpha)) for r in table.rows]
        for k in range(len(ratios) - 1):
            assert ratios[k + 1] <= 1.20 * ratios[k], (
                f"ratio rose beyond noise at alpha={table.rows[k + 1].alpha}: {ratios}")
        rel = abs(ratios[-1] - bounds[-1]) / bounds[-1]
        assert rel <= 0.35, f"final ratio {ratios[-1]:.4f} vs bound {bounds[-1]:.4f} ({rel:.1%})"
        assert all(r.censored == 0 for r in table.rows)


def test_c5_false_alarm_control():
    with criterion(5, "false-alarm rate below 2*alpha"):
        # Runs are pre-change segments truncated at a geometric outage tick
        # with the matching detector prior; sampling straight from the
        # pre-change model equals the simulator's pre-outage law.
        # Each mode scores every run in one batch of the detector core, in
        # which a run's trace does not depend on the other runs.
        path3 = next(t for t in bundled_feeders() if t.name == "path3")
        scen = Scenario(topology=path3, out_branches=((2, 3),), outage_rho=0.1,
                        noise_variance=1e-2, horizon=10, seed=0)
        g, f = scen.pre_model(), scen.post_model()
        rho = 0.1
        runs = 20_000
        lams = substream(2024, "fa-lams").geometric(rho, size=runs)
        batch = sample(g, int((lams - 1).sum()), substream(2024, "fa-samples"))
        chunks = [x for x in np.split(batch, np.cumsum(lams - 1)[:-1]) if x.shape[0]]
        alphas = (1e-2, 1e-3)
        thresholds = [DetectionRule(a).log_odds_threshold for a in alphas]
        stop = DetectionRule(min(alphas)).log_odds_threshold
        for mode, post, stop_at in (("known_f", f, None), ("adaptive", None, stop)):
            counts = {a: 0 for a in alphas}
            traces = log_odds_traces(chunks, g, rho, post, stop_at=stop_at)
            assert all(error is None for _, _, error in traces)
            for hits in first_crossings([trace for trace, _, _ in traces], thresholds):
                for a, hit in zip(alphas, hits):
                    counts[a] += hit is not None
            for a in alphas:
                rate = counts[a] / runs
                assert rate <= 2 * a, f"{mode} alpha={a}: rate {rate:.5f} > {2 * a}"


def _double_sum_estimate(x, weights):
    n, d = x.shape
    denom = sum(weights[k - 1] * (n - k + 1) for k in range(1, n + 1))
    mu = np.zeros(d)
    for k in range(1, n + 1):
        for t in range(k - 1, n):
            mu += weights[k - 1] * x[t]
    mu /= denom
    sig = np.zeros((d, d))
    for k in range(1, n + 1):
        for t in range(k - 1, n):
            dev = x[t] - mu
            sig += weights[k - 1] * np.outer(dev, dev)
    return mu, sig / denom


def test_c6_estimator_matches_double_sums():
    with criterion(6, "estimator equals double-sum oracle"):
        rng = np.random.default_rng(606)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            prior = GeometricPrior(float(rng.uniform(0.02, 0.98)))
            est = estimate_post_outage(x, prior, ridge=0.0)
            mu, sig = _double_sum_estimate(x, prior.weights(n))
            assert np.abs(est.mean - mu).max() <= 1e-12
            assert np.abs(est.cov - sig).max() <= 1e-12
        x = rng.normal(size=(9, 3))
        # all mass at position 1: cumulative weights all ones, denominator n
        mu, cov = estimate_windows(x[None] - x[None, -1:], x[None, -1], np.ones((1, 9)),
                                   np.array([9.0]), ridge=0.0)
        # identical formulas; only float accumulation order may differ
        assert np.abs(mu[0] - x.mean(axis=0)).max() < 1e-15
        assert np.abs(cov[0] - np.cov(x.T, ddof=0)).max() < 1e-15


def test_c7_conditioning_matches_monte_carlo():
    with criterion(7, "Schur conditioning vs Monte Carlo"):
        rng = np.random.default_rng(707)
        a = rng.normal(size=(4, 4))
        model = GaussianModel(np.zeros(4), a @ a.T + 0.5 * np.eye(4))
        x = sample(model, 1_000_000, rng)
        xi, xj = x[:, :2], x[:, 2:]
        beta, *_ = np.linalg.lstsq(xj, xi, rcond=None)
        emp = np.cov((xi - xj @ beta).T, ddof=0)
        schur = conditional_cov(model.cov, [0, 1], [2, 3])
        rel = np.linalg.norm(emp - schur) / np.linalg.norm(schur)
        assert rel <= 0.01, f"MC mismatch {rel:.3%}"


def test_c8_kron_and_coverage_sweep():
    with criterion(8, "Kron residual and coverage trend"):
        worst = 0.0
        for k in range(100):
            m = 6 + k % 24
            top = random_feeder(m, loops=(k % 3 if m >= 10 else 0), seed=1000 + k)
            Y = build_admittance(top)
            rng = substream(k, "kron-acceptance")
            keep = {0} | set(rng.choice(np.arange(1, m), size=m // 2,
                                        replace=False).tolist())
            red = kron_reduce(Y, keep)
            va = rng.normal(size=len(keep)) + 1j * rng.normal(size=len(keep))
            a = sorted(keep)
            b = [k for k in range(m) if k not in keep]
            vb = np.linalg.solve(Y[np.ix_(b, b)], -Y[np.ix_(b, a)] @ va)
            ia = Y[np.ix_(a, a)] @ va + Y[np.ix_(a, b)] @ vb
            worst = max(worst, float(np.linalg.norm(ia - red @ va) /
                                     np.linalg.norm(ia)))
        assert worst <= 1e-9, f"worst Kron residual {worst:.2e}"

        loop8 = next(t for t in bundled_feeders() if t.name == "loop8")
        scen = Scenario(topology=loop8, out_branches=((2, 6),), outage_rho=0.04,
                        noise_variance=1e-2, horizon=10, seed=0)
        cfg = ExperimentConfig(scenario=scen, alphas=(1e-6,), replications=200,
                               master_seed=808)
        placements = [[1, 2, 3, 4, 5, 6, 7, 8], [2, 4, 5, 8], [2, 5, 8], [2, 5], [5]]
        table = run_pmu_sweep(cfg, placements=placements)
        kls = [r.kl for r in table.rows]
        assert all(kls[i] >= kls[i + 1] - 1e-12 for i in range(len(kls) - 1)), (
            f"KL not nonincreasing along nesting: {kls}")
        for row in table.rows[1:]:
            assert row.frac_delay_ge_prev >= 0.5, (
                f"coverage {row.buses}: only {row.frac_delay_ge_prev:.0%} of seeds "
                f"slowed down or tied")
        assert table.rows[1].frac_delay_ge_prev >= 0.90
        delays = [r.avg_delay for r in table.rows]
        # average trend, with slack for placements of (near-)equal KL whose
        # delays tie up to Monte Carlo noise
        assert all(delays[i] <= delays[i + 1] + max(0.5, 0.05 * delays[i])
                   for i in range(len(delays) - 1)), delays


ACCEPT_CONFIG = """\
[scenario]
feeder = loop8
outage = 3-4, 2-6
lambda = 21
noise_variance = 1e-8
horizon = 120
seed = 3
record_injections = true

[injection]
bus1 = 1.0
bus2 = 1.0
bus3 = 1.0
bus4 = 4.0
bus5 = 4.0
bus6 = 6.0
bus7 = 1.0
bus8 = 1.0

[detector]
alpha = 1e-6
rho = 1e-4
mode = known_f

[experiment]
alphas = 1e-2, 1e-6
replications = 20

[pmu_sweep]
placements = 1 2 3 4 5 6 7 8 | 2 4 5 8
alpha = 1e-6
replications = 15

[localize]
exact = true
estimate_admittance = true
"""


def test_c9_cli_determinism(tmp_path):
    with criterion(9, "CLI outputs byte-identical"):
        config = tmp_path / "accept.conf"
        config.write_text(ACCEPT_CONFIG)

        def tree(root):
            out = {}
            for base, _dirs, files in os.walk(root):
                for name in files:
                    path = os.path.join(base, name)
                    with open(path, "rb") as fh:
                        out[os.path.relpath(path, root)] = fh.read()
            return out

        def run(argv):
            assert cli_main(argv) == 0, f"command failed: {argv}"

        stream_dir = str(tmp_path / "stream")
        run(["simulate", "--config", str(config), "--out", stream_dir, "--seed", "3"])
        for name, argv in (
            ("simulate", ["simulate", "--config", str(config), "--seed", "3"]),
            ("detect", ["detect", "--config", str(config), "--stream", stream_dir]),
            ("localize", ["localize", "--config", str(config), "--stream", stream_dir]),
            ("experiment", ["experiment", "--config", str(config), "--seed", "17"]),
            ("pmu-sweep", ["pmu-sweep", "--config", str(config), "--seed", "17"]),
            ("heatmap", ["heatmap", "--config", str(config), "--seed", "3"]),
        ):
            d1 = str(tmp_path / f"{name}-run1")
            d2 = str(tmp_path / f"{name}-run2")
            run(argv + ["--out", d1])
            run(argv + ["--out", d2])
            t1, t2 = tree(d1), tree(d2)
            assert t1.keys() == t2.keys(), f"{name}: file sets differ"
            diff = [k for k in t1 if t1[k] != t2[k]]
            assert not diff, f"{name}: files differ across runs: {diff}"
