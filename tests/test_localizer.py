"""Outage localization: the conditional-correlation zero test with exact and
estimated covariances, change ranking under partial observability, and branch
admittance re-estimation."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.experiments import correlation_matrix
from gridwatch.gaussmodel import GeometricPrior, estimate_post_outage
from gridwatch.grid import Branch, GridTopology, apply_outage, islands, random_feeder
from gridwatch.localizer import (
    DELTA_TIE,
    EXACT_THRESHOLDS,
    all_bus_pairs,
    PhasorWindow,
    Thresholds,
    estimate_admittance,
    scan_pairs,
    zero_test_floors,
)
from gridwatch.simgen import Scenario, exact_covariances, generate


def exact_pair(top, out, noise=0.0, injection=1.0):
    scen = Scenario(topology=top, out_branches=tuple(out), lam=1, horizon=2,
                    noise_variance=noise, injection_variance=injection)
    return scen.pre_model(), scen.post_model()


def branch_pairs(top):
    return [b.pair for b in top.branches]


# --- zero test with exact covariances ---------------------------------------------

@settings(max_examples=30, deadline=None)
@given(buses=st.integers(10, 30), loops=st.integers(1, 3), seed=st.integers(0, 10_000),
       pick=st.integers(0, 10_000), noise=st.sampled_from([1e-8, 1e-4, 1e-2]))
def test_heatmap_exact_post_collapses_wherever_exact_localize_flags(buses, loops, seed, pick,
                                                                   noise):
    # both commands score the matrices of exact_covariances, which the
    # measurement noise does not reach: a branch that exact localize flags
    # reads below the exact zero in the heatmap's post matrix.  The out
    # branch is one whose removal leaves every bus energised, away from the
    # slack (whose pinned voltage carries no signal)
    top = random_feeder(buses, loops=loops, seed=seed)
    spare = [br.pair for br in top.branches if 1 not in br.pair
             and all(part.kind == "slack" for part in islands(apply_outage(top, {br.pair})))]
    out = spare[pick % len(spare)]
    scen = Scenario(topology=top, out_branches=(out,), lam=1, horizon=2, noise_variance=noise)
    layout = scen.schedule.layout
    sigma0, sigma1 = exact_covariances(scen, layout)
    quiet = exact_covariances(dataclasses.replace(scen, noise_variance=0.0), layout)
    assert all(a.tobytes() == b.tobytes() for a, b in zip((sigma0, sigma1), quiet))
    report = scan_pairs(sigma0, sigma1, branch_pairs(top), layout, EXACT_THRESHOLDS)
    post = correlation_matrix(sigma1, layout)
    pos = {bus: k for k, bus in enumerate(layout.buses)}
    assert out in report.flagged
    for i, j in report.flagged:
        assert post[pos[i], pos[j]] < EXACT_THRESHOLDS.zero


def test_exact_sigma_flags_double_outage(loop8):
    g, f = exact_pair(loop8, [(3, 4), (2, 6)])
    report = scan_pairs(g.cov, f.cov, branch_pairs(loop8), g.layout, EXACT_THRESHOLDS)
    assert report.flagged == {(3, 4), (2, 6)}
    # without thresholds the same pairs are scored and none is flagged
    unjudged = scan_pairs(g.cov, f.cov, branch_pairs(loop8), g.layout, None)
    assert unjudged.scores == report.scores and unjudged.flagged == frozenset()


def test_identical_covariances_flag_nothing(loop8):
    g, _ = exact_pair(loop8, [(3, 4)])
    report = scan_pairs(g.cov, g.cov, branch_pairs(loop8), g.layout, EXACT_THRESHOLDS)
    assert report.flagged == frozenset()


def test_scores_sorted_by_delta_descending(loop8):
    g, f = exact_pair(loop8, [(3, 4), (2, 6)])
    report = scan_pairs(g.cov, f.cov, branch_pairs(loop8), g.layout, EXACT_THRESHOLDS)
    # descending, except inside a run of round-off ties, ordered by pair
    for a, b in zip(report.scores, report.scores[1:]):
        assert a.delta >= b.delta or (b.delta - a.delta <= DELTA_TIE and a.pair < b.pair)
    assert {s.pair for s in report.scores[:2]} == {(3, 4), (2, 6)}


def test_row_order_survives_round_off(loop12):
    # exact covariances leave most pairs unchanged, with deltas of ~1e-14
    # round-off; their rows must not be ordered by that noise
    g, f = exact_pair(loop12, [(8, 10), (3, 4)])
    pairs = all_bus_pairs(g.layout)
    base = [s.pair for s in scan_pairs(g.cov, f.cov, pairs, g.layout).scores]
    rng = np.random.default_rng(12)
    for _ in range(4):
        pre, post = (rng.uniform(-1e-15, 1e-15, size=g.cov.shape) for _ in range(2))
        report = scan_pairs(g.cov * (1.0 + pre + pre.T), f.cov * (1.0 + post + post.T),
                            pairs, g.layout)
        assert [s.pair for s in report.scores] == base


def test_estimated_covariance_flags_same_set(loop8):
    # Sampled covariances stand in for the exact ones: a long pre window for
    # the baseline and the weighted estimator on the post window.
    scen = Scenario(topology=loop8, out_branches=((3, 4), (2, 6)), lam=4001,
                    horizon=12_000, noise_variance=1e-4, seed=42)
    stream = generate(scen)
    pre = stream.values[:4000]
    post = stream.values[4000:]
    sigma0 = np.cov(pre.T, ddof=0)
    sigma1 = estimate_post_outage(post, GeometricPrior(0.04)).cov
    report = scan_pairs(sigma0, sigma1, branch_pairs(loop8), stream.schedule.layout,
                        Thresholds(zero=0.05, active=0.3))
    assert report.flagged == {(3, 4), (2, 6)}


def test_zero_test_floors_flag_single_outage(path3):
    # two pairs at level 1e-3 and delta 0.1 need a post window above about
    # 1 340 samples; the live branch scores 0.92, the out one 0.03
    scen = Scenario(topology=path3, out_branches=((2, 3),), lam=3001,
                    horizon=6000, noise_variance=1e-4, seed=9)
    stream = generate(scen)
    pre, post = stream.values[:3000], stream.values[3000:]
    thresholds = zero_test_floors(len(pre), len(post), branch_pairs(path3), stream.schedule.layout)
    assert 0.0 < thresholds.zero < 0.1 < thresholds.active < 0.2
    report = scan_pairs(np.cov(pre.T, ddof=0), np.cov(post.T, ddof=0),
                        branch_pairs(path3), stream.schedule.layout, thresholds,
                        noise_floor=scen.noise_variance)
    assert report.flagged == {(2, 3)}


def test_dead_island_pair_skipped_not_flagged():
    # chain 1-2-3-4: cutting (2,3) kills island {3,4}; the intact branch
    # (3,4) inside it must be skipped with the degeneracy marker, while the
    # actually-removed branch is still flagged.
    chain = GridTopology(4, (Branch(1, 2, 4 - 5j), Branch(2, 3, 3 - 4j),
                             Branch(3, 4, 5 - 3j)))
    noise = 1e-9
    g, f = exact_pair(chain, [(2, 3)], noise=noise)
    report = scan_pairs(g.cov, f.cov, branch_pairs(chain), g.layout,
                        EXACT_THRESHOLDS, noise_floor=noise)
    assert report.flagged == {(2, 3)}
    skipped = {s.pair for s in report.skipped()}
    assert (3, 4) in skipped


def test_scan_invariant_under_common_scaling(loop8):
    g, f = exact_pair(loop8, [(7, 8)])
    a = scan_pairs(g.cov, f.cov, branch_pairs(loop8), g.layout, EXACT_THRESHOLDS)
    b = scan_pairs(13.7 * g.cov, 13.7 * f.cov, branch_pairs(loop8), g.layout,
                   EXACT_THRESHOLDS)
    assert a.flagged == b.flagged
    by_pair = {s.pair: s for s in b.scores}
    for x in a.scores:
        assert x.rho_pre == pytest.approx(by_pair[x.pair].rho_pre, abs=1e-12)


# --- exhaustive soundness sweep (module-sized; full sweep in acceptance) -----------

def test_single_outage_sweep_loop8(loop8):
    from gridwatch.grid import islands

    pairs = branch_pairs(loop8)
    for out in pairs:
        post_top = apply_outage(loop8, {out})
        if not all(i.kind == "slack" for i in islands(post_top)):
            continue
        g, f = exact_pair(loop8, [out])
        report = scan_pairs(g.cov, f.cov, pairs, g.layout, EXACT_THRESHOLDS)
        assert report.flagged == {out}, f"outage {out} flagged {report.flagged}"


# --- ranking under partial observability -------------------------------------------

def observed_pairs(buses):
    return list(itertools.combinations(sorted(buses), 2))


def test_rank_changes_points_at_outage_neighborhood(loop8):
    # Sensors on a subset of buses; the outage of branch 2-6 must put a pair
    # involving bus 2 (its observed endpoint) at the top of the ranking.
    sensors = {2, 4, 5, 8}
    g, f = exact_pair(loop8, [(2, 6)])
    sub = g.layout.restrict(sensors)
    ranked = scan_pairs(g.project(sub).cov, f.project(sub).cov,
                        observed_pairs(sensors), sub).scores
    assert 2 in ranked[0].pair, f"top pair {ranked[0].pair} misses bus 2"
    assert ranked[0].delta > 3 * ranked[len(ranked) // 2].delta


def test_rank_changes_no_outage_all_small(loop8):
    sensors = {2, 4, 5, 8}
    g, _ = exact_pair(loop8, [(2, 6)])
    sub = g.layout.restrict(sensors)
    ranked = scan_pairs(g.project(sub).cov, g.project(sub).cov,
                        observed_pairs(sensors), sub).scores
    assert max(s.delta for s in ranked) < 1e-12


def test_rank_changes_scale_free(loop8):
    sensors = {2, 4, 5, 8}
    g, f = exact_pair(loop8, [(2, 6)])
    sub = g.layout.restrict(sensors)
    a = scan_pairs(g.project(sub).cov, f.project(sub).cov, observed_pairs(sensors), sub).scores
    b = scan_pairs(0.25 * g.project(sub).cov, 0.25 * f.project(sub).cov,
                   observed_pairs(sensors), sub).scores
    assert [s.pair for s in a] == [s.pair for s in b]


def test_rank_changes_deterministic_tie_order():
    layout_kinds = {1: "magnitude", 2: "magnitude", 3: "magnitude"}
    from gridwatch.gaussmodel import CoordinateLayout

    lay = CoordinateLayout.from_kinds(layout_kinds)
    sigma = np.eye(3)
    ranked = scan_pairs(sigma, sigma, [(1, 3), (1, 2), (2, 3)], lay).scores
    assert [s.pair for s in ranked] == [(1, 2), (1, 3), (2, 3)]


def test_rank_changes_top_k(loop8):
    g, f = exact_pair(loop8, [(2, 6)])
    sub = g.layout.restrict({2, 4, 5, 8})
    ranked = scan_pairs(g.project(sub).cov, f.project(sub).cov,
                        observed_pairs({2, 4, 5, 8}), sub).scores[:2]
    assert len(ranked) == 2


# --- admittance estimation -----------------------------------------------------------

def admittance_windows(top, out, lam, horizon, noise, seed=3):
    scen = Scenario(topology=top, out_branches=tuple(out), lam=lam, horizon=horizon,
                    noise_variance=noise, seed=seed, record_injections=True)
    stream = generate(scen)
    dv = stream.complex_values()
    pre = PhasorWindow(dv[: lam - 1], stream.injections[: lam - 1])
    post = PhasorWindow(dv[lam - 1:], stream.injections[lam - 1:])
    return pre, post


def test_admittance_noiseless_exact(loop8):
    pre, post = admittance_windows(loop8, [(7, 8)], lam=61, horizon=120, noise=0.0)
    est = estimate_admittance(pre, post, loop8, [(7, 8), (2, 3)])
    bm = loop8.branch_map()
    for pair in ((7, 8), (2, 3)):
        assert abs(est[pair].pre - bm[pair].admittance) / abs(bm[pair].admittance) < 1e-8
    assert abs(est[(7, 8)].post) <= 1e-6 * abs(est[(7, 8)].pre)
    assert est[(7, 8)].likely_out
    assert not est[(2, 3)].likely_out


def test_admittance_no_outage_stable(loop8):
    pre, post = admittance_windows(loop8, [(7, 8)], lam=200, horizon=201, noise=0.0)
    # lam at the end: both windows are effectively pre-outage data
    est = estimate_admittance(pre, PhasorWindow(pre.delta_v[:100], pre.delta_i[:100]),
                              loop8, [(2, 3)])
    assert abs(est[(2, 3)].post - est[(2, 3)].pre) / abs(est[(2, 3)].pre) < 0.01


def test_admittance_noisy_monte_carlo(loop8):
    hits = 0
    seeds = 100
    for seed in range(seeds):
        pre, post = admittance_windows(loop8, [(7, 8)], lam=201, horizon=400,
                                       noise=1e-4, seed=seed)
        est = estimate_admittance(pre, post, loop8, [(7, 8), (3, 4)])
        hits += est[(7, 8)].likely_out and not est[(3, 4)].likely_out
    assert hits >= 95, f"correct marking in only {hits}/{seeds} seeds"


def test_admittance_underdetermined_error(loop8):
    pre, post = admittance_windows(loop8, [(7, 8)], lam=3, horizon=5, noise=0.0)
    with pytest.raises(ValueError, match="need at least"):
        estimate_admittance(pre, post, loop8, [(7, 8)])


def test_admittance_unknown_candidate(loop8):
    pre, post = admittance_windows(loop8, [(7, 8)], lam=61, horizon=120, noise=0.0)
    with pytest.raises(ValueError, match="not a branch"):
        estimate_admittance(pre, post, loop8, [(1, 8)])


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(zero=0.2, active=0.1)
    with pytest.raises(ValueError):
        Thresholds(zero=0.0, active=0.1)
