"""The zero test's closed-form floors: the Fisher z formula against scipy's
normal quantile, the short-window boundary and its tick count, the named
errors, and through the localization pipeline the false-flag rate on
no-outage streams of random feeders and the monitor benchmark's config,
which must flag exactly its out branch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, norm

from gridwatch.gaussmodel import MAGNITUDE, PHASOR, CoordinateLayout, GeometricPrior
from gridwatch.grid import TopologyError, load_feeder, random_feeder
from gridwatch.localizer import (
    FLOOR_DELTA,
    FLOOR_LEVEL,
    all_bus_pairs,
    least_post_ticks,
    localize,
    zero_test_floors,
)
from gridwatch.simgen import Scenario, generate


def loop12_branches():
    return [br.pair for br in load_feeder("loop12").branches]


def test_floors_follow_the_fisher_z_formula():
    # the monitor's windows: d = 24, k = 20, 13 branches, 9 999 pre-event
    # samples and a post window of Kish size 9 989.26
    layout = CoordinateLayout.full_phasor(12)
    pairs = loop12_branches()
    c = norm.isf(FLOOR_LEVEL / (4 * 13))
    assert c == pytest.approx(4.1165, abs=1e-4)
    z = np.arctanh(FLOOR_DELTA)
    got = zero_test_floors(9999, 9989.26, pairs, layout)
    assert got.active == pytest.approx(np.tanh(z + c / math.sqrt(9999 - 23)), rel=1e-12)
    assert got.zero == pytest.approx(np.tanh(z - c / math.sqrt(9989.26 - 23)), rel=1e-12)
    # the least post window: the fewest ticks whose Kish size at rho 0.04
    # exceeds k + 3 + (c / z)^2
    sizes = GeometricPrior(0.04).kish_sizes(least_post_ticks(GeometricPrior(0.04), pairs,
                                                             layout))
    assert sizes[-2] <= 23 + (c / z) ** 2 < sizes[-1]
    # two magnitude buses pair into 2 of the 6 coordinates: k = 4, not 2
    mixed = CoordinateLayout.from_kinds({1: MAGNITUDE, 2: MAGNITUDE, 3: PHASOR, 4: PHASOR})
    got = zero_test_floors(500, 3000, [(1, 2), (3, 4)], mixed, level=0.01, delta=0.2)
    c = norm.isf(0.01 / 8)
    assert got.active == pytest.approx(np.tanh(np.arctanh(0.2) + c / math.sqrt(493)),
                                       rel=1e-12)


def test_floors_are_none_up_to_the_least_post_size():
    layout = CoordinateLayout.full_phasor(12)
    pairs = loop12_branches()
    least = 23 + (norm.isf(FLOOR_LEVEL / (4 * 13)) / np.arctanh(FLOOR_DELTA)) ** 2
    assert zero_test_floors(9999, least - 1e-6, pairs, layout) is None
    assert 0.0 < zero_test_floors(9999, least + 1e-6, pairs, layout).zero < 1e-8
    # the fewest ticks whose weights have a Kish size above it, as localize
    # names them, and the Kish sizes against their direct sums
    prior = GeometricPrior(0.04)
    ticks = least_post_ticks(prior, pairs, layout)
    sizes = prior.kish_sizes(ticks)
    assert sizes[-2] <= least < sizes[-1]
    for n in (1, 2, 50, ticks):
        w = 1.0 - 0.96 ** np.arange(1, n + 1)
        assert sizes[n - 1] == pytest.approx(w.sum() ** 2 / (w @ w), rel=1e-12)


def test_floors_reject_windows_too_short_for_fisher_z():
    layout = CoordinateLayout.full_phasor(12)
    pairs = loop12_branches()
    with pytest.raises(ValueError, match=r"^pre-event window of effective size 23 is too "
                                         r"short for a Fisher z test given 20 coordinates: "
                                         r"need more than 23$"):
        zero_test_floors(23, 5000, pairs, layout)
    with pytest.raises(ValueError, match=r"^post-event window of effective size 22.5 "):
        zero_test_floors(24, 22.5, pairs, layout)
    assert zero_test_floors(24, 5000, pairs, layout).active < 1.0


def test_floors_without_pairs_are_named():
    with pytest.raises(ValueError, match="no pair to score"):
        zero_test_floors(100, 5000, [], CoordinateLayout.full_phasor(3))


@st.composite
def no_outage_streams(draw):
    m, loops, seed = draw(st.integers(4, 12)), draw(st.integers(0, 1)), draw(st.integers(0, 999))
    try:
        topology = random_feeder(m, loops, seed)
    except TopologyError:  # no bus pair left far enough apart for a loop
        topology = random_feeder(m, 0, seed)
    scenario_draws = dict(noise_variance=draw(st.sampled_from([1e-8, 1e-4, 1e-2])),
                          seed=draw(st.integers(0, 2**31)))
    # the pre window from 60 samples; the post one this many ticks past the
    # fewest that admit floors
    n_pre, post_extra = draw(st.integers(60, 4000)), draw(st.integers(0, 2500))
    mode = draw(st.sampled_from(["all", "branches"]))
    return topology, scenario_draws, n_pre, post_extra, mode


@pytest.mark.parametrize("level", [FLOOR_LEVEL, 0.1, 0.5])
def test_floors_keep_false_flags_under_the_level(level):
    # no branch goes out, so every flag is false: over the streams, the
    # flagged pairs must not exceed what a per-pair rate of `level` makes
    # likely (a binomial tail of 1e-6)
    seen = {"pairs": 0, "flags": 0}
    prior = GeometricPrior(0.04)

    @settings(max_examples=25)
    @given(no_outage_streams())
    def check(case):
        topology, scenario_draws, n_pre, post_extra, mode = case
        layout = CoordinateLayout.full_phasor(topology.bus_count)
        pairs = (all_bus_pairs(layout) if mode == "all"
                 else [br.pair for br in topology.branches])
        n_post = least_post_ticks(prior, pairs, layout, level) + post_extra
        scenario = Scenario(topology, horizon=n_pre + n_post, **scenario_draws)
        found = localize(generate(scenario), scenario, n_pre, pairs=mode,
                         prior=lambda: prior, level=level)
        assert found.thresholds is not None
        report = found.report
        seen["pairs"] += sum(not s.degenerate for s in report.scores)
        seen["flags"] += len(report.flagged)

    check()
    assert binom.sf(seen["flags"] - 1, seen["pairs"], level) > 1e-6, seen


@pytest.mark.parametrize("seed", [43, 57, 71])
def test_monitor_config_flags_exactly_its_out_branch(seed):
    # the monitor benchmark's scenario: loop12, 8-10 out at tick 10 000 of
    # 20 000, the branch pairs and the estimation prior's default rho 0.04;
    # under the bootstrap floors seed 57 flagged nothing (8-10 scored 0.585
    # against an active floor of 0.598)
    scenario = Scenario(load_feeder("loop12"), ((8, 10),), lam=10_000, horizon=20_000,
                        seed=seed)
    found = localize(generate(scenario), scenario, 9_999, prior=lambda: GeometricPrior(0.04))
    assert found.thresholds is not None
    assert found.report.flagged == {(8, 10)}
