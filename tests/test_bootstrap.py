"""Bootstrap thresholds from multinomial counts, checked against the
per-resample gather and np.cov (bootstrap_thresholds_direct) on random
windows, and the named errors of bad bootstrap inputs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gridwatch import localizer
from gridwatch.gaussmodel import MAGNITUDE, PHASOR, CoordinateLayout, score_pairs
from gridwatch.grid import SingularBlockError
from gridwatch.localizer import all_bus_pairs, thresholds_from_bootstrap
from gridwatch.simgen import substream
import oracles
from oracles import bootstrap_thresholds_direct

TOL = 1e-10


@st.composite
def bootstrap_cases(draw):
    dim = draw(st.integers(2, 24))
    # m buses, dim - m of them phasor (two coordinates each)
    m = draw(st.integers(max(2, (dim + 1) // 2), dim))
    phasor = set(draw(st.permutations(range(1, m + 1)))[:dim - m])
    layout = CoordinateLayout.from_kinds(
        {b: PHASOR if b in phasor else MAGNITUDE for b in range(1, m + 1)})
    pairs = draw(st.lists(st.sampled_from(all_bus_pairs(layout)), min_size=1,
                          max_size=20, unique=True))
    n = draw(st.integers(dim + 2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mixing = np.eye(dim) + 0.3 * rng.normal(size=(dim, dim)) / np.sqrt(dim)
    samples = rng.normal(size=(n, dim)) @ mixing + rng.normal(size=dim)
    kind = draw(st.sampled_from(["plain", "duplicates", "constant", "few_rows"]))
    if kind == "duplicates":
        samples[rng.integers(0, n, size=n // 3)] = samples[rng.integers(0, n, size=n // 3)]
    elif kind == "constant":
        samples[:, draw(st.integers(0, dim - 1))] = 0.7
    elif kind == "few_rows" and dim >= 5:
        # at most dim - 3 distinct rows: the window and every resample are
        # singular by at least four dimensions
        pool = samples[:draw(st.integers(2, dim - 3))]
        samples = pool[rng.integers(0, len(pool), size=n)]
    else:
        kind = "plain"
    n_boot = draw(st.integers(1, 7))
    budget = draw(st.sampled_from([1, 97, 1000, 1 << 12, localizer._BOOT_BUDGET]))
    seed = draw(st.integers(0, 2**31))
    return samples, pairs, layout, kind, n_boot, budget, seed


def _resamples_full_rank(samples, kept_dim, n_boot, seed):
    """Whether every resample holds more distinct rows than kept_dim and one
    of them is no permutation of the window (so its deviations exceed
    round-off)."""
    rng = substream(seed, "bootstrap")
    n = samples.shape[0]
    picks = [rng.integers(0, n, size=n) for _ in range(n_boot)]
    return (min(len(np.unique(samples[p], axis=0)) for p in picks) > kept_dim
            and any(len(np.unique(p)) < n for p in picks))


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(bootstrap_cases())
def test_bootstrap_counts_match_per_resample_covariances(case):
    samples, pairs, layout, kind, n_boot, budget, seed = case
    with mock.patch.object(localizer, "_BOOT_BUDGET", budget):
        if kind == "few_rows":
            with pytest.raises(SingularBlockError):
                bootstrap_thresholds_direct(samples, pairs, layout, n_boot, seed)
            with pytest.raises(SingularBlockError):
                thresholds_from_bootstrap(samples, pairs, layout, n_boot, seed)
            return
        constant = np.ptp(samples, axis=0) == 0
        if all(any(constant[list(layout.coords_of(b))].any() for b in pair)
               for pair in pairs):
            with pytest.raises(ValueError, match="no bootstrap deviation"):
                thresholds_from_bootstrap(samples, pairs, layout, n_boot, seed)
            return
        assume(_resamples_full_rank(samples, int((~constant).sum()), n_boot, seed))
        got = thresholds_from_bootstrap(samples, pairs, layout, n_boot, seed)
    ref = bootstrap_thresholds_direct(samples, pairs, layout, n_boot, seed)
    assert abs(got.zero - ref.zero) <= TOL * ref.zero
    assert abs(got.active - ref.active) <= TOL * ref.active


def test_counts_past_uint8_widen_their_storage(monkeypatch):
    # every resample draws row 0 at least 300 times, so counts pass 255
    class Skewed:
        def __init__(self, rng):
            self.rng = rng

        def integers(self, low, high, size):
            pick = self.rng.integers(low, high, size=size)
            pick[:300] = 0
            return pick

    def skewed(seed, *labels):
        return Skewed(substream(seed, *labels))

    monkeypatch.setattr(localizer, "substream", skewed)
    monkeypatch.setattr(oracles, "substream", skewed)
    layout = CoordinateLayout.full_phasor(2)
    samples = np.random.default_rng(3).normal(size=(400, 4))
    got = thresholds_from_bootstrap(samples, [(1, 2)], layout, n_boot=5, seed=1)
    ref = bootstrap_thresholds_direct(samples, [(1, 2)], layout, n_boot=5, seed=1)
    assert abs(got.zero - ref.zero) <= TOL * ref.zero


def test_bootstrap_rejects_n_boot_below_one():
    layout = CoordinateLayout.full_phasor(2)
    samples = np.random.default_rng(5).normal(size=(40, 4))
    for n_boot in (0, -3):
        with pytest.raises(ValueError, match=f"n_boot must be at least 1, got {n_boot}"):
            thresholds_from_bootstrap(samples, [(1, 2)], layout, n_boot=n_boot)


def test_bootstrap_without_deviation_is_named():
    # bus 1 is held constant, so its only scored pair is degenerate in every
    # resample and no deviation is left to take a percentile of
    layout = CoordinateLayout.full_phasor(3)
    samples = np.random.default_rng(6).normal(size=(50, 6))
    samples[:, list(layout.coords_of(1))] = 0.25
    with pytest.raises(ValueError, match="no bootstrap deviation"):
        thresholds_from_bootstrap(samples, [(1, 2)], layout, n_boot=5)


def test_bootstrap_rejects_resample_with_too_few_distinct_rows():
    # a window of dim + 2 rows whose resample draws only dim distinct rows:
    # its covariance is singular, and before the rule it passed Cholesky on
    # round-off and gave a zero floor of 0.758 (1.153 from the oracle)
    layout = CoordinateLayout.full_phasor(2)
    samples = np.random.default_rng(10).normal(size=(6, 4))
    with pytest.raises(SingularBlockError,
                       match=r"bootstrap resample 0 of 1 .*\(4 distinct samples for 4 "):
        thresholds_from_bootstrap(samples, all_bus_pairs(layout), layout, n_boot=1,
                                  seed=10)


def test_bootstrap_rejects_window_with_too_few_distinct_rows():
    # windows of 12 rows drawn from 4 distinct rows in d = 4: the window and
    # every resample are singular (rank at most 3 after centring), but the
    # count vectors count window indices, so before the distinct-row rule 23
    # of these seeds gave thresholds from round-off (seed 12: zero floor
    # 0.0837)
    layout = CoordinateLayout.full_phasor(2)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(4, 4))[rng.integers(0, 4, size=12)]
        with pytest.raises((SingularBlockError, ValueError)):
            thresholds_from_bootstrap(samples, [(1, 2)], layout, n_boot=1, seed=seed)
    rng = np.random.default_rng(12)
    samples = rng.normal(size=(4, 4))[rng.integers(0, 4, size=12)]
    with pytest.raises(SingularBlockError, match=r"bootstrap window of 12 samples in dim 4: "
                                                 r"4 distinct samples for 4 coordinates"):
        thresholds_from_bootstrap(samples, [(1, 2)], layout, n_boot=1, seed=12)


def test_bootstrap_distinct_rows_ignore_the_sign_of_zero():
    # rows equal up to the sign of a zero coordinate are one row: the window
    # below has 4 distinct rows, not 5, for 4 coordinates of nonzero variance
    layout = CoordinateLayout.full_phasor(2)
    pool = np.random.default_rng(0).normal(size=(4, 4))
    pool[0, 0] = 0.0
    samples = pool[np.arange(12) % 4]
    samples[4, 0] = -0.0
    with pytest.raises(SingularBlockError, match=r"bootstrap window of 12 samples in dim 4: "
                                                 r"4 distinct samples for 4 coordinates"):
        thresholds_from_bootstrap(samples, [(1, 2)], layout, n_boot=1)


def test_singular_pair_block_is_named():
    # a pair block of the precision that np.linalg.inv finds singular is a
    # SingularBlockError, not a raw LinAlgError; the pair blocks are the one
    # 4-D input (covariances x pairs x block) score_pairs inverts
    layout = CoordinateLayout.full_phasor(3)
    sigma = np.cov(np.random.default_rng(7).normal(size=(40, 6)).T)
    inv = np.linalg.inv

    def pair_blocks_fail(a):
        if np.ndim(a) == 4:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    with mock.patch.object(np.linalg, "inv", pair_blocks_fail):
        with pytest.raises(SingularBlockError, match="Lambda"):
            score_pairs(sigma, [(1, 2)], layout)


def test_failing_stack_names_its_resample():
    # the group's stacked score_pairs call raises for resample 5 of 6 (its
    # kept block fails Cholesky), so the group is scored again one by one
    # and the error names resample 5, as scoring each resample alone did
    layout = CoordinateLayout.full_phasor(2)
    samples = np.random.default_rng(2).normal(size=(7, 4))
    stack_failed = []

    def spy(sigma, pairs, lay):
        try:
            return score_pairs(sigma, pairs, lay)
        except SingularBlockError:
            stack_failed.append(np.ndim(sigma) == 3)
            raise

    with mock.patch.object(localizer, "score_pairs", spy):
        with pytest.raises(SingularBlockError, match=r"Sigma\[kept, kept\]: bootstrap "
                           r"resample 5 of 6 from a window of 7 samples in dim 4 \(4 coord"):
            thresholds_from_bootstrap(samples, all_bus_pairs(layout), layout, n_boot=6,
                                      seed=2)
    assert stack_failed == [True, False]
