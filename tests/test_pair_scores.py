"""Pair scoring from the precision matrix, checked against per-pair Schur
complements (conditional_cov) on bundled and random feeders, exact and noisy
covariances, dead and DER islands, and phasor, magnitude and mixed layouts;
and the array scorer over covariance stacks checked bit for bit against the
per-pair scorer of one covariance (score_pairs_per_pair); a singular pair
block is a named error."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gridwatch.experiments import correlation_matrix
from gridwatch.gaussmodel import (
    MAGNITUDE,
    PHASOR,
    CoordinateLayout,
    model_from_topology,
    score_pairs,
)
from gridwatch.grid import (
    SingularBlockError,
    TopologyError,
    apply_outage,
    bundled_feeders,
    random_feeder,
)
from gridwatch.localizer import all_bus_pairs, scan_pairs
from oracles import conditional_cov, score_pairs_per_pair

TOL = 1e-10


def schur_pair(sigma, i, j, layout):
    """(score, degenerate) of one pair from its Schur complement given the rest."""
    if i == j:
        return 1.0, False
    ci, cj = layout.bus_coords[i], layout.bus_coords[j]
    pair = list(ci) + list(cj)
    block = conditional_cov(sigma, pair, [k for k in range(layout.dim) if k not in pair])
    var = np.diag(block)
    if np.any(var <= 1e-14 * max(float(np.diag(sigma).max()), 1.0)):
        return 0.0, True
    ni = len(ci)
    return float(np.abs(block[:ni, ni:] / np.sqrt(np.outer(var[:ni], var[ni:]))).max()), False


def assert_matches_schur(sigma, pairs, layout):
    scores, degenerate = score_pairs(sigma, pairs, layout)
    ref = [schur_pair(sigma, i, j, layout) for i, j in pairs]
    assert degenerate.tolist() == [d for _, d in ref]
    if pairs:
        assert np.abs(scores - [s for s, _ in ref]).max() <= TOL


def schur_scan_skips(sigma0, sigma1, pairs, layout, noise_floor):
    """Skipped (degenerate or noise-floor) pairs by the per-pair rules."""
    skipped = set()
    for i, j in pairs:
        if schur_pair(sigma0, i, j, layout)[1] or schur_pair(sigma1, i, j, layout)[1]:
            skipped.add((i, j))
        elif all(max(sigma1[c, c] for c in layout.bus_coords[b]) <= 4.0 * noise_floor
                 for b in (i, j)):
            skipped.add((i, j))
    return skipped


@pytest.mark.parametrize("noise", [0.0, 1e-8])
def test_bundled_feeders_every_single_outage_match_schur(noise):
    for top in bundled_feeders():
        layout = CoordinateLayout.full_phasor(top.bus_count)
        pairs = all_bus_pairs(layout)
        g = model_from_topology(top, 1.0, noise)
        assert_matches_schur(g.cov, pairs, layout)
        for branch in top.branches:
            f = model_from_topology(apply_outage(top, {branch.pair}), 1.0, noise)
            assert_matches_schur(f.cov, pairs, layout)
            if noise > 0:
                report = scan_pairs(g.cov, f.cov, pairs, layout, noise_floor=noise)
                assert {s.pair for s in report.skipped()} == schur_scan_skips(
                    g.cov, f.cov, pairs, layout, noise)


@pytest.mark.parametrize("seed", [3, 6, 14])
def test_random90_heatmap_feeders_match_schur(seed):
    # the heatmap benchmark's feeders: the branches around the out branch and
    # a spread of other pairs (a per-pair Schur complement at d=180 is slow)
    top = random_feeder(90, 5, seed)
    layout = CoordinateLayout.full_phasor(90)
    out = top.branches[89].pair
    near = top.adjacency()[out[0]] | top.adjacency()[out[1]] | set(out)
    pairs = sorted({br.pair for br in top.branches if {br.from_bus, br.to_bus} & near}
                   | set(all_bus_pairs(layout)[::400]))
    for noise in (1e-8, 0.0):
        f = model_from_topology(apply_outage(top, {out}), 1.0, noise)
        assert_matches_schur(f.cov, pairs, layout)


@st.composite
def feeder_cases(draw):
    m = draw(st.integers(6, 40))
    loops = draw(st.integers(0, max(1, m // 8)))
    seed = draw(st.integers(0, 10_000))
    der = draw(st.sets(st.integers(2, m), max_size=1))
    try:
        top = random_feeder(m, loops, seed, der_buses=der)
    except TopologyError:
        assume(False)
    # tree branches out disconnect subtrees: dead islands, or DER islands
    out = draw(st.sets(st.sampled_from([br.pair for br in top.branches]), max_size=3))
    noise = draw(st.sampled_from([0.0, 1e-8, 1e-4]))
    kinds = draw(st.sampled_from(["phasor", "magnitude", "mixed"]))
    if kinds == "mixed":
        flags = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    else:
        flags = [kinds == "phasor"] * m
    layout = CoordinateLayout.from_kinds(
        {b: PHASOR if flags[b - 1] else MAGNITUDE for b in range(1, m + 1)})
    return apply_outage(top, out), noise, layout


@settings(max_examples=40,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(feeder_cases())
def test_engine_matches_schur_on_random_feeders(case):
    topology, noise, layout = case
    model = model_from_topology(topology, 1.0, noise).project(layout)
    assert_matches_schur(model.cov, all_bus_pairs(layout), layout)


def test_self_pair_scores_one_and_empty_pairs():
    layout = CoordinateLayout.from_kinds({1: PHASOR, 2: MAGNITUDE})
    scores, degenerate = score_pairs(np.eye(3), [(2, 2), (1, 1)], layout)
    assert scores.tolist() == [1.0, 1.0] and not degenerate.any()
    scores, degenerate = score_pairs(np.eye(3), [], layout)
    assert scores.shape == degenerate.shape == (0,)


def test_singular_kept_block_raises():
    # coordinates 2 and 3 are identical: every diagonal entry is nonzero, so
    # nothing is dropped, and the kept block is singular
    layout = CoordinateLayout.from_kinds({1: MAGNITUDE, 2: MAGNITUDE, 3: MAGNITUDE})
    sigma = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]])
    with pytest.raises(SingularBlockError, match="kept"):
        score_pairs(sigma, [(1, 2)], layout)
    with pytest.raises(SingularBlockError, match="kept"):
        correlation_matrix(sigma, layout)


def test_correlation_matrix_scatters_symmetric_scores(loop8):
    model = model_from_topology(loop8, 1.0, 1e-8)
    matrix = correlation_matrix(model.cov, model.layout)
    assert np.array_equal(matrix, matrix.T) and np.all(np.diag(matrix) == 1.0)
    pairs = all_bus_pairs(model.layout)
    scores, _ = score_pairs(model.cov, pairs, model.layout)
    assert [matrix[i - 1, j - 1] for i, j in pairs] == scores.tolist()


@st.composite
def stack_cases(draw):
    # up to 48 coordinates: kept blocks above 32 rows take _tril_inverse's
    # block recursion
    m = draw(st.integers(1, 24))
    flags = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    layout = CoordinateLayout.from_kinds(
        {b: PHASOR if flags[b - 1] else MAGNITUDE for b in range(1, m + 1)})
    d = layout.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    covs = []
    for _ in range(draw(st.integers(1, 5))):
        x = rng.normal(size=(d + 3, d)) * rng.uniform(0.1, 10.0, size=d)
        kind = draw(st.sampled_from(["plain"] * 4 + ["zero_variance"] * 3
                                    + ["near_dependent", "singular"]))
        if kind == "near_dependent" and d > 1:
            # a coordinate within 1e-9 of a combination of the others: its
            # pairs sit at the conditional-variance floor, or its kept
            # block fails Cholesky
            x[:, 0] = x[:, 1:] @ rng.normal(size=d - 1) + 1e-9 * rng.normal(size=d + 3)
        elif kind == "singular" and d > 1:
            x[:, 0] = x[:, 1]
        cov = x.T @ x / (d + 3)
        if kind == "zero_variance":
            # dropped coordinates in this covariance of the stack only
            dead = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=2))
            cov[list(dead)] = 0.0
            cov[:, list(dead)] = 0.0
        covs.append(cov)
    buses = st.integers(1, m)
    pairs = draw(st.lists(st.tuples(buses, buses), min_size=1, max_size=30))
    if draw(st.booleans()):
        pairs += pairs[:3]  # duplicates
    if draw(st.sampled_from([False] * 9 + [True])):
        pairs = []
    if draw(st.sampled_from([False] * 7 + [True])):
        unknown = sorted(draw(st.sets(st.sampled_from([-2, 0, m + 1, m + 3]), min_size=1,
                                      max_size=2)))
        pairs = ([(unknown[0], 1)] + pairs if draw(st.booleans())
                 else pairs + [(1, bus) for bus in unknown])
    return np.stack(covs), pairs, layout, draw(st.booleans())


def _outcome(score, *args):
    try:
        return score(*args)
    except (KeyError, SingularBlockError) as exc:
        return exc


def _same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist()


@settings(max_examples=200,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(stack_cases())
def test_stack_scorer_matches_per_pair_oracle_bit_for_bit(case):
    covs, pairs, layout, as_array = case
    given_pairs = np.array(pairs, dtype=int).reshape(-1, 2) if as_array else pairs
    want = [_outcome(score_pairs_per_pair, cov, pairs, layout) for cov in covs]
    for cov, expected in zip(covs, want):
        _same_outcome(_outcome(score_pairs, cov, given_pairs, layout), expected)
    got = _outcome(score_pairs, covs, given_pairs, layout)
    errors = [w for w in want if isinstance(w, Exception)]
    if any(isinstance(w, KeyError) for w in errors):
        _same_outcome(got, errors[0])
    elif errors:
        # a stack names no covariance: it raises when some member does
        assert isinstance(got, SingularBlockError), got
    else:
        assert got[0].shape == got[1].shape == (len(covs), len(pairs))
        _same_outcome(got, (np.stack([w[0] for w in want]), np.stack([w[1] for w in want])))


def test_random90_stack_matches_per_pair_oracle_bit_for_bit():
    # the heatmap benchmark's feeder at d = 180: pre and post covariances,
    # with and without the slack coordinates dropped, as one stack
    top = random_feeder(90, 5, 43)
    layout = CoordinateLayout.full_phasor(90)
    post = apply_outage(top, {top.branches[89].pair})
    covs = np.stack([model_from_topology(t, 1.0, noise).cov
                     for t in (top, post) for noise in (1e-8, 0.0)])
    pairs = all_bus_pairs(layout)
    scores, degenerate = score_pairs(covs, np.array(pairs), layout)
    for cov, got, flags in zip(covs, scores, degenerate):
        want, want_flags = score_pairs_per_pair(cov, pairs, layout)
        assert got.tobytes() == want.tobytes() and flags.tolist() == want_flags.tolist()


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
