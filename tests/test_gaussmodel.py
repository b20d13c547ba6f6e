"""Gaussian machinery: stacking layout, model-from-topology construction,
densities, KL, Schur conditioning and the windowed post-change estimator.

The conditional-independence property is tested in its corrected form: with
independent injections, two buses are conditionally independent given all
others exactly when they are non-adjacent AND share no non-slack neighbour
(the voltage precision matrix fills in at two hops).  Slack-incident pairs
carry no signal because the slack voltage is pinned.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gridwatch.gaussmodel import (
    CoordinateLayout,
    GaussianModel,
    GeometricPrior,
    _tril_inverse,
    complex_to_real_cov,
    estimate_post_outage,
    estimate_windows,
    kl_divergence,
    log_density,
    log_density_stack,
    model_from_topology,
    ridge_epsilon,
    score_pairs,
)
from gridwatch.grid import (
    Branch,
    GridTopology,
    SingularBlockError,
    apply_outage,
    bundled_feeders,
    load_feeder,
)
from gridwatch.simgen import Scenario, generate
from oracles import conditional_corr, conditional_cov, sample, validate_psd


def random_model(rng, d, mean_scale=1.0):
    a = rng.normal(size=(d, d))
    return GaussianModel(mean_scale * rng.normal(size=d), a @ a.T + np.eye(d))


# --- layout and stacking --------------------------------------------------------

def test_layout_order_re_then_im():
    lay = CoordinateLayout.from_kinds({1: "phasor", 2: "magnitude", 3: "phasor"})
    assert lay.entries == ((1, "re"), (2, "re"), (3, "re"), (1, "im"), (3, "im"))
    assert lay.bus_coords[2] == (1,)
    assert lay.bus_coords[3] == (2, 4)


def test_layout_indices_in_parent():
    full = CoordinateLayout.full_phasor(3)
    sub = CoordinateLayout.from_kinds({1: "magnitude", 3: "phasor"})
    np.testing.assert_array_equal(sub.indices_in(full), [0, 2, 5])
    with pytest.raises(KeyError):
        CoordinateLayout.from_kinds({4: "phasor"}).indices_in(full)


def test_complex_to_real_cov_matches_sampling(rng):
    # proper complex z = A w with w circular: check all four real blocks
    m = 3
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    n = 200_000
    w = (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))) / np.sqrt(2)
    z = w @ a.T
    sigma_c = a @ a.conj().T
    stacked = np.hstack([z.real, z.imag])
    emp = np.cov(stacked.T, ddof=0)
    assert np.abs(emp - complex_to_real_cov(sigma_c)).max() < 0.05


# --- model_from_topology ---------------------------------------------------------

def test_two_bus_unit_variance():
    top = GridTopology(2, (Branch(1, 2, 1 + 0j),))
    m = model_from_topology(top, 1.0, 0.0)
    # complex variance of bus 2 is 1: re and im carry half each
    c2 = m.layout.bus_coords[2]
    assert sum(m.cov[c, c] for c in c2) == pytest.approx(1.0, abs=1e-14)
    assert all(m.cov[c, c] == pytest.approx(0.5) for c in c2)
    for c in m.layout.bus_coords[1]:
        assert m.cov[c, c] == 0.0


def test_empty_outage_keeps_covariance(loop8):
    a = model_from_topology(loop8, 1.0, 1e-6)
    b = model_from_topology(apply_outage(loop8, set()), 1.0, 1e-6)
    assert np.array_equal(a.cov, b.cov)


def test_dead_island_coordinates_noise_only(path3):
    noise = 1e-6
    post = apply_outage(path3, {(1, 2)})  # buses 2 and 3 go dead
    m = model_from_topology(post, 1.0, noise)
    for bus in (2, 3):
        for c in m.layout.bus_coords[bus]:
            assert m.cov[c, c] == pytest.approx(noise)
            row = np.delete(m.cov[c], c)
            assert np.abs(row).max() == 0.0


def test_partial_island_keeps_energized_bus(path3):
    noise = 1e-6
    m = model_from_topology(apply_outage(path3, {(2, 3)}), 1.0, noise)
    for c in m.layout.bus_coords[3]:
        assert m.cov[c, c] == pytest.approx(noise)
    assert max(m.cov[c, c] for c in m.layout.bus_coords[2]) > 100 * noise


def test_der_island_keeps_local_model(path3):
    top = GridTopology(3, path3.branches, der_buses=frozenset({3}))
    m = model_from_topology(apply_outage(top, {(1, 2)}), 1.0, 1e-9)
    # island {2, 3} grounded at DER bus 3: bus 2 stays driven, bus 3 pinned
    assert max(m.cov[c, c] for c in m.layout.bus_coords[2]) > 1e-3
    assert max(m.cov[c, c] for c in m.layout.bus_coords[3]) == pytest.approx(1e-9)


def test_singular_component_raises():
    # Slack-connected triangle whose grounded 2x2 block is exactly singular:
    # (y12 + y23)(y13 + y23) == y23^2 with y12=1, y23=1, y13=-1/2.
    top = GridTopology(3, (Branch(1, 2, 1 + 0j), Branch(2, 3, 1 + 0j),
                           Branch(1, 3, -0.5 + 0j)))
    with pytest.raises(SingularBlockError, match="component"):
        model_from_topology(top, 1.0, 0.0)


def test_out_of_range_injection_bus_rejected_by_model_and_simulator(loop8):
    with pytest.raises(ValueError, match="injection bus 99 outside 1..8"):
        model_from_topology(loop8, {99: 1.0}, 0.0)
    with pytest.raises(ValueError, match="injection bus 99 outside 1..8"):
        generate(Scenario(loop8, injection_variance={99: 1.0}, horizon=5))


# --- log density -----------------------------------------------------------------

def test_log_density_standard_normal_at_zero():
    m = GaussianModel([0.0], [[1.0]])
    assert log_density(m, [0.0]) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)


def test_log_density_at_mean_is_half_logdet():
    rng = np.random.default_rng(5)
    m = random_model(rng, 4)
    expected = -0.5 * math.log(np.linalg.det(2 * math.pi * m.cov))
    assert log_density(m, m.mean) == pytest.approx(expected, rel=1e-12)


def test_log_density_matches_naive_formula(rng):
    m = random_model(rng, 3)
    x = rng.normal(size=(20, 3))
    inv = np.linalg.inv(m.cov)
    logdet = math.log(np.linalg.det(2 * math.pi * m.cov))
    dev = x - m.mean
    naive = -0.5 * (np.einsum("ij,jk,ik->i", dev, inv, dev) + logdet)
    got = log_density(m, x)
    assert np.abs(got - naive).max() < 1e-10


@pytest.mark.parametrize("d", [1, 2, 31, 32, 33, 70, 180])
def test_tril_inverse_whitens_like_a_triangular_solve(d):
    # eigenvalues spread over 1e-8..1: the factor's condition number is 1e4
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    chol = np.linalg.cholesky((q * np.logspace(0, -8, d)) @ q.T)
    whiten = _tril_inverse(chol)
    assert np.array_equal(whiten, np.tril(whiten))
    b = rng.normal(size=(d, 8))
    solved = scipy.linalg.solve_triangular(chol, b, lower=True)
    quad_ref = (solved * solved).sum(axis=0)
    white = whiten @ b
    assert np.abs((white * white).sum(axis=0) - quad_ref).max() < 1e-12 * quad_ref.min()


def test_log_density_of_non_finite_sample_is_nan_silently():
    # pytest turns a RuntimeWarning into an error (pyproject filterwarnings)
    m = random_model(np.random.default_rng(3), 3)
    got = log_density(m, [[np.nan, 0.0, 0.0], [np.inf, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert not np.isfinite(got[:2]).any() and np.isfinite(got[2])


ROW_KINDS = ("finite", "nan", "inf", "-inf", "overflow")


def check_bordered_stack(rng, d, psd, rows):
    """log_density_stack of one stack against log_density per model: psd[s]
    gives covariance s a coordinate of zero variance (the ridge path), rows[s]
    is the kind of its sample.  Each matrix must also give the same bits as
    a stack of one."""
    stack = len(rows)
    a = rng.normal(size=(stack, d, d))
    covs = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d)
    for s in np.flatnonzero(psd):
        k = rng.integers(d)
        covs[s, k, :] = covs[s, :, k] = 0.0
    means = rng.normal(size=(stack, d))
    x = means + 2.0 * rng.normal(size=(stack, d))
    for s, kind in enumerate(rows):
        if kind == "overflow":  # finite, but |L^-1 (x - mean)|^2 > 1.8e308
            x[s] = means[s] + 1e200
        elif kind != "finite":
            x[s, rng.integers(d)] = float(kind)
    got = log_density_stack(means, covs, x)
    for s, kind in enumerate(rows):
        one = log_density_stack(means[s:s + 1], covs[s:s + 1], x[s:s + 1])
        assert one.tobytes() == got[s:s + 1].tobytes()
        if kind == "overflow":
            assert got[s] == -math.inf
        elif kind != "finite":
            assert math.isnan(got[s])
        else:
            want = log_density(GaussianModel(means[s], covs[s]), x[s])
            assert got[s] == pytest.approx(want, rel=1e-12)


@settings(max_examples=80)
@given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.booleans(), st.sampled_from(ROW_KINDS)), min_size=1,
                max_size=6))
def test_bordered_stack_matches_one_model_at_a_time(d, seed, matrices):
    psd, rows = zip(*matrices)
    check_bordered_stack(np.random.default_rng(seed), d, psd, rows)


def test_bordered_stack_past_the_blas_blocking():
    # a factor of 182 rows crosses OpenBLAS's blocking of potrf
    check_bordered_stack(np.random.default_rng(181), 181, [False, True, False],
                         ["finite", "finite", "overflow"])


def test_log_density_dimension_mismatch():
    m = GaussianModel([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        log_density(m, [1.0, 2.0, 3.0])


def test_density_integrates_to_one_1d():
    m = GaussianModel([0.7], [[2.3]])
    total, _ = quad(lambda x: math.exp(log_density(m, [x])), -40, 40)
    assert total == pytest.approx(1.0, rel=1e-6)


def test_density_integrates_to_one_3d_importance(rng):
    m = random_model(rng, 3)
    q = GaussianModel(m.mean, 4.0 * m.cov)
    x = sample(q, 200_000, rng)
    w = np.exp(log_density(m, x) - log_density(q, x))
    assert w.mean() == pytest.approx(1.0, rel=0.01)


# --- KL divergence ----------------------------------------------------------------

def test_kl_zero_iff_equal(rng):
    m = random_model(rng, 4)
    other = GaussianModel(m.mean.copy(), m.cov.copy())
    assert kl_divergence(m, other) <= 1e-10
    shifted = GaussianModel(m.mean + 0.1, m.cov)
    assert kl_divergence(m, shifted) > 1e-4


def test_kl_unit_mean_shift_is_half():
    f = GaussianModel([0.0], [[1.0]])
    g = GaussianModel([1.0], [[1.0]])
    assert kl_divergence(f, g) == pytest.approx(0.5, abs=1e-14)


def test_kl_matches_numeric_integration():
    f = GaussianModel([0.3], [[0.8]])
    g = GaussianModel([-0.5], [[1.7]])
    integrand = lambda x: math.exp(log_density(f, [x])) * (
        log_density(f, [x]) - log_density(g, [x]))
    expected, _ = quad(integrand, -30, 30)
    assert kl_divergence(f, g) == pytest.approx(expected, rel=1e-8)


def test_kl_asymmetric_for_unequal_variances():
    f = GaussianModel([0.0], [[1.0]])
    g = GaussianModel([0.0], [[4.0]])
    assert kl_divergence(f, g) != pytest.approx(kl_divergence(g, f), rel=1e-3)


@pytest.mark.parametrize("feeder, outage", [("loop8", (7, 8)), ("loop12", (8, 10))])
def test_kl_continuous_at_zero_noise(feeder, outage):
    # at zero noise the slack coordinates have zero variance in both models:
    # they add nothing, as they do at a vanishing noise
    def kl(noise):
        scenario = Scenario(topology=load_feeder(feeder), out_branches=(outage,),
                            lam=1, horizon=2, noise_variance=noise)
        return kl_divergence(scenario.post_model(), scenario.pre_model())

    assert kl(0.0) == pytest.approx(kl(1e-12), rel=1e-6)


def test_kl_zero_variance_coordinates():
    # a coordinate of zero variance in both models adds 0, or infinity when
    # the means differ there
    f = GaussianModel([0.3, 2.0], [[0.8, 0.0], [0.0, 0.0]])
    g = GaussianModel([-0.5, 2.0], [[1.7, 0.0], [0.0, 0.0]])
    one = kl_divergence(GaussianModel([0.3], [[0.8]]), GaussianModel([-0.5], [[1.7]]))
    assert kl_divergence(f, g) == one
    assert kl_divergence(f, GaussianModel([-0.5, 2.5], g.cov)) == math.inf


def test_kl_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        kl_divergence(GaussianModel([0.0], [[1.0]]), GaussianModel([0, 0], np.eye(2)))


# --- conditioning -----------------------------------------------------------------

def test_conditional_cov_frozen_example():
    sigma = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    got = conditional_cov(sigma, [0, 1], [2])
    assert np.allclose(got, [[2.0, 1.0], [1.0, 1.5]], atol=1e-14)


def test_conditional_cov_block_diagonal_unchanged():
    sigma = np.diag([1.0, 2.0, 3.0, 4.0])
    sigma[0, 1] = sigma[1, 0] = 0.5
    got = conditional_cov(sigma, [0, 1], [2, 3])
    assert np.array_equal(got, sigma[:2, :2])


def test_conditional_cov_symmetric_psd_property(rng):
    for _ in range(20):
        m = random_model(rng, 6)
        got = conditional_cov(m.cov, [0, 3], [1, 2, 4, 5])
        assert np.abs(got - got.T).max() < 1e-12
        assert np.linalg.eigvalsh(got).min() > -1e-9


def test_conditional_cov_monte_carlo_oracle(rng):
    m = random_model(rng, 4, mean_scale=0.0)
    x = sample(m, 200_000, rng)
    xi, xj = x[:, :2], x[:, 2:]
    beta, *_ = np.linalg.lstsq(xj, xi, rcond=None)
    resid = xi - xj @ beta
    emp = np.cov(resid.T, ddof=0)
    got = conditional_cov(m.cov, [0, 1], [2, 3])
    assert np.abs(emp - got).max() / np.abs(got).max() < 0.03


def test_conditional_cov_singular_block_error():
    sigma = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]])
    with pytest.raises(SingularBlockError, match="Sigma"):
        conditional_cov(sigma, [0], [1, 2])


def test_conditional_corr_self_pair_is_one(loop8):
    m = model_from_topology(loop8, 1.0, 1e-9)
    assert conditional_corr(m.cov, 4, 4, m.layout) == 1.0


def test_conditional_corr_degenerate_scores_zero():
    lay = CoordinateLayout.from_kinds({1: "magnitude", 2: "magnitude", 3: "magnitude"})
    sigma = np.diag([0.0, 1.0, 1.0])
    scores, degenerate = score_pairs(sigma, [(1, 2)], lay)
    assert scores.tolist() == [0.0] and degenerate.tolist() == [True]


def _grounded_two_hop_free(top, i, j):
    adj = top.adjacency()
    return j not in adj[i] and not (adj[i] & adj[j]) - top.slack


def test_conditional_independence_structure_all_feeders():
    # Corrected conditional-independence property: exact zeros at grounded
    # distance >= 3, clearly nonzero on (non-slack) branches.
    for top in bundled_feeders():
        m = model_from_topology(top, 1.0, 0.0)
        adj = top.adjacency()
        for i, j in itertools.combinations(range(1, top.bus_count + 1), 2):
            if i in top.slack or j in top.slack:
                continue
            score = conditional_corr(m.cov, i, j, m.layout)
            if j in adj[i]:
                assert score > 1e-3, f"{top.name}: branch pair {(i, j)} score {score}"
            elif _grounded_two_hop_free(top, i, j):
                assert score < 1e-8, f"{top.name}: distant pair {(i, j)} score {score}"


def test_disconnected_pair_scores_zero_after_outage(loop8):
    m = model_from_topology(apply_outage(loop8, {(3, 4)}), 1.0, 0.0)
    assert conditional_corr(m.cov, 3, 4, m.layout) < 1e-8


# --- post-change estimation --------------------------------------------------------

def brute_force_estimate(window, weights):
    """Literal double-sum evaluation of the estimator formulas."""
    x = np.asarray(window, dtype=float)
    n, d = x.shape
    denom = sum(weights[k - 1] * (n - k + 1) for k in range(1, n + 1))
    mu = np.zeros(d)
    for k in range(1, n + 1):
        mu += weights[k - 1] * x[k - 1:].sum(axis=0)
    mu /= denom
    sig = np.zeros((d, d))
    for k in range(1, n + 1):
        for t in range(k - 1, n):
            dev = x[t] - mu
            sig += weights[k - 1] * np.outer(dev, dev)
    return mu, sig / denom


def first_position_estimate(x):
    """estimate_windows with all prior mass at window position 1: every
    cumulative weight is 1 and the denominator n."""
    n = x.shape[0]
    mu, cov = estimate_windows(x[None] - x[None, -1:], x[None, -1], np.ones((1, n)),
                               np.array([float(n)]), ridge=0.0)
    return mu[0], cov[0]


def test_estimator_mass_at_first_position_collapses_to_mle(rng):
    x = rng.normal(size=(12, 3))
    mean, cov = first_position_estimate(x)
    np.testing.assert_allclose(mean, x.mean(axis=0), atol=1e-15)
    np.testing.assert_allclose(cov, np.cov(x.T, ddof=0), atol=1e-14)


def test_estimator_constant_window_gives_ridge_identity():
    x = np.full((6, 2), 3.5)
    est = estimate_post_outage(x, GeometricPrior(0.3))
    np.testing.assert_allclose(est.mean, [3.5, 3.5], atol=1e-14)
    eps = ridge_epsilon(np.zeros((2, 2)))
    np.testing.assert_allclose(est.cov, eps * np.eye(2), atol=1e-20)


def test_estimator_hand_evaluated_geometric_case():
    # N=3, rho=0.5, scalar data 1,2,3: mu = 37/17, sigma = 3026/4913
    est = estimate_post_outage(np.array([[1.0], [2.0], [3.0]]),
                               GeometricPrior(0.5), ridge=0.0)
    assert est.mean[0] == pytest.approx(37 / 17, abs=1e-12)
    assert est.cov[0, 0] == pytest.approx(3026 / 4913, abs=1e-12)


def test_estimator_matches_brute_force(rng):
    for trial in range(50):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        rho = float(rng.uniform(0.05, 0.95))
        prior = GeometricPrior(rho)
        est = estimate_post_outage(x, prior, ridge=0.0)
        mu, sig = brute_force_estimate(x, prior.weights(n))
        assert np.abs(est.mean - mu).max() < 1e-12
        assert np.abs(est.cov - sig).max() < 1e-12


def test_estimator_consistency_rate(rng):
    truth = random_model(rng, 3)
    errs = {n: [] for n in (100, 1000, 10000)}
    for seed in range(20):
        local = np.random.default_rng(seed)
        x = sample(truth, 10000, local)
        for n in errs:
            mean, cov = first_position_estimate(x[:n])  # change known to sit at the start
            errs[n].append(np.linalg.norm(mean - truth.mean) +
                           np.linalg.norm(cov - truth.cov))
    med = [np.median(errs[n]) for n in (100, 1000, 10000)]
    assert med[0] > med[1] > med[2], f"medians not shrinking: {med}"


def test_estimator_input_validation():
    with pytest.raises(ValueError, match="at least 2"):
        estimate_post_outage(np.ones((1, 2)), GeometricPrior(0.5))
    with pytest.raises(ValueError, match="rho"):
        GeometricPrior(1.0)


# --- model validation ----------------------------------------------------------------

def test_model_rejects_asymmetric_covariance():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianModel([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])


def test_model_psd_validation():
    m = GaussianModel([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    validate_psd(m)
    bad = GaussianModel([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="PSD floor"):
        validate_psd(bad)
