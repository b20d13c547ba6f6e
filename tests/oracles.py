"""Reference implementations the package is tested against.

Only tests use these: the one-step log-odds recursion and the direct
posterior sum over change positions (the oracles of the detector's
recursion), the Schur conditional covariance and the per-pair scorer of one
covariance (the oracles of score_pairs) and the Kron reduction of an
admittance matrix (the oracle of grid.transfer).  Then small helpers that
only tests call: the score of one bus pair, a PSD check of a model's
covariance, a topology's in-service pairs, an all-magnitude sensor schedule
and a forced fork setting that counts the forked calls.
They lean on scipy, which the package itself does not import.
"""

import contextlib
import math
import threading

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from gridwatch import forking
from gridwatch.detector import LOG_ODDS_CLAMP, GeometricPrior, NonFiniteLikelihoodError
from gridwatch.gaussmodel import (
    MAGNITUDE,
    CoordinateLayout,
    GaussianModel,
    _tril_inverse,
    log_density,
    score_pairs,
)
from gridwatch.grid import GridTopology, SingularBlockError, TopologyError
from gridwatch.simgen import SensorSchedule


def advance_log_odds(log_odds: float, log_lr: float, rho: float) -> float:
    """One recursion step in log domain, clamped to +-700.

    Raises NonFiniteLikelihoodError when log_lr is not finite.
    """
    if not math.isfinite(log_lr):
        raise NonFiniteLikelihoodError(f"log-likelihood ratio is {log_lr}: "
                                       "non-finite sample")
    a, b = log_odds, math.log(rho)
    if a < b:
        a, b = b, a
    out = log_lr + (a + math.log1p(math.exp(b - a))) - math.log1p(-rho)
    return max(-LOG_ODDS_CLAMP, min(LOG_ODDS_CLAMP, out))


def posterior_direct(g: GaussianModel, f: GaussianModel, prior: GeometricPrior,
                     data) -> float:
    """P(change <= N | data) by the direct weighted sum over change positions.

    O(N) per evaluation; the reference the recursion is tested against.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n = data.shape[0]
    if n < 1:
        raise ValueError("need at least one observation")
    log_g = np.atleast_1d(log_density(g, data))
    log_f = np.atleast_1d(log_density(f, data))
    cum_g = np.concatenate([[0.0], np.cumsum(log_g)])      # sum over first k terms
    suf_f = np.concatenate([np.cumsum(log_f[::-1])[::-1], [0.0]])  # sum over tail
    k = np.arange(1, n + 1)
    log_pi = math.log(prior.rho) + (k - 1) * math.log1p(-prior.rho)
    change_terms = log_pi + cum_g[0:n] + suf_f[0:n]
    tail = n * math.log1p(-prior.rho) + cum_g[n]
    log_num = logsumexp(change_terms)
    log_den = logsumexp(np.append(change_terms, tail))
    return float(np.exp(log_num - log_den))


def conditional_cov(sigma: np.ndarray, I: list[int], J: list[int]) -> np.ndarray:
    """Schur complement Sigma_II - Sigma_IJ Sigma_JJ^-1 Sigma_JI.

    Deterministic (exactly zero-variance) coordinates in J are dropped: they
    carry no information and would otherwise make the block singular.
    """
    sigma = np.asarray(sigma, dtype=float)
    I = list(I)
    J = list(J)
    s_ii = sigma[np.ix_(I, I)]
    if not J:
        return s_ii.copy()
    diag = np.diag(sigma)
    scale = float(diag.max(initial=0.0))
    J = [j for j in J if diag[j] > 1e-15 * max(scale, 1.0)]
    if not J:
        return s_ii.copy()
    s_ij = sigma[np.ix_(I, J)]
    s_jj = sigma[np.ix_(J, J)]
    try:
        chol = np.linalg.cholesky(s_jj)
    except np.linalg.LinAlgError:
        raise SingularBlockError("Sigma[J, J]", f"conditioning set of size {len(J)}") from None
    half = scipy.linalg.solve_triangular(chol, s_ij.T, lower=True, check_finite=False)
    return s_ii - half.T @ half


def score_pairs_per_pair(sigma: np.ndarray, pairs,
                         layout: CoordinateLayout) -> tuple[np.ndarray, np.ndarray]:
    """score_pairs of one (d, d) covariance, pair by pair: a Python loop
    groups the pairs by block shape, gathers each pair's coordinates from
    layout.bus_coords and inverts the groups' pair blocks of the precision
    in stacks of at most 256.  Same rules and errors as score_pairs, whose
    arithmetic on each matrix it repeats step for step."""
    sigma = np.asarray(sigma, dtype=float)
    pairs = [tuple(pair) for pair in pairs]
    table = layout.bus_coords
    unknown = {bus for pair in pairs for bus in pair} - table.keys()
    if unknown:
        raise KeyError(f"bus {min(unknown)} has no coordinates in this layout")
    scores = np.array([float(i == j) for i, j in pairs])
    degenerate = np.zeros(len(pairs), dtype=bool)
    scale = max(float(np.diag(sigma).max(initial=0.0)), 1.0)
    kept = np.diag(sigma) > 1e-15 * scale
    kept_bus = {bus: bool(kept[list(c)].all()) for bus, c in table.items()}
    groups: dict[tuple[int, int], list[int]] = {}
    for p, (i, j) in enumerate(pairs):
        if i == j:
            continue
        if kept_bus[i] and kept_bus[j]:
            groups.setdefault((len(table[i]), len(table[j])), []).append(p)
        else:
            degenerate[p] = True
    if not groups:
        return scores, degenerate
    idx = np.flatnonzero(kept)
    try:
        chol = np.linalg.cholesky(sigma[np.ix_(idx, idx)])
    except np.linalg.LinAlgError:
        raise SingularBlockError("Sigma[kept, kept]",
                                 f"{idx.size} coordinates of nonzero variance") from None
    whiten = _tril_inverse(chol)
    precision = whiten.T @ whiten
    position = np.cumsum(kept) - 1  # of each kept coordinate in the kept block
    for (ni, _), members in groups.items():
        for start in range(0, len(members), 256):
            batch = np.array(members[start:start + 256])
            at = position[[table[pairs[p][0]] + table[pairs[p][1]] for p in batch]]
            try:
                cond = np.linalg.inv(precision[at[:, :, None], at[:, None, :]])
            except np.linalg.LinAlgError:
                raise SingularBlockError("Lambda[pair, pair]", f"a pair block of the "
                                         f"precision of {kept.sum()} coordinates") from None
            var = np.diagonal(cond, axis1=1, axis2=2)
            live = (var > 1e-14 * scale).all(axis=1)
            cross = np.abs(cond[live, :ni, ni:])
            cross /= np.sqrt(var[live, :ni, None] * var[live, None, ni:])
            scores[batch[live]] = cross.max(axis=(1, 2))
            degenerate[batch[~live]] = True
    return scores, degenerate


def kron_reduce(Y: np.ndarray, keep) -> np.ndarray:
    """Eliminate the rows and columns of the admittance array Y outside the
    indices keep by the Schur complement; the result is over sorted(keep).

    The result satisfies I_A = Y_red V_A for any voltage/current solution of
    the full network with zero injections at the eliminated indices.
    """
    a = sorted(keep)
    if not set(a) <= set(range(Y.shape[0])):
        raise TopologyError(f"keep set references unknown indices "
                            f"{sorted(set(a) - set(range(Y.shape[0])))}")
    b = [k for k in range(Y.shape[0]) if k not in keep]
    Yaa = Y[np.ix_(a, a)]
    if not b:
        return Yaa
    Yab = Y[np.ix_(a, b)]
    Yba = Y[np.ix_(b, a)]
    Ybb = Y[np.ix_(b, b)]
    try:
        X = np.linalg.solve(Ybb, Yba)
    except np.linalg.LinAlgError:
        raise SingularBlockError(
            "Y[eliminated, eliminated]",
            f"indices {b} cannot be eliminated; ground one or shrink the set",
        ) from None
    if not np.all(np.isfinite(X)):
        raise SingularBlockError("Y[eliminated, eliminated]", f"indices {b}")
    return Yaa - Yab @ X


def conditional_corr(sigma: np.ndarray, i: int, j: int,
                     layout: CoordinateLayout) -> float:
    """Conditional-correlation score of one bus pair; see score_pairs."""
    return float(score_pairs(sigma, [(i, j)], layout)[0][0])


def validate_psd(model: GaussianModel, floor: float = -1e-10) -> None:
    """ValueError unless the model's covariance has no eigenvalue below the
    PSD floor, relative to its largest entry (pre-regularisation)."""
    lo = float(np.linalg.eigvalsh(model.cov).min())
    scale = max(1.0, float(np.abs(model.cov).max()))
    if lo < floor * scale:
        raise ValueError(f"covariance has eigenvalue {lo:.3e} below the PSD floor")


def in_service_pairs(topology: GridTopology) -> list[tuple[int, int]]:
    return [br.pair for br in topology.branches if br.in_service]


def all_magnitude(bus_count: int, period: int = 1) -> SensorSchedule:
    """Magnitude channels at every bus, all of one period."""
    return SensorSchedule(tuple((b, MAGNITUDE, period) for b in range(1, bus_count + 1)))


_FORKED = forking.forked


@contextlib.contextmanager
def forks_under(monkeypatch, cpus: int, other_thread: bool = False):
    """Runs the block with forking.cpus() forced to cpus and, when
    other_thread, another thread alive; yields the list that gathers the
    jobs of each forking.forked call made meanwhile."""
    monkeypatch.setattr(forking, "cpus", lambda: cpus)
    calls = []
    monkeypatch.setattr(forking, "forked", lambda *jobs: calls.append(jobs) or _FORKED(*jobs))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if other_thread:
        other.start()
    try:
        yield calls
    finally:
        release.set()
        if other_thread:
            other.join(timeout=10)
            assert not other.is_alive()
