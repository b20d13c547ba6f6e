"""Reference implementations the package is tested against.

Only tests use these: the direct posterior sum over change positions (the
oracle of the detector's recursion) and the Schur conditional covariance
(the oracle of score_pairs).  They lean on scipy, which the package itself
does not import.
"""

import math

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from gridwatch.detector import GeometricPrior
from gridwatch.gaussmodel import GaussianModel, log_density
from gridwatch.grid import SingularBlockError


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
