"""Multivariate Gaussian machinery over real-stacked voltage increments.

Complex per-bus voltage increments are stacked into a real vector: first the
real parts (or the magnitude channel) of every observed bus in ascending bus
order, then the imaginary parts of the phasor buses in ascending bus order.
Magnitude channels carry one coordinate; under the small-angle linearisation
the magnitude increment of a bus equals the real part of its complex
increment, so a magnitude channel is simply the real-part coordinate with
the imaginary part unobserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridTopology, SingularBlockError, transfer

LOG_2PI = float(np.log(2.0 * np.pi))

PHASOR = "phasor"
MAGNITUDE = "magnitude"


@dataclass(frozen=True)
class CoordinateLayout:
    """Mapping between (bus, part) channels and stacked coordinates.

    entries[k] is the (bus, part) pair of coordinate k, part in {"re", "im"}.
    """

    entries: tuple[tuple[int, str], ...]

    @classmethod
    def from_kinds(cls, kinds: dict[int, str]) -> "CoordinateLayout":
        """Build from per-bus channel kinds (phasor / magnitude)."""
        buses = sorted(kinds)
        entries = [(b, "re") for b in buses]
        entries += [(b, "im") for b in buses if kinds[b] == PHASOR]
        return cls(tuple(entries))

    @classmethod
    def full_phasor(cls, bus_count: int) -> "CoordinateLayout":
        return cls.from_kinds({b: PHASOR for b in range(1, bus_count + 1)})

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def buses(self) -> tuple[int, ...]:
        return tuple(sorted({bus for bus, _ in self.entries}))

    @cached_property
    def bus_coords(self) -> dict[int, tuple[int, ...]]:
        """Coordinates of every bus, in layout order."""
        table: dict[int, tuple[int, ...]] = {}
        for k, (bus, _) in enumerate(self.entries):
            table[bus] = table.get(bus, ()) + (k,)
        return table

    def coords_of(self, bus: int) -> tuple[int, ...]:
        try:
            return self.bus_coords[bus]
        except KeyError:
            raise KeyError(f"bus {bus} has no coordinates in this layout") from None

    def indices_in(self, parent: "CoordinateLayout") -> np.ndarray:
        """Positions of this layout's channels inside a parent layout."""
        lookup = {entry: k for k, entry in enumerate(parent.entries)}
        try:
            return np.array([lookup[entry] for entry in self.entries], dtype=int)
        except KeyError as exc:
            raise KeyError(f"channel {exc.args[0]} missing from parent layout") from None

    def restrict(self, buses: set[int]) -> "CoordinateLayout":
        return CoordinateLayout(tuple(e for e in self.entries if e[0] in buses))


def complex_to_real_cov(sigma_c: np.ndarray) -> np.ndarray:
    """Real-stacked covariance of a proper complex Gaussian with E[zz^H] = S.

    Cov([Re z; Im z]) = 0.5 * [[Re S, -Im S], [Im S, Re S]].
    """
    re, im = sigma_c.real, sigma_c.imag
    return 0.5 * np.block([[re, -im], [im, re]])


class GaussianModel:
    """Mean and covariance over real-stacked coordinates.

    Treated as immutable; the Cholesky factor of the covariance is cached on
    first use (with the documented trace-scaled ridge as fall-back when the
    covariance is only PSD), and so is the factor's inverse.
    """

    def __init__(self, mean, cov, layout: CoordinateLayout | None = None):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"inconsistent shapes: mean {mean.shape}, cov {cov.shape}")
        scale = max(1.0, float(np.abs(cov).max(initial=0.0)))
        if np.abs(cov - cov.T).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("covariance is not symmetric (tolerance 1e-12)")
        if layout is not None and layout.dim != mean.size:
            raise ValueError(f"layout dim {layout.dim} != model dim {mean.size}")
        self.mean = mean
        self.cov = 0.5 * (cov + cov.T)
        self.layout = layout
        self._chol: np.ndarray | None = None
        self._logdet: float | None = None
        self._whiten: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.mean.size

    def validate_psd(self, floor: float = -1e-10) -> None:
        """Check eigenvalues are above the PSD floor (pre-regularisation)."""
        lo = float(np.linalg.eigvalsh(self.cov).min())
        scale = max(1.0, float(np.abs(self.cov).max()))
        if lo < floor * scale:
            raise ValueError(f"covariance has eigenvalue {lo:.3e} below the PSD floor")

    def marginal(self, indices) -> "GaussianModel":
        idx = np.asarray(indices, dtype=int)
        return GaussianModel(self.mean[idx], self.cov[np.ix_(idx, idx)])

    def project(self, sub_layout: CoordinateLayout) -> "GaussianModel":
        if self.layout is None:
            raise ValueError("model has no layout to project from")
        idx = sub_layout.indices_in(self.layout)
        model = GaussianModel(self.mean[idx], self.cov[np.ix_(idx, idx)], sub_layout)
        return model

    def scaled_cov(self, factor: float) -> "GaussianModel":
        return GaussianModel(self.mean, self.cov * factor, self.layout)

    def _factor(self) -> tuple[np.ndarray, float]:
        if self._chol is None:
            self._chol = _ridge_cholesky(self.cov)
            self._logdet = 2.0 * float(np.log(np.diag(self._chol)).sum())
        return self._chol, self._logdet

    def _whitener(self) -> tuple[np.ndarray, float]:
        """(inverse of the Cholesky factor, log-determinant): the inverse
        maps a deviation from the mean to white noise."""
        if self._whiten is None:
            self._whiten = _tril_inverse(self._factor()[0])
        return self._whiten, self._logdet


def _ridge_cholesky(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor of cov; when cov is only PSD, of cov plus the
    trace-scaled ridge times 1, 10 or 100."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        ridge = ridge_epsilon(cov)
    for scale in (1, 10, 100):
        try:
            return np.linalg.cholesky(cov + (ridge * scale) * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            pass
    raise SingularBlockError("covariance", "not positive definite after ridge")


# Diagonal blocks of at most this many rows are inverted by np.linalg.inv.
_TRIL_LEAF = 32


def _tril_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion,

        [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]],

    down to diagonal blocks of at most _TRIL_LEAF rows.  A leaf is inverted
    as the transpose of its upper-triangular transpose: LU with partial
    pivoting then swaps no rows and the solve is a back substitution, so the
    inverse is lower triangular exactly."""
    n = chol.shape[0]
    if n <= _TRIL_LEAF:
        return np.linalg.inv(chol.T).T
    h = n // 2
    head, tail = _tril_inverse(chol[:h, :h]), _tril_inverse(chol[h:, h:])
    out = np.zeros_like(chol)
    out[:h, :h] = head
    out[h:, h:] = tail
    out[h:, :h] = -(tail @ chol[h:, :h]) @ head
    return out


def ridge_epsilon(cov: np.ndarray) -> np.ndarray:
    """Trace-scaled ridge used whenever a covariance may be rank deficient;
    one value per matrix of a (..., d, d) stack."""
    tr = np.trace(cov, axis1=-2, axis2=-1)
    return 1e-8 * np.where(tr > 0, tr / cov.shape[-1], 1.0)


def sample(model: GaussianModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n vectors from the model via its cached Cholesky factor."""
    chol, _ = model._factor()
    return model.mean + rng.normal(size=(n, model.dim)) @ chol.T


def log_density(model: GaussianModel, x) -> float | np.ndarray:
    """Multivariate normal log-density via the model's cached whitener, the
    inverse of its Cholesky factor: one matrix product per call.

    Accepts a single vector (d,) or a batch (n, d).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != model.dim:
        raise ValueError(f"dimension mismatch: x has {pts.shape[1]}, model has {model.dim}")
    whiten, logdet = model._whitener()
    # a non-finite sample yields a non-finite density, which callers report
    with np.errstate(invalid="ignore"):
        white = (pts - model.mean) @ whiten.T
        quad = np.einsum("ij,ij->i", white, white)
    out = -0.5 * (quad + model.dim * LOG_2PI + logdet)
    return float(out[0]) if single else out


def log_density_stack(means: np.ndarray, covs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log N(x[s]; means[s], covs[s]) for every s of a stack of models.

    The covariances are factored by one np.linalg.cholesky call; when that
    fails, each goes through the ridge rule of GaussianModel on its own
    (SingularBlockError as there).  The points are solved against the
    factors in one batched call.
    """
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        chol = np.stack([_ridge_cholesky(cov) for cov in covs])
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    solved = np.linalg.solve(chol, (x - means)[:, :, None])[:, :, 0]
    quad = np.einsum("ij,ij->i", solved, solved)
    return -0.5 * (quad + means.shape[1] * LOG_2PI + logdet)


def kl_divergence(f: GaussianModel, g: GaussianModel) -> float:
    """D_KL(f || g) in closed form (trace + quadratic + log-det terms)."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    whiten_g, logdet_g = g._whitener()
    _, logdet_f = f._factor()
    # trace(Sigma_g^-1 Sigma_f): the trace of Sigma_f whitened by W = L_g^-1
    trace = float(np.trace(whiten_g @ f.cov @ whiten_g.T))
    dmu = whiten_g @ (g.mean - f.mean)
    quad = float(dmu @ dmu)
    return max(0.0, 0.5 * (trace + quad - f.dim + logdet_g - logdet_f))


# Pair blocks are inverted in stacks of at most this many pairs, which keeps
# the transient arrays of one stack near 100 kB whatever the feeder size.
_PAIR_BATCH = 256


def score_pairs(sigma: np.ndarray, pairs,
                layout: CoordinateLayout) -> tuple[np.ndarray, np.ndarray]:
    """(scores, degenerate) arrays of bus pairs, each conditioned on all
    other coordinates.

    The score is the largest |correlation| in the cross block of the pair's
    conditional covariance: zero exactly when the two buses are
    conditionally independent.  That covariance is the inverse of the pair's
    block of the precision matrix Lambda = Sigma^-1, so coordinates with
    variance <= 1e-15 * max(largest variance, 1) are dropped, the kept block
    is factored once as L L^T, Lambda is formed as W^T W with W = L^-1, and
    the 2x2, 3x3 or 4x4 pair blocks of Lambda are inverted as stacks by
    np.linalg.inv.  A pair that holds a dropped coordinate, or has a
    conditional variance <= 1e-14 * max(largest variance, 1), is degenerate
    and scores 0; a bus paired with itself scores 1.  Raises SingularBlockError when the kept block is singular.
    """
    sigma = np.asarray(sigma, dtype=float)
    pairs = list(pairs)
    table = layout.bus_coords
    unknown = {bus for pair in pairs for bus in pair} - table.keys()
    if unknown:
        raise KeyError(f"bus {min(unknown)} has no coordinates in this layout")
    scores = np.array([float(i == j) for i, j in pairs])
    degenerate = np.zeros(len(pairs), dtype=bool)
    diag = np.diag(sigma)
    scale = max(float(diag.max(initial=0.0)), 1.0)
    kept = diag > 1e-15 * scale
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
    precision = _kept_precision(sigma, kept)
    position = np.cumsum(kept) - 1  # of each kept coordinate in the kept block
    for (ni, _), members in groups.items():
        for start in range(0, len(members), _PAIR_BATCH):
            batch = np.array(members[start:start + _PAIR_BATCH])
            at = position[[table[pairs[p][0]] + table[pairs[p][1]] for p in batch]]
            cond = np.linalg.inv(precision[at[:, :, None], at[:, None, :]])
            var = np.diagonal(cond, axis1=1, axis2=2)
            live = (var > 1e-14 * scale).all(axis=1)
            cross = np.abs(cond[live, :ni, ni:])
            cross /= np.sqrt(var[live, :ni, None] * var[live, None, ni:])
            scores[batch[live]] = cross.max(axis=(1, 2))
            degenerate[batch[~live]] = True
    return scores, degenerate


def _kept_precision(sigma: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Inverse of Sigma[kept, kept] as W^T W, W the inverse of its Cholesky
    factor."""
    idx = np.flatnonzero(kept)
    try:
        chol = np.linalg.cholesky(sigma[np.ix_(idx, idx)])
    except np.linalg.LinAlgError:
        raise SingularBlockError("Sigma[kept, kept]",
                                 f"{idx.size} coordinates of nonzero variance") from None
    whiten = _tril_inverse(chol)
    return whiten.T @ whiten


def conditional_corr(sigma: np.ndarray, i: int, j: int,
                     layout: CoordinateLayout) -> float:
    """Conditional-correlation score of one bus pair; see score_pairs."""
    return float(score_pairs(sigma, [(i, j)], layout)[0][0])


# --- model construction from the grid --------------------------------------

def model_from_topology(topology: GridTopology, injection_variance,
                        noise_variance: float) -> GaussianModel:
    """Zero-mean stacked Gaussian of voltage increments driven by independent
    complex injections through the network.

    Per energised island of grid.transfer the complex covariance is
    Z diag(var) Z^H; grounding buses and dead islands keep zero voltage.
    Measurement noise adds noise_variance to every stacked coordinate.
    """
    m = topology.bus_count
    var = _injection_vector(injection_variance, m)
    sigma_c = np.zeros((m, m), dtype=complex)
    for buses, z in transfer(topology):
        idx = [b - 1 for b in buses]
        sigma_c[np.ix_(idx, idx)] = (z * var[idx]) @ z.conj().T
    cov = complex_to_real_cov(sigma_c) + noise_variance * np.eye(2 * m)
    return GaussianModel(np.zeros(2 * m), cov, CoordinateLayout.full_phasor(m))


def _injection_vector(injection_variance, m: int) -> np.ndarray:
    """Per-bus injection variances, bus b at index b - 1, from one scalar for
    every bus or a {bus: variance} dict (buses left out get 0)."""
    if isinstance(injection_variance, dict):
        out = np.zeros(m)
        for bus, var in injection_variance.items():
            if not 1 <= bus <= m:
                raise ValueError(f"injection bus {bus} outside 1..{m}")
            out[bus - 1] = float(var)
    else:
        out = np.full(m, float(injection_variance))
    if np.any(out < 0):
        raise ValueError("injection variances must be nonnegative")
    return out


# --- post-change parameter estimation ---------------------------------------

@dataclass(frozen=True)
class EstimationPrior:
    """Change-position prior used by the windowed ML estimator.

    rho parameterises the geometric pmf over the change position within the
    window.  explicit_weights, when given, override the pmf (useful for
    collapsing all mass onto one position); individual zeros are allowed but
    negative weights and an all-zero vector are not.
    """

    rho: float = 0.04
    explicit_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if self.explicit_weights is not None:
            w = np.asarray(self.explicit_weights, dtype=float)
            if np.any(w < 0) or w.sum() <= 0:
                raise ValueError("weights must be nonnegative with positive sum")

    def weights(self, n: int) -> np.ndarray:
        if self.explicit_weights is not None:
            w = np.asarray(self.explicit_weights, dtype=float)
            if w.size != n:
                raise ValueError(f"explicit weights length {w.size} != window length {n}")
            return w
        k = np.arange(1, n + 1)
        return self.rho * (1.0 - self.rho) ** (k - 1)

    def window_weights(self, lengths, width: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, denominators) for windows of the given lengths N: row s
        holds cumsum(weights(N)) at the right-hand end of `width` columns,
        zeros before, and its denominator is sum_k pi(k) (N-k+1), the sum of
        that row.  The geometric pmf of a shorter window is a prefix of a
        longer one's, so one pmf serves every row; explicit weights fit
        their own length only (ValueError for any other)."""
        lengths = np.asarray(lengths, dtype=int)
        if self.explicit_weights is not None:
            for n in np.unique(lengths).tolist():
                self.weights(n)
        cumulative = np.cumsum(self.weights(int(lengths.max())))
        at = np.arange(width) - (width - lengths)[:, None]
        rows = np.where(at >= 0, cumulative[np.maximum(at, 0)], 0.0)
        return rows, np.cumsum(cumulative)[lengths - 1]


def estimate_windows(windows: np.ndarray, lengths, prior: EstimationPrior,
                     ridge: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """estimate_post_outage for a stack of windows: (means, covariances).

    windows is an (S, W, d) array whose window s holds its lengths[s]
    samples in its last rows; its earlier rows (zero padding, say) get
    weight zero.  Each window gets the weights
    cumsum(prior.weights(N)) of its length N at its right-hand end
    (EstimationPrior.window_weights), and the whole stack goes through one
    two-pass weighted mean and covariance and the ridge.
    """
    stack, width, dim = windows.shape
    lengths = np.asarray(lengths, dtype=int)
    if lengths.min() < 2 or lengths.max() > width:
        raise ValueError(f"window lengths must lie in 2..{width}, got "
                         f"{lengths.min()}..{lengths.max()}")
    weights, denom = prior.window_weights(lengths, width)
    # deviations from each window's last sample: a constant window then has
    # exactly zero covariance, hence the same ridge, whatever its padding
    dev = windows - windows[:, -1:, :]
    offset = (weights[:, None, :] @ dev) / denom[:, None, None]
    mu = windows[:, -1, :] + offset[:, 0]
    dev -= offset
    sigma = (dev.transpose(0, 2, 1) * weights[:, None, :]) @ dev / denom[:, None, None]
    sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))
    eps = ridge_epsilon(sigma) if ridge is None else np.full(stack, ridge)
    return mu, sigma + eps[:, None, None] * np.eye(dim)


def estimate_post_outage(window, prior: EstimationPrior,
                         ridge: float | None = None) -> GaussianModel:
    """Weighted ML estimate of the post-change mean and covariance.

    With pi(k) the prior weight of the change sitting at window position k,

        mu    = sum_k pi(k) sum_{n>=k} x_n / sum_k pi(k) (N-k+1)
        Sigma = sum_k pi(k) sum_{n>=k} (x_n-mu)(x_n-mu)^T / (same denominator)

    computed via cumulative weights (the inner sums telescope).  The returned
    covariance carries a ridge of `ridge` (default: the trace-scaled epsilon)
    because early windows are rank deficient; pass ridge=0.0 for the raw
    estimate.  This is the one-window case of estimate_windows.
    """
    x = np.asarray(window, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 window samples, got {n}")
    mu, cov = estimate_windows(x[None], [n], prior, ridge)
    return GaussianModel(mu[0], cov[0])
