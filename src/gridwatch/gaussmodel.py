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

import itertools
import math
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

    @cached_property
    def pair_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(widths, coords) arrays indexed by bus id, for score_pairs: how
        many coordinates the bus has (0 for a bus the layout lacks), and its
        coordinates in layout order, the first repeated for a one-coordinate
        bus."""
        size = max(self.bus_coords, default=-1) + 1
        widths = np.zeros(size, dtype=np.intp)
        coords = np.zeros((size, 2), dtype=np.intp)
        for bus, c in self.bus_coords.items():
            widths[bus] = len(c)
            coords[bus] = (c * 2)[:2]
        return widths, coords

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


def _ridge_cholesky(cov: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Cholesky factor of cov; when cov is only PSD, of cov plus the
    trace-scaled ridge times 1, 10 or 100 on the diagonal of its leading
    dim x dim block (all of cov by default; a bordered matrix keeps its
    border as it is)."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        dim = cov.shape[0] if dim is None else dim
        ridge = ridge_epsilon(cov[:dim, :dim])
    eye = np.eye(cov.shape[0])
    eye[dim:] = 0.0
    for scale in (1, 10, 100):
        try:
            return np.linalg.cholesky(cov + (ridge * scale) * eye)
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
    inverse is lower triangular exactly.  A (..., n, n) stack is inverted
    matrix by matrix in the same calls."""
    n = chol.shape[-1]
    if n <= _TRIL_LEAF:
        return np.linalg.inv(chol.swapaxes(-1, -2)).swapaxes(-1, -2)
    h = n // 2
    head = _tril_inverse(chol[..., :h, :h])
    tail = _tril_inverse(chol[..., h:, h:])
    out = np.zeros_like(chol)
    out[..., :h, :h] = head
    out[..., h:, h:] = tail
    out[..., h:, :h] = -(tail @ chol[..., h:, :h]) @ head
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

    Accepts a single vector (d,) or a batch (n, d).  One row is scored as
    two, as BLAS gemv rounds a one-row product otherwise than gemm a batch;
    whether a row keeps its bits in batches of every size depends on the
    BLAS kernel and d (README, adaptive detector notes).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != model.dim:
        raise ValueError(f"dimension mismatch: x has {pts.shape[1]}, model has {model.dim}")
    whiten, logdet = model._whitener()
    # a non-finite sample yields a non-finite density, which callers report
    with np.errstate(invalid="ignore"):
        rows = np.repeat(pts, 2, axis=0) if len(pts) == 1 else pts
        white = (rows - model.mean) @ whiten.T
        quad = np.einsum("ij,ij->i", white, white)[:len(pts)]
    out = -0.5 * (quad + model.dim * LOG_2PI + logdet)
    return float(out[0]) if single else out


def log_density_stack(means: np.ndarray, covs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log N(x[s]; means[s], covs[s]) for every s of a stack of models.

    Each covariance is bordered by the deviation v = x[s] - means[s], as
    its last row and column, with +inf in the corner, and the (S, d+1, d+1)
    stack is factored by one np.linalg.cholesky call.  The factor of

        [[C, v], [v^T, inf]]  is  [[L, 0], [y^T, inf]],  L L^T = C,  L y = v,

    so its first d diagonal entries give the log-determinant and the first
    d entries of its last row the quadratic form |y|^2 (the bordering form
    of the Cholesky factorization).  When the stacked call fails, each
    bordered matrix goes through the ridge rule of GaussianModel on its
    covariance block alone (SingularBlockError as there), so a matrix gets
    the same bits whatever its neighbours.  A row with a non-finite sample
    is bordered by zeros and scores NaN; a finite row whose |y|^2
    overflows scores -inf (its corner becomes NaN, which potrf of OpenBLAS
    does not flag).
    """
    stack, dim = means.shape
    dev = x - means
    bad = ~np.isfinite(dev).all(axis=1)
    dev[bad] = 0.0
    bordered = np.empty((stack, dim + 1, dim + 1))
    bordered[:, :dim, :dim] = covs
    bordered[:, dim, :dim] = bordered[:, :dim, dim] = dev
    bordered[:, dim, dim] = np.inf
    try:
        chol = np.linalg.cholesky(bordered)
    except np.linalg.LinAlgError:
        chol = np.stack([_ridge_cholesky(b, dim) for b in bordered])
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)[:, :dim]).sum(axis=1)
    white = chol[:, dim, :dim]
    quad = np.einsum("ij,ij->i", white, white)
    out = -0.5 * (quad + dim * LOG_2PI + logdet)
    out[bad] = np.nan
    return out


def kl_divergence(f: GaussianModel, g: GaussianModel) -> float:
    """D_KL(f || g) in closed form (trace + quadratic + log-det terms).

    Coordinates of zero variance in both models (score_pairs' rule) are
    dropped first: they add 0, or make the divergence infinite where the
    means differ.  A coordinate of zero variance in one model only is kept,
    and the ridge of that model's factor stands in for its variance.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    live = kept_coordinates(f.cov)[0] | kept_coordinates(g.cov)[0]
    if not live.all():
        if np.any(f.mean[~live] != g.mean[~live]):
            return math.inf
        idx = np.flatnonzero(live)
        f, g = (GaussianModel(m.mean[idx], m.cov[np.ix_(idx, idx)]) for m in (f, g))
    whiten_g, logdet_g = g._whitener()
    _, logdet_f = f._factor()
    # trace(Sigma_g^-1 Sigma_f): the trace of Sigma_f whitened by W = L_g^-1
    trace = float(np.trace(whiten_g @ f.cov @ whiten_g.T))
    dmu = whiten_g @ (g.mean - f.mean)
    quad = float(dmu @ dmu)
    return max(0.0, 0.5 * (trace + quad - f.dim + logdet_g - logdet_f))


# Pair blocks are inverted in stacks of at most this many blocks, which keeps
# the transient arrays of one stack near 100 kB whatever the feeder size.
_PAIR_BATCH = 256


def score_pairs(sigma: np.ndarray, pairs,
                layout: CoordinateLayout) -> tuple[np.ndarray, np.ndarray]:
    """(scores, degenerate) arrays of bus pairs, each conditioned on all
    other coordinates.

    sigma is one (d, d) covariance, scored into (P,) arrays, or a (B, d, d)
    stack, scored into (B, P) arrays; pairs is a sequence of (i, j) or a
    (P, 2) integer array.  The score is the largest |correlation| in the
    cross block of the pair's conditional covariance: zero exactly when the
    two buses are conditionally independent.  That covariance is the
    inverse of the pair's block of the precision matrix Lambda = Sigma^-1,
    so coordinates with variance <= 1e-15 * max(largest variance, 1) are
    dropped, the kept block is factored as L L^T, Lambda is formed as W^T W
    with W = L^-1, and the 2x2, 3x3 or 4x4 pair blocks of Lambda are
    inverted as stacks by np.linalg.inv.  The covariances of a stack that
    drop the same coordinates go through these steps together, one call
    each, and give the same bits as one at a time.  A pair that holds a
    dropped coordinate, or has a conditional variance <= 1e-14 * max(largest
    variance, 1), is degenerate and scores 0; a bus paired with itself
    scores 1.  KeyError names the smallest bus the layout lacks.  Raises
    SingularBlockError when the kept block or a pair block of Lambda is
    singular; for a stack, without naming which covariance it was.
    """
    sigma = np.asarray(sigma, dtype=float)
    stack = sigma if sigma.ndim == 3 else sigma[None]
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    widths, coords = layout.pair_table
    known = (pairs >= 0) & (pairs < len(widths))
    known[known] = widths[pairs[known]] > 0
    if not known.all():
        raise KeyError(f"bus {pairs[~known].min()} has no coordinates in this layout")
    other = pairs[:, 0] != pairs[:, 1]
    scores = np.zeros((len(stack), len(pairs)))
    scores[:, ~other] = 1.0
    degenerate = np.zeros(scores.shape, dtype=bool)
    kept, scale = kept_coordinates(stack)
    groups: dict[bytes, list[int]] = {}  # covariances by kept mask
    for b, mask in enumerate(kept):
        groups.setdefault(mask.tobytes(), []).append(b)
    shapes = list(itertools.product(np.unique(widths[widths > 0]).tolist(), repeat=2))
    for members in map(np.array, groups.values()):
        mask = kept[members[0]]
        scored = other & mask[coords].all(axis=1)[pairs].all(axis=1)
        degenerate[np.ix_(members, other & ~scored)] = True
        if not scored.any():
            continue
        idx = np.flatnonzero(mask)
        precision = _kept_precision(stack[np.ix_(members, idx, idx)])
        position = np.cumsum(mask) - 1  # of each kept coordinate in the kept block
        floor = 1e-14 * scale[members, None, None]
        step = max(1, _PAIR_BATCH // len(members))
        for start in range(0, len(pairs), step):
            batch = start + np.flatnonzero(scored[start:start + step])
            width = widths[pairs[batch]]
            for ni, nj in shapes:
                cols = batch[(width[:, 0] == ni) & (width[:, 1] == nj)]
                if not cols.size:
                    continue
                at = position[np.concatenate([coords[pairs[cols, 0], :ni],
                                              coords[pairs[cols, 1], :nj]], axis=1)]
                try:
                    cond = np.linalg.inv(precision[:, at[:, :, None], at[:, None, :]])
                except np.linalg.LinAlgError:
                    raise SingularBlockError(
                        "Lambda[pair, pair]",
                        f"a pair block of the precision of {idx.size} coordinates") from None
                var = np.diagonal(cond, axis1=2, axis2=3)
                live = (var > floor).all(axis=2)
                b, p = np.nonzero(live)
                cross = np.abs(cond[b, p, :ni, ni:])
                cross /= np.sqrt(var[b, p, :ni, None] * var[b, p, None, ni:])
                scores[members[b], cols[p]] = cross.max(axis=(1, 2))
                b, p = np.nonzero(~live)
                degenerate[members[b], cols[p]] = True
    if sigma.ndim == 3:
        return scores, degenerate
    return scores[0], degenerate[0]


def kept_coordinates(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coordinates of nonzero variance, scale) of a (d, d) covariance or
    each of a (B, d, d) stack: variance above 1e-15 * scale, scale =
    max(largest variance, 1)."""
    var = np.diagonal(sigma, axis1=-2, axis2=-1)
    scale = np.maximum(var.max(axis=-1, initial=0.0), 1.0)
    return var > 1e-15 * scale[..., None], scale


def _kept_precision(block: np.ndarray) -> np.ndarray:
    """Inverse of each kept block Sigma[kept, kept] of a (B, k, k) stack as
    W^T W, W the inverse of its Cholesky factor."""
    try:
        chol = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        raise SingularBlockError("Sigma[kept, kept]", f"{block.shape[-1]} coordinates "
                                 "of nonzero variance") from None
    whiten = _tril_inverse(chol)
    return whiten.swapaxes(1, 2) @ whiten


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
class GeometricPrior:
    """Geometric prior, pmf rho * (1 - rho)^(k-1) for k = 1, 2, ...: of the
    change time for the detector, and of the change position within the
    window for the post-change estimator."""

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")

    def weights(self, n: int) -> np.ndarray:
        """The pmf at positions 1..n."""
        return self.rho * (1.0 - self.rho) ** np.arange(n)

    def window_weights(self, lengths, width: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, denominators) for windows of the given lengths N: row s
        holds cumsum(weights(N)) at the right-hand end of `width` columns,
        zeros before, and its denominator is sum_k pi(k) (N-k+1), the sum of
        that row.  The pmf of a shorter window is a prefix of a longer one's,
        so one pmf serves every row."""
        lengths = np.asarray(lengths, dtype=int)
        cumulative = np.cumsum(self.weights(int(lengths.max())))
        at = np.arange(width) - (width - lengths)[:, None]
        rows = np.where(at >= 0, cumulative[np.maximum(at, 0)], 0.0)
        return rows, np.cumsum(cumulative)[lengths - 1]

    def kish_sizes(self, n: int) -> np.ndarray:
        """Kish effective sizes (sum w)^2 / sum w^2 of estimate_post_outage's
        weights over windows of 1..n samples; the k-th sample of a window
        weighs 1 - (1 - rho)^k."""
        w = np.cumsum(self.weights(n))
        return np.cumsum(w) ** 2 / np.cumsum(w * w)


def estimate_windows(dev: np.ndarray, last: np.ndarray, weights: np.ndarray,
                     denom: np.ndarray, ridge: float | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """estimate_post_outage for a stack of windows: (means, covariances).

    Window s of an (S, W, d) stack holds its N samples in its last rows;
    dev holds each window minus its last sample (overwritten here), last
    those samples.  Row s of weights is cumsum(prior.weights(N)) at its
    right-hand end, zeros before, so earlier rows (zero padding, say) get
    weight zero, and denom[s] is its sum (GeometricPrior.window_weights).
    The whole stack goes through one two-pass weighted mean and covariance
    and the ridge.  Deviations from the last sample give a constant window
    exactly zero covariance, hence the same ridge, whatever its padding.
    """
    offset = (weights[:, None, :] @ dev) / denom[:, None, None]
    mu = last + offset[:, 0]
    dev -= offset
    sigma = (dev.transpose(0, 2, 1) * weights[:, None, :]) @ dev
    sigma /= denom[:, None, None]
    sigma += sigma.transpose(0, 2, 1)
    sigma *= 0.5
    np.einsum("sii->si", sigma)[...] += ridge_epsilon(sigma)[:, None] if ridge is None else ridge
    return mu, sigma


def estimate_post_outage(window, prior: GeometricPrior,
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
    mu, cov = estimate_windows(x[None] - x[None, -1:], x[None, -1],
                               *prior.window_weights([n], n), ridge)
    return GaussianModel(mu[0], cov[0])
