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
import scipy.linalg

from .grid import AdmittanceMatrix, GridTopology, SingularBlockError, build_admittance, islands

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
    covariance is only PSD).
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
            cov = self.cov
            ridge = ridge_epsilon(cov)
            for attempt in range(4):
                try:
                    chol = np.linalg.cholesky(cov)
                    break
                except np.linalg.LinAlgError:
                    cov = self.cov + (ridge * 10 ** attempt) * np.eye(self.dim)
            else:
                raise SingularBlockError("covariance", "not positive definite after ridge")
            self._chol = chol
            self._logdet = 2.0 * float(np.log(np.diag(chol)).sum())
        return self._chol, self._logdet


def ridge_epsilon(cov: np.ndarray) -> float:
    """Trace-scaled ridge used whenever a covariance may be rank deficient."""
    d = cov.shape[0]
    tr = float(np.trace(cov))
    return 1e-8 * (tr / d if tr > 0 else 1.0)


def sample(model: GaussianModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n vectors from the model via its cached Cholesky factor."""
    chol, _ = model._factor()
    return model.mean + rng.normal(size=(n, model.dim)) @ chol.T


def log_density(model: GaussianModel, x) -> float | np.ndarray:
    """Multivariate normal log-density via the cached triangular factor.

    Accepts a single vector (d,) or a batch (n, d); never forms an explicit
    inverse.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != model.dim:
        raise ValueError(f"dimension mismatch: x has {pts.shape[1]}, model has {model.dim}")
    chol, logdet = model._factor()
    dev = pts - model.mean
    solved = scipy.linalg.solve_triangular(chol, dev.T, lower=True, check_finite=False)
    quad = np.einsum("ij,ij->j", solved, solved)
    out = -0.5 * (quad + model.dim * LOG_2PI + logdet)
    return float(out[0]) if single else out


def kl_divergence(f: GaussianModel, g: GaussianModel) -> float:
    """D_KL(f || g) in closed form (trace + quadratic + log-det terms)."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    chol_g, logdet_g = g._factor()
    _, logdet_f = f._factor()
    half = scipy.linalg.solve_triangular(chol_g, f.cov, lower=True, check_finite=False)
    trace = float(np.trace(scipy.linalg.solve_triangular(
        chol_g, half.T, lower=True, check_finite=False)))
    dmu = scipy.linalg.solve_triangular(chol_g, g.mean - f.mean, lower=True,
                                        check_finite=False)
    quad = float(dmu @ dmu)
    return max(0.0, 0.5 * (trace + quad - f.dim + logdet_g - logdet_f))


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
    is factored once, and the 2x2, 3x3 or 4x4 pair blocks of Lambda are
    inverted as stacks by np.linalg.inv.  A pair that holds a dropped
    coordinate, or has a conditional variance <= 1e-14 * max(largest
    variance, 1), is degenerate and scores 0; a bus paired with itself
    scores 1.  Raises SingularBlockError when the kept block is singular.
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
            row, col = at[:, :, None], at[:, None, :]
            cond = np.linalg.inv(precision[np.maximum(row, col), np.minimum(row, col)])
            var = np.diagonal(cond, axis1=1, axis2=2)
            live = (var > 1e-14 * scale).all(axis=1)
            cross = np.abs(cond[live, :ni, ni:])
            cross /= np.sqrt(var[live, :ni, None] * var[live, None, ni:])
            scores[batch[live]] = cross.max(axis=(1, 2))
            degenerate[batch[~live]] = True
    return scores, degenerate


def _kept_precision(sigma: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Inverse of Sigma[kept, kept] from its Cholesky factor (LAPACK potrf and
    potri, in place); only the lower triangle is filled in."""
    idx = np.flatnonzero(kept)
    chol, info = scipy.linalg.lapack.dpotrf(sigma[np.ix_(idx, idx)], lower=True,
                                            overwrite_a=True, clean=False)
    if info == 0:
        inv, info = scipy.linalg.lapack.dpotri(chol, lower=True, overwrite_c=True)
    if info != 0:
        raise SingularBlockError("Sigma[kept, kept]",
                                 f"{idx.size} coordinates of nonzero variance")
    return inv


def conditional_corr(sigma: np.ndarray, i: int, j: int,
                     layout: CoordinateLayout) -> float:
    """Conditional-correlation score of one bus pair; see score_pairs."""
    return float(score_pairs(sigma, [(i, j)], layout)[0][0])


# --- model construction from the grid --------------------------------------

def model_from_grid(Y: AdmittanceMatrix, slack: set[int], injection_variance,
                    noise_variance: float) -> GaussianModel:
    """Zero-mean stacked Gaussian of voltage increments driven by independent
    complex injections through the network.

    Per connected component of the admittance graph: slack rows/columns are
    deleted, the remaining block is inverted and the complex covariance is
    Z diag(var) Z^H.  Components without a slack bus are dead and keep zero
    voltage.  Measurement noise adds noise_variance to every stacked
    coordinate.
    """
    buses = Y.buses
    m = len(buses)
    inj = _per_bus(injection_variance, buses)
    sigma_c = np.zeros((m, m), dtype=complex)
    for comp in _components(Y):
        grounded = [k for k in comp if buses[k] not in slack]
        if len(grounded) == len(comp):
            continue  # dead island: zero voltage, noise only
        if not grounded:
            continue  # slack-only component
        sub = Y.matrix[np.ix_(grounded, grounded)]
        try:
            z = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            names = [buses[k] for k in grounded]
            raise SingularBlockError("Y[component]", f"buses {names}") from None
        d = np.array([inj[k] for k in grounded])
        block = (z * d) @ z.conj().T
        sigma_c[np.ix_(grounded, grounded)] = block
    cov = complex_to_real_cov(sigma_c) + noise_variance * np.eye(2 * m)
    layout = CoordinateLayout.from_kinds({b: PHASOR for b in buses})
    return GaussianModel(np.zeros(2 * m), cov, layout)


def model_from_topology(topology: GridTopology, injection_variance,
                        noise_variance: float) -> GaussianModel:
    """model_from_grid with DER promotion: each island that has no slack but
    contains a DER bus is grounded at its lowest DER bus."""
    grounding = set(topology.slack)
    for island in islands(topology):
        if island.kind == "der":
            grounding.add(min(island.buses & topology.der_buses))
    return model_from_grid(build_admittance(topology), grounding,
                           injection_variance, noise_variance)


def _per_bus(injection_variance, buses: tuple[int, ...]) -> dict[int, float]:
    if isinstance(injection_variance, dict):
        var = {k: float(injection_variance.get(bus, 0.0)) for k, bus in enumerate(buses)}
    else:
        var = {k: float(injection_variance) for k in range(len(buses))}
    if any(v < 0 for v in var.values()):
        raise ValueError("injection variances must be nonnegative")
    return var


def _components(Y: AdmittanceMatrix) -> list[list[int]]:
    m = Y.dim
    adj = [set() for _ in range(m)]
    rows, cols = np.nonzero(Y.matrix)
    for r, c in zip(rows, cols):
        if r != c:
            adj[r].add(int(c))
    unseen = set(range(m))
    comps = []
    while unseen:
        start = min(unseen)
        comp = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        unseen -= comp
        comps.append(sorted(comp))
    return comps


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


def estimate_post_outage(window, prior: EstimationPrior,
                         ridge: float | None = None) -> GaussianModel:
    """Weighted ML estimate of the post-change mean and covariance.

    With pi(k) the prior weight of the change sitting at window position k,

        mu    = sum_k pi(k) sum_{n>=k} x_n / sum_k pi(k) (N-k+1)
        Sigma = sum_k pi(k) sum_{n>=k} (x_n-mu)(x_n-mu)^T / (same denominator)

    computed via cumulative weights (the inner sums telescope).  The returned
    covariance carries a ridge of `ridge` (default: the trace-scaled epsilon)
    because early windows are rank deficient; pass ridge=0.0 for the raw
    estimate.
    """
    x = np.asarray(window, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 window samples, got {n}")
    pi = prior.weights(n)
    denom = float(pi @ np.arange(n, 0, -1))
    w = np.cumsum(pi)  # sample n carries the total weight of positions k <= n
    mu = (w @ x) / denom
    dev = x - mu
    sigma = (dev.T * w) @ dev / denom
    sigma = 0.5 * (sigma + sigma.T)
    eps = ridge_epsilon(sigma) if ridge is None else ridge
    return GaussianModel(mu, sigma + eps * np.eye(x.shape[1]))
