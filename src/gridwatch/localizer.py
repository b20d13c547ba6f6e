"""Out-of-service branch identification from covariance structure.

Full observability: a branch pair whose conditional correlation was clearly
nonzero before the event and collapses to (numerically) zero after it is
flagged as out of service.  Limited observability: pairs are ranked by the
magnitude of their conditional-correlation change to narrow the outage
region, and candidate branch admittances are re-estimated from windows of
phasor data to confirm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussmodel import CoordinateLayout, kept_coordinates, score_pairs
from .grid import GridTopology, SingularBlockError, substream


@dataclass(frozen=True)
class Thresholds:
    """Decision floors for the zero test.

    zero: |rho_post| below this counts as "collapsed to zero".
    active: |rho_pre| above this counts as "was a live coupling".
    """

    zero: float
    active: float

    def __post_init__(self):
        if not 0 < self.zero < self.active:
            raise ValueError(f"need 0 < zero < active, got {self.zero}, {self.active}")


# Defaults for exact model covariances, where the only "noise" is float
# arithmetic; data-driven runs should use thresholds_from_bootstrap.
EXACT_THRESHOLDS = Thresholds(zero=1e-6, active=1e-2)
# thresholds_from_bootstrap's floors, in multiples of the bootstrap deviation
ZERO_MULT, ACTIVE_MULT = 3.0, 10.0


# A row block's moment columns (rows x (d + d(d+1)/2)) hold at most this many
# float64 values, 2 MB, and resamples are scored in groups of this many over
# the window length (26 for 9 999 rows); never fewer than one row or resample.
_BOOT_BUDGET = 1 << 18


def thresholds_from_bootstrap(samples: np.ndarray, pairs, layout: CoordinateLayout,
                              n_boot: int = 200, seed: int = 0) -> Thresholds:
    """Data-driven floors: zero = ZERO_MULT (3) * the 99th percentile of the
    bootstrap deviation of the pair scores, active = ACTIVE_MULT (10) * zero.

    Resample b draws n rows with replacement, rng.integers(0, n, n) from
    substream(seed, "bootstrap"), and is kept as its count vector, in the
    smallest unsigned type that holds every count.  One pass over blocks of
    rows builds each block's centred moment columns once and multiplies them
    by all count vectors; the covariances, np.cov(ddof=0) of the resampled
    rows up to summation order, are scored a group at a time by score_pairs
    (one by one when the group's stack raises).  Pairs degenerate in a
    resample add no deviation.  The README's bootstrap paragraph gives the
    arithmetic.

    ValueError when n_boot < 1, when the window is shorter than dim + 2, or
    when no deviation remains.  SingularBlockError, naming the window or the
    resample, when some pair is scored and it holds no more distinct rows
    (told apart by value) than the window has coordinates of nonzero
    variance, or score_pairs finds it singular: a window below about
    1.6 (dim + 1) rows fails.  The window should be at least as long as the
    post-event one, or the floor undershoots the post-side sampling noise.
    """
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    samples = np.asarray(samples, dtype=float)
    n, dim = samples.shape
    if n < layout.dim + 2:
        raise ValueError(f"bootstrap window too short: {n} samples for dim {layout.dim}")
    pairs = list(pairs)
    rng = substream(seed, "bootstrap")
    window_cov = np.cov(samples.T, ddof=0)
    base, base_degenerate = score_pairs(window_cov, pairs, layout)
    kept = int(kept_coordinates(window_cov)[0].sum())
    # row_id[k]: which distinct row sample k is (+ 0.0 makes -0.0 equal 0.0)
    rows_as_bytes = np.ascontiguousarray(samples + 0.0).view(
        np.dtype((np.void, samples.itemsize * dim))).ravel()
    _, row_id = np.unique(rows_as_bytes, return_inverse=True)
    n_distinct = int(row_id.max()) + 1
    if n_distinct <= kept and not base_degenerate.all():
        raise SingularBlockError("Sigma[kept, kept]", (
            f"bootstrap window of {n} samples in dim {dim}: {n_distinct} distinct "
            f"samples for {kept} coordinates of nonzero variance"))
    # a block holds one row per centred coordinate, then the products of
    # coordinate i with coordinates i.. in rows offset[i]:offset[i + 1]
    centre = samples.mean(axis=0)[:, None]
    upper = np.triu_indices(dim)
    offset = dim + np.concatenate([[0], np.cumsum(np.arange(dim, 0, -1))])
    width = offset[-1]
    counts = np.empty((n_boot, n), dtype=np.uint8)
    distinct = []
    for b in range(n_boot):
        drawn = np.bincount(rng.integers(0, n, size=n), minlength=n)
        if drawn.max() > np.iinfo(counts.dtype).max:
            counts = counts.astype(np.min_scalar_type(drawn.max()))
        counts[b] = drawn
        # its distinct rows: its nonzero counts once those of equal rows are merged
        distinct.append(np.count_nonzero(np.bincount(row_id, weights=drawn,
                                                     minlength=n_distinct)))
    rows = max(1, _BOOT_BUDGET // width)
    columns = np.empty((width, min(rows, n)))
    moments = np.zeros((n_boot, width))
    for start in range(0, n, rows):
        x = samples[start:start + rows]
        block = columns[:, :x.shape[0]]
        np.subtract(x.T, centre, out=block[:dim])
        for i in range(dim):
            np.multiply(block[i], block[i:dim], out=block[offset[i]:offset[i + 1]])
        moments += counts[:, start:start + rows] @ block.T
    moments /= n
    mean, second = moments[:, :dim], moments[:, dim:]
    second -= mean[:, upper[0]] * mean[:, upper[1]]
    group = max(1, _BOOT_BUDGET // n)
    deviations = []
    for first in range(0, n_boot, group):
        size = min(group, n_boot - first)
        covs = np.empty((size, dim, dim))
        covs[:, upper[0], upper[1]] = second[first:first + size]
        covs[:, upper[1], upper[0]] = second[first:first + size]
        try:
            stacked = score_pairs(covs, pairs, layout)
        except SingularBlockError:
            stacked = None  # scored one by one below, so the error names the resample
        for b, cov in enumerate(covs):
            try:
                scores, degenerate = (score_pairs(cov, pairs, layout) if stacked is None
                                      else (stacked[0][b], stacked[1][b]))
                if distinct[first + b] <= kept and not degenerate.all():
                    raise SingularBlockError("Sigma[kept, kept]", f"{distinct[first + b]} "
                                             f"distinct samples for {kept} coordinates of "
                                             "nonzero variance")
            except SingularBlockError as exc:
                raise SingularBlockError(
                    exc.block, f"bootstrap resample {first + b} of {n_boot} from a window "
                    f"of {n} samples in dim {dim} ({exc.detail}); a resample holds about "
                    f"63 % distinct samples, so the window needs about 1.6 x (dim + 1)"
                ) from exc
            deviations.append(np.abs(scores - base)[~degenerate])
    deviations = np.concatenate(deviations)
    if deviations.size == 0:
        raise ValueError(f"no bootstrap deviation: every scored pair is degenerate "
                         f"in all {n_boot} resamples")
    zero = ZERO_MULT * float(np.percentile(deviations, 99.0))
    return Thresholds(zero=zero, active=ACTIVE_MULT * zero)


@dataclass(frozen=True)
class PairScore:
    i: int
    j: int
    rho_pre: float
    rho_post: float
    degenerate: bool = False

    @property
    def delta(self) -> float:
        return abs(self.rho_post - self.rho_pre)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)


@dataclass(frozen=True)
class LocalizationReport:
    flagged: frozenset[tuple[int, int]]
    scores: tuple[PairScore, ...]
    method: str
    admittance_estimates: dict | None = None

    def skipped(self) -> tuple[PairScore, ...]:
        return tuple(s for s in self.scores if s.degenerate)


# Ranked deltas closer than this are one value up to round-off (pairs an
# exact covariance leaves unchanged score ~1e-14): such ties are ordered by
# bus pair, so a numerically equivalent input gives the same row order.
DELTA_TIE = 1e-12


def _sorted_scores(scores: list[PairScore]) -> tuple[PairScore, ...]:
    """Scores by delta descending; a run of consecutive ranked deltas each
    within DELTA_TIE of the previous is one tie, ordered by (i, j)."""
    ranked = sorted(scores, key=lambda s: (-s.delta, s.i, s.j))
    out: list[PairScore] = []
    tie: list[PairScore] = []
    for score in ranked:
        if tie and tie[-1].delta - score.delta > DELTA_TIE:
            out += sorted(tie, key=lambda s: s.pair)
            tie = []
        tie.append(score)
    return tuple(out + sorted(tie, key=lambda s: s.pair))


def all_bus_pairs(layout: CoordinateLayout) -> list[tuple[int, int]]:
    buses = layout.buses
    return [(buses[a], buses[b]) for a in range(len(buses)) for b in range(a + 1, len(buses))]


def scan_pairs(sigma0: np.ndarray, sigma1: np.ndarray, pairs, layout: CoordinateLayout,
               thresholds: Thresholds = EXACT_THRESHOLDS,
               noise_floor: float | None = None) -> LocalizationReport:
    """Zero test over the given bus pairs (typically the known branch list).

    Both covariances are scored as one stack in one score_pairs call.  A
    pair is flagged when |rho_pre| > active and |rho_post| < zero.  Pairs
    that are degenerate under either covariance are kept in the report with
    the degenerate marker but never flagged; when noise_floor (the measurement
    noise variance) is given, pairs whose post-event marginals sit at the
    noise floor on both ends (a de-energised island) are likewise skipped,
    since everything in such an island looks conditionally independent.
    Raises SingularBlockError when a covariance is singular after its
    zero-variance coordinates are dropped.
    """
    sigma1 = np.asarray(sigma1, dtype=float)
    pairs = list(pairs)
    (pre, post), (degen_pre, degen_post) = score_pairs(np.stack([sigma0, sigma1]),
                                                       pairs, layout)
    degenerate = degen_pre | degen_post
    if noise_floor is not None:
        diag = np.diag(sigma1)
        quiet = {bus for bus, coords in layout.bus_coords.items()
                 if diag[list(coords)].max() <= 4.0 * noise_floor}
        degenerate |= np.array([i in quiet and j in quiet for i, j in pairs], dtype=bool)
    scores = [PairScore(i, j, a, b, d) for (i, j), a, b, d
              in zip(pairs, pre.tolist(), post.tolist(), degenerate.tolist())]
    flagged = frozenset(s.pair for s in scores if not s.degenerate
                        and s.rho_pre > thresholds.active and s.rho_post < thresholds.zero)
    return LocalizationReport(flagged, _sorted_scores(scores), "zero_test")


def rank_changes(sigma0: np.ndarray, sigma1: np.ndarray, observed_pairs,
                 layout: CoordinateLayout, top_k: int | None = None) -> tuple[PairScore, ...]:
    """Pairs sorted by |rho_post - rho_pre| descending (ties by bus pair);
    the first stage of limited-sensor localization.  Both covariances are
    scored as one stack in one score_pairs call (SingularBlockError as there);
    degenerate pairs score 0 and are not marked."""
    pairs = list(observed_pairs)
    (pre, post), _ = score_pairs(np.stack([sigma0, sigma1]), pairs, layout)
    ranked = _sorted_scores([PairScore(i, j, a, b) for (i, j), a, b
                             in zip(pairs, pre.tolist(), post.tolist())])
    return ranked[:top_k] if top_k is not None else ranked


@dataclass(frozen=True)
class PhasorWindow:
    """Complex voltage increments plus the matching injection increments.

    Injections at the candidate endpoints must be available (reconstructed
    by the metering infrastructure or, in simulation, recorded); voltage
    observability must cover the endpoints and all their neighbours.
    """

    delta_v: np.ndarray  # (T, M) complex
    delta_i: np.ndarray  # (T, M) complex

    def __post_init__(self):
        if self.delta_v.shape != self.delta_i.shape:
            raise ValueError("delta_v and delta_i windows must align")


@dataclass(frozen=True)
class AdmittanceEstimate:
    pre: complex
    post: complex
    likely_out: bool

    @property
    def magnitude_ratio(self) -> float:
        return abs(self.post) / abs(self.pre) if self.pre != 0 else float("inf")


def estimate_admittance(pre_window: PhasorWindow, post_window: PhasorWindow,
                        topology: GridTopology, candidates,
                        candidate_cut: float = 0.1) -> dict[tuple[int, int], AdmittanceEstimate]:
    """Least-squares branch admittances around each candidate, before/after.

    For an endpoint bus i with pre-event neighbours N(i), each sample gives
    one equation  dI_i = sum_e y_ie (dV_i - dV_e)  in the unknown incident
    admittances.  Estimates from both endpoints are averaged.  A branch
    whose post/pre magnitude ratio falls below candidate_cut is marked
    likely out.
    """
    adjacency = topology.adjacency()
    candidates = [(min(i, j), max(i, j)) for i, j in candidates]
    for i, j in candidates:
        if j not in adjacency[i]:
            raise ValueError(f"candidate {(i, j)} is not a branch of the topology")
    needed = max(len(adjacency[b]) for pair in candidates for b in pair)
    for name, win in (("pre", pre_window), ("post", post_window)):
        if win.delta_v.shape[0] < needed:
            raise ValueError(
                f"{name} window underdetermined: {win.delta_v.shape[0]} samples "
                f"for {needed} unknowns; need at least {needed}")

    def fit(window: PhasorWindow, bus: int) -> dict[int, complex]:
        neigh = sorted(adjacency[bus])
        dv = window.delta_v
        a = dv[:, [bus - 1] * len(neigh)] - dv[:, [e - 1 for e in neigh]]
        b = window.delta_i[:, bus - 1]
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
        return dict(zip(neigh, coef))

    out: dict[tuple[int, int], AdmittanceEstimate] = {}
    cache: dict[tuple[str, int], dict[int, complex]] = {}
    for i, j in candidates:
        est = {}
        for label, window in (("pre", pre_window), ("post", post_window)):
            vals = []
            for bus, other in ((i, j), (j, i)):
                if (label, bus) not in cache:
                    cache[(label, bus)] = fit(window, bus)
                vals.append(cache[(label, bus)][other])
            est[label] = 0.5 * (vals[0] + vals[1])
        ratio = abs(est["post"]) / abs(est["pre"]) if est["pre"] != 0 else float("inf")
        out[(i, j)] = AdmittanceEstimate(complex(est["pre"]), complex(est["post"]),
                                         bool(ratio < candidate_cut))
    return out
