"""Out-of-service branch identification from covariance structure.

Full observability: a branch pair whose conditional correlation was clearly
nonzero before the event and collapses to (numerically) zero after it is
flagged as out of service.  Limited observability: the scores come ranked by
the magnitude of their conditional-correlation change, which narrows the
outage region, and candidate branch admittances are re-estimated from
windows of phasor data to confirm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussmodel import CoordinateLayout, score_pairs
from .grid import GridTopology


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


# Floors for exact model covariances, where the only "noise" is float
# arithmetic; estimated covariances take zero_test_floors.
EXACT_THRESHOLDS = Thresholds(zero=1e-6, active=1e-2)
# zero_test_floors' effect size delta (the |partial correlation| that
# separates a live coupling from a dead one) and family level (the chance
# of any false flag among the scored pairs); the README gives the reasons.
FLOOR_DELTA, FLOOR_LEVEL = 0.1, 1e-3


def _fisher_terms(pairs, layout: CoordinateLayout, level: float) -> tuple[int, float]:
    """(k, c): the most coordinates any scored pair's score is conditioned
    on, and the one-sided normal quantile at level / (4 P), 4 cross entries
    for each of the P pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pair to score")
    # imported here: statistics loads fractions and decimal, about 3 ms that
    # only the floors need and every command would pay at start-up
    from statistics import NormalDist

    widths = layout.pair_table[0]
    k = layout.dim - min(int(widths[i] + widths[j]) for i, j in pairs)
    return k, NormalDist().inv_cdf(1.0 - level / (4 * len(pairs)))


def least_post_size(pairs, layout: CoordinateLayout, level: float = FLOOR_LEVEL,
                    delta: float = FLOOR_DELTA) -> float:
    """The effective size a post-event window must exceed before
    zero_test_floors can conclude |rho_post| < delta: k + 3 + (c / z(delta))^2."""
    k, c = _fisher_terms(pairs, layout, level)
    return k + 3 + (c / math.atanh(delta)) ** 2


def zero_test_floors(n_pre: int, n_post: float, pairs, layout: CoordinateLayout,
                     level: float = FLOOR_LEVEL, delta: float = FLOOR_DELTA
                     ) -> Thresholds | None:
    """Closed-form floors of the zero test as an equivalence test on the
    Fisher z scale, z = atanh: a pair is flagged when

        z(rho_pre) - c / sqrt(n_pre - k - 3) > z(delta)   (it was live)
        z(rho_post) + c / sqrt(n_post - k - 3) < z(delta)  (it is below delta)

    with k and c as _fisher_terms gives them: on a stream where no pair's
    coupling crosses delta, the chance that any pair is flagged is at most
    level.  n_pre and n_post are the windows' effective sizes: the sample
    count of an unweighted window, GeometricPrior.kish_sizes of
    estimate_post_outage's.
    None when n_post is at most least_post_size (up to rounding): no pair
    can then be shown to sit below delta, and none may be flagged.  ValueError when a window
    holds no more than k + 3 samples.
    """
    k, c = _fisher_terms(pairs, layout, level)
    for name, n in (("pre", n_pre), ("post", n_post)):
        if n <= k + 3:
            raise ValueError(f"{name}-event window of effective size {n:.6g} is too short "
                             f"for a Fisher z test given {k} coordinates: need more than "
                             f"{k + 3}")
    z = math.atanh(delta)
    zero = z - c / math.sqrt(n_post - k - 3)
    if zero <= 0:
        return None
    return Thresholds(zero=math.tanh(zero), active=math.tanh(z + c / math.sqrt(n_pre - k - 3)))


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
               thresholds: Thresholds | None = EXACT_THRESHOLDS,
               noise_floor: float | None = None) -> LocalizationReport:
    """Zero test over the given bus pairs (typically the known branch list).

    sigma0 (pre-event) and sigma1 (post-event) take a score_pairs call
    each.  A pair is flagged when |rho_pre| > active and |rho_post| < zero;
    with thresholds None, none is.  Pairs that are degenerate under either
    covariance are kept in the report with the degenerate marker but never
    flagged; when noise_floor (the measurement noise variance) is given,
    pairs whose post-event marginals sit at the noise floor on both ends (a
    de-energised island) are likewise skipped, since everything in such an
    island looks conditionally independent.  Raises SingularBlockError when
    a covariance is singular after its zero-variance coordinates are
    dropped.
    """
    sigma1 = np.asarray(sigma1, dtype=float)
    pairs = list(pairs)
    pre, degen_pre = score_pairs(sigma0, pairs, layout)
    post, degen_post = score_pairs(sigma1, pairs, layout)
    degenerate = degen_pre | degen_post
    if noise_floor is not None:
        diag = np.diag(sigma1)
        quiet = {bus for bus, coords in layout.bus_coords.items()
                 if diag[list(coords)].max() <= 4.0 * noise_floor}
        degenerate |= np.array([i in quiet and j in quiet for i, j in pairs], dtype=bool)
    scores = [PairScore(i, j, a, b, d) for (i, j), a, b, d
              in zip(pairs, pre.tolist(), post.tolist(), degenerate.tolist())]
    flagged = frozenset(s.pair for s in scores if thresholds is not None and not s.degenerate
                        and s.rho_pre > thresholds.active and s.rho_post < thresholds.zero)
    return LocalizationReport(flagged, _sorted_scores(scores))


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
