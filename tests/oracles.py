"""Reference implementations the package is tested against.

Only tests use these: the one-step log-odds recursion and the direct
posterior sum over change positions (the oracles of the detector's
recursion), the Schur conditional covariance and the per-pair scorer of one
covariance (the oracles of score_pairs), the Kron reduction of an
admittance matrix (the oracle of grid.transfer), the per-draw stream
formula (the oracle of simgen's synthesis), an island's transfer products
through a copy of its injection columns and the detector's step samples
added to a zero row (the earlier forms of simgen._apply_transfer and
detector._step_increments).  Then small helpers that only tests call: the
score of one bus pair, a PSD check of a model's covariance, draws from a
model, a topology's in-service pairs, sensor schedules from a {bus: (kind,
period)} table or all magnitude, the coverage-sweep table read back from
its CSV, a forced fork setting that counts the calls that fork a child,
and a BLAS thread count set for a block.  They lean on scipy, which the
package itself does not import.
"""

import contextlib
import ctypes
import math
import os
import threading

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from gridwatch import forking
from gridwatch.detector import LOG_ODDS_CLAMP, GeometricPrior, NonFiniteLikelihoodError
from gridwatch.experiments import PMU_SWEEP, PmuSweepRow, PmuSweepTable
from gridwatch.gaussmodel import (
    MAGNITUDE,
    CoordinateLayout,
    GaussianModel,
    _injection_vector,
    _tril_inverse,
    log_density,
    score_pairs,
)
from gridwatch.grid import GridTopology, SingularBlockError, TopologyError, substream, transfer
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


def synthesize_draw(scenario, seed: int, lam: int | None,
                    horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(values, fresh, injections or None) of one draw (seed, outage tick,
    horizon) of a scenario, whose own seed, outage and horizon are not read,
    by the direct formula: complex injections as the sum of a real and an
    imaginary normal draw times the per-bus standard deviation, a row-major
    stacked array of the transfer products per island and regime, the
    post-outage mean shift, noise as its standard deviation times standard
    normals, the sensed columns copied out, and each slower channel's sums
    over its periods held between its fresh ticks."""
    m = scenario.topology.bus_count
    std = np.sqrt(_injection_vector(scenario.injection_variance, m) / 2.0)
    split = lam - 1 if lam is not None and lam <= horizon else horizon
    inj_rng = substream(seed, "injection")
    injections = (inj_rng.normal(size=(horizon, m)) +
                  1j * inj_rng.normal(size=(horizon, m))) * std
    stacked = np.zeros((horizon, 2 * m))
    for rows, topology in ((slice(0, split), scenario.topology),
                           (slice(split, horizon), scenario.post_topology())):
        if rows.start == rows.stop:
            continue
        for buses, z in transfer(topology):
            idx = np.array(buses) - 1
            volts = injections[rows][:, idx] @ z.T
            stacked[rows, idx] = volts.real
            stacked[rows, m + idx] = volts.imag
            if rows.start == split and scenario.mean_shift:
                stacked[rows, idx] += scenario.mean_shift
                stacked[rows, m + idx] += scenario.mean_shift
    if scenario.noise_variance:
        noise = substream(seed, "noise").normal(size=(horizon, 2 * m))
        stacked += np.sqrt(scenario.noise_variance) * noise
    layout = scenario.schedule.layout
    values = stacked[:, layout.indices_in(CoordinateLayout.full_phasor(m))]
    fresh = np.ones(values.shape, dtype=bool)
    for c, period in enumerate(scenario.schedule.channel_periods()):
        if period == 1:
            continue
        csum = np.concatenate([[0.0], np.cumsum(values[:, c])])
        for t in range(1, horizon + 1):
            end = t // period * period  # the last fresh tick at or before t
            fresh[t - 1, c] = t == end
            values[t - 1, c] = csum[end] - csum[end - period] if end else 0.0
    return values, fresh, injections if scenario.record_injections else None


def transfer_through_copy(stacked: np.ndarray, injections: np.ndarray,
                          topology: GridTopology) -> None:
    """simgen._apply_transfer by copying each island's injection columns out
    with an index array: the real and imaginary parts of Z @ injections per
    energised island of the topology, into the two halves of stacked."""
    m = injections.shape[1]
    for buses, z in transfer(topology):
        idx = np.array(buses) - 1
        volts = injections[:, idx] @ z.T
        stacked[:, idx] = volts.real
        stacked[:, m + idx] = volts.imag


def step_increments_from_zeros(stream, step_period: int) -> tuple[np.ndarray, np.ndarray]:
    """detector._step_increments by adding the fresh values of every tick of
    a step, in tick order, to a zero row."""
    steps = stream.horizon // step_period
    fresh = np.where(stream.fresh, stream.values, 0.0)[: steps * step_period]
    fresh = fresh.reshape(steps, step_period, stream.values.shape[1])
    x = np.zeros((steps, stream.values.shape[1]))
    for k in range(step_period):
        x += fresh[:, k]
    return step_period * np.arange(1, steps + 1), x


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


def sample(model: GaussianModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n vectors from the model via its cached Cholesky factor."""
    chol, _ = model._factor()
    return model.mean + rng.normal(size=(n, model.dim)) @ chol.T


def in_service_pairs(topology: GridTopology) -> list[tuple[int, int]]:
    return [br.pair for br in topology.branches if br.in_service]


def schedule_from_kinds(kinds: dict[int, tuple[str, int]]) -> SensorSchedule:
    """The schedule of a {bus: (kind, period)} table."""
    return SensorSchedule(tuple((b, k, p) for b, (k, p) in sorted(kinds.items())))


def all_magnitude(bus_count: int, period: int = 1) -> SensorSchedule:
    """Magnitude channels at every bus, all of one period."""
    return SensorSchedule(tuple((b, MAGNITUDE, period) for b in range(1, bus_count + 1)))


def pmu_sweep_from_csv(text: str) -> PmuSweepTable:
    """The table of a pmu_sweep.csv that PmuSweepTable.to_csv wrote."""
    return PmuSweepTable(tuple(PmuSweepRow(*row) for row in PMU_SWEEP.rows(text)))


_FORKED, _SPAWN = forking.forked, forking._spawn


@contextlib.contextmanager
def forks_under(monkeypatch, cpus: int, other_thread: bool = False):
    """Runs the block with forking.cpus() forced to cpus and, when
    other_thread, another thread alive; yields the list that gathers the
    jobs of each forking.forked call made meanwhile that forked a child (a
    call that runs every job in this process adds nothing)."""
    monkeypatch.setattr(forking, "cpus", lambda: cpus)
    calls, spawned = [], []

    def spawn(job):
        spawned.append(job)
        return _SPAWN(job)

    def forked(*jobs):
        before = len(spawned)
        try:
            return _FORKED(*jobs)
        finally:
            if len(spawned) > before:
                calls.append(jobs)

    monkeypatch.setattr(forking, "_spawn", spawn)
    monkeypatch.setattr(forking, "forked", forked)
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


# the thread-count symbols of numpy's and scipy's OpenBLAS builds and of a
# plain one, "get" or "set" in the gap
OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                    "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@contextlib.contextmanager
def blas_threads(count: int):
    """Runs the block with every OpenBLAS loaded into this process (found by
    its path in /proc/self/maps) at count threads, through its own
    set-threads symbol, then puts each back at its former count."""
    calls = []
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in OPENBLAS_THREADS:
                get = getattr(lib, name.format("get"), None)
                if get is not None:
                    get.restype = ctypes.c_int
                    calls.append((getattr(lib, name.format("set")), int(get())))
                    break
    for put, _ in calls:
        put(count)
    try:
        yield
    finally:
        for put, former in calls:
            put(former)
