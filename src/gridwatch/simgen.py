"""Deterministic, seeded measurement-stream synthesis.

Per tick, every non-slack bus receives an independent zero-mean complex
Gaussian injection increment (real and imaginary parts independent with half
the variance each); voltage increments follow through the per-island
transfer matrices of grid.transfer, the same blocks model_from_topology
builds the covariance from.  At the outage tick the network switches to the
post-outage transfer.  Dead islands emit exactly zero (plus measurement
noise); DER-backed islands run off their own grounded block.  Measurement
noise is added to the stacked real coordinates, i.i.d. per tick, from an RNG
substream separate from the injections so that changing the noise level
leaves the noiseless component bit-identical.

Magnitude channels report the real part of the complex increment (the
linearised magnitude increment around a flat operating point), aggregated
over the channel period: a channel with period p is fresh exactly at ticks
that are multiples of p and then carries the increment accumulated over the
last p ticks.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import shutil
import tempfile
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import forking, textconf
from .gaussmodel import (
    MAGNITUDE,
    PHASOR,
    CoordinateLayout,
    GaussianModel,
    _injection_vector,
    model_from_topology,
)
from .grid import (
    GridTopology,
    SingularBlockError,
    apply_outage,
    format_feeder,
    load_feeder,
    parse_feeder,
    substream,
    transfer,
)


@dataclass(frozen=True)
class SensorSchedule:
    """Per-bus channel kind and reporting period (in ticks)."""

    entries: tuple[tuple[int, str, int], ...]  # (bus, kind, period), sorted by bus

    def __post_init__(self):
        seen = set()
        for bus, kind, period in self.entries:
            if kind not in (PHASOR, MAGNITUDE):
                raise ValueError(f"unknown sensor kind {kind!r} at bus {bus}")
            if period < 1:
                raise ValueError(f"period must be >= 1, got {period} at bus {bus}")
            if bus in seen:
                raise ValueError(f"duplicate schedule entry for bus {bus}")
            seen.add(bus)
        if not self.entries:
            raise ValueError("schedule must sense at least one bus")
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def all_phasor(cls, bus_count: int) -> "SensorSchedule":
        return cls(tuple((b, PHASOR, 1) for b in range(1, bus_count + 1)))

    @cached_property
    def layout(self) -> CoordinateLayout:
        """The coordinates of the sensed channels, one object per schedule,
        so the layout's own caches (bus_coords, pair_table) are kept."""
        return CoordinateLayout.from_kinds({b: k for b, k, _ in self.entries})

    def channel_periods(self) -> list[int]:
        """The period of every coordinate of the layout, in layout order."""
        period = {bus: p for bus, _, p in self.entries}
        return [period[bus] for bus, _ in self.layout.entries]

    def require_period_one(self, users: str) -> None:
        """ValueError naming the first bus whose period is not 1.  users
        (say, "experiments") read the values as per-tick samples, which the
        held values between a slower channel's fresh ticks are not."""
        for bus, _, period in self.entries:
            if period != 1:
                raise ValueError(f"{users} need every channel at period 1: "
                                 f"bus {bus} has period {period}")


@dataclass(frozen=True)
class Scenario:
    """One reproducible simulation setup.

    The outage time is either fixed (lam) or geometric (outage_rho); with an
    empty out_branches set the stream never changes.  mean_shift, when
    nonzero, adds a deterministic step to every energised coordinate from
    the outage tick on (stress option).
    """

    topology: GridTopology
    out_branches: tuple[tuple[int, int], ...] = ()
    lam: int | None = None
    outage_rho: float | None = None
    injection_variance: float | dict = 1.0
    noise_variance: float = 1e-8
    schedule: SensorSchedule | None = None
    horizon: int = 100
    seed: int = 0
    mean_shift: float = 0.0
    record_injections: bool = False

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        object.__setattr__(self, "out_branches", tuple(sorted(
            (min(i, j), max(i, j)) for i, j in self.out_branches)))
        for (i, j), after in zip(self.out_branches, self.out_branches[1:]):
            if (i, j) == after:
                raise ValueError(f"[scenario].outage names branch {i}-{j} twice")
        variances = ([(f"[injection].bus{bus}", var)
                      for bus, var in self.injection_variance.items()]
                     if isinstance(self.injection_variance, dict)
                     else [("[scenario].injection_variance", self.injection_variance)])
        # zero is a variance too: a noise-free stream is a valid scenario
        for key, var in [*variances, ("[scenario].noise_variance", self.noise_variance)]:
            if not (math.isfinite(var) and var >= 0.0):
                raise ValueError(f"{key} must be a finite number >= 0, got {var!r}")
        if not math.isfinite(self.mean_shift):
            raise ValueError(f"[scenario].mean_shift must be a finite number, got "
                             f"{self.mean_shift!r}")
        if self.out_branches:
            known = {br.pair for br in self.topology.branches}
            for pair in self.out_branches:
                if pair not in known:
                    raise ValueError(f"outage branch {pair} not in topology")
            if self.lam is None and self.outage_rho is None:
                raise ValueError("outage needs a fixed time (lam) or a rate (outage_rho)")
            if self.lam is not None and not 1 <= self.lam <= self.horizon:
                raise ValueError(f"[scenario].lambda = {self.lam} is outside 1..{self.horizon}")
            if self.outage_rho is not None and not 0.0 < self.outage_rho <= 1.0:
                raise ValueError(f"[scenario].outage_rho = {self.outage_rho} is outside (0, 1]")
            if self.lam is not None and self.outage_rho is not None:
                raise ValueError("[scenario].lambda and [scenario].outage_rho are given "
                                 "together: set one of them")
        if self.schedule is None:
            object.__setattr__(
                self, "schedule", SensorSchedule.all_phasor(self.topology.bus_count))

    def pre_model(self) -> GaussianModel:
        return model_from_topology(self.topology, self.injection_variance,
                                   self.noise_variance)

    def post_model(self) -> GaussianModel:
        return model_from_topology(self.post_topology(), self.injection_variance,
                                   self.noise_variance)

    def post_topology(self) -> GridTopology:
        if not self.out_branches:
            return self.topology
        return apply_outage(self.topology, set(self.out_branches))

    def outage_tick(self, seed: int | None = None) -> int | None:
        """The outage's first tick, the one rule of every command and Monte
        Carlo draw: lam when fixed, else geometric at rate outage_rho, drawn
        from seed (the scenario's own when None); None without an outage."""
        if not self.out_branches or self.lam is not None:
            return self.lam if self.out_branches else None
        seed = self.seed if seed is None else seed
        return int(substream(seed, "outage-time").geometric(self.outage_rho))


def exact_covariances(scenario: Scenario, layout: CoordinateLayout) -> tuple:
    """Pre- and post-outage covariances of the scenario's noise-free models
    on layout, which exact localize and the heatmap score in exact_scoring:
    there an out branch's conditional correlation is an exact zero."""
    return tuple(model_from_topology(t, scenario.injection_variance, 0.0).project(layout).cov
                 for t in (scenario.topology, scenario.post_topology()))


@contextlib.contextmanager
def exact_scoring(scenario: Scenario, scorer: str):
    """Runs a block that scores the scenario's exact_covariances.  A bus that
    grid.transfer drives but that draws no injection (variance 0) moves with
    its neighbours: its coordinates keep their variance but add no rank.
    When the block raises SingularBlockError and the scenario has such
    buses, a ConfigError names them, with scorer as its subject."""
    try:
        yield
    except SingularBlockError:
        var = _injection_vector(scenario.injection_variance, scenario.topology.bus_count)
        silent = sorted({bus for t in (scenario.topology, scenario.post_topology())
                         for buses, _ in transfer(t) for bus in buses if var[bus - 1] == 0.0})
        if not silent:
            raise
        raise textconf.ConfigError(
            f"{scorer} scores the noise-free covariance, which is singular: [injection] "
            f"leaves driven buses {', '.join(map(str, silent))} at variance 0") from None


@dataclass(frozen=True)
class GroundTruth:
    lam: int | None
    out_branches: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MeasurementStream:
    """values/fresh are (horizon, dim) arrays with row t holding tick t+1."""

    schedule: SensorSchedule
    values: np.ndarray = field(repr=False)
    fresh: np.ndarray = field(repr=False)
    truth: GroundTruth = GroundTruth(None, ())
    injections: np.ndarray | None = field(default=None, repr=False)
    meta: list = field(default_factory=list)  # sidecar scenario blocks, if loaded

    @property
    def horizon(self) -> int:
        return self.values.shape[0]

    def complex_values(self) -> np.ndarray:
        """(horizon, M) complex increments; full-phasor streams only."""
        layout = self.schedule.layout
        buses = layout.buses
        kinds = {bus for bus, part in layout.entries if part == "im"}
        if set(buses) != kinds:
            raise ValueError("complex reconstruction needs phasor channels everywhere")
        re_idx = [layout.entries.index((b, "re")) for b in buses]
        im_idx = [layout.entries.index((b, "im")) for b in buses]
        return self.values[:, re_idx] + 1j * self.values[:, im_idx]


# A draw is synthesized in row blocks of _SYNTH_BUDGET float64 values, 2m a
# row (a block's complex injections, or its noise), 128 kB, so that it holds
# its values plus a few blocks.  On the monitor stream (loop12, 20 000 ticks)
# 2^16 peaked at 1.31 stream arrays against 1.15, and the heatmap's 90-bus
# tail took about 6 % longer with 2^13.
_SYNTH_BUDGET = 1 << 14


def generate(scenario: Scenario) -> MeasurementStream:
    """Synthesize the measurement stream for a scenario: the one-draw case of
    _synthesize, with the scenario's seed, outage tick and horizon."""
    return next(_synthesize(scenario, [(scenario.seed, scenario.outage_tick(), scenario.horizon)]))


def _synthesize(scenario: Scenario, draws, first: int = 0) -> Iterator[MeasurementStream]:
    """Yields the stream of every draw (seed, outage tick or None, horizon)
    of a scenario, whose own seed, outage and horizon are not read.  What
    depends only on the scenario is set up once, on the first next(), so
    its failures come from there.  A draw is drawn and transformed in row
    blocks of _SYNTH_BUDGET values, one block if it fits, else blocks that
    end at the outage split; an island's product over a block of two or
    more rows has the bits of the same rows of the whole regime's product,
    and no block of a longer regime has one row (numpy would compute it as
    a matrix-vector product).  Each draw's products use its own rows alone
    (stacking draws would change the last bits), so its stream equals, bit
    for bit, the one it gives on its own.

    A stream keeps its rows from index first on (period-1 schedules only),
    bit for bit the tail of the full one, whose normals it draws in sequence,
    when it keeps none of the pre-outage rows or two or more.
    values is column-major, and estimates from it follow that layout.
    """
    m = scenario.topology.bus_count
    std = np.sqrt(_injection_vector(scenario.injection_variance, m) / 2.0)
    # a draw's rows before split run on the pre-outage network, the rest after
    splits = [lam - 1 if lam is not None and lam <= horizon else horizon
              for _, lam, horizon in draws]
    pre = _transfer_blocks(scenario.topology) if any(s > first for s in splits) else []
    post: list[tuple[slice | np.ndarray, np.ndarray]] = []
    shift = None
    if any(split < horizon for split, (_, _, horizon) in zip(splits, draws)):
        post = _transfer_blocks(scenario.post_topology())
        if scenario.mean_shift:
            shift = np.zeros(2 * m)
            for cols, _ in post:
                shift[cols] = shift[_imag_columns(cols, m)] = scenario.mean_shift
    noise_std = np.sqrt(scenario.noise_variance) if scenario.noise_variance else None
    layout = scenario.schedule.layout
    cols = layout.indices_in(CoordinateLayout.full_phasor(m))
    every_column = np.array_equal(cols, np.arange(2 * m))
    periods = np.array(scenario.schedule.channel_periods())
    every_tick = periods == 1
    slow = [(c, int(periods[c])) for c in np.flatnonzero(~every_tick)]
    truth = scenario.out_branches

    step = max(2, _SYNTH_BUDGET // (2 * m))  # rows of a block
    for (seed, lam, horizon), split in zip(draws, splits):
        rows, split = horizon - first, max(split - first, 0)
        stacked = np.zeros((rows, 2 * m), order="F")  # re 1..M then im 1..M
        # every real part is drawn before the first imaginary one: the real
        # parts wait in the complex injections when these are kept whole,
        # else in stacked's real half
        whole = scenario.record_injections or rows <= step
        injections = np.empty((rows, m), dtype=complex) if whole else None
        real = injections.real if whole else stacked[:, :m]
        inj_rng = substream(seed, "injection")
        _discard(inj_rng, first, m, step)
        for lo in range(0, rows, step):
            real[lo:lo + step] = inj_rng.standard_normal((min(step, rows - lo), m))
        _discard(inj_rng, first, m, step)
        noise = None if noise_std is None else substream(seed, "noise")
        if noise is not None:
            _discard(noise, first, 2 * m, step)
        regimes = ((0, split, pre, None), (split, rows, post, shift))
        walk = [(0, rows)] if rows <= step else [
            span for start, stop, _, _ in regimes for span in _row_blocks(start, stop, step)]
        for lo, hi in walk:
            if whole:
                block = injections[lo:hi]
            else:
                block = np.empty((hi - lo, m), dtype=complex)
                block.real = real[lo:hi]
                real[lo:hi] = 0.0
            block.imag = inj_rng.standard_normal((hi - lo, m))
            block *= std
            for start, stop, islands, offset in regimes:
                start, stop = max(start, lo), min(stop, hi)
                if start < stop:
                    _apply_transfer(stacked[start:stop], block[start - lo:stop - lo], islands)
                    if offset is not None:
                        stacked[start:stop] += offset
            if noise is not None:
                stacked[lo:hi] += noise.normal(0.0, noise_std, (hi - lo, 2 * m))
        if not scenario.record_injections:
            injections = None

        values = stacked if every_column else stacked[:, cols]
        fresh = np.zeros(values.shape, dtype=bool)
        fresh[:, every_tick] = True
        for c, period in slow:
            # tick t carries the sum over the last period ending at or before t
            csum = np.concatenate([[0.0], np.cumsum(values[:, c])])
            ends = np.arange(period, horizon + 1, period)
            fresh[ends - 1, c] = True
            sums = np.concatenate([[0.0], csum[ends] - csum[ends - period]])
            values[:, c] = sums[np.arange(1, horizon + 1) // period]
        yield MeasurementStream(
            schedule=scenario.schedule,
            values=values,
            fresh=fresh,
            truth=GroundTruth(lam, truth),
            injections=injections,
        )


def _row_blocks(lo: int, hi: int, step: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of consecutive blocks of step rows (step >= 2) covering
    lo..hi, a one-row tail joined to the block before it, so that no block
    of a longer range has one row."""
    starts = list(range(lo, hi, step))
    if len(starts) > 1 and hi - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [hi])


def _discard(rng: np.random.Generator, rows: int, cols: int, step: int) -> None:
    """Draws and drops rows x cols standard normals, step rows at a time."""
    for lo in range(0, rows, step):
        rng.standard_normal((min(step, rows - lo), cols))


def _transfer_blocks(topology: GridTopology) -> list[tuple[slice | np.ndarray, np.ndarray]]:
    """(columns, Z^T) per energised island of grid.transfer: the 0-based
    indices of its driven buses, as a slice when they form one run of ids
    (so that reading them takes no copy) and as an index array otherwise."""
    # sorted, distinct buses form a run when they span no more ids than their count
    return [(slice(buses[0] - 1, buses[-1]) if buses[-1] - buses[0] < len(buses)
             else np.array(buses) - 1, z.T) for buses, z in transfer(topology)]


def _apply_transfer(stacked: np.ndarray, injections: np.ndarray,
                    blocks: list[tuple[slice | np.ndarray, np.ndarray]]) -> None:
    """Writes the real and imaginary parts of Z @ injections, rows of one
    regime, into the two halves of stacked, per island block of that
    regime; grounding buses and dead islands stay zero.  An island read
    through a slice multiplies a view of the injections' columns, the
    product BLAS gives for their copy bit for bit."""
    m = injections.shape[1]
    for cols, zt in blocks:
        volts = injections[:, cols] @ zt
        stacked[:, cols] = volts.real
        stacked[:, _imag_columns(cols, m)] = volts.imag


def _imag_columns(cols: slice | np.ndarray, m: int) -> slice | np.ndarray:
    """The stacked columns of the imaginary parts of the buses at cols."""
    return slice(m + cols.start, m + cols.stop) if isinstance(cols, slice) else m + cols


# --- stream files ------------------------------------------------------------

# Stream and injections files are written and read this many rows at a time,
# so that no more than one block of their text is held at once.
_BLOCK_ROWS = 2 ** 12

STREAM_HEADER = "tick,coordinate,value,fresh"
INJECTIONS_HEADER = "tick,bus,re,im"


def channel_id(bus: int, part: str) -> str:
    return f"{part}{bus}"


def write_stream(stream: MeasurementStream, data_path: str, meta_path: str,
                 scenario: Scenario | None = None,
                 injections_path: str | None = None) -> None:
    """CSV of (tick, coordinate, value, fresh) plus a sidecar with the
    schedule, ground truth and (when given) the full scenario echo.  With an
    injections file the sidecar's [stream] block also records its bus count,
    which the schedule need not reach."""
    stream_fields = {"horizon": str(stream.horizon)}
    if injections_path is not None and stream.injections is not None:
        m = stream.injections.shape[1]
        stream_fields["buses"] = str(m)
        _write_table(injections_path, INJECTIONS_HEADER, range(1, m + 1),
                     [stream.injections.real, stream.injections.imag])
    _write_table(data_path, STREAM_HEADER,
                 [channel_id(bus, part) for bus, part in stream.schedule.layout.entries],
                 [stream.values, stream.fresh])
    truth_fields = {"out_branches": ", ".join(f"{i}-{j}" for i, j in stream.truth.out_branches)}
    if stream.truth.lam is not None:
        truth_fields["lambda"] = str(stream.truth.lam)
    blocks = [("truth", truth_fields), ("stream", stream_fields),
              *_sensor_blocks(stream.schedule)]
    if scenario is not None:
        blocks.extend(scenario_blocks(scenario))
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(textconf.format_blocks(blocks))


def parse_stream(data_path: str, meta_path: str,
                 injections_path: str | None = None) -> MeasurementStream:
    """Reads a stream written by write_stream; data rows may come in any
    order, but every (tick, coordinate) of the sidecar's horizon and layout
    must appear exactly once with a finite value, and so must every (tick,
    bus) of an injections file."""
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta_blocks = textconf.parse_blocks(fh.read())
    sidecar, truth = None, {}
    for section, fields in meta_blocks:
        if section == "stream":
            sidecar = textconf.read("stream", fields, {"horizon": int, "buses": int},
                                    required=("horizon",))
        elif section == "truth":
            truth = textconf.read("truth", fields, {"lambda": int, "out_branches": textconf.pairs})
    schedule = _read_schedule(meta_blocks)
    if sidecar is None or schedule is None:
        raise textconf.ConfigError("stream sidecar missing [stream] or [sensor] blocks")
    if truth.get("lambda", 1) < 1:
        raise textconf.ConfigError(f"[truth].lambda must be at least 1, got {truth['lambda']}")
    horizon = sidecar["horizon"]
    layout = schedule.layout
    ids = [channel_id(bus, part) for bus, part in layout.entries]
    # coordinates are read as bytes in whole 64-bit words, at least one wider
    # than any channel id, so a longer one cannot be cut down to a known id
    coord_type = f"S{8 * (max(map(len, ids)) // 8 + 1)}"
    known = np.array(ids, dtype=coord_type)
    values, fresh = _shared((horizon, layout.dim), np.nan, False)
    _table_rows(data_path, STREAM_HEADER, [values, fresh], [coord_type, float, np.int8],
                lambda coords: _word_ranks(known, coords),
                lambda coord: f"unknown coordinate {coord!r}", dict(enumerate(ids)),
                flags=("fresh",))
    injections = None
    if injections_path is not None:
        # sidecars written before the bus count was recorded: the highest
        # sensed bus, right whenever the schedule senses the last bus
        buses = sidecar.get("buses", schedule.entries[-1][0])
        injections, = _shared((horizon, buses), complex(np.nan, np.nan))
        _table_rows(injections_path, INJECTIONS_HEADER, [injections.real, injections.imag],
                    [np.int64, float, float],
                    lambda bus: np.where((bus >= 1) & (bus <= buses), bus - 1, -1),
                    lambda bus: f"bus {bus} outside 1..{buses}",
                    {b: f"bus {b + 1}" for b in range(buses)})
    scenario_meta = [(section, dict(fields)) for section, fields in meta_blocks
                     if section not in ("stream", "truth")]
    return MeasurementStream(schedule=schedule, values=values, fresh=fresh,
                             truth=GroundTruth(truth.get("lambda"), truth.get("out_branches", ())),
                             injections=injections, meta=scenario_meta)


def _word_ranks(known: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Index of the string of known equal to each of coords, -1 where none
    is: bytes strings of one width, read as rows of 64-bit words.  A word is
    ranked among the known words of its column, and from the second column
    on (rank so far, word rank) among the known pairs, so ranks stay small."""
    known, words = (np.ascontiguousarray(a).view(np.uint64).reshape(a.size, -1)
                    for a in (known, coords))

    def ranks(values, known_values):
        table = np.sort(known_values)
        at = np.minimum(np.searchsorted(table, values), table.size - 1)
        return at, table[at] == values, np.searchsorted(table, known_values)

    found = np.ones(len(words), dtype=bool)
    for j in range(known.shape[1]):
        at, hit, known_at = ranks(words[:, j], known[:, j])
        found &= hit
        if j:
            at, hit, known_at = ranks(rank * len(known) + at, known_rank * len(known) + known_at)
            found &= hit
        rank, known_rank = at, known_at
    return np.where(found, np.argsort(known_rank)[rank], -1)


def _write_table(path: str, header: str, keys: Sequence, columns: list[np.ndarray]) -> None:
    """Writes header, then tick-major one row "tick,key,cell,..." per tick
    and key: keys label the columns of the (horizon, len(keys)) arrays in
    columns, whose float cells are written with repr and bool cells as 1/0.
    When _splits, a forked child writes the later blocks to a file then appended."""
    horizon = len(columns[0])
    step = max(1, _BLOCK_ROWS // len(keys))
    heads = [f",{key}," for key in keys]

    def emit(fh, lo: int, hi: int) -> None:
        for t0 in range(lo, hi, step):
            ticks = list(map(str, range(t0 + 1, min(t0 + step, hi) + 1)))
            kinds = [itertools.chain.from_iterable(zip(*[ticks] * len(keys))), heads * len(ticks)]
            for col, end in zip(columns, [","] * (len(columns) - 1) + ["\n"]):
                cells = col[t0:t0 + step].ravel().tolist()
                kinds += ([map(("0" + end, "1" + end).__getitem__, cells)] if col.dtype == bool
                          else [map(repr, cells), [end] * len(cells)])
            parts = [""] * (len(kinds) * len(ticks) * len(keys))
            for k, kind in enumerate(kinds):
                parts[k::len(kinds)] = kind
            fh.write("".join(parts))
        fh.flush()

    blocks = -(-horizon // step)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        if not _splits(blocks):
            return emit(fh, 0, horizon)
        cut = blocks // 2 * step
        with tempfile.TemporaryFile("w+", encoding="utf-8",
                                    dir=os.path.dirname(os.path.abspath(path))) as part:
            forking.forked(lambda: emit(fh, 0, cut), lambda: emit(part, cut, horizon))
            part.seek(0)
            shutil.copyfileobj(part.buffer, fh.buffer)


def _table_rows(path: str, header: str, targets: list[np.ndarray], types: list, column,
                unknown, labels: dict[int, str], flags: tuple[str, ...] = ()) -> None:
    """Parses a stream or injections file, block by block, into targets:
    (horizon, columns) arrays, the first NaN-filled, one per data field of
    header (typed by types), at [tick - 1, column].  column(keys) maps keys
    to columns, -1 for an unknown key, which unknown(key) describes;
    labels[c] names column c; the fields named in flags must hold 0 or 1.
    ConfigError names the first faulty row or missing cell.  When _splits,
    a forked child parses the lines past the file's middle."""
    names = header.split(",")
    dtype = np.dtype(list(zip(names, [np.int64, *types])))
    horizon = len(targets[0])

    def parse(lo: int, hi: int) -> int:
        # the data rows in bytes lo..hi; _RowFault counts rows from lo
        with io.TextIOWrapper(io.BufferedReader(_Span(path, lo, hi)), encoding="utf-8") as fh:
            if not lo:
                found = fh.readline().strip()
                if found != header:
                    raise textconf.ConfigError(
                        f"{path}: unexpected header {found!r}, expected {header}")
            first = 0
            while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
                block = None
                if "\n" not in lines:  # loadtxt would skip a blank row
                    with contextlib.suppress(ValueError):
                        block = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                           ndmin=1)
                if block is None:
                    k, fault = _row_fault(lines, dtype)
                    raise _RowFault(first + k, fault)
                t = block["tick"] - 1
                c = column(block[names[1]])
                bad = (t < 0) | (t >= horizon) | (c < 0)
                if bad.any():
                    k = int(bad.argmax())
                    tick_s, key_s = lines[k].split(",")[:2]
                    raise _RowFault(first + k, unknown(key_s) if 0 <= t[k] < horizon
                                    else f"tick {tick_s} outside 1..{horizon}")
                for name in flags:
                    off = (block[name] != 0) & (block[name] != 1)
                    if off.any():
                        k = int(off.argmax())
                        raise _RowFault(first + k, f"{name} must be 0 or 1, "
                                                   f"got {block[name][k]}")
                for target, name in zip(targets, names[2:]):
                    target[t, c] = block[name]
                first += len(lines)
        return first

    end = os.path.getsize(path)
    try:
        if _splits(-(-targets[0].size // _BLOCK_ROWS)):
            with open(path, "rb") as fh:
                fh.seek(end // 2)
                cut = end // 2 + len(fh.readline())

            def tail() -> tuple:  # (rows, None) or (None, the fault's args)
                try:
                    return parse(cut, end), None
                except _RowFault as fault:
                    return None, fault.args

            mine, (theirs, fault) = forking.forked(lambda: parse(0, cut), tail)
            if fault:  # moved past the rows of the first half
                raise _RowFault(mine + fault[0], fault[1])
            rows = mine + theirs
        else:
            rows = parse(0, end)
    except _RowFault as fault:
        raise textconf.ConfigError(f"{path} row {fault.args[0] + 1}: {fault.args[1]}") from None
    if rows != targets[0].size or not all(np.isfinite(t).all() for t in targets):
        raise textconf.ConfigError(_table_fault(path, targets[0], labels))


class _RowFault(Exception):
    """args: (index of a faulty row among the rows read, its fault)."""


class _Span(io.FileIO):
    """A file read from byte lo up to byte hi."""

    read, readall = io.RawIOBase.read, io.RawIOBase.readall  # through readinto

    def __init__(self, path: str, lo: int, hi: int):
        super().__init__(path)
        self._left = hi - self.seek(lo)

    def readinto(self, buffer) -> int:
        n = super().readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n


def _splits(blocks: int) -> bool:
    """Whether two processes write or read a table file of this many blocks."""
    return blocks >= 2 and forking.may_fork()


def _shared(shape: tuple[int, int], *fills) -> list[np.ndarray]:
    """Arrays of one shape, typed like and filled with fills, in one
    anonymous shared memory map, so that a forked child writes into them."""
    import mmap  # loaded with the first table parse, not with the package

    n, kinds = shape[0] * shape[1], [np.asarray(fill).dtype for fill in fills]
    at = np.cumsum([0] + [n * kind.itemsize for kind in kinds]).tolist()
    memory = mmap.mmap(-1, max(1, at[-1]))
    arrays = [np.frombuffer(memory, kind, n, at[i]).reshape(shape) for i, kind in enumerate(kinds)]
    for array, fill in zip(arrays, fills):
        array[...] = fill
    return arrays


def _row_fault(lines: list[str], dtype: np.dtype) -> tuple[int, str]:
    """Index and description of the first row of a block that np.loadtxt
    skips (a blank row) or rejects (a wrong field count or an unparsable
    field); the block's first row if no single row fails."""
    for k, line in enumerate(lines):
        text = line.rstrip("\n")
        if not text:
            return k, "blank row"
        try:
            np.loadtxt([line], dtype=dtype, delimiter=",", comments=None)
        except ValueError:
            return k, f"malformed row {text!r}, expected {','.join(dtype.names)}"
    return 0, "malformed block of rows"


def _table_fault(path: str, values: np.ndarray, names: dict[int, str]) -> str:
    """Names the first duplicate or non-finite row of a stream or injections
    file, or the first missing (tick, column) cell, names[c] labelling
    column c; called only once parsing failed."""
    seen: set[tuple[str, str]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for row, line in enumerate(fh, start=1):
            tick_s, key, *numbers = line.rstrip("\n").split(",")
            if (tick_s, key) in seen:
                return f"{path} row {row}: duplicate row for tick {tick_s} {key}"
            seen.add((tick_s, key))
            for number in numbers:
                if not np.isfinite(float(number)):
                    return f"{path} row {row}: non-finite value {number} at {key}"
    t, c = np.argwhere(np.isnan(values))[0]
    return f"{path}: no row for tick {t + 1} {names[c]}"


# --- scenario config blocks ---------------------------------------------------

_SCENARIO = {"outage": textconf.pairs, "lambda": int, "outage_rho": float,
             "injection_variance": float, "noise_variance": float, "horizon": int,
             "seed": int, "mean_shift": float, "record_injections": textconf.boolean,
             "feeder": str}
# the config keys named otherwise than the Scenario field they set
_RENAMED = {"outage": "out_branches", "lambda": "lam"}
_SENSOR = {"bus": int, "kind": str, "period": int}


def _sensor_blocks(schedule: SensorSchedule) -> list[tuple[str, dict[str, str]]]:
    return [("sensor", {"bus": str(bus), "kind": kind, "period": str(period)})
            for bus, kind, period in schedule.entries]


def _read_schedule(blocks) -> SensorSchedule | None:
    """The schedule of the [sensor] blocks, None without one.  A repeated
    block is read once, as a stream sidecar holds each twice (in the
    scenario echo); two that disagree about a bus are a duplicate entry."""
    entries = {}
    for section, fields in blocks:
        if section == "sensor":
            sensor = textconf.read("sensor", fields, _SENSOR, required=_SENSOR)
            entries[sensor["bus"], sensor["kind"], sensor["period"]] = None
    return SensorSchedule(tuple(entries)) if entries else None


def scenario_blocks(scenario: Scenario) -> list[tuple[str, dict[str, str]]]:
    """Scenario echo as config blocks, feeder embedded inline."""
    fields: dict[str, str] = {}
    if scenario.out_branches:
        fields["outage"] = ", ".join(f"{i}-{j}" for i, j in scenario.out_branches)
        if scenario.lam is not None:
            fields["lambda"] = str(scenario.lam)
        else:
            fields["outage_rho"] = repr(scenario.outage_rho)
    if not isinstance(scenario.injection_variance, dict):
        fields["injection_variance"] = repr(float(scenario.injection_variance))
    fields["noise_variance"] = repr(scenario.noise_variance)
    fields["horizon"] = str(scenario.horizon)
    fields["seed"] = str(scenario.seed)
    if scenario.mean_shift:
        fields["mean_shift"] = repr(scenario.mean_shift)
    if scenario.record_injections:
        fields["record_injections"] = "true"
    blocks = [("scenario", fields)]
    if isinstance(scenario.injection_variance, dict):
        blocks.append(("injection", {f"bus{b}": repr(float(v))
                                     for b, v in sorted(scenario.injection_variance.items())}))
    blocks.extend(textconf.parse_blocks(format_feeder(scenario.topology)))
    return blocks + _sensor_blocks(scenario.schedule)


def scenario_from_blocks(blocks: list[tuple[str, dict[str, str]]],
                         config_dir: str = "") -> Scenario:
    """Rebuild a Scenario from config blocks (inverse of scenario_blocks).

    The feeder is the one the [scenario] feeder key names, a file path
    relative to config_dir or else a bundled name, or without that key the
    one of the inline [bus]/[branch] blocks.
    """
    fields: dict[str, str] = {}
    injection: dict[str, str] = {}
    feeder_blocks = []
    for section, block in blocks:
        if section == "scenario":
            fields = block
        elif section == "injection":
            injection.update(block)
        elif section in ("bus", "branch"):
            feeder_blocks.append((section, block))
    options = textconf.read("scenario", fields, _SCENARIO)
    feeder = options.pop("feeder", None)
    if feeder is not None:
        path = os.path.join(config_dir, feeder)
        topology = load_feeder(path if os.path.exists(path) else feeder)
    elif feeder_blocks:
        topology = parse_feeder(textconf.format_blocks(feeder_blocks))
    else:
        raise textconf.ConfigError("no feeder given: need inline [bus]/[branch] "
                                   "blocks or a feeder reference")
    variances = textconf.read("injection", injection,
                              {f"bus{b}": float for b in range(1, topology.bus_count + 1)})
    if variances:
        if "injection_variance" in options:
            raise textconf.ConfigError("[scenario].injection_variance and an [injection] "
                                       "block are given together: set one of them")
        options["injection_variance"] = {int(key[3:]): v for key, v in variances.items()}
    return Scenario(topology=topology, schedule=_read_schedule(blocks),
                    **{_RENAMED.get(key, key): value for key, value in options.items()})
