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
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import textconf
from .detector import GeometricPrior
from .gaussmodel import (
    MAGNITUDE,
    PHASOR,
    CoordinateLayout,
    GaussianModel,
    _injection_vector,
    model_from_topology,
)
from .grid import GridTopology, apply_outage, format_feeder, parse_feeder, philox_key, transfer


def substream(seed: int, *labels) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *labels)))


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
    def all_phasor(cls, bus_count: int, period: int = 1) -> "SensorSchedule":
        return cls(tuple((b, PHASOR, period) for b in range(1, bus_count + 1)))

    @classmethod
    def all_magnitude(cls, bus_count: int, period: int = 1) -> "SensorSchedule":
        return cls(tuple((b, MAGNITUDE, period) for b in range(1, bus_count + 1)))

    @classmethod
    def from_kinds(cls, kinds: dict[int, tuple[str, int]]) -> "SensorSchedule":
        return cls(tuple((b, k, p) for b, (k, p) in sorted(kinds.items())))

    def layout(self) -> CoordinateLayout:
        return CoordinateLayout.from_kinds({b: k for b, k, _ in self.entries})

    def period_of(self, bus: int) -> int:
        for b, _, p in self.entries:
            if b == bus:
                return p
        raise KeyError(f"bus {bus} not in schedule")

    def channel_periods(self, layout: CoordinateLayout) -> list[int]:
        return [self.period_of(bus) for bus, _ in layout.entries]


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
        object.__setattr__(self, "out_branches", self.normalized_outage())
        if self.out_branches:
            known = {br.pair for br in self.topology.branches}
            for pair in self.out_branches:
                if pair not in known:
                    raise ValueError(f"outage branch {pair} not in topology")
            if self.lam is None and self.outage_rho is None:
                raise ValueError("outage needs a fixed time (lam) or a rate (outage_rho)")
            if self.lam is not None and not 1 <= self.lam <= self.horizon:
                raise ValueError(f"lam {self.lam} outside 1..{self.horizon}")
        if self.schedule is None:
            object.__setattr__(
                self, "schedule", SensorSchedule.all_phasor(self.topology.bus_count))

    def normalized_outage(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((min(i, j), max(i, j)) for i, j in self.out_branches))

    def pre_model(self) -> GaussianModel:
        return model_from_topology(self.topology, self.injection_variance,
                                   self.noise_variance)

    def post_model(self) -> GaussianModel:
        return model_from_topology(self.post_topology(), self.injection_variance,
                                   self.noise_variance)

    def post_topology(self) -> GridTopology:
        if not self.out_branches:
            return self.topology
        return apply_outage(self.topology, set(self.normalized_outage()))


@dataclass(frozen=True)
class GroundTruth:
    lam: int | None
    out_branches: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MeasurementStream:
    """values/fresh are (horizon, dim) arrays with row t holding tick t+1."""

    layout: CoordinateLayout
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
        buses = self.layout.buses
        kinds = {bus for bus, part in self.layout.entries if part == "im"}
        if set(buses) != kinds:
            raise ValueError("complex reconstruction needs phasor channels everywhere")
        re_idx = [self.layout.entries.index((b, "re")) for b in buses]
        im_idx = [self.layout.entries.index((b, "im")) for b in buses]
        return self.values[:, re_idx] + 1j * self.values[:, im_idx]


def sample_outage_time(prior, seed: int) -> int:
    """Geometric outage tick, deterministic per seed; accepts a
    GeometricPrior or a bare rate in (0, 1]."""
    rho = prior.rho if isinstance(prior, GeometricPrior) else float(prior)
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if rho == 1.0:
        return 1
    return int(substream(seed, "outage-time").geometric(rho))


def generate(scenario: Scenario) -> MeasurementStream:
    """Synthesize the measurement stream for a scenario."""
    top = scenario.topology
    m = top.bus_count
    t_total = scenario.horizon

    lam: int | None = None
    if scenario.out_branches:
        lam = scenario.lam if scenario.lam is not None else sample_outage_time(
            scenario.outage_rho, scenario.seed)

    inj_rng = substream(scenario.seed, "injection")
    std = np.sqrt(_injection_vector(scenario.injection_variance, m) / 2.0)
    injections = (inj_rng.normal(size=(t_total, m)) +
                  1j * inj_rng.normal(size=(t_total, m))) * std

    volts = np.zeros((t_total, m), dtype=complex)
    pre_rows = np.arange(t_total) < (lam - 1 if lam is not None else t_total)
    _apply_transfer(volts, injections, pre_rows, top)
    if lam is not None and lam <= t_total:
        post_top = scenario.post_topology()
        _apply_transfer(volts, injections, ~pre_rows, post_top)
    else:
        post_top = top

    stacked = np.hstack([volts.real, volts.imag])  # re 1..M then im 1..M
    if scenario.mean_shift and lam is not None and lam <= t_total:
        shift = np.zeros(2 * m)
        for buses, _ in transfer(post_top):
            idx = np.array(buses) - 1
            shift[idx] = scenario.mean_shift
            shift[m + idx] = scenario.mean_shift
        stacked[lam - 1:] += shift

    noise_rng = substream(scenario.seed, "noise")
    noise = noise_rng.normal(size=(t_total, 2 * m))
    if scenario.noise_variance:
        stacked = stacked + np.sqrt(scenario.noise_variance) * noise

    layout = scenario.schedule.layout()
    full = CoordinateLayout.full_phasor(m)
    cols = layout.indices_in(full)
    raw = stacked[:, cols]

    values = np.empty_like(raw)
    fresh = np.zeros(raw.shape, dtype=bool)
    for c, (bus, _part) in enumerate(layout.entries):
        period = scenario.schedule.period_of(bus)
        if period == 1:
            values[:, c] = raw[:, c]
            fresh[:, c] = True
            continue
        # tick t carries the sum over the last period ending at or before t
        csum = np.concatenate([[0.0], np.cumsum(raw[:, c])])
        ends = np.arange(period, t_total + 1, period)
        fresh[ends - 1, c] = True
        sums = np.concatenate([[0.0], csum[ends] - csum[ends - period]])
        values[:, c] = sums[np.arange(1, t_total + 1) // period]

    return MeasurementStream(
        layout=layout,
        schedule=scenario.schedule,
        values=values,
        fresh=fresh,
        truth=GroundTruth(lam, scenario.normalized_outage()),
        injections=injections if scenario.record_injections else None,
    )


def _apply_transfer(volts: np.ndarray, injections: np.ndarray, rows: np.ndarray,
                    topology: GridTopology) -> None:
    """volts[rows] = Z @ injections[rows] per energised island of
    grid.transfer; grounding buses and dead islands stay zero."""
    if not rows.any():
        return
    for buses, z in transfer(topology):
        idx = [b - 1 for b in buses]
        volts[np.ix_(rows, idx)] = injections[np.ix_(rows, idx)] @ z.T


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
                 [channel_id(bus, part) for bus, part in stream.layout.entries],
                 [stream.values, stream.fresh])
    blocks: list[tuple[str, dict[str, str]]] = []
    truth_fields = {"out_branches": ", ".join(f"{i}-{j}" for i, j in stream.truth.out_branches)}
    if stream.truth.lam is not None:
        truth_fields["lambda"] = str(stream.truth.lam)
    blocks.append(("truth", truth_fields))
    blocks.append(("stream", stream_fields))
    for bus, kind, period in stream.schedule.entries:
        blocks.append(("sensor", {"bus": str(bus), "kind": kind, "period": str(period)}))
    if scenario is not None:
        blocks.extend(scenario_blocks(scenario))
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(textconf.format_blocks(blocks))


def parse_stream(data_path: str, meta_path: str,
                 injections_path: str | None = None) -> MeasurementStream:
    """Reads a stream written by write_stream; data rows may come in any
    order, but every (tick, coordinate) of the sidecar's horizon and layout
    must appear exactly once with a finite value."""
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta_blocks = textconf.parse_blocks(fh.read())
    horizon = None
    buses = -1
    lam = None
    out_branches: tuple[tuple[int, int], ...] = ()
    sensors: dict[int, tuple[str, int]] = {}
    for section, fields in meta_blocks:
        if section == "stream":
            horizon = textconf.as_int("stream", fields, "horizon")
            buses = textconf.as_int("stream", fields, "buses", -1)
        elif section == "truth":
            lam = textconf.as_int("truth", fields, "lambda", -1)
            lam = None if lam == -1 else lam
            out_branches = tuple(textconf.as_pairs("truth", fields, "out_branches", []))
        elif section == "sensor":
            bus = textconf.as_int("sensor", fields, "bus")
            sensors[bus] = (textconf.as_str("sensor", fields, "kind"),
                            textconf.as_int("sensor", fields, "period"))
    if horizon is None or not sensors:
        raise textconf.ConfigError("stream sidecar missing [stream] or [sensor] blocks")
    schedule = SensorSchedule.from_kinds(sensors)
    layout = schedule.layout()
    ids = np.array([channel_id(bus, part) for bus, part in layout.entries])
    order = np.argsort(ids)

    def column(coords: np.ndarray) -> np.ndarray:
        k = order[np.minimum(np.searchsorted(ids, coords, sorter=order), ids.size - 1)]
        return np.where(ids[k] == coords, k, -1)

    # one character wider than any channel id, so a longer coordinate
    # cannot be cut down to a known one
    coord_type = f"U{max(map(len, ids)) + 1}"
    values = np.full((horizon, layout.dim), np.nan)
    fresh = np.zeros((horizon, layout.dim), dtype=bool)
    rows = 0
    for block, t, c in _table_rows(data_path, STREAM_HEADER, horizon,
                                   [coord_type, float, np.int8], column,
                                   lambda coord: f"unknown coordinate {coord!r}",
                                   flags=("fresh",)):
        values[t, c] = block["value"]
        fresh[t, c] = block["fresh"] == 1
        rows += block.size
    if rows != horizon * layout.dim or not np.isfinite(values).all():
        raise textconf.ConfigError(_table_fault(data_path, values, dict(enumerate(ids))))
    injections = None
    if injections_path is not None:
        # sidecars written before the bus count was recorded: the highest
        # sensed bus, right whenever the schedule senses the last bus
        if buses == -1:
            buses = schedule.entries[-1][0]
        injections = _parse_injections(injections_path, horizon, buses)
    scenario_meta = [(section, dict(fields)) for section, fields in meta_blocks
                     if section not in ("stream", "truth")]
    return MeasurementStream(layout=layout, schedule=schedule, values=values,
                             fresh=fresh, truth=GroundTruth(lam, out_branches),
                             injections=injections, meta=scenario_meta)


def _parse_injections(path: str, horizon: int, buses: int) -> np.ndarray:
    """(horizon, buses) complex injections from an injections file, checked
    like a stream file: every (tick, bus) exactly once, in range, finite."""
    values = np.full((horizon, buses), complex(np.nan, np.nan))
    rows = 0
    for block, t, b in _table_rows(path, INJECTIONS_HEADER, horizon,
                                   [np.int64, float, float],
                                   lambda bus: np.where((bus >= 1) & (bus <= buses), bus - 1, -1),
                                   lambda bus: f"bus {bus} outside 1..{buses}"):
        values.real[t, b] = block["re"]
        values.imag[t, b] = block["im"]
        rows += block.size
    if rows != horizon * buses or not np.isfinite(values).all():
        raise textconf.ConfigError(
            _table_fault(path, values, {b: f"bus {b + 1}" for b in range(buses)}))
    return values


def _write_table(path: str, header: str, keys: Sequence, columns: list[np.ndarray]) -> None:
    """Writes header, then tick-major one row "tick,key,cell,..." per tick
    and key: keys label the columns of the (horizon, len(keys)) arrays in
    columns, whose float cells are written with repr and bool cells as 1/0."""
    horizon = len(columns[0])
    step = max(1, _BLOCK_ROWS // len(keys))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for t0 in range(0, horizon, step):
            parts = [[f"{t},{key}" for t in range(t0 + 1, min(t0 + step, horizon) + 1)
                      for key in keys]]
            for col in columns:
                cells = col[t0:t0 + step].ravel().tolist()
                parts.append([",1" if cell else ",0" for cell in cells] if col.dtype == bool
                             else [f",{cell!r}" for cell in cells])
            parts.append(itertools.repeat("\n"))
            fh.write("".join(itertools.chain.from_iterable(zip(*parts))))


def _table_rows(path: str, header: str, horizon: int, types: list, column, unknown,
                flags: tuple[str, ...] = ()):
    """Parses the data rows of a stream or injections file block by block.

    header names the fields: tick, key, then the data fields, whose numpy
    types are given.  column(keys) maps a block's keys to column indices,
    -1 for a key outside the table, and unknown(key) describes such a key;
    the fields named in flags must hold 0 or 1.  Yields (parsed rows, tick
    indices, column indices) per block; raises ConfigError naming the first
    blank, malformed, out-of-range or unknown row, or one with a flag
    outside 0 and 1.
    """
    names = header.split(",")
    dtype = np.dtype(list(zip(names, [np.int64, *types])))
    with open(path, "r", encoding="utf-8") as fh:
        found = fh.readline().strip()
        if found != header:
            raise textconf.ConfigError(f"{path}: unexpected header {found!r}, expected {header}")
        first = 1
        while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
            block = None
            if "\n" not in lines:  # loadtxt would skip a blank row
                with contextlib.suppress(ValueError):
                    block = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                       ndmin=1)
            if block is None:
                k, fault = _row_fault(lines, dtype)
                raise textconf.ConfigError(f"{path} row {first + k}: {fault}")
            t = block["tick"] - 1
            c = column(block[names[1]])
            bad = (t < 0) | (t >= horizon) | (c < 0)
            if bad.any():
                k = int(bad.argmax())
                tick_s, key_s = lines[k].split(",")[:2]
                fault = (unknown(key_s) if 0 <= t[k] < horizon
                         else f"tick {tick_s} outside 1..{horizon}")
                raise textconf.ConfigError(f"{path} row {first + k}: {fault}")
            for name in flags:
                off = (block[name] != 0) & (block[name] != 1)
                if off.any():
                    k = int(off.argmax())
                    raise textconf.ConfigError(f"{path} row {first + k}: {name} must be "
                                               f"0 or 1, got {block[name][k]}")
            yield block, t, c
            first += len(lines)


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

_SCENARIO_KEYS = {"outage", "lambda", "outage_rho", "injection_variance",
                  "noise_variance", "horizon", "seed", "mean_shift",
                  "record_injections", "feeder"}


def scenario_blocks(scenario: Scenario) -> list[tuple[str, dict[str, str]]]:
    """Scenario echo as config blocks, feeder embedded inline."""
    fields: dict[str, str] = {}
    if scenario.out_branches:
        fields["outage"] = ", ".join(f"{i}-{j}" for i, j in scenario.normalized_outage())
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
    for bus, kind, period in scenario.schedule.entries:
        blocks.append(("sensor", {"bus": str(bus), "kind": kind, "period": str(period)}))
    return blocks


def scenario_from_blocks(blocks: list[tuple[str, dict[str, str]]],
                         topology: GridTopology | None = None) -> Scenario:
    """Rebuild a Scenario from config blocks (inverse of scenario_blocks).

    A topology built from inline [bus]/[branch] blocks is used unless an
    explicit one is passed.
    """
    fields: dict[str, str] = {}
    injection: dict[int, float] = {}
    sensors: dict[int, tuple[str, int]] = {}
    feeder_blocks = []
    for section, block in blocks:
        if section == "scenario":
            fields = block
        elif section == "injection":
            for key, value in block.items():
                if not key.startswith("bus"):
                    raise textconf.ConfigError(f"[injection]: bad key {key!r}")
                injection[int(key[3:])] = float(value)
        elif section == "sensor":
            bus = textconf.as_int("sensor", block, "bus")
            sensors[bus] = (textconf.as_str("sensor", block, "kind"),
                            textconf.as_int("sensor", block, "period"))
        elif section in ("bus", "branch"):
            feeder_blocks.append((section, block))
    textconf.check_keys("scenario", fields, _SCENARIO_KEYS)
    if topology is None:
        if not feeder_blocks:
            raise textconf.ConfigError("no feeder given: need inline [bus]/[branch] "
                                       "blocks or a feeder reference")
        topology = parse_feeder(textconf.format_blocks(feeder_blocks))
    lam = textconf.as_int("scenario", fields, "lambda", -1)
    rho = textconf.as_float("scenario", fields, "outage_rho", -1.0)
    return Scenario(
        topology=topology,
        out_branches=tuple(textconf.as_pairs("scenario", fields, "outage", [])),
        lam=None if lam == -1 else lam,
        outage_rho=None if rho == -1.0 else rho,
        injection_variance=injection if injection else textconf.as_float(
            "scenario", fields, "injection_variance", 1.0),
        noise_variance=textconf.as_float("scenario", fields, "noise_variance", 1e-8),
        schedule=SensorSchedule.from_kinds(sensors) if sensors else None,
        horizon=textconf.as_int("scenario", fields, "horizon", 100),
        seed=textconf.as_int("scenario", fields, "seed", 0),
        mean_shift=textconf.as_float("scenario", fields, "mean_shift", 0.0),
        record_injections=textconf.as_bool("scenario", fields, "record_injections", False),
    )
