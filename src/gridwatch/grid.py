"""Distribution network topology: admittance assembly, outage switching,
island analysis, the per-island network transfer and Kron reduction.

Buses are numbered 1..M.  Bus 1 is the conventional slack (feeder head).
The admittance model is series-branch only: Y_ij = -y_ij for an in-service
branch (i, j) and Y_ii is the sum of incident branch admittances, so row
sums are exactly zero.  Shunt terms are out of scope.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.resources
from dataclasses import dataclass, field, replace

import numpy as np

from . import textconf


class TopologyError(ValueError):
    """Invalid bus/branch structure."""


class SingularBlockError(np.linalg.LinAlgError):
    """A matrix block that must be inverted is singular; names the block."""

    def __init__(self, block: str, detail: str = ""):
        self.block = block
        self.detail = detail
        message = f"singular block {block}"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        # rebuilt from its parts, so that it pickles (as from a forked child)
        # with its message intact
        return type(self), (self.block, self.detail)


def _norm_pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    admittance: complex
    in_service: bool = True

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise TopologyError(f"branch {self.from_bus}-{self.to_bus} is a self-loop")

    @property
    def pair(self) -> tuple[int, int]:
        return _norm_pair(self.from_bus, self.to_bus)


@dataclass(frozen=True)
class GridTopology:
    """Immutable network description.

    Parallel branches between the same bus pair are merged (admittance sum)
    at construction, matching how feeder files are loaded.
    """

    bus_count: int
    branches: tuple[Branch, ...]
    slack: frozenset[int] = frozenset({1})
    der_buses: frozenset[int] = frozenset()
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.bus_count < 1:
            raise TopologyError("bus_count must be >= 1")
        merged: dict[tuple[int, int], Branch] = {}
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if not 1 <= end <= self.bus_count:
                    raise TopologyError(f"branch endpoint {end} outside 1..{self.bus_count}")
            if br.pair in merged:
                prev = merged[br.pair]
                merged[br.pair] = Branch(
                    *br.pair,
                    admittance=prev.admittance + br.admittance,
                    in_service=prev.in_service and br.in_service,
                )
            else:
                merged[br.pair] = Branch(br.from_bus, br.to_bus, br.admittance, br.in_service)
        object.__setattr__(self, "branches", tuple(merged[p] for p in sorted(merged)))
        for bus_set, label in ((self.slack, "slack"), (self.der_buses, "der")):
            for b in bus_set:
                if not 1 <= b <= self.bus_count:
                    raise TopologyError(f"{label} bus {b} outside 1..{self.bus_count}")
        object.__setattr__(self, "slack", frozenset(self.slack))
        object.__setattr__(self, "der_buses", frozenset(self.der_buses))

    def branch_map(self) -> dict[tuple[int, int], Branch]:
        return {br.pair: br for br in self.branches}

    def adjacency(self) -> dict[int, set[int]]:
        """Neighbour sets over in-service branches."""
        adj: dict[int, set[int]] = {b: set() for b in range(1, self.bus_count + 1)}
        for br in self.branches:
            if br.in_service:
                adj[br.from_bus].add(br.to_bus)
                adj[br.to_bus].add(br.from_bus)
        return adj


def build_admittance(topology: GridTopology) -> np.ndarray:
    """Assemble the (M, M) complex nodal admittance matrix by KCL stamping,
    bus b at index b - 1.

    Out-of-service branches contribute nothing; in-service branches must
    have nonzero admittance.
    """
    m = topology.bus_count
    matrix = np.zeros((m, m), dtype=complex)
    seen: set[tuple[int, int]] = set()
    for br in topology.branches:
        if br.pair in seen:
            raise TopologyError(f"duplicate branch {br.pair} after merge pass")
        seen.add(br.pair)
        if not br.in_service:
            continue
        if br.admittance == 0:
            raise TopologyError(f"in-service branch {br.pair} has zero admittance")
        i, j = br.from_bus - 1, br.to_bus - 1
        y = br.admittance
        matrix[i, j] -= y
        matrix[j, i] -= y
        matrix[i, i] += y
        matrix[j, j] += y
    return matrix


def apply_outage(topology: GridTopology, out: set[tuple[int, int]]) -> GridTopology:
    """Return a copy with the given branches switched out of service."""
    wanted = {_norm_pair(*p) for p in out}
    known = topology.branch_map()
    for pair in wanted:
        if pair not in known:
            raise TopologyError(f"unknown branch {pair}")
        if not known[pair].in_service:
            raise TopologyError(f"branch {pair} is already out of service")
    new_branches = tuple(
        replace(br, in_service=False) if br.pair in wanted else br
        for br in topology.branches
    )
    return replace(topology, branches=new_branches)


@dataclass(frozen=True)
class Island:
    """One connected component of the in-service graph.

    kind is "slack" (energised from the feeder head), "der" (energised by a
    local DER) or "dead" (no source: zero voltage)."""

    buses: frozenset[int]
    kind: str


def islands(topology: GridTopology) -> list[Island]:
    """Connected components labelled by their energisation source.

    Output is sorted by smallest bus id, independent of branch order.
    """
    adj = topology.adjacency()
    unseen = set(range(1, topology.bus_count + 1))
    out: list[Island] = []
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
        if comp & topology.slack:
            kind = "slack"
        elif comp & topology.der_buses:
            kind = "der"
        else:
            kind = "dead"
        out.append(Island(frozenset(comp), kind))
    return out


TRANSFER_CACHE_SIZE = 32


@functools.lru_cache(maxsize=TRANSFER_CACHE_SIZE)
def transfer(topology: GridTopology) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
    """Per energised island, its driven buses and the transfer matrix
    Z = Y[buses, buses]^-1 that maps their injection increments to their
    voltage increments (dV = Z dI).

    An island is grounded at its slack buses or, when it has none, at its
    lowest DER bus; `buses` is the rest of the island in ascending order.
    Dead islands and islands holding only grounding buses are left out.
    Memoised per topology (the model and the simulator both ask for it), so
    the Z arrays are read-only: every caller shares them.
    """
    Y = build_admittance(topology)
    blocks = []
    for island in islands(topology):
        if island.kind == "dead":
            continue
        if island.kind == "slack":
            grounding = island.buses & topology.slack
        else:
            grounding = {min(island.buses & topology.der_buses)}
        buses = sorted(island.buses - grounding)
        if not buses:
            continue
        idx = [b - 1 for b in buses]
        try:
            z = np.linalg.inv(Y[np.ix_(idx, idx)])
        except np.linalg.LinAlgError:
            raise SingularBlockError("Y[component]", f"buses {buses}") from None
        z.flags.writeable = False
        blocks.append((tuple(buses), z))
    return tuple(blocks)


# --- bundled feeders -------------------------------------------------------

_BUS = {"id": int, "slack": textconf.boolean, "der": textconf.boolean}
_BRANCH = {"from": int, "to": int, "conductance": float, "susceptance": float,
           "in_service": textconf.boolean}


def parse_feeder(text: str, name: str = "") -> GridTopology:
    """Parse the feeder file format ([bus]/[branch] blocks)."""
    buses: list[int] = []
    slack: set[int] = set()
    der: set[int] = set()
    branches: list[Branch] = []
    for section, fields in textconf.parse_blocks(text):
        if section == "bus":
            options = textconf.read("bus", fields, _BUS, required=("id",))
            bus = options["id"]
            if bus in buses:
                raise textconf.ConfigError(f"duplicate bus id {bus}")
            buses.append(bus)
            if options.get("slack"):
                slack.add(bus)
            if options.get("der"):
                der.add(bus)
        elif section == "branch":
            br = textconf.read("branch", fields, _BRANCH,
                               required=("from", "to", "conductance", "susceptance"))
            branches.append(Branch(br.pop("from"), br.pop("to"),
                                   complex(br.pop("conductance"), br.pop("susceptance")),
                                   **br))
        else:
            raise textconf.ConfigError(f"unknown section [{section}] in feeder file")
    if not buses:
        raise textconf.ConfigError("feeder file has no [bus] entries")
    if sorted(buses) != list(range(1, len(buses) + 1)):
        raise textconf.ConfigError(f"bus ids must be 1..M, got {sorted(buses)}")
    return GridTopology(len(buses), tuple(branches), frozenset(slack), frozenset(der), name)


def format_feeder(topology: GridTopology) -> str:
    blocks: list[tuple[str, dict[str, str]]] = []
    for bus in range(1, topology.bus_count + 1):
        fields = {"id": str(bus)}
        if bus in topology.slack:
            fields["slack"] = "true"
        if bus in topology.der_buses:
            fields["der"] = "true"
        blocks.append(("bus", fields))
    for br in topology.branches:
        blocks.append(("branch", {
            "from": str(br.from_bus),
            "to": str(br.to_bus),
            "conductance": repr(br.admittance.real),
            "susceptance": repr(br.admittance.imag),
            "in_service": "true" if br.in_service else "false",
        }))
    return textconf.format_blocks(blocks)


_BUNDLED = ("path3", "loop8", "loop12")


def load_feeder(path_or_name: str) -> GridTopology:
    """Load a feeder by bundled name ("loop8") or filesystem path, parsing only it."""
    if path_or_name in _BUNDLED:
        root = importlib.resources.files("gridwatch").joinpath("feeders")
        text = root.joinpath(f"{path_or_name}.feeder").read_text(encoding="utf-8")
        return parse_feeder(text, name=path_or_name)
    with open(path_or_name, "r", encoding="utf-8") as fh:
        return parse_feeder(fh.read(), name=path_or_name)


def bundled_feeders() -> list[GridTopology]:
    """The feeders shipped with the package, in a fixed order."""
    return [load_feeder(name) for name in _BUNDLED]


def random_feeder(bus_count: int, loops: int = 0, seed: int = 0,
                  der_buses: set[int] | None = None) -> GridTopology:
    """Seeded random radial feeder with optional loop branches.

    Bus 1 is the slack and keeps degree one (a single feeder-head trunk).
    Loop branches are only inserted between buses at graph distance >= 3,
    which keeps the topology triangle-free; see the feeder docs for why the
    localisation zero test needs that.
    """
    if bus_count < 2:
        raise TopologyError("random feeder needs at least 2 buses")
    rng = substream(seed, "feeder")
    branches: list[Branch] = []
    for bus in range(2, bus_count + 1):
        if bus == 2:
            parent = 1
        else:
            parent = int(rng.integers(2, bus))  # never the slack: keeps head degree 1
        branches.append(Branch(parent, bus, _random_admittance(rng)))

    adj: dict[int, set[int]] = {b: set() for b in range(1, bus_count + 1)}
    for br in branches:
        adj[br.from_bus].add(br.to_bus)
        adj[br.to_bus].add(br.from_bus)

    def distance(u: int, v: int) -> int:
        seen = {u: 0}
        queue = [u]
        while queue:
            nxt = []
            for node in queue:
                for w in adj[node]:
                    if w not in seen:
                        seen[w] = seen[node] + 1
                        if w == v:
                            return seen[w]
                        nxt.append(w)
            queue = nxt
        return 10 ** 9

    for _ in range(loops):
        candidates = [(u, v) for u in range(2, bus_count + 1)
                      for v in range(u + 1, bus_count + 1) if distance(u, v) >= 3]
        if not candidates:
            raise TopologyError(
                f"no room for another loop in a {bus_count}-bus feeder "
                f"(no bus pair at distance >= 3 left)")
        u, v = candidates[int(rng.integers(len(candidates)))]
        branches.append(Branch(u, v, _random_admittance(rng)))
        adj[u].add(v)
        adj[v].add(u)
    return GridTopology(bus_count, tuple(branches),
                        der_buses=frozenset(der_buses or ()),
                        name=f"random{bus_count}x{loops}s{seed}")


def _random_admittance(rng: np.random.Generator) -> complex:
    g = rng.uniform(2.0, 6.0)
    ratio = rng.uniform(0.5, 2.0)  # R/X of the underlying impedance
    return complex(g, -g / ratio)


def philox_key(seed: int, *labels) -> int:
    """Stable 128-bit Philox key for a named substream of a master seed."""
    text = "/".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "little")


def substream(seed: int, *labels) -> np.random.Generator:
    """The Philox generator of a named substream of a master seed."""
    return np.random.Generator(np.random.Philox(_keyed_seed()(philox_key(seed, *labels))))


@functools.cache
def _keyed_seed() -> type:
    """Seed sequence handing Philox a key as Philox(key=...) does, without its
    OS entropy draw; made on first use, so gridwatch's import skips numpy.random."""
    class KeyedSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: int):
            self.words = np.array([key & (2 ** 64 - 1), key >> 64], dtype=np.uint64)
        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # Philox asks for its key: two uint64 words, low first
    return KeyedSeed
