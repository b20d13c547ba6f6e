"""The block-based config format of feeder files, scenario configs and
stream sidecars, and ``Table``, the one codec of the artifact CSVs.

A config file is a sequence of sections.  A section starts with a
``[name]`` header and collects ``key = value`` lines until the next header.
Section names may repeat (e.g. one ``[branch]`` block per branch).  ``#``
starts a comment, blank lines are ignored.  Values are kept as raw strings;
consumers read a section through ``read`` and the section's kinds table,
which rejects unknown keys and converts the values.

A ``Table`` is a header line, a %-format per row and a kind per field,
drawn from the same readers as the config keys.  A fault in either format
is a ``ConfigError`` naming its section, key or line.
"""

from __future__ import annotations

from typing import NamedTuple


class ConfigError(ValueError):
    """Malformed config, feeder or artifact text, or an unknown/missing key."""


def parse_blocks(text: str) -> list[tuple[str, dict[str, str]]]:
    """Parse config text into an ordered list of (section, {key: value})."""
    blocks: list[tuple[str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            current = {}
            blocks.append((name, current))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value.strip()
    return blocks


def format_blocks(blocks: list[tuple[str, dict[str, str]]]) -> str:
    out: list[str] = []
    for name, fields in blocks:
        out.append(f"[{name}]")
        for key, value in fields.items():
            out.append(f"{key} = {value}")
        out.append("")
    return "\n".join(out)


_PLAIN = {int: "not an integer", float: "not a number"}


def _convert(kind, raw: str, where: str, *args):
    """kind(raw), or a ConfigError led by ``where % args`` that names what
    the kind rejected."""
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{where % args}: {_PLAIN.get(kind, exc)}: {raw!r}") from None


def read(section: str, fields: dict[str, str], kinds: dict, required=(), auto=()) -> dict:
    """The values of the keys present in a section's fields, each converted
    by its entry in kinds, {key: converter}; a converter raises ValueError on
    a bad string.  A key in auto written as -1 is left out, so its default
    applies.  ConfigError names [section] for an unknown or missing key, and
    [section].key for a rejected value."""
    unknown = fields.keys() - kinds.keys()
    if unknown:
        raise ConfigError(f"[{section}]: unknown keys {sorted(unknown)}")
    missing = set(required) - fields.keys()
    if missing:
        raise ConfigError(f"[{section}]: missing keys {sorted(missing)}")
    values = {}
    for key, raw in fields.items():
        value = _convert(kinds[key], raw, "[%s].%s", section, key)
        if key not in auto or value != -1:
            values[key] = value
    return values


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def boolean(raw: str) -> bool:
    """``true``/``yes``/``1`` or ``false``/``no``/``0``, in any case."""
    try:
        return _BOOLS[raw.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def floats(raw: str) -> tuple[float, ...]:
    """Comma-separated numbers, e.g. ``1e-2, 1e-4, 1e-6``."""
    return tuple(float(part) for part in raw.split(",") if part.strip())


def ints(raw: str) -> tuple[int, ...]:
    """Comma-separated integers, e.g. ``7, 4, 2``."""
    return tuple(int(part) for part in raw.split(",") if part.strip())


def pair(raw: str) -> tuple[int, int]:
    """One branch like ``3-4`` into (3, 4)."""
    try:
        a, b = raw.split("-")
        return int(a), int(b)
    except ValueError:
        raise ValueError(f"bad pair {raw!r} (want 'i-j')") from None


def pairs(raw: str) -> tuple[tuple[int, int], ...]:
    """Branch list like ``3-4, 2-6`` into ((3, 4), (2, 6))."""
    return tuple(map(pair, filter(None, map(str.strip, raw.split(",")))))


def buses(raw: str) -> tuple[int, ...]:
    """Space-separated bus ids, e.g. ``2 4 5 8``."""
    return tuple(map(int, raw.split()))


class Table(NamedTuple):
    """One artifact CSV: its header line, the %-format of a row, and per
    field the kind that reads its cell back (a converter that raises
    ValueError on a bad string)."""

    header: str
    row: str
    kinds: tuple

    def text(self, rows) -> str:
        """The header, then ``row % values`` per row, each line ended by "\\n"."""
        return "\n".join([self.header, *map(self.row.__mod__, rows)]) + "\n"

    def rows(self, text: str) -> list[tuple]:
        """The converted cells of every row of text, blank lines skipped.
        ConfigError names the line of a missing or wrong header, of a row
        without len(kinds) fields, and of a cell its kind rejects."""
        lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1)
                 if line.strip()]
        lineno, got = lines[0] if lines else (1, "")
        if got != self.header:
            raise ConfigError(f"line {lineno}: expected the header {self.header!r}, "
                              f"got {got!r}")
        names = self.header.split(",")
        out = []
        for lineno, line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(self.kinds):
                raise ConfigError(f"line {lineno}: {len(cells)} fields, "
                                  f"expected {len(self.kinds)}: {line!r}")
            out.append(tuple(_convert(kind, cell, "line %d: %s", lineno, name)
                             for name, kind, cell in zip(names, self.kinds, cells)))
        return out
