"""Minimal block-based config format used by feeder files, scenario configs
and stream sidecars.

A file is a sequence of sections.  A section starts with a ``[name]`` header
and collects ``key = value`` lines until the next header.  Section names may
repeat (e.g. one ``[branch]`` block per branch).  ``#`` starts a comment,
blank lines are ignored.  Values are kept as raw strings; consumers read a
section through ``read`` and the section's kinds table, which rejects
unknown keys and converts the values.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Malformed config/feeder text or an unknown/missing key."""


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
        kind = kinds[key]
        try:
            value = kind(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}].{key}: {_PLAIN.get(kind, exc)}: {raw!r}") from None
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


def pairs(raw: str) -> tuple[tuple[int, int], ...]:
    """Branch list like ``3-4, 2-6`` into ((3, 4), (2, 6))."""
    out = []
    for part in filter(None, map(str.strip, raw.split(","))):
        try:
            a, b = part.split("-")
            out.append((int(a), int(b)))
        except ValueError:
            raise ValueError(f"bad pair {part!r} (want 'i-j')") from None
    return tuple(out)
