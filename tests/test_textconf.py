"""Block-based config text format."""

import pytest

from gridwatch.cli import LOCALIZATION, TRACE
from gridwatch.textconf import (
    BLOCK_ROWS,
    ConfigError,
    boolean,
    format_blocks,
    pairs,
    parse_blocks,
    read,
)


def test_round_trip():
    blocks = [("alpha", {"x": "1", "y": "two"}), ("alpha", {"x": "3"}),
              ("beta", {"flag": "true"})]
    assert parse_blocks(format_blocks(blocks)) == blocks


def test_comments_and_blank_lines():
    text = "# top comment\n\n[sec]\nkey = value  # trailing\n\n"
    assert parse_blocks(text) == [("sec", {"key": "value"})]


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside"):
        parse_blocks("key = value\n")


def test_bad_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_blocks("[sec]\njust some words\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_blocks("[sec]\nk = 1\nk = 2\n")


def test_check_keys():
    with pytest.raises(ConfigError, match=r"^\[sec\]: unknown keys \['z'\]$"):
        read("sec", {"a": "1", "z": "2"}, {"a": int})
    with pytest.raises(ConfigError, match=r"^\[sec\]: missing keys \['b'\]$"):
        read("sec", {"a": "1"}, {"a": int, "b": int}, required=("b",))


def test_typed_accessors():
    kinds = {"f": float, "b": boolean, "pairs": pairs, "absent": float}
    fields = {"f": "2.5", "b": "yes", "pairs": "3-4, 2-6"}
    assert read("s", fields, kinds) == {"f": 2.5, "b": True, "pairs": ((3, 4), (2, 6))}
    with pytest.raises(ConfigError, match=r"^\[s\]\.f: not a number: 'yes'$"):
        read("s", {"f": "yes"}, kinds)
    with pytest.raises(ConfigError, match=r"^\[s\]\.p: bad pair '3\+4' \(want 'i-j'\)"):
        read("s", {"p": "3+4"}, {"p": pairs})
    with pytest.raises(ConfigError, match=r"^\[s\]\.b: not a boolean: 'maybe'$"):
        read("s", {"b": "maybe"}, kinds)
    with pytest.raises(ConfigError, match=r"^\[s\]\.n: not an integer: '1.5'$"):
        read("s", {"n": "1.5"}, {"n": int})


def test_auto_keys_written_as_minus_one_are_left_out():
    kinds = {"n": int, "x": float, "y": float}
    assert read("s", {"n": "-1", "x": "-1.0", "y": "-1"}, kinds, auto=("n", "x")) == {"y": -1.0}


# per table, row k of a table of many rows
ROWS = {
    "trace": (TRACE, lambda k: (k + 1, 1.0 / (k + 3), -k / 7.0, "known_f", k % 3 == 0)),
    "localization": (LOCALIZATION, lambda k: (k % 11 + 1, k % 11 + 2, k / 9.0, 1e-13 * k,
                                              k / 9.0 - 1e-13 * k, k % 2 == 0, k % 5 == 0)),
}


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_table_write_writes_the_bytes_of_text(tmp_path, name, n):
    # the header and each row's line, as one string joined whole
    table, row = ROWS[name]
    rows = [row(k) for k in range(n)]
    text = "\n".join([table.header, *(table.row % values for values in rows)]) + "\n"
    assert table.text(rows) == text
    path = tmp_path / f"{name}.csv"
    table.write(str(path), iter(rows))
    assert path.read_bytes() == text.encode("utf-8")
    assert len(list(table.blocks(rows))) == 1 + -(-n // BLOCK_ROWS)
