"""Stream synthesis: determinism, model agreement, islands, schedules,
noise substreams, outage-time sampling, draws of the synthesis core against
the same draws alone, and stream file round-trips, by one process or two."""

import dataclasses
import os
import pathlib
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridwatch import forking, simgen
from gridwatch.gaussmodel import MAGNITUDE, PHASOR
from gridwatch.grid import Branch, GridTopology, islands, load_feeder, random_feeder
from gridwatch.simgen import (
    Scenario,
    SensorSchedule,
    generate,
    parse_stream,
    sample_outage_time,
    scenario_blocks,
    scenario_from_blocks,
    write_stream,
)
from gridwatch.textconf import ConfigError, format_blocks
from oracles import all_magnitude


def base_scenario(top, **overrides):
    fields = dict(topology=top, out_branches=(), horizon=50,
                  noise_variance=1e-6, seed=11)
    fields.update(overrides)
    return Scenario(**fields)


def test_same_seed_identical_streams(loop8):
    scen = base_scenario(loop8, out_branches=((3, 4),), lam=20)
    a, b = generate(scen), generate(scen)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.fresh, b.fresh)
    c = generate(dataclasses.replace(scen, seed=12))
    assert not np.array_equal(a.values, c.values)


def test_empirical_covariance_matches_model(loop8):
    scen = base_scenario(loop8, horizon=100_000, noise_variance=1e-4)
    stream = generate(scen)
    emp = np.cov(stream.values.T, ddof=0)
    ref = scen.pre_model().cov
    rel = np.linalg.norm(emp - ref) / np.linalg.norm(ref)
    assert rel < 0.02, f"Frobenius mismatch {rel:.4f}"


def test_pre_change_mean_is_zero(loop8):
    scen = base_scenario(loop8, horizon=20_000)
    stream = generate(scen)
    sd = stream.values.std(axis=0)
    bound = 3.0 * sd / np.sqrt(stream.horizon)
    assert np.all(np.abs(stream.values.mean(axis=0)) <= bound)


def test_dead_island_emits_noise_only(path3):
    noise = 1e-6
    scen = base_scenario(path3, out_branches=((2, 3),), lam=30, horizon=6000,
                         noise_variance=noise)
    stream = generate(scen)
    post = stream.values[29:]
    for c in stream.layout.bus_coords[3]:
        assert post[:, c].var() == pytest.approx(noise, rel=0.2)
    live = max(post[:, c].var() for c in stream.layout.bus_coords[2])
    assert live > 50 * noise


def test_noise_substream_is_separate(loop8):
    scen0 = base_scenario(loop8, noise_variance=0.0)
    s0 = generate(scen0).values
    s1 = generate(dataclasses.replace(scen0, noise_variance=1e-4)).values
    s2 = generate(dataclasses.replace(scen0, noise_variance=4e-4)).values
    # noise enters additively from its own substream: doubling its scale
    # scales the residual exactly and leaves the noiseless part untouched
    np.testing.assert_allclose(s2 - s0, 2.0 * (s1 - s0), rtol=1e-12, atol=1e-15)


def test_magnitude_freshness_and_aggregation(loop8):
    period = 5
    scen = base_scenario(loop8, schedule=all_magnitude(8, period),
                         horizon=23, noise_variance=0.0)
    stream = generate(scen)
    ticks = np.arange(1, 24)
    for c in range(stream.layout.dim):
        np.testing.assert_array_equal(stream.fresh[:, c], ticks % period == 0)
    # aggregated values equal sums of the per-tick real parts
    full = generate(dataclasses.replace(scen, schedule=SensorSchedule.all_phasor(8)))
    re_cols = [full.layout.entries.index((b, "re")) for b in range(1, 9)]
    for k, t in enumerate(range(period, 24, period)):
        window = full.values[t - period: t, re_cols].sum(axis=0)
        np.testing.assert_allclose(stream.values[t - 1], window, atol=1e-12)


@pytest.mark.parametrize("horizon", [1, 4, 23, 60])
def test_period_aggregation_matches_per_tick_loop(loop8, horizon):
    sched = SensorSchedule.from_kinds({b: (MAGNITUDE if b % 2 else PHASOR, 1 + b % 5)
                                       for b in range(1, 9)})
    scen = base_scenario(loop8, schedule=sched, horizon=horizon, noise_variance=1e-4)
    stream = generate(scen)
    full = generate(dataclasses.replace(scen, schedule=SensorSchedule.all_phasor(8)))
    periods = {bus: period for bus, _, period in sched.entries}
    for c, (bus, part) in enumerate(stream.layout.entries):
        period = periods[bus]
        raw = full.values[:, full.layout.entries.index((bus, part))]
        csum = np.concatenate([[0.0], np.cumsum(raw)])
        values, fresh, last = np.empty(horizon), np.zeros(horizon, dtype=bool), 0.0
        for t in range(horizon):
            if (t + 1) % period == 0:
                last = raw[t] if period == 1 else csum[t + 1] - csum[t + 1 - period]
                fresh[t] = True
            values[t] = last
        assert stream.values[:, c].tobytes() == values.tobytes()
        np.testing.assert_array_equal(stream.fresh[:, c], fresh)


def test_magnitude_channel_is_real_part(loop8):
    sched = SensorSchedule.from_kinds({b: (MAGNITUDE if b == 4 else PHASOR, 1)
                                       for b in range(1, 9)})
    scen = base_scenario(loop8, schedule=sched)
    stream = generate(scen)
    full = generate(dataclasses.replace(scen, schedule=SensorSchedule.all_phasor(8)))
    c_mag = stream.layout.entries.index((4, "re"))
    c_full = full.layout.entries.index((4, "re"))
    np.testing.assert_array_equal(stream.values[:, c_mag], full.values[:, c_full])
    assert (4, "im") not in stream.layout.entries


def test_mean_shift_stress_option(loop8):
    scen = base_scenario(loop8, out_branches=((7, 8),), lam=10, horizon=30_000,
                         mean_shift=0.25, noise_variance=1e-6)
    stream = generate(scen)
    post = stream.values[9:]
    live_cols = [k for k, (bus, _) in enumerate(stream.layout.entries) if bus != 1]
    means = post[:, live_cols].mean(axis=0)
    assert np.all(np.abs(means - 0.25) < 0.05)


def test_sample_outage_time_degenerate_and_mean():
    assert all(sample_outage_time(1.0, seed) == 1 for seed in range(5))
    rng_draws = [sample_outage_time(0.04, seed) for seed in range(100_000)]
    assert np.mean(rng_draws) == pytest.approx(25.0, rel=0.02)
    assert sample_outage_time(0.04, 7) == sample_outage_time(0.04, 7)


def test_fixed_outage_time_bypasses_sampling(loop8):
    scen = base_scenario(loop8, out_branches=((3, 4),), lam=21)
    assert generate(scen).truth.lam == 21


def test_scenario_validation(loop8):
    with pytest.raises(ValueError, match="not in topology"):
        base_scenario(loop8, out_branches=((1, 8),), lam=5)
    with pytest.raises(ValueError, match="outside"):
        base_scenario(loop8, out_branches=((3, 4),), lam=99, horizon=50)
    with pytest.raises(ValueError, match="fixed time"):
        base_scenario(loop8, out_branches=((3, 4),))
    with pytest.raises(ValueError, match="at least one bus"):
        SensorSchedule(())


def test_stream_file_round_trip(tmp_path, loop8):
    sched = SensorSchedule.from_kinds(
        {b: ((MAGNITUDE, 3) if b >= 7 else (PHASOR, 1)) for b in range(1, 9)})
    scen = base_scenario(loop8, out_branches=((3, 4),), lam=9, horizon=20,
                         schedule=sched, record_injections=True)
    stream = generate(scen)
    data, meta, inj = (str(tmp_path / n) for n in
                       ("stream.csv", "stream.meta", "injections.csv"))
    write_stream(stream, data, meta, scen, injections_path=inj)
    back = parse_stream(data, meta, inj)
    np.testing.assert_array_equal(back.values, stream.values)
    np.testing.assert_array_equal(back.fresh, stream.fresh)
    np.testing.assert_array_equal(back.injections, stream.injections)
    assert back.truth == stream.truth
    assert back.schedule == stream.schedule
    # sidecar scenario echo reconstructs the full scenario
    rebuilt = scenario_from_blocks(back.meta)
    assert rebuilt == scen


@pytest.mark.parametrize("lam", ["0", "-1"])
def test_sidecar_outage_tick_below_one_is_rejected(tmp_path, loop8, lam):
    # -1 has no "no outage" meaning in a sidecar: a stream without one has no lambda
    stream = generate(base_scenario(loop8, out_branches=((3, 4),), lam=3, horizon=5))
    data, meta = str(tmp_path / "stream.csv"), str(tmp_path / "stream.meta")
    write_stream(stream, data, meta)
    with open(meta, encoding="utf-8") as fh:
        text = fh.read()
    with open(meta, "w", encoding="utf-8") as fh:
        fh.write(text.replace("lambda = 3", f"lambda = {lam}"))
    with pytest.raises(ConfigError, match=rf"^\[truth\]\.lambda must be at least 1, got {lam}$"):
        parse_stream(data, meta)


def test_injections_round_trip_when_last_bus_unsensed(tmp_path, loop8):
    # injections cover every bus; the schedule stops at bus 7
    sched = SensorSchedule.from_kinds({b: (PHASOR, 1) for b in range(1, 8)})
    stream = generate(base_scenario(loop8, horizon=5, schedule=sched,
                                    record_injections=True))
    data, meta, inj = (str(tmp_path / n) for n in
                       ("stream.csv", "stream.meta", "injections.csv"))
    write_stream(stream, data, meta, injections_path=inj)
    back = parse_stream(data, meta, inj)
    assert back.injections.shape == (5, 8)
    np.testing.assert_array_equal(back.injections, stream.injections)
    np.testing.assert_array_equal(back.values, stream.values)


@st.composite
def recorded_scenarios(draw):
    """Scenarios on a bundled feeder with a random schedule: phasor and
    magnitude channels of period 1-5, the last bus sensed or not, with and
    without an outage and recorded injections."""
    top = load_feeder(draw(st.sampled_from(["path3", "loop8", "loop12"])))
    m = top.bus_count
    sensed = draw(st.lists(st.integers(1, m), min_size=1, max_size=m, unique=True))
    sched = SensorSchedule.from_kinds({
        b: (draw(st.sampled_from([PHASOR, MAGNITUDE])), draw(st.integers(1, 5)))
        for b in sensed})
    horizon = draw(st.integers(1, 40))
    outage = {}
    if draw(st.booleans()):
        outage = dict(out_branches=(draw(st.sampled_from(top.branches)).pair,),
                      lam=draw(st.integers(1, horizon)))
    return Scenario(topology=top, schedule=sched, horizon=horizon,
                    noise_variance=draw(st.sampled_from([0.0, 1e-8, 1e-4])),
                    seed=draw(st.integers(0, 2**16)),
                    record_injections=draw(st.booleans()), **outage)


@settings(max_examples=60)
@given(scen=recorded_scenarios(), block_rows=st.integers(1, 50))
def test_stream_file_round_trip_is_bit_exact(scen, block_rows):
    # small blocks make both files end on partial and on full blocks and
    # split ticks between blocks
    stream = generate(scen)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(simgen, "_BLOCK_ROWS", block_rows)
        data, meta, inj = (os.path.join(tmp, n) for n in
                           ("stream.csv", "stream.meta", "injections.csv"))
        write_stream(stream, data, meta, scen,
                     injections_path=inj if scen.record_injections else None)
        back = parse_stream(data, meta, inj if scen.record_injections else None)
    assert back.values.tobytes() == stream.values.tobytes()
    assert back.fresh.tobytes() == stream.fresh.tobytes()
    if scen.record_injections:
        assert back.injections.tobytes() == stream.injections.tobytes()
    else:
        assert back.injections is None
    assert back.truth == stream.truth
    assert back.schedule == stream.schedule


def test_shuffled_stream_rows_parse_to_same_arrays(tmp_path, loop8):
    sched = SensorSchedule.from_kinds(
        {b: ((MAGNITUDE, 2) if b >= 6 else (PHASOR, 1)) for b in range(1, 9)})
    stream = generate(base_scenario(loop8, horizon=30, schedule=sched,
                                    record_injections=True))
    data, meta, inj = (str(tmp_path / n) for n in
                       ("stream.csv", "stream.meta", "injections.csv"))
    write_stream(stream, data, meta, injections_path=inj)
    rng = np.random.default_rng(5)
    for path in (data, inj):
        with open(path, encoding="utf-8") as fh:
            header, *lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "".join(lines[k] for k in rng.permutation(len(lines))))
    back = parse_stream(data, meta, inj)
    assert back.values.tobytes() == stream.values.tobytes()
    assert back.fresh.tobytes() == stream.fresh.tobytes()
    assert back.injections.tobytes() == stream.injections.tobytes()


def _edit_rows(lines):
    """Stream-file faults, each as an edit of the data rows (header excluded)."""
    tick, coord, value, fresh = lines[5].split(",")
    return {
        "missing": (lines[:5] + lines[6:], f"no row for tick {tick} {coord}"),
        "duplicate": (lines + [lines[5]],
                      f"row {len(lines) + 1}: duplicate row for tick {tick} {coord}"),
        "tick_zero": (lines[:5] + [f"0,{coord},{value},{fresh}"] + lines[6:],
                      "row 6: tick 0 outside 1..20"),
        "tick_past_horizon": (lines[:5] + [f"21,{coord},{value},{fresh}"] + lines[6:],
                              "row 6: tick 21 outside 1..20"),
        "unknown_coordinate": (lines[:5] + [f"{tick},re99,{value},{fresh}"] + lines[6:],
                               "row 6: unknown coordinate 're99'"),
        # a proper prefix of an id, and ids with characters appended: one past
        # the longest id, and past the 8-byte field coordinates are read into
        "coordinate_prefix": (lines[:5] + [f"{tick},re,{value},{fresh}"] + lines[6:],
                              "row 6: unknown coordinate 're'"),
        "coordinate_extended": (lines[:5] + [f"{tick},{coord}0,{value},{fresh}"] + lines[6:],
                                f"row 6: unknown coordinate '{coord}0'"),
        "coordinate_past_field": (
            lines[:5] + [f"{tick},{coord}00000000,{value},{fresh}"] + lines[6:],
            f"row 6: unknown coordinate '{coord}00000000'"),
        # coordinates are read as bytes, which cannot hold a character
        # outside Latin-1
        "coordinate_outside_latin1": (lines[:5] + [f"{tick},re\u20ac,{value},{fresh}"]
                                      + lines[6:], "row 6: malformed row"),
        "non_finite": (lines[:5] + [f"{tick},{coord},inf,{fresh}"] + lines[6:],
                       f"row 6: non-finite value inf at {coord}"),
        "blank": (lines[:5] + ["\n"] + lines[5:], "row 6: blank row"),
        "short": (lines[:5] + [f"{tick},{coord},{value}\n"] + lines[6:],
                  "row 6: malformed row"),
        "unparsable": (lines[:5] + [f"{tick},{coord},abc,{fresh}"] + lines[6:],
                       "row 6: malformed row"),
        "fresh_two": (lines[:5] + [f"{tick},{coord},{value},2\n"] + lines[6:],
                      "row 6: fresh must be 0 or 1, got 2"),
        "fresh_negative": (lines[:5] + [f"{tick},{coord},{value},-1\n"] + lines[6:],
                           "row 6: fresh must be 0 or 1, got -1"),
    }


@pytest.mark.parametrize("fault", ["missing", "duplicate", "tick_zero", "tick_past_horizon",
                                   "unknown_coordinate", "coordinate_prefix",
                                   "coordinate_extended", "coordinate_past_field",
                                   "coordinate_outside_latin1", "non_finite", "blank", "short",
                                   "unparsable", "fresh_two", "fresh_negative"])
def test_parse_stream_rejects_bad_rows(tmp_path, loop8, fault):
    stream = generate(base_scenario(loop8, horizon=20))
    data, meta = str(tmp_path / "stream.csv"), str(tmp_path / "stream.meta")
    write_stream(stream, data, meta)
    with open(data, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines(keepends=True)
    rows, message = _edit_rows(lines)[fault]
    with open(data, "w", encoding="utf-8") as fh:
        fh.write(header + "".join(rows))
    with pytest.raises(ConfigError) as info:
        parse_stream(data, meta)
    assert message in str(info.value)


@pytest.mark.parametrize("block_rows", [1, 4, 5, 7])
def test_bad_rows_are_named_across_blocks(tmp_path, loop8, monkeypatch, block_rows):
    # row numbers stay right wherever the block boundaries fall
    monkeypatch.setattr(simgen, "_BLOCK_ROWS", block_rows)
    stream = generate(base_scenario(loop8, horizon=20))
    data, meta = str(tmp_path / "stream.csv"), str(tmp_path / "stream.meta")
    write_stream(stream, data, meta)
    with open(data, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines(keepends=True)
    for rows, message in _edit_rows(lines).values():
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(header + "".join(rows))
        with pytest.raises(ConfigError) as info:
            parse_stream(data, meta)
        assert message in str(info.value)


@pytest.mark.parametrize("bus", [123456, 12345678901234])
def test_channel_ids_past_one_word_are_matched_whole(tmp_path, bus):
    # ids of 8 and 16 characters are read into fields of two and three
    # 64-bit words, beside the one-word ids of bus 7
    data, meta = str(tmp_path / "stream.csv"), str(tmp_path / "stream.meta")
    with open(meta, "w", encoding="utf-8") as fh:
        fh.write(format_blocks([("stream", {"horizon": "2"})] + [
            ("sensor", {"bus": str(b), "kind": PHASOR, "period": "1"}) for b in (7, bus)]))
    ids = [f"{part}{b}" for b in (bus, 7) for part in ("im", "re")]
    rows = [f"{t},{key},{10 * t + k}.0,1\n" for t in (1, 2) for k, key in enumerate(ids)]
    with open(data, "w", encoding="utf-8") as fh:
        fh.write(simgen.STREAM_HEADER + "\n" + "".join(rows))
    stream = parse_stream(data, meta)
    for k, key in enumerate(ids):
        column = [simgen.channel_id(b, part) for b, part in stream.layout.entries].index(key)
        assert stream.values[:, column].tolist() == [10.0 + k, 20.0 + k]
    # one past the id, proper prefixes of it (its first word alone matches a
    # known word in every column), and past the field it is read into
    key = f"re{bus}"
    for wrong in {key + "0", key[:-1], key[:8], key + "0" * 9} - {key}:
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(simgen.STREAM_HEADER + "\n" + "".join(rows[:5])
                     + f"2,{wrong},1.0,1\n" + "".join(rows[6:]))
        with pytest.raises(ConfigError, match=f"row 6: unknown coordinate '{wrong}'"):
            parse_stream(data, meta)


def _edit_injection_rows(lines):
    """Injections-file faults, each as an edit of the data rows; row 6 holds
    tick 1 bus 6 of a 20-tick loop8 stream."""
    tick, bus, re, im = lines[5].rstrip("\n").split(",")
    return {
        "missing": (lines[:5] + lines[6:], f"no row for tick {tick} bus {bus}"),
        "duplicate": (lines + [lines[5]],
                      f"row {len(lines) + 1}: duplicate row for tick {tick} {bus}"),
        "tick_zero": (lines[:5] + [f"0,{bus},{re},{im}\n"] + lines[6:],
                      "row 6: tick 0 outside 1..20"),
        "tick_past_horizon": (lines[:5] + [f"21,{bus},{re},{im}\n"] + lines[6:],
                              "row 6: tick 21 outside 1..20"),
        "bus_zero": (lines[:5] + [f"{tick},0,{re},{im}\n"] + lines[6:],
                     "row 6: bus 0 outside 1..8"),
        "bus_past_last": (lines[:5] + [f"{tick},9,{re},{im}\n"] + lines[6:],
                          "row 6: bus 9 outside 1..8"),
        "non_finite": (lines[:5] + [f"{tick},{bus},{re},nan\n"] + lines[6:],
                       f"row 6: non-finite value nan at {bus}"),
        "blank": (lines[:5] + ["\n"] + lines[5:], "row 6: blank row"),
        "short": (lines[:5] + [f"{tick},{bus},{re}\n"] + lines[6:], "row 6: malformed row"),
        "unparsable": (lines[:5] + [f"{tick},{bus},{re},1.0j\n"] + lines[6:],
                       "row 6: malformed row"),
    }


@pytest.mark.parametrize("fault", ["missing", "duplicate", "tick_zero", "tick_past_horizon",
                                   "bus_zero", "bus_past_last", "non_finite", "blank", "short",
                                   "unparsable"])
def test_parse_stream_rejects_bad_injection_rows(tmp_path, loop8, fault):
    # a missing row must not read as 0j, nor tick 0 overwrite the last tick
    # through index -1
    stream = generate(base_scenario(loop8, horizon=20, record_injections=True))
    data, meta, inj = (str(tmp_path / name) for name in
                       ("stream.csv", "stream.meta", "injections.csv"))
    write_stream(stream, data, meta, injections_path=inj)
    with open(inj, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines(keepends=True)
    rows, message = _edit_injection_rows(lines)[fault]
    with open(inj, "w", encoding="utf-8") as fh:
        fh.write(header + "".join(rows))
    with pytest.raises(ConfigError) as info:
        parse_stream(data, meta, inj)
    assert message in str(info.value)


# --- stream files split between two processes ------------------------------

def force_split(monkeypatch, cpus: int = 2, block_rows: int = 16) -> list:
    """Small blocks, and the given CPU count for the split rule (so that the
    split also runs on a one-CPU host); returns the list of the split calls."""
    monkeypatch.setattr(simgen, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(forking, "cpus", lambda: cpus)
    calls = []
    forked = forking.forked

    def spy(here, there):
        calls.append(here)
        return forked(here, there)

    monkeypatch.setattr(forking, "forked", spy)
    return calls


def _files(tmp_path) -> tuple[str, str, str]:
    return tuple(str(tmp_path / name) for name in ("stream.csv", "stream.meta", "injections.csv"))


@pytest.mark.parametrize("cpus, block_rows, splits", [(2, 16, True), (1, 16, False),
                                                       (2, 1000, False)])
def test_split_needs_two_cpus_and_two_blocks(tmp_path, loop8, monkeypatch, cpus, block_rows,
                                             splits):
    # 20 ticks of 16 coordinates: 320 rows
    calls = force_split(monkeypatch, cpus, block_rows)
    data, meta, _ = _files(tmp_path)
    stream = generate(base_scenario(loop8, horizon=20))
    write_stream(stream, data, meta)
    parse_stream(data, meta)
    assert len(calls) == (2 if splits else 0)


def test_no_split_beside_another_thread(tmp_path, loop8, monkeypatch):
    calls = force_split(monkeypatch)
    data, meta, _ = _files(tmp_path)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        write_stream(generate(base_scenario(loop8, horizon=20)), data, meta)
        parse_stream(data, meta)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive() and not calls


def test_split_files_and_arrays_equal_one_process(tmp_path, loop8, monkeypatch):
    stream = generate(base_scenario(loop8, horizon=40, record_injections=True))
    read = {}
    for cpus in (1, 2):
        calls = force_split(monkeypatch, cpus)
        paths = _files(tmp_path / str(cpus))
        os.mkdir(tmp_path / str(cpus))
        write_stream(stream, paths[0], paths[1], injections_path=paths[2])
        read[cpus] = ([pathlib.Path(path).read_bytes() for path in paths], parse_stream(*paths))
        assert len(calls) == (4 if cpus == 2 else 0)
        assert sorted(os.listdir(tmp_path / str(cpus))) == sorted(map(os.path.basename, paths))
    (one_files, one), (split_files, split) = read[1], read[2]
    assert split_files == one_files
    for name in ("values", "fresh", "injections"):
        assert getattr(split, name).tobytes() == getattr(one, name).tobytes()
        assert getattr(split, name).tobytes() == getattr(stream, name).tobytes()


# row 306 of the 320 rows of a 20-tick loop8 stream file is past the middle
# of the file, where the second process starts, whatever the rows' lengths
LATE = 300


@pytest.mark.parametrize("fault", ["tick_zero", "tick_past_horizon", "unknown_coordinate",
                                   "coordinate_outside_latin1", "non_finite", "blank",
                                   "short", "unparsable", "fresh_two"])
def test_split_parse_names_a_late_fault_by_its_row_in_the_file(tmp_path, loop8, monkeypatch,
                                                               fault):
    calls = force_split(monkeypatch)
    data, meta, _ = _files(tmp_path)
    write_stream(generate(base_scenario(loop8, horizon=20)), data, meta)
    with open(data, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines(keepends=True)
    rows, message = _edit_rows(lines[LATE:])[fault]
    with open(data, "w", encoding="utf-8") as fh:
        fh.write(header + "".join(lines[:LATE] + rows))
    with pytest.raises(ConfigError) as info:
        parse_stream(data, meta)
    assert message.replace("row 6:", f"row {LATE + 6}:") in str(info.value)
    assert calls


@pytest.mark.parametrize("early, late", [("tick_zero", "short"), ("short", "tick_zero"),
                                         ("fresh_two", "unknown_coordinate")])
def test_split_parse_names_the_earlier_of_two_faults(tmp_path, loop8, monkeypatch, early,
                                                     late):
    calls = force_split(monkeypatch)
    data, meta, _ = _files(tmp_path)
    write_stream(generate(base_scenario(loop8, horizon=20)), data, meta)
    with open(data, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines(keepends=True)
    head, message = _edit_rows(lines[:LATE])[early]
    tail, _ = _edit_rows(lines[LATE:])[late]
    with open(data, "w", encoding="utf-8") as fh:
        fh.write(header + "".join(head + tail))
    with pytest.raises(ConfigError) as info:
        parse_stream(data, meta)
    assert message in str(info.value)
    assert calls


def test_split_parse_names_a_late_injections_fault_by_its_row(tmp_path, loop8, monkeypatch):
    calls = force_split(monkeypatch)
    data, meta, inj = _files(tmp_path)
    write_stream(generate(base_scenario(loop8, horizon=40, record_injections=True)), data,
                 meta, injections_path=inj)
    with open(inj, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines(keepends=True)
    rows, _ = _edit_injection_rows(lines[LATE:])["bus_zero"]
    with open(inj, "w", encoding="utf-8") as fh:
        fh.write(header + "".join(lines[:LATE] + rows))
    with pytest.raises(ConfigError, match=f"injections.csv row {LATE + 6}: bus 0 outside 1..8"):
        parse_stream(data, meta, inj)
    assert len(calls) == 4


class _ChildOnly(float):
    """A float whose repr fails in any process but the one that made it."""

    def __repr__(self):
        if os.getpid() != self.pid:
            raise ZeroDivisionError("repr in the child")
        return float.__repr__(self)


def test_a_failing_child_writer_raises_here_and_leaves_no_part_file(tmp_path, monkeypatch):
    calls = force_split(monkeypatch, block_rows=4)
    cells = np.array([[_ChildOnly(t)] for t in range(20)], dtype=object)
    for cell in cells.ravel():
        cell.pid = os.getpid()
    path = str(tmp_path / "table.csv")
    with pytest.raises(ZeroDivisionError, match="repr in the child"):
        simgen._write_table(path, "tick,key,value", ["k"], [cells])
    assert calls and os.listdir(tmp_path) == ["table.csv"]
    monkeypatch.setattr(forking, "cpus", lambda: 1)
    simgen._write_table(path, "tick,key,value", ["k"], [cells])
    assert pathlib.Path(path).read_text().splitlines()[-1] == "20,k,19.0"


def test_a_failing_child_parser_raises_here(tmp_path, loop8, monkeypatch):
    calls = force_split(monkeypatch)
    data, meta, _ = _files(tmp_path)
    write_stream(generate(base_scenario(loop8, horizon=20)), data, meta)
    parent, word_ranks = os.getpid(), simgen._word_ranks

    def fail_in_child(known, coords):
        if os.getpid() != parent:
            raise ZeroDivisionError("parse in the child")
        return word_ranks(known, coords)

    monkeypatch.setattr(simgen, "_word_ranks", fail_in_child)
    with pytest.raises(ZeroDivisionError, match="parse in the child"):
        parse_stream(data, meta)
    assert calls


def test_scenario_blocks_round_trip(loop12):
    scen = Scenario(topology=loop12, out_branches=((8, 10), (2, 3)), outage_rho=0.05,
                    injection_variance={b: float(b) for b in range(1, 13)},
                    noise_variance=1e-3, horizon=77, seed=4, mean_shift=0.5)
    text = format_blocks(scenario_blocks(scen))
    assert scenario_from_blocks(__import__("gridwatch.textconf", fromlist=["x"])
                                .parse_blocks(text)) == scen


# --- the synthesis core: a draw does not depend on its batch ------------------

def _draws(draw, first_seed):
    """Draws (seed, outage tick, horizon) with ragged horizons: one with the
    outage at tick 1, one at the last tick, one whose horizon ends before
    its outage, and up to three more, in any order."""
    horizon = st.integers(1, 30)
    h1, h2, h3 = draw(horizon), draw(horizon), draw(horizon)
    draws = [(first_seed, 1, h1), (first_seed + 1, h2, h2),
             (first_seed + 2, h3 + draw(st.integers(1, 5)), h3)]
    for k in range(draw(st.integers(0, 3))):
        h = draw(horizon)
        draws.append((first_seed + 3 + k, draw(st.integers(1, h)), h))
    return draw(st.permutations(draws))


@st.composite
def synthesis_cases(draw):
    """(scenario, draws) on a random feeder with DER buses and one or two
    branches out, so that some outages leave dead or DER-backed islands."""
    n = draw(st.integers(8, 14))
    der = draw(st.sets(st.integers(2, n), max_size=2))
    top = random_feeder(n, loops=draw(st.integers(0, 1)), seed=draw(st.integers(0, 999)),
                        der_buses=der or None)
    out = draw(st.lists(st.sampled_from([br.pair for br in top.branches]), min_size=1,
                        max_size=2, unique=True))
    kinds = draw(st.dictionaries(st.integers(1, n),
                                 st.tuples(st.sampled_from([PHASOR, MAGNITUDE]),
                                           st.integers(1, 4)), min_size=1))
    scen = Scenario(topology=top, out_branches=tuple(out), outage_rho=0.1,
                    injection_variance=draw(st.sampled_from([1.0, 2.5])),
                    noise_variance=draw(st.sampled_from([0.0, 1e-6, 1e-2])),
                    schedule=SensorSchedule.from_kinds(kinds),
                    mean_shift=draw(st.sampled_from([0.0, 0.5])),
                    record_injections=draw(st.booleans()))
    return scen, _draws(draw, draw(st.integers(0, 2 ** 40)))


# a 6-bus path cut at 2-3 and 3-4: slack island {1, 2}, dead bus 3 and the
# island {4, 5, 6} grounded at its DER bus 5; every bus a magnitude channel
# of period 2 or phasor at period 1
_ISLANDS = Scenario(
    topology=GridTopology(6, tuple(Branch(i, i + 1, complex(1.0 + i, -0.5)) for i in range(1, 6)),
                          der_buses=frozenset({5})),
    out_branches=((2, 3), (3, 4)), outage_rho=0.1, noise_variance=1e-4,
    schedule=SensorSchedule.from_kinds({b: (MAGNITUDE, 2) if b % 2 else (PHASOR, 1)
                                        for b in range(1, 7)}),
    mean_shift=0.25, record_injections=True)


def _same_stream(a, b) -> bool:
    return (a.values.tobytes() == b.values.tobytes() and np.array_equal(a.fresh, b.fresh)
            and a.truth == b.truth and a.layout == b.layout
            and (a.injections is None) == (b.injections is None)
            and (a.injections is None or a.injections.tobytes() == b.injections.tobytes()))


@settings(max_examples=40)
@example(case=(_ISLANDS, [(5, 1, 9), (6, 12, 12), (7, 15, 10), (8, 4, 7)]))
@given(case=synthesis_cases())
def test_synthesized_draw_does_not_depend_on_its_batch(case):
    scen, draws = case
    streams = list(simgen._synthesize(scen, draws))
    assert len(streams) == len(draws)
    for (seed, lam, horizon), stream in zip(draws, streams):
        assert stream.horizon == horizon and stream.truth.lam == lam
        assert _same_stream(stream, next(simgen._synthesize(scen, [(seed, lam, horizon)])))
        if lam <= horizon:
            alone = generate(dataclasses.replace(scen, seed=seed, lam=lam, outage_rho=None,
                                                 horizon=horizon))
            assert _same_stream(stream, alone)


def test_islands_example_has_dead_and_der_islands():
    kinds = sorted(island.kind for island in islands(_ISLANDS.post_topology()))
    assert kinds == ["dead", "der", "slack"]
