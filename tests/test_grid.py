"""Topology, admittance assembly, outage switching, islands, the network
transfer, Kron reduction and the feeder file format."""

import importlib.resources

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import unit_path
from oracles import in_service_pairs, kron_reduce
from gridwatch import grid
from gridwatch.grid import (
    Branch,
    GridTopology,
    SingularBlockError,
    TopologyError,
    apply_outage,
    build_admittance,
    bundled_feeders,
    format_feeder,
    islands,
    load_feeder,
    parse_feeder,
    philox_key,
    random_feeder,
    substream,
    transfer,
)
from gridwatch.textconf import ConfigError


# --- admittance assembly ------------------------------------------------------

def test_path3_unit_admittance_matrix():
    Y = build_admittance(unit_path(3))
    expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=complex)
    assert np.array_equal(Y, expected)


def test_empty_branch_list_gives_zero_matrix():
    Y = build_admittance(GridTopology(2, ()))
    assert np.array_equal(Y, np.zeros((2, 2), dtype=complex))


def test_loop8_diagonal_is_degree_times_admittance(loop8):
    # Known node degrees of the bundled 8-bus loopy feeder.
    degrees = {1: 1, 2: 3, 3: 3, 4: 2, 5: 2, 6: 2, 7: 3, 8: 2}
    y = 2.0 - 3.0j
    equal = GridTopology(8, tuple(Branch(b.from_bus, b.to_bus, y) for b in loop8.branches))
    Y = build_admittance(equal)
    for bus, deg in degrees.items():
        assert Y[bus - 1, bus - 1] == pytest.approx(deg * y)


def test_admittance_symmetric_zero_row_sums_all_feeders():
    for top in bundled_feeders():
        Y = build_admittance(top)
        assert np.abs(Y - Y.T).max() == 0.0, top.name
        assert np.abs(Y.sum(axis=1)).max() < 1e-12, top.name


def test_parallel_branches_merge_by_admittance_sum():
    top = GridTopology(2, (Branch(1, 2, 1 + 1j), Branch(2, 1, 2 - 0.5j)))
    assert len(top.branches) == 1
    assert top.branches[0].admittance == 3 + 0.5j


def test_zero_admittance_in_service_branch_rejected():
    top = GridTopology(2, (Branch(1, 2, 0j),))
    with pytest.raises(TopologyError, match="zero admittance"):
        build_admittance(top)


def test_self_loop_rejected():
    with pytest.raises(TopologyError, match="self-loop"):
        Branch(3, 3, 1 + 0j)


def test_branch_endpoint_out_of_range():
    with pytest.raises(TopologyError, match="outside"):
        GridTopology(2, (Branch(1, 5, 1 + 0j),))


# --- outage switching ---------------------------------------------------------

def test_apply_outage_masks_branches(loop8):
    post = apply_outage(loop8, {(3, 4), (2, 6)})
    out = {b.pair for b in post.branches if not b.in_service}
    assert out == {(3, 4), (2, 6)}
    assert all(b.in_service for b in loop8.branches), "input must be unchanged"


def test_apply_outage_empty_set_is_identity(loop8):
    assert apply_outage(loop8, set()) == loop8


def test_apply_outage_unknown_branch(path3):
    with pytest.raises(TopologyError, match="unknown branch"):
        apply_outage(path3, {(1, 3)})
    post = apply_outage(path3, {(2, 3)})
    with pytest.raises(TopologyError, match="already out"):
        apply_outage(post, {(2, 3)})


def test_outage_then_build_equals_build_then_stamp_removal(loop8):
    # Zero the removed branch's off-diagonals and recompute the two affected
    # diagonals as incident sums (same stamping order as the builder), which
    # must reproduce the rebuilt matrix exactly.
    Y_post = build_admittance(apply_outage(loop8, {(3, 4)}))
    Y_pre = build_admittance(loop8)
    Y_pre[2, 3] = Y_pre[3, 2] = 0.0
    for bus in (3, 4):
        total = 0.0 + 0.0j
        for br in loop8.branches:  # already pair-sorted
            if br.pair == (3, 4) or bus not in br.pair:
                continue
            total += br.admittance
        Y_pre[bus - 1, bus - 1] = total
    assert np.array_equal(Y_post, Y_pre)


# --- islands -------------------------------------------------------------------

def test_islands_path_split(path3):
    parts = islands(apply_outage(path3, {(1, 2)}))
    kinds = {tuple(sorted(i.buses)): i.kind for i in parts}
    assert kinds == {(1,): "slack", (2, 3): "dead"}


def test_islands_der_backed(path3):
    top = GridTopology(3, path3.branches, der_buses=frozenset({3}))
    parts = islands(apply_outage(top, {(1, 2)}))
    kinds = {tuple(sorted(i.buses)): i.kind for i in parts}
    assert kinds == {(1,): "slack", (2, 3): "der"}


def test_islands_loop_branch_out_stays_connected(loop8):
    parts = islands(apply_outage(loop8, {(6, 7)}))
    assert len(parts) == 1 and parts[0].kind == "slack"


def test_islands_invariant_under_branch_permutation(loop8):
    shuffled = GridTopology(8, tuple(reversed(loop8.branches)), loop8.slack)
    assert islands(shuffled) == islands(loop8)


# --- network transfer ----------------------------------------------------------

def test_transfer_grounds_slack_and_lowest_der_bus(loop12):
    # 4-5 and 10-12 out: {5, 6, 11, 12} is backed by DER buses 6 and 11
    # and grounds at 6
    top = GridTopology(12, loop12.branches, der_buses=frozenset({11, 6}))
    post = apply_outage(top, {(4, 5), (10, 12)})
    Y = build_admittance(post)
    blocks = transfer(post)
    assert [buses for buses, _ in blocks] == [(2, 3, 4, 7, 8, 9, 10), (5, 11, 12)]
    for buses, z in blocks:
        idx = [b - 1 for b in buses]
        assert np.array_equal(z, np.linalg.inv(Y[np.ix_(idx, idx)]))


def test_transfer_leaves_out_dead_and_grounding_only_islands(path3):
    assert transfer(apply_outage(path3, {(1, 2)})) == ()
    der = GridTopology(3, path3.branches, der_buses=frozenset({3}))
    assert [b for b, _ in transfer(apply_outage(der, {(2, 3)}))] == [(2,)]


def test_transfer_is_shared_and_read_only(loop8):
    renamed = GridTopology(8, loop8.branches, loop8.slack, name="copy")
    assert transfer(renamed) is transfer(loop8)
    _, z = transfer(loop8)[0]
    with pytest.raises(ValueError, match="read-only"):
        z[0, 0] = 0


# --- Kron reduction -----------------------------------------------------------

def test_kron_unit_path_keep_ends():
    Y = build_admittance(unit_path(3))
    red = kron_reduce(Y, {0, 2})
    assert np.allclose(red, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_kron_keep_all_is_identity(loop8):
    Y = build_admittance(loop8)
    red = kron_reduce(Y, set(range(8)))
    assert np.array_equal(red, Y)


def test_kron_isolated_bus_is_singular():
    top = GridTopology(3, (Branch(1, 2, 1 + 0j),))  # bus 3 is isolated
    Y = build_admittance(top)
    with pytest.raises(SingularBlockError, match="eliminated"):
        kron_reduce(Y, {0, 1})


def test_kron_series_admittance_chain(rng):
    for trial in range(10):
        n = int(rng.integers(3, 8))
        ys = rng.uniform(1, 5, size=n - 1) + 1j * rng.uniform(-5, -1, size=n - 1)
        top = GridTopology(n, tuple(Branch(i, i + 1, ys[i - 1]) for i in range(1, n)))
        red = kron_reduce(build_admittance(top), {0, n - 1})
        series = 1.0 / np.sum(1.0 / ys)
        assert np.allclose(red, [[series, -series], [-series, series]], rtol=1e-12)


def test_kron_consistency_against_full_solve(rng):
    for seed in range(20):
        m = int(rng.integers(5, 25))
        top = random_feeder(m, loops=int(rng.integers(0, 3)) if m >= 8 else 0, seed=seed)
        Y = build_admittance(top)
        keep = {0} | set(rng.choice(np.arange(1, m), size=m // 2, replace=False).tolist())
        red = kron_reduce(Y, keep)
        va = rng.normal(size=len(keep)) + 1j * rng.normal(size=len(keep))
        a = sorted(keep)
        b = [k for k in range(m) if k not in keep]
        vb = np.linalg.solve(Y[np.ix_(b, b)], -Y[np.ix_(b, a)] @ va)
        ia = Y[np.ix_(a, a)] @ va + Y[np.ix_(a, b)] @ vb
        res = np.linalg.norm(ia - red @ va) / np.linalg.norm(ia)
        assert res < 1e-9, f"seed {seed}: residual {res:.2e}"


@st.composite
def islanded_feeders(draw):
    """Three random feeders side by side, the first with the slack, the
    second with at least one DER bus and the third with none (a dead
    island), with up to two branches out anywhere."""
    branches, der, offset = [], set(), 0
    for part in range(3):
        m = draw(st.integers(2, 12))
        try:
            feeder = random_feeder(m, loops=draw(st.integers(0, 2)), seed=draw(
                st.integers(0, 2 ** 16)))
        except TopologyError:  # no room for a loop
            assume(False)
        branches += [Branch(b.from_bus + offset, b.to_bus + offset, b.admittance)
                     for b in feeder.branches]
        if part < 2:
            der |= {offset + b for b in draw(st.sets(st.integers(1, m), min_size=part,
                                                     max_size=2))}
        offset += m
    top = GridTopology(offset, tuple(branches), der_buses=frozenset(der))
    out = draw(st.sets(st.sampled_from([b.pair for b in top.branches]), max_size=2))
    return apply_outage(top, out)


@settings(max_examples=60)
@given(islanded_feeders(), st.data())
def test_transfer_block_inverts_kron_reduction(top, data):
    # Kron reduction onto K and inversion commute with restriction: the
    # inverse of the reduced Y[buses, buses] is Z[K, K] (Dorfler & Bullo,
    # "Kron reduction of graphs", IEEE TCAS-I, 2013)
    assert {"der", "dead"} <= {island.kind for island in islands(top)}
    Y = build_admittance(top)
    for buses, z in transfer(top):
        idx = [b - 1 for b in buses]
        keep = sorted(data.draw(st.sets(st.integers(0, len(buses) - 1), min_size=1)))
        got = np.linalg.inv(kron_reduce(Y[np.ix_(idx, idx)], keep))
        want = z[np.ix_(keep, keep)]
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


# --- bundled and random feeders -------------------------------------------------

def test_bundled_feeder_inventory():
    feeders = {t.name: t for t in bundled_feeders()}
    assert feeders["path3"].bus_count == 3
    assert len(feeders["path3"].branches) == 2
    assert feeders["loop8"].bus_count == 8
    assert len(feeders["loop8"].branches) == 9
    assert len(feeders["loop12"].branches) == 13


def test_loop_branches_share_tie_admittance(loop8):
    bm = loop8.branch_map()
    assert bm[(6, 7)].admittance == bm[(7, 8)].admittance
    assert bm[(5, 8)].admittance == bm[(7, 8)].admittance


def test_bundled_loopy_feeders_triangle_free():
    # The exact localization zero test needs removed-branch endpoints to lose
    # every non-slack common neighbour, i.e. no triangles.
    for top in bundled_feeders():
        adj = top.adjacency()
        for i, j in in_service_pairs(top):
            common = (adj[i] & adj[j]) - top.slack
            assert not common, f"{top.name}: branch {(i, j)} sits in a triangle"


def test_bundled_feeders_head_degree_one():
    for top in bundled_feeders():
        assert len(top.adjacency()[1]) == 1, top.name


def test_random_feeder_deterministic():
    assert random_feeder(20, loops=2, seed=7) == random_feeder(20, loops=2, seed=7)
    assert random_feeder(20, loops=2, seed=7) != random_feeder(20, loops=2, seed=8)


def test_random_feeder_structure():
    top = random_feeder(15, loops=3, seed=1)
    assert len(top.branches) == 14 + 3
    adj = top.adjacency()
    assert len(adj[1]) == 1
    for i, j in in_service_pairs(top):
        assert not (adj[i] & adj[j]) - {1}, f"triangle at {(i, j)}"
    parts = islands(top)
    assert len(parts) == 1 and parts[0].kind == "slack"


def test_random_feeder_rejects_impossible_loops():
    with pytest.raises(TopologyError, match="no room"):
        random_feeder(3, loops=5, seed=0)


# --- feeder files ----------------------------------------------------------------

def test_feeder_round_trip(loop8):
    assert parse_feeder(format_feeder(loop8)) == GridTopology(
        loop8.bus_count, loop8.branches, loop8.slack, loop8.der_buses, "")


def test_feeder_rejects_unknown_keys():
    text = "[bus]\nid = 1\nvoltage = 11\n"
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_feeder(text)


def test_feeder_requires_contiguous_ids():
    text = "[bus]\nid = 1\n[bus]\nid = 3\n"
    with pytest.raises(ConfigError, match="1..M"):
        parse_feeder(text)


def test_feeder_duplicate_bus():
    text = "[bus]\nid = 1\n[bus]\nid = 1\n"
    with pytest.raises(ConfigError, match="duplicate bus"):
        parse_feeder(text)


def test_load_feeder_parses_only_the_feeder_it_loads(tmp_path, monkeypatch):
    path = tmp_path / "random9.feeder"
    path.write_text(format_feeder(random_feeder(9, loops=1, seed=2)), encoding="utf-8")
    root = importlib.resources.files("gridwatch").joinpath("feeders")
    expected = {name: parse_feeder(root.joinpath(f"{name}.feeder").read_text(encoding="utf-8"),
                                   name=name) for name in ("path3", "loop8", "loop12")}
    expected[str(path)] = parse_feeder(path.read_text(encoding="utf-8"), name=str(path))
    parsed = []

    def counting_parse(text, name=""):
        parsed.append(name)
        return parse_feeder(text, name)

    monkeypatch.setattr(grid, "parse_feeder", counting_parse)
    for name, topology in expected.items():
        parsed.clear()
        assert load_feeder(name) == topology
        assert parsed == [name]
    assert bundled_feeders() == [expected[name] for name in ("path3", "loop8", "loop12")]


def _draws(rng: np.random.Generator) -> bytes:
    return b"".join(a.tobytes() for a in (rng.normal(size=5), rng.integers(2 ** 62, size=3),
                                         rng.geometric(0.04, size=3), rng.normal(size=2)))


@settings(max_examples=60, deadline=None)
@given(st.integers(-2 ** 63, 2 ** 63),
       st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6), st.text(max_size=8)), max_size=3))
@example(0, ["noise"])  # its key's upper word is above 2**63
@example(4, ["noise"])  # and this one's below
def test_substream_draws_equal_philox_keyed_directly(seed, labels):
    expected = np.random.Generator(np.random.Philox(key=philox_key(seed, *labels)))
    assert _draws(substream(seed, *labels)) == _draws(expected)
