"""Monte Carlo harness: determinism, serial/parallel agreement, mode
comparison, coverage sweep, heatmap emission and metrics round-trips."""

import dataclasses
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch import experiments
from gridwatch.experiments import (
    ExperimentConfig,
    MetricsRow,
    MetricsTable,
    correlation_matrix,
    heatmap_csv,
    parse_heatmap_csv,
    run_experiment,
    run_pmu_sweep,
)
from gridwatch.simgen import Scenario
from gridwatch.textconf import ConfigError
from oracles import forks_under


def delay_scenario(loop8, **overrides):
    fields = dict(topology=loop8, out_branches=((7, 8),), outage_rho=0.04,
                  noise_variance=2e-2, horizon=10, seed=11)
    fields.update(overrides)
    return Scenario(**fields)


def test_experiment_deterministic(loop8):
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(1e-2, 1e-6),
                           replications=40, master_seed=5)
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert a.to_csv() == b.to_csv()
    other = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(1e-2, 1e-6),
                             replications=40, master_seed=6)
    assert run_experiment(other).to_csv() != a.to_csv()


def test_single_replication_reproducible(loop8):
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(1e-4,),
                           replications=1, master_seed=0)
    assert run_experiment(cfg).to_csv() == run_experiment(cfg).to_csv()


def test_parallel_matches_serial(loop8, monkeypatch):
    # one, two and three groups of replications over as many CPUs, and
    # beside another thread, where nothing forks
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(1e-2, 1e-8),
                           replications=24, master_seed=3)
    texts, forks = [], []
    for cpus, other_thread in ((1, False), (2, False), (3, False), (2, True)):
        with forks_under(monkeypatch, cpus, other_thread) as forked:
            texts.append(run_experiment(cfg).to_csv())
        forks.append([len(jobs) for jobs in forked])
    assert texts[1:] == texts[:1] * 3
    assert forks == [[], [2], [3], []]


@pytest.mark.parametrize("budget", [1, 16 * 100, 1 << 62], ids=["one", "some", "group"])
@pytest.mark.parametrize("cpus, other_thread", [(1, False), (2, False), (3, False),
                                                (2, True)])
def test_groups_then_chunks_cover_every_replication_once(loop8, monkeypatch, budget,
                                                         cpus, other_thread):
    # each replication's row says which chunk scored it, the horizon x dim
    # values of that chunk's replications and the process of its group
    monkeypatch.setattr(experiments, "_CHUNK_VALUES", budget)
    monkeypatch.setattr(experiments, "_score_chunk", lambda config, reps, draws, _: [
        (reps, [horizon * 16 for _, _, horizon in draws], os.getpid()) for _ in reps])
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), replications=25, master_seed=3)
    with forks_under(monkeypatch, cpus, other_thread):
        rows = experiments._replications(cfg, 8, [])
    assert len(rows) == 25
    chunks = [rows[0][:2]] + [row[:2] for prev, row in zip(rows, rows[1:])
                              if row[0] != prev[0]]
    # contiguous chunks that hold every replication once, in order
    assert [rep for reps, _ in chunks for rep in reps] == list(range(25))
    assert all(rows[rep][0] == reps for reps, _ in chunks for rep in reps)
    # one group per process, contiguous, min(cpus, replications) of them
    # where a fork may be taken, with sizes within one of each other
    pids = [row[2] for row in rows]
    groups = [pids.count(pid) for pid in dict.fromkeys(pids)]
    assert pids == sorted(pids, key=pids.index)
    assert len(groups) == (1 if other_thread else cpus)
    assert max(groups) - min(groups) <= 1
    assert all(len({pids[rep] for rep in reps}) == 1 for reps, _ in chunks)
    # a chunk within the budget unless alone; it ends where the next
    # replication of its group would take it past the budget
    for (reps, sizes), (after, more) in zip(chunks, chunks[1:] + [(range(0), [])]):
        assert sum(sizes) <= budget or len(reps) == 1
        if after and pids[after[0]] == pids[reps[0]]:
            assert sum(sizes) + more[0] > budget
    if budget == 1:
        assert all(len(reps) == 1 for reps, _ in chunks)
    elif budget == 1 << 62:
        assert len(chunks) == len(groups)
    else:
        assert 1 < len(chunks) < 25


def test_adaptive_close_to_known(loop8):
    iv = {b: 1.0 for b in range(1, 9)}
    iv.update({4: 4.0, 5: 4.0, 6: 6.0})
    scen = delay_scenario(loop8, out_branches=((3, 4), (2, 6)), noise_variance=1e-8,
                          injection_variance=iv)
    cfg = ExperimentConfig(scenario=scen, alphas=(1e-6,), replications=60,
                           modes=("known_f", "adaptive"), master_seed=7)
    table = run_experiment(cfg)
    by_mode = {r.mode: r for r in table.rows}
    gap = by_mode["adaptive"].avg_delay - by_mode["known_f"].avg_delay
    assert 0.0 <= gap <= 2.0, f"adaptive vs known delay gap {gap:.2f}"


def test_bound_column_matches_formula(loop8):
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(1e-4,),
                           replications=5, master_seed=1)
    table = run_experiment(cfg)
    row = table.rows[0]
    expected = abs(math.log(row.alpha)) / (-math.log1p(-0.04) + table.kl)
    assert row.bound == pytest.approx(expected, rel=1e-12)


def test_known_f_slope_reaches_the_bound(loop8):
    # The bound |log alpha| / (KL + |log(1 - rho)|) has slope 0.2290 here.
    # Seed 3 gives 0.2282 at 1e-200 and a marginal slope of 0.2303.  Over
    # master seeds 0-5, 7, 43, 71 and 404 the first ranged from -1.3 % to
    # +4.0 % of the bound and the second from -1.4 % to +4.4 %: at 100
    # replications the mean delay carries a few per cent of noise.
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(1e-50, 1e-100, 1e-200),
                           replications=100, master_seed=3)
    rows = run_experiment(cfg).rows
    assert all(r.censored == 0 for r in rows)
    slope = rows[-1].bound / abs(math.log(rows[-1].alpha))
    assert rows[-1].delay_over_logalpha == pytest.approx(slope, rel=0.03)
    marginal = ((rows[-1].avg_delay - rows[-2].avg_delay)
                / (math.log(rows[-2].alpha) - math.log(rows[-1].alpha)))
    assert marginal == pytest.approx(slope, rel=0.05)


def test_metrics_csv_round_trip(loop8):
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(1e-2, 1e-6),
                           replications=10, master_seed=2)
    table = run_experiment(cfg)
    back = MetricsTable.from_csv(table.to_csv())
    assert back.rows == table.rows


# any float but a NaN other than the one float("nan") reads back: repr
# writes every NaN as "nan"; the rest includes -0.0, infinities and subnormals
METRIC_FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308])


@settings(max_examples=100)
@given(rows=st.lists(st.builds(MetricsRow, METRIC_FLOATS, st.sampled_from(experiments.MODES),
                               st.integers(0, 10 ** 6), METRIC_FLOATS, METRIC_FLOATS,
                               METRIC_FLOATS, METRIC_FLOATS, st.integers(0, 10 ** 6),
                               st.integers(0, 10 ** 6)), max_size=4))
def test_metrics_csv_round_trip_is_bit_exact(rows):
    def bits(row):
        return [struct.pack("<d", v) if isinstance(v, float) else v
                for v in dataclasses.astuple(row)]

    back = MetricsTable.from_csv(MetricsTable(tuple(rows), 0.0, 0.0).to_csv())
    assert list(map(bits, back.rows)) == list(map(bits, rows))


def test_experiment_validation(loop8):
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(scenario=delay_scenario(loop8), alphas=(2.0,))
    with pytest.raises(ValueError, match="replications"):
        ExperimentConfig(scenario=delay_scenario(loop8), replications=0)
    for key in ("alphas", "modes"):
        with pytest.raises(ValueError, match=f"^{key} must name at least one value$"):
            ExperimentConfig(scenario=delay_scenario(loop8), **{key: ()})
    with pytest.raises(ValueError, match="out_branches"):
        ExperimentConfig(scenario=Scenario(topology=delay_scenario(loop8).topology,
                                           out_branches=(), horizon=10))
    fixed = Scenario(topology=delay_scenario(loop8).topology,
                     out_branches=((7, 8),), lam=5, horizon=10)
    with pytest.raises(ValueError, match="detector rho"):
        ExperimentConfig(scenario=fixed)
    assert ExperimentConfig(scenario=fixed, rho=1e-3).detector_rho == 1e-3


def test_experiment_rejects_adaptive_window_below_nmin(loop8):
    # full phasors on loop8: dim 16, where the default nmin is 18
    with pytest.raises(ValueError,
                       match=r"^\[experiment\]\.window = 17 is below nmin = 18 at dim 16"):
        ExperimentConfig(scenario=delay_scenario(loop8), modes=("known_f", "adaptive"),
                         window=17)
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), modes=("adaptive",), window=18,
                           alphas=(1e-2,), replications=4, master_seed=1)
    assert len(run_experiment(cfg).rows) == 1


def test_experiment_fixed_outage_time(loop8):
    fixed = delay_scenario(loop8, outage_rho=None, lam=7)
    cfg = ExperimentConfig(scenario=fixed, alphas=(1e-4,), replications=20,
                           rho=1e-3, master_seed=2)
    table = run_experiment(cfg)
    assert table.rows[0].avg_delay >= 0.0
    assert table.rows[0].censored == 0


def test_replication_failure_names_replication_and_seed():
    from gridwatch.experiments import _replication_draw, _score_chunk
    from gridwatch.grid import Branch, GridTopology

    # removing (2,4) and (3,4) leaves the grounded 2/3 block exactly singular
    # ((y12 + y23)(y13 + y23) == y23^2) and bus 4 dead
    top = GridTopology(4, (Branch(1, 2, 1 + 0j), Branch(2, 3, 1 + 0j),
                           Branch(1, 3, -0.5 + 0j), Branch(2, 4, 1 + 0j),
                           Branch(3, 4, 1 + 0j)))
    scen = Scenario(topology=top, out_branches=((2, 4), (3, 4)), lam=3,
                    horizon=10, noise_variance=1e-6)
    cfg = ExperimentConfig(scenario=scen, alphas=(1e-4,), replications=2,
                           rho=0.1, master_seed=1, margin=8)
    g = scen.pre_model()
    with pytest.raises(RuntimeError, match=r"replication 0 \(seed \d+\) failed"):
        _score_chunk(cfg, range(2), [_replication_draw(cfg, r, 8) for r in range(2)],
                     [(None, g, g)])


def test_chunk_setup_failure_names_first_replication_and_its_seed():
    from gridwatch.experiments import _replication_draw, _score_chunk
    from gridwatch.grid import Branch, GridTopology, SingularBlockError

    # the singular post-outage block of the test above, now found in the
    # shared set-up of a chunk of replications 5..7
    top = GridTopology(4, (Branch(1, 2, 1 + 0j), Branch(2, 3, 1 + 0j),
                           Branch(1, 3, -0.5 + 0j), Branch(2, 4, 1 + 0j),
                           Branch(3, 4, 1 + 0j)))
    scen = Scenario(topology=top, out_branches=((2, 4), (3, 4)), outage_rho=0.2,
                    horizon=10, noise_variance=1e-6)
    cfg = ExperimentConfig(scenario=scen, alphas=(1e-4,), replications=8,
                           rho=0.1, master_seed=3, margin=8)
    g = scen.pre_model()
    seed = _replication_draw(cfg, 5, 8)[0]
    assert seed != _replication_draw(cfg, 6, 8)[0]
    with pytest.raises(RuntimeError, match=rf"^replication 5 \(seed {seed}\) failed") as info:
        _score_chunk(cfg, range(5, 8), [_replication_draw(cfg, r, 8) for r in range(5, 8)],
                     [(None, g, g)])
    assert isinstance(info.value.__cause__, SingularBlockError)


def test_later_draw_failure_names_its_own_replication_and_seed(loop8):
    from gridwatch import experiments

    cfg = ExperimentConfig(scenario=Scenario(topology=loop8, out_branches=((3, 4),),
                                             outage_rho=0.1, horizon=10),
                           alphas=(1e-4,), replications=8, rho=0.1, master_seed=3,
                           margin=8)
    draw = experiments._replication_draw

    def bad_at_six(config, rep, margin):
        # replication 6 alone gets a negative horizon, which fails when its
        # stream is made, after the chunk's set-up and first draws succeeded
        seed, lam, horizon = draw(config, rep, margin)
        return (seed, lam, -1) if rep == 6 else (seed, lam, horizon)

    seed = draw(cfg, 6, 8)[0]
    g = cfg.scenario.pre_model()
    with pytest.raises(RuntimeError, match=rf"^replication 6 \(seed {seed}\) failed") as info:
        experiments._score_chunk(cfg, range(4, 8), [bad_at_six(cfg, r, 8) for r in range(4, 8)],
                                 [(None, g, None)])
    assert isinstance(info.value.__cause__, ValueError)


def test_experiment_rejects_negative_margin(loop8):
    with pytest.raises(ValueError, match="margin must be >= 0, got -1"):
        ExperimentConfig(scenario=delay_scenario(loop8), margin=-1)


# --- coverage sweep ------------------------------------------------------------------

def test_pmu_sweep_full_coverage_matches_experiment(loop8):
    scen = delay_scenario(loop8, out_branches=((2, 6),), noise_variance=1e-2)
    cfg = ExperimentConfig(scenario=scen, alphas=(1e-6,), replications=50,
                           master_seed=13, margin=64)
    baseline = run_experiment(cfg)
    sweep = run_pmu_sweep(cfg, placements=[list(range(1, 9))])
    assert sweep.rows[0].avg_delay == pytest.approx(baseline.rows[0].avg_delay)


def test_censored_and_false_alarm_rules_match_a_hand_reduction(loop8, monkeypatch):
    # from the (outage tick, alarms) pairs of _replications: a replication
    # without an alarm counts as margin, one alarming before its outage is a
    # false alarm; margin 1 censors some, alpha 0.5 alarms early in some
    seen = []
    real = experiments._replications
    monkeypatch.setattr(experiments, "_replications",
                        lambda *args: seen.append(real(*args)) or seen[-1])
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(0.5, 1e-6),
                           replications=16, margin=1, master_seed=7)
    table = run_experiment(cfg)
    for row in table.rows:
        taus = [(lam, alarms[0][row.alpha]) for lam, alarms in seen[0]]
        kept = [1 if tau is None else tau - lam for lam, tau in taus
                if tau is None or tau >= lam]
        false_alarms = sum(tau is not None and tau < lam for lam, tau in taus)
        assert row.censored == sum(tau is None for _, tau in taus)
        assert row.false_alarms == false_alarms
        assert row.empirical_false_alarm == false_alarms / 16
        assert row.avg_delay == sum(kept) / len(kept)
    assert table.rows[0].false_alarms and table.rows[0].censored

    # the sweep: censored as margin, false alarms left out of both columns
    sweep = run_pmu_sweep(dataclasses.replace(cfg, alphas=(0.5,)),
                          placements=[list(range(1, 9)), [7, 8], [8]])
    delays = [[1 if tau is None else None if tau < lam else tau - lam
               for lam, tau in ((lam, alarms[p][0.5]) for lam, alarms in seen[1])]
              for p in range(3)]
    for p, row in enumerate(sweep.rows):
        kept = [x for x in delays[p] if x is not None]
        assert row.avg_delay == sum(kept) / len(kept)
        if p:
            both = [(now, before) for now, before in zip(delays[p], delays[p - 1])
                    if now is not None and before is not None]
            assert row.frac_delay_ge_prev == sum(n >= b for n, b in both) / len(both)
    # the sweep met both: a replication without an alarm, and a false alarm
    assert any(alarm[0.5] is None for _, alarms in seen[1] for alarm in alarms)
    assert any(None in d for d in delays)


def test_pmu_sweep_trend(loop8):
    scen = delay_scenario(loop8, out_branches=((2, 6),), noise_variance=1e-2)
    cfg = ExperimentConfig(scenario=scen, alphas=(1e-6,), replications=120,
                           master_seed=13)
    placements = [[1, 2, 3, 4, 5, 6, 7, 8], [2, 4, 5, 8], [2, 5], [5]]
    table = run_pmu_sweep(cfg, placements=placements)
    kls = [r.kl for r in table.rows]
    assert all(kls[i] >= kls[i + 1] - 1e-12 for i in range(len(kls) - 1)), kls
    delays = [r.avg_delay for r in table.rows]
    assert all(delays[i] <= delays[i + 1] + 1e-9 for i in range(len(delays) - 1)), delays
    assert all(r.frac_delay_ge_prev >= 0.5 for r in table.rows[1:])


def test_pmu_sweep_seeded_random_counts(loop8):
    scen = delay_scenario(loop8, out_branches=((2, 6),), noise_variance=1e-2)
    cfg = ExperimentConfig(scenario=scen, alphas=(1e-6,), replications=20,
                           master_seed=4)
    a = run_pmu_sweep(cfg, counts=[7, 4, 2])
    b = run_pmu_sweep(cfg, counts=[7, 4, 2])
    assert a.to_csv() == b.to_csv()
    assert [r.n_sensors for r in a.rows] == [7, 4, 2]


def test_pmu_sweep_rejects_empty_placement(loop8):
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(1e-6,),
                           replications=5, master_seed=1)
    with pytest.raises(ValueError, match="at least one bus"):
        run_pmu_sweep(cfg, placements=[[1, 2], []])


# --- heatmaps ------------------------------------------------------------------------

def test_heatmap_matrices(loop8):
    scen = delay_scenario(loop8, out_branches=((3, 4), (2, 6)), noise_variance=1e-8)
    g, f = scen.pre_model(), scen.post_model()
    pre, post = correlation_matrix(g.cov, g.layout), correlation_matrix(f.cov, g.layout)
    assert np.array_equal(np.diag(pre), np.ones(8))
    assert np.array_equal(np.diag(post), np.ones(8))
    buses = g.layout.buses
    for i, j in ((3, 4), (2, 6)):
        assert post[buses.index(i), buses.index(j)] < 1e-6
        assert pre[buses.index(i), buses.index(j)] > 0.3
    assert heatmap_csv(pre, g.layout).startswith("bus,1,2,3,4,5,6,7,8")


def test_heatmap_estimated_covariance_flags_same_entries(loop8):
    from gridwatch.gaussmodel import GeometricPrior, estimate_post_outage
    from gridwatch.simgen import generate

    scen = Scenario(topology=loop8, out_branches=((3, 4), (2, 6)), lam=1,
                    horizon=8000, noise_variance=1e-4, seed=21)
    stream = generate(scen)
    est = estimate_post_outage(stream.values, GeometricPrior(0.04))
    g = scen.pre_model()
    exact = correlation_matrix(scen.post_model().cov, g.layout)
    sampled = correlation_matrix(est.cov, g.layout)
    buses = g.layout.buses
    for i, j in ((3, 4), (2, 6)):
        assert sampled[buses.index(i), buses.index(j)] < 0.05
        # measurement noise leaks a little into the exact score at this level
        assert exact[buses.index(i), buses.index(j)] < 0.01
    # intact branches stay clearly nonzero in both
    for i, j in ((2, 3), (4, 5), (7, 8)):
        assert sampled[buses.index(i), buses.index(j)] > 0.2


def _heatmap_csv_per_cell(matrix, layout):
    """heatmap_csv with one repr per cell: the reference of its bytes."""
    buses = layout.buses
    lines = ["bus," + ",".join(map(str, buses))]
    for a, bus in enumerate(buses):
        lines.append(f"{bus}," + ",".join(repr(float(v)) for v in matrix[a]))
    return "\n".join(lines) + "\n"


def test_heatmap_csv_matches_per_cell_repr(loop8):
    g = delay_scenario(loop8, noise_variance=1e-8).pre_model()
    symmetric = correlation_matrix(g.cov, g.layout)
    rng = np.random.default_rng(3)
    skewed = symmetric + np.triu(rng.normal(scale=1e-3, size=(8, 8)), 1)
    signed_zeros = symmetric.copy()
    signed_zeros[0, 1:4] = 0.0
    signed_zeros[1:4, 0] = -0.0
    signed_zeros[5, 5] = -0.0
    signed_zeros[2, 6] = signed_zeros[6, 2] = np.nan
    signed_zeros[3, 7] = 1e-300
    signed_zeros[7, 3] = -1e-300
    for matrix in (symmetric, skewed, signed_zeros):
        assert heatmap_csv(matrix, g.layout) == _heatmap_csv_per_cell(matrix, g.layout)
    text = heatmap_csv(signed_zeros, g.layout).splitlines()
    assert text[1].split(",")[1:5] == ["1.0", "0.0", "0.0", "0.0"]
    assert [row.split(",")[1] for row in text[2:5]] == ["-0.0"] * 3
    assert text[3].split(",")[7] == "nan"


# a heatmap text with a fault, and the start of its ConfigError's message
MALFORMED_HEATMAPS = {
    "empty": ("", "heatmap header '' does not name the buses"),
    "missing_row": ("bus,1,2\n1,1.0,0.5\n", "heatmap header 'bus,1,2' does not name"),
    "extra_row": ("bus,1,2\n1,1.0,0.5\n2,0.5,1.0\n3,0.5,1.0\n",
                  "heatmap header 'bus,1,2' does not name"),
    "row_of_another_bus": ("bus,1,2\n1,1.0,0.5\n3,0.5,1.0\n",
                           "heatmap header 'bus,1,2' does not name"),
    "bad_header": ("bus,1,x\n1,1.0,0.5\n2,0.5,1.0\n", "heatmap header 'bus,1,x'"),
    "short_row": ("bus,1,2\n\n1,1.0,0.5\n2,0.5\n", "line 4: 2 fields, expected 3"),
    "bad_cell": ("bus,1,2\n1,1.0,0.5\n2,0.5,one\n", "line 3: 2: not a number: 'one'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEATMAPS))
def test_malformed_heatmap_text_is_a_config_error(case):
    text, message = MALFORMED_HEATMAPS[case]
    with pytest.raises(ConfigError) as info:
        parse_heatmap_csv(text)
    assert str(info.value).startswith(message), info.value
    good = parse_heatmap_csv("bus,1,2\n1,1.0,0.5\n2,0.5,1.0\n")
    assert good[0] == (1, 2) and good[1].tolist() == [[1.0, 0.5], [0.5, 1.0]]
