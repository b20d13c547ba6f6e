"""Monte Carlo harness: determinism, serial/parallel agreement, mode
comparison, coverage sweep, heatmap emission and metrics round-trips."""

import math

import numpy as np
import pytest

from gridwatch.experiments import (
    ExperimentConfig,
    MetricsTable,
    correlation_matrix,
    emit_heatmap,
    heatmap_csv,
    run_experiment,
    run_pmu_sweep,
)
from gridwatch.simgen import Scenario
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
    # three chunks over one, two and three CPUs, and beside another thread,
    # where nothing forks
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(1e-2, 1e-8),
                           replications=24, master_seed=3)
    texts, forks = [], []
    for cpus, other_thread in ((1, False), (2, False), (3, False), (2, True)):
        with forks_under(monkeypatch, cpus, other_thread) as forked:
            texts.append(run_experiment(cfg).to_csv())
        forks.append([len(jobs) for jobs in forked])
    assert texts[1:] == texts[:1] * 3
    assert forks == [[], [2], [3], []]


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


def test_metrics_csv_round_trip(loop8):
    cfg = ExperimentConfig(scenario=delay_scenario(loop8), alphas=(1e-2, 1e-6),
                           replications=10, master_seed=2)
    table = run_experiment(cfg)
    back = MetricsTable.from_csv(table.to_csv())
    assert back.rows == table.rows


def test_experiment_validation(loop8):
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(scenario=delay_scenario(loop8), alphas=(2.0,))
    with pytest.raises(ValueError, match="replications"):
        ExperimentConfig(scenario=delay_scenario(loop8), replications=0)
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
    from gridwatch.experiments import _score_chunk
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
        _score_chunk(cfg, range(2), 8, [(None, g, g)])


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
        _score_chunk(cfg, range(5, 8), 8, [(None, g, g)])
    assert isinstance(info.value.__cause__, SingularBlockError)


def test_later_draw_failure_names_its_own_replication_and_seed(loop8, monkeypatch):
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

    monkeypatch.setattr(experiments, "_replication_draw", bad_at_six)
    seed = draw(cfg, 6, 8)[0]
    g = cfg.scenario.pre_model()
    with pytest.raises(RuntimeError, match=rf"^replication 6 \(seed {seed}\) failed") as info:
        experiments._score_chunk(cfg, range(4, 8), 8, [(None, g, None)])
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

def test_heatmap_matrices(tmp_path, loop8):
    scen = delay_scenario(loop8, out_branches=((3, 4), (2, 6)), noise_variance=1e-8)
    g, f = scen.pre_model(), scen.post_model()
    pre_path = str(tmp_path / "pre.csv")
    post_path = str(tmp_path / "post.csv")
    pre, post = emit_heatmap(g.cov, f.cov, g.layout, pre_path, post_path)
    assert np.array_equal(np.diag(pre), np.ones(8))
    assert np.array_equal(np.diag(post), np.ones(8))
    buses = g.layout.buses
    for i, j in ((3, 4), (2, 6)):
        assert post[buses.index(i), buses.index(j)] < 1e-6
        assert pre[buses.index(i), buses.index(j)] > 0.3
    with open(pre_path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("bus,1,2,3,4,5,6,7,8")


def test_heatmap_estimated_covariance_flags_same_entries(loop8):
    from gridwatch.gaussmodel import EstimationPrior, estimate_post_outage
    from gridwatch.simgen import generate

    scen = Scenario(topology=loop8, out_branches=((3, 4), (2, 6)), lam=1,
                    horizon=8000, noise_variance=1e-4, seed=21)
    stream = generate(scen)
    est = estimate_post_outage(stream.values, EstimationPrior(0.04))
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
