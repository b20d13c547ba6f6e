"""Tests of the benchmark's own logic.

Not collected by the repository's test run (the file name does not match
test_*.py); run them with

    python3 -m pytest -q perfbench/check_harness.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import gridwatch  # noqa: E402
from gridwatch import grid  # noqa: E402
from run import HostSpeed, Passes, layer_metrics, self_time_gaps  # noqa: E402
from spans import Span, Tracer, function_stats, self_times  # noqa: E402
from workloads import Heatmap, Monitor  # noqa: E402


def hand_built_tree():
    # cli.main [0, 10] calls simgen.generate [1, 4] (which calls
    # grid.build_admittance [2, 3]) and detector.run_detector [5, 9]; the
    # latter re-enters itself on [6, 7].
    return [
        Span("cli", "main", None, 0.0, 10.0),
        Span("simgen", "generate", 0, 1.0, 4.0),
        Span("grid", "build_admittance", 1, 2.0, 3.0),
        Span("detector", "run_detector", 0, 5.0, 9.0),
        Span("detector", "run_detector", 3, 6.0, 7.0, outer=False),
    ]


def test_self_times_on_hand_built_tree():
    own = self_times(hand_built_tree())
    assert own == {"cli": 3.0, "simgen": 2.0, "grid": 1.0, "detector": 4.0}
    assert sum(own.values()) == 10.0


def test_function_stats_count_reentrant_calls_once_in_time():
    calls, seconds = function_stats(hand_built_tree())
    assert calls["detector.run_detector"] == 2
    assert seconds["detector.run_detector"] == 4.0
    assert seconds["cli.main"] == 10.0


def test_tracer_records_spans_and_restores_functions():
    original = grid.build_admittance
    with Tracer() as tracer:
        assert grid.build_admittance is not original
        topology = gridwatch.random_feeder(8, loops=1, seed=3)
        gridwatch.model_from_topology(topology, 1.0, 1e-8)
    assert grid.build_admittance is original
    names = [f"{s.module}.{s.name}" for s in tracer.spans]
    assert names[0] == "grid.random_feeder"
    assert "grid.build_admittance" in names
    nested = tracer.spans[names.index("grid.build_admittance")]
    assert tracer.spans[nested.parent].name == "model_from_topology"


def test_traced_command_self_times_add_up_to_wall(tmp_path):
    workload = Heatmap(buses=12, loops=1, lam=101, horizon=300)
    workload.prepare(str(tmp_path / "inputs"), seed=5)
    passes = Passes(workload, str(tmp_path / "passes"), HostSpeed())
    wall, _, commands = passes.run(traced=True)
    assert passes.failed == 0, passes.problems
    assert all(abs(gap) < 1e-3 for gap in self_time_gaps(commands).values())
    metrics = layer_metrics(commands)
    assert metrics["experiments.correlation_matrix_calls"] == 3
    assert metrics["cli.heatmap_s"] <= wall


def monitor_expecting(expected):
    # the bootstrap zero floor shrinks with the window: below about 20k ticks
    # the 8-10 score does not collapse under it on every seed
    return Monitor(horizon=20_000, n_boot=20, expected=expected)


@pytest.mark.parametrize("expected, error_rate", [
    (frozenset({(8, 10)}), 0.0),
    (frozenset({(7, 8)}), 1.0),
])
def test_wrong_expected_branch_set_gives_error_rate_one(tmp_path, expected, error_rate):
    workload = monitor_expecting(expected)
    workload.prepare(str(tmp_path / "inputs"), seed=2)
    passes = Passes(workload, str(tmp_path / "passes"), HostSpeed())
    passes.run()
    assert passes.attempted == 1
    assert passes.error_rate == error_rate, passes.problems


def test_failing_command_counts_as_failed_pass(tmp_path):
    workload = Monitor(horizon=600, n_boot=10)
    workload.prepare(str(tmp_path / "inputs"), seed=2)
    with open(workload.config, "a", encoding="utf-8") as fh:
        fh.write("bogus_key = 1\n")
    passes = Passes(workload, str(tmp_path / "passes"), HostSpeed())
    passes.run()
    assert passes.error_rate == 1.0
    assert passes.problems[0].startswith("pass 1 localize: exit 2")
