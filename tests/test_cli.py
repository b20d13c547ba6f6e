"""End-to-end CLI: simulate -> detect -> localize pipeline, heatmaps,
experiment/sweep emitters, determinism and the machine-readable error path."""

import dataclasses
import itertools
import json
import os
import pathlib
import re

import numpy as np
import pytest

from gridwatch import cli, experiments, simgen, textconf
from gridwatch.cli import main
from gridwatch.detector import DetectorConfig
from gridwatch.grid import SingularBlockError, format_feeder, load_feeder, random_feeder, transfer
from gridwatch.simgen import parse_stream
from oracles import forks_under, pmu_sweep_from_csv

CONFIG = """\
[scenario]
feeder = loop8
outage = 3-4, 2-6
lambda = 21
noise_variance = 1e-8
horizon = 60
seed = 3
record_injections = true

[injection]
bus1 = 1.0
bus2 = 1.0
bus3 = 1.0
bus4 = 4.0
bus5 = 4.0
bus6 = 6.0
bus7 = 1.0
bus8 = 1.0

[detector]
alpha = 1e-6
rho = 1e-4
mode = known_f

[experiment]
alphas = 1e-2, 1e-4, 1e-6
replications = 25

[pmu_sweep]
placements = 1 2 3 4 5 6 7 8 | 2 4 5 8 | 2 5
alpha = 1e-6
replications = 20

[localize]
exact = true
estimate_admittance = true
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scenario.conf"
    path.write_text(CONFIG)
    return str(path)


def _read(*parts) -> str:
    return pathlib.Path(*parts).read_text(encoding="utf-8")


def run_ok(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, f"stderr: {captured.err}"
    return captured.out


def test_simulate_detect_localize_pipeline(tmp_path, config_path, capsys):
    stream_dir = str(tmp_path / "stream")
    run_ok(["simulate", "--config", config_path, "--out", stream_dir], capsys)
    stream = parse_stream(os.path.join(stream_dir, "stream.csv"),
                          os.path.join(stream_dir, "stream.meta"))
    assert stream.horizon == 60 and stream.truth.lam == 21

    detect_dir = str(tmp_path / "detect")
    out = run_ok(["detect", "--config", config_path, "--stream", stream_dir,
                  "--out", detect_dir], capsys)
    assert "tau=21" in out
    trace = _read(detect_dir, "trace.csv").splitlines()
    assert trace[0] == "n,posterior,log_odds,mode,f_refreshed"
    assert len(trace) == 61
    meta = _read(detect_dir, "detection.meta")
    assert "tau = 21" in meta and "delay = 0" in meta

    loc_dir = str(tmp_path / "localize")
    out = run_ok(["localize", "--config", config_path, "--stream", stream_dir,
                  "--out", loc_dir], capsys)
    assert "2-6, 3-4" in out
    rows = _read(loc_dir, "localization.csv").splitlines()
    flagged = {r.split(",")[0] for r in rows[1:] if r.split(",")[4] == "1"}
    assert flagged == {"3-4", "2-6"}
    adm = _read(loc_dir, "admittance.csv").splitlines()
    marked = {r.split(",")[0] for r in adm[1:] if r.split(",")[6] == "1"}
    assert marked == {"3-4", "2-6"}
    assert os.path.exists(os.path.join(loc_dir, "rho_pre.csv"))
    assert os.path.exists(os.path.join(loc_dir, "rho_post.csv"))


def test_adaptive_detect_cli(tmp_path, config_path, capsys):
    stream_dir = str(tmp_path / "stream")
    run_ok(["simulate", "--config", config_path, "--out", stream_dir], capsys)
    adaptive_conf = tmp_path / "adaptive.conf"
    adaptive_conf.write_text(CONFIG.replace("mode = known_f", "mode = adaptive"))
    out = run_ok(["detect", "--config", str(adaptive_conf), "--stream", stream_dir,
                  "--out", str(tmp_path / "detect")], capsys)
    tau = int(out.split("tau=")[1].split()[0])
    assert 21 <= tau <= 22


def test_experiment_and_sweep_cli(tmp_path, config_path, capsys):
    exp_dir = str(tmp_path / "exp")
    run_ok(["experiment", "--config", config_path, "--out", exp_dir], capsys)
    metrics = _read(exp_dir, "metrics.csv").splitlines()
    assert metrics[0].startswith("alpha,mode,replications")
    assert len(metrics) == 4  # header + 3 alphas

    sweep_dir = str(tmp_path / "sweep")
    run_ok(["pmu-sweep", "--config", config_path, "--out", sweep_dir], capsys)
    rows = _read(sweep_dir, "pmu_sweep.csv").splitlines()
    assert rows[0] == "n_sensors,buses,kl,avg_delay,frac_delay_ge_prev"
    assert [r.split(",")[0] for r in rows[1:]] == ["8", "4", "2"]


# 25 replications: at two CPUs the groups are replications 0-11 and 12-24,
# at three 0-7, 8-15 and 16-24
@pytest.mark.parametrize("bad", [(17, 23), (10, 17)])
def test_failing_replication_is_reported_as_in_one_process(tmp_path, config_path, capsys,
                                                            monkeypatch, bad):
    draw, seeds = experiments._replication_draw, {}

    def negative_horizon(config, rep, margin):
        seed, lam, horizon = seeds[rep] = draw(config, rep, margin)
        return (seed, lam, -1) if rep in bad else (seed, lam, horizon)

    monkeypatch.setattr(experiments, "_replication_draw", negative_horizon)
    errors = {}
    for cpus, forks in ((1, 0), (2, 1), (3, 1)):
        out = tmp_path / f"exp{cpus}"
        with forks_under(monkeypatch, cpus) as forked:
            assert main(["experiment", "--config", config_path, "--out", str(out)]) == 2
        assert len(forked) == forks and not out.exists()
        errors[cpus] = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert errors[2] == errors[3] == errors[1]
    assert errors[1]["error"] == "RuntimeError"
    assert errors[1]["message"].startswith(
        f"replication {bad[0]} (seed {seeds[bad[0]][0]}) failed: ")


def test_simulate_der_feeder_echo_keeps_der_buses(tmp_path, capsys):
    # a DER-backed feeder read from a file; outage 4-5 cuts off the island
    # 5, 13, 14, 20, grounded at its DER bus 20.  The sidecar's scenario echo
    # keeps the DER buses and with them every transfer block.
    top = random_feeder(24, 2, 5, der_buses={9, 17, 20})
    (tmp_path / "der24.feeder").write_text(format_feeder(top))
    conf = tmp_path / "der.conf"
    conf.write_text("[scenario]\nfeeder = der24.feeder\noutage = 4-5\nlambda = 10\n"
                    "horizon = 30\nseed = 3\n")
    out = tmp_path / "stream"
    run_ok(["simulate", "--config", str(conf), "--out", str(out)], capsys)
    stream = parse_stream(str(out / "stream.csv"), str(out / "stream.meta"))
    rebuilt = simgen.scenario_from_blocks(stream.meta)
    assert rebuilt.topology.der_buses == {9, 17, 20}
    scenario = simgen.Scenario(top, ((4, 5),), lam=10)
    for got, want in ((rebuilt.topology, top),
                      (rebuilt.post_topology(), scenario.post_topology())):
        got, want = transfer(got), transfer(want)
        assert [buses for buses, _ in got] == [buses for buses, _ in want]
        for (_, z), (_, w) in zip(got, want):
            np.testing.assert_array_equal(z, w)


def _sensors(bus_count: int, periods: dict) -> str:
    """[sensor] blocks of a phasor at every bus, at period 1 unless periods
    names another."""
    return "".join(f"\n[sensor]\nbus = {b}\nkind = phasor\nperiod = {periods.get(b, 1)}\n"
                   for b in range(1, bus_count + 1))


def test_heatmap_cli(tmp_path, config_path, capsys):
    # heatmap wants enough post-outage ticks to estimate a covariance
    conf = tmp_path / "heat.conf"
    conf.write_text(CONFIG.replace("horizon = 60", "horizon = 400"))
    heat_dir = str(tmp_path / "heat")
    run_ok(["heatmap", "--config", str(conf), "--out", heat_dir], capsys)
    for name in ("heatmap_pre.csv", "heatmap_post.csv", "heatmap_post_estimated.csv"):
        lines = _read(heat_dir, name).splitlines()
        assert lines[0] == "bus,1,2,3,4,5,6,7,8"
        diag = [float(lines[k].split(",")[k]) for k in range(1, 9)]
        assert diag == [1.0] * 8
    # 6 post-outage ticks are too few to estimate at dim 16: the file is left
    # out, and stdout says so
    conf.write_text(CONFIG.replace("horizon = 60", "horizon = 400")
                    .replace("lambda = 21", "lambda = 395"))
    short_dir = tmp_path / "short"
    assert main(["heatmap", "--config", str(conf), "--out", str(short_dir)]) == 0
    assert capsys.readouterr().out == (
        "heatmap_post_estimated.csv left out: 6 post-outage ticks, fewer than "
        f"dim + 2 = 18\nheatmaps -> {short_dir}\n")
    assert sorted(p.name for p in short_dir.iterdir()) == ["heatmap_post.csv",
                                                          "heatmap_pre.csv"]
    # a slow channel holds values between its fresh ticks, which an
    # estimate from per-tick samples would count as samples: left out too
    conf.write_text(CONFIG.replace("horizon = 60", "horizon = 400") + _sensors(8, {8: 3}))
    slow_dir = tmp_path / "slow"
    assert main(["heatmap", "--config", str(conf), "--out", str(slow_dir)]) == 0
    assert capsys.readouterr().out == (
        "heatmap_post_estimated.csv left out: stream estimates need every channel at "
        f"period 1: bus 8 has period 3\nheatmaps -> {slow_dir}\n")
    assert sorted(p.name for p in slow_dir.iterdir()) == ["heatmap_post.csv",
                                                         "heatmap_pre.csv"]
    # an outage drawn past the horizon leaves no post-outage tick: the
    # message names the tick and the horizon
    conf.write_text(CONFIG.replace("lambda = 21", "outage_rho = 0.001")
                    .replace("horizon = 60", "horizon = 50"))
    past_dir = tmp_path / "past"
    assert main(["heatmap", "--config", str(conf), "--out", str(past_dir)]) == 0
    assert capsys.readouterr().out == (
        "heatmap_post_estimated.csv left out: the outage tick 792 is past the horizon 50"
        f"\nheatmaps -> {past_dir}\n")
    assert sorted(p.name for p in past_dir.iterdir()) == ["heatmap_post.csv",
                                                         "heatmap_pre.csv"]


def _heatmap_error(tmp_path, capsys, monkeypatch, cpus: int, config: str) -> tuple[dict, int]:
    """The JSON error of a failing heatmap run with the given CPU count, and
    how many jobs went to a forked child."""
    conf = tmp_path / f"heat{cpus}.conf"
    conf.write_text(config)
    out = tmp_path / f"heat{cpus}"
    with forks_under(monkeypatch, cpus) as forked:
        code = main(["heatmap", "--config", str(conf), "--out", str(out)])
    assert code == 2
    assert not (out / "heatmap_post_estimated.csv").exists()
    return json.loads(capsys.readouterr().err.splitlines()[-1]), len(forked)


HEAT_CONFIG = CONFIG.replace("horizon = 60", "horizon = 400")


def _singular_estimate(*_args):
    raise SingularBlockError("Sigma[kept, kept]", "estimated in the child")


@pytest.mark.parametrize("fault", ["rho", "singular"])
def test_heatmap_child_error_is_reported_as_in_one_process(tmp_path, capsys, monkeypatch,
                                                          fault):
    # both faults lie in the estimated job, which a child runs at two CPUs
    config = HEAT_CONFIG
    if fault == "rho":
        config = HEAT_CONFIG.replace("rho = 1e-4", "rho = often")
    else:
        monkeypatch.setattr(cli, "estimate_post_outage", _singular_estimate)
    forked_err, forks = _heatmap_error(tmp_path, capsys, monkeypatch, 2, config)
    serial_err, no_forks = _heatmap_error(tmp_path, capsys, monkeypatch, 1, config)
    assert (forks, no_forks) == (1, 0)
    assert forked_err == serial_err
    assert forked_err["error"] == {"rho": "ConfigError", "singular": "SingularBlockError"}[fault]
    if fault == "singular":
        assert forked_err["message"] == "singular block Sigma[kept, kept]: estimated in the child"


def test_heatmap_exact_job_error_wins(tmp_path, capsys, monkeypatch):
    # both jobs fail: the exact matrices' error is the one serial order meets
    # first.  The estimated job fails on its prior, before it formats a matrix,
    # so only the exact job meets the failing formatter.
    def failing_matrix_csv(*_args):
        raise SingularBlockError("Sigma[kept, kept]", "the exact job")

    monkeypatch.setattr(cli, "_matrix_csv", failing_matrix_csv)
    config = HEAT_CONFIG.replace("rho = 1e-4", "rho = often")
    for cpus, forks in ((2, 1), (1, 0)):
        err, forked = _heatmap_error(tmp_path, capsys, monkeypatch, cpus, config)
        assert forked == forks
        assert err == {"error": "SingularBlockError",
                       "message": "singular block Sigma[kept, kept]: the exact job"}


def _tree_bytes(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = pathlib.Path(path).read_bytes()
    return out


def test_cli_outputs_byte_identical_across_runs(tmp_path, config_path, capsys):
    jobs = [
        (["simulate"], "sim"),
        (["experiment"], "exp"),
        (["pmu-sweep"], "sweep"),
        (["heatmap"], "heat"),
    ]
    for argv, name in jobs:
        d1, d2 = str(tmp_path / f"{name}1"), str(tmp_path / f"{name}2")
        run_ok(argv + ["--config", config_path, "--out", d1, "--seed", "99"], capsys)
        run_ok(argv + ["--config", config_path, "--out", d2, "--seed", "99"], capsys)
        assert _tree_bytes(d1) == _tree_bytes(d2), f"{name} outputs differ"


def test_error_reported_as_json(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("[scenario]\nfeeder = loop8\nbogus_key = 1\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err.splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "bogus_key" in err["message"]


# the config's per-bus injection variances, which a scalar injection_variance replaces
_INJECTION_BLOCK = CONFIG[CONFIG.index("\n[injection]"):CONFIG.index("\n[detector]")]

# (command, replaced text, replacement, error, text the message must hold)
BAD_INPUTS = {
    "experiment_unknown_detector_key": ("experiment", "rho = 1e-4", "rh0 = 0.5",
                                        "ConfigError", "[detector]: unknown keys ['rh0']"),
    "pmu_sweep_unknown_detector_key": ("pmu-sweep", "rho = 1e-4", "rh0 = 0.5",
                                       "ConfigError", "[detector]: unknown keys ['rh0']"),
    "experiment_detector_rho_minus_one": ("experiment", "rho = 1e-4", "rho = -1",
                                          "ValueError", "rho must be in (0, 1), got -1.0"),
    "bad_placements_token": ("pmu-sweep", "| 2 5", "| 2 x", "ConfigError",
                             "[pmu_sweep].placements: "),
    "placements_and_counts": ("pmu-sweep", "alpha = 1e-6\nreplications = 20",
                              "alpha = 1e-6\nreplications = 20\ncounts = 4, 2",
                              "ConfigError", "[pmu_sweep] needs placements or counts"),
    "bad_injection_key": ("simulate", "bus4 = 4.0", "busx = 4.0", "ConfigError",
                          "[injection]: unknown keys ['busx']"),
    "injection_bus_outside_feeder": ("simulate", "bus4 = 4.0", "bus9 = 4.0", "ConfigError",
                                     "[injection]: unknown keys ['bus9']"),
    "bad_injection_value": ("simulate", "bus4 = 4.0", "bus4 = four", "ConfigError",
                            "[injection].bus4: not a number: 'four'"),
    "active_without_zero": ("localize", "exact = true", "exact = true\nactive = 0.9",
                            "ConfigError", "[localize]: zero and active"),
    "zero_without_active": ("localize", "exact = true", "exact = true\nzero = 0.1",
                            "ConfigError", "[localize]: zero and active"),
    "lambda_minus_one": ("simulate", "lambda = 21", "lambda = -1\noutage_rho = 0.04",
                         "ValueError", "[scenario].lambda = -1"),
    # simulate took the fixed tick and experiment drew its own: one config, two readings
    "lambda_and_outage_rho": ("experiment", "lambda = 21", "lambda = 21\noutage_rho = 0.04",
                              "ValueError", "[scenario].lambda and [scenario].outage_rho are "
                                            "given together: set one of them"),
    "outage_rho_minus_one": ("experiment", "lambda = 21", "outage_rho = -1", "ValueError",
                             "[scenario].outage_rho = -1"),
    "unknown_section": ("experiment", "[experiment]", "[experimnet]", "ConfigError",
                        "unknown section [experimnet]"),
    "localize_exact_post_ticks_minus_five": (
        "localize", "exact = true", "exact = true\npost_ticks = -5", "ConfigError",
        "[localize].post_ticks must be at least 1, got -5"),
    "localize_estimated_post_ticks_zero": (
        "localize", "exact = true", "exact = false\npost_ticks = 0", "ConfigError",
        "[localize].post_ticks must be at least 1, got 0"),
    # 40 ticks from the outage tick 21 of 60 on: more used to be clipped
    "localize_post_ticks_past_the_stream": (
        "localize", "exact = true", "exact = false\npost_ticks = 41", "ConfigError",
        "[localize].post_ticks = 41 is more than the 40 ticks from the outage on"),
    "bad_pairs_value": ("localize", "exact = true", "exact = true\npairs = some",
                        "ConfigError", "[localize].pairs must be branches|all, got 'some'"),
    "repeated_scenario": ("simulate", "[detector]", "[scenario]\nfeeder = path3\n\n[detector]",
                          "ConfigError", "section [scenario] is repeated"),
    "repeated_detector": ("simulate", "[experiment]", "[detector]\nbogus = 3\n\n[experiment]",
                          "ConfigError", "section [detector] is repeated"),
    "sweep_count_past_the_non_slack_buses": (
        "pmu-sweep", "placements = 1 2 3 4 5 6 7 8 | 2 4 5 8 | 2 5", "counts = 20, 4",
        "ValueError", "sensor count 20 is outside 1..7"),
    "sweep_placement_bus_outside_feeder": ("pmu-sweep", "| 2 5", "| 1 2 3 99", "ValueError",
                                           "placement bus 99 is outside the feeder's buses"),
    "sweep_placement_bus_twice": ("pmu-sweep", "| 2 5", "| 2 5 2", "ValueError",
                                  "placement [2, 2, 5] names a bus twice"),
    "sweep_placement_growing": (
        "pmu-sweep", "placements = 1 2 3 4 5 6 7 8 | 2 4 5 8 | 2 5",
        "placements = 2 5 | 1 2 3 4 5 6 7 8", "ValueError",
        "placement [1, 2, 3, 4, 5, 6, 7, 8] is not a subset of the one before it, [2, 5]"),
    "sweep_placement_disjoint": (
        "pmu-sweep", "placements = 1 2 3 4 5 6 7 8 | 2 4 5 8 | 2 5", "placements = 2 5 | 3 4",
        "ValueError", "placement [3, 4] is not a subset of the one before it, [2, 5]"),
    "detector_hold_last_value": ("experiment", "mode = known_f",
                                 "mode = known_f\nhold_last_value = false", "ConfigError",
                                 "[detector]: unknown keys ['hold_last_value']"),
    # each replication would score held values with per-tick models
    "experiment_period_three": ("experiment", "[localize]",
                                _sensors(8, {8: 3}) + "\n[localize]", "ValueError",
                                "experiments need every channel at period 1: bus 8 has "
                                "period 3"),
    # a later block used to win without a word
    "sensor_blocks_disagree": ("simulate", "[localize]",
                               _sensors(8, {}) + _sensors(8, {7: 15}) + "\n[localize]",
                               "ValueError", "duplicate schedule entry for bus 7"),
    "inflate_nan": ("detect", "mode = known_f", "mode = adaptive\ninflate = nan",
                    "ValueError", "inflate must be a finite number above 0, got nan"),
    "inflate_minus_one": ("detect", "mode = known_f", "mode = adaptive\ninflate = -1",
                          "ValueError", "inflate must be a finite number above 0, got -1.0"),
    "inflate_zero": ("detect", "mode = known_f", "mode = adaptive\ninflate = 0",
                     "ValueError", "inflate must be a finite number above 0, got 0.0"),
    "experiment_empty_alphas": ("experiment", "alphas = 1e-2, 1e-4, 1e-6", "alphas =",
                                "ValueError", "alphas must name at least one value"),
    "experiment_empty_modes": ("experiment", "replications = 25", "replications = 25\nmodes =",
                               "ValueError", "modes must name at least one value"),
    # a non-finite or negative variance or shift made a stream no reader accepts
    "noise_variance_nan": ("simulate", "noise_variance = 1e-8", "noise_variance = nan",
                           "ValueError",
                           "[scenario].noise_variance must be a finite number >= 0, got nan"),
    "noise_variance_inf": ("simulate", "noise_variance = 1e-8", "noise_variance = inf",
                           "ValueError",
                           "[scenario].noise_variance must be a finite number >= 0, got inf"),
    "noise_variance_minus_one": (
        "simulate", "noise_variance = 1e-8", "noise_variance = -1", "ValueError",
        "[scenario].noise_variance must be a finite number >= 0, got -1.0"),
    "injection_variance_nan": (
        "simulate", _INJECTION_BLOCK, "injection_variance = nan\n", "ValueError",
        "[scenario].injection_variance must be a finite number >= 0, got nan"),
    "injection_variance_inf": (
        "simulate", _INJECTION_BLOCK, "injection_variance = inf\n", "ValueError",
        "[scenario].injection_variance must be a finite number >= 0, got inf"),
    "mean_shift_nan": ("simulate", "horizon = 60", "horizon = 60\nmean_shift = nan",
                       "ValueError", "[scenario].mean_shift must be a finite number, got nan"),
    "mean_shift_inf": ("simulate", "horizon = 60", "horizon = 60\nmean_shift = inf",
                       "ValueError", "[scenario].mean_shift must be a finite number, got inf"),
    **{f"injection_bus_{name}": ("simulate", "bus4 = 4.0", f"bus4 = {value}", "ValueError",
                                 f"[injection].bus4 must be a finite number >= 0, got {value}")
       for name, value in (("nan", "nan"), ("inf", "inf"), ("minus_one", "-1.0"))},
    "outage_branch_twice": ("simulate", "outage = 3-4, 2-6", "outage = 3-4, 2-6, 4-3",
                            "ValueError", "[scenario].outage names branch 3-4 twice"),
    "injection_variance_and_injection_block": (
        "simulate", "horizon = 60", "horizon = 60\ninjection_variance = 2.0", "ConfigError",
        "[scenario].injection_variance and an [injection] block"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_config_input_is_a_named_error(tmp_path, config_path, capsys, case):
    command, old, new, error, message = BAD_INPUTS[case]
    assert old in CONFIG
    conf = tmp_path / "bad.conf"
    conf.write_text(CONFIG.replace(old, new))
    extra = []
    if command in ("detect", "localize"):
        extra = ["--stream", str(tmp_path / "stream")]
        run_ok(["simulate", "--config", config_path, "--out", extra[1]], capsys)
    code = main([command, "--config", str(conf), "--out", str(tmp_path / "out")] + extra)
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert code == 2
    assert err["error"] == error and message in err["message"], err


# per command: the config line replaced, and its replacement with the keys
# where -1 means the same as leaving the key out
AUTO_KEYS = {
    "detect": ("mode = known_f", "mode = adaptive\nnmin = -1\nestimation_rho = -1.0"),
    "experiment": ("[experiment]", "[experiment]\nmodes = known_f adaptive\nmargin = -1\n"
                                   "nmin = -1"),
    "localize": ("[localize]", "[localize]\nzero = -1.0\nactive = -1"),
}


@pytest.mark.parametrize("command", sorted(AUTO_KEYS))
def test_minus_one_reads_as_a_key_left_out(tmp_path, capsys, command):
    line, keys = AUTO_KEYS[command]
    left_out = "\n".join(k for k in keys.splitlines() if "-1" not in k)
    stream = str(tmp_path / "stream")
    trees = []
    for name, text in (("left_out", left_out), ("minus_one", keys)):
        conf = tmp_path / f"{name}.conf"
        conf.write_text(CONFIG.replace(line, text))
        if not trees:
            run_ok(["simulate", "--config", str(conf), "--out", stream], capsys)
        out = tmp_path / name
        extra = [] if command == "experiment" else ["--stream", stream]
        run_ok([command, "--config", str(conf), "--out", str(out)] + extra, capsys)
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1] and trees[0]


def test_estimation_rho_reaches_the_adaptive_detector(tmp_path, capsys):
    # loop8, 7-8 out at tick 100 of 300, noise 2e-2: the window-position
    # prior moves the adaptive trace, and -1 reads as the key left out
    from gridwatch.detector import ADAPTIVE, run_detector

    base = (CONFIG.replace("outage = 3-4, 2-6", "outage = 7-8")
            .replace("lambda = 21", "lambda = 100").replace("horizon = 60", "horizon = 300")
            .replace("noise_variance = 1e-8", "noise_variance = 2e-2")
            .replace("seed = 3", "seed = 5").replace("rho = 1e-4", "rho = 0.01")
            .replace("mode = known_f", "mode = adaptive"))
    stream_dir = str(tmp_path / "stream")
    traces = {}
    for name, key in (("left_out", ""), ("minus_one", "\nestimation_rho = -1"),
                      ("set", "\nestimation_rho = 0.3")):
        conf = tmp_path / f"{name}.conf"
        conf.write_text(base.replace("mode = adaptive", "mode = adaptive" + key))
        if not traces:
            run_ok(["simulate", "--config", str(conf), "--out", stream_dir], capsys)
        run_ok(["detect", "--config", str(conf), "--stream", stream_dir,
                "--out", str(tmp_path / name)], capsys)
        traces[name] = _read(tmp_path, name, "trace.csv")
    assert traces["minus_one"] == traces["left_out"] != traces["set"]
    stream = parse_stream(os.path.join(stream_dir, "stream.csv"),
                          os.path.join(stream_dir, "stream.meta"))
    g = simgen.scenario_from_blocks(stream.meta).pre_model()
    report = run_detector(stream, DetectorConfig(g=g, mode=ADAPTIVE, alpha=1e-6, rho=0.01,
                                                 estimation_rho=0.3))
    assert cli.TRACE.text(zip(report.step_ticks.tolist(), report.posterior_trace.tolist(),
                              report.log_odds_trace.tolist(), itertools.repeat(report.mode),
                              report.f_refreshed.tolist())) == traces["set"]


def test_candidate_cut_decides_likely_out(tmp_path, capsys):
    # loop8, 3-4 out at tick 200 of 400, nothing flagged, so every branch is
    # a candidate: a cut just above branch 1-2's post/pre ratio marks it out
    # and one just below does not, while every ratio stays as it was
    base = (CONFIG.replace("outage = 3-4, 2-6", "outage = 3-4")
            .replace("lambda = 21", "lambda = 200").replace("horizon = 60", "horizon = 400")
            .replace("exact = true", "exact = true\nzero = 1e-6\nactive = 2.0"))
    stream_dir = str(tmp_path / "stream")

    def admittances(name, key=""):
        conf = tmp_path / f"{name}.conf"
        conf.write_text(base + key)
        if name == "default":
            run_ok(["simulate", "--config", str(conf), "--out", stream_dir], capsys)
        run_ok(["localize", "--config", str(conf), "--stream", stream_dir,
                "--out", str(tmp_path / name)], capsys)
        lines = _read(tmp_path, name, "admittance.csv").splitlines()[1:]
        return {ln.split(",")[0]: (float(ln.split(",")[5]), ln.split(",")[6]) for ln in lines}

    default = admittances("default")
    ratio = default["1-2"][0]
    assert 0.1 < ratio < 1.0 and default["1-2"][1] == "0"
    for name, cut in (("below", 0.999 * ratio), ("above", 1.001 * ratio)):
        rows = admittances(name, f"candidate_cut = {cut!r}\n")
        assert {b: r for b, (r, _) in rows.items()} == {b: r for b, (r, _) in default.items()}
        assert {b: out for b, (_, out) in rows.items()} == {
            b: "1" if r < cut else "0" for b, (r, _) in rows.items()}
    assert rows["1-2"][1] == "1"


def test_readme_config_documents_every_key(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("A complete config:\n\n```ini\n", 1)[1].split("```", 1)[0]
    conf = tmp_path / "readme.conf"
    conf.write_text(text)
    blocks = cli.load_config(str(conf))
    # [scenario], [injection] and [sensor] through their tables
    scenario = cli.build_scenario(blocks, str(tmp_path), None)
    assert scenario.injection_variance == {4: 4.0, 5: 4.0, 6: 6.0}
    assert scenario.schedule.entries == ((7, "magnitude", 15),)
    for name in cli._SECTIONS:
        cli._read(blocks, name)
    # keys set in the block, and the alternatives its comments name ("or: key =")
    documented: dict[str, set] = {}
    for line in text.splitlines():
        if line.startswith("["):
            keys = documented.setdefault(line[1:line.index("]")], set())
        keys.update(re.findall(r"(?:^|or: )(\w+) =", line))
    assert documented.pop("injection") == {"bus4", "bus5", "bus6"}
    tables = {"scenario": simgen._SCENARIO, "sensor": simgen._SENSOR,
              **{name: kinds for name, (kinds, _) in cli._SECTIONS.items()}}
    assert documented == {name: set(kinds) for name, kinds in tables.items()}


def test_detector_keys_are_the_config_fields():
    # a DetectorConfig field and its [detector] key come and go together;
    # the models come from the scenario
    fields = {field.name for field in dataclasses.fields(DetectorConfig)}
    assert set(cli._SECTIONS["detector"][0]) == fields - {"g", "f"}


def test_detect_rejects_stream_with_nan_sample(tmp_path, config_path, capsys):
    stream_dir = tmp_path / "stream"
    run_ok(["simulate", "--config", config_path, "--out", str(stream_dir)], capsys)
    data = stream_dir / "stream.csv"
    lines = data.read_text().splitlines(keepends=True)
    tick, coord, _, fresh = lines[100].split(",")
    lines[100] = f"{tick},{coord},nan,{fresh}"
    data.write_text("".join(lines))
    code = main(["detect", "--config", config_path, "--stream", str(stream_dir),
                 "--out", str(tmp_path / "detect")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    # the stream boundary rejects the sample before the detector sees it
    assert err["error"] == "ConfigError"
    assert "row 100: non-finite value nan" in err["message"]


def _localize_error(tmp_path, capsys, config):
    conf = tmp_path / "localize.conf"
    conf.write_text(config)
    stream_dir = str(tmp_path / "stream")
    run_ok(["simulate", "--config", str(conf), "--out", stream_dir], capsys)
    code = main(["localize", "--config", str(conf), "--stream", stream_dir,
                 "--out", str(tmp_path / "localize")])
    assert code == 2
    return json.loads(capsys.readouterr().err.splitlines()[-1])


def test_exact_localize_names_the_driven_buses_without_injection(tmp_path, capsys):
    # the README's [injection] block: buses 2, 3, 7 and 8 of loop8 drive
    # voltages but draw no injection, so the noise-free covariance is singular
    conf = tmp_path / "silent.conf"
    conf.write_text(CONFIG.replace(_INJECTION_BLOCK, "\n[injection]\nbus4 = 4.0\n"
                                                     "bus5 = 4.0\nbus6 = 6.0\n"))
    stream = str(tmp_path / "stream")
    run_ok(["simulate", "--config", str(conf), "--out", stream], capsys)
    code = main(["localize", "--config", str(conf), "--stream", stream,
                 "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert code == 2
    assert err == {"error": "ConfigError", "message": (
        "[localize] exact = true scores the noise-free covariance, which is singular: "
        "[injection] leaves driven buses 2, 3, 7, 8 at variance 0")}


def test_heatmap_names_the_driven_buses_without_injection(tmp_path, capsys):
    # the same [injection] block: the heatmap's exact matrices are the same
    # noise-free covariances, so the heatmap meets the same singular block
    conf = tmp_path / "silent.conf"
    conf.write_text(CONFIG.replace(_INJECTION_BLOCK, "\n[injection]\nbus4 = 4.0\n"
                                                     "bus5 = 4.0\nbus6 = 6.0\n"))
    out = tmp_path / "heat"
    assert main(["heatmap", "--config", str(conf), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err == {"error": "ConfigError", "message": (
        "heatmap scores the noise-free covariance, which is singular: "
        "[injection] leaves driven buses 2, 3, 7, 8 at variance 0")}
    assert not (out / "heatmap_pre.csv").exists()


LOOP12_NOISY = """\
[scenario]
feeder = loop12
outage = 8-10
lambda = 31
noise_variance = 1e-4
horizon = 80
seed = 4

[localize]
exact = true
"""


def test_exact_localize_and_heatmap_write_the_same_exact_matrices(tmp_path, capsys):
    # with noise well above 0 the two commands still score one pair of
    # noise-free matrices, byte for byte
    conf = tmp_path / "loop12.conf"
    conf.write_text(LOOP12_NOISY)
    stream = str(tmp_path / "stream")
    run_ok(["simulate", "--config", str(conf), "--out", stream], capsys)
    out = run_ok(["localize", "--config", str(conf), "--stream", stream,
                  "--out", str(tmp_path / "loc")], capsys)
    assert out == "flagged branches: 8-10\n"
    run_ok(["heatmap", "--config", str(conf), "--out", str(tmp_path / "heat")], capsys)
    for rho, heat in (("rho_pre.csv", "heatmap_pre.csv"), ("rho_post.csv", "heatmap_post.csv")):
        assert _read(tmp_path, "loc", rho) == _read(tmp_path, "heat", heat)


def test_heatmap_exact_score_of_an_out_loop_branch_collapses(tmp_path, capsys):
    # the benchmark's 90-bus feeder at seed 270, where the 1e-8 measurement
    # noise alone would lift the out branch's post score to 1.06e-6, above
    # the exact zero: the exact matrices leave the noise out
    from gridwatch.experiments import parse_heatmap_csv
    from gridwatch.localizer import EXACT_THRESHOLDS

    feeder = tmp_path / "random.feeder"
    feeder.write_text(format_feeder(random_feeder(90, loops=5, seed=270)))
    conf = tmp_path / "heat.conf"
    conf.write_text("[scenario]\nfeeder = random.feeder\noutage = 67-71\nlambda = 1001\n"
                    "horizon = 3000\nseed = 270\n")
    run_ok(["heatmap", "--config", str(conf), "--out", str(tmp_path / "heat")], capsys)
    (buses, pre), (_, post) = (parse_heatmap_csv(_read(tmp_path, "heat", name))
                               for name in ("heatmap_pre.csv", "heatmap_post.csv"))
    i, j = buses.index(67), buses.index(71)
    assert pre[i, j] > EXACT_THRESHOLDS.active
    assert post[i, j] < EXACT_THRESHOLDS.zero


def test_localize_all_pairs_and_explicit_thresholds(tmp_path, config_path, capsys):
    stream_dir = str(tmp_path / "stream")
    run_ok(["simulate", "--config", config_path, "--out", stream_dir], capsys)

    def localize(name, keys):
        conf = tmp_path / f"{name}.conf"
        conf.write_text(CONFIG.replace("estimate_admittance = true", keys))
        run_ok(["localize", "--config", str(conf), "--stream", stream_dir,
                "--out", str(tmp_path / name)], capsys)
        return cli.parse_localization_csv(_read(tmp_path, name, "localization.csv"))

    rows = localize("all", "pairs = all")
    assert sorted(r["pair"] for r in rows) == [(i, j) for i in range(1, 9)
                                               for j in range(i + 1, 9)]
    assert {(3, 4), (2, 6)} <= {r["pair"] for r in rows if r["flagged"]}
    # the given floors, not the exact defaults, decide the flags
    rows = localize("floors", "pairs = all\nzero = 0.05\nactive = 0.4")
    assert [r["flagged"] for r in rows] == [
        not r["degenerate"] and r["rho_pre"] > 0.4 and r["rho_post"] < 0.05 for r in rows]
    assert not any(r["flagged"] for r in localize("none", "zero = 1e-6\nactive = 2.0"))
    # admittances are estimated for the flagged pairs that are branches only
    flagged = {r["pair"] for r in localize("admittance", "pairs = all\nestimate_admittance = true")
               if r["flagged"]}
    branches = {br.pair for br in load_feeder("loop8").branches}
    assert flagged - branches and {(3, 4), (2, 6)} <= flagged & branches
    lines = _read(tmp_path, "admittance", "admittance.csv").splitlines()[1:]
    assert [ln.split(",")[0] for ln in lines] == [f"{i}-{j}" for i, j in
                                                  sorted(flagged & branches)]


def test_localize_ignores_the_retired_n_boot(tmp_path, config_path, capsys):
    # n_boot set the bootstrap floors' resample count; 0 was an error
    stream_dir = str(tmp_path / "stream")
    run_ok(["simulate", "--config", config_path, "--out", stream_dir], capsys)
    trees = []
    for name, keys in (("none", ""), ("zero", "n_boot = 0"), ("many", "n_boot = 200")):
        conf = tmp_path / f"{name}.conf"
        conf.write_text(CONFIG.replace("exact = true", f"exact = false\n{keys}"))
        out = tmp_path / name
        run_ok(["localize", "--config", str(conf), "--stream", stream_dir, "--out", str(out)],
               capsys)
        trees.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert trees[0] == trees[1] == trees[2]


def test_localize_short_window_flags_nothing_and_names_the_minimum(tmp_path, capsys):
    # 380 post-outage ticks cannot show a score below delta at the level:
    # every branch is scored, none is flagged, and stdout names the fewest
    # ticks that could, from the Kish size of the post window's weights
    from scipy.stats import norm

    conf = tmp_path / "short.conf"
    conf.write_text(CONFIG.replace("exact = true", "exact = false")
                    .replace("horizon = 60", "horizon = 400"))
    stream_dir, out = str(tmp_path / "stream"), tmp_path / "localize"
    run_ok(["simulate", "--config", str(conf), "--out", stream_dir], capsys)
    said = run_ok(["localize", "--config", str(conf), "--stream", stream_dir,
                   "--out", str(out)], capsys)
    rows = cli.parse_localization_csv(_read(out, "localization.csv"))
    branches = load_feeder("loop8").branches
    assert sorted(r["pair"] for r in rows) == sorted(br.pair for br in branches)
    assert not any(r["flagged"] for r in rows)
    # d = 16, k = 12, 4 cross entries for each branch; [detector] rho = 1e-4
    need = 15 + (norm.isf(1e-3 / (4 * len(branches))) / np.arctanh(0.1)) ** 2
    ticks = int(need)
    while True:
        w = 1.0 - (1.0 - 1e-4) ** np.arange(1, ticks + 1)
        if w.sum() ** 2 / (w @ w) > need:
            break
        ticks += 1
    assert (f"zero test left out: a post window of 380 ticks is too short to show a score "
            f"below 0.1 at level 0.001; it needs at least {ticks} ticks") in said
    assert "flagged branches: (none)" in said


def test_localize_post_window_too_short_for_fisher_z(tmp_path, capsys):
    # 18 post ticks weighted 1 - (1 - 1e-4)^k have a Kish size of 13.9, not
    # above k + 3 = 15 for the 12 coordinates each branch is conditioned on
    err = _localize_error(tmp_path, capsys,
                          CONFIG.replace("exact = true", "exact = false\npost_ticks = 18"))
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("[localize]: post-event window of effective size 13.")
    assert err["message"].endswith("given 12 coordinates: need more than 15")


def test_localize_post_ticks_may_reach_the_stream_end(tmp_path, capsys):
    # the 380 ticks from the outage on are the default post window, and the
    # most that post_ticks may name
    config = (CONFIG.replace("exact = true", "exact = false")
              .replace("horizon = 60", "horizon = 400"))
    stream_dir = str(tmp_path / "stream")
    (tmp_path / "sim.conf").write_text(config)
    run_ok(["simulate", "--config", str(tmp_path / "sim.conf"), "--out", stream_dir], capsys)
    runs = []
    for name, keys in (("default", ""), ("all", "\npost_ticks = 380")):
        conf = tmp_path / f"{name}.conf"
        conf.write_text(config.replace("exact = false", f"exact = false{keys}"))
        out = tmp_path / name
        said = run_ok(["localize", "--config", str(conf), "--stream", stream_dir,
                       "--out", str(out)], capsys)
        runs.append((said, {path.name: path.read_bytes() for path in out.iterdir()}))
    assert runs[0] == runs[1]
    assert "a post window of 380 ticks" in runs[0][0]


PARTIAL_CONFIG = """\
[scenario]
feeder = loop12
outage = 8-10
lambda = 301
noise_variance = 1e-8
horizon = 600
seed = 4

[localize]
n_boot = 20
"""


def _partial_config(tmp_path, buses):
    sensors = "".join(f"\n[sensor]\nbus = {b}\nkind = phasor\nperiod = 1\n" for b in buses)
    path = tmp_path / "partial.conf"
    path.write_text(PARTIAL_CONFIG + sensors)
    return str(path)


def test_localize_scores_only_fully_sensed_branches(tmp_path, capsys):
    # of loop12's branches only 8-10 has both buses among the sensed ones
    conf = _partial_config(tmp_path, [3, 5, 8, 10])
    stream_dir, loc_dir = str(tmp_path / "stream"), str(tmp_path / "localize")
    run_ok(["simulate", "--config", conf, "--out", stream_dir], capsys)
    run_ok(["localize", "--config", conf, "--stream", stream_dir, "--out", loc_dir], capsys)
    rows = _read(loc_dir, "localization.csv").splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["8-10"]


def test_localize_without_fully_sensed_branch_is_config_error(tmp_path, capsys):
    conf = _partial_config(tmp_path, [3, 5])
    stream_dir = str(tmp_path / "stream")
    run_ok(["simulate", "--config", conf, "--out", stream_dir], capsys)
    code = main(["localize", "--config", conf, "--stream", stream_dir,
                 "--out", str(tmp_path / "localize")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "no branch has both of its buses sensed" in err["message"]


@pytest.mark.parametrize("keys", ["exact = true", "exact = false",
                                  "exact = false\nzero = 1e-6\nactive = 1e-2"])
def test_localize_with_no_pair_to_score_is_config_error(tmp_path, capsys, keys):
    # one sensed bus leaves pairs = all without a pair: exact localize and
    # localize with explicit thresholds wrote an empty localization.csv
    config = CONFIG.replace("exact = true\nestimate_admittance = true", f"pairs = all\n{keys}")
    err = _localize_error(tmp_path, capsys,
                          config + "\n[sensor]\nbus = 4\nkind = phasor\nperiod = 1\n")
    assert err == {"error": "ConfigError", "message": "[localize]: no pair to score"}


def test_pmu_sweep_rejects_periods_above_one(tmp_path, capsys):
    # every bus sensed, magnitude at buses 3, 6, 9 and 12, period 2 at even
    # buses: held values would be scored with per-tick models
    sensors = "".join(f"\n[sensor]\nbus = {b}\nkind = {'magnitude' if b % 3 == 0 else 'phasor'}"
                      f"\nperiod = {2 - b % 2}\n" for b in range(1, 13))
    conf = tmp_path / "sweep.conf"
    conf.write_text(PARTIAL_CONFIG + "\n[detector]\nrho = 1e-4\n\n[pmu_sweep]\n"
                    "counts = 10, 6, 3\nreplications = 10\n" + sensors)
    code = main(["pmu-sweep", "--config", str(conf), "--out", str(tmp_path / "sweep")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err == {"error": "ValueError", "message": "coverage sweeps need every channel "
                   "at period 1: bus 2 has period 2"}


def test_localize_estimates_reject_periods_above_one(tmp_path, capsys):
    # estimated covariances and admittances read held values as samples;
    # the exact model covariances do not read the stream
    conf, sensors = tmp_path / "slow.conf", _sensors(12, {9: 3})
    conf.write_text(PARTIAL_CONFIG + sensors)
    stream_dir = str(tmp_path / "stream")
    run_ok(["simulate", "--config", str(conf), "--out", stream_dir], capsys)
    message = "stream estimates need every channel at period 1: bus 9 has period 3"
    for keys, code in (("", 2), ("exact = true", 0),
                       ("exact = true\nestimate_admittance = true", 2)):
        conf.write_text(PARTIAL_CONFIG.replace("[localize]", f"[localize]\n{keys}") + sensors)
        assert main(["localize", "--config", str(conf), "--stream", stream_dir,
                     "--out", str(tmp_path / "localize")]) == code
        captured = capsys.readouterr()
        if code:
            err = json.loads(captured.err.splitlines()[-1])
            assert err == {"error": "ValueError", "message": message}
        else:
            assert "flagged branches: 8-10" in captured.out


@pytest.mark.parametrize("alpha", ["1e-305", "1e-300"])
def test_alpha_past_the_log_odds_clamp_is_rejected(tmp_path, capsys, alpha):
    # log((1 - alpha) / alpha) is 702.3 at 1e-305, past the clamp at 700
    conf = tmp_path / "alpha.conf"
    conf.write_text(CONFIG.replace("alpha = 1e-6", f"alpha = {alpha}")
                    .replace("alphas = 1e-2, 1e-4, 1e-6", f"alphas = 1e-2, {alpha}"))
    stream = str(tmp_path / "stream")
    run_ok(["simulate", "--config", str(conf), "--out", stream], capsys)
    for argv in (["detect", "--stream", stream], ["experiment"], ["pmu-sweep"]):
        code = main(argv + ["--config", str(conf), "--out", str(tmp_path / argv[0])])
        err = capsys.readouterr().err
        if alpha == "1e-300":
            assert code == 0, err
            continue
        assert code == 2
        assert json.loads(err.splitlines()[-1]) == {
            "error": "ValueError", "message": "alpha 1e-305 needs log-odds 702.3, past the "
                                              "clamp at 700: it could never alarm"}
        assert not os.path.exists(tmp_path / argv[0])


def test_missing_feeder_file_error(tmp_path, capsys):
    # a name that is no file and no bundled feeder, and an empty value (the
    # config's own directory), are config faults, not OS errors
    conf = tmp_path / "c.conf"
    for value, shown in (("nosuch", "'nosuch'"), ("", "''")):
        conf.write_text(f"[scenario]\nfeeder = {value}\nhorizon = 5\n")
        code = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "ConfigError",
            "message": f"[scenario].feeder = {shown} is neither a file nor a bundled feeder "
                       f"(path3, loop8, loop12)"}


def test_emitted_csvs_round_trip_through_parsers(tmp_path, config_path, capsys):
    from gridwatch.experiments import MetricsTable, parse_heatmap_csv

    stream_dir = str(tmp_path / "stream")
    run_ok(["simulate", "--config", config_path, "--out", stream_dir], capsys)
    for cmd, extra in (("detect", ["--stream", stream_dir]),
                       ("localize", ["--stream", stream_dir]),
                       ("experiment", []), ("pmu-sweep", []), ("heatmap", [])):
        out_dir = str(tmp_path / cmd)
        run_ok([cmd, "--config", config_path, "--out", out_dir] + extra, capsys)

    text = _read(tmp_path, "detect", "trace.csv")
    trace = cli.TRACE.rows(text)
    assert trace[0][0] == 1 and len(trace) == 60
    assert cli.TRACE.text(trace) == text
    text = _read(tmp_path, "localize", "localization.csv")
    rows = cli.parse_localization_csv(text)
    assert {r["pair"] for r in rows if r["flagged"]} == {(3, 4), (2, 6)}
    assert cli.LOCALIZATION.text((*r[0], *r[1:]) for r in cli.LOCALIZATION.rows(text)) == text
    text = _read(tmp_path, "localize", "admittance.csv")
    rows = cli.ADMITTANCE.rows(text)
    assert {pair for pair, *_, likely_out in rows if likely_out} == {(3, 4), (2, 6)}
    assert cli.ADMITTANCE.text((*r[0], *r[1:]) for r in rows) == text
    text = _read(tmp_path, "experiment", "metrics.csv")
    metrics = MetricsTable.from_csv(text)
    assert len(metrics.rows) == 3 and metrics.to_csv() == text
    text = _read(tmp_path, "pmu-sweep", "pmu_sweep.csv")
    sweep = pmu_sweep_from_csv(text)
    assert [r.n_sensors for r in sweep.rows] == [8, 4, 2] and sweep.to_csv() == text
    assert [r.buses for r in sweep.rows] == [tuple(range(1, 9)), (2, 4, 5, 8), (2, 5)]
    for name in ("heatmap_pre.csv", "heatmap_post.csv"):
        buses, matrix = parse_heatmap_csv(_read(tmp_path, "heatmap", name))
        assert buses == tuple(range(1, 9))
        np.testing.assert_array_equal(np.diag(matrix), np.ones(8))
    buses, rho_pre = parse_heatmap_csv(_read(tmp_path, "localize", "rho_pre.csv"))
    assert buses == tuple(range(1, 9))


# every artifact table, and one valid row of its text
TABLES = {
    "trace": (cli.TRACE, "1,0.5,-2.0,known_f,0"),
    "localization": (cli.LOCALIZATION, "3-4,0.9,0.01,0.89,1,0"),
    "admittance": (cli.ADMITTANCE, "3-4,1.0,-2.0,0.0,0.0,0.0,1"),
    "metrics": (experiments.METRICS, "0.01,known_f,25,3.5,0.76,0.0,2.1,0,0"),
    "pmu_sweep": (experiments.PMU_SWEEP, "4,2 4 5 8,0.3,7.5,1.0"),
}


def _malformed(table, row: str, case: str) -> tuple[str, str]:
    """(text, the message it must raise) of a malformed case of a table; the
    row sits on line 3, after a blank line."""
    cells = row.split(",")
    names = table.header.split(",")
    if case == "empty":
        return "", f"line 1: expected the header {table.header!r}, got ''"
    if case == "wrong_header":
        header = table.header.replace(",", ";", 1)
        return f"{header}\n\n{row}\n", f"line 1: expected the header {table.header!r}"
    if case in ("short_row", "long_row"):
        cells = cells[:-1] if case == "short_row" else cells + ["0"]
        return (f"{table.header}\n\n{','.join(cells)}\n",
                f"line 3: {len(cells)} fields, expected {len(table.kinds)}")
    kind, bad, message = ((float, "1.2.3", "not a number") if case == "bad_number"
                          else (textconf.boolean, "2", "not a boolean"))
    k = table.kinds.index(kind)
    cells[k] = bad
    return (f"{table.header}\n\n{','.join(cells)}\n",
            f"line 3: {names[k]}: {message}: {bad!r}")


# each table with each malformed case; a flag of 2 where the table has a flag
MALFORMED = [pytest.param(name, case, id=f"{name}-{case}") for name in sorted(TABLES)
             for case in ("empty", "wrong_header", "short_row", "long_row", "bad_number",
                          "flag_of_two")
             if case != "flag_of_two" or textconf.boolean in TABLES[name][0].kinds]


@pytest.mark.parametrize("name, case", MALFORMED)
def test_malformed_artifact_text_is_a_config_error_naming_the_line(name, case):
    table, row = TABLES[name]
    assert table.rows(f"{table.header}\n\n{row}\n")  # the row itself is valid
    text, message = _malformed(table, row, case)
    with pytest.raises(textconf.ConfigError) as info:
        table.rows(text)
    assert str(info.value).startswith(message), info.value
