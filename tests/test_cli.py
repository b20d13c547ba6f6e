"""End-to-end CLI: simulate -> detect -> localize pipeline, heatmaps,
experiment/sweep emitters, determinism and the machine-readable error path."""

import json
import os

import numpy as np
import pytest

from gridwatch.cli import main
from gridwatch.simgen import parse_stream

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
    trace = open(os.path.join(detect_dir, "trace.csv")).read().splitlines()
    assert trace[0] == "n,posterior,log_odds,mode,f_refreshed"
    assert len(trace) == 61
    meta = open(os.path.join(detect_dir, "detection.meta")).read()
    assert "tau = 21" in meta and "delay = 0" in meta

    loc_dir = str(tmp_path / "localize")
    out = run_ok(["localize", "--config", config_path, "--stream", stream_dir,
                  "--out", loc_dir], capsys)
    assert "2-6, 3-4" in out
    rows = open(os.path.join(loc_dir, "localization.csv")).read().splitlines()
    flagged = {r.split(",")[0] for r in rows[1:] if r.split(",")[4] == "1"}
    assert flagged == {"3-4", "2-6"}
    adm = open(os.path.join(loc_dir, "admittance.csv")).read().splitlines()
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
    metrics = open(os.path.join(exp_dir, "metrics.csv")).read().splitlines()
    assert metrics[0].startswith("alpha,mode,replications")
    assert len(metrics) == 4  # header + 3 alphas

    sweep_dir = str(tmp_path / "sweep")
    run_ok(["pmu-sweep", "--config", config_path, "--out", sweep_dir], capsys)
    rows = open(os.path.join(sweep_dir, "pmu_sweep.csv")).read().splitlines()
    assert rows[0] == "n_sensors,buses,kl,avg_delay,frac_delay_ge_prev"
    assert [r.split(",")[0] for r in rows[1:]] == ["8", "4", "2"]


def test_heatmap_cli(tmp_path, config_path, capsys):
    # heatmap wants enough post-outage ticks to estimate a covariance
    conf = tmp_path / "heat.conf"
    conf.write_text(CONFIG.replace("horizon = 60", "horizon = 400"))
    heat_dir = str(tmp_path / "heat")
    run_ok(["heatmap", "--config", str(conf), "--out", heat_dir], capsys)
    for name in ("heatmap_pre.csv", "heatmap_post.csv", "heatmap_post_estimated.csv"):
        lines = open(os.path.join(heat_dir, name)).read().splitlines()
        assert lines[0] == "bus,1,2,3,4,5,6,7,8"
        diag = [float(lines[k].split(",")[k]) for k in range(1, 9)]
        assert diag == [1.0] * 8


def _tree_bytes(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
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


def test_localize_rejects_n_boot_below_one(tmp_path, capsys):
    err = _localize_error(tmp_path, capsys,
                          CONFIG.replace("exact = true", "exact = false\nn_boot = 0"))
    assert err == {"error": "ConfigError",
                   "message": "[localize].n_boot must be at least 1, got 0"}


def test_localize_short_window_names_the_bootstrap(tmp_path, capsys):
    # 20 pre-outage samples for dim 16: the window itself has full rank,
    # but a resample holds about 13 distinct samples
    err = _localize_error(tmp_path, capsys, CONFIG.replace(
        "exact = true", "exact = false").replace("horizon = 60", "horizon = 400"))
    assert err["error"] == "SingularBlockError"
    assert "bootstrap resample 0 of 200 from a window of 20 samples in dim 16" in err["message"]


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
    rows = open(os.path.join(loc_dir, "localization.csv")).read().splitlines()
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


def test_missing_feeder_file_error(tmp_path, capsys):
    conf = tmp_path / "c.conf"
    conf.write_text("[scenario]\nfeeder = nosuch\nhorizon = 5\n")
    code = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "o")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] in (
        "FileNotFoundError", "ConfigError")


def test_emitted_csvs_round_trip_through_parsers(tmp_path, config_path, capsys):
    from gridwatch.cli import parse_localization_csv, parse_trace_csv
    from gridwatch.experiments import MetricsTable, PmuSweepTable, parse_heatmap_csv

    stream_dir = str(tmp_path / "stream")
    run_ok(["simulate", "--config", config_path, "--out", stream_dir], capsys)
    for cmd, extra in (("detect", ["--stream", stream_dir]),
                       ("localize", ["--stream", stream_dir]),
                       ("experiment", []), ("pmu-sweep", []), ("heatmap", [])):
        out_dir = str(tmp_path / cmd)
        run_ok([cmd, "--config", config_path, "--out", out_dir] + extra, capsys)

    trace = parse_trace_csv(open(tmp_path / "detect" / "trace.csv").read())
    assert trace["n"][0] == 1 and len(trace["posterior"]) == 60
    rows = parse_localization_csv(open(tmp_path / "localize" / "localization.csv").read())
    assert {r["pair"] for r in rows if r["flagged"]} == {(3, 4), (2, 6)}
    metrics = MetricsTable.from_csv(open(tmp_path / "experiment" / "metrics.csv").read())
    assert len(metrics.rows) == 3
    sweep = PmuSweepTable.from_csv(open(tmp_path / "pmu-sweep" / "pmu_sweep.csv").read())
    assert [r.n_sensors for r in sweep.rows] == [8, 4, 2]
    for name in ("heatmap_pre.csv", "heatmap_post.csv"):
        buses, matrix = parse_heatmap_csv(open(tmp_path / "heatmap" / name).read())
        assert buses == tuple(range(1, 9))
        np.testing.assert_array_equal(np.diag(matrix), np.ones(8))
    buses, rho_pre = parse_heatmap_csv(open(tmp_path / "localize" / "rho_pre.csv").read())
    assert buses == tuple(range(1, 9))
