"""Byte-identity pins: sha256 digests of model covariances, simulated streams
and a seeded random feeder, captured before the model and the simulator
shared one network-transfer path.  Any moved byte fails the test; a change
that is meant to alter numerics must say so and capture new digests.

The digests of the experiment and coverage-sweep tables were captured
while each replication was still scored on its own, before replications
were scored in chunks through one batch detector core.

The digests of the files write_stream writes (stream, sidecar and
injections) were captured while each row's text still began with its own
f-string, before a block of rows was joined from shared parts.

The digests of the heatmap command's output files were captured while its
exact and estimated matrices were still made one after the other in one
process, and every cell was formatted on its own.

The digests of the adaptive detect trees were captured after each
adaptive step's covariance was factored with its deviation as one bordered
Cholesky factor, in place of an LU solve on the factor (a labelled change
of the last bits of adaptive log f).

Every digest is taken with OpenBLAS at one thread (the one_blas_thread
fixture): a product over many rows, like the estimator's, can round
otherwise at another thread count.  The random30 estimated heatmap was
captured again at one thread, with no change to the code that makes it.

The cases cover the bundled feeders, dict injection variances, a mean shift,
recorded injections, a mixed magnitude/phasor schedule, a slack-only island
next to a dead one, DER islands (one of them grounding-only) and a dead
island on a random feeder.
"""

import ctypes
import hashlib
import os

import numpy as np
import pytest

from gridwatch import detector, experiments, forking, simgen
from gridwatch.cli import main
from gridwatch.experiments import ExperimentConfig, run_experiment, run_pmu_sweep
from gridwatch.grid import format_feeder, islands, load_feeder, random_feeder
from gridwatch.simgen import Scenario, SensorSchedule, generate, write_stream
from oracles import forks_under

DER_FEEDER = dict(bus_count=24, loops=2, seed=5, der_buses={9, 17, 20})
# the thread-count symbols of numpy's and scipy's OpenBLAS builds and of a
# plain one, "get" or "set" in the gap
OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                    "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@pytest.fixture(autouse=True, scope="module")
def one_blas_thread():
    """Every OpenBLAS loaded into this process (found by its path in
    /proc/self/maps) at one thread through its own set-threads symbol while
    these tests run, then back at its former count."""
    calls = []
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in OPENBLAS_THREADS:
                get = getattr(lib, name.format("get"), None)
                if get is not None:
                    get.restype = ctypes.c_int
                    calls.append((getattr(lib, name.format("set")), int(get())))
                    break
    for put, _ in calls:
        put(1)
    yield
    for put, count in calls:
        put(count)


def _scenario(case: str) -> Scenario:
    if case == "path3":
        # head branch out: slack-only island {1} next to the dead island {2, 3}
        return Scenario(load_feeder("path3"), ((1, 2),), lam=30, horizon=60, seed=11)
    if case == "loop8":
        return Scenario(load_feeder("loop8"), ((3, 4), (2, 6)), lam=21, horizon=120,
                        seed=3, injection_variance={1: 1.0, 2: 1.0, 3: 1.0, 4: 4.0,
                                                   5: 4.0, 6: 6.0, 7: 1.0, 8: 1.0},
                        mean_shift=0.5, record_injections=True)
    if case == "loop12":
        schedule = SensorSchedule.from_kinds(
            {b: ("magnitude", 3) if b % 3 == 0 else ("phasor", 1) for b in range(1, 13)})
        return Scenario(load_feeder("loop12"), ((8, 10),), lam=40, horizon=80, seed=2,
                        injection_variance=2.5, noise_variance=1e-6, schedule=schedule)
    if case == "random-der":
        # (4, 5) leaves a four-bus DER island, (7, 17) a DER island of bus 17 alone
        return Scenario(random_feeder(**DER_FEEDER), ((4, 5), (7, 17)), lam=25,
                        horizon=50, seed=8)
    if case == "random-dead":
        return Scenario(random_feeder(**DER_FEEDER), ((2, 3),), lam=25, horizon=50,
                        seed=9, mean_shift=0.25)
    raise KeyError(case)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def case_digests(case: str) -> dict[str, str]:
    scenario = _scenario(case)
    stream = generate(scenario)
    out = {"pre_cov": _digest(scenario.pre_model().cov),
           "post_cov": _digest(scenario.post_model().cov),
           "values": _digest(stream.values)}
    if stream.injections is not None:
        out["injections"] = _digest(stream.injections)
    return out


GOLDEN = {
    "path3": {
        "pre_cov": "99884e793d8adc776216ec53d0c0553b0b1869b6a425e0a54924ee4f91631f68",
        "post_cov": "53bac1dd96de38e01273273c2c46698af199a73d7fc2a94e3eab10af2aad6b28",
        "values": "86c20f5ac3108bca35a04a601714550357260392c0f6e7f6b775e0de6251a751",
    },
    "loop8": {
        "pre_cov": "37e250b7c887897bb63a696a95a4e35a9207bd677df140b40320fd531e19a054",
        "post_cov": "3142d97a6a137413aed2789f12451b346a0383ddea7ce10be080cfa7cea28e19",
        "values": "773b0c80c70ed4f6a7c5a6d66dd30d62c8f9ed3900d8204588c994258ece2feb",
        "injections": "229aaf848cd0d1aa70a14872ccd6ab579668f7c1cdab266027653f59bc478976",
    },
    "loop12": {
        "pre_cov": "c8de720d08da77962abba004f27dd4bfc2dcc0f31fe4b1f6ff736e0592b90aef",
        "post_cov": "5caca4d6047ee92069350e918f92239877abf7c523993d495a240e05da994aef",
        "values": "9f8b7d3bb80e03bc4b492e41200a682c4d640360bb4f65ab1b1af908a434d31e",
    },
    "random-der": {
        "pre_cov": "2cb2329b3bd159f9b1c4a25c08fee2c50dfc212e9c74a879b2212785a4172661",
        "post_cov": "480e20f25475fc811098c3b00f84d445c04569f7cd6d66ef6a1a6b0abb391e71",
        "values": "666100b79947aeda9b98fd2f75b21631969a98cfe2f312b6c917fafc2cf65a43",
    },
    "random-dead": {
        "pre_cov": "2cb2329b3bd159f9b1c4a25c08fee2c50dfc212e9c74a879b2212785a4172661",
        "post_cov": "57a6aee98136246e73a3921e195cc87b4db9989732cf34e181bf3c011653e8f1",
        "values": "a7ac7887177eae6c53eb943d1d751dec3621e371a55c40c129c48625514952d2",
    },
}
RANDOM30_DIGEST = "22c99fd143a4e64dd82706461a60a28e4aa92080e1513a75ed878ebecc832d3d"


def test_cases_hold_the_islands_they_name():
    kinds = {case: sorted(i.kind for i in islands(_scenario(case).post_topology()))
             for case in ("path3", "random-der", "random-dead")}
    assert kinds == {"path3": ["dead", "slack"],
                     "random-der": ["der", "der", "slack"],
                     "random-dead": ["dead", "slack"]}
    der = [i.buses for i in islands(_scenario("random-der").post_topology())
           if i.kind == "der"]
    assert sorted(map(len, der)) == [1, 4]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_digests_match_golden(case):
    assert case_digests(case) == GOLDEN[case]


# loop8: recorded injections and a mean shift; loop12: magnitude channels at
# period 3, so the stream file holds stale rows
STREAM_FILES = {
    "loop8": {
        "stream.csv": "6c08f34bd103b7bde8c055e8f4062bda6aded99816c34ef077dbfb513c77b1d1",
        "stream.meta": "fdb0eb255ef02a76f6751c4e3177a8bda1d09cba1c7c27564d477b99fd71ad41",
        "injections.csv": "bcda4cb6ac4ce934fe0a31b6fa5c22cad693aff0f2458c90e44394c4f410efe8",
    },
    "loop12": {
        "stream.csv": "6ea71616e9c9bf12ee1f187b5bce9cf6029bf26eda886148a17d45dc19c98c56",
        "stream.meta": "e76a9443b0e75f87ee361de8b4d9d53f12ed9cdd4385737d89d2b8ff080d6092",
    },
}


@pytest.mark.parametrize("case", sorted(STREAM_FILES))
def test_stream_files_are_pinned(case, tmp_path):
    scenario = _scenario(case)
    paths = {name: tmp_path / name for name in ("stream.csv", "stream.meta", "injections.csv")}
    write_stream(generate(scenario), str(paths["stream.csv"]), str(paths["stream.meta"]),
                 scenario, injections_path=str(paths["injections.csv"]))
    written = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items() if path.exists()}
    assert written == STREAM_FILES[case]


@pytest.mark.parametrize("case", sorted(STREAM_FILES))
def test_split_stream_files_match_the_pins(case, tmp_path, monkeypatch):
    # blocks of 64 rows, written by two processes even on a one-CPU host
    monkeypatch.setattr(simgen, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(forking, "cpus", lambda: 2)
    forked, fork = [], forking.forked
    monkeypatch.setattr(forking, "forked", lambda *halves: forked.append(halves) or fork(*halves))
    test_stream_files_are_pinned(case, tmp_path)
    assert len(forked) == len(STREAM_FILES[case]) - 1  # each table but the sidecar


HEATMAP_CONFIG = """\
[scenario]
feeder = {feeder}
outage = {outage}
lambda = {lam}
noise_variance = 1e-8
horizon = {horizon}
seed = {seed}
"""
HEATMAP_CASES = {
    "loop8": dict(outage="3-4", lam=101, horizon=400, seed=3),
    # a loop branch of random_feeder(30, 3, seed=7): every island stays energised
    "random30": dict(outage="14-25", lam=201, horizon=600, seed=5),
}
HEATMAP_TREES = {
    "loop8": {
        "heatmap_post.csv": "337958e0167c06d000aa777281c3d0913dcab910c923dfa512b8c0645ef35935",
        "heatmap_post_estimated.csv":
            "5f3246004fdc7b1cdf14c0bbe67e8fd5a9e91b91df15d4c2a7216549c4ea8ee9",
        "heatmap_pre.csv": "a84f5dae04ef29acf4ee6f32944b619159e3ae6e831076f5c80e1ab5210d4288",
    },
    "random30": {
        "heatmap_post.csv": "dcf28cf18ff1172154fee57e9f5fe0dd656405b47ab751fd13f2a6e93058b0f8",
        "heatmap_post_estimated.csv":
            "79d11dacdc7af038e187e0392f5efe479fdc232ca208b13c04da55c092ba5778",
        "heatmap_pre.csv": "79b4345f90a738714c6b75a0275762ceca0e303e1cac1cd6d1c1f447bb72f06d",
    },
}


def heatmap_tree(case: str, tmp_path) -> dict[str, str]:
    """sha256 per file of the heatmap command's --out tree for a case."""
    feeder = "loop8"
    if case == "random30":
        feeder = tmp_path / "random30.feeder"
        feeder.write_text(format_feeder(random_feeder(30, 3, seed=7)))
    conf = tmp_path / "heatmap.conf"
    conf.write_text(HEATMAP_CONFIG.format(feeder=feeder, **HEATMAP_CASES[case]))
    out = tmp_path / "heat"
    assert main(["heatmap", "--config", str(conf), "--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


# the estimated matrix comes from a forked child only with two CPUs and no
# other thread; the bytes are the same either way
@pytest.mark.parametrize("cpus, other_thread, forks", [(2, False, 1), (1, False, 0),
                                                       (2, True, 0)])
@pytest.mark.parametrize("case", sorted(HEATMAP_TREES))
def test_heatmap_tree_is_pinned(case, cpus, other_thread, forks, tmp_path, monkeypatch,
                                capsys):
    with forks_under(monkeypatch, cpus, other_thread) as forked:
        assert heatmap_tree(case, tmp_path) == HEATMAP_TREES[case]
    assert len(forked) == forks
    assert capsys.readouterr().out == f"heatmaps -> {tmp_path / 'heat'}\n"


def test_random_feeder_text_is_pinned():
    text = format_feeder(random_feeder(30, 3, seed=7))
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM30_DIGEST



# loop8, outage 7-8 at a geometric time, both modes over the default alphas
EXPERIMENT_DIGEST = "a6f82dbac8260eb6f4168cc59365a1fcf7e1a2f2dc90669f3185e417ce0dd5a0"
PMU_SWEEP_DIGEST = "e85100a82675ba9d1559f054f13d05f6c3de2a4fcf40bd275e72cfa9ff9dbebd"


def _delay_scenario() -> Scenario:
    return Scenario(load_feeder("loop8"), ((7, 8),), outage_rho=0.04, noise_variance=2e-2,
                    horizon=10, seed=11)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (forced CPU count, another live thread): the groups go to forked children
# only with two or more CPUs and no other thread, in one forked call
FORK_SETTINGS = [pytest.param(1, False, id="1"), pytest.param(2, False, id="2"),
                 pytest.param(3, False, id="3"), pytest.param(2, True, id="thread")]


# the default chunk budget (None), and budgets of one value (one replication
# a chunk) and of a whole group (one chunk a group)
CHUNK_BUDGETS = [pytest.param(None, id="None"), pytest.param(1, id="one"),
                 pytest.param(1 << 62, id="group")]


@pytest.mark.parametrize("budget", CHUNK_BUDGETS)
@pytest.mark.parametrize("cpus, other_thread", FORK_SETTINGS)
def test_experiment_csv_is_pinned(cpus, other_thread, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(experiments, "_CHUNK_VALUES", budget)
    config = ExperimentConfig(scenario=_delay_scenario(), replications=60,
                              modes=("known_f", "adaptive"), master_seed=5)
    with forks_under(monkeypatch, cpus, other_thread) as forked:
        assert _sha(run_experiment(config).to_csv()) == EXPERIMENT_DIGEST
    assert len(forked) == (cpus > 1 and not other_thread)


@pytest.mark.parametrize("budget", CHUNK_BUDGETS)
@pytest.mark.parametrize("cpus, other_thread", FORK_SETTINGS)
def test_pmu_sweep_csv_is_pinned(cpus, other_thread, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(experiments, "_CHUNK_VALUES", budget)
    config = ExperimentConfig(scenario=_delay_scenario(), alphas=(1e-6,), replications=30,
                              master_seed=9)
    with forks_under(monkeypatch, cpus, other_thread) as forked:
        table = run_pmu_sweep(config, placements=[list(range(1, 9)), [2, 4, 5, 8], [2, 5]])
    assert _sha(table.to_csv()) == PMU_SWEEP_DIGEST
    assert len(forked) == (cpus > 1 and not other_thread)


# adaptive detect on a simulated stream: the refit stack of one window, the
# default and one stack per round give the same bytes
ADAPTIVE_CONFIG = """\
[scenario]
feeder = {feeder}
outage = {outage}
lambda = {lam}
noise_variance = {noise}
horizon = {horizon}
seed = {seed}

[detector]
alpha = 1e-6
mode = adaptive
window = {window}
"""
ADAPTIVE_CASES = {
    "loop8": dict(outage="3-4", lam=150, noise=1e-4, horizon=300, seed=5, window=40),
    "loop12": dict(outage="8-10", lam=200, noise=1e-6, horizon=400, seed=7, window=50),
}
ADAPTIVE_TREES = {
    "loop8": {
        "detection.meta": "4b088ecdaa8c906d2b160afd1440fcb423708c1a8bc9eca6af213aa00f5b6754",
        "trace.csv": "08d3dd6e38fa1f68695e04535937bca0b34d92977e1c0454c5b563cdb277d83f",
    },
    "loop12": {
        "detection.meta": "a8d57c1c9ac579ca08d2313a101088ef2fde408a7f5011ae1ea19d6f2b963ad9",
        "trace.csv": "6dfd343a68da5a0c75cba329bfbf739668db4e1af0939881737bcf73a3104d7a",
    },
}


@pytest.mark.parametrize("budget", [None, 1, 1 << 62], ids=["default", "one", "round"])
@pytest.mark.parametrize("case", sorted(ADAPTIVE_TREES))
def test_adaptive_detect_tree_is_pinned(case, budget, tmp_path, monkeypatch, capsys):
    if budget is not None:
        monkeypatch.setattr(detector, "_REFIT_BUDGET", budget)
    conf = tmp_path / "adaptive.conf"
    conf.write_text(ADAPTIVE_CONFIG.format(feeder=case, **ADAPTIVE_CASES[case]))
    stream, out = tmp_path / "stream", tmp_path / "detect"
    assert main(["simulate", "--config", str(conf), "--out", str(stream)]) == 0
    assert main(["detect", "--config", str(conf), "--stream", str(stream),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())} == ADAPTIVE_TREES[case]
