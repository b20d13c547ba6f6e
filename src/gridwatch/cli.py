"""Command-line harness.

Subcommands: simulate, detect, localize, experiment, pmu-sweep, heatmap.
All take a config file (see README for the schema) and an output directory;
given a fixed master seed the output files are byte-identical across runs.
Errors are reported as JSON lines on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from . import detector as det
from . import forking, textconf
from .experiments import (
    ExperimentConfig,
    correlation_matrix,
    emit_heatmap,
    heatmap_csv,
    run_experiment,
    run_pmu_sweep,
)
from .gaussmodel import EstimationPrior, estimate_post_outage
from .grid import load_feeder
from .localizer import (
    EXACT_THRESHOLDS,
    PhasorWindow,
    Thresholds,
    all_bus_pairs,
    estimate_admittance,
    scan_pairs,
    thresholds_from_bootstrap,
)
from .simgen import (
    Scenario,
    generate,
    parse_stream,
    scenario_blocks,
    scenario_from_blocks,
    write_stream,
)

_DETECTOR_KEYS = {"alpha", "rho", "mode", "window", "nmin", "estimation_rho",
                  "inflate", "hold_last_value"}
_EXPERIMENT_KEYS = {"alphas", "replications", "modes", "parallelism", "margin",
                    "window", "nmin"}
_PMU_KEYS = {"placements", "counts", "alpha", "replications"}
_LOCALIZE_KEYS = {"exact", "zero", "active", "n_boot", "pairs", "post_ticks",
                  "estimate_admittance", "candidate_cut"}


def load_config(path: str) -> list[tuple[str, dict[str, str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        return textconf.parse_blocks(fh.read())


def _section(blocks, name: str) -> dict[str, str]:
    for section, fields in blocks:
        if section == name:
            return fields
    return {}


def build_scenario(blocks, config_dir: str, seed: int | None) -> Scenario:
    fields = _section(blocks, "scenario")
    topology = None
    feeder = fields.get("feeder")
    if feeder is not None:
        path = feeder if os.path.isabs(feeder) else os.path.join(config_dir, feeder)
        topology = load_feeder(feeder if not os.path.exists(path) else path)
    scenario = scenario_from_blocks(blocks, topology)
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    return scenario


def detector_config(blocks, g, f) -> det.DetectorConfig:
    fields = _section(blocks, "detector")
    textconf.check_keys("detector", fields, _DETECTOR_KEYS)
    nmin = textconf.as_int("detector", fields, "nmin", -1)
    est_rho = textconf.as_float("detector", fields, "estimation_rho", -1.0)
    mode = textconf.as_str("detector", fields, "mode", det.KNOWN_F)
    return det.DetectorConfig(
        g=g,
        f=None if mode == det.ADAPTIVE else f,
        mode=mode,
        alpha=textconf.as_float("detector", fields, "alpha", 1e-6),
        rho=textconf.as_float("detector", fields, "rho", 1e-4),
        estimation_rho=None if est_rho == -1.0 else est_rho,
        window=textconf.as_int("detector", fields, "window", 50),
        nmin=None if nmin == -1 else nmin,
        inflate=textconf.as_float("detector", fields, "inflate", 4.0),
        hold_last_value=textconf.as_bool("detector", fields, "hold_last_value", False),
    )


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- artifact CSV formats (emit + parse, so outputs stay machine-checkable) ----

TRACE_HEADER = "n,posterior,log_odds,mode,f_refreshed"
LOCALIZATION_HEADER = "pair,rho_pre,rho_post,delta,flagged,degenerate"


def trace_csv(report) -> str:
    rows = zip(report.step_ticks.tolist(), report.posterior_trace.tolist(),
               report.log_odds_trace.tolist(), itertools.repeat(report.mode),
               report.f_refreshed.tolist())
    return "\n".join([TRACE_HEADER, *map("%d,%r,%r,%s,%d".__mod__, rows)]) + "\n"


def parse_trace_csv(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0] != TRACE_HEADER:
        raise textconf.ConfigError(f"unexpected trace header {lines[0]!r}")
    out = {"n": [], "posterior": [], "log_odds": [], "mode": [], "f_refreshed": []}
    for ln in lines[1:]:
        n, post, lo, mode, refreshed = ln.split(",")
        out["n"].append(int(n))
        out["posterior"].append(float(post))
        out["log_odds"].append(float(lo))
        out["mode"].append(mode)
        out["f_refreshed"].append(refreshed == "1")
    return out


def localization_csv(report) -> str:
    lines = [LOCALIZATION_HEADER]
    for s in report.scores:
        lines.append(f"{s.i}-{s.j},{s.rho_pre!r},{s.rho_post!r},{s.delta!r},"
                     f"{int(s.pair in report.flagged)},{int(s.degenerate)}")
    return "\n".join(lines) + "\n"


def parse_localization_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0] != LOCALIZATION_HEADER:
        raise textconf.ConfigError(f"unexpected localization header {lines[0]!r}")
    rows = []
    for ln in lines[1:]:
        pair, pre, post, delta, flagged, degen = ln.split(",")
        i, j = pair.split("-")
        rows.append({"pair": (int(i), int(j)), "rho_pre": float(pre),
                     "rho_post": float(post), "delta": float(delta),
                     "flagged": flagged == "1", "degenerate": degen == "1"})
    return rows


# --- subcommands --------------------------------------------------------------

def cmd_simulate(args) -> None:
    blocks = load_config(args.config)
    scenario = build_scenario(blocks, os.path.dirname(args.config), args.seed)
    stream = generate(scenario)
    out = _outdir(args)
    write_stream(stream, os.path.join(out, "stream.csv"),
                 os.path.join(out, "stream.meta"), scenario,
                 injections_path=os.path.join(out, "injections.csv")
                 if stream.injections is not None else None)
    print(f"wrote {stream.horizon} ticks x {stream.layout.dim} channels to {out}")


def _load_stream(args):
    data = os.path.join(args.stream, "stream.csv")
    meta = os.path.join(args.stream, "stream.meta")
    inj = os.path.join(args.stream, "injections.csv")
    return parse_stream(data, meta, inj if os.path.exists(inj) else None)


def cmd_detect(args) -> None:
    blocks = load_config(args.config)
    stream = _load_stream(args)
    scenario = scenario_from_blocks(stream.meta)
    config = detector_config(blocks, scenario.pre_model(), scenario.post_model())
    report = det.run_detector(stream, config)
    out = _outdir(args)
    _write(os.path.join(out, "trace.csv"), trace_csv(report))
    summary = {"tau": str(report.tau if report.tau is not None else -1)}
    if report.lambda_true is not None:
        summary["lambda"] = str(report.lambda_true)
    if report.delay is not None:
        summary["delay"] = str(report.delay)
    _write(os.path.join(out, "detection.meta"),
           textconf.format_blocks([("detection", summary)]))
    print(f"tau={report.tau} lambda={report.lambda_true} delay={report.delay}")


def cmd_localize(args) -> None:
    blocks = load_config(args.config)
    fields = _section(blocks, "localize")
    textconf.check_keys("localize", fields, _LOCALIZE_KEYS)
    stream = _load_stream(args)
    scenario = scenario_from_blocks(stream.meta)
    lam = stream.truth.lam
    if lam is None:
        raise textconf.ConfigError("stream has no outage to localize")
    layout = stream.layout
    exact = textconf.as_bool("localize", fields, "exact", False)
    post_ticks = textconf.as_int("localize", fields, "post_ticks", stream.horizon - lam + 1)
    pre = stream.values[: lam - 1]
    post = stream.values[lam - 1: lam - 1 + post_ticks]
    if exact:
        # structural test on the noise-free model: conditional correlations
        # of removed branches are exact zeros there
        ideal = dataclasses.replace(scenario, noise_variance=0.0)
        sigma0 = ideal.pre_model().project(layout).cov
        sigma1 = ideal.post_model().project(layout).cov
    else:
        if pre.shape[0] < layout.dim + 2 or post.shape[0] < layout.dim + 2:
            raise textconf.ConfigError(
                f"windows too short to estimate a {layout.dim}-dim covariance "
                f"(pre {pre.shape[0]}, post {post.shape[0]})")
        sigma0 = np.cov(pre.T, ddof=0)
        rho = textconf.as_float("detector", _section(blocks, "detector"), "rho", 0.04)
        sigma1 = estimate_post_outage(post, EstimationPrior(rho)).cov

    def sensed_branches() -> list[tuple[int, int]]:
        # a branch can be scored only when both of its buses are sensed
        pairs = [br.pair for br in scenario.topology.branches
                 if set(br.pair) <= layout.bus_coords.keys()]
        if not pairs:
            raise textconf.ConfigError("no branch has both of its buses sensed")
        return pairs

    zero = textconf.as_float("localize", fields, "zero", -1.0)
    if zero != -1.0:
        thresholds = Thresholds(zero, textconf.as_float("localize", fields, "active"))
    elif exact:
        thresholds = EXACT_THRESHOLDS
    else:
        n_boot = textconf.as_int("localize", fields, "n_boot", 200)
        if n_boot < 1:
            raise textconf.ConfigError(f"[localize].n_boot must be at least 1, got {n_boot}")
        thresholds = thresholds_from_bootstrap(pre, sensed_branches(), layout,
                                               n_boot=n_boot, seed=scenario.seed)

    pair_mode = textconf.as_str("localize", fields, "pairs", "branches")
    if pair_mode == "all":
        pairs = all_bus_pairs(layout)
    elif pair_mode == "branches":
        pairs = sensed_branches()
    else:
        raise textconf.ConfigError(f"[localize].pairs must be branches|all, got {pair_mode!r}")

    report = scan_pairs(sigma0, sigma1, pairs, layout, thresholds,
                        noise_floor=None if exact else scenario.noise_variance)
    out = _outdir(args)
    _write(os.path.join(out, "localization.csv"), localization_csv(report))
    _write(os.path.join(out, "rho_pre.csv"),
           heatmap_csv(correlation_matrix(sigma0, layout), layout))
    _write(os.path.join(out, "rho_post.csv"),
           heatmap_csv(correlation_matrix(sigma1, layout), layout))

    if textconf.as_bool("localize", fields, "estimate_admittance", False):
        if stream.injections is None:
            raise textconf.ConfigError(
                "admittance estimation needs recorded injections "
                "(scenario record_injections = true)")
        cut = textconf.as_float("localize", fields, "candidate_cut", 0.1)
        dv = stream.complex_values()
        pre_w = PhasorWindow(dv[: lam - 1], stream.injections[: lam - 1])
        post_w = PhasorWindow(dv[lam - 1:], stream.injections[lam - 1:])
        candidates = sorted(report.flagged) or [br.pair for br in scenario.topology.branches]
        estimates = estimate_admittance(pre_w, post_w, scenario.topology, candidates, cut)
        report = dataclasses.replace(report, admittance_estimates=estimates)
        lines = ["branch,pre_re,pre_im,post_re,post_im,magnitude_ratio,likely_out"]
        for (i, j), est in sorted(estimates.items()):
            lines.append(f"{i}-{j},{float(est.pre.real)!r},{float(est.pre.imag)!r},"
                         f"{float(est.post.real)!r},{float(est.post.imag)!r},"
                         f"{float(est.magnitude_ratio)!r},{int(est.likely_out)}")
        _write(os.path.join(out, "admittance.csv"), "\n".join(lines) + "\n")

    flagged = ", ".join(f"{i}-{j}" for i, j in sorted(report.flagged)) or "(none)"
    print(f"flagged branches: {flagged}")


def _experiment_config(blocks, scenario, args) -> ExperimentConfig:
    fields = _section(blocks, "experiment")
    textconf.check_keys("experiment", fields, _EXPERIMENT_KEYS)
    det_fields = _section(blocks, "detector")
    alphas = tuple(textconf.as_floats("experiment", fields, "alphas")) \
        if "alphas" in fields else (1e-2, 1e-4, 1e-6)
    modes = tuple(textconf.as_str("experiment", fields, "modes", det.KNOWN_F).split())
    margin = textconf.as_int("experiment", fields, "margin", -1)
    rho = textconf.as_float("detector", det_fields, "rho", -1.0)
    nmin = textconf.as_int("experiment", fields, "nmin", -1)
    # retired: chunks split over forking.cpus(); still checked so old configs parse
    textconf.as_int("experiment", fields, "parallelism", 1)
    return ExperimentConfig(
        scenario=scenario,
        alphas=alphas,
        replications=textconf.as_int("experiment", fields, "replications", 100),
        modes=modes,
        rho=None if rho == -1.0 else rho,
        window=textconf.as_int("experiment", fields, "window", 50),
        nmin=None if nmin == -1 else nmin,
        master_seed=args.seed if args.seed is not None else scenario.seed,
        margin=None if margin == -1 else margin,
    )


def cmd_experiment(args) -> None:
    blocks = load_config(args.config)
    scenario = build_scenario(blocks, os.path.dirname(args.config), None)
    config = _experiment_config(blocks, scenario, args)
    table = run_experiment(config)
    out = _outdir(args)
    _write(os.path.join(out, "metrics.csv"), table.to_csv())
    _write(os.path.join(out, "experiment.meta"), textconf.format_blocks([
        ("experiment", {"kl": repr(table.kl), "rho": repr(table.rho),
                        "replications": str(config.replications),
                        "master_seed": str(config.master_seed)})]))
    print(f"KL(f||g) = {table.kl:.4f}; {len(table.rows)} metric rows -> {out}")


def cmd_pmu_sweep(args) -> None:
    blocks = load_config(args.config)
    scenario = build_scenario(blocks, os.path.dirname(args.config), None)
    fields = _section(blocks, "pmu_sweep")
    textconf.check_keys("pmu_sweep", fields, _PMU_KEYS)
    placements = None
    counts = None
    if "placements" in fields:
        placements = []
        for part in fields["placements"].split("|"):
            placements.append(sorted(int(tok) for tok in part.split()))
    elif "counts" in fields:
        counts = textconf.as_ints("pmu_sweep", fields, "counts")
    else:
        raise textconf.ConfigError("[pmu_sweep] needs placements or counts")
    det_rho = textconf.as_float("detector", _section(blocks, "detector"), "rho", -1.0)
    config = ExperimentConfig(
        scenario=scenario,
        alphas=(textconf.as_float("pmu_sweep", fields, "alpha", 1e-6),),
        replications=textconf.as_int("pmu_sweep", fields, "replications", 100),
        rho=None if det_rho == -1.0 else det_rho,
        master_seed=args.seed if args.seed is not None else scenario.seed,
    )
    table = run_pmu_sweep(config, placements=placements, counts=counts)
    out = _outdir(args)
    _write(os.path.join(out, "pmu_sweep.csv"), table.to_csv())
    print(f"{len(table.rows)} coverage levels -> {out}")


def cmd_heatmap(args) -> None:
    """The exact pre- and post-outage matrices, and beside them (in a forked
    child when forking.may_fork) the post-outage matrix estimated from the
    synthesized stream.  The exact job's error wins, as in serial order."""
    blocks = load_config(args.config)
    scenario = build_scenario(blocks, os.path.dirname(args.config), args.seed)
    layout = scenario.schedule.layout()

    def exact() -> None:
        g = scenario.pre_model().project(layout)
        f = scenario.post_model().project(layout)
        out = _outdir(args)
        emit_heatmap(g.cov, f.cov, layout,
                     os.path.join(out, "heatmap_pre.csv"),
                     os.path.join(out, "heatmap_post.csv"))

    def estimated() -> str | None:
        stream = generate(scenario)
        lam = stream.truth.lam
        if lam is None or stream.horizon - lam + 1 < layout.dim + 2:
            return None
        rho = textconf.as_float("detector", _section(blocks, "detector"), "rho", 0.04)
        est = estimate_post_outage(stream.values[lam - 1:], EstimationPrior(rho))
        return heatmap_csv(correlation_matrix(est.cov, layout), layout)

    _, text = (forking.forked(exact, estimated) if forking.may_fork()
               else (exact(), estimated()))
    if text is not None:
        _write(os.path.join(args.out, "heatmap_post_estimated.csv"), text)
    print(f"heatmaps -> {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridwatch",
        description="Line-outage detection experiments on synthesized phasor streams")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stream=False):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        if stream:
            p.add_argument("--stream", required=True,
                           help="directory holding stream.csv/stream.meta")

    p = sub.add_parser("simulate", help="synthesize a measurement stream")
    common(p)
    p.set_defaults(func=cmd_simulate)
    p = sub.add_parser("detect", help="run the change detector on a stream")
    common(p, stream=True)
    p.set_defaults(func=cmd_detect)
    p = sub.add_parser("localize", help="flag out-of-service branches from a stream")
    common(p, stream=True)
    p.set_defaults(func=cmd_localize)
    p = sub.add_parser("experiment", help="Monte Carlo delay/false-alarm curves")
    common(p)
    p.set_defaults(func=cmd_experiment)
    p = sub.add_parser("pmu-sweep", help="delay versus sensor coverage")
    common(p)
    p.set_defaults(func=cmd_pmu_sweep)
    p = sub.add_parser("heatmap", help="conditional-correlation matrices")
    common(p)
    p.set_defaults(func=cmd_heatmap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
