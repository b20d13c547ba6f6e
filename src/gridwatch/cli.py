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
from .gaussmodel import GeometricPrior, estimate_post_outage
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
    scenario_from_blocks,
    write_stream,
)


def _placements(raw: str) -> list[list[int]]:
    """Sensed-bus sets like ``1 2 3 | 2 5`` into [[1, 2, 3], [2, 5]]."""
    return [sorted(map(int, part.split())) for part in raw.split("|")]


# Per section a command reads: its kinds table, and the keys where -1 means auto.
_SECTIONS = {
    "detector": ({"alpha": float, "rho": float, "mode": str, "window": int, "nmin": int,
                  "estimation_rho": float, "inflate": float,
                  "hold_last_value": textconf.boolean}, ("nmin", "estimation_rho")),
    "experiment": ({"alphas": textconf.floats, "replications": int,
                    "modes": lambda raw: tuple(raw.split()), "parallelism": int, "margin": int,
                    "window": int, "nmin": int}, ("margin", "nmin")),
    "pmu_sweep": ({"placements": _placements, "counts": textconf.ints, "alpha": float,
                   "replications": int}, ()),
    "localize": ({"exact": textconf.boolean, "zero": float, "active": float, "n_boot": int,
                  "pairs": str, "post_ticks": int, "estimate_admittance": textconf.boolean,
                  "candidate_cut": float}, ("zero", "active")),
}


def load_config(path: str) -> list[tuple[str, dict[str, str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        blocks = textconf.parse_blocks(fh.read())
    names = [name for name, _ in blocks]
    for name in names:
        if name not in ("scenario", "injection", "sensor", "bus", "branch", *_SECTIONS):
            raise textconf.ConfigError(f"unknown section [{name}]")
        if name in ("scenario", *_SECTIONS) and names.count(name) > 1:
            raise textconf.ConfigError(f"section [{name}] is repeated; only [sensor], "
                                       "[injection], [bus] and [branch] may repeat")
    return blocks


def _read(blocks, name: str) -> dict:
    kinds, auto = _SECTIONS[name]
    fields = next((fields for section, fields in blocks if section == name), {})
    return textconf.read(name, fields, kinds, auto=auto)


def _given(options: dict, *keys: str) -> dict:
    """The options among keys that the config sets, as keyword arguments."""
    return {key: options[key] for key in keys if key in options}


def _estimation_prior(blocks) -> GeometricPrior:
    # localize and heatmap read [detector] rho as the estimation prior, with
    # a default of 0.04 where detect's is 1e-4
    return GeometricPrior(_read(blocks, "detector").get("rho", 0.04))


def build_scenario(blocks, config_dir: str, seed: int | None) -> Scenario:
    scenario = scenario_from_blocks(blocks, config_dir)
    return scenario if seed is None else dataclasses.replace(scenario, seed=seed)


def detector_config(blocks, g, f) -> det.DetectorConfig:
    options = _read(blocks, "detector")
    return det.DetectorConfig(g=g, f=None if options.get("mode") == det.ADAPTIVE else f,
                              **options)


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
    options = _read(blocks, "localize")
    if ("zero" in options) != ("active" in options):
        raise textconf.ConfigError("[localize]: zero and active are set together or not at all")
    if options.get("n_boot", 1) < 1:
        raise textconf.ConfigError(
            f"[localize].n_boot must be at least 1, got {options['n_boot']}")
    stream = _load_stream(args)
    scenario = scenario_from_blocks(stream.meta)
    lam = stream.truth.lam
    if lam is None:
        raise textconf.ConfigError("stream has no outage to localize")
    layout = stream.layout
    exact = options.get("exact", False)
    post_ticks = options.get("post_ticks", stream.horizon - lam + 1)
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
        sigma1 = estimate_post_outage(post, _estimation_prior(blocks)).cov

    def sensed_branches() -> list[tuple[int, int]]:
        # a branch can be scored only when both of its buses are sensed
        pairs = [br.pair for br in scenario.topology.branches
                 if set(br.pair) <= layout.bus_coords.keys()]
        if not pairs:
            raise textconf.ConfigError("no branch has both of its buses sensed")
        return pairs

    if "zero" in options:
        thresholds = Thresholds(options["zero"], options["active"])
    elif exact:
        thresholds = EXACT_THRESHOLDS
    else:
        thresholds = thresholds_from_bootstrap(pre, sensed_branches(), layout,
                                               seed=scenario.seed, **_given(options, "n_boot"))

    pair_mode = options.get("pairs", "branches")
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

    if options.get("estimate_admittance"):
        if stream.injections is None:
            raise textconf.ConfigError(
                "admittance estimation needs recorded injections "
                "(scenario record_injections = true)")
        dv = stream.complex_values()
        pre_w = PhasorWindow(dv[: lam - 1], stream.injections[: lam - 1])
        post_w = PhasorWindow(dv[lam - 1:], stream.injections[lam - 1:])
        branches = [br.pair for br in scenario.topology.branches]
        candidates = sorted(report.flagged.intersection(branches)) or branches
        estimates = estimate_admittance(pre_w, post_w, scenario.topology, candidates,
                                        **_given(options, "candidate_cut"))
        report = dataclasses.replace(report, admittance_estimates=estimates)
        lines = ["branch,pre_re,pre_im,post_re,post_im,magnitude_ratio,likely_out"]
        for (i, j), est in sorted(estimates.items()):
            lines.append(f"{i}-{j},{float(est.pre.real)!r},{float(est.pre.imag)!r},"
                         f"{float(est.post.real)!r},{float(est.post.imag)!r},"
                         f"{float(est.magnitude_ratio)!r},{int(est.likely_out)}")
        _write(os.path.join(out, "admittance.csv"), "\n".join(lines) + "\n")

    flagged = ", ".join(f"{i}-{j}" for i, j in sorted(report.flagged)) or "(none)"
    print(f"flagged branches: {flagged}")


def _monte_carlo(blocks, args, **options) -> ExperimentConfig:
    scenario = build_scenario(blocks, os.path.dirname(args.config), None)
    return ExperimentConfig(scenario=scenario, rho=_read(blocks, "detector").get("rho"),
                            master_seed=args.seed if args.seed is not None else scenario.seed,
                            **options)


def cmd_experiment(args) -> None:
    blocks = load_config(args.config)
    options = _read(blocks, "experiment")
    # retired: chunks split over forking.cpus(); still read so old configs parse
    options.pop("parallelism", None)
    # the CLI runs fewer replications and alphas than the API's defaults
    config = _monte_carlo(blocks, args, replications=options.pop("replications", 100),
                          alphas=options.pop("alphas", (1e-2, 1e-4, 1e-6)), **options)
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
    options = _read(blocks, "pmu_sweep")
    if ("placements" in options) == ("counts" in options):
        raise textconf.ConfigError("[pmu_sweep] needs placements or counts, not both")
    # a sweep runs one alpha, and the CLI's 100 replications
    config = _monte_carlo(blocks, args, alphas=(options.get("alpha", 1e-6),),
                          replications=options.get("replications", 100))
    table = run_pmu_sweep(config, placements=options.get("placements"),
                          counts=options.get("counts"))
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

    def estimated() -> str | int:
        # the matrix's CSV, or the post-outage tick count when too short
        stream = generate(scenario)
        lam = stream.truth.lam
        ticks = 0 if lam is None else stream.horizon - lam + 1
        if ticks < layout.dim + 2:
            return ticks
        est = estimate_post_outage(stream.values[lam - 1:], _estimation_prior(blocks))
        return heatmap_csv(correlation_matrix(est.cov, layout), layout)

    _, text = (forking.forked(exact, estimated) if forking.may_fork()
               else (exact(), estimated()))
    if isinstance(text, str):
        _write(os.path.join(args.out, "heatmap_post_estimated.csv"), text)
    else:
        print(f"heatmap_post_estimated.csv left out: {text} post-outage ticks, "
              f"fewer than dim + 2 = {layout.dim + 2}")
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
