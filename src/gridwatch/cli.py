"""Command-line harness.

Subcommands: simulate, detect, localize, experiment, pmu-sweep, heatmap.
All take a config file (see README for the schema) and an output directory;
given a fixed master seed the output files are byte-identical across runs.
Errors are reported as JSON lines on stderr with a nonzero exit code.
The detector, localizer and experiments modules are imported inside the
commands that run them, so a command loads only the modules it uses.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import forking, textconf
from .gaussmodel import GeometricPrior, estimate_post_outage
from .simgen import (
    Scenario,
    _synthesize,
    exact_covariances,
    exact_scoring,
    generate,
    parse_stream,
    scenario_from_blocks,
    write_stream,
)


def _placements(raw: str) -> list[list[int]]:
    """Sensed-bus sets like ``1 2 3 | 2 5`` into [[1, 2, 3], [2, 5]]."""
    return [sorted(textconf.buses(part)) for part in raw.split("|")]


# Per section a command reads: its kinds table, and the keys where -1 means auto.
_SECTIONS = {
    "detector": ({"alpha": float, "rho": float, "mode": str, "window": int, "nmin": int,
                  "estimation_rho": float, "inflate": float}, ("nmin", "estimation_rho")),
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


def _least_ticks(prior: GeometricPrior, size: float) -> int:
    """The fewest post-window ticks whose Kish size exceeds size."""
    n = math.ceil(size)
    while (sizes := prior.kish_sizes(n))[-1] <= size:
        n *= 2
    return int(np.argmax(sizes > size)) + 1


def build_scenario(blocks, config_dir: str, seed: int | None) -> Scenario:
    scenario = scenario_from_blocks(blocks, config_dir)
    return scenario if seed is None else dataclasses.replace(scenario, seed=seed)


def detector_config(blocks, g, f):
    from .detector import ADAPTIVE, DetectorConfig

    options = _read(blocks, "detector")
    return DetectorConfig(g=g, f=None if options.get("mode") == ADAPTIVE else f, **options)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _matrix_csv(sigma, layout) -> str:
    """The |conditional correlation| matrix of a covariance, as heatmap CSV."""
    from .experiments import correlation_matrix, heatmap_csv

    return heatmap_csv(correlation_matrix(sigma, layout), layout)


# --- artifact CSV formats (one Table each, so outputs stay machine-checkable) --

TRACE = textconf.Table("n,posterior,log_odds,mode,f_refreshed", "%d,%r,%r,%s,%d",
                       (int, float, float, str, textconf.boolean))
LOCALIZATION = textconf.Table("pair,rho_pre,rho_post,delta,flagged,degenerate",
                              "%d-%d,%r,%r,%r,%d,%d",
                              (textconf.pair, float, float, float, textconf.boolean,
                               textconf.boolean))
ADMITTANCE = textconf.Table("branch,pre_re,pre_im,post_re,post_im,magnitude_ratio,likely_out",
                            "%d-%d,%r,%r,%r,%r,%r,%d",
                            (textconf.pair, float, float, float, float, float,
                             textconf.boolean))


def trace_csv(report) -> str:
    return TRACE.text(zip(report.step_ticks.tolist(), report.posterior_trace.tolist(),
                          report.log_odds_trace.tolist(), itertools.repeat(report.mode),
                          report.f_refreshed.tolist()))


def localization_csv(report) -> str:
    return LOCALIZATION.text((s.i, s.j, s.rho_pre, s.rho_post, s.delta,
                              s.pair in report.flagged, s.degenerate) for s in report.scores)


def parse_localization_csv(text: str) -> list[dict]:
    names = LOCALIZATION.header.split(",")
    return [dict(zip(names, row)) for row in LOCALIZATION.rows(text)]


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
    print(f"wrote {stream.horizon} ticks x {stream.schedule.layout.dim} channels to {out}")


def _load_stream(args):
    data = os.path.join(args.stream, "stream.csv")
    meta = os.path.join(args.stream, "stream.meta")
    inj = os.path.join(args.stream, "injections.csv")
    return parse_stream(data, meta, inj if os.path.exists(inj) else None)


def cmd_detect(args) -> None:
    from .detector import run_detector

    blocks = load_config(args.config)
    stream = _load_stream(args)
    scenario = scenario_from_blocks(stream.meta)
    config = detector_config(blocks, scenario.pre_model(), scenario.post_model())
    report = run_detector(stream, config)
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
    from .localizer import (
        EXACT_THRESHOLDS,
        FLOOR_DELTA,
        FLOOR_LEVEL,
        PhasorWindow,
        Thresholds,
        all_bus_pairs,
        estimate_admittance,
        least_post_size,
        scan_pairs,
        zero_test_floors,
    )

    blocks = load_config(args.config)
    options = _read(blocks, "localize")
    if ("zero" in options) != ("active" in options):
        raise textconf.ConfigError("[localize]: zero and active are set together or not at all")
    # retired with the bootstrap floors; still read so old configs parse
    options.pop("n_boot", None)
    if options.get("post_ticks", 1) < 1:
        raise textconf.ConfigError(f"[localize].post_ticks must be at least 1, got "
                                   f"{options['post_ticks']}")
    stream = _load_stream(args)
    scenario = scenario_from_blocks(stream.meta)
    lam = stream.truth.lam
    if lam is None:
        raise textconf.ConfigError("stream has no outage to localize")
    layout = stream.schedule.layout
    exact = options.get("exact", False)
    if not exact or options.get("estimate_admittance"):
        stream.schedule.require_period_one("stream estimates")
    post_ticks = options.get("post_ticks", stream.horizon - lam + 1)
    pre = stream.values[: lam - 1]
    post = stream.values[lam - 1: lam - 1 + post_ticks]
    if exact:
        sigma0, sigma1 = exact_covariances(scenario, layout)
    else:
        if pre.shape[0] < layout.dim + 2 or post.shape[0] < layout.dim + 2:
            raise textconf.ConfigError(
                f"windows too short to estimate a {layout.dim}-dim covariance "
                f"(pre {pre.shape[0]}, post {post.shape[0]})")
        prior = _estimation_prior(blocks)
        sigma0 = np.cov(pre.T, ddof=0)
        sigma1 = estimate_post_outage(post, prior).cov

    pair_mode = options.get("pairs", "branches")
    if pair_mode == "all":
        pairs = all_bus_pairs(layout)
    elif pair_mode == "branches":
        # a branch can be scored only when both of its buses are sensed
        pairs = [br.pair for br in scenario.topology.branches
                 if set(br.pair) <= layout.bus_coords.keys()]
        if not pairs:
            raise textconf.ConfigError("no branch has both of its buses sensed")
    else:
        raise textconf.ConfigError(f"[localize].pairs must be branches|all, got {pair_mode!r}")

    if "zero" in options:
        thresholds = Thresholds(options["zero"], options["active"])
    elif exact:
        thresholds = EXACT_THRESHOLDS
    else:
        try:
            thresholds = zero_test_floors(len(pre), prior.kish_sizes(len(post))[-1], pairs,
                                          layout)
        except ValueError as exc:
            raise textconf.ConfigError(f"[localize]: {exc}") from None
    with exact_scoring(scenario, "[localize] exact = true") if exact else nullcontext():
        report = scan_pairs(sigma0, sigma1, pairs, layout, thresholds,
                            noise_floor=None if exact else scenario.noise_variance)
    if thresholds is None:
        # the window cannot show any score below delta: scores, but no flags
        print(f"zero test left out: a post window of {len(post)} ticks is too short to show "
              f"a score below {FLOOR_DELTA} at level {FLOOR_LEVEL}; it needs at least "
              f"{_least_ticks(prior, least_post_size(pairs, layout))} ticks")
    out = _outdir(args)
    _write(os.path.join(out, "localization.csv"), localization_csv(report))
    _write(os.path.join(out, "rho_pre.csv"), _matrix_csv(sigma0, layout))
    _write(os.path.join(out, "rho_post.csv"), _matrix_csv(sigma1, layout))

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
        _write(os.path.join(out, "admittance.csv"), ADMITTANCE.text(
            (i, j, *map(float, (est.pre.real, est.pre.imag, est.post.real, est.post.imag,
                                est.magnitude_ratio)), est.likely_out)
            for (i, j), est in sorted(estimates.items())))

    flagged = ", ".join(f"{i}-{j}" for i, j in sorted(report.flagged)) or "(none)"
    print(f"flagged branches: {flagged}")


def _monte_carlo(blocks, args, **options):
    from .experiments import ExperimentConfig

    scenario = build_scenario(blocks, os.path.dirname(args.config), None)
    return ExperimentConfig(scenario=scenario, rho=_read(blocks, "detector").get("rho"),
                            master_seed=args.seed if args.seed is not None else scenario.seed,
                            **options)


def cmd_experiment(args) -> None:
    from .experiments import run_experiment

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
    from .experiments import run_pmu_sweep

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
    layout = scenario.schedule.layout

    def exact() -> None:
        sigma0, sigma1 = exact_covariances(scenario, layout)
        out = _outdir(args)
        with exact_scoring(scenario, "heatmap"):
            pre, post = _matrix_csv(sigma0, layout), _matrix_csv(sigma1, layout)
        _write(os.path.join(out, "heatmap_pre.csv"), pre)
        _write(os.path.join(out, "heatmap_post.csv"), post)

    def estimated() -> tuple[str | None, str]:
        # the matrix's CSV, or None and the reason it is left out
        try:
            scenario.schedule.require_period_one("stream estimates")
        except ValueError as exc:
            return None, str(exc)
        lam = scenario.outage_tick()
        if lam is not None and lam > scenario.horizon:
            return None, f"the outage tick {lam} is past the horizon {scenario.horizon}"
        ticks = 0 if lam is None else scenario.horizon - lam + 1
        if ticks < layout.dim + 2:
            return None, f"{ticks} post-outage ticks, fewer than dim + 2 = {layout.dim + 2}"
        stream = next(_synthesize(scenario, [(scenario.seed, lam, scenario.horizon)], lam - 1))
        est = estimate_post_outage(stream.values, _estimation_prior(blocks))
        return _matrix_csv(est.cov, layout), ""

    _, (text, reason) = forking.forked(exact, estimated)
    if text is not None:
        _write(os.path.join(args.out, "heatmap_post_estimated.csv"), text)
    else:
        print(f"heatmap_post_estimated.csv left out: {reason}")
    print(f"heatmaps -> {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridwatch",
        description="Line-outage detection experiments on synthesized phasor streams")
    sub = parser.add_subparsers(dest="command", required=True)
    # (name, help, handler, whether it reads a --stream directory); the
    # handlers are looked up per call, so a patched one is the one run
    for name, text, func, stream in (
            ("simulate", "synthesize a measurement stream", cmd_simulate, False),
            ("detect", "run the change detector on a stream", cmd_detect, True),
            ("localize", "flag out-of-service branches from a stream", cmd_localize, True),
            ("experiment", "Monte Carlo delay/false-alarm curves", cmd_experiment, False),
            ("pmu-sweep", "delay versus sensor coverage", cmd_pmu_sweep, False),
            ("heatmap", "conditional-correlation matrices", cmd_heatmap, False)):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        if stream:
            p.add_argument("--stream", required=True,
                           help="directory holding stream.csv/stream.meta")
        p.set_defaults(func=func)
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
