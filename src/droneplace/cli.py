"""Command-line front end.

Subcommands:
  gen-users       write the user CSV for each configured seed
  place           optimal placement for the first configured seed
  sweep-backhaul  served-users vs backhaul capacity experiment
  robustness      user-displacement robustness experiment
  cdf             pooled served-rate CDF table for both weighting modes

Exit codes: 0 success, 2 configuration error, 3 runtime failure. Output
files are written atomically (temp file + rename), so a failed run leaves
no partial outputs behind. All outputs are deterministic for a given
scenario config and seeds, whatever --threads says. --threads N runs the
independent points of sweep-backhaul ((seed, R) pairs), robustness and
cdf (seeds) in up to N processes, never more than there are points or
usable cores; gen-users and place run one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .experiments import (
    MODES,
    backhaul_sweep,
    population,
    rate_cdf_from_rates,
    robustness_eval,
    served_rates,
    write_report_csv,
    write_report_metadata,
)
from .placement import PlacementSearch
from .users import sample_population, write_users_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droneplace",
        description="Backhaul-aware optimal placement of a drone base station",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one config key (repeatable; JSON values)",
    )
    common.add_argument("--mode", choices=MODES, help="shorthand for --set mode=...")
    common.add_argument("--seed", type=int, help="shorthand for --set seeds=[SEED]")
    common.add_argument(
        "--threads", type=int,
        help="worker processes for the points of sweep-backhaul, robustness and cdf",
    )
    common.add_argument("--output-dir", metavar="DIR", help="where to write outputs")
    common.add_argument("--verbose", action="store_true", help="print extra diagnostics")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-users", parents=[common], help="write user CSVs")
    sub.add_parser("place", parents=[common], help="place the drone for one seed")
    sub.add_parser("sweep-backhaul", parents=[common], help="sweep backhaul capacity")
    sub.add_parser("robustness", parents=[common], help="displacement robustness")
    sub.add_parser("cdf", parents=[common], help="pooled served-rate CDF, both modes")
    return parser


def _resolve_config(args) -> RunConfig:
    overrides = list(args.overrides)
    if args.mode is not None:
        overrides.append(f"mode={args.mode}")
    if args.seed is not None:
        overrides.append(f"seeds=[{args.seed}]")
    if args.threads is not None:
        overrides.append(f"threads={args.threads}")
    if args.output_dir is not None:
        overrides.append(f"output_dir={args.output_dir}")
    return load_config(args.config, overrides)


class _OutputSet:
    """Collects finished temp files, then renames them all at once."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pending: list[tuple[str, str]] = []
        os.makedirs(out_dir, exist_ok=True)

    def stage(self, filename: str) -> str:
        final = os.path.join(self.out_dir, filename)
        tmp = final + ".tmp"
        self.pending.append((tmp, final))
        return tmp

    def commit(self) -> list[str]:
        for tmp, final in self.pending:
            os.replace(tmp, final)
        return [final for _, final in self.pending]

    def discard(self) -> None:
        for tmp, _ in self.pending:
            if os.path.exists(tmp):
                os.remove(tmp)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _cmd_gen_users(cfg: RunConfig, out: _OutputSet, verbose: bool) -> None:
    for seed in cfg.seeds:
        sample = sample_population(cfg.bounds, cfg.cluster, cfg.rate_set_mbps, seed)
        path = out.stage(f"users_seed{seed}_cfg{cfg.config_hash}.csv")
        write_users_csv(sample.users, path)
        if verbose:
            print(f"seed {seed}: {len(sample.users)} users, {sample.resamples} resamples")


def _cmd_place(cfg: RunConfig, out: _OutputSet, verbose: bool) -> None:
    seed = cfg.seeds[0]
    users, resamples = population(cfg.system, cfg.cluster, cfg.rate_set_mbps, seed, cfg.mode)
    search = PlacementSearch(users, cfg.system, cfg.environment)
    result = search.place()
    doc = {
        "version": __version__,
        "config_sha256_12": cfg.config_hash,
        "config": cfg.scenario,
        "seed": seed,
        "resamples": resamples,
        "mode": cfg.mode,
        "placement": {
            "x_m": result.placement.x_m,
            "y_m": result.placement.y_m,
            "h_m": result.placement.h_m,
        },
        "objective": result.objective,
        "served_count": result.served_count,
        "served_user_ids": list(result.served_user_ids),
        "rate_used_mbps": result.rate_used_mbps,
        "bandwidth_used_mhz": result.bandwidth_used_mhz,
        "candidates_evaluated": result.candidates_evaluated,
        "solver_nodes": result.solver_nodes,
    }
    _write_json(out.stage(f"placement_seed{seed}_cfg{cfg.config_hash}.json"), doc)
    write_users_csv(result.served(users), out.stage(f"served_seed{seed}_cfg{cfg.config_hash}.csv"))
    print(
        f"seed {seed}: drone at ({result.placement.x_m:.0f}, {result.placement.y_m:.0f}, "
        f"{result.placement.h_m:.0f}) m, {result.served_count} of {len(users)} users, "
        f"objective {result.objective:.6g}"
    )
    if verbose:
        print(f"  rate used {result.rate_used_mbps:.3f} Mbps, "
              f"bandwidth used {result.bandwidth_used_mhz:.4f} MHz, "
              f"solver nodes {result.solver_nodes}")
        eligible = sum(int(np.count_nonzero(el)) for el in search.eligible)
        print(f"  link budgets computed for {search.links_computed} of {eligible} "
              f"eligible links, {search.rows_computed} of {search.n_candidates} candidates")
        print(f"  margin stage: {search.tiles_screened} tiles screened, {search.tiles_expanded} "
              f"expanded, {search.rows_screened} rows screened, {search.rescreens} re-screens, "
              f"{search.margin_cuts} margin cuts")


def _meta_extra(cfg: RunConfig) -> dict:
    return {"version": __version__, "config_sha256_12": cfg.config_hash, "config": cfg.scenario}


def _tag(cfg: RunConfig) -> str:
    """Filename label of a multi-seed run: seed3_cfg... or seeds0-19_cfg..."""
    seeds = cfg.seeds
    label = f"seed{seeds[0]}" if len(seeds) == 1 else f"seeds{min(seeds)}-{max(seeds)}"
    return f"{label}_cfg{cfg.config_hash}"


def _run_report(cfg: RunConfig, out: _OutputSet, driver, spec, prefix: str):
    """Run one multi-seed driver and stage its CSV and JSON sidecar."""
    report = driver(
        spec, cfg.system, cfg.environment, cfg.cluster, cfg.rate_set_mbps, threads=cfg.threads
    )
    tag = _tag(cfg)
    write_report_csv(report, out.stage(f"{prefix}_{tag}.csv"))
    write_report_metadata(report, out.stage(f"{prefix}_{tag}.meta.json"), extra=_meta_extra(cfg))
    return report


def _print_means(label: str, report, metric: str, fmt: str) -> None:
    means = report.mean(metric)
    print(f"{label}:", ", ".join(f"{x:g}:{m:{fmt}}" for x, m in zip(report.x_values, means)))


def _cmd_sweep(cfg: RunConfig, out: _OutputSet, verbose: bool) -> None:
    report = _run_report(cfg, out, backhaul_sweep, cfg.sweep_spec(), "sweep_backhaul")
    if verbose:
        _print_means("mean served", report, "served_count", ".1f")


def _cmd_robustness(cfg: RunConfig, out: _OutputSet, verbose: bool) -> None:
    report = _run_report(cfg, out, robustness_eval, cfg.robustness_spec(), "robustness")
    if verbose:
        _print_means("mean dropped %", report, "dropped_pct", ".2f")


def _cmd_cdf(cfg: RunConfig, out: _OutputSet, verbose: bool) -> None:
    served = served_rates(
        cfg.system, cfg.environment, cfg.cluster, cfg.rate_set_mbps, cfg.seeds, cfg.threads
    )
    rows = []
    pooled: dict[str, list[float]] = {}
    for mode, rates in served.items():
        cdf = rate_cdf_from_rates(rates, cfg.rate_set_mbps)
        pooled[mode] = cdf
        rows.extend((mode, rho, v) for rho, v in zip(cfg.rate_set_mbps, cdf))
        if verbose:
            print(f"{mode}: {len(rates)} served users pooled")
    tag = _tag(cfg)
    path = out.stage(f"rate_cdf_{tag}.csv")
    with open(path, "w", newline="") as f:
        f.write("mode,rate_mbps,cdf\n")
        for mode, rho, v in rows:
            f.write(f"{mode},{rho!r},{v!r}\n")
    _write_json(
        out.stage(f"rate_cdf_{tag}.meta.json"),
        {**_meta_extra(cfg), "seeds": cfg.seeds, "cdf": pooled},
    )


_COMMANDS = {
    "gen-users": _cmd_gen_users,
    "place": _cmd_place,
    "sweep-backhaul": _cmd_sweep,
    "robustness": _cmd_robustness,
    "cdf": _cmd_cdf,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = _OutputSet(cfg.output_dir)
    start = time.perf_counter()
    try:
        _COMMANDS[args.command](cfg, out, args.verbose)
        written = out.commit()
    except Exception as e:  # runtime failure: clean up partial outputs
        out.discard()
        print(f"error: {e}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start
    for path in written:
        print(f"wrote {path}")
    print(f"done in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
