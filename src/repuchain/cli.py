"""Batch scenario runner and small-instance oracle CLI.

Exit codes: 0 every run finished and all requested checks passed, 1 a run
crashed or a check failed (the error or the failing inequality is printed),
2 usage or config errors.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .checks import CHECK_NAMES, evaluate
from .metrics_oracle import (
    compute_regret,
    emit_csv,
    exact_expected_loss,
    summary_dict,
    theorem_bound,
    write_summary,
)
from .scenarios import DRAIN_ROUNDS
from .sim_engine import (
    ConfigError, ScenarioConfig, check_seed, load_config, read_json, run,
)

# A lone number is a seed count; past this it is almost surely one seed.
MAX_SEED_COUNT = 10_000


def parse_seeds(spec: str) -> tuple[int, ...]:
    """A seed count ("20" runs seeds 0..19) or a comma list ("0,7,13", "7,").

    Raises ConfigError naming the field 'seeds' for anything else, a seed
    listed twice included.
    """
    spec = spec.strip()
    parts = [s for s in spec.split(",") if s.strip()]
    try:
        numbers = [int(s) for s in parts]
    except ValueError:
        raise ConfigError(f"field 'seeds': cannot parse {spec!r}") from None
    if not numbers:
        raise ConfigError(f"field 'seeds': no seeds in {spec!r}")
    if "," in spec:
        seeds = tuple(check_seed(s, "seeds") for s in numbers)
        twice = [s for s, k in Counter(seeds).items() if k > 1]
        if twice:
            raise ConfigError(f"field 'seeds': seed {twice[0]} is listed twice")
        return seeds
    (count,) = numbers
    if not 1 <= count <= MAX_SEED_COUNT:
        raise ConfigError(
            f"field 'seeds': a seed count must be in [1, {MAX_SEED_COUNT}], got {count}; "
            f"write '{count},' to run that single seed"
        )
    return tuple(range(count))


def run_seed(config: ScenarioConfig, seed: int, out_dir: Path | None) -> dict:
    """Run one (config, seed) pair, write its artifacts, return a summary."""
    cfg = config.with_seed(seed)
    try:
        ledger, metrics = run(cfg)
    except Exception as exc:  # surfaced in the aggregate; properties check fails
        return {
            "seed": seed,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    reports = [compute_regret(metrics, p) for p in range(cfg.l)]
    summary = summary_dict(reports)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_csv(metrics, reports, out_dir)
        write_summary(summary, out_dir / "summary.json")
        ledger.write_hex(out_dir / "ledger.hex")
    cutoff = max(cfg.total_rounds - DRAIN_ROUNDS, 1)
    latencies = metrics.inclusion_latencies(max_gen_round=cutoff)
    on_chain_ok = all(map(metrics.was_generated, ledger.settled))
    return {
        "seed": seed,
        "providers": summary["providers"],
        "inclusion": {
            "cutoff": cutoff,
            "rate": metrics.inclusion_rate(cutoff),
            "median_latency": statistics.median(latencies) if latencies else None,
            "count": len(latencies),
        },
        "max_u": max(len(adj) for adj in cfg.topology),
        "forgery_attempts": metrics.forgery_attempts,
        "dropped_forged": metrics.dropped_forged,
        "on_chain_all_generated": on_chain_ok,
        "tip_hash": ledger.tip_hash().hex(),
    }


def _worker(args: tuple[ScenarioConfig, int, str]) -> dict:
    config, seed, out = args
    return run_seed(config, seed, Path(out))


def cmd_run(
    config_path: str,
    seeds: tuple[int, ...],
    out_dir: str,
    checks: tuple[str, ...],
    parallel: int,
    overwrite: bool,
) -> int:
    """Run every seed and evaluate ``checks``; raise ConfigError before any run on bad input."""
    if parallel < 1:
        raise ConfigError(f"field 'parallel': must be >= 1, got {parallel}")
    config = load_config(config_path)
    for name, k in Counter(checks).items():
        if name not in CHECK_NAMES:
            raise ConfigError(f"field 'checks': unknown check '{name}' "
                              f"(known: {', '.join(CHECK_NAMES)})")
        if k > 1:
            raise ConfigError(f"field 'checks': check '{name}' is listed twice")

    out_root = Path(out_dir)
    seed_dirs = {seed: out_root / f"seed_{seed}" for seed in seeds}
    aggregate_path = out_root / "aggregate.json"
    existing = [p for p in [aggregate_path, *seed_dirs.values()] if p.exists()]
    if existing and not overwrite:
        raise ConfigError(f"output already exists (pass --overwrite): {existing[0]}")
    for path in existing:
        if path.is_dir() == (path == aggregate_path):  # a seed's output is a directory
            raise ConfigError(f"field 'out': --overwrite cannot replace {path}")
    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"field 'out': cannot make directory {out_root} "
                          f"({exc.strerror})") from None

    jobs = [(config, seed, str(seed_dirs[seed])) for seed in seeds]
    # The fork start method launches every worker up front, so never ask for
    # more than there are jobs or cores.
    workers = min(parallel, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_worker, jobs))
    else:
        summaries = [_worker(job) for job in jobs]
    summaries.sort(key=lambda s: s["seed"])

    results = evaluate(checks, summaries)
    aggregate = {
        "config": config.to_dict(),
        "seeds": list(seeds),
        "checks": {r.name: {"passed": r.passed, "detail": r.detail} for r in results},
        "runs": summaries,
    }
    aggregate_path.write_text(json.dumps(aggregate, indent=2, sort_keys=True))

    failed_runs = [s for s in summaries if "error" in s]
    for s in failed_runs:
        print(f"run seed={s['seed']} FAILED: {s['error']}")
    for r in results:
        print(f"check {r.name}: {'PASS' if r.passed else 'FAIL'} — {r.detail}")
    return 0 if not failed_runs and all(r.passed for r in results) else 1


def cmd_oracle(instance_path: str) -> int:
    """Print the exact oracle's expectations; ``checked_instance`` states a valid instance."""
    raw = read_json(instance_path, "instance")
    unknown = sorted(set(raw) - {"labels", "validity", "eta", "initial_reps"})
    if unknown:
        raise ConfigError(f"field '{unknown[0]}': unknown")
    for key in ("labels", "validity", "eta"):
        if key not in raw:
            raise ConfigError(f"field '{key}': missing")
    try:
        result = exact_expected_loss(raw["labels"], raw["validity"], raw["eta"],
                                     initial_reps=raw.get("initial_reps"))
    except ValueError as exc:  # a field checked_instance refuses, or InstanceTooLargeError
        raise ConfigError(str(exc)) from None
    u, T, eta = len(result.slot_penalties), len(raw["labels"]), float(raw["eta"])
    bound = theorem_bound(u, eta, T)
    print(f"instance: u={u} T={T} eta={eta}")
    print(f"expected wasted verifications (prose L_T): {result.prose_loss:.6f}")
    print(f"expected governor loss (proof-consistent L_T): {result.proof_loss:.6f}")
    print(f"per-slot expected penalties S_T: {[round(s, 6) for s in result.slot_penalties]}")
    print(f"regret (governor loss - min slot): {result.regret:.6f}")
    print(f"theorem bound ln(u)/eta + eta*T/2: {bound:.6f}")
    if result.regret > bound + 1e-9:
        print("error: regret exceeds the theorem bound", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repuchain",
        description="Reputation-screened permissioned ledger simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario over one or more seeds")
    run_p.add_argument("--config", required=True, help="scenario JSON path")
    run_p.add_argument(
        "--seeds", default="1",
        help="seed count (e.g. 20) or explicit comma list (e.g. 0,7,13)",
    )
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--parallel", type=int, default=1)
    run_p.add_argument(
        "--checks", default="",
        help=f"comma list of checks to evaluate ({', '.join(CHECK_NAMES)})",
    )
    run_p.add_argument("--overwrite", action="store_true")

    oracle_p = sub.add_parser("oracle", help="exact expectations for a small instance")
    oracle_p.add_argument("--instance", required=True, help="instance JSON path")

    args = parser.parse_args(argv)
    try:
        if args.command == "oracle":
            return cmd_oracle(args.instance)
        checks = tuple(c for c in args.checks.split(",") if c)
        return cmd_run(args.config, parse_seeds(args.seeds), args.out, checks, args.parallel,
                       args.overwrite)
    except ConfigError as exc:  # bad input only: a fault in a run or a check keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
