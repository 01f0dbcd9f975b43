"""Batch scenario runner and small-instance oracle CLI.

Exit codes: 0 all requested checks passed, 1 a check failed (the failing
inequality is printed), 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .checks import CHECK_NAMES, evaluate
from .metrics_oracle import (
    InstanceTooLargeError,
    compute_regret,
    emit_csv,
    exact_expected_loss,
    summary_dict,
    theorem_bound,
    write_summary,
)
from .scenarios import DRAIN_ROUNDS
from .sim_engine import ConfigError, ScenarioConfig, check_seed, load_config, run

# A lone number is a seed count; past this it is almost surely one seed.
MAX_SEED_COUNT = 10_000


@dataclass(frozen=True)
class RunManifest:
    config_path: str
    seeds: tuple[int, ...]
    out_dir: str
    checks: tuple[str, ...]
    parallel: int = 1
    overwrite: bool = False


def parse_seeds(spec: str) -> tuple[int, ...]:
    """A seed count ("20" runs seeds 0..19) or a comma list ("0,7,13", "7,").

    Raises ValueError naming the field 'seeds' for anything else.
    """
    spec = spec.strip()
    parts = [s for s in spec.split(",") if s.strip()]
    try:
        numbers = [int(s) for s in parts]
    except ValueError:
        raise ValueError(f"field 'seeds': cannot parse {spec!r}") from None
    if not numbers:
        raise ValueError(f"field 'seeds': no seeds in {spec!r}")
    if "," in spec:
        return tuple(check_seed(s, "seeds") for s in numbers)
    (count,) = numbers
    if not 1 <= count <= MAX_SEED_COUNT:
        raise ValueError(
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
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_csv(metrics, reports, out_dir)
        write_summary(reports, out_dir / "summary.json")
        (out_dir / "ledger.hex").write_text("\n".join(ledger.export_lines()) + "\n")
    cutoff = max(cfg.total_rounds - DRAIN_ROUNDS, 1)
    latencies = metrics.inclusion_latencies(max_gen_round=cutoff)
    generated = set(metrics.gen_round)
    on_chain_ok = all(
        tx.txid in generated for b in ledger.blocks for tx in b.tx_list
    )
    return {
        "seed": seed,
        "providers": summary_dict(reports)["providers"],
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


def _worker(args: tuple[dict, int, str]) -> dict:
    raw, seed, out = args
    config = ScenarioConfig.from_dict(raw)
    return run_seed(config, seed, Path(out))


def cmd_run(manifest: RunManifest) -> int:
    try:
        config = load_config(manifest.config_path)
    except FileNotFoundError:
        print(f"error: config file not found: {manifest.config_path}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in manifest.checks:
        if name not in CHECK_NAMES:
            print(
                f"error: unknown check '{name}' (known: {', '.join(CHECK_NAMES)})",
                file=sys.stderr,
            )
            return 2

    out_root = Path(manifest.out_dir)
    seed_dirs = {seed: out_root / f"seed_{seed}" for seed in manifest.seeds}
    aggregate_path = out_root / "aggregate.json"
    if not manifest.overwrite:
        existing = [p for p in [aggregate_path, *seed_dirs.values()] if p.exists()]
        if existing:
            print(
                f"error: output already exists (pass --overwrite): {existing[0]}",
                file=sys.stderr,
            )
            return 2
    out_root.mkdir(parents=True, exist_ok=True)

    jobs = [(config.to_dict(), seed, str(seed_dirs[seed])) for seed in manifest.seeds]
    if manifest.parallel > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=manifest.parallel) as pool:
            summaries = list(pool.map(_worker, jobs))
    else:
        summaries = [_worker(job) for job in jobs]
    summaries.sort(key=lambda s: s["seed"])

    results = evaluate(manifest.checks, summaries)
    aggregate = {
        "config": config.to_dict(),
        "seeds": list(manifest.seeds),
        "checks": {r.name: {"passed": r.passed, "detail": r.detail} for r in results},
        "runs": summaries,
    }
    aggregate_path.write_text(json.dumps(aggregate, indent=2, sort_keys=True))

    failed_runs = [s for s in summaries if "error" in s]
    for s in failed_runs:
        print(f"run seed={s['seed']} FAILED: {s['error']}")
    for r in results:
        print(f"check {r.name}: {'PASS' if r.passed else 'FAIL'} — {r.detail}")
    if failed_runs and not manifest.checks:
        return 1
    return 0 if all(r.passed for r in results) else 1


def cmd_oracle(instance_path: str) -> int:
    try:
        raw = json.loads(Path(instance_path).read_text())
    except FileNotFoundError:
        print(f"error: instance file not found: {instance_path}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2
    for key in ("labels", "validity", "eta"):
        if key not in raw:
            print(f"error: field '{key}': missing", file=sys.stderr)
            return 2
    try:
        result = exact_expected_loss(
            raw["labels"], raw["validity"], float(raw["eta"]),
            initial_reps=raw.get("initial_reps"),
        )
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    u = len(raw["labels"][0])
    T = len(raw["labels"])
    eta = float(raw["eta"])
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
    if args.command == "run":
        try:
            seeds = parse_seeds(args.seeds)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        checks = tuple(c for c in args.checks.split(",") if c)
        manifest = RunManifest(
            config_path=args.config,
            seeds=seeds,
            out_dir=args.out,
            checks=checks,
            parallel=args.parallel,
            overwrite=args.overwrite,
        )
        return cmd_run(manifest)
    if args.command == "oracle":
        return cmd_oracle(args.instance)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
