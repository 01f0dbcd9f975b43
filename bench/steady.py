"""Steadiness check: run one workload repeatedly, one fresh process at a time.

    python3 bench/steady.py --workload doubling --runs 10 --first-seed 100

Each run gets its own seed (``--first-seed``, ``--first-seed + 1``, ...).
For every end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (q3 - q1) / median next to
the metric's bound in BENCHMARK.json, and the range, beside the raw wall
seconds and the calibration factor of each run. The figures are also written
to ``.bench_results/steady_<workload>_<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "min": min(values), "max": max(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2][len("# detail "):])
        runs.append({"seed": seed, "elapsed_s": elapsed, "result": result, "detail": detail})
        print(f"seed {seed}: {elapsed:6.1f} s elapsed, {len(detail['passes'])} passes, "
              f"raw wall {detail['wall_raw_s']:.3f} s, factor {detail['factor']:.4f}, "
              f"wall_s {result['metrics']['wall_s']['value']:.4f}, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    table = {name: stats([r["result"]["metrics"][name]["value"] for r in runs])
             for name in bounds}
    table["raw wall_s"] = stats([r["detail"]["wall_raw_s"] for r in runs])
    table["factor"] = stats([r["detail"]["factor"] for r in runs])
    print(f"\n{'metric':20s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} "
          f"{'bound':>6s} {'min':>11s} {'max':>11s}")
    for name, s in table.items():
        bound = f"{bounds[name]:.2f}" if name in bounds else ""
        print(f"{name:20s} {s['median']:11.5g} {s['q1']:11.5g} {s['q3']:11.5g} "
              f"{s['spread']:7.4f} {bound:>6s} {s['min']:11.5g} {s['max']:11.5g}")
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; all correct: "
          f"{all(r['result']['correct'] for r in runs)}")
    out = ROOT / ".bench_results" / f"steady_{args.workload}_{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "table": table, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
