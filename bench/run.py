"""Run one benchmark workload on one seed in this fresh, single-threaded process.

    python3 bench/run.py --workload doubling --seed 0 --seconds 25 --trace 0

Run it from the root of a repuchain checkout; it imports the program from
``src/``. The run repeats whole passes of its workload (see workloads.py)
until ``--seconds`` have gone by (``--seconds 0`` makes exactly one pass) and
reports medians over the passes in host-calibrated seconds (see calib.py).
With ``--trace 1`` it instead makes one untraced pass in a child process and
one traced pass here, checks that both end on the same tip hashes and
``world_state_hash`` values, and reports the per-layer metrics of tracing.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it,
prefixed ``# detail``, holds the raw seconds, calibration factors and world
hashes behind those figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
import tracing
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11


def import_program():
    """Import repuchain from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "repuchain" / "__init__.py").is_file():
        raise SystemExit(f"error: no repuchain sources under {src}")
    sys.path.insert(0, str(src))
    import repuchain

    if Path(repuchain.__file__).resolve().parent != src / "repuchain":
        raise SystemExit(f"error: imported repuchain from {repuchain.__file__}")


class Pass:
    """What one pass measured."""

    def __init__(self, clock):
        self.clock = clock
        self.round_s: list[float] = []
        self.setup_s = 0.0
        self.setup_raw_s = 0.0
        self.screened = 0
        self.worlds: list[dict] = []
        self.ops: list[tuple[str, bool, str]] = []


class Harness:
    """Runs the CLI calls of each pass; installed once per process.

    The CLI runs each world through ``run_world``, which times set-up and
    every round and checks the finished world. The CLI's longer non-round
    steps are cut into slices of their own.
    """

    def __init__(self, tracer=None):
        from repuchain import checks, cli

        self.tracer = tracer
        self.setup_repeats = 1 if tracer is not None else SETUP_REPEATS
        self.current: Pass | None = None
        self._last_checks: list = []
        cli.run = self.run_world
        for mod, name in ((cli, "compute_regret"), (cli, "emit_csv"), (cli, "write_summary"),
                          (cli, "evaluate"), (checks, "mc_expected_loss")):
            setattr(mod, name, self._sliced(getattr(mod, name), capture=name == "evaluate"))

    def _sliced(self, fn, capture: bool):
        def wrapper(*args, **kwargs):
            self.current.clock.lap("wall")
            result = fn(*args, **kwargs)
            self.current.clock.lap("wall")
            if capture:
                self._last_checks = result
            return result

        return wrapper

    def run_world(self, config):
        """Same contract as ``repuchain.sim_engine.run``: set up, step, finalize."""
        from repuchain import sim_engine
        from repuchain.scenarios import DRAIN_ROUNDS

        p = self.current
        clock = p.clock
        perf = time.perf_counter
        clock.lap("wall")
        raw = config.to_dict()
        times = []
        for _ in range(self.setup_repeats):
            t0 = perf()
            world = sim_engine.init_world(sim_engine.ScenarioConfig.from_dict(raw))
            times.append(perf() - t0)
        p.setup_raw_s += statistics.median(times)
        p.setup_s += statistics.median(times) * clock.lap("setup")

        pending: list[float] = []
        for _ in range(world.config.total_rounds):
            t0 = perf()
            sim_engine.step_round(world)
            pending.append(perf() - t0)
            if clock.elapsed() >= calib.SLICE_SECONDS:
                factor = clock.lap("wall")
                p.round_s.extend(x * factor for x in pending)
                pending = []
        sim_engine.finalize(world)
        factor = clock.lap("wall")
        p.round_s.extend(x * factor for x in pending)

        def verify_world():
            return (
                verify.check_world(world, DRAIN_ROUNDS),
                world.ledger.tip_hash().hex(),
                sim_engine.world_state_hash(world),
            )

        if self.tracer is not None:
            problems, tip, state = self.tracer.run_span("bench.verify", verify_world)
        else:
            problems, tip, state = verify_world()
        p.screened += sum(row.txs_screened for row in world.metrics.rounds)
        name = f"world {world.config.seed}"
        p.worlds.append({"name": name, "tip_hash": tip, "world_state_hash": state})
        p.ops.append((name, not problems, "; ".join(problems)))
        return world.ledger, world.metrics

    def run_call(self, call, out_dir: Path) -> None:
        from repuchain import cli

        p = self.current
        self._last_checks = []
        n_worlds = len(p.worlds)
        p.clock.lap("harness")
        code = cli.main(call.argv(out_dir))
        p.clock.lap("wall")
        results = {r.name: r for r in self._last_checks}
        for check in call.checks:
            r = results.get(check)
            if r is None:
                p.ops.append((f"{call.name}:{check}", False, "check was not evaluated"))
            else:
                p.ops.append((f"{call.name}:{check}", r.passed, r.detail))
        expected_code = 0 if all(r.passed for r in self._last_checks) else 1
        made = len(p.worlds) - n_worlds
        if code != expected_code or made != len(call.seeds):
            p.ops.append((f"{call.name}:exit", False, f"exit code {code}, {made} worlds"))

    def run_pass(self, workload: str, seed: int, pass_no: int) -> Pass:
        on_reference = None
        if self.tracer is not None:
            def on_reference(fn):
                return self.tracer.run_span("bench.calibrate", fn)
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            tmp = Path(tmp)
            calls = workloads.plan(workload, seed, pass_no, ROOT, tmp)
            self.current = Pass(calib.Clock(on_reference))
            for k, call in enumerate(calls):
                self.run_call(call, tmp / f"out{k}")
        return self.current


def reset_program_caches() -> None:
    """Empty every functools cache in repuchain and collect garbage.

    A pass then starts from the state a fresh process starts from, instead
    of from caches full of the previous pass's keys.
    """
    for name, mod in list(sys.modules.items()):
        if name == "repuchain" or name.startswith("repuchain."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


def _known(workload: str, op_name: str) -> bool:
    check = op_name.split(":", 1)[-1]
    return (workload, check) in workloads.KNOWN_FAILURES


def summarize_ops(workload: str, passes: list[Pass]) -> tuple[bool, int, int, list[str]]:
    attempted = failed = 0
    correct = True
    notes = []
    for p in passes:
        for name, ok, detail in p.ops:
            attempted += 1
            if not ok:
                failed += 1
                known = _known(workload, name)
                correct = correct and known
                notes.append(f"{'known fault' if known else 'FAILED'}: {name}: {detail}")
    return correct, attempted, failed, notes


def end_to_end(passes: list[Pass], peak_kib: int) -> tuple[dict, dict]:
    def median_of(figure):
        return statistics.median(figure(p) for p in passes)

    metrics = {
        "setup_s": (median_of(lambda p: p.setup_s), "s"),
        "wall_s": (median_of(lambda p: p.clock.cal["wall"]), "s"),
        "screened_tx_per_s": (median_of(lambda p: p.screened / p.clock.cal["wall"]), "tx/s"),
        "round_ms_p50": (median_of(lambda p: statistics.median(p.round_s)) * 1000, "ms"),
        "round_ms_p90": (median_of(lambda p: statistics.quantiles(p.round_s, n=10)[8]) * 1000, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    detail = {
        "passes": [
            {
                "wall_s": p.clock.cal["wall"], "wall_raw_s": p.clock.raw["wall"],
                "factor": p.clock.factor("wall"), "setup_s": p.setup_s,
                "setup_raw_s": p.setup_raw_s, "screened": p.screened,
                "rounds": len(p.round_s), "worlds": p.worlds,
            }
            for p in passes
        ],
        "wall_raw_s": statistics.median(p.clock.raw["wall"] for p in passes),
        "factor": statistics.median(p.clock.factor("wall") for p in passes),
        "setup_raw_s": statistics.median(p.setup_raw_s for p in passes),
        "setup_factor": statistics.median(p.setup_s / p.setup_raw_s for p in passes),
        "round_samples": sum(len(p.round_s) for p in passes),
        "final_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def untraced_reference(args) -> dict:
    """One untraced pass in a fresh child process, for hashes and overhead."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: untraced reference run failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next(json.loads(l[len("# detail "):]) for l in lines if l.startswith("# detail "))
    return detail["passes"][0]


def traced(args) -> tuple[bool, int, int, dict, list[str]]:
    reference = untraced_reference(args)
    tracer = tracing.Tracer()
    tracer.install()
    p = Harness(tracer).run_pass(args.workload, args.seed, 0)
    correct, attempted, failed, notes = summarize_ops(args.workload, [p])
    mine = [(w["name"], w["tip_hash"], w["world_state_hash"]) for w in p.worlds]
    theirs = [(w["name"], w["tip_hash"], w["world_state_hash"]) for w in reference["worlds"]]
    if mine != theirs:
        correct = False
        notes.append("FAILED: traced run ended on other tip hashes or world_state_hash values")
    factor = p.clock.factor("wall")
    metrics = tracer.layer_metrics(factor)
    metrics["trace.overhead"] = p.clock.cal["wall"] / reference["wall_s"]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"trace_{args.workload}_seed{args.seed}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "metrics": metrics,
        "traced_wall_s": p.clock.cal["wall"], "traced_wall_raw_s": p.clock.raw["wall"],
        "untraced_wall_s": reference["wall_s"], "factor": factor,
        "self_s_raw": dict(tracer.self_s), "calls": dict(tracer.calls),
        "worlds": p.worlds,
    }, indent=1, sort_keys=True))
    units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    return correct, attempted, failed, {
        k: {"value": v, "unit": units[k]} for k, v in metrics.items()
    }, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()

    if args.trace:
        correct, attempted, failed, metrics, notes = traced(args)
        detail = {}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    else:
        harness = Harness()
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(harness.run_pass(args.workload, args.seed, len(passes)))
            if len(passes) == 1:
                # Later passes reuse memory the first one freed, so the
                # process peak after one pass is the workload's own peak.
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reset_program_caches()
            if time.perf_counter() - start >= args.seconds:
                break
        correct, attempted, failed, notes = summarize_ops(args.workload, passes)
        metrics, detail = end_to_end(passes, peak_kib)
        for name, m in metrics.items():
            if name == "setup_s":
                extra = (f"  (calibrated; median raw set-up {detail['setup_raw_s']:.6f} s, "
                         f"factor {detail['setup_factor']:.4f})")
            elif name == "peak_rss_mb":
                extra = ""
            else:
                extra = (f"  (calibrated; median raw wall {detail['wall_raw_s']:.4f} s, "
                         f"factor {detail['factor']:.4f})")
            print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
        print(f"passes = {len(passes)}, rounds timed = {detail['round_samples']}")
    try:
        WORK.rmdir()
    except OSError:
        pass
    for note in notes:
        print(note)
    print(f"attempted = {attempted}, failed = {failed}")
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
