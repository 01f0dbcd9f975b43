"""The benchmark's tracer still drives the program, and changes no result.

``test_bench_targets.py`` checks only that the traced names exist; this
also catches a changed call shape or return shape. The tracer patches
repuchain's modules in place, so it runs in a subprocess.
"""

import json
import os
import subprocess
import sys

from conftest import REPO_ROOT

SCRIPT = """
import importlib.util, json, sys
from repuchain import scenarios, sim_engine

spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

def digests():
    # Called through the module, so the tracer's replacements are the ones run.
    cfg = sim_engine.ScenarioConfig.from_dict(scenarios.properties(10))
    world = sim_engine.init_world(cfg)
    for _ in range(cfg.total_rounds):
        sim_engine.step_round(world)
    sim_engine.finalize(world)
    rows = world.metrics.rounds
    counts = {"uploaded": sum(row.messages_cg for row in rows) // cfg.m,
              "replicas": cfg.m - 1, "verified": sum(row.txs_verified for row in rows),
              "wasted": sum(row.wasted_verifications for row in rows),
              "verified_rounds": sum(1 for row in rows if row.txs_verified)}
    return [world.ledger.tip_hash().hex(), sim_engine.world_state_hash(world)], counts

plain, _ = digests()
tracer = tracing.Tracer()
tracer.install()
traced, run = digests()
print(json.dumps({"plain": plain, "traced": traced, "run": run,
                  "counts": tracer.counts, "calls": tracer.calls}))
"""


def test_traced_run_matches_untraced_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(REPO_ROOT / "bench" / "tracing.py")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["traced"] == out["plain"]
    run = out["run"]
    # Each replica replays one message a round that verified anything, and each
    # replayed verdict passes the strict order check exactly once.
    assert run["verified"] > run["verified_rounds"] > 0
    assert out["counts"]["nodes.replicate_calls"] == run["replicas"] * run["verified_rounds"]
    assert out["calls"]["nodes.GovernorNode.assert_no_gaps"] == run["replicas"] * run["verified"]
    assert out["counts"]["nodes.screen_calls"] > 0
    # The tracer's two outcome counters read each screening's outcome.
    assert run["wasted"] > 0
    assert out["counts"]["nodes.verified"] == run["verified"]
    assert out["counts"]["nodes.wasted_verifications"] == run["wasted"]
    # Every uploaded copy, labelled or forged, passes through a traced collector call.
    assert run["uploaded"] > 0
    assert out["counts"]["nodes.labels_emitted"] == run["uploaded"]
