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
    uploaded = sum(row.messages_cg for row in world.metrics.rounds) // cfg.m
    return [world.ledger.tip_hash().hex(), sim_engine.world_state_hash(world)], uploaded

plain, _ = digests()
tracer = tracing.Tracer()
tracer.install()
traced, uploaded = digests()
print(json.dumps({"plain": plain, "traced": traced, "uploaded": uploaded,
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
    replayed = out["counts"]["nodes.replicate_calls"]
    assert replayed > 0
    # Every replayed message passes the strict order check exactly once.
    assert out["calls"]["nodes.GovernorNode.assert_no_gaps"] == replayed
    assert out["counts"]["nodes.screen_calls"] > 0
    # Every uploaded copy, labelled or forged, passes through a traced collector call.
    assert out["uploaded"] > 0
    assert out["counts"]["nodes.labels_emitted"] == out["uploaded"]
