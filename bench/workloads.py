"""The benchmark's workloads: which CLI sweeps one pass makes, on which inputs.

Every pass is a closed loop: one caller runs ``repuchain.cli.main(["run",
...])`` calls one after another, each simulating its worlds to completion
with ``--parallel 1``. Pass ``p`` of a run with seed ``s`` derives every
world seed from ``(workload, s, p)``, so the same seed gives the same inputs
and no two passes share keys (which would let the program's ``lru_cache``s
carry work from one pass into the next).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("doubling", "replicated", "acceptance")

# Checks that fail on every seed because of a known fault in the program:
# ``compute_regret`` fits log cumulative regret against log cumulative T, and
# under the doubling schedule the geometric-sum transient pulls that slope to
# about 0.68, outside the [0.35, 0.65] window of ``check_scaling``.
KNOWN_FAILURES = {("doubling", "scaling")}

# replicated: 20 collectors, four of each kind. Every provider gets one
# collector of each of four kinds, so every world carries the same load;
# the seed picks which collectors, their slot order and the stake order.
# The stakes are unequal and sum to 2200 units, so elect_leader evaluates and
# verifies 2200 VRF outputs per round.
REPLICATED_KINDS = (
    {"kind": "Honest"},
    {"kind": "AlwaysPlus"},
    {"kind": "FlipProb", "q": 0.3},
    {"kind": "Withhold", "q": 0.5},
    {"kind": "AlwaysMinus"},
)
REPLICATED_STAKES = (100, 150, 200, 250, 300, 350, 400, 450)
REPLICATED_ROUNDS = 100

# acceptance: sweep sizes and the properties world (m=3, an AlwaysMinus
# collector, a forger, b_limit 3).
REGRET_SEEDS = 2
PROPERTIES_INDEX = 10
PROPERTIES_SEEDS = 4


@dataclass(frozen=True)
class CliCall:
    """One ``repuchain run`` invocation."""

    name: str
    config: Path
    seeds: tuple[int, ...]
    checks: tuple[str, ...]

    def argv(self, out_dir: Path) -> list[str]:
        # The trailing comma keeps a single seed from being read as a count.
        return [
            "run", "--config", str(self.config),
            "--seeds", ",".join(str(s) for s in self.seeds) + ",",
            "--out", str(out_dir), "--checks", ",".join(self.checks),
            "--parallel", "1",
        ]


def world_seeds(workload: str, seed: int, pass_no: int, tag: str, count: int) -> tuple[int, ...]:
    """Distinct 32-bit world seeds for one CLI call of one pass."""
    out = []
    for k in range(count):
        digest = hashlib.sha256(f"{workload}/{seed}/{pass_no}/{tag}/{k}".encode()).digest()
        out.append(int.from_bytes(digest[:4], "big"))
    return tuple(out)


def replicated_config(world_seed: int) -> dict:
    """l=50 providers, n=20 collectors, m=8 governors with unequal stakes.

    Provider i is wired to one Honest, one AlwaysPlus and one FlipProb
    collector, plus a Withhold one (even i) or an AlwaysMinus one (odd i).
    """
    rng = random.Random(world_seed)
    strategies = [kind for kind in REPLICATED_KINDS for _ in range(4)]
    rng.shuffle(strategies)
    by_kind = {k["kind"]: [j for j, s in enumerate(strategies) if s == k] for k in REPLICATED_KINDS}
    topology = []
    for i in range(50):
        kinds = ["Honest", "AlwaysPlus", "FlipProb", "Withhold" if i % 2 == 0 else "AlwaysMinus"]
        slots = [rng.choice(by_kind[k]) for k in kinds]
        rng.shuffle(slots)
        topology.append(slots)
    stakes = list(REPLICATED_STAKES)
    rng.shuffle(stakes)
    return {
        "seed": world_seed, "l": 50, "n": len(strategies), "m": len(stakes),
        "topology": topology, "strategies": strategies, "stakes": stakes,
        "T": 50, "eta_policy": {"kind": "PerEpochSqrt"}, "mu": 0.7,
        "delta_rounds": 1, "b_limit": 400, "gen_rate": 4, "invalid_fraction": 0.5,
        "total_rounds": REPLICATED_ROUNDS,
    }


def _write(path: Path, raw: dict) -> Path:
    path.write_text(json.dumps(raw, sort_keys=True))
    return path


def plan(workload: str, seed: int, pass_no: int, root: Path, work: Path) -> list[CliCall]:
    """The CLI calls of one pass, writing any generated config under ``work``."""
    from repuchain import scenarios

    def seeds(tag: str, count: int) -> tuple[int, ...]:
        return world_seeds(workload, seed, pass_no, tag, count)

    if workload == "doubling":
        return [CliCall("doubling", root / "scenarios" / "doubling.json",
                        seeds("doubling", 1), ("regret-bound", "scaling"))]
    if workload == "replicated":
        (ws,) = seeds("replicated", 1)
        path = _write(work / "replicated.json", replicated_config(ws))
        return [CliCall("replicated", path, (ws,), ("properties",))]
    if workload == "acceptance":
        return [
            CliCall("regret_u8", _write(work / "regret_u8.json", scenarios.regret_bound(8)),
                    seeds("regret_u8", REGRET_SEEDS), ("regret-bound",)),
            CliCall("properties", _write(work / "properties.json",
                                         scenarios.properties(PROPERTIES_INDEX)),
                    seeds("properties", PROPERTIES_SEEDS), ("properties",)),
            CliCall("oracle", _write(work / "smoke.json", scenarios.smoke()),
                    seeds("oracle", 1), ("oracle-agreement",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
