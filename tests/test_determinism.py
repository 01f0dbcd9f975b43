"""Pinned ledger tips and world-state hashes of whole worlds.

The tip hash covers the chain: every block, hash-linked to its parent, and
through each block's Merkle root its round's invalid and unchecked lists.
``world_state_hash`` covers what the chain does not commit: the round, the
tip, governor 0's reputations and pending order, how many transactions each
provider minted, and each provider's pending ids. Any change to encoding,
signing, the VRF election, screening or the replica bookkeeping that alters
behaviour moves one of these digests. The m=1 pin (``regret_u8``) does not
depend on the election law: its sole governor always leads.
"""

import pytest

from repuchain import scenarios
from repuchain.sim_engine import (
    ScenarioConfig,
    finalize,
    init_world,
    step_round,
    world_state_hash,
)


def unequal_stakes() -> dict:
    """Four governors with unequal stakes, uneven topology and a forger."""
    return {
        "seed": 21, "l": 6, "n": 5, "m": 4,
        "topology": [[0, 1, 2, 3, 4], [0, 2, 4], [1, 3], [0, 1, 2], [2, 3, 4], [0, 4]],
        "strategies": [
            {"kind": "Honest"},
            {"kind": "AlwaysPlus"},
            {"kind": "FlipProb", "q": 0.3},
            {"kind": "Withhold", "q": 0.4},
            {"kind": "Forger", "forge_rate": 3},
        ],
        "stakes": [30, 50, 70, 90],
        "T": 25,
        "eta_policy": {"kind": "PerEpochSqrt"},
        "mu": 0.7,
        "delta_rounds": 1,
        "b_limit": 5,
        "gen_rate": 2,
        "invalid_fraction": 0.3,
        "total_rounds": 30,
    }


def eight_governors() -> dict:
    """Eight governors with unequal stakes. Withhold and AlwaysMinus slots leave
    labels absent or -1 on valid transactions, and T=6 closes epochs."""
    return {
        "seed": 88, "l": 6, "n": 5, "m": 8,
        "topology": [[0, 1, 3, 4], [1, 2, 3], [0, 3, 4], [2, 4], [0, 1, 2, 3], [1, 4]],
        "strategies": [
            {"kind": "Honest"},
            {"kind": "Withhold", "q": 0.5},
            {"kind": "FlipProb", "q": 0.2},
            {"kind": "AlwaysMinus"},
            {"kind": "Honest"},
        ],
        "stakes": [10, 20, 30, 40, 50, 60, 70, 80],
        "T": 6,
        "eta_policy": {"kind": "PerEpochSqrt"},
        "mu": 0.7,
        "delta_rounds": 1,
        "b_limit": 4,
        "gen_rate": 2,
        "invalid_fraction": 0.3,
        "total_rounds": 30,
    }


# (name, config, tip, world_state_hash, (dropped_forged, summed governor
# dropped_bad_signature)). Neither digest covers the disposition counters, so
# they are pinned beside them.
PINS = [
    ("regret_u8", scenarios.regret_bound(8), "1394c68c9f881b9c", "389b3ec8c6d307dd", (0, 0)),
    ("properties_10", scenarios.properties(10), "b832cfb9341b7d6f", "9ea23faa448f4c65",
     (3204, 0)),
    ("properties_11_seed7", dict(scenarios.properties(11), seed=7),
     "b8015ae5613430bc", "684cd298cbb549bb", (4272, 0)),
    # A governor's inbox follows upload order, collector by collector. Providers
    # 2 and 4 are not wired to collector 0, whose upload is filed first.
    ("unequal_stakes", unequal_stakes(), "a6477049a0abf4e1", "672c9e1258685ddf", (348, 0)),
    # m=8: every governor leads at least once, and every provider's epoch closes twice or more.
    ("eight_governors", eight_governors(), "2cc86bb9813c710b", "3093c63483b97ca1", (0, 0)),
    # The headline scenario, cut to 120 rounds: three epochs close under PerEpochSqrt.
    ("doubling_120", dict(scenarios.doubling(), total_rounds=120),
     "5cbf59e29024fc6c", "6751ddb6f89c28ac", (0, 0)),
]


@pytest.mark.parametrize("raw,tip,state,dropped", [p[1:] for p in PINS],
                         ids=[p[0] for p in PINS])
def test_world_digests_pinned(raw, tip, state, dropped):
    cfg = ScenarioConfig.from_dict(raw)
    world = init_world(cfg)
    for _ in range(cfg.total_rounds):
        step_round(world)
    finalize(world)
    assert world.ledger.tip_hash().hex()[:16] == tip
    assert world_state_hash(world)[:16] == state
    assert (world.metrics.dropped_forged,
            sum(g.dropped_bad_signature for g in world.governors)) == dropped
