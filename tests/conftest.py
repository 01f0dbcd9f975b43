import json
from pathlib import Path

import pytest

from repuchain.crypto_sim import KeyRegistry
from repuchain.nodes import GovernorNode, StrategySpec
from repuchain.reputation import EtaPolicy
from repuchain.crypto_sim import substream

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS_DIR = REPO_ROOT / "scenarios"
VECTORS_DIR = Path(__file__).resolve().parent / "vectors"


@pytest.fixture
def registry():
    return KeyRegistry(root_seed=42)


@pytest.fixture
def crypto_vectors():
    return json.loads((VECTORS_DIR / "crypto_vectors.json").read_text())


def make_governor(
    registry: KeyRegistry,
    topology=((0, 1),),
    threshold=100,
    eta=0.5,
    mu=0.7,
    delta_rounds=1,
    b_limit=8,
    gov_index=0,
    n_providers=None,
    n_collectors=None,
) -> GovernorNode:
    """Wire up a single governor for the given topology, enrolling its providers
    (node ids 0..), collectors (1000 + index) and itself (2000 + gov_index)."""
    n_providers = n_providers if n_providers is not None else len(topology)
    n_collectors = (
        n_collectors
        if n_collectors is not None
        else 1 + max(c for adj in topology for c in adj)
    )
    for i in range(n_providers):
        registry.enrol("provider", i, i)
    for j in range(n_collectors):
        registry.enrol("collector", j, 1000 + j)
    return GovernorNode(
        node_id=gov_index,
        keypair=registry.enrol("governor", gov_index, 2000 + gov_index),
        registry=registry,
        topology=[tuple(adj) for adj in topology],
        initial_threshold=threshold,
        eta_policy=EtaPolicy(kind="Fixed", value=eta),
        mu=mu,
        delta_rounds=delta_rounds,
        b_limit=b_limit,
        draw_rng=substream(42, "governor", gov_index),
    )


def honest_strategy() -> StrategySpec:
    return StrategySpec(kind="Honest")
