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
    """Wire up a single governor with issued keys for the given topology."""
    n_providers = n_providers if n_providers is not None else len(topology)
    n_collectors = (
        n_collectors
        if n_collectors is not None
        else 1 + max(c for adj in topology for c in adj)
    )
    provider_publics = {i: registry.issue(i).public for i in range(n_providers)}
    collector_publics = {
        j: registry.issue(1000 + j).public for j in range(n_collectors)
    }
    gov_kp = registry.issue(2000 + gov_index)
    return GovernorNode(
        node_id=gov_index,
        keypair=gov_kp,
        registry=registry,
        topology=[tuple(adj) for adj in topology],
        provider_publics=provider_publics,
        collector_publics=collector_publics,
        governor_publics={gov_index: gov_kp.public},
        initial_threshold=threshold,
        eta_policy=EtaPolicy(kind="Fixed", value=eta),
        mu=mu,
        delta_rounds=delta_rounds,
        b_limit=b_limit,
        draw_rng=substream(42, "governor", gov_index),
    )


def honest_strategy() -> StrategySpec:
    return StrategySpec(kind="Honest")
