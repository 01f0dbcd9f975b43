"""Simulator and library for a hierarchical permissioned ledger whose leaders
screen transactions through a reputation-weighted draw over collector labels."""

from .consensus import (
    ChainViolation,
    Ledger,
    SignedBlock,
    Violation,
    elect_leader,
    propose_block,
    validate_and_append,
)
from .core_types import (
    Block,
    RoundLists,
    SimSignature,
    Transaction,
    Upload,
    hash_block,
    lists_commitment_root,
    make_genesis,
    merkle_root,
)
from .crypto_sim import KeyPair, KeyRegistry, VrfOutput, sign, substream, vrf_eval
from .metrics_oracle import (
    ExactLoss,
    InstanceTooLargeError,
    MetricsLog,
    RegretReport,
    compute_regret,
    emit_csv,
    exact_expected_loss,
    mc_expected_loss,
    scaling_fit,
    sharp_bound,
    theorem_bound,
)
from .nodes import (
    CollectorNode,
    GovernorNode,
    ProviderNode,
    SimulationError,
    StrategySpec,
    validate_collector,
    validate_governor,
)
from .reputation import (
    EtaPolicy,
    ReputationState,
    TopologyError,
    draw_collector,
    maybe_advance_epoch,
    revenue_shares,
    selection_probabilities,
    update_reputations,
)
from .sim_engine import (
    ConfigError,
    ScenarioConfig,
    World,
    init_world,
    load_config,
    run,
    step_round,
    world_state_hash,
)

__all__ = [
    "Block", "ChainViolation", "CollectorNode", "ConfigError", "EtaPolicy",
    "ExactLoss", "GovernorNode", "InstanceTooLargeError", "KeyPair",
    "KeyRegistry", "Ledger", "MetricsLog",
    "ProviderNode", "RegretReport", "ReputationState",
    "RoundLists", "ScenarioConfig", "SignedBlock", "SimSignature",
    "SimulationError", "StrategySpec",
    "TopologyError", "Transaction", "Upload", "Violation", "VrfOutput", "World",
    "compute_regret", "draw_collector", "elect_leader",
    "emit_csv", "exact_expected_loss", "hash_block", "init_world",
    "lists_commitment_root", "load_config", "make_genesis", "maybe_advance_epoch",
    "mc_expected_loss", "merkle_root", "propose_block", "revenue_shares",
    "run", "scaling_fit", "selection_probabilities", "sharp_bound", "sign", "step_round",
    "substream", "theorem_bound", "update_reputations", "validate_and_append",
    "validate_collector", "validate_governor", "vrf_eval",
    "world_state_hash",
]
