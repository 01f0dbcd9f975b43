"""Synchronous round scheduler orchestrating the three phases.

Each round: (1) providers generate and resubmit, (2) collectors label what
arrived, (3) governors elect a leader, screen transactions whose waiting
window expired, replicate the reputation updates, and append the block.
Provider->collector and collector->governor messages, plus the feedback
broadcast, are delivered exactly one round after sending. Governor-to-
governor consensus traffic (verification messages, the block, the lists)
completes within the round's processing phase: governors are modeled as a
deterministic replicated state machine, and their equality is asserted at
every round boundary.

Randomness: the root seed expands into one substream per node, so adding a
node leaves every other node's stream untouched.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any

from .consensus import (
    ChainViolation,
    Ledger,
    StakeTable,
    Violation,
    elect_leader,
    propose_block,
    validate_and_append,
)
from .core_types import Transaction, hash_block
from .crypto_sim import KeyRegistry, substream
from .metrics_oracle import MetricsLog, RoundRow
from .nodes import (
    CollectorNode,
    GovernorNode,
    ProviderNode,
    SimulationError,
    StrategySpec,
    TxId,
)
from .reputation import EtaPolicy


class ConfigError(ValueError):
    """Scenario rejected before any round runs; message names the field."""


def check_seed(seed: Any, field: str = "seed") -> int:
    """Return ``seed`` if it is an integer in [0, 2^64), the range enc_int encodes."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 1 << 64:
        raise ConfigError(f"field '{field}': expected integer in [0, 2^64), got {seed!r}")
    return seed


CONFIG_FIELDS = (
    "seed", "l", "n", "m", "topology", "strategies", "stakes", "T", "eta_policy",
    "mu", "delta_rounds", "b_limit", "gen_rate", "invalid_fraction", "total_rounds",
)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    l: int
    n: int
    m: int
    topology: tuple[tuple[int, ...], ...]  # provider -> collector indexes
    strategies: tuple[StrategySpec, ...]
    stakes: tuple[int, ...]
    T: int
    eta_policy: EtaPolicy
    mu: float
    delta_rounds: int
    b_limit: int
    gen_rate: int
    invalid_fraction: float
    total_rounds: int

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=check_seed(seed))

    @staticmethod
    def from_dict(raw: dict[str, Any]) -> "ScenarioConfig":
        for key in CONFIG_FIELDS:
            if key not in raw:
                raise ConfigError(f"field '{key}': missing")
        unknown = set(raw) - set(CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"field '{sorted(unknown)[0]}': unknown")

        def need_int(key: str, lo: int) -> int:
            v = raw[key]
            if not isinstance(v, int) or isinstance(v, bool) or v < lo:
                raise ConfigError(f"field '{key}': expected integer >= {lo}, got {v!r}")
            return v

        seed = check_seed(raw["seed"])
        l = need_int("l", 1)
        n = need_int("n", 1)
        m = need_int("m", 1)
        T = need_int("T", 1)
        delta_rounds = need_int("delta_rounds", 0)
        b_limit = need_int("b_limit", 1)
        gen_rate = need_int("gen_rate", 0)
        total_rounds = need_int("total_rounds", 1)

        topology_raw = raw["topology"]
        if not isinstance(topology_raw, (list, tuple)) or len(topology_raw) != l:
            raise ConfigError(f"field 'topology': expected {l} adjacency lists")
        topology = []
        for i, adj in enumerate(topology_raw):
            if not isinstance(adj, (list, tuple)) or not adj:
                raise ConfigError(f"field 'topology[{i}]': provider needs at least one collector")
            if len(set(adj)) != len(adj):
                raise ConfigError(f"field 'topology[{i}]': duplicate collector index")
            for c in adj:
                if not isinstance(c, int) or not 0 <= c < n:
                    raise ConfigError(f"field 'topology[{i}]': collector index {c!r} out of range")
            topology.append(tuple(adj))

        strategies_raw = raw["strategies"]
        if not isinstance(strategies_raw, (list, tuple)) or len(strategies_raw) != n:
            raise ConfigError(f"field 'strategies': expected {n} entries")
        strategies = []
        for j, s in enumerate(strategies_raw):
            if not isinstance(s, dict) or "kind" not in s:
                raise ConfigError(f"field 'strategies[{j}]': expected an object with 'kind'")
            try:
                strategies.append(
                    StrategySpec(
                        kind=s["kind"],
                        q=float(s.get("q", 0.0)),
                        forge_rate=int(s.get("forge_rate", 1)),
                    )
                )
            except ValueError as exc:
                raise ConfigError(f"field 'strategies[{j}]': {exc}") from exc

        stakes_raw = raw["stakes"]
        if not isinstance(stakes_raw, (list, tuple)) or len(stakes_raw) != m:
            raise ConfigError(f"field 'stakes': expected {m} entries")
        for k, s in enumerate(stakes_raw):
            if not isinstance(s, int) or s < 1:
                raise ConfigError(f"field 'stakes[{k}]': expected positive integer, got {s!r}")

        policy_raw = raw["eta_policy"]
        if not isinstance(policy_raw, dict) or "kind" not in policy_raw:
            raise ConfigError("field 'eta_policy': expected an object with 'kind'")
        try:
            eta_policy = EtaPolicy(
                kind=policy_raw["kind"],
                value=policy_raw.get("value"),
            )
        except ValueError as exc:
            raise ConfigError(f"field 'eta_policy': {exc}") from exc

        mu = raw["mu"]
        if not isinstance(mu, (int, float)) or mu <= 0:
            raise ConfigError(f"field 'mu': expected positive number, got {mu!r}")
        invalid_fraction = raw["invalid_fraction"]
        if not isinstance(invalid_fraction, (int, float)) or not 0 <= invalid_fraction <= 1:
            raise ConfigError(
                f"field 'invalid_fraction': expected number in [0, 1], got {invalid_fraction!r}"
            )

        return ScenarioConfig(
            seed=seed, l=l, n=n, m=m, topology=tuple(topology),
            strategies=tuple(strategies), stakes=tuple(stakes_raw), T=T,
            eta_policy=eta_policy, mu=float(mu), delta_rounds=delta_rounds,
            b_limit=b_limit, gen_rate=gen_rate,
            invalid_fraction=float(invalid_fraction), total_rounds=total_rounds,
        )

    def to_dict(self) -> dict[str, Any]:
        policy: dict[str, Any] = {"kind": self.eta_policy.kind}
        if self.eta_policy.value is not None:
            policy["value"] = self.eta_policy.value
        return {
            "seed": self.seed, "l": self.l, "n": self.n, "m": self.m,
            "topology": [list(a) for a in self.topology],
            "strategies": [
                {"kind": s.kind, "q": s.q, "forge_rate": s.forge_rate}
                for s in self.strategies
            ],
            "stakes": list(self.stakes), "T": self.T, "eta_policy": policy,
            "mu": self.mu, "delta_rounds": self.delta_rounds, "b_limit": self.b_limit,
            "gen_rate": self.gen_rate, "invalid_fraction": self.invalid_fraction,
            "total_rounds": self.total_rounds,
        }


class MessageBus:
    """Per-round queues; anything sent in round r is delivered at r+1."""

    def __init__(self):
        self._store: dict[tuple[str, int], list] = {}

    def put(self, channel: str, round_sent: int, payload: list) -> None:
        key = (channel, round_sent)
        if key in self._store:
            raise SimulationError(f"duplicate send on {channel} in round {round_sent}")
        self._store[key] = payload

    def take(self, channel: str, round_now: int) -> list:
        return self._store.pop((channel, round_now - 1), [])

    def in_flight_txids(self) -> set[TxId]:
        out: set[TxId] = set()
        for (channel, _), payload in self._store.items():
            if channel == "pc":
                out.update(tx.txid for _, tx in payload)
            elif channel == "cg":
                out.update(ltx.tx.txid for ltx in payload)
        return out


class World:
    """Full mutable simulation state; advance it with step_round."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.registry = KeyRegistry(root_seed=config.seed)
        self.round = 0
        self.bus = MessageBus()
        self.metrics = MetricsLog(config.l)
        self.stake_table = StakeTable(units={k: config.stakes[k] for k in range(config.m)})

        provider_kps = [self.registry.issue(i) for i in range(config.l)]
        collector_kps = [self.registry.issue(config.l + j) for j in range(config.n)]
        governor_kps = [self.registry.issue(config.l + config.n + k) for k in range(config.m)]
        provider_publics = {i: kp.public for i, kp in enumerate(provider_kps)}
        collector_publics = {j: kp.public for j, kp in enumerate(collector_kps)}
        governor_publics = {k: kp.public for k, kp in enumerate(governor_kps)}
        self.governor_kps = governor_kps
        self.provider_publics = provider_publics

        self.providers = [
            ProviderNode(
                node_id=i,
                keypair=provider_kps[i],
                connected_collectors=config.topology[i],
                gen_rate=config.gen_rate,
                invalid_fraction=config.invalid_fraction,
                rng=substream(config.seed, "provider", i),
            )
            for i in range(config.l)
        ]
        self.collectors = [
            CollectorNode(
                node_id=j,
                keypair=collector_kps[j],
                strategy=config.strategies[j],
                registry=self.registry,
                provider_publics=provider_publics,
                rng=substream(config.seed, "collector", j),
            )
            for j in range(config.n)
        ]
        topology = [tuple(adj) for adj in config.topology]
        self.governors = [
            GovernorNode(
                node_id=k,
                keypair=governor_kps[k],
                registry=self.registry,
                topology=topology,
                provider_publics=provider_publics,
                collector_publics=collector_publics,
                governor_publics=governor_publics,
                initial_threshold=config.T,
                eta_policy=config.eta_policy,
                mu=config.mu,
                delta_rounds=config.delta_rounds,
                draw_rng=substream(config.seed, "governor", k),
            )
            for k in range(config.m)
        ]

    @property
    def ledger(self) -> Ledger:
        return self.governors[0].ledger

    def audit_conservation(self) -> dict[str, set[TxId]]:
        """Classify every generated transaction into exactly one bucket."""
        g0 = self.governors[0]
        unchecked_archive: set[TxId] = set()
        for rl in g0.ledger.round_lists.values():
            unchecked_archive.update(t.txid for t in rl.unchecked_list)
        in_flight = self.bus.in_flight_txids() | set(g0.received) | {
            t.txid for t in g0.pending_valid
        }
        pending = set()
        for p in self.providers:
            pending.update(p.pending)
        buckets: dict[str, set[TxId]] = {
            "on_chain": set(), "invalid": set(), "in_flight": set(),
            "unchecked_or_pending": set(), "unclassified": set(),
        }
        for txid in self.metrics.gen_round:
            if txid in g0.on_chain_ids:
                buckets["on_chain"].add(txid)
            elif txid in g0.invalid_archive:
                buckets["invalid"].add(txid)
            elif txid in in_flight:
                buckets["in_flight"].add(txid)
            elif txid in unchecked_archive or txid in pending:
                buckets["unchecked_or_pending"].add(txid)
            else:
                buckets["unclassified"].add(txid)
        return buckets


def init_world(config: ScenarioConfig) -> World:
    return World(config)


def step_round(world: World) -> World:
    """One full three-phase iteration; exposed for step-debugging and tests."""
    config = world.config
    r = world.round + 1
    metrics = world.metrics
    governors = world.governors
    m = config.m

    # Feedback from the previous round's block reaches providers/collectors now.
    feedback = world.bus.take("fb", r)
    resubmissions: dict[int, list[Transaction]] = {}
    if feedback:
        invalid_ids, unchecked_ids, chained_ids = feedback[0]
        for p in world.providers:
            p.on_chain(chained_ids)
            resub = p.on_feedback(invalid_ids, unchecked_ids)
            if resub:
                resubmissions[p.id] = resub
                metrics.resubmissions += len(resub)
        for c in world.collectors:
            c.note_invalid(invalid_ids)

    # Phase 1: collecting.
    sends_pc: list[tuple[int, Transaction]] = []
    for p in world.providers:
        fresh = p.generate(r)
        for tx in fresh:
            metrics.record_generated(tx.txid, r, tx.ground_truth_valid)
        for tx in fresh + resubmissions.get(p.id, []):
            for cid in p.connected_collectors:
                sends_pc.append((cid, tx))
    world.bus.put("pc", r, sends_pc)

    # Phase 2: uploading (labels what arrived this round, i.e. sent at r-1).
    uploads = []
    for cid, tx in world.bus.take("pc", r):
        ltx = world.collectors[cid].process(tx)
        if ltx is not None:
            uploads.append(ltx)
    for c in world.collectors:
        forged = c.forge(r, config.l)
        if forged:
            metrics.forgery_attempts += len(forged)
            uploads.extend(forged)
    world.bus.put("cg", r, uploads)

    # Phase 3: processing.
    batch = world.bus.take("cg", r)
    for g in governors:
        for ltx in batch:
            g.on_labeled_transaction(ltx, r)

    round_seed = hash_block(governors[0].ledger.last)
    election = elect_leader(
        world.stake_table, round_seed,
        {k: world.governor_kps[k] for k in range(m)}, world.registry,
    )
    leader_idx = election.winner
    leader = governors[leader_idx]

    expired = leader.expired(r)
    screening = [leader.screen(txid) for txid in expired]
    messages = [res.message for res in screening if res.message is not None]
    for res in screening:
        metrics.record_screening(res)
        if res.closure is not None:
            metrics.record_epoch_close(res.closure)

    for g in governors:
        if g is not leader:
            for msg in messages:
                g.on_verification_message(msg)
            g.assert_no_gaps()

    by_outcome: dict[str, list[Transaction]] = {"valid": [], "invalid": [], "unchecked": []}
    for res in screening:
        by_outcome[res.outcome].append(leader.tx_objects[res.txid])
    valid_this, invalid_this, unchecked_this = (tuple(txs) for txs in by_outcome.values())

    tx_list = leader.take_block_txs(config.b_limit)
    made_block = bool(tx_list or invalid_this or unchecked_this)
    if made_block:
        # Rounds with nothing to record leave the ledger untouched.
        signed, round_lists = propose_block(
            serial=leader.ledger.last.serial + 1,
            leader_id=leader_idx,
            leader_kp=leader.keypair,
            tx_list=tx_list,
            round_valid=valid_this,
            invalid_list=invalid_this,
            unchecked_list=unchecked_this,
            prev_hash=leader.ledger.tip_hash(),
        )
        for g in governors:
            violation = validate_and_append(
                g.ledger, signed, leader_idx, world.registry,
                leader_public=g.governor_publics[leader_idx],
                provider_publics=world.provider_publics,
                b_limit=config.b_limit,
                evidence=g.evidence,
                round_lists=round_lists,
            )
            if violation is not None:
                raise ChainViolation(violation, f"round {r}, governor {g.id}")
            g.note_block_appended(tx_list)

    for tx in tx_list:
        metrics.record_on_chain(tx.txid, r)
    for g in governors:
        g.clear_screened(expired)

    if m > 1:
        tip = governors[0].ledger.tip_hash()
        fp = governors[0].state_fingerprint()
        for g in governors[1:]:
            if g.ledger.tip_hash() != tip:
                raise ChainViolation(Violation.CHAIN_INTEGRITY, f"ledger divergence at round {r}")
            if g.state_fingerprint() != fp:
                raise SimulationError(f"replicated state divergence at round {r}")

    if made_block:
        world.bus.put(
            "fb", r,
            [(
                tuple(t.txid for t in invalid_this),
                tuple(t.txid for t in unchecked_this),
                tuple(t.txid for t in tx_list),
            )],
        )

    row = RoundRow(round=r, leader_id=leader_idx)
    row.txs_screened = len(screening)
    row.txs_verified = sum(1 for res in screening if res.verified)
    row.wasted_verifications = sum(1 for res in screening if res.outcome == "invalid")
    row.blocks = 1 if made_block else 0
    row.messages_pc = len(sends_pc)
    row.messages_cg = len(uploads) * m
    row.messages_gg = m * (m - 1) + len(messages) * (m - 1) + (1 if made_block else 0) * (m - 1)
    metrics.rounds.append(row)

    world.round = r
    return world


def finalize(world: World) -> None:
    """Stamp end-of-run state onto the metrics log."""
    g0 = world.governors[0]
    world.metrics.finalize(list(g0.rep))
    world.metrics.dropped_forged = sum(g.dropped_forged for g in world.governors)
    world.metrics.dropped_bad_signature = sum(
        g.dropped_bad_signature for g in world.governors
    ) + sum(c.dropped_bad_signature for c in world.collectors)


def run(config: ScenarioConfig) -> tuple[Ledger, MetricsLog]:
    """Execute the whole scenario; deterministic for a fixed config."""
    world = init_world(config)
    for _ in range(config.total_rounds):
        step_round(world)
    finalize(world)
    return world.ledger, world.metrics


def world_state_hash(world: World) -> str:
    """Stable digest of the observable world state, for decomposition tests."""
    g0 = world.governors[0]
    h = hashlib.sha256()
    h.update(str(world.round).encode())
    h.update(g0.ledger.tip_hash())
    h.update(repr(g0.state_fingerprint()).encode())
    h.update(repr(sorted(world.metrics.gen_round.items())).encode())
    h.update(repr([sorted(p.pending) for p in world.providers]).encode())
    return h.hexdigest()


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return ScenarioConfig.from_dict(raw)
