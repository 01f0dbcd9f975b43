"""Synchronous round scheduler: ``step_round`` runs ``PHASES`` over one ``RoundRecord``.

The phases, in order: ``feed_and_mint`` (providers take feedback, mint and
resubmit), ``label_and_forge`` (collectors label what arrived),
``ingest_and_sign``, ``elect``, ``screen`` (transactions whose waiting window
expired), ``replay_verdicts`` (the replicas' reputation updates),
``append_block``, ``check_replicas`` and ``record_row``. Only the record,
built and dropped by ``step_round``, passes between them.
Provider->collector and collector->governor messages, plus the feedback
broadcast, are delivered exactly one round after sending: each of these
three hops is a ``World`` field holding what the previous round sent, and
its phase swaps in what this round sends. The provider->collector hop
holds each sent transaction once; its copies go to the collectors its
provider is connected to (``config.topology``). Collectors label the copies
one at a time, transaction by transaction and, within one, in topology
order; each label, a ``(tx, label)`` pair, goes straight onto its
collector's upload list. The collector->governor hop carries one ``Upload``
record per collector that labelled or forged anything, in collector-id
order: its id, the round, its labels in the order it made them, its one
signature over its id, the round and those labels, and those bytes, encoded
once when the collector builds the record. Each governor checks every
upload's round and signature once and files its labels upload by upload.
The feedback hop carries the round's block payload and unchecked list to the
providers alone: each forgets its chained transactions and resends its
unchecked valid ones in the pass that mints. Collectors get no invalid list,
since no provider resends an invalid transaction.
Governor-to-governor consensus traffic (verification messages, the block,
the lists) completes within the round, from ``elect`` to ``check_replicas``:
governors are modeled as a deterministic replicated state machine, and
``check_replicas`` asserts their equality at every round boundary.

Randomness: the root seed expands into one substream per node, so adding a
node leaves every other node's stream untouched.

Garbage collection: ``step_round`` pauses CPython's cyclic collector for the
round and restores the caller's setting after it, also when the round
raises. A round makes no reference cycles, so reference counting frees
everything it drops; what the pause saves is the collector's repeated walks
over the ledger's records, which dominate the tracked objects of a long
run. The pause rests on that no-cycles condition, which a tier-1 test
checks; a cycle made anyway is found by the next collection outside a
round. The round record is built inside the pause: a round allocates far
past the collector's threshold, so a tracked allocation after it would start
a collection. The collector is neither frozen nor retuned, since both would
act on the whole process.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Iterable

from .consensus import ChainViolation, Ledger, Violation, elect_leader
from .core_types import INT_LIMIT, Transaction, Upload, is_number
from .crypto_sim import KeyRegistry, substream
from .metrics_oracle import MetricsLog, RoundRow
from .nodes import (
    FORGED_SEQ_BASE,
    FORGED_SEQ_STRIDE,
    CollectorNode,
    GovernorNode,
    ProviderNode,
    SimulationError,
    StrategySpec,
    TxId,
)
from .reputation import EtaPolicy


class ConfigError(ValueError):
    """CLI input rejected before anything runs; the message names the file or field.

    It covers every input: a scenario or oracle instance file, and every argument.
    """


def need_int(v: Any, field: str, lo: int, hi: int = INT_LIMIT) -> int:
    """``v`` as the ``int`` it equals if it is a JSON integer in [lo, hi).

    As in JSON Schema, an integral float such as 2.0 is an integer; a
    ``bool``, a fraction and a non-finite float are not. Anything else
    raises ConfigError naming ``field``.
    """
    i = int(v) if isinstance(v, float) and v.is_integer() else v
    if not isinstance(i, int) or isinstance(i, bool) or not lo <= i < hi:
        raise ConfigError(f"field '{field}': expected integer in [{lo}, {hi}), got {v!r}")
    return i


def need_number(v: Any, field: str, unit: bool = False) -> Any:
    """``v`` itself if ``is_number(v)`` and it is above 0, or in [0, 1] when ``unit``.

    Anything else raises ConfigError naming ``field``.
    """
    if not is_number(v) or not (0 <= v <= 1 if unit else v > 0):
        expected = "number in [0, 1]" if unit else "positive number"
        raise ConfigError(f"field '{field}': expected {expected}, got {v!r}")
    return v


def refuse_unknown_keys(obj: dict, allowed: Iterable[str], prefix: str = "") -> None:
    """Raise ConfigError naming the first key of ``obj``, in sorted order, not in ``allowed``."""
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ConfigError(f"field '{prefix}{unknown[0]}': unknown")


def require_keys(obj: dict, required: Iterable[str]) -> None:
    """Raise ConfigError naming the first of ``required`` that ``obj`` lacks."""
    for key in required:
        if key not in obj:
            raise ConfigError(f"field '{key}': missing")


def check_seed(seed: Any, field: str = "seed") -> int:
    """``seed`` as an integer in [0, 2^64), the range enc_int encodes."""
    return need_int(seed, field, 0)


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
        if not isinstance(raw, dict):
            raise ConfigError("scenario: expected a JSON object")
        require_keys(raw, CONFIG_FIELDS)
        refuse_unknown_keys(raw, CONFIG_FIELDS)

        seed = check_seed(raw["seed"])
        l, n, m, T, delta_rounds, b_limit, gen_rate, total_rounds = (
            need_int(raw[key], key, lo) for key, lo in (
                ("l", 1), ("n", 1), ("m", 1), ("T", 1), ("delta_rounds", 0),
                ("b_limit", 1), ("gen_rate", 0), ("total_rounds", 1),
            )
        )
        if gen_rate * total_rounds >= FORGED_SEQ_BASE:
            raise ConfigError("field 'gen_rate': gen_rate * total_rounds must be below 2^40, "
                              "where forged sequence numbers start")

        topology_raw = raw["topology"]
        if not isinstance(topology_raw, (list, tuple)) or len(topology_raw) != l:
            raise ConfigError(f"field 'topology': expected {l} adjacency lists")
        topology = []
        for i, adj in enumerate(topology_raw):
            name = f"topology[{i}]"
            if not isinstance(adj, (list, tuple)) or not adj:
                raise ConfigError(f"field '{name}': provider needs at least one collector")
            slots = tuple(need_int(c, name, 0, n) for c in adj)
            if len(set(slots)) != len(slots):
                raise ConfigError(f"field '{name}': duplicate collector index")
            topology.append(slots)

        strategies_raw = raw["strategies"]
        if not isinstance(strategies_raw, (list, tuple)) or len(strategies_raw) != n:
            raise ConfigError(f"field 'strategies': expected {n} entries")
        strategies = []
        for j, s in enumerate(strategies_raw):
            if not isinstance(s, dict) or "kind" not in s:
                raise ConfigError(f"field 'strategies[{j}]': expected an object with 'kind'")
            refuse_unknown_keys(s, (f.name for f in fields(StrategySpec)), f"strategies[{j}].")
            q = need_number(s.get("q", 0.0), f"strategies[{j}].q", unit=True)
            forge_rate = need_int(s.get("forge_rate", 1), f"strategies[{j}].forge_rate", 0)
            last_forged = FORGED_SEQ_BASE + j * FORGED_SEQ_STRIDE + forge_rate * total_rounds
            if s["kind"] == "Forger" and last_forged >= INT_LIMIT:
                raise ConfigError(f"field 'strategies[{j}].forge_rate': largest forged "
                                  f"sequence number {last_forged} is not below 2^64")
            try:
                strategies.append(StrategySpec(kind=s["kind"], q=float(q), forge_rate=forge_rate))
            except ValueError as exc:
                raise ConfigError(f"field 'strategies[{j}]': {exc}") from exc

        stakes_raw = raw["stakes"]
        if not isinstance(stakes_raw, (list, tuple)) or len(stakes_raw) != m:
            raise ConfigError(f"field 'stakes': expected {m} entries")
        stakes = tuple(need_int(s, f"stakes[{k}]", 1) for k, s in enumerate(stakes_raw))

        policy_raw = raw["eta_policy"]
        if not isinstance(policy_raw, dict) or "kind" not in policy_raw:
            raise ConfigError("field 'eta_policy': expected an object with 'kind'")
        refuse_unknown_keys(policy_raw, (f.name for f in fields(EtaPolicy)), "eta_policy.")
        value = policy_raw.get("value")
        if value is not None:
            need_number(value, "eta_policy.value")
            if policy_raw["kind"] == "PerEpochSqrt":
                # The rule sets eta itself; a value would be ignored, then written back by to_dict.
                raise ConfigError("field 'eta_policy.value': not allowed with kind PerEpochSqrt")
        try:
            eta_policy = EtaPolicy(kind=policy_raw["kind"], value=value)
        except ValueError as exc:
            raise ConfigError(f"field 'eta_policy': {exc}") from exc

        mu = need_number(raw["mu"], "mu")
        invalid_fraction = need_number(raw["invalid_fraction"], "invalid_fraction", unit=True)

        return ScenarioConfig(
            seed=seed, l=l, n=n, m=m, topology=tuple(topology),
            strategies=tuple(strategies), stakes=stakes, T=T,
            eta_policy=eta_policy, mu=float(mu), delta_rounds=delta_rounds,
            b_limit=b_limit, gen_rate=gen_rate,
            invalid_fraction=float(invalid_fraction), total_rounds=total_rounds,
        )

    def to_dict(self) -> dict[str, Any]:
        """The config as ``from_dict`` reads it; an unset eta value is left out."""
        raw = asdict(self)
        if raw["eta_policy"]["value"] is None:
            del raw["eta_policy"]["value"]
        return raw


CONFIG_FIELDS = tuple(f.name for f in fields(ScenarioConfig))


class World:
    """Full mutable simulation state; advance it with step_round."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.registry = KeyRegistry(root_seed=config.seed)
        self.round = 0
        # The one-round hops: what the last completed round sent. A sent
        # transaction is held once; its provider's collectors each get a copy.
        # Labels travel in their collectors' uploads, in collector-id order.
        self.to_collectors: list[Transaction] = []
        self.to_governors: list[Upload] = []
        # The last block's unchecked list and payload, for the providers alone.
        self.feedback: tuple[tuple[Transaction, ...], tuple[Transaction, ...]] = ((), ())
        self.metrics = MetricsLog(config.l)

        # A key's secret derives from its node id, so every tag and hash depends on these ids.
        enrol = self.registry.enrol
        self.provider_publics = self.registry.members["provider"]  # bench/verify.py reads it

        self.providers = [
            ProviderNode(
                node_id=i,
                keypair=enrol("provider", i, i),
                gen_rate=config.gen_rate,
                invalid_fraction=config.invalid_fraction,
                rng=substream(config.seed, "provider", i),
            )
            for i in range(config.l)
        ]
        self.collectors = [
            CollectorNode(
                node_id=j,
                keypair=enrol("collector", j, config.l + j),
                strategy=config.strategies[j],
                registry=self.registry,
                rng=substream(config.seed, "collector", j),
            )
            for j in range(config.n)
        ]
        self.governors = [
            GovernorNode(
                node_id=k,
                keypair=enrol("governor", k, config.l + config.n + k),
                registry=self.registry,
                topology=config.topology,
                initial_threshold=config.T,
                eta_policy=config.eta_policy,
                mu=config.mu,
                delta_rounds=config.delta_rounds,
                b_limit=config.b_limit,
                draw_rng=substream(config.seed, "governor", k),
            )
            for k in range(config.m)
        ]

    @property
    def ledger(self) -> Ledger:
        return self.governors[0].ledger

    def audit_conservation(self) -> dict[str, set[TxId]]:
        """Classify every generated transaction into exactly one bucket.

        A transaction in the provider->collector hop is in flight, however
        many collectors its copies go to; one in the collector->governor hop
        is in flight through any of its labeled copies, in any upload.
        """
        g0 = self.governors[0]
        unchecked_archive: set[TxId] = set()
        for rl in g0.ledger.round_lists.values():
            unchecked_archive.update(t.txid for t in rl.unchecked_list)
        in_flight = (
            {tx.txid for tx in self.to_collectors}
            | {tx.txid for upload in self.to_governors for tx, _ in upload.labels}
            | set(g0.inbox)
            | set(g0.pending)
        )
        pending = set()
        for p in self.providers:
            pending.update(p.pending)
        buckets: dict[str, set[TxId]] = {
            "settled": set(), "in_flight": set(),
            "unchecked_or_pending": set(), "unclassified": set(),
        }
        for txid, _ in self.metrics.generated():
            if txid in g0.ledger.settled:
                buckets["settled"].add(txid)
            elif txid in in_flight:
                buckets["in_flight"].add(txid)
            elif txid in unchecked_archive or txid in pending:
                buckets["unchecked_or_pending"].add(txid)
            else:
                buckets["unclassified"].add(txid)
        return buckets


def init_world(config: ScenarioConfig) -> World:
    return World(config)


class RoundRecord:
    """One round's state, passed from phase to phase; the phase that learns a slot sets it."""

    __slots__ = ("round", "row", "arrived", "labelled", "leader", "screening")

    def __init__(self, r: int):
        self.round = r
        self.row = RoundRow(round=r, leader_id=-1)  # elect sets the leader


def step_round(world: World) -> World:
    """One full round: each of ``PHASES``, read on every call, over one ``RoundRecord``.

    The cyclic collector is paused for the round, and the record is built
    inside the pause (see the module docstring).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        rnd = RoundRecord(world.round + 1)
        for phase in PHASES:
            phase(world, rnd)
        return world
    finally:
        if enabled:
            gc.enable()


def feed_and_mint(world: World, rnd: RoundRecord) -> None:
    """Each provider gets last round's feedback on the ids it minted, the only ones it
    holds. In one pass it forgets its chained ones and sends what it mints, then its
    pending ones that came back unchecked. Last round's sends reach the collectors."""
    r, metrics = rnd.round, world.metrics
    feedback = [([], []) for _ in world.providers]
    for i, txs in enumerate(world.feedback):
        for tx in txs:
            feedback[tx.provider_id][i].append(tx.txid)
    world.feedback = ((), ())
    sends_pc: list[Transaction] = []
    messages_pc = 0
    for p, adj, (unchecked, chained) in zip(world.providers, world.config.topology, feedback):
        p.on_chain(chained)
        resub = p.on_feedback(unchecked)
        metrics.resubmissions += len(resub)
        fresh = p.generate(r)
        for tx in fresh:
            metrics.record_generated(tx.txid, r, tx.ground_truth_valid)
        sent = fresh + resub
        sends_pc += sent
        messages_pc += len(sent) * len(adj)
    rnd.arrived, world.to_collectors = world.to_collectors, sends_pc
    rnd.row.messages_pc = messages_pc


def label_and_forge(world: World, rnd: RoundRecord) -> None:
    """Collectors label each arrived transaction's copies in turn, in its provider's
    topology order, each label onto its collector's upload list; then forgeries."""
    collectors, config = world.collectors, world.config
    labelled = rnd.labelled = [[] for _ in collectors]
    slots = [[(collectors[cid].process, labelled[cid].append) for cid in adj]
             for adj in config.topology]
    for tx in rnd.arrived:
        for process, upload in slots[tx.provider_id]:
            label = process(tx)
            if label is not None:
                upload(label)
    for c, labels in zip(collectors, labelled):
        forged = c.forge(rnd.round, config.l)
        if forged:
            world.metrics.forgery_attempts += len(forged)
            labels.extend(forged)


def ingest_and_sign(world: World, rnd: RoundRecord) -> None:
    """Governors ingest last round's uploads and drop them; then each collector with labels
    signs its one upload of this round, so no two rounds' signed bytes are held at once."""
    delivered, world.to_governors = world.to_governors, []
    for g in world.governors:
        g.ingest(delivered, rnd.round)
    del delivered
    uploads = world.to_governors = [c.sign_upload(rnd.round, labels)
                                    for c, labels in zip(world.collectors, rnd.labelled) if labels]
    rnd.row.messages_cg = sum(len(upload.labels) for upload in uploads) * world.config.m


def elect(world: World, rnd: RoundRecord) -> None:
    """The governors elect the round's leader by stake-weighted VRF on the tip hash."""
    governors, m = world.governors, world.config.m
    election = elect_leader(world.config.stakes, governors[0].ledger.tip_hash(),
                            [g.keypair for g in governors], world.registry)
    rnd.leader = governors[election.winner]
    rnd.row.leader_id, rnd.row.messages_gg = election.winner, m * (m - 1)


def screen(world: World, rnd: RoundRecord) -> None:
    """The leader screens each transaction whose waiting window ends this round."""
    leader, metrics, row = rnd.leader, world.metrics, rnd.row
    screening = rnd.screening = [leader.screen(txid) for txid in leader.expired(rnd.round)]
    for res in screening:
        metrics.record_screening(res)
        if res.closure is not None:
            metrics.record_epoch_close(res.closure)
    row.txs_screened = len(screening)
    row.txs_verified = sum(1 for res in screening if res.verified)
    row.wasted_verifications = sum(1 for res in screening if res.outcome == "invalid")


def replay_verdicts(world: World, rnd: RoundRecord) -> None:
    """Every other governor replays the leader's signed verdicts, in screening order."""
    messages = [res.message for res in rnd.screening if res.message is not None]
    for g in world.governors:
        if g is not rnd.leader:
            for msg in messages:
                g.on_verification_message(msg)
    rnd.row.messages_gg += len(messages) * (world.config.m - 1)


def append_block(world: World, rnd: RoundRecord) -> None:
    """Every governor validates and appends the leader's block, if the round made one."""
    block = rnd.leader.propose_round(rnd.screening)
    if block is not None:
        for g in world.governors:
            g.apply_block(*block, rnd.leader.id)
        signed, lists = block
        for tx in signed.block.tx_list:
            world.metrics.record_on_chain(tx.txid, rnd.round)
        world.feedback = (lists.unchecked_list, signed.block.tx_list)
        rnd.row.blocks = 1
        rnd.row.messages_gg += world.config.m - 1


def check_replicas(world: World, rnd: RoundRecord) -> None:
    """At m > 1, every replica's tip hash and state fingerprint must equal governor 0's."""
    if world.config.m > 1:
        g0, *replicas = world.governors
        tip, fp, r = g0.ledger.tip_hash(), g0.state_fingerprint(), rnd.round
        for g in replicas:
            if g.ledger.tip_hash() != tip:
                raise ChainViolation(Violation.CHAIN_INTEGRITY, f"ledger divergence at round {r}")
            if g.state_fingerprint() != fp:
                raise SimulationError(f"replicated state divergence at round {r}")


def record_row(world: World, rnd: RoundRecord) -> None:
    """The round's counters become its ``rounds.csv`` row, and the round is complete."""
    world.metrics.rounds.append(rnd.row)
    world.round = rnd.round


PHASES = (feed_and_mint, label_and_forge, ingest_and_sign, elect, screen, replay_verdicts,
          append_block, check_replicas, record_row)


def finalize(world: World) -> None:
    """Stamp end-of-run state onto the metrics log."""
    g0 = world.governors[0]
    world.metrics.finalize(list(g0.rep))
    world.metrics.dropped_forged = sum(g.dropped_forged for g in world.governors)


def run(config: ScenarioConfig) -> tuple[Ledger, MetricsLog]:
    """Execute the whole scenario; deterministic for a fixed config."""
    world = init_world(config)
    for _ in range(config.total_rounds):
        step_round(world)
    finalize(world)
    return world.ledger, world.metrics


def world_state_hash(world: World) -> str:
    """Stable digest of the world state the chain does not commit, for decomposition tests.

    One SHA-256 over the ``repr`` of the round, the tip hash, governor 0's
    reputations and pending order as ``state_fingerprint`` gives them, how
    many transactions each provider minted, and each provider's sorted
    pending ids. The tip hash commits every block, and each block's Merkle
    root its round's invalid and unchecked lists, so no packed or listed
    transaction is hashed again. Nor is any minted stamp: every provider
    mints ``gen_rate`` a round, and ``MetricsLog.record_generated`` refuses a
    seq out of turn or stamped with another round.
    """
    g0 = world.governors[0]
    rep, pending, _ = g0.state_fingerprint()
    state = (world.round, g0.ledger.tip_hash(), rep, pending,
             [len(rounds) for rounds in world.metrics.gen_rounds],
             [sorted(p.pending) for p in world.providers])
    return hashlib.sha256(repr(state).encode()).hexdigest()


def read_json(path, what: str) -> dict[str, Any]:
    """The JSON object in the UTF-8 file at ``path``; ``what`` names the file in errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} file {path}: cannot read ({exc.strerror})") from None
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        raise ConfigError(f"{what} file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path}: invalid JSON at line {exc.lineno}: "
                          f"{exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} file {path}: expected a JSON object")
    return raw


def load_config(path) -> ScenarioConfig:
    return ScenarioConfig.from_dict(read_json(path, "config"))
