"""State machines for the three participant roles.

Providers generate signed transactions and resubmit the valid ones that come
back unchecked. Collectors label transactions per a pluggable strategy
(honest or adversarial) and forward them to every governor. Governors hold
the replicated reputation state, screen transactions after the waiting
window, and verify only when the drawn slot vouched +1.

A verified transaction changes governor state through one transition,
``GovernorNode.apply_verdict``: penalize the slots, advance the epoch at its
boundary and settle the transaction. The leader runs it after its draw and
broadcasts a signed ``VerificationMessage``; every other governor runs the
same transition when it replays that message, in per-provider ``cnt`` order.

Ground truth is read exclusively through ``validate_collector`` /
``validate_governor``; the rest of the node logic treats validity as unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .consensus import Ledger
from .core_types import (
    LabeledTransaction,
    SimSignature,
    Transaction,
    enc_field,
    enc_int,
    enc_list,
    label_signing_bytes,
    tx_signing_bytes,
)
from .crypto_sim import KeyPair, KeyRegistry, sign
from .reputation import (
    EtaPolicy,
    ReputationState,
    RevenueReport,
    draw_collector,
    initial_state,
    maybe_advance_epoch,
    penalized_slots,
    selection_probabilities,
    update_reputations,
)

TxId = tuple[int, int, int]

STRATEGY_KINDS = ("Honest", "AlwaysPlus", "AlwaysMinus", "FlipProb", "Withhold", "Forger")

# Forged transactions get sequence numbers far above anything a provider
# could reach, so fabricated identities never collide with real ones.
FORGED_SEQ_BASE = 1 << 40


class SimulationError(RuntimeError):
    """Internal consistency failure; indicates a scheduler or protocol bug."""


def validate_collector(tx: Transaction) -> bool:
    """Cheap near-source validity check (gated ground-truth read)."""
    return tx.ground_truth_valid


def validate_governor(tx: Transaction) -> bool:
    """Costly far-from-source validity check (gated ground-truth read).

    Costs one verification unit per call; the caller accounts for it.
    """
    return tx.ground_truth_valid


@dataclass(frozen=True, slots=True)
class StrategySpec:
    """Labeling policy for one collector.

    ``q`` is the flip probability for FlipProb and the drop probability for
    Withhold; ``forge_rate`` is how many fabricated transactions a Forger
    emits per round.
    """

    kind: str
    q: float = 0.0
    forge_rate: int = 1

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind: {self.kind!r}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"strategy q must be in [0, 1], got {self.q}")


class ProviderNode:
    """Generates signed transactions and tracks its not-yet-on-chain valid ones."""

    def __init__(
        self,
        node_id: int,
        keypair: KeyPair,
        connected_collectors: tuple[int, ...],
        gen_rate: int,
        invalid_fraction: float,
        rng,
    ):
        self.id = node_id
        self.keypair = keypair
        self.connected_collectors = connected_collectors
        self.gen_rate = gen_rate
        self.invalid_fraction = invalid_fraction
        self.rng = rng
        self.pending: dict[TxId, Transaction] = {}
        self._seq = 0

    def generate(self, round_no: int) -> list[Transaction]:
        """Mint gen_rate fresh transactions stamped with the current round."""
        out = []
        for _ in range(self.gen_rate):
            valid = self.rng.random() >= self.invalid_fraction
            self._seq += 1
            sig = sign(self.keypair, tx_signing_bytes(self.id, self._seq, round_no))
            tx = Transaction(
                provider_id=self.id,
                seq=self._seq,
                timestamp=round_no,
                ground_truth_valid=valid,
                signature=sig,
            )
            if valid:
                self.pending[tx.txid] = tx
            out.append(tx)
        return out

    def on_feedback(
        self, invalid_ids: Iterable[TxId], unchecked_ids: Iterable[TxId]
    ) -> list[Transaction]:
        """React to the broadcast lists: rebroadcast unchecked, drop invalid.

        The invalid branch cannot fire for a genuinely valid transaction
        (governor verification is noiseless); it guards misconfigured runs.
        """
        for txid in invalid_ids:
            self.pending.pop(txid, None)
        return [self.pending[txid] for txid in unchecked_ids if txid in self.pending]

    def on_chain(self, txids: Iterable[TxId]) -> None:
        for txid in txids:
            self.pending.pop(txid, None)


class CollectorNode:
    """Labels incoming transactions per its strategy and signs the result."""

    def __init__(
        self,
        node_id: int,
        keypair: KeyPair,
        strategy: StrategySpec,
        registry: KeyRegistry,
        provider_publics: dict[int, bytes],
        rng,
    ):
        self.id = node_id
        self.keypair = keypair
        self.strategy = strategy
        self.registry = registry
        self.provider_publics = provider_publics
        self.rng = rng
        self.ignored: set[TxId] = set()
        self.dropped_bad_signature = 0
        self._forge_seq = 0

    def note_invalid(self, txids: Iterable[TxId]) -> None:
        """Transactions proved invalid on chain are never relabeled."""
        self.ignored.update(txids)

    def _label_for(self, tx: Transaction) -> int | None:
        truth = 1 if validate_collector(tx) else -1
        kind = self.strategy.kind
        if kind in ("Honest", "Forger"):
            return truth
        if kind == "AlwaysPlus":
            return 1
        if kind == "AlwaysMinus":
            return -1
        if kind == "FlipProb":
            return -truth if self.rng.random() < self.strategy.q else truth
        if kind == "Withhold":
            return None if self.rng.random() < self.strategy.q else truth
        raise AssertionError(kind)

    def process(self, tx: Transaction) -> LabeledTransaction | None:
        """Label one delivered transaction, or withhold it."""
        if tx.txid in self.ignored:
            return None
        if not self.registry.verify_tx(self.provider_publics, tx):
            self.dropped_bad_signature += 1
            return None
        label = self._label_for(tx)
        if label is None:
            return None
        return LabeledTransaction(
            tx=tx,
            label=label,
            collector_id=self.id,
            signature=sign(self.keypair, label_signing_bytes(tx, label)),
        )

    def forge(self, round_no: int, n_providers: int) -> list[LabeledTransaction]:
        """Fabricate transactions with bogus provider signatures (Forger only)."""
        if self.strategy.kind != "Forger":
            return []
        out = []
        for _ in range(self.strategy.forge_rate):
            self._forge_seq += 1
            fake = Transaction(
                provider_id=self.rng.randrange(n_providers),
                seq=FORGED_SEQ_BASE + self.id * (1 << 20) + self._forge_seq,
                timestamp=round_no,
                ground_truth_valid=False,
                signature=SimSignature(tag=self.rng.randbytes(32)),
            )
            out.append(
                LabeledTransaction(
                    tx=fake,
                    label=1,
                    collector_id=self.id,
                    signature=sign(self.keypair, label_signing_bytes(fake, 1)),
                )
            )
        return out


@dataclass(frozen=True, slots=True)
class VerificationMessage:
    """Leader broadcast after verifying a transaction; replicas replay it.

    ``cnt`` orders the reputation updates per provider so no governor can
    skip or reorder one.
    """

    leader_id: int
    provider_id: int
    txid: TxId
    validbit: bool
    received: tuple[tuple[int, int], ...]
    cnt: int
    signature: SimSignature


def verification_message_bytes(
    leader_id: int, provider_id: int, txid: TxId, validbit: bool,
    received: tuple[tuple[int, int], ...], cnt: int,
) -> bytes:
    return (
        enc_field(enc_int(leader_id))
        + enc_field(enc_int(provider_id))
        + enc_field(enc_int(txid[0]) + enc_int(txid[1]) + enc_int(txid[2]))
        + enc_field(enc_int(1 if validbit else 0))
        + enc_field(enc_list([enc_int(c) + enc_int(1 if lab == 1 else 0) for c, lab in received]))
        + enc_field(enc_int(cnt))
    )


@dataclass(slots=True)
class EpochClosure:
    provider_id: int
    epoch_index: int
    threshold: int
    eta: float
    revenue: RevenueReport


@dataclass(frozen=True, slots=True)
class ScreeningResult:
    """Everything the leader learned screening one expired transaction."""

    txid: TxId
    provider_id: int
    outcome: str  # "valid" | "invalid" | "unchecked"
    probs: tuple[float, ...]
    loss: float
    penalized: tuple[int, ...]
    epoch_index: int
    message: VerificationMessage | None
    closure: EpochClosure | None

    @property
    def verified(self) -> bool:
        return self.outcome in ("valid", "invalid")


class GovernorNode:
    """Top-tier node: replicated reputation state, screening, chain view."""

    def __init__(
        self,
        node_id: int,
        keypair: KeyPair,
        registry: KeyRegistry,
        topology: list[tuple[int, ...]],
        provider_publics: dict[int, bytes],
        collector_publics: dict[int, bytes],
        governor_publics: dict[int, bytes],
        initial_threshold: int,
        eta_policy: EtaPolicy,
        mu: float,
        delta_rounds: int,
        draw_rng,
    ):
        self.id = node_id
        self.keypair = keypair
        self.registry = registry
        self.topology = topology
        self.slot_of = [
            {cid: slot for slot, cid in enumerate(collectors)} for collectors in topology
        ]
        self.provider_publics = provider_publics
        self.collector_publics = collector_publics
        self.governor_publics = governor_publics
        self.eta_policy = eta_policy
        self.mu = mu
        self.delta_rounds = delta_rounds
        self.draw_rng = draw_rng

        self.ledger = Ledger()
        self.rep: list[ReputationState] = [
            initial_state(len(c), initial_threshold, eta_policy) for c in topology
        ]
        self.received: dict[TxId, dict[int, int]] = {}
        self.timers: dict[TxId, int] = {}  # txid -> expiry round
        self.tx_objects: dict[TxId, Transaction] = {}
        self.settled: set[TxId] = set()
        self.invalid_archive: set[TxId] = set()
        self.on_chain_ids: set[TxId] = set()
        self.pending_valid: list[Transaction] = []  # carry-over queue, FIFO
        self.evidence: dict[TxId, tuple[tuple[int, int], ...]] = {}
        self.dropped_bad_signature = 0
        self.dropped_forged = 0
        self._msg_buffer: dict[int, dict[int, VerificationMessage]] = {}

    # -- uploading-phase intake -------------------------------------------

    def on_labeled_transaction(self, ltx: LabeledTransaction, round_no: int) -> str:
        """Ingest one labeled copy; returns a disposition code for metrics."""
        tx = ltx.tx
        cpub = self.collector_publics.get(ltx.collector_id)
        if cpub is None or not self.registry.verify(
            cpub, label_signing_bytes(tx, ltx.label), ltx.signature
        ):
            self.dropped_bad_signature += 1
            return "bad_collector_sig"
        if not self.registry.verify_tx(self.provider_publics, tx):
            self.dropped_forged += 1
            return "forged"
        if tx.provider_id >= len(self.slot_of) or ltx.collector_id not in self.slot_of[tx.provider_id]:
            return "not_connected"
        txid = tx.txid
        if txid in self.settled:
            return "settled"
        bucket = self.received.get(txid)
        if bucket is None:
            bucket = {}
            self.received[txid] = bucket
            self.timers[txid] = round_no + self.delta_rounds
            self.tx_objects[txid] = tx
        if ltx.collector_id in bucket:
            return "duplicate"  # first label wins, conflicting or not
        bucket[ltx.collector_id] = ltx.label
        return "ok"

    def expired(self, round_no: int) -> list[TxId]:
        """Transactions whose waiting window ends this round, in arrival order."""
        return [txid for txid, expiry in self.timers.items() if expiry == round_no]

    def clear_screened(self, txids: Iterable[TxId]) -> None:
        for txid in txids:
            self.received.pop(txid, None)
            self.timers.pop(txid, None)
            if txid not in self.evidence:  # valid ones wait for their block
                self.tx_objects.pop(txid, None)

    # -- screening (current leader only) ----------------------------------

    def screen(self, txid: TxId) -> ScreeningResult:
        """Draw one slot by reputation; verify only if it vouched +1."""
        tx = self.tx_objects[txid]
        provider = tx.provider_id
        received = self.received.get(txid, {})
        slot_map = self.slot_of[provider]
        labels = {slot_map[cid]: lab for cid, lab in received.items()}
        state = self.rep[provider]
        probs = selection_probabilities(state.reps, state.eta)
        drawn = draw_collector(probs, self.draw_rng)
        if labels.get(drawn) != 1:
            # Absent counts as -1: discard unverified, no reputation change.
            return ScreeningResult(
                txid, provider, "unchecked", probs, 0.0, (), state.epoch_index, None, None
            )
        validbit = validate_governor(tx)
        pen = penalized_slots(len(state.reps), labels, validbit)
        loss = sum(probs[k] for k in pen)
        snapshot = tuple(sorted(received.items()))
        cnt = state.cnt + 1  # this verdict's place in the provider's update order
        closure = self.apply_verdict(provider, txid, validbit, snapshot)
        body = verification_message_bytes(self.id, provider, txid, validbit, snapshot, cnt)
        message = VerificationMessage(
            leader_id=self.id,
            provider_id=provider,
            txid=txid,
            validbit=validbit,
            received=snapshot,
            cnt=cnt,
            signature=sign(self.keypair, body),
        )
        return ScreeningResult(
            txid, provider, "valid" if validbit else "invalid", probs,
            loss, pen, state.epoch_index, message, closure,
        )

    # -- the one state transition, shared by the leader and every replica ---

    def apply_verdict(
        self,
        provider: int,
        txid: TxId,
        validbit: bool,
        received: tuple[tuple[int, int], ...],
    ) -> EpochClosure | None:
        """Apply one verified transaction: penalize, advance the epoch, settle.

        ``received`` is the sorted (collector, label) snapshot the leader
        signed. Returns the closure of the epoch this verdict ended, if any.
        """
        tx = self.tx_objects.get(txid)
        if tx is None:
            raise SimulationError(f"verdict for unseen transaction {txid}")
        slot_map = self.slot_of[provider]
        labels = {slot_map[cid]: lab for cid, lab in received if cid in slot_map}
        state = self.rep[provider]
        self.rep[provider], revenue = maybe_advance_epoch(
            update_reputations(state, labels, validbit), len(state.reps), self.mu,
            self.eta_policy,
        )
        self.settled.add(txid)
        if validbit:
            self.pending_valid.append(tx)
            self.evidence[txid] = received
        else:
            self.invalid_archive.add(txid)
        if revenue is None:
            return None
        return EpochClosure(
            provider, state.epoch_index, state.epoch_threshold, state.eta, revenue
        )

    def on_verification_message(self, msg: VerificationMessage) -> None:
        """Replay the leader's verdict; out-of-order cnt waits in a buffer."""
        body = verification_message_bytes(
            msg.leader_id, msg.provider_id, msg.txid, msg.validbit, msg.received, msg.cnt
        )
        lpub = self.governor_publics.get(msg.leader_id)
        if lpub is None or not self.registry.verify(lpub, body, msg.signature):
            raise SimulationError(f"bad leader signature on verification message {msg.txid}")
        provider = msg.provider_id
        expected = self.rep[provider].cnt + 1
        if msg.cnt < expected:
            raise SimulationError(
                f"stale verification message cnt={msg.cnt}, expected {expected}"
            )
        buffered = self._msg_buffer.setdefault(provider, {})
        buffered[msg.cnt] = msg
        while (nxt := buffered.pop(self.rep[provider].cnt + 1, None)) is not None:
            self.apply_verdict(provider, nxt.txid, nxt.validbit, nxt.received)

    def assert_no_gaps(self) -> None:
        """Synchronous lossless delivery means the buffer must drain each round."""
        for provider, buffered in self._msg_buffer.items():
            if buffered:
                raise SimulationError(
                    f"verification message gap for provider {provider}: "
                    f"buffered cnt values {sorted(buffered)}"
                )

    # -- chain bookkeeping --------------------------------------------------

    def take_block_txs(self, b_limit: int) -> tuple[Transaction, ...]:
        """Next block's payload: oldest verified-valid transactions first."""
        return tuple(self.pending_valid[:b_limit])

    def note_block_appended(self, txs: tuple[Transaction, ...]) -> None:
        if tuple(self.pending_valid[: len(txs)]) != txs:
            raise SimulationError("block payload does not match the carry-over queue")
        del self.pending_valid[: len(txs)]
        for tx in txs:
            self.on_chain_ids.add(tx.txid)
            self.evidence.pop(tx.txid, None)
            self.tx_objects.pop(tx.txid, None)

    def state_fingerprint(self) -> tuple:
        """Replication check: byte-identical state across governors each round."""
        return (
            tuple(self.rep),
            tuple(tx.txid for tx in self.pending_valid),
            tuple(sorted(self.invalid_archive)),
            len(self.on_chain_ids),
        )
