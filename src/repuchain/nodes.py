"""State machines for the three participant roles.

Providers generate signed transactions and resubmit the valid ones that come
back unchecked. Collectors label transactions per a pluggable strategy
(honest or adversarial) and upload each round's labels, under one signature,
to every governor. Governors hold the replicated reputation state, screen
transactions after the waiting window, and verify only when the drawn slot
vouched +1.

A collector labels each copy as it arrives, in ``process(tx)``, which signs
and encodes nothing: a label is the plain ``(tx, label)`` pair. At the end
of the round it signs its upload once, with ``sign_upload``: the canonical
``upload_bytes`` over its id, the round and its labels in upload order. The
upload travels as one ``Upload`` record (collector id, round, labels,
signature, and the signed bytes its constructor encoded); a label carries no
collector id of its own. A slot is a collector's position in its provider's
``topology`` list; reputations, inbox labels and verdicts are kept per slot,
and ``ingest`` alone maps a collector id to its slot.

A governor keeps only what its ``Ledger.settled`` has not indexed: the
``inbox`` while a transaction waits out its window and is screened, then
``pending`` (with its verdict's signed labels) once verified valid, until
its block. A block settles its payload and the round's invalid list. An
unchecked transaction leaves the inbox at the end of its screening round
and comes back, if its provider resubmits it, as a fresh arrival.

A governor changes state only through three transitions, each taking
signed input:

- ``ingest(uploads, r)``: a round's uploads enter the inbox in one call,
  upload by upload. Each upload's round is compared with ``r - 1`` and its
  one signature checked over the bytes the record carries, which its
  constructor encoded from its fields, so no governor re-encodes an upload.
  Then each of its copies, unless that check failed, gets its provider
  signature check (unless the inbox already holds its exact bytes) and its
  label is filed under the upload's collector's slot
  (``on_labeled_transaction(collector_id, (tx, label), signature, r)`` is
  the one-label-upload form).
- ``apply_verdict(msg)``: the leader's ``VerificationMessage`` penalizes the
  slots (``reputation.apply_penalties`` on the message's ``plus`` slots),
  advances the epoch at its boundary and moves the transaction out of the
  inbox. The leader signs the message after its draw (``cnt`` is the
  provider's next update) and applies it; every other governor applies the
  same object after checking the signature and that ``cnt`` is exactly the
  next one, raising ``SimulationError`` before any state changes otherwise.
- ``apply_block(signed, lists, leader_id)``: the block the leader built with
  ``propose_round`` from its screening is checked whole by ``validate_block``
  (its payload must be the head of ``pending``, in order, at most the
  governor's ``b_limit``) before any state changes; it is then appended, its
  payload leaves ``pending`` and its unchecked list leaves the inbox. The
  leader's signature is checked over the bytes ``signed`` carries, which its
  constructor encoded from the block, and the block's ``mt_root`` against
  the one ``lists`` carries, so no governor re-encodes the block or rehashes
  the lists. A block that fails validation raises ``ChainViolation`` and
  changes nothing.

Inbox and ``pending`` entries hold only transactions whose provider
signature this governor checked itself. The check is a pure function of the
key, the bytes and the tag, so a copy whose ``wire_bytes`` equal an entry's
is not checked again, in ``ingest`` or in ``validate_block``. Any other copy
is, even under a txid already held. Only the bytes stand for the check, not
``Transaction`` equality, which also compares the oracle validity bit. Every
collector upload is checked by every governor, every leader signature on
every copy, and no verdict passes between nodes. Each check looks its signer
up by role in the shared ``KeyRegistry``; no node holds another's public key.

Ground truth is read exclusively through ``validate_collector`` /
``validate_governor``; the rest of the node logic treats validity as unknown.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Sequence

from .consensus import (ChainViolation, Ledger, PendingEntry, SignedBlock, TxId,
                        propose_block, validate_and_append)
from .core_types import (
    Label,
    RoundLists,
    Transaction,
    Upload,
    slot_setters,
)
from .crypto_sim import KeyPair, KeyRegistry, sign
from .reputation import (
    EtaPolicy,
    ReputationState,
    apply_penalties,
    initial_state,
    maybe_advance_epoch,
    plus_slots,
    screen_draw,
)

# An unsettled transaction on a governor: (tx, expiry round, slot -> label).
InboxEntry = tuple[Transaction, int, dict[int, int]]

# Each strategy kind's labelling rule: (truth, rng, q) -> the label, or None to
# withhold. Only FlipProb and Withhold draw, once per transaction.
LABEL_RULES = {
    "Honest": lambda truth, rng, q: truth,
    "AlwaysPlus": lambda truth, rng, q: 1,
    "AlwaysMinus": lambda truth, rng, q: -1,
    "FlipProb": lambda truth, rng, q: -truth if rng.random() < q else truth,
    "Withhold": lambda truth, rng, q: None if rng.random() < q else truth,
    "Forger": lambda truth, rng, q: truth,
}
STRATEGY_KINDS = tuple(LABEL_RULES)

# Forged transactions get sequence numbers far above anything a provider
# could reach, so fabricated identities never collide with real ones:
# collector j's k-th forgery has seq FORGED_SEQ_BASE + j*FORGED_SEQ_STRIDE + k.
# ``ScenarioConfig.from_dict`` keeps provider seqs below the base and every
# forged seq below 2^64.
FORGED_SEQ_BASE = 1 << 40
FORGED_SEQ_STRIDE = 1 << 20

# A verification message's layout (see verification_message_bytes): the head
# is the length-prefixed leader and provider ids, the 24-byte txid triple, the
# validbit, then the received list's field length and element count.
_VMSG_HEAD = struct.Struct(">12Q")
_VMSG_ITEM = struct.Struct(">QQQ")
_VMSG_TAIL = struct.Struct(">QQ")


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
        gen_rate: int,
        invalid_fraction: float,
        rng,
    ):
        self.id = node_id
        self.keypair = keypair
        self.gen_rate = gen_rate
        self.invalid_fraction = invalid_fraction
        self.rng = rng
        self.pending: dict[TxId, Transaction] = {}
        self._seq = 0

    def generate(self, round_no: int) -> list[Transaction]:
        """Mint gen_rate fresh transactions stamped with the current round."""
        keypair = self.keypair
        out = []
        for _ in range(self.gen_rate):
            valid = self.rng.random() >= self.invalid_fraction
            self._seq += 1
            tx = Transaction.signed(self.id, self._seq, round_no, valid, lambda b: sign(keypair, b))
            if valid:
                self.pending[tx.txid] = tx
            out.append(tx)
        return out

    def on_feedback(self, unchecked_ids: Iterable[TxId]) -> list[Transaction]:
        """The pending transactions among ``unchecked_ids``, to rebroadcast.

        The block's invalid list needs no reaction: ``pending`` holds only
        valid transactions and governor verification is noiseless.
        """
        return [self.pending[txid] for txid in unchecked_ids if txid in self.pending]

    def on_chain(self, txids: Iterable[TxId]) -> None:
        for txid in txids:
            self.pending.pop(txid, None)


class CollectorNode:
    """Labels incoming transactions per its strategy and signs its round's upload."""

    def __init__(
        self,
        node_id: int,
        keypair: KeyPair,
        strategy: StrategySpec,
        registry: KeyRegistry,
        rng,
    ):
        self.id = node_id
        self.keypair = keypair
        self.strategy = strategy
        self.label_rule = LABEL_RULES[strategy.kind]
        self.registry = registry
        self.rng = rng
        self.ignored: set[TxId] = set()
        self.dropped_bad_signature = 0
        self._forge_seq = 0

    def note_invalid(self, txids: Iterable[TxId]) -> None:
        """Transactions proved invalid on chain are never relabeled.

        No run calls this, so ``ignored`` stays empty: providers resend only
        valid transactions. It is kept while ``bench/tracing.py`` names it.
        """
        self.ignored.update(txids)

    def process(self, tx: Transaction) -> Label | None:
        """Label one delivered copy: ``(tx, label)``, unsigned; None if ignored, dropped or withheld.

        Only FlipProb and Withhold draw from ``rng``, once per copy that
        passes the provider-signature check.
        """
        if tx.txid in self.ignored:
            return None
        if not self.registry.verify_tx(tx):
            self.dropped_bad_signature += 1
            return None
        label = self.label_rule(1 if validate_collector(tx) else -1, self.rng, self.strategy.q)
        if label is None:
            return None
        return tx, label

    def forge(self, round_no: int, provider_count: int) -> list[Label]:
        """Fabricate transactions with bogus provider signatures (Forger only)."""
        if self.strategy.kind != "Forger":
            return []
        out = []
        for _ in range(self.strategy.forge_rate):
            self._forge_seq += 1
            fake = Transaction(
                provider_id=self.rng.randrange(provider_count),
                seq=FORGED_SEQ_BASE + self.id * FORGED_SEQ_STRIDE + self._forge_seq,
                timestamp=round_no,
                ground_truth_valid=False,
                signature=self.rng.randbytes(32),
            )
            out.append((fake, 1))
        return out

    def sign_upload(self, round_no: int, labels: Sequence[Label]) -> Upload:
        """This collector's upload of ``labels`` in ``round_no``, signed."""
        keypair = self.keypair
        return Upload.signed(self.id, round_no, labels, lambda body: sign(keypair, body))


@dataclass(frozen=True, slots=True, init=False)
class VerificationMessage:
    """Leader broadcast after verifying a transaction; replicas replay it.

    ``received`` holds the transaction's labels as sorted ``(slot, label)``
    pairs. ``cnt`` orders the reputation updates per provider so no governor
    can skip or reorder one. It resets when an epoch closes, so it orders
    updates within an epoch; the settled check in ``apply_verdict`` refuses
    older ones. ``plus``, the slots in ``received`` that vouched +1, is
    derived by both constructors, as ``signing_bytes`` is, so every governor
    applies the penalty rule to the same set without rebuilding it.
    """

    leader_id: int
    provider_id: int
    txid: TxId
    validbit: bool
    received: tuple[tuple[int, int], ...]
    cnt: int
    signature: bytes
    signing_bytes: bytes = field(init=False, repr=False, compare=False)
    plus: frozenset[int] = field(init=False, repr=False, compare=False)

    def __init__(self, leader_id: int, provider_id: int, txid: TxId, validbit: bool,
                 received: tuple[tuple[int, int], ...], cnt: int, signature: bytes) -> None:
        fields = (leader_id, provider_id, txid, validbit, received, cnt)
        _store_verdict(self, fields, signature, verification_message_bytes(*fields))

    @classmethod
    def signed(cls, leader_id: int, provider_id: int, txid: TxId, validbit: bool,
               received: tuple[tuple[int, int], ...], cnt: int,
               keypair: KeyPair) -> "VerificationMessage":
        """The verdict ``keypair`` signs: encoded once, signed, stored."""
        fields = (leader_id, provider_id, txid, validbit, received, cnt)
        body = verification_message_bytes(*fields)
        self = cls.__new__(cls)
        _store_verdict(self, fields, sign(keypair, body), body)
        return self


_VMSG_SLOTS = slot_setters(VerificationMessage)


def _store_verdict(msg: VerificationMessage, fields: tuple, signature: bytes,
                   body: bytes) -> None:
    received = fields[4]
    for store, value in zip(_VMSG_SLOTS, (*fields, signature, body, plus_slots(received))):
        store(msg, value)


def verification_message_bytes(
    leader_id: int, provider_id: int, txid: TxId, validbit: bool,
    received: tuple[tuple[int, int], ...], cnt: int,
) -> bytes:
    """Bytes the leader signs: ids, txid, verdict, the sorted (slot, label) list, cnt.

    Packed per the canonical rule: one head, one 24-byte item per received
    label (its 16-byte length, then slot and 1/0 for +1/-1), a tail.
    """
    n = len(received)
    item = _VMSG_ITEM.pack
    parts = [_VMSG_HEAD.pack(8, leader_id, 8, provider_id, 24, *txid,
                             8, 1 if validbit else 0, 8 + 24 * n, n)]
    for slot, lab in received:
        parts.append(item(16, slot, 1 if lab == 1 else 0))
    parts.append(_VMSG_TAIL.pack(8, cnt))
    return b"".join(parts)


@dataclass(frozen=True, slots=True)
class EpochClosure:
    provider_id: int
    epoch_index: int
    eta: float
    revenue: tuple[float, ...]


@dataclass(slots=True)
class ScreeningResult:
    """Everything the leader learned screening one expired transaction."""

    tx: Transaction
    outcome: str  # "valid" | "invalid" | "unchecked"
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
        topology: tuple[tuple[int, ...], ...],
        initial_threshold: int,
        eta_policy: EtaPolicy,
        mu: float,
        delta_rounds: int,
        b_limit: int,
        draw_rng,
    ):
        self.id = node_id
        self.keypair = keypair
        self.registry = registry
        # collector id -> {provider: slot}; read by ingest alone.
        self.slot_of: dict[int, dict[int, int]] = {}
        for provider, collectors in enumerate(topology):
            for slot, cid in enumerate(collectors):
                self.slot_of.setdefault(cid, {})[provider] = slot
        self.eta_policy = eta_policy
        self.mu = mu
        self.delta_rounds = delta_rounds
        self.b_limit = b_limit
        self.draw_rng = draw_rng

        self.ledger = Ledger()
        self.rep: list[ReputationState] = [
            initial_state(len(c), initial_threshold, eta_policy) for c in topology
        ]
        # One home per transaction; see the module docstring for the moves.
        self.inbox: dict[TxId, InboxEntry] = {}  # unsettled, in arrival order
        self.pending: dict[TxId, PendingEntry] = {}  # verified valid, in verdict order
        self.dropped_bad_signature = 0
        self.dropped_forged = 0

    # -- uploading-phase intake -------------------------------------------

    def ingest(self, uploads: Iterable[Upload], round_no: int) -> list[str]:
        """Ingest a round's uploads in order; returns each copy's disposition, in order.

        The hop delivers one round after sending, so the uploads ingested in
        ``round_no`` must have been sent in ``round_no - 1``. An upload from
        another round is refused unchecked; any other has its one signature
        checked against the ``signing_bytes`` its constructor encoded from its
        fields. Every copy of an upload that fails is refused
        ("bad_collector_sig").
        Any other copy gets a provider-signature check unless the inbox
        entry for its txid holds the same ``wire_bytes`` (see the module
        docstring). Its label enters the inbox under the upload's
        collector's slot ("ok") unless that check fails ("forged"), the
        collector has no slot for the provider ("not_connected"), the
        transaction is verified or settled ("settled"), or that slot's label
        is already in ("duplicate": the first label wins, conflicting or not).
        """
        verify_as = self.registry.verify_as
        verify_tx = self.registry.verify_tx
        inbox = self.inbox
        pending = self.pending
        settled = self.ledger.settled
        sent = round_no - 1
        expiry = round_no + self.delta_rounds
        codes: list[str] = []
        code = codes.append
        for upload in uploads:
            labels = upload.labels
            if upload.round_no != sent or not verify_as(
                    "collector", upload.collector_id, upload.signing_bytes, upload.signature):
                self.dropped_bad_signature += len(labels)
                codes += ["bad_collector_sig"] * len(labels)
                continue
            slots = self.slot_of.get(upload.collector_id, {})
            for tx, label in labels:
                txid = tx.txid
                entry = inbox.get(txid)
                if ((entry is None or entry[0].wire_bytes != tx.wire_bytes)
                        and not verify_tx(tx)):
                    self.dropped_forged += 1
                    code("forged")
                    continue
                slot = slots.get(tx.provider_id)
                if slot is None:
                    code("not_connected")
                    continue
                if entry is None:
                    if txid in pending or txid in settled:
                        code("settled")
                        continue
                    entry = inbox[txid] = (tx, expiry, {})
                entry_labels = entry[2]
                if slot in entry_labels:
                    code("duplicate")
                    continue
                entry_labels[slot] = label
                code("ok")
        return codes

    def on_labeled_transaction(self, collector_id: int, label: Label,
                               signature: bytes, round_no: int) -> str:
        """Ingest ``collector_id``'s one-label upload of the ``(tx, label)`` pair, sent the
        round before ``round_no``; returns its disposition (see ``ingest``)."""
        return self.ingest([Upload(collector_id, round_no - 1, (label,), signature)], round_no)[0]

    def expired(self, round_no: int) -> list[TxId]:
        """Transactions whose waiting window ends this round, in arrival order."""
        return [txid for txid, (_, expiry, _) in self.inbox.items() if expiry == round_no]

    def clear_screened(self, txids: Iterable[TxId]) -> None:
        """Drop the screened transactions no verdict settled (the unchecked)."""
        for txid in txids:
            self.inbox.pop(txid, None)

    # -- screening (current leader only) ----------------------------------

    def screen(self, txid: TxId) -> ScreeningResult:
        """Draw one slot by reputation; verify only if it vouched +1."""
        tx, _, labels = self.inbox[txid]
        provider = tx.provider_id
        state = self.rep[provider]
        validbit, pen, loss = screen_draw(state, labels, self.draw_rng, validate_governor, tx)
        if validbit is None:
            # Discarded unverified, no reputation change.
            return ScreeningResult(tx, "unchecked", loss, pen, state.epoch_index, None, None)
        cnt = state.cnt + 1  # this verdict's place in the provider's update order
        message = VerificationMessage.signed(
            self.id, provider, txid, validbit, tuple(sorted(labels.items())), cnt, self.keypair)
        closure = self.apply_verdict(message)
        return ScreeningResult(
            tx, "valid" if validbit else "invalid",
            loss, pen, state.epoch_index, message, closure,
        )

    # -- the one state transition, shared by the leader and every replica ---

    def apply_verdict(self, msg: VerificationMessage) -> EpochClosure | None:
        """Apply one signed verdict: penalize, advance the epoch, leave the inbox.

        The leader applies the message it just signed; a replica, the same
        object once its signature and ``cnt`` checked out. A valid transaction
        moves to ``pending`` with the signed labels; an invalid one waits for
        the round's block, whose append settles it. Returns the closure of
        the epoch this verdict ended, if any.
        """
        txid = msg.txid
        entry = self.inbox.pop(txid, None)
        if entry is None:
            raise SimulationError(f"verdict for unseen or settled transaction {txid}")
        provider = msg.provider_id
        state = self.rep[provider]
        self.rep[provider], revenue = maybe_advance_epoch(
            apply_penalties(state, msg.plus, msg.validbit), self.mu, self.eta_policy
        )
        if msg.validbit:
            self.pending[txid] = (entry[0], msg.received)
        if revenue is None:
            return None
        return EpochClosure(provider, state.epoch_index, state.eta, revenue)

    def on_verification_message(self, msg: VerificationMessage) -> None:
        """Replay the leader's verdict; raise, changing nothing, unless signed and next."""
        if not self.registry.verify_as("governor", msg.leader_id, msg.signing_bytes,
                                       msg.signature):
            raise SimulationError(f"bad leader signature on verification message {msg.txid}")
        self.assert_no_gaps(msg)
        self.apply_verdict(msg)

    def assert_no_gaps(self, msg: VerificationMessage) -> None:
        """Raise unless ``msg.cnt`` is the provider's next update: not stale, none skipped.

        ``cnt`` orders updates within an epoch; a message from an earlier
        epoch can pass here, and the settled check in ``apply_verdict`` refuses it.
        """
        expected = self.rep[msg.provider_id].cnt + 1
        if msg.cnt != expected:
            kind = "stale" if msg.cnt < expected else "skipped-ahead"
            raise SimulationError(
                f"{kind} verification message for provider {msg.provider_id}: "
                f"cnt={msg.cnt}, expected {expected}"
            )

    # -- chain bookkeeping --------------------------------------------------

    def note_block_appended(self, txs: tuple[Transaction, ...]) -> None:
        """Drop an appended block's payload, which validation found at the head of ``pending``."""
        for tx in txs:
            del self.pending[tx.txid]

    def propose_round(
        self, results: list[ScreeningResult],
    ) -> tuple[SignedBlock, RoundLists] | None:
        """The leader's block: the first ``b_limit`` of ``pending``, and ``results``' invalid
        and unchecked transactions in screening order; None if all three are empty."""
        invalid, unchecked = (
            tuple(res.tx for res in results if res.outcome == outcome)
            for outcome in ("invalid", "unchecked")
        )
        tx_list = tuple(tx for tx, _ in islice(self.pending.values(), self.b_limit))
        if not (tx_list or invalid or unchecked):
            return None
        return propose_block(
            serial=self.ledger.last.serial + 1, leader_id=self.id, leader_kp=self.keypair,
            tx_list=tx_list, invalid_list=invalid, unchecked_list=unchecked,
            prev_hash=self.ledger.tip_hash(),
        )

    def apply_block(self, signed: SignedBlock, lists: RoundLists, leader_id: int) -> None:
        """Append ``leader_id``'s block, then drop its payload and unchecked list;
        raise ``ChainViolation``, changing nothing, if it fails validation."""
        violation = validate_and_append(
            self.ledger, signed, leader_id, self.registry, self.b_limit, self.pending, lists,
        )
        if violation is not None:
            raise ChainViolation(violation, f"block {signed.block.serial}, governor {self.id}")
        self.note_block_appended(signed.block.tx_list)
        self.clear_screened(tx.txid for tx in lists.unchecked_list)

    def state_fingerprint(self) -> tuple:
        """Replication check: equal fingerprints mean equal replicated state.

        The tip hash already proves the ledgers equal, so the settled index
        is compared by size alone, and nothing is copied or sorted.
        """
        return (tuple(self.rep), tuple(self.pending), len(self.ledger.settled))
