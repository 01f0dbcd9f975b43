"""Stake-weighted VRF leader election, block proposal, and block validation.

Each round every governor evaluates one VRF value on the round seed (the
chain tip's hash), and every governor checks every proof. The value is read
as a uniform U in [0, 1) and turned into an exponential race key
``-log1p(-U) / stake``; the least key leads, so a governor leads with
probability stake / total stake (``docs/election.md``).

Governors are trusted not to equivocate, so consensus is modeled as a
deterministic replicated state machine: every governor runs the same
election, replays the same update stream, and appends the same block. The
stake of each governor is fixed for the run (``ScenarioConfig.stakes``).
Every append is validated whole, before any state changes, against the
chain tip, the governor's queue of verified-valid transactions and the
round's broadcast lists, so the four safety properties (agreement, chain
integrity, no skipping, almost-no-creation) hold block by block; any
violation halts the simulation, since it would indicate a bug rather than an
attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Mapping, Sequence

from .core_types import (
    Block,
    RoundLists,
    SimSignature,
    Transaction,
    block_bytes,
    lists_commitment_root,
    make_genesis,
)
from .crypto_sim import KeyPair, KeyRegistry, sign, vrf_eval

TxId = tuple[int, int, int]
# A verified-valid transaction awaiting its block, with its verdict's signed labels.
PendingEntry = tuple[Transaction, tuple[tuple[int, int], ...]]


class Violation(Enum):
    """Why ``validate_block`` refused a block.

    ``UNLABELED_TX`` covers the whole payload rule: a packed transaction that
    is not the next one in ``pending`` (out of order, skipped, or never
    verified valid), or whose verdict holds no +1 label.
    """

    NO_SKIPPING = "no_skipping"
    CHAIN_INTEGRITY = "chain_integrity"
    WRONG_LEADER = "wrong_leader"
    BAD_LEADER_SIGNATURE = "bad_leader_signature"
    OVERSIZE_TX_LIST = "oversize_tx_list"
    BAD_TX_SIGNATURE = "bad_tx_signature"
    UNLABELED_TX = "unlabeled_tx"
    MT_ROOT_MISMATCH = "mt_root_mismatch"
    ALREADY_SETTLED = "already_settled"


class ChainViolation(RuntimeError):
    def __init__(self, violation: Violation, detail: str = ""):
        super().__init__(f"{violation.value}: {detail}" if detail else violation.value)
        self.violation = violation


@dataclass(frozen=True, slots=True)
class SignedBlock:
    block: Block
    signature: SimSignature


@dataclass
class Ledger:
    """Hash chain of blocks, the per-round broadcast lists, and what they settled.

    ``settled`` holds every txid a block packed or a round's invalid list
    named; ``validate_and_append`` is its only writer.
    """

    blocks: list[Block] = field(default_factory=lambda: [make_genesis()])
    round_lists: dict[int, RoundLists] = field(default_factory=dict)
    settled: set[TxId] = field(default_factory=set)

    @property
    def last(self) -> Block:
        return self.blocks[-1]

    def tip_hash(self) -> bytes:
        return self.last.hash

    def export_lines(self) -> list[str]:
        """Canonical block serializations as hex, one per line."""
        return [block_bytes(b).hex() for b in self.blocks]


UNIT_SCALE = float(1 << 53)  # U = (top 64 bits >> 11) / 2^53 lies in [0, 1)


@dataclass(frozen=True, slots=True)
class ElectionRecord:
    winner: int
    excluded: tuple[int, ...]  # governors whose proofs failed this round


def elect_leader(
    stakes: Sequence[int],
    round_seed: bytes,
    keypairs: Sequence[KeyPair],
    registry: KeyRegistry,
) -> ElectionRecord:
    """One VRF value per governor on ``round_seed``; the least race key leads.

    Governor k stakes ``stakes[k]`` and signs with ``keypairs[k]``. Its
    output ``vrf_eval(kp, round_seed)`` is checked with
    ``registry.vrf_verify``; a governor whose proof fails is excluded for the
    round. The top 53 bits of the value give U in [0, 1), and the key
    ``-log1p(-U) / stake`` is an Exp(stake) draw, so the least key belongs
    to governor k with probability ``stakes[k] / sum(stakes)``. Ties break
    on (key, governor id). A governor with no stake draws nothing.
    """
    if sum(stakes) < 1:
        raise ValueError("total stake must be at least 1")
    best: tuple[float, int] | None = None
    excluded = []
    for gov_id, stake in enumerate(stakes):
        if stake < 1:
            continue
        kp = keypairs[gov_id]
        out = vrf_eval(kp, round_seed)
        if not registry.vrf_verify(kp.public, round_seed, out):
            excluded.append(gov_id)
            continue
        u = (int.from_bytes(out.value[:8], "big") >> 11) / UNIT_SCALE
        cand = (-math.log1p(-u) / stake, gov_id)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise ValueError("no governor produced a verifiable VRF output")
    return ElectionRecord(winner=best[1], excluded=tuple(excluded))


def propose_block(
    serial: int,
    leader_id: int,
    leader_kp: KeyPair,
    tx_list: tuple[Transaction, ...],
    invalid_list: tuple[Transaction, ...],
    unchecked_list: tuple[Transaction, ...],
    prev_hash: bytes,
) -> tuple[SignedBlock, RoundLists]:
    """Assemble and sign the round's block plus the broadcast lists.

    ``tx_list`` is the capped payload (carry-over queue head).
    """
    block = Block(
        serial=serial,
        leader_id=leader_id,
        tx_list=tx_list,
        mt_root=lists_commitment_root(invalid_list, unchecked_list),
        prev_hash=prev_hash,
    )
    signed = SignedBlock(block=block, signature=sign(leader_kp, block_bytes(block)))
    return signed, RoundLists(invalid_list=invalid_list, unchecked_list=unchecked_list)


def validate_block(
    ledger: Ledger,
    signed: SignedBlock,
    expected_leader: int,
    registry: KeyRegistry,
    b_limit: int,
    pending: Mapping[TxId, PendingEntry],
    round_lists: RoundLists,
) -> Violation | None:
    """Check one block against the chain; returns the first violation found.

    The payload rule: the block's ``tx_list`` must be the first
    ``len(tx_list)`` transactions of ``pending``, in order, each with a valid
    provider signature and at least one +1 label among its entry's signed
    labels. ``pending`` holds only transactions whose provider signature this
    governor checked at ingest, so a payload transaction whose ``wire_bytes``
    equal its ``pending`` entry's is not checked again; any other is checked
    before the order is. The block's ``mt_root`` must commit to the round's
    broadcast lists. No packed or invalid-listed txid may be in
    ``ledger.settled`` already: each transaction is settled once. Signers are
    looked up by role in ``registry``; one not enrolled fails its check.
    """
    block = signed.block
    last = ledger.last
    if block.serial != last.serial + 1:
        return Violation.NO_SKIPPING
    if block.prev_hash != last.hash:
        return Violation.CHAIN_INTEGRITY
    if block.leader_id != expected_leader:
        return Violation.WRONG_LEADER
    if not registry.verify_as("governor", expected_leader, block_bytes(block), signed.signature):
        return Violation.BAD_LEADER_SIGNATURE
    tx_list = block.tx_list
    if len(tx_list) > b_limit:
        return Violation.OVERSIZE_TX_LIST
    head = islice(pending.values(), len(tx_list))
    for tx in tx_list:
        queued, labels = next(head, (None, ()))
        if ((queued is None or queued.wire_bytes != tx.wire_bytes)
                and not registry.verify_tx(tx)):
            return Violation.BAD_TX_SIGNATURE
        if queued != tx or not any(lab == 1 for _, lab in labels):
            return Violation.UNLABELED_TX
    recomputed = lists_commitment_root(round_lists.invalid_list, round_lists.unchecked_list)
    if recomputed != block.mt_root:
        return Violation.MT_ROOT_MISMATCH
    settled = ledger.settled
    for txs in (block.tx_list, round_lists.invalid_list):
        for tx in txs:
            if tx.txid in settled:
                return Violation.ALREADY_SETTLED
    return None


def validate_and_append(
    ledger: Ledger,
    signed: SignedBlock,
    expected_leader: int,
    registry: KeyRegistry,
    b_limit: int,
    pending: Mapping[TxId, PendingEntry],
    round_lists: RoundLists,
) -> Violation | None:
    violation = validate_block(
        ledger, signed, expected_leader, registry, b_limit, pending, round_lists,
    )
    if violation is not None:
        return violation
    ledger.blocks.append(signed.block)
    ledger.round_lists[signed.block.serial] = round_lists
    ledger.settled.update(tx.txid for tx in signed.block.tx_list)
    ledger.settled.update(tx.txid for tx in round_lists.invalid_list)
    return None

