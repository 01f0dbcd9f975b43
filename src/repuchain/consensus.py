"""Stake-weighted VRF leader election, block proposal, and chain validation.

Governors are trusted not to equivocate, so consensus is modeled as a
deterministic replicated state machine: every governor runs the same
election, replays the same update stream, and appends the same block. The
validation layer still enforces the four safety properties (agreement, chain
integrity, no skipping, almost-no-creation) and halts the simulation on any
violation, which would indicate a bug rather than an attack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .core_types import (
    TAG_TRANSFER,
    Block,
    RoundLists,
    SimSignature,
    Transaction,
    block_bytes,
    enc_field,
    enc_int,
    hash_block,
    lists_commitment_root,
    make_genesis,
    merkle_root,
)
from .crypto_sim import KeyPair, KeyRegistry, sign, vrf_eval


class Violation(Enum):
    NO_SKIPPING = "no_skipping"
    CHAIN_INTEGRITY = "chain_integrity"
    WRONG_LEADER = "wrong_leader"
    BAD_LEADER_SIGNATURE = "bad_leader_signature"
    OVERSIZE_TX_LIST = "oversize_tx_list"
    BAD_TX_SIGNATURE = "bad_tx_signature"
    UNLABELED_TX = "unlabeled_tx"
    MT_ROOT_MISMATCH = "mt_root_mismatch"


class ChainViolation(RuntimeError):
    def __init__(self, violation: Violation, detail: str = ""):
        super().__init__(f"{violation.value}: {detail}" if detail else violation.value)
        self.violation = violation


@dataclass(frozen=True, slots=True)
class SignedBlock:
    block: Block
    signature: SimSignature


@dataclass(frozen=True, slots=True)
class StakeTransfer:
    from_id: int
    to_id: int
    amount: int
    signature: SimSignature


def transfer_signing_bytes(from_id: int, to_id: int, amount: int) -> bytes:
    return enc_field(enc_int(from_id)) + enc_field(enc_int(to_id)) + enc_field(enc_int(amount))


@dataclass(frozen=True)
class StakeTable:
    """Governor id -> positive stake units; changes only via transfer blocks."""

    units: Mapping[int, int]

    @property
    def total(self) -> int:
        return sum(self.units.values())


@dataclass
class Ledger:
    """Hash chain of blocks plus the ephemeral per-round broadcast archives."""

    blocks: list[Block] = field(default_factory=lambda: [make_genesis()])
    round_lists: dict[int, RoundLists] = field(default_factory=dict)
    transfers: dict[int, tuple[StakeTransfer, ...]] = field(default_factory=dict)

    @property
    def last(self) -> Block:
        return self.blocks[-1]

    def tip_hash(self) -> bytes:
        return hash_block(self.last)

    def export_lines(self) -> list[str]:
        """Canonical block serializations as hex, one per line."""
        return [block_bytes(b).hex() for b in self.blocks]


@dataclass(frozen=True, slots=True)
class ElectionRecord:
    winner: int
    excluded: tuple[int, ...]  # governors whose proofs failed this round


def elect_leader(
    stakes: StakeTable,
    round_seed: bytes,
    keypairs: Mapping[int, KeyPair],
    registry: KeyRegistry,
) -> ElectionRecord:
    """Every stake unit hashes the seed via its owner's VRF; least value wins.

    All governors verify all proofs and reach the same winner. A governor
    whose proof fails verification has its units excluded for the round.
    Ties break on (value, governor id), which matters only in theory with
    256-bit values.
    """
    if stakes.total < 1:
        raise ValueError("total stake must be at least 1")
    best: tuple[bytes, int] | None = None
    excluded = []
    for gov_id in sorted(stakes.units):
        units = stakes.units[gov_id]
        kp = keypairs[gov_id]
        ok = True
        for j in range(units):
            out = vrf_eval(kp, round_seed + enc_int(j))
            if not registry.vrf_verify(kp.public, round_seed + enc_int(j), out):
                ok = False
                break
            cand = (out.value, gov_id)
            if best is None or cand < best:
                best = cand
        if not ok:
            excluded.append(gov_id)
    if best is None:
        raise ValueError("no governor produced a verifiable VRF output")
    return ElectionRecord(winner=best[1], excluded=tuple(excluded))


def propose_block(
    serial: int,
    leader_id: int,
    leader_kp: KeyPair,
    tx_list: tuple[Transaction, ...],
    round_valid: tuple[Transaction, ...],
    invalid_list: tuple[Transaction, ...],
    unchecked_list: tuple[Transaction, ...],
    prev_hash: bytes,
) -> tuple[SignedBlock, RoundLists]:
    """Assemble and sign the round's block plus the broadcast lists.

    ``tx_list`` is the capped payload (carry-over queue head); ``round_valid``
    is what was verified valid this round, kept in the RoundLists archive.
    """
    block = Block(
        serial=serial,
        leader_id=leader_id,
        tx_list=tx_list,
        mt_root=lists_commitment_root(invalid_list, unchecked_list),
        prev_hash=prev_hash,
    )
    signed = SignedBlock(block=block, signature=sign(leader_kp, block_bytes(block)))
    return signed, RoundLists(
        tx_list=round_valid, invalid_list=invalid_list, unchecked_list=unchecked_list
    )


def validate_block(
    ledger: Ledger,
    signed: SignedBlock,
    expected_leader: int,
    registry: KeyRegistry,
    leader_public: bytes,
    provider_publics: Mapping[int, bytes],
    b_limit: int,
    evidence: Mapping[tuple[int, int, int], tuple[tuple[int, int], ...]],
    round_lists: RoundLists | None = None,
) -> Violation | None:
    """Check one block against the chain; returns the first violation found.

    Every packed transaction must carry a valid provider signature and at
    least one +1 label in the leader's broadcast evidence.
    """
    block = signed.block
    last = ledger.last
    if block.serial != last.serial + 1:
        return Violation.NO_SKIPPING
    if block.prev_hash != hash_block(last):
        return Violation.CHAIN_INTEGRITY
    if block.leader_id != expected_leader:
        return Violation.WRONG_LEADER
    if not registry.verify(leader_public, block_bytes(block), signed.signature):
        return Violation.BAD_LEADER_SIGNATURE
    if len(block.tx_list) > b_limit:
        return Violation.OVERSIZE_TX_LIST
    for tx in block.tx_list:
        if not registry.verify_tx(provider_publics, tx):
            return Violation.BAD_TX_SIGNATURE
        labels = evidence.get(tx.txid)
        if not labels or not any(lab == 1 for _, lab in labels):
            return Violation.UNLABELED_TX
    if round_lists is not None:
        recomputed = lists_commitment_root(
            round_lists.invalid_list, round_lists.unchecked_list
        )
        if recomputed != block.mt_root:
            return Violation.MT_ROOT_MISMATCH
    return None


def validate_and_append(
    ledger: Ledger,
    signed: SignedBlock,
    expected_leader: int,
    registry: KeyRegistry,
    leader_public: bytes,
    provider_publics: Mapping[int, bytes],
    b_limit: int,
    evidence: Mapping[tuple[int, int, int], tuple[tuple[int, int], ...]],
    round_lists: RoundLists | None = None,
) -> Violation | None:
    violation = validate_block(
        ledger, signed, expected_leader, registry, leader_public, provider_publics,
        b_limit, evidence, round_lists,
    )
    if violation is not None:
        return violation
    ledger.blocks.append(signed.block)
    if round_lists is not None:
        ledger.round_lists[signed.block.serial] = round_lists
    return None


def apply_stake_transfer(
    stakes: StakeTable,
    transfer: StakeTransfer,
    ledger: Ledger,
    leader_id: int,
    leader_kp: KeyPair,
    registry: KeyRegistry,
    payer_public: bytes,
) -> StakeTable:
    """Move stake and record it in a transfer block sharing the serial sequence.

    Transfer blocks carry an empty payload; the transfer records are
    committed through the mt_root with their own domain tag and archived
    alongside the chain. Rejects overdrafts and bad signatures.
    """
    if not registry.verify(
        payer_public,
        transfer_signing_bytes(transfer.from_id, transfer.to_id, transfer.amount),
        transfer.signature,
    ):
        raise ChainViolation(Violation.BAD_TX_SIGNATURE, "stake transfer signature invalid")
    units = dict(stakes.units)
    if transfer.amount <= 0 or units.get(transfer.from_id, 0) < transfer.amount:
        raise ValueError(
            f"overdraft: governor {transfer.from_id} holds "
            f"{units.get(transfer.from_id, 0)}, tried to move {transfer.amount}"
        )
    units[transfer.from_id] -= transfer.amount
    units[transfer.to_id] = units.get(transfer.to_id, 0) + transfer.amount

    record = TAG_TRANSFER + transfer_signing_bytes(
        transfer.from_id, transfer.to_id, transfer.amount
    ) + enc_field(transfer.signature.tag)
    block = Block(
        serial=ledger.last.serial + 1,
        leader_id=leader_id,
        tx_list=(),
        mt_root=merkle_root([record]),
        prev_hash=ledger.tip_hash(),
    )
    signed = SignedBlock(block=block, signature=sign(leader_kp, block_bytes(block)))
    violation = validate_and_append(
        ledger, signed, leader_id, registry,
        leader_public=leader_kp.public,
        provider_publics={}, b_limit=0, evidence={},
    )
    if violation is not None:
        raise ChainViolation(violation, "stake transfer block rejected")
    ledger.transfers[block.serial] = (transfer,)
    return StakeTable(units=units)


def validate_chain(
    ledger: Ledger,
    provider_publics: Mapping[int, bytes],
    registry: KeyRegistry,
) -> None:
    """Full-chain audit of serial continuity, hash links, and tx signatures."""
    blocks = ledger.blocks
    if blocks[0] != make_genesis():
        raise ChainViolation(Violation.CHAIN_INTEGRITY, "bad genesis block")
    for prev, cur in zip(blocks, blocks[1:]):
        if cur.serial != prev.serial + 1:
            raise ChainViolation(Violation.NO_SKIPPING, f"serial {cur.serial} after {prev.serial}")
        if cur.prev_hash != hash_block(prev):
            raise ChainViolation(Violation.CHAIN_INTEGRITY, f"at serial {cur.serial}")
        for tx in cur.tx_list:
            if not registry.verify_tx(provider_publics, tx):
                raise ChainViolation(Violation.BAD_TX_SIGNATURE, f"at serial {cur.serial}")
