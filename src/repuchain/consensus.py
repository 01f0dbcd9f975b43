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

Each round is committed and encoded once, by the leader. ``propose_block``
builds the ``RoundLists`` first, whose constructor derives their Merkle
root, and the block commits that same root; ``core_types.sign_record``
builds the ``SignedBlock``: its ``__post_init__`` encodes the block once,
and the leader's signature over those bytes is stored beside them. Every
governor checks the leader's signature over ``signed.signing_bytes`` and
compares the lists' ``mt_root`` with the block's, so no governor re-encodes
the block or rehashes the lists. The carried bytes live for one round: only
the leader builds a ``SignedBlock``, and the ledger keeps the ``Block`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import Mapping, Sequence

from .core_types import (
    Block,
    RoundLists,
    Transaction,
    block_bytes,
    make_genesis,
    sign_record,
)
from .crypto_sim import KeyPair, KeyRegistry, sign, vrf_eval

TxId = tuple[int, int, int]
# A verified-valid transaction awaiting its block, with its verdict's +1 slots
# (``Verdict.plus``, derived once from the signed labels and shared by every governor).
PendingEntry = tuple[Transaction, frozenset[int]]


class Violation(Enum):
    """Why ``validate_block`` refused a block.

    ``UNLABELED_TX`` covers the whole payload rule: a packed transaction that
    is not the next one in ``pending`` (out of order, skipped, or never
    verified valid), or whose verdict holds no +1 label. ``ALREADY_SETTLED``
    covers a txid that an earlier block settled, and one that this block
    would settle twice: named twice across its payload and the round's
    invalid list.
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
    """The leader's block with its signature, broadcast to the governors for one round.

    ``__post_init__`` encodes ``signing_bytes`` (``block_bytes``) from ``block``,
    as does ``dataclasses.replace``, so a governor checks the signature over
    bytes no sender chose. The leader builds it with ``sign_record``.
    """

    block: Block
    signature: bytes
    signing_bytes: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "signing_bytes", block_bytes(self.block))


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

    def write_hex(self, path: Path) -> None:
        """Write each block's canonical bytes as hex, one block a line, genesis first.

        Blocks are encoded and written one at a time, so writing holds one
        block's line, never the whole file.
        """
        with path.open("w") as out:
            for block in self.blocks:
                out.write(block_bytes(block).hex() + "\n")


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

    ``tx_list`` is the capped payload (carry-over queue head). The block
    commits the lists' own ``mt_root``.
    """
    lists = RoundLists(invalid_list=invalid_list, unchecked_list=unchecked_list)
    block = Block(
        serial=serial,
        leader_id=leader_id,
        tx_list=tx_list,
        mt_root=lists.mt_root,
        prev_hash=prev_hash,
    )
    return sign_record(SignedBlock, lambda body: sign(leader_kp, body), block), lists


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
    provider signature and a nonempty set of +1 slots in its entry (its
    verdict's ``plus``). ``pending`` holds only transactions whose provider
    signature this governor checked at ingest, so a payload transaction that
    is its ``pending`` entry's own object is not checked again; any other is
    checked before the order is. The leader's signature is checked over the bytes
    ``signed`` carries, and the block's ``mt_root`` must equal the root the
    round's broadcast lists carry; neither is recomputed here. Each packed or
    invalid-listed txid must be named once in the block and lists, and not be
    in ``ledger.settled`` already: each transaction is settled once. Signers
    are looked up by role in ``registry``; one not enrolled fails its check.
    """
    block = signed.block
    last = ledger.last
    if block.serial != last.serial + 1:
        return Violation.NO_SKIPPING
    if block.prev_hash != last.hash:
        return Violation.CHAIN_INTEGRITY
    if block.leader_id != expected_leader:
        return Violation.WRONG_LEADER
    if not registry.verify_as("governor", expected_leader, signed.signing_bytes,
                              signed.signature):
        return Violation.BAD_LEADER_SIGNATURE
    tx_list = block.tx_list
    if len(tx_list) > b_limit:
        return Violation.OVERSIZE_TX_LIST
    head = islice(pending.values(), len(tx_list))
    for tx in tx_list:
        queued, plus = next(head, (None, None))
        if queued is not tx:
            if not registry.verify_tx(tx):
                return Violation.BAD_TX_SIGNATURE
            if queued != tx:
                return Violation.UNLABELED_TX
        if not plus:
            return Violation.UNLABELED_TX
    if round_lists.mt_root != block.mt_root:
        return Violation.MT_ROOT_MISMATCH
    invalid_list = round_lists.invalid_list
    settles = {tx.txid for tx in chain(tx_list, invalid_list)}
    if len(settles) < len(tx_list) + len(invalid_list) or not ledger.settled.isdisjoint(settles):
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
    ledger.settled.update([tx.txid for tx in chain(signed.block.tx_list,
                                                    round_lists.invalid_list)])
    return None

