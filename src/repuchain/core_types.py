"""Domain objects shared by every layer: transactions, labels, uploads, blocks, Merkle roots.

Canonical serialization rule (used for every digest and signature in the
system): fields are concatenated in declared order, each prefixed with its
byte length as an 8-byte big-endian integer; integer payloads are themselves
8-byte big-endian; lists are an 8-byte big-endian element count followed by
the length-prefixed elements. The hash everywhere is SHA-256 (256-bit
digests), frozen so the published test vectors stay stable.

``enc_int``/``enc_field``/``enc_list`` state that rule. Every signed message
has a fixed layout under it, so the encoders the program runs pack each
layout with one precompiled ``struct.Struct`` instead of composing the
``enc_*`` calls; ``docs/encoding.md`` tables the layouts. Integers outside
[0, 2^64) raise in both forms (``struct.error`` here, ``OverflowError`` from
``enc_int``).

Each signed object carries the bytes its signature covers, once. A verdict
and an upload carry them as ``signing_bytes``. A transaction carries only
``wire_bytes``, which open with the signed triple: the signed bytes are its
first ``TX_SIGNING_SIZE`` bytes, and no second copy is kept. Every check
reads the carried bytes and computes its own digest, and a governor skips a
provider check only for a copy whose ``wire_bytes`` equal those of a
transaction it already accepted (see :mod:`repuchain.nodes`). Equality
ignores the carried bytes, so that comparison is made on the bytes, never on
the records. A ``Transaction`` encodes its bytes from its fields, and
carries its identity triple as ``txid``: collectors, who may misbehave, pass
transactions on, and bytes taken on trust could carry a genuine provider
signature under a made-up txid. No caller supplies a record's bytes. A
verdict's or an upload's constructor encodes them from its fields, as
``dataclasses.replace`` does; the signer builds it with the classmethod
``signed``, which encodes the bytes once, signs them and stores both.

A label is neither signed by itself nor tied to a collector. It carries its
``body``, encoded from its fields. A collector's round upload is one
``Upload`` record: its id, the round it was sent in, its labels in upload
order, one signature over ``upload_bytes`` (the id, the round and the
labels' bodies) and those bytes, which its constructor encodes from the
other fields. A governor checks the one signature over the carried bytes
without rebuilding them: like a transaction's ``wire_bytes``, they are a
function of the record's fields, so a label flipped or moved to another
collector's upload yields bytes the signature does not cover. The
governor compares the record's round with its own, so an upload replayed
in another round is refused too. It files the labels under the record's
collector id, so no label is filed under an id its signature does not
cover.

The records built once or more per transaction (here ``SimSignature``,
``Transaction`` and ``LabeledTransaction``; elsewhere the verdict and the
reputation state), and the upload, are frozen slots dataclasses
whose ``__init__`` stores each field through its slot descriptor
(``slot_setters``), not the generated ``object.__setattr__`` path, which
costs more than encoding the record. Assignment still raises
``FrozenInstanceError``; equality, hashing, repr and
``dataclasses.replace`` are the dataclass's own.

A block carries its SHA-256 digest as ``hash``, but not its bytes: a copy
of those would duplicate every chained transaction's wire bytes. The
leader signs ``block_bytes(block)``, and every governor verifies that
signature over freshly encoded bytes.

The ``ground_truth_valid`` bit on a transaction is a simulation-only oracle
field. By convention it is read exclusively through the ``validate_*``
helpers in :mod:`repuchain.nodes`; it is not part of the canonical wire
bytes, so digests and signatures never depend on it.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Sequence

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE

# One-byte domain tags for the per-round commitment: invalid entries then
# unchecked entries, each tagged so the two lists cannot be confused.
TAG_INVALID = b"\x01"
TAG_UNCHECKED = b"\x02"

# Precompiled layouts; each ``Q`` is one 8-byte big-endian length or integer.
_U64 = struct.Struct(">Q")
# Three length-prefixed integers: (8, provider_id, 8, seq, 8, timestamp).
_TX_SIGNING = struct.Struct(">QQQQQQ")
# A transaction's wire bytes open with its signed triple, so the triple is their prefix.
TX_SIGNING_SIZE = _TX_SIGNING.size
# The label field of a label's body: (8, 1) for +1, (8, 0) for -1.
_LABEL_FIELDS = {1: struct.pack(">QQ", 8, 1), -1: struct.pack(">QQ", 8, 0)}
# A block's serial and leader fields, then its list field's length and count.
_BLOCK_HEAD = struct.Struct(">QQQQQQ")
# An upload's collector and round fields, then its list field's length and count.
_UPLOAD_HEAD = struct.Struct(">QQQQQQ")


def is_number(v: Any) -> bool:
    """A JSON number a float can hold (not NaN, inf or a huge int), never ``bool``."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def enc_int(value: int) -> bytes:
    """8-byte big-endian encoding of a nonnegative integer."""
    return value.to_bytes(8, "big")


def enc_field(payload: bytes) -> bytes:
    """Length-prefix a field payload."""
    return len(payload).to_bytes(8, "big") + payload


def enc_list(items: Sequence[bytes]) -> bytes:
    """Element count followed by length-prefixed items."""
    return enc_int(len(items)) + b"".join(enc_field(i) for i in items)


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor of ``cls``, in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class SimSignature:
    """Keyed-hash tag standing in for a digital signature."""

    tag: bytes

    def __init__(self, tag: bytes) -> None:
        _set_tag(self, tag)


(_set_tag,) = slot_setters(SimSignature)


def tx_signing_bytes(provider_id: int, seq: int, timestamp: int) -> bytes:
    """Bytes the provider signs: identity triple only (oracle bit excluded)."""
    return _TX_SIGNING.pack(8, provider_id, 8, seq, 8, timestamp)


@dataclass(frozen=True, slots=True, init=False)
class Transaction:
    """Provider-signed payload; (provider_id, seq, timestamp) is its identity.

    Resubmitting an unchecked transaction reuses the identical value, so the
    identity triple is stable across retries.
    """

    provider_id: int
    seq: int
    timestamp: int
    ground_truth_valid: bool
    signature: SimSignature
    txid: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    wire_bytes: bytes = field(init=False, repr=False, compare=False)

    def __init__(self, provider_id: int, seq: int, timestamp: int,
                 ground_truth_valid: bool, signature: SimSignature) -> None:
        s_provider, s_seq, s_time, s_valid, s_sig, s_txid, s_wire = _TX_SLOTS
        tag = signature.tag
        s_provider(self, provider_id)
        s_seq(self, seq)
        s_time(self, timestamp)
        s_valid(self, ground_truth_valid)
        s_sig(self, signature)
        s_txid(self, (provider_id, seq, timestamp))
        s_wire(self, tx_signing_bytes(provider_id, seq, timestamp) + _U64.pack(len(tag)) + tag)


_TX_SLOTS = slot_setters(Transaction)


def tx_wire_bytes(tx: Transaction) -> bytes:
    """Canonical wire form: signed triple plus the provider signature tag."""
    return tx.wire_bytes


@dataclass(frozen=True, slots=True, init=False)
class LabeledTransaction:
    """A transaction plus a +1/-1 label, unsigned and without its collector.

    ``body`` is the label's entry in its collector's signed round upload
    (see ``upload_bytes``); the upload, not the label, carries the
    signature and the collector id.
    """

    tx: Transaction
    label: int
    body: bytes = field(init=False, repr=False, compare=False)

    def __init__(self, tx: Transaction, label: int) -> None:
        s_tx, s_label, s_body = _LTX_SLOTS
        body = label_signing_bytes(tx, label)
        s_tx(self, tx)
        s_label(self, label)
        s_body(self, body)


_LTX_SLOTS = slot_setters(LabeledTransaction)


def label_signing_bytes(tx: Transaction, label: int) -> bytes:
    """A label's body, as an upload lists it: the wire transaction and its label, +1 or -1."""
    label_field = _LABEL_FIELDS.get(label)
    if label_field is None:
        raise ValueError(f"label must be +1 or -1, got {label}")
    wire = tx.wire_bytes
    return _U64.pack(len(wire)) + wire + label_field


def upload_bytes(collector_id: int, round_no: int, bodies: Sequence[bytes]) -> bytes:
    """Bytes a collector signs once a round: its id, the round, its label bodies in order."""
    pack = _U64.pack
    items = b"".join([pack(len(b)) + b for b in bodies])
    return _UPLOAD_HEAD.pack(8, collector_id, 8, round_no, 8 + len(items), len(bodies)) + items


@dataclass(frozen=True, slots=True, init=False)
class Upload:
    """A collector's round upload, as the collector->governor hop carries it.

    ``labels`` are the collector's labels in upload order and ``round_no`` the
    round it sent them in. ``signing_bytes`` is ``upload_bytes`` over the id,
    the round and the labels' bodies, encoded by the constructor from those
    fields, so a governor checks the signature against bytes no sender chose.
    """

    collector_id: int
    round_no: int
    labels: tuple[LabeledTransaction, ...]
    signature: SimSignature
    signing_bytes: bytes = field(init=False, repr=False, compare=False)

    def __init__(self, collector_id: int, round_no: int, labels: Sequence[LabeledTransaction],
                 signature: SimSignature) -> None:
        labels = tuple(labels)
        body = upload_bytes(collector_id, round_no, [ltx.body for ltx in labels])
        _store_upload(self, collector_id, round_no, labels, signature, body)

    @classmethod
    def signed(cls, collector_id: int, round_no: int, labels: Sequence[LabeledTransaction],
               sign: Callable[[bytes], SimSignature]) -> "Upload":
        """The upload ``sign`` signs: encoded once, signed, stored."""
        labels = tuple(labels)
        body = upload_bytes(collector_id, round_no, [ltx.body for ltx in labels])
        self = cls.__new__(cls)
        _store_upload(self, collector_id, round_no, labels, sign(body), body)
        return self


_UPLOAD_SLOTS = slot_setters(Upload)


def _store_upload(upload: Upload, collector_id: int, round_no: int,
                  labels: tuple[LabeledTransaction, ...], signature: SimSignature,
                  body: bytes) -> None:
    s_cid, s_round, s_labels, s_sig, s_body = _UPLOAD_SLOTS
    s_cid(upload, collector_id)
    s_round(upload, round_no)
    s_labels(upload, labels)
    s_sig(upload, signature)
    s_body(upload, body)


@dataclass(frozen=True, slots=True)
class Block:
    """Serial-numbered block; prev_hash chains it to the previous block."""

    serial: int
    leader_id: int
    tx_list: tuple[Transaction, ...]
    mt_root: bytes
    prev_hash: bytes
    hash: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hash", hash_block(self))


def block_bytes(block: Block) -> bytes:
    """Serial, leader, the length-prefixed wire transactions, Merkle root, prev hash."""
    pack = _U64.pack
    items = b"".join([pack(len(t.wire_bytes)) + t.wire_bytes for t in block.tx_list])
    mt_root, prev_hash = block.mt_root, block.prev_hash
    return b"".join((
        _BLOCK_HEAD.pack(8, block.serial, 8, block.leader_id, 8 + len(items), len(block.tx_list)),
        items, pack(len(mt_root)), mt_root, pack(len(prev_hash)), prev_hash,
    ))


def hash_block(block: Block) -> bytes:
    return sha256(block_bytes(block))


def make_genesis() -> Block:
    """Fixed bootstrap block: serial 0, empty lists, all-zero prev hash."""
    return Block(serial=0, leader_id=0, tx_list=(), mt_root=ZERO_DIGEST, prev_hash=ZERO_DIGEST)


@dataclass(frozen=True, slots=True)
class RoundLists:
    """One round's broadcast lists: screened invalid, and left unchecked."""

    invalid_list: tuple[Transaction, ...]
    unchecked_list: tuple[Transaction, ...]


def merkle_root(items: Sequence[bytes]) -> bytes:
    """Binary Merkle root; leaves are item hashes in order.

    An odd node at any level is promoted unchanged (no duplication). The
    empty list maps to the all-zero digest; a single item's root is its leaf
    hash.
    """
    if not items:
        return ZERO_DIGEST
    level = [sha256(item) for item in items]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(sha256(level[i] + level[i + 1]))
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def commitment_items(
    invalid_list: Sequence[Transaction], unchecked_list: Sequence[Transaction]
) -> list[bytes]:
    """Tagged leaves committing (invalid_list, unchecked_list) jointly."""
    return [TAG_INVALID + t.wire_bytes for t in invalid_list] + [
        TAG_UNCHECKED + t.wire_bytes for t in unchecked_list
    ]


def lists_commitment_root(
    invalid_list: Sequence[Transaction], unchecked_list: Sequence[Transaction]
) -> bytes:
    return merkle_root(commitment_items(invalid_list, unchecked_list))
