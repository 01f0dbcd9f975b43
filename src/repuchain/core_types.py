"""Domain objects shared by every layer: transactions, label uploads, blocks, Merkle roots.

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

A signature is its tag's bytes: ``crypto_sim.sign`` returns the digest
itself, with no record around it. ``SimSignature`` is a ``bytes`` subclass
whose ``tag`` is itself, for a tag built by hand or read back from a
transaction.

Each signed object carries the bytes its signature covers, once. An upload,
a verification message and a signed block carry them as ``signing_bytes``
beside their signature (a verdict has none: its round's message signs it). A
transaction carries only ``wire_bytes``: the signed triple, then its
provider's tag as a length-prefixed field. The signed bytes are its first
``TX_SIGNING_SIZE`` bytes and the tag runs from ``TX_TAG_OFFSET`` to the
end; no second copy of either is kept, and ``tx.signature`` copies the tag
out on each read. Every check reads the carried bytes and computes its own
digest, and a governor skips a provider check only for the very object it
already accepted (see :mod:`repuchain.nodes`), never for an equal record:
transaction equality also compares the validity bit, which no signature
covers. A ``Transaction`` encodes its bytes from its fields, and carries its
identity triple as ``txid``: collectors, who may misbehave, pass
transactions on, and bytes taken on trust could carry a genuine provider
signature under a made-up txid. No caller supplies a record's bytes. A
transaction's ``__init__`` encodes them from its fields; every other
record's ``__post_init__`` derives its carried field from the others, and
so does ``dataclasses.replace``,
which on a transaction raises ``TypeError``: the tag is no field it can pass
on. A provider signs with ``Transaction.signed``, every other signer with
``sign_record``; each takes a ``sign`` callable and encodes the message once.

A label is a plain ``(tx, label)`` pair, label +1 or -1: no record, no bytes
of its own, not signed by itself, not tied to a collector. A collector's
round upload is one ``Upload`` record: its id, the round it was sent in, its
labels in upload order, one signature over ``upload_bytes`` (the id, the
round and the labels' bodies, packed as each pair is read; any other label
raises ``ValueError`` before anything is signed) and those bytes, which its
``__post_init__`` encodes from the other fields. A governor checks the one
signature over the carried bytes without rebuilding them: like a
transaction's ``wire_bytes``, they are a function of the record's fields, so
a label flipped or moved to another collector's upload yields bytes the
signature does not cover. The governor compares the record's round with its
own, so an upload replayed in another round is refused too. It files the
labels under the record's collector id, so no label is filed under an id its
signature does not cover.

Only ``Transaction`` and ``reputation.ReputationState`` keep an ``__init__``
that stores each field through its slot descriptor (``slot_setters``), not
the generated ``object.__setattr__`` path. A transaction's tag lives inside
its ``wire_bytes``, and a ``doubling`` run builds 72,000. The benchmark's
``replicated_config(12345)`` builds 96,856 states, whose generated
``__init__`` timed 1,146 ns against 583 ns, about 55 ms a pass (CPython
3.11, shared 2-core machine); a verdict's timed 1,397 against 1,304 ns,
about 3.5 ms a ``doubling`` run, so it keeps the generated one. Assignment raises
``FrozenInstanceError``; equality, hashing, repr and ``dataclasses.replace``
are the dataclass's own.

A block carries its SHA-256 digest as ``hash``, but not its bytes: a copy
of those would duplicate every chained transaction's wire bytes for as long
as the ledger holds the block. The leader signs ``block_bytes(block)``, and
the ``consensus.SignedBlock`` it broadcasts carries those bytes for the one
round it lives, encoded by its ``__post_init__`` from its block; every governor
verifies the leader's signature over them. A round's ``RoundLists`` carries
its commitment as ``mt_root``, derived by its constructor from the two
lists, and the leader's block commits the same bytes object.

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
# A transaction's wire bytes open with its signed triple, so the triple is their prefix;
# the provider's tag follows its 8-byte length and runs to the end.
TX_SIGNING_SIZE = _TX_SIGNING.size
TX_TAG_OFFSET = TX_SIGNING_SIZE + 8
# A label's body: its length and its wire field's length (24 less), the wire
# bytes, then the label field: (8, 1) for +1, (8, 0) for -1.
_LABEL_HEAD = struct.Struct(">QQ")
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


INT_LIMIT = 1 << 64  # every integer field is below 2^64, the range enc_int encodes


def enc_int(value: int) -> bytes:
    """8-byte big-endian encoding of a nonnegative integer below INT_LIMIT."""
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


class SimSignature(bytes):
    """Keyed-hash tag standing in for a digital signature: the tag's bytes themselves.

    Any ``bytes`` is a signature, and ``sign`` returns plain ``bytes``: an
    instance of this class, as of any class defined in Python, is tracked by
    the cyclic GC, so none is kept. It serves readers of ``.tag``, such as
    ``Transaction.signature``, and tags built by hand.
    """

    __slots__ = ()

    @property
    def tag(self) -> bytes:
        return self


def tx_signing_bytes(provider_id: int, seq: int, timestamp: int) -> bytes:
    """Bytes the provider signs: identity triple only (oracle bit excluded)."""
    return _TX_SIGNING.pack(8, provider_id, 8, seq, 8, timestamp)


@dataclass(frozen=True, slots=True, init=False)
class Transaction:
    """Provider-signed payload; (provider_id, seq, timestamp) is its identity.

    Resubmitting an unchecked transaction reuses the identical value, so the
    identity triple is stable across retries. The provider's tag is kept only
    as the tail of ``wire_bytes``, so equality compares those bytes: two
    transactions are equal iff their triples, validity bits and tags are.
    """

    provider_id: int
    seq: int
    timestamp: int
    ground_truth_valid: bool
    txid: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    wire_bytes: bytes = field(init=False, repr=False)

    def __init__(self, provider_id: int, seq: int, timestamp: int,
                 ground_truth_valid: bool, signature: bytes) -> None:
        _store_tx(self, provider_id, seq, timestamp, ground_truth_valid, signature,
                  tx_signing_bytes(provider_id, seq, timestamp))

    @classmethod
    def signed(cls, provider_id: int, seq: int, timestamp: int, valid: bool,
               sign: Callable[[bytes], bytes]) -> "Transaction":
        """The transaction ``sign`` signs: its triple encoded once, signed, stored."""
        body = tx_signing_bytes(provider_id, seq, timestamp)
        self = cls.__new__(cls)
        _store_tx(self, provider_id, seq, timestamp, valid, sign(body), body)
        return self

    @property
    def signature(self) -> SimSignature:
        """The provider's tag, copied out of the tail of ``wire_bytes`` on each read."""
        return SimSignature(self.wire_bytes[TX_TAG_OFFSET:])


_TX_SLOTS = slot_setters(Transaction)


def _store_tx(tx: Transaction, provider_id: int, seq: int, timestamp: int,
              ground_truth_valid: bool, signature: bytes, body: bytes) -> None:
    s_provider, s_seq, s_time, s_valid, s_txid, s_wire = _TX_SLOTS
    s_provider(tx, provider_id)
    s_seq(tx, seq)
    s_time(tx, timestamp)
    s_valid(tx, ground_truth_valid)
    s_txid(tx, (provider_id, seq, timestamp))
    s_wire(tx, body + _U64.pack(len(signature)) + signature)


def tx_wire_bytes(tx: Transaction) -> bytes:
    """Canonical wire form: signed triple plus the provider signature tag."""
    return tx.wire_bytes


Label = tuple[Transaction, int]  # a collector's label on a transaction: +1 or -1


def label_signing_bytes(tx: Transaction, label: int) -> bytes:
    """A label's body, as ``upload_bytes`` packs it: the wire transaction, its label (+1 or -1)."""
    label_field = _LABEL_FIELDS.get(label)
    if label_field is None:
        raise ValueError(f"label must be +1 or -1, got {label}")
    return _U64.pack(len(tx.wire_bytes)) + tx.wire_bytes + label_field


def upload_bytes(collector_id: int, round_no: int, labels: Sequence[Label]) -> bytes:
    """Bytes a collector signs once a round: its id, the round, its labels' bodies in order."""
    pack = _LABEL_HEAD.pack
    parts: list[bytes] = []
    put = parts.append
    for tx, label in labels:
        label_field = _LABEL_FIELDS.get(label)
        if label_field is None:
            raise ValueError(f"label must be +1 or -1, got {label}")
        wire = tx.wire_bytes
        put(pack(len(wire) + 24, len(wire)))
        put(wire)
        put(label_field)
    items = b"".join(parts)
    return _UPLOAD_HEAD.pack(8, collector_id, 8, round_no, 8 + len(items), len(labels)) + items


@dataclass(frozen=True, slots=True)
class Upload:
    """A collector's round upload, as the collector->governor hop carries it.

    ``labels`` are the collector's ``(tx, label)`` pairs in upload order, sent in
    ``round_no``. ``__post_init__`` encodes ``signing_bytes`` (``upload_bytes``) from
    the fields, so a governor checks the signature against bytes no sender chose.
    """

    collector_id: int
    round_no: int
    labels: tuple[Label, ...]
    signature: bytes
    signing_bytes: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "signing_bytes",
                           upload_bytes(self.collector_id, self.round_no, self.labels))


def sign_record(cls, sign: Callable[[bytes], bytes], *values):
    """``cls(*values, signature)``, its ``signature`` what ``sign`` makes of its
    ``signing_bytes``: built with an empty one, so ``__post_init__`` encodes
    the bytes once, then signed in place."""
    record = cls(*values, b"")
    object.__setattr__(record, "signature", sign(record.signing_bytes))
    return record


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
    """One round's broadcast lists: screened invalid, and left unchecked.

    The constructor derives ``mt_root``, the lists' commitment
    (``lists_commitment_root``), from the two lists, as does
    ``dataclasses.replace``; the leader's block carries the same bytes object,
    and a governor compares the two without recomputing either.
    """

    invalid_list: tuple[Transaction, ...]
    unchecked_list: tuple[Transaction, ...]
    mt_root: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mt_root",
                           lists_commitment_root(self.invalid_list, self.unchecked_list))


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
