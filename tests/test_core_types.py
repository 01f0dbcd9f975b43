import dataclasses
import hashlib
import importlib
import pkgutil
import random

import pytest

import repuchain
from repuchain.core_types import (
    ZERO_DIGEST,
    Block,
    LabeledTransaction,
    Transaction,
    SimSignature,
    block_bytes,
    hash_block,
    label_signing_bytes,
    lists_commitment_root,
    make_genesis,
    merkle_root,
    sha256,
    tx_signing_bytes,
    tx_wire_bytes,
)
from repuchain.crypto_sim import keypair_from_secret, sign
from repuchain.nodes import VerificationMessage, verification_message_bytes


def ref_merkle(items):
    # Independent recursive reference: leaf hashes, pair left to right,
    # promote an odd tail node unchanged.
    if not items:
        return ZERO_DIGEST

    def reduce(level):
        if len(level) == 1:
            return level[0]
        nxt = [
            hashlib.sha256(level[i] + level[i + 1]).digest()
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        return reduce(nxt)

    return reduce([hashlib.sha256(x).digest() for x in items])


def make_tx(provider=0, seq=1, ts=1, valid=True, tag=b"\x07" * 32):
    return Transaction(provider, seq, ts, valid, SimSignature(tag))


def test_merkle_empty_list_is_zero_digest():
    assert merkle_root([]) == ZERO_DIGEST


def test_merkle_single_item_root_is_leaf_hash():
    x = b"single item"
    assert merkle_root([x]) == hashlib.sha256(x).digest()


def test_merkle_three_items_odd_promotion():
    a, b, c = b"aa", b"bb", b"cc"
    h = lambda d: hashlib.sha256(d).digest()
    expected = h(h(h(a) + h(b)) + h(c))
    assert merkle_root([a, b, c]) == expected
    assert merkle_root([a, b, c]) == ref_merkle([a, b, c])


def test_merkle_matches_reference_on_random_lists():
    rng = random.Random(7)
    for _ in range(200):
        items = [rng.randbytes(rng.randrange(1, 40)) for _ in range(rng.randrange(0, 17))]
        assert merkle_root(items) == ref_merkle(items)


def test_merkle_mutation_always_changes_root():
    rng = random.Random(11)
    collisions = 0
    trials = 10_000
    for _ in range(trials):
        items = [rng.randbytes(16) for _ in range(rng.randrange(1, 9))]
        root = merkle_root(items)
        i = rng.randrange(len(items))
        mutated = bytearray(items[i])
        mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        items[i] = bytes(mutated)
        if merkle_root(items) == root:
            collisions += 1
    assert collisions == 0


def test_hash_block_deterministic():
    b = make_genesis()
    assert hash_block(b) == hash_block(b)


def test_hash_block_sensitive_to_serial():
    g = make_genesis()
    bumped = Block(g.serial + 1, g.leader_id, g.tx_list, g.mt_root, g.prev_hash)
    assert hash_block(bumped) != hash_block(g)
    # direct recomputation over the canonical bytes
    assert hash_block(g) == sha256(block_bytes(g))


def test_genesis_digest_frozen(crypto_vectors):
    g = make_genesis()
    assert block_bytes(g).hex() == crypto_vectors["genesis"]["bytes"]
    assert hash_block(g).hex() == crypto_vectors["genesis"]["digest"]


def test_hash_block_every_field_matters():
    tx = make_tx()
    base = Block(3, 1, (tx,), b"\x01" * 32, b"\x02" * 32)
    variants = [
        Block(4, 1, (tx,), base.mt_root, base.prev_hash),
        Block(3, 2, (tx,), base.mt_root, base.prev_hash),
        Block(3, 1, (), base.mt_root, base.prev_hash),
        Block(3, 1, (tx,), b"\x03" * 32, base.prev_hash),
        Block(3, 1, (tx,), base.mt_root, b"\x04" * 32),
    ]
    digests = {hash_block(v) for v in variants}
    digests.add(hash_block(base))
    assert len(digests) == len(variants) + 1


def test_tx_wire_bytes_excludes_oracle_bit():
    a = make_tx(valid=True)
    b = make_tx(valid=False)
    assert tx_wire_bytes(a) == tx_wire_bytes(b)
    assert a.txid == b.txid


def test_tx_signing_bytes_distinct_per_identity():
    seen = {
        tx_signing_bytes(p, s, t)
        for p in range(3) for s in range(3) for t in range(3)
    }
    assert len(seen) == 27


def test_label_must_be_plus_or_minus_one():
    tx = make_tx()
    with pytest.raises(ValueError):
        LabeledTransaction(tx=tx, label=0)


def test_commitment_separates_lists_by_domain_tag():
    t1, t2 = make_tx(seq=1), make_tx(seq=2)
    root_a = lists_commitment_root([t1], [t2])
    root_b = lists_commitment_root([t2], [t1])
    root_c = lists_commitment_root([t1, t2], [])
    assert len({root_a, root_b, root_c}) == 3


def test_commitment_empty_lists_is_zero():
    assert lists_commitment_root([], []) == ZERO_DIGEST


# -- bytes carried by signed objects ---------------------------------------------


def test_carried_bytes_match_encoders_and_vectors(crypto_vectors):
    v = crypto_vectors["transaction"]
    kp = keypair_from_secret(0, bytes.fromhex(v["secret"]))
    ident = (v["provider_id"], v["seq"], v["timestamp"])
    tx = Transaction(*ident, True, sign(kp, tx_signing_bytes(*ident)))
    assert tx.signature.tag.hex() == v["signature"]
    assert tx.signing_bytes == tx_signing_bytes(*ident)
    assert tx.signing_bytes.hex() == v["signing_bytes"]
    assert tx_wire_bytes(tx) == tx.wire_bytes
    assert tx.wire_bytes.hex() == v["wire_bytes"]
    for label, key in ((1, "label_plus_bytes"), (-1, "label_minus_bytes")):
        ltx = LabeledTransaction(tx=tx, label=label)
        assert ltx.body == label_signing_bytes(tx, label)
        assert ltx.body.hex() == v[key]


def test_equal_transactions_compare_and_hash_equal():
    a, b = make_tx(seq=4), make_tx(seq=4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, make_tx(seq=5)}) == 2
    assert "wire_bytes" not in repr(a)


def test_replace_rebuilds_carried_bytes():
    tx = Transaction(2, 8, 3, True, SimSignature(b"\x07" * 32))
    nxt = dataclasses.replace(tx, seq=tx.seq + 1)
    assert nxt.txid == (2, 9, 3) != tx.txid == (2, 8, 3)
    assert nxt.signing_bytes == tx_signing_bytes(2, 9, 3) != tx.signing_bytes
    assert nxt.wire_bytes == tx_signing_bytes(2, 9, 3) + tx.wire_bytes[len(tx.signing_bytes):]
    sig = SimSignature(b"\x05" * 32)
    ltx = LabeledTransaction(tx, 1)
    flipped = dataclasses.replace(ltx, label=-1)
    assert flipped.body == label_signing_bytes(tx, -1) != ltx.body
    moved = dataclasses.replace(ltx, tx=nxt)
    assert moved.body == label_signing_bytes(nxt, 1)
    fields = (0, 2, tx.txid, True, ((4, 1),), 3)
    msg = VerificationMessage(*fields, sig)
    later = dataclasses.replace(msg, cnt=4)
    assert later.signing_bytes == verification_message_bytes(*fields[:-1], 4) != msg.signing_bytes


def _signer_and_public_records():
    """(signer's, public) pairs: each verdict built by ``signed`` and by its constructor."""
    tx = make_tx(provider=1, seq=6, ts=2)
    kp = keypair_from_secret(4, b"\x09" * 32)
    pairs = []
    for received in ((), ((0, 1),), ((0, -1), (2, 1), (5, -1))):
        fields = (4, 1, tx.txid, bool(received), received, 7)
        pairs.append((VerificationMessage.signed(*fields, kp),
                      VerificationMessage(*fields, sign(kp, verification_message_bytes(*fields)))))
    return pairs


def test_records_built_from_carried_bytes_equal_the_public_ones():
    for carried, public in _signer_and_public_records():
        assert type(carried) is type(public)
        assert carried == public and hash(carried) == hash(public)
        assert repr(carried) == repr(public)
        assert "signing_bytes" not in repr(carried)
        for name in ("signing_bytes", "wire_bytes", "txid"):
            assert getattr(carried, name, None) == getattr(public, name, None)


def test_labels_compare_without_their_body():
    tx = make_tx(provider=1, seq=6, ts=2)
    a, b = LabeledTransaction(tx, -1), LabeledTransaction(tx, -1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.body == b.body == label_signing_bytes(tx, -1)
    assert "body" not in repr(a)
    assert a != LabeledTransaction(tx, 1) and a != LabeledTransaction(make_tx(seq=7), -1)


def test_records_refuse_assignment_on_every_path():
    tx = make_tx()
    records = [r for pair in _signer_and_public_records() for r in pair] + [tx] + [
        LabeledTransaction(tx, label) for label in (1, -1)]
    for record in records:
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))


@pytest.mark.parametrize("label", [0, 2, -2, None])
def test_label_outside_plus_minus_one_is_refused_on_every_path(label):
    tx = make_tx()
    with pytest.raises(ValueError, match="label must be"):
        LabeledTransaction(tx, label)
    ltx = LabeledTransaction(tx, 1)
    with pytest.raises(ValueError, match="label must be"):
        dataclasses.replace(ltx, label=label)


def test_no_module_level_caches():
    # Bytes are carried by the objects; a module-level memo would let a
    # verifier reuse the signer's result instead of checking for itself.
    for info in pkgutil.iter_modules(repuchain.__path__):
        module = importlib.import_module(f"repuchain.{info.name}")
        cached = [name for name, value in vars(module).items() if hasattr(value, "cache_clear")]
        assert not cached, f"repuchain.{info.name} caches {cached}"
