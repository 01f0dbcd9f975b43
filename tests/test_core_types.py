import dataclasses
import gc
import hashlib
import importlib
import pkgutil
import random
import sys
import tracemalloc

import pytest

import repuchain
from repuchain.consensus import SignedBlock
from repuchain.core_types import (
    TX_SIGNING_SIZE,
    ZERO_DIGEST,
    Block,
    Transaction,
    SimSignature,
    Upload,
    block_bytes,
    hash_block,
    label_signing_bytes,
    lists_commitment_root,
    make_genesis,
    merkle_root,
    sha256,
    sign_record,
    tx_signing_bytes,
    tx_wire_bytes,
    upload_bytes,
)
from repuchain.crypto_sim import keypair_from_secret, sign
from repuchain.nodes import Verdict, VerificationMessage, verification_message_bytes


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
        Upload(0, 1, [(tx, 0)], SimSignature(b""))


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
    assert tx.wire_bytes[:TX_SIGNING_SIZE] == tx_signing_bytes(*ident)
    assert tx_signing_bytes(*tx.txid).hex() == v["signing_bytes"]
    assert tx_wire_bytes(tx) == tx.wire_bytes
    assert tx.wire_bytes.hex() == v["wire_bytes"]
    for label, key in ((1, "label_plus_bytes"), (-1, "label_minus_bytes")):
        # A one-label upload lists the label's body after its 48-byte head and
        # the body's 8-byte length.
        upload = Upload(0, 1, [(tx, label)], SimSignature(b""))
        assert upload.signing_bytes[56:] == label_signing_bytes(tx, label)
        assert upload.signing_bytes[56:].hex() == v[key]


def test_transaction_holds_its_signed_triple_once(crypto_vectors):
    # The signed triple is the prefix of the wire bytes; no second copy is kept.
    v = crypto_vectors["transaction"]
    kp = keypair_from_secret(0, bytes.fromhex(v["secret"]))
    ident = (v["provider_id"], v["seq"], v["timestamp"])
    tx = Transaction(*ident, True, sign(kp, tx_signing_bytes(*ident)))
    assert "signing_bytes" not in Transaction.__slots__
    assert not hasattr(tx, "signing_bytes")
    assert TX_SIGNING_SIZE == len(tx_signing_bytes(*ident))
    assert tx.wire_bytes[:TX_SIGNING_SIZE].hex() == v["signing_bytes"]
    sig, valid = tx.signature, tx.ground_truth_valid
    for nxt in (tx, Transaction(tx.provider_id, tx.seq + 1, tx.timestamp, valid, sig),
                Transaction(tx.provider_id + 3, tx.seq, 9, valid, sig)):
        assert nxt.wire_bytes[:TX_SIGNING_SIZE] == tx_signing_bytes(*nxt.txid)
        assert nxt.wire_bytes[TX_SIGNING_SIZE:] == tx.wire_bytes[TX_SIGNING_SIZE:]


def test_minted_transaction_keeps_its_tag_only_in_its_wire_bytes(crypto_vectors):
    v = crypto_vectors["transaction"]
    kp = keypair_from_secret(0, bytes.fromhex(v["secret"]))
    tx = Transaction.signed(v["provider_id"], v["seq"], v["timestamp"], True,
                            lambda body: sign(kp, body))
    assert "signature" not in Transaction.__slots__
    assert tx.signature.tag == tx.wire_bytes[TX_SIGNING_SIZE + 8:]
    assert tx.signature.tag.hex() == v["signature"]
    assert tx.wire_bytes.hex() == v["wire_bytes"]
    # A signature is its tag's bytes: no record of its own for the cyclic GC to track.
    assert not gc.is_tracked(sign(kp, b"m"))


def _pymalloc_block(size):
    """``size`` rounded up to pymalloc's 16-byte size classes."""
    return -(-size // 16) * 16


def test_minting_retains_only_the_record_its_txid_wire_bytes_and_seq():
    # Each minted transaction may keep alive its record, its txid tuple, its wire
    # bytes and its seq int (past the small-int cache; the other fields here are
    # shared small ints and a bool). A signature kept beside the wire bytes, or
    # any other per-transaction object, exceeds the bound.
    kp = keypair_from_secret(0, b"\x03" * 32)
    n = 10_000
    txs = [None] * n
    signer = lambda body: sign(kp, body)  # noqa: E731
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            txs[i] = Transaction.signed(1, 1_000 + i, 2, True, signer)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    bound = sum(_pymalloc_block(sys.getsizeof(part))
                for tx in txs for part in (tx, tx.txid, tx.wire_bytes, tx.seq))
    assert 0 < retained <= bound


@pytest.mark.parametrize("length", [0, 31, 32])
def test_any_tag_length_round_trips_through_the_signature(length):
    tag = bytes(range(length))
    tx = make_tx(tag=tag)
    assert tx.signature == SimSignature(tag) == tag
    assert type(tx.signature) is SimSignature and tx.signature.tag == tag
    assert tx.wire_bytes == tx_signing_bytes(*tx.txid) + length.to_bytes(8, "big") + tag


def test_transactions_differing_only_in_their_tag_are_unequal():
    a, b = make_tx(seq=4, tag=b"\x07" * 32), make_tx(seq=4, tag=b"\x07" * 31 + b"\x08")
    assert a.txid == b.txid and a.ground_truth_valid == b.ground_truth_valid
    assert a != b
    assert make_tx(seq=4, tag=b"\x07" * 31) != a
    same = make_tx(seq=4, tag=b"\x07" * 32)
    assert same == a and hash(same) == hash(a)
    assert make_tx(seq=4, valid=False) != a


def test_equal_transactions_compare_and_hash_equal():
    a, b = make_tx(seq=4), make_tx(seq=4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, make_tx(seq=5)}) == 2
    assert "wire_bytes" not in repr(a)


def test_replace_rebuilds_carried_bytes():
    tx = Transaction(2, 8, 3, True, SimSignature(b"\x07" * 32))
    # The tag is no field of its own, so ``replace`` cannot pass it on: it
    # raises rather than build a transaction without one.
    with pytest.raises(TypeError, match="signature"):
        dataclasses.replace(tx, seq=tx.seq + 1)
    nxt = Transaction(tx.provider_id, tx.seq + 1, tx.timestamp, True, tx.signature)
    assert nxt.txid == (2, 9, 3) != tx.txid == (2, 8, 3)
    assert nxt.wire_bytes[:TX_SIGNING_SIZE] == tx_signing_bytes(2, 9, 3) \
        != tx_signing_bytes(*tx.txid)
    assert nxt.wire_bytes == tx_signing_bytes(2, 9, 3) + tx.wire_bytes[TX_SIGNING_SIZE:]
    sig = SimSignature(b"\x05" * 32)
    upload = Upload(0, 1, [(tx, 1)], sig)
    flipped = dataclasses.replace(upload, labels=((tx, -1),))
    assert flipped.signing_bytes == upload_bytes(0, 1, [(tx, -1)]) != upload.signing_bytes
    assert flipped.signing_bytes[56:] == label_signing_bytes(tx, -1)
    moved = dataclasses.replace(upload, labels=((nxt, 1),))
    assert moved.signing_bytes[56:] == label_signing_bytes(nxt, 1)
    verdict = Verdict(2, tx.txid, True, ((4, 1),), 3)
    msg = VerificationMessage(0, 5, (verdict,), sig)
    later = dataclasses.replace(msg, verdicts=(dataclasses.replace(verdict, cnt=4),))
    assert later.verdicts[0].plus == verdict.plus == {4}
    assert later.signing_bytes == verification_message_bytes(0, 5, later.verdicts) \
        != msg.signing_bytes
    moved = dataclasses.replace(msg, round_no=6)
    assert moved.signing_bytes == verification_message_bytes(0, 6, (verdict,)) != msg.signing_bytes


def _signer_and_public_records():
    """(signer's, public) pairs: verification messages, uploads and a signed block,
    each built by ``sign_record`` and by its constructor."""
    tx = make_tx(provider=1, seq=6, ts=2)
    kp = keypair_from_secret(4, b"\x09" * 32)
    signer = lambda body: sign(kp, body)  # noqa: E731
    verdicts = [Verdict(1, tx.txid, bool(received), received, 7)
                for received in ((), ((0, 1),), ((0, -1), (2, 1), (5, -1)))]
    labels = [(tx, 1), (make_tx(seq=7), -1)]
    block = Block(3, 4, (tx,), ZERO_DIGEST, ZERO_DIGEST)
    cases = [(VerificationMessage, (4, 3, chosen), verification_message_bytes(4, 3, chosen))
             for chosen in (verdicts[:1], verdicts[1:2], verdicts)]
    cases += [(Upload, (0, 1, chosen), upload_bytes(0, 1, chosen))
              for chosen in (labels[:1], labels)]
    cases.append((SignedBlock, (block,), block_bytes(block)))
    return [(sign_record(cls, signer, *values), cls(*values, sign(kp, body)))
            for cls, values, body in cases]


def test_records_built_from_carried_bytes_equal_the_public_ones():
    pairs = _signer_and_public_records()
    assert {type(carried) for carried, _ in pairs} == {VerificationMessage, Upload, SignedBlock}
    for carried, public in pairs:
        assert type(carried) is type(public)
        assert carried == public and hash(carried) == hash(public)
        assert repr(carried) == repr(public)
        assert "signing_bytes" not in repr(carried)
        for name in ("signing_bytes", "wire_bytes", "txid"):
            assert getattr(carried, name, None) == getattr(public, name, None)


def test_labels_compare_without_their_body():
    # A label is a (tx, label) pair with no bytes of its own; the upload that
    # carries it encodes its body, and compares without those bytes.
    a, b = (make_tx(provider=1, seq=6, ts=2), -1), (make_tx(provider=1, seq=6, ts=2), -1)
    assert a[0] is not b[0] and a == b and hash(a) == hash(b)
    assert label_signing_bytes(*a) == label_signing_bytes(*b)
    assert "wire_bytes" not in repr(a)
    assert a != (a[0], 1) and a != (make_tx(seq=7), -1)
    ua, ub = (Upload(0, 1, [x], SimSignature(b"")) for x in (a, b))
    assert ua == ub and hash(ua) == hash(ub)
    assert ua.signing_bytes == ub.signing_bytes
    assert ua.signing_bytes[56:] == label_signing_bytes(*a)
    assert "signing_bytes" not in repr(ua)


def test_records_refuse_assignment_on_every_path():
    tx = make_tx()
    kp = keypair_from_secret(4, b"\x09" * 32)
    records = [r for pair in _signer_and_public_records() for r in pair] + [tx] + [
        Upload(0, 1, [(tx, label)], SimSignature(b"")) for label in (1, -1)] + [
        sign_record(Upload, lambda body: sign(kp, body), 0, 1, [(tx, label)]) for label in (1, -1)]
    for record in records:
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))


@pytest.mark.parametrize("label", [0, 2, -2, None, "1"])
def test_label_outside_plus_minus_one_is_refused_on_every_path(label):
    tx = make_tx()
    signed = []

    def sign_body(body):
        signed.append(body)
        return SimSignature(b"")

    with pytest.raises(ValueError, match="label must be"):
        label_signing_bytes(tx, label)
    for labels in ([(tx, label)], [(tx, 1), (make_tx(seq=2), label)]):
        with pytest.raises(ValueError, match="label must be"):
            upload_bytes(0, 1, labels)
        with pytest.raises(ValueError, match="label must be"):
            Upload(0, 1, labels, SimSignature(b""))
        with pytest.raises(ValueError, match="label must be"):
            sign_record(Upload, sign_body, 0, 1, labels)
    upload = Upload(0, 1, [(tx, 1)], SimSignature(b""))
    with pytest.raises(ValueError, match="label must be"):
        dataclasses.replace(upload, labels=((tx, label),))
    assert signed == []


def test_no_module_level_caches():
    # Bytes are carried by the objects; a module-level memo would let a
    # verifier reuse the signer's result instead of checking for itself.
    for info in pkgutil.iter_modules(repuchain.__path__):
        module = importlib.import_module(f"repuchain.{info.name}")
        cached = [name for name, value in vars(module).items() if hasattr(value, "cache_clear")]
        assert not cached, f"repuchain.{info.name} caches {cached}"
