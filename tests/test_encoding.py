"""The packed canonical encoders against the written specification.

``core_types.enc_int``/``enc_field``/``enc_list`` state the serialization
rule; the encoders the program runs pack precompiled ``struct`` layouts.
Each packed encoder must produce the bytes the rule produces, on the frozen
vectors and on random inputs, and must refuse what the rule refuses.
"""

import dataclasses
import random
import struct

import pytest

from repuchain import consensus, core_types, nodes
from repuchain.core_types import (
    TX_SIGNING_SIZE,
    Block,
    SimSignature,
    Transaction,
    block_bytes,
    enc_field,
    enc_int,
    enc_list,
    hash_block,
    label_signing_bytes,
    make_genesis,
    sha256,
    sign_record,
    tx_signing_bytes,
    tx_wire_bytes,
    upload_bytes,
)
from repuchain.crypto_sim import keypair_from_secret, sign
from repuchain.nodes import Verdict, VerificationMessage, verification_message_bytes

U64_MAX = (1 << 64) - 1
EDGE_IDS = (0, 1, 1 << 63, U64_MAX)


# -- the specification, composed from enc_* as the rule states it ----------------


def spec_tx_signing(provider_id, seq, timestamp):
    return enc_field(enc_int(provider_id)) + enc_field(enc_int(seq)) + enc_field(enc_int(timestamp))


def spec_tx_wire(tx):
    return spec_tx_signing(tx.provider_id, tx.seq, tx.timestamp) + enc_field(tx.signature.tag)


def spec_label(tx, label):
    return enc_field(spec_tx_wire(tx)) + enc_field(enc_int(1 if label == 1 else 0))


def spec_upload(collector_id, round_no, bodies):
    return enc_field(enc_int(collector_id)) + enc_field(enc_int(round_no)) + enc_field(enc_list(bodies))


def spec_verification_message(leader_id, provider_id, txid, validbit, received, cnt):
    """One verdict's body, as its round's message lists it."""
    return (
        enc_field(enc_int(leader_id))
        + enc_field(enc_int(provider_id))
        + enc_field(enc_int(txid[0]) + enc_int(txid[1]) + enc_int(txid[2]))
        + enc_field(enc_int(1 if validbit else 0))
        + enc_field(enc_list([enc_int(c) + enc_int(1 if lab == 1 else 0) for c, lab in received]))
        + enc_field(enc_int(cnt))
    )


def verdict_args(v):
    """A ``Verdict``'s fields as ``spec_verification_message`` takes them, after the leader id."""
    return v.provider_id, v.txid, v.validbit, v.received, v.cnt


def spec_round_message(leader_id, round_no, verdicts):
    """A leader's round message over ``verdicts``, each a ``spec_verification_message``
    argument tuple without the leader id."""
    bodies = [spec_verification_message(leader_id, *v) for v in verdicts]
    return (enc_field(enc_int(leader_id)) + enc_field(enc_int(round_no))
            + enc_field(enc_list(bodies)))


def spec_block(block):
    return (
        enc_field(enc_int(block.serial))
        + enc_field(enc_int(block.leader_id))
        + enc_field(enc_list([spec_tx_wire(t) for t in block.tx_list]))
        + enc_field(block.mt_root)
        + enc_field(block.prev_hash)
    )


# -- random inputs ------------------------------------------------------------------


def rand_id(rng):
    return rng.choice(EDGE_IDS) if rng.random() < 0.3 else rng.randrange(1 << 64)


def rand_tx(rng):
    tag = rng.randbytes(rng.choice((0, 1, 32, 32, 32, 77)))
    return Transaction(rand_id(rng), rand_id(rng), rand_id(rng), rng.random() < 0.5, SimSignature(tag))


# -- frozen vectors (computed with the enc_* composition) -----------------------------


def _vector_verdict(v):
    return Verdict(v["provider_id"], tuple(v["txid"]), v["validbit"],
                   tuple(map(tuple, v["received"])), v["cnt"])


def test_verification_message_vector(crypto_vectors):
    # One verdict's body: a one-verdict round message lists it after its 48-byte
    # head and 8-byte length, whatever the round.
    v = crypto_vectors["verification_message"]
    kp = keypair_from_secret(0, bytes.fromhex(v["secret"]))
    verdict = _vector_verdict(v)
    body = bytes.fromhex(v["bytes"])
    assert spec_verification_message(v["leader_id"], *verdict_args(verdict)) == body
    for round_no in (0, 7):
        msg = VerificationMessage(v["leader_id"], round_no, (verdict,), SimSignature(b""))
        assert msg.signing_bytes[56:] == body
        assert msg.signing_bytes[48:56] == len(body).to_bytes(8, "big")
    assert sign(kp, body).hex() == v["signature"]


def test_round_message_vector(crypto_vectors):
    v = crypto_vectors["round_message"]
    kp = keypair_from_secret(0, bytes.fromhex(v["secret"]))
    verdicts = tuple(_vector_verdict(d) for d in v["verdicts"])
    body = verification_message_bytes(v["leader_id"], v["round_no"], verdicts)
    assert body.hex() == v["bytes"]
    assert spec_round_message(v["leader_id"], v["round_no"],
                              [verdict_args(d) for d in verdicts]) == body
    msg = sign_record(VerificationMessage, lambda body: sign(kp, body),
                      v["leader_id"], v["round_no"], verdicts)
    assert msg.signing_bytes == body
    assert msg.signature.hex() == v["signature"]
    assert msg == VerificationMessage(v["leader_id"], v["round_no"], verdicts, msg.signature)


def test_upload_vector(crypto_vectors):
    v = crypto_vectors["upload"]
    kp = keypair_from_secret(0, bytes.fromhex(v["secret"]))
    labels = [
        (Transaction(*ident, True, sign(kp, tx_signing_bytes(*ident))), label)
        for ident, label in zip(v["transactions"], v["labels"])
    ]
    bodies = [label_signing_bytes(tx, label) for tx, label in labels]
    body = upload_bytes(v["collector_id"], v["round"], labels)
    assert body.hex() == v["bytes"]
    assert spec_upload(v["collector_id"], v["round"], bodies) == body
    assert sign(kp, body).hex() == v["signature"]
    collector = nodes.CollectorNode(v["collector_id"], kp, nodes.StrategySpec("Honest"),
                                    None, None)
    upload = collector.sign_upload(v["round"], labels)
    assert upload.signing_bytes == body
    assert upload.signature.hex() == v["signature"]


def test_block_vector(crypto_vectors):
    v = crypto_vectors["block"]
    kp = keypair_from_secret(0, bytes.fromhex(v["secret"]))
    txs = tuple(
        Transaction(*ident, True, sign(kp, tx_signing_bytes(*ident))) for ident in v["transactions"]
    )
    block = Block(v["serial"], v["leader_id"], txs,
                  bytes.fromhex(v["mt_root"]), bytes.fromhex(v["prev_hash"]))
    assert block.prev_hash == hash_block(make_genesis())
    assert block_bytes(block).hex() == v["bytes"]
    assert spec_block(block) == block_bytes(block)
    assert hash_block(block).hex() == v["digest"]


def test_block_carries_its_hash(crypto_vectors):
    v = crypto_vectors["block"]
    kp = keypair_from_secret(0, bytes.fromhex(v["secret"]))
    txs = tuple(
        Transaction(*ident, True, sign(kp, tx_signing_bytes(*ident))) for ident in v["transactions"]
    )
    block = Block(v["serial"], v["leader_id"], txs,
                  bytes.fromhex(v["mt_root"]), bytes.fromhex(v["prev_hash"]))
    genesis = make_genesis()
    assert genesis.hash == hash_block(genesis) == bytes.fromhex(crypto_vectors["genesis"]["digest"])
    assert block.hash == hash_block(block) == bytes.fromhex(v["digest"])
    moved = dataclasses.replace(block, serial=block.serial + 1)
    assert moved.hash == hash_block(moved) != block.hash


# -- packed layouts against the specification on random inputs -------------------------


def test_transaction_layouts_match_specification():
    rng = random.Random(20)
    for _ in range(300):
        tx = rand_tx(rng)
        ident = (tx.provider_id, tx.seq, tx.timestamp)
        assert tx_signing_bytes(*ident) == spec_tx_signing(*ident) == \
            tx.wire_bytes[:TX_SIGNING_SIZE]
        assert tx_wire_bytes(tx) == spec_tx_wire(tx) == tx.wire_bytes
        for label in (1, -1):
            # A one-label upload lists the body after its 48-byte head and 8-byte length.
            assert label_signing_bytes(tx, label) == spec_label(tx, label) == \
                upload_bytes(0, 0, [(tx, label)])[56:]


@pytest.mark.parametrize("u", range(9))
def test_verification_message_layout_matches_specification(u):
    # Round messages of 0 to 5 random verdicts, each with up to u received labels.
    rng = random.Random(30 + u)
    for _ in range(40):
        verdicts = []
        for _ in range(rng.randrange(6)):
            received = tuple(sorted(
                (rand_id(rng), rng.choice((1, -1))) for _ in range(rng.randrange(u + 1))
            ))
            verdicts.append(Verdict(rand_id(rng), (rand_id(rng), rand_id(rng), rand_id(rng)),
                                    rng.random() < 0.5, received, rand_id(rng)))
        leader_id, round_no = rand_id(rng), rand_id(rng)
        spec = spec_round_message(leader_id, round_no, [verdict_args(v) for v in verdicts])
        assert verification_message_bytes(leader_id, round_no, verdicts) == spec
        assert VerificationMessage(leader_id, round_no, verdicts,
                                   SimSignature(b"")).signing_bytes == spec


@pytest.mark.parametrize("n_labels", [0, 1, 2, 300])
def test_upload_layout_matches_specification(n_labels):
    # The one-pass encoder over (tx, label) pairs against the specification over
    # the pairs' label_signing_bytes bodies: random transactions with tags of
    # several lengths, both label values, and a Forger's forged transactions.
    rng = random.Random(50 + n_labels)
    forger = nodes.CollectorNode(3, None, nodes.StrategySpec("Forger", forge_rate=n_labels),
                                 None, random.Random(n_labels))
    seen = set()
    for _ in range(5):
        for labels in ([(rand_tx(rng), rng.choice((1, -1))) for _ in range(n_labels)],
                       forger.forge(rand_id(rng), 1 + rng.randrange(50))):
            assert len(labels) == n_labels
            bodies = [label_signing_bytes(tx, label) for tx, label in labels]
            assert bodies == [spec_label(tx, label) for tx, label in labels]
            seen.update(label for _, label in labels)
            for collector_id, round_no in ((rand_id(rng), rand_id(rng)), (U64_MAX, U64_MAX)):
                assert upload_bytes(collector_id, round_no, labels) == \
                    spec_upload(collector_id, round_no, bodies)
    assert seen == ({1, -1} if n_labels else set())


@pytest.mark.parametrize("n_txs", [0, 1, 2, 400])
def test_block_layout_matches_specification(n_txs):
    rng = random.Random(40 + n_txs)
    for _ in range(5):
        txs = tuple(rand_tx(rng) for _ in range(n_txs))
        root, prev = (rng.randbytes(rng.choice((0, 32, 32, 40))) for _ in range(2))
        block = Block(rand_id(rng), rand_id(rng), txs, root, prev)
        assert block_bytes(block) == spec_block(block)
        assert hash_block(block) == sha256(spec_block(block))


# -- out-of-range integers raise in both forms ----------------------------------------


@pytest.mark.parametrize("bad", [-1, 1 << 64])
def test_out_of_range_integers_raise(bad):
    with pytest.raises(OverflowError):
        enc_int(bad)
    for pos in range(3):
        ident = [1, 2, 3]
        ident[pos] = bad
        with pytest.raises(struct.error):
            tx_signing_bytes(*ident)
        with pytest.raises(struct.error):
            Transaction(*ident, True, SimSignature(b""))
    for pos in (0, 4):
        args = [2, (3, 4, 5), True, ((6, 1),), 7]
        args[pos] = bad
        with pytest.raises(struct.error):
            verification_message_bytes(1, 8, [Verdict(*args)])
    for verdict in (Verdict(2, (3, bad, 5), True, (), 7),
                    Verdict(2, (3, 4, 5), True, ((bad, 1),), 7)):
        with pytest.raises(struct.error):
            verification_message_bytes(1, 8, [verdict])
    for leader_id, round_no in ((bad, 8), (1, bad)):
        with pytest.raises(struct.error):
            verification_message_bytes(leader_id, round_no, [])
    for serial, leader in ((bad, 0), (0, bad)):
        with pytest.raises(struct.error):
            block_bytes(Block(serial, leader, (), core_types.ZERO_DIGEST, core_types.ZERO_DIGEST))
        with pytest.raises(struct.error):
            upload_bytes(serial, leader, [(Transaction(1, 2, 3, True, SimSignature(b"")), 1)])


# -- the benchmark's tracer wraps the encoders by name ------------------------------------


def test_objects_call_the_encoders_through_their_module_globals(monkeypatch):
    # The tracer counts core_types.encode_calls and times core_types.merkle_s by
    # rebinding these names in each module that binds them; an object that bound
    # an encoder early would bypass it and read 0.
    calls = {}
    targets = [(core_types, "tx_signing_bytes"), (core_types, "upload_bytes"),
               (core_types, "block_bytes"), (core_types, "hash_block"),
               (core_types, "lists_commitment_root"), (consensus, "block_bytes"),
               (nodes, "verification_message_bytes")]
    for module, name in targets:
        key = f"{module.__name__}.{name}"

        def counting(*args, _original=getattr(module, name), _key=key):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    tx = Transaction(1, 2, 3, True, SimSignature(b"\x07" * 32))
    core_types.Upload(0, 1, [(tx, 1)], SimSignature(b""))
    block = Block(1, 0, (tx,), core_types.ZERO_DIGEST, core_types.ZERO_DIGEST)
    assert len(block.hash) == core_types.DIGEST_SIZE
    VerificationMessage(0, 1, (Verdict(1, tx.txid, True, ((4, 1),), 1),), SimSignature(b""))
    lists = core_types.RoundLists((tx,), ())
    assert len(lists.mt_root) == core_types.DIGEST_SIZE
    consensus.SignedBlock(block, SimSignature(b""))
    assert calls == {f"{module.__name__}.{name}": 1 for module, name in targets}
    Transaction.signed(1, 3, 3, True, lambda body: SimSignature(b""))
    assert calls["repuchain.core_types.tx_signing_bytes"] == 2
    sign_record(consensus.SignedBlock, lambda body: SimSignature(b""), block)
    assert calls["repuchain.consensus.block_bytes"] == 2
    sign_record(core_types.Upload, lambda body: SimSignature(b""), 0, 1, [(tx, 1)])
    assert calls["repuchain.core_types.upload_bytes"] == 2
    sign_record(VerificationMessage, lambda body: SimSignature(b""), 0, 1, ())
    assert calls["repuchain.nodes.verification_message_bytes"] == 2
