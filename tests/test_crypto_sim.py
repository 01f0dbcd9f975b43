import random

from scipy import stats

from repuchain.core_types import SimSignature, Transaction, tx_signing_bytes
from repuchain.crypto_sim import (
    KeyRegistry,
    VrfOutput,
    keypair_from_secret,
    sign,
    substream,
    vrf_eval,
)


def test_sign_deterministic(registry):
    kp = registry.issue(1)
    msg = b"hello"
    assert sign(kp, msg) == sign(kp, msg)


def test_sign_verify_roundtrip(registry):
    kp = registry.issue(1)
    msg = b"payload"
    assert registry.verify(kp.public, msg, sign(kp, msg))


def test_verify_rejects_other_messages(registry):
    kp = registry.issue(1)
    rng = random.Random(3)
    for _ in range(500):
        m1 = rng.randbytes(24)
        m2 = rng.randbytes(24)
        if m1 == m2:
            continue
        assert not registry.verify(kp.public, m2, sign(kp, m1))


def test_verify_rejects_unknown_public(registry):
    stranger = keypair_from_secret(99, b"\x55" * 32)
    assert not registry.verify(stranger.public, b"m", sign(stranger, b"m"))
    assert not registry.verify(None, b"m", sign(stranger, b"m"))  # a node id with no public


def test_verify_takes_a_transactions_signature_property(registry):
    # The shape of an off-path check: the signed triple and ``tx.signature``,
    # a tag rebuilt from the tail of the wire bytes.
    kp = registry.enrol("provider", 0, 7)
    tx = Transaction.signed(0, 5, 3, True, lambda body: sign(kp, body))
    assert registry.verify(kp.public, tx_signing_bytes(*tx.txid), tx.signature)
    assert registry.verify_tx(tx)
    tag = bytearray(tx.signature.tag)
    tag[0] ^= 0x01
    flipped = Transaction(0, 5, 3, True, SimSignature(bytes(tag)))
    assert not registry.verify(kp.public, tx_signing_bytes(*tx.txid), flipped.signature)
    assert not registry.verify_tx(flipped)


def test_verify_accepts_vector_tags_and_rejects_tampering(crypto_vectors):
    registry = KeyRegistry()
    for entry in crypto_vectors["sign"]:
        kp = keypair_from_secret(0, bytes.fromhex(entry["secret"]))
        registry.register(kp)
        msg = bytes.fromhex(entry["msg"])
        tag = SimSignature(bytes.fromhex(entry["tag"]))
        assert sign(kp, msg) == tag
        assert registry.verify(kp.public, msg, tag)
        for i in range(len(msg)):
            flipped = bytearray(msg)
            flipped[i] ^= 0x01
            assert not registry.verify(kp.public, bytes(flipped), tag)


def test_verify_rejects_another_keys_tag(registry):
    a, b = registry.issue(1), registry.issue(2)
    msg = b"same message"
    assert registry.verify(b.public, msg, sign(b, msg))
    assert not registry.verify(a.public, msg, sign(b, msg))
    assert not registry.verify(b.public, msg, sign(a, msg))


def test_verify_keeps_key_state_between_messages(registry):
    # The per-key hash state is shared by every check under that key, so a
    # check that hashed into it instead of a copy would break the next one.
    kp = registry.issue(1)
    m1, m2 = b"first message", b"second, longer message"
    s1, s2 = sign(kp, m1), sign(kp, m2)
    for _ in range(3):
        assert registry.verify(kp.public, m1, s1)
        assert registry.verify(kp.public, m2, s2)
        assert not registry.verify(kp.public, m2, s1)
        assert not registry.verify(kp.public, m1, s2)


def test_sign_keeps_key_state_between_messages(crypto_vectors):
    # The signing twin: a sign that hashed into the key's state instead of a
    # copy would change every later tag under that key.
    entries = crypto_vectors["sign"]
    kps = [keypair_from_secret(0, bytes.fromhex(e["secret"])) for e in entries]
    for _ in range(3):
        for kp, entry in zip(kps, entries):
            sign(kp, b"another message")
            assert sign(kp, bytes.fromhex(entry["msg"])).hex() == entry["tag"]


def test_unforgeability_100k_random_attempts(registry):
    kp = registry.issue(1)
    msg = b"forge me"
    rng = random.Random(1234)
    accepted = 0
    for _ in range(100_000):
        if registry.verify(kp.public, msg, SimSignature(rng.randbytes(32))):
            accepted += 1
    assert accepted == 0


def test_vrf_deterministic_and_verifies(registry):
    kp = registry.issue(2)
    out1 = vrf_eval(kp, b"input")
    out2 = vrf_eval(kp, b"input")
    assert out1 == out2
    assert registry.vrf_verify(kp.public, b"input", out1)


def test_vrf_tamper_detected(registry):
    kp = registry.issue(2)
    rng = random.Random(9)
    for _ in range(1000):
        inp = rng.randbytes(16)
        out = vrf_eval(kp, inp)
        value = bytearray(out.value)
        value[rng.randrange(32)] ^= 1 << rng.randrange(8)
        assert not registry.vrf_verify(kp.public, inp, VrfOutput(bytes(value), out.proof))
        proof = bytearray(out.proof)
        proof[rng.randrange(32)] ^= 1 << rng.randrange(8)
        assert not registry.vrf_verify(kp.public, inp, VrfOutput(out.value, bytes(proof)))


def test_vrf_low_bits_uniform_chi_square(registry):
    # low 32 bits of the VRF value over 10^4 distinct inputs, 64 buckets
    kp = registry.issue(3)
    buckets = [0] * 64
    n = 10_000
    for i in range(n):
        value = vrf_eval(kp, i.to_bytes(8, "big")).value
        low32 = int.from_bytes(value[-4:], "big")
        buckets[low32 * 64 >> 32] += 1
    _, p = stats.chisquare(buckets)
    assert p > 0.001


def test_frozen_vectors(crypto_vectors):
    for entry in crypto_vectors["keypairs"]:
        kp = keypair_from_secret(entry["node_id"], bytes.fromhex(entry["secret"]))
        assert kp.public.hex() == entry["public"]
    for entry in crypto_vectors["sign"]:
        kp = keypair_from_secret(0, bytes.fromhex(entry["secret"]))
        tag = sign(kp, bytes.fromhex(entry["msg"]))
        assert tag.hex() == entry["tag"]
    for entry in crypto_vectors["vrf"]:
        kp = keypair_from_secret(0, bytes.fromhex(entry["secret"]))
        out = vrf_eval(kp, bytes.fromhex(entry["input"]))
        assert out.value.hex() == entry["value"]
        assert out.proof.hex() == entry["proof"]


def test_registry_issues_distinct_deterministic_keys():
    r1 = KeyRegistry(root_seed=5)
    r2 = KeyRegistry(root_seed=5)
    kps1 = [r1.issue(i) for i in range(10)]
    kps2 = [r2.issue(i) for i in range(10)]
    assert kps1 == kps2 and [hash(kp) for kp in kps1] == [hash(kp) for kp in kps2]
    assert len({kp.secret for kp in kps1}) == 10
    # The carried signing state is built per key and left out of equality and repr.
    twin = keypair_from_secret(kps1[0].node_id, kps1[0].secret)
    assert twin == kps1[0] and hash(twin) == hash(kps1[0])
    assert twin.sig_state is not kps1[0].sig_state
    assert repr(twin) == repr(kps1[0]) and "sig_state" not in repr(twin)


def test_substreams_independent_and_reproducible():
    a1 = substream(1, "provider", 0)
    a2 = substream(1, "provider", 0)
    b = substream(1, "provider", 1)
    seq_a1 = [a1.random() for _ in range(5)]
    seq_a2 = [a2.random() for _ in range(5)]
    seq_b = [b.random() for _ in range(5)]
    assert seq_a1 == seq_a2
    assert seq_a1 != seq_b
