import dataclasses
import math
import re

import pytest

from conftest import make_governor
from repuchain.core_types import (
    LabeledTransaction,
    SimSignature,
    Transaction,
    block_bytes,
    label_signing_bytes,
    tx_signing_bytes,
    upload_bytes,
)
from repuchain.consensus import ChainViolation, Violation
from repuchain.crypto_sim import KeyRegistry, sign, substream
from repuchain import core_types, metrics_oracle, nodes, reputation, scenarios
from repuchain.metrics_oracle import mc_expected_loss
from repuchain.reputation import revenue_shares
from repuchain.nodes import (
    CollectorNode,
    ProviderNode,
    SimulationError,
    StrategySpec,
    validate_governor,
    verification_message_bytes,
)
from repuchain.sim_engine import ScenarioConfig, init_world, step_round


class ForcedRng:
    """Deterministic stand-in for the leader's draw stream."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0) if self.values else 0.0


def make_provider(registry, node_id=0, gen_rate=1, invalid=0.0):
    return ProviderNode(
        node_id=node_id,
        keypair=registry.issue(node_id),
        gen_rate=gen_rate,
        invalid_fraction=invalid,
        rng=substream(42, "provider", node_id),
    )


def make_collector(registry, index=0, kind="Honest", q=0.0, forge_rate=1, n_providers=1):
    """Collector ``index`` (node id 1000 + index), enrolled with providers 0..n_providers-1."""
    for i in range(n_providers):
        registry.enrol("provider", i, i)
    return CollectorNode(
        node_id=index,
        keypair=registry.enrol("collector", index, 1000 + index),
        strategy=StrategySpec(kind=kind, q=q, forge_rate=forge_rate),
        registry=registry,
        rng=substream(42, "collector", index),
    )


def signed_upload(collector, labels, round_no):
    """``collector``'s upload of ``labels``, signed as ``step_round`` signs it, for a
    governor that ingests it in ``round_no``."""
    return (collector.id, list(labels), collector.sign_upload(round_no - 1, labels))


def ingest_signed(g, uploads, round_no):
    """``g.ingest`` of ``(collector, labels)`` pairs, each upload genuinely signed."""
    return g.ingest([signed_upload(c, labels, round_no) for c, labels in uploads], round_no)


# -- providers ---------------------------------------------------------------


def test_generate_zero_rate(registry):
    p = make_provider(registry, gen_rate=0)
    assert p.generate(1) == []


def test_generate_all_valid(registry):
    p = make_provider(registry, gen_rate=5, invalid=0.0)
    txs = p.generate(3)
    assert len(txs) == 5
    assert all(tx.ground_truth_valid for tx in txs)
    assert all(tx.timestamp == 3 for tx in txs)
    assert set(p.pending) == {tx.txid for tx in txs}


def test_generate_invalid_fraction_binomial(registry):
    p = make_provider(registry, gen_rate=10_000, invalid=0.5)
    txs = p.generate(1)
    invalid = sum(1 for tx in txs if not tx.ground_truth_valid)
    assert abs(invalid - 5000) <= 150  # 3 sigma


def test_generated_signatures_verify(registry):
    p = make_provider(registry, gen_rate=3)
    from repuchain.core_types import tx_signing_bytes

    for tx in p.generate(1):
        assert registry.verify(
            p.keypair.public,
            tx_signing_bytes(tx.provider_id, tx.seq, tx.timestamp),
            tx.signature,
        )


def test_feedback_resubmits_unchecked(registry):
    p = make_provider(registry, gen_rate=1)
    (tx,) = p.generate(1)
    assert p.on_feedback([tx.txid]) == [tx]
    # same transaction identity on every retry
    for _ in range(3):
        resub = p.on_feedback([tx.txid])
        assert resub == [tx]


def test_feedback_resubmits_only_pending(registry):
    p = make_provider(registry, gen_rate=2)
    t1, t2 = p.generate(1)
    p.on_chain([t1.txid])
    assert t1.txid not in p.pending
    assert p.on_feedback([t1.txid, t2.txid]) == [t2]
    assert set(p.pending) == {t2.txid}


# -- collectors ----------------------------------------------------------------


def test_honest_labels_match_ground_truth(registry):
    c = make_collector(registry)
    p = make_provider(registry, gen_rate=1, invalid=0.0)
    (tx,) = p.generate(1)
    ltx = c.process(tx)
    assert ltx is not None and ltx.label == 1

    p2 = make_provider(registry, gen_rate=1, invalid=1.0)
    (bad,) = p2.generate(1)
    assert c.process(bad).label == -1


def test_always_minus_labels_valid_tx_minus(registry):
    c = make_collector(registry, kind="AlwaysMinus")
    p = make_provider(registry, gen_rate=1, invalid=0.0)
    (tx,) = p.generate(1)
    assert c.process(tx).label == -1


def test_flip_and_withhold_statistics(registry):
    p = make_provider(registry, gen_rate=2000, invalid=0.0)
    txs = p.generate(1)

    flip = make_collector(registry, index=1, kind="FlipProb", q=0.3)
    flipped = sum(1 for tx in txs if flip.process(tx).label == -1)
    assert abs(flipped - 600) <= 3 * math.sqrt(2000 * 0.3 * 0.7)

    withhold = make_collector(registry, index=2, kind="Withhold", q=0.5)
    dropped = sum(1 for tx in txs if withhold.process(tx) is None)
    assert abs(dropped - 1000) <= 3 * math.sqrt(2000 * 0.25)


def test_collector_drops_bad_provider_signature(registry):
    c = make_collector(registry)
    forged = Transaction(0, 1, 1, True, SimSignature(b"\x42" * 32))
    assert c.process(forged) is None
    assert c.dropped_bad_signature == 1
    # A registered key, but not enrolled as provider 7.
    unknown = Transaction(7, 1, 1, True, sign(registry.issue(7), tx_signing_bytes(7, 1, 1)))
    assert c.process(unknown) is None
    assert c.dropped_bad_signature == 2


def test_collector_ignores_known_invalid(registry):
    c = make_collector(registry)
    p = make_provider(registry, gen_rate=1)
    (tx,) = p.generate(1)
    c.note_invalid([tx.txid])
    assert c.process(tx) is None


@pytest.mark.parametrize("kind,q", [
    ("Honest", 0.0), ("FlipProb", 0.4), ("Withhold", 0.4), ("AlwaysMinus", 0.0),
])
def test_process_labels_each_copy_by_its_rule(registry, kind, q):
    txs = [tx for i in range(2) for tx in make_provider(
        registry, node_id=i, gen_rate=12, invalid=0.3).generate(1)]
    bad_tag = Transaction(0, 99, 1, True, SimSignature(b"\x42" * 32))
    # A registered key, but not enrolled as provider 7.
    unknown = Transaction(7, 1, 1, True, sign(registry.issue(7), tx_signing_bytes(7, 1, 1)))
    ignored = txs[7]
    c = make_collector(registry, index=3, kind=kind, q=q, n_providers=2)
    c.note_invalid([ignored.txid])
    untouched = c.rng.getstate()
    for tx in (bad_tag, unknown, ignored):
        assert c.process(tx) is None
    assert c.dropped_bad_signature == 2
    assert c.rng.getstate() == untouched  # nothing withheld above drew
    delivered = [tx for tx in txs if tx is not ignored] + txs[:3]
    got = [c.process(tx) for tx in delivered]
    assert c.dropped_bad_signature == 2
    truths = [1 if tx.ground_truth_valid else -1 for tx in delivered]
    draws = substream(42, "collector", 3)  # the collector's own stream, replayed
    if kind == "Honest":
        expected = truths
    elif kind == "AlwaysMinus":
        expected = [-1] * len(truths)
    elif kind == "FlipProb":
        expected = [-t if draws.random() < q else t for t in truths]
    else:
        expected = [None if draws.random() < q else t for t in truths]
    assert [None if ltx is None else ltx.label for ltx in got] == expected
    assert c.rng.getstate() == draws.getstate()
    assert (draws.getstate() != untouched) == (kind in ("FlipProb", "Withhold"))
    if kind != "Withhold":
        assert sum(ltx is not None for ltx in got) == len(delivered)
    for tx, ltx in zip(delivered, got):
        if ltx is not None:
            assert ltx.tx == tx
            assert ltx.body == label_signing_bytes(tx, ltx.label)


def test_collector_signature_binds_label(registry):
    c = make_collector(registry, index=2)
    txs = make_provider(registry, gen_rate=3).generate(1)
    labels = [c.process(tx) for tx in txs]
    bodies = [ltx.body for ltx in labels]
    sig = c.sign_upload(7, labels)
    assert registry.verify(c.keypair.public, upload_bytes(2, 7, bodies), sig)
    flipped = [bodies[0], label_signing_bytes(txs[1], -1), bodies[2]]
    for other in (upload_bytes(2, 7, flipped), upload_bytes(2, 8, bodies),
                  upload_bytes(3, 7, bodies), upload_bytes(2, 7, bodies[::-1]),
                  upload_bytes(2, 7, bodies[:2])):
        assert not registry.verify(c.keypair.public, other, sig)


# -- governors ----------------------------------------------------------------


def deliver(registry, governor, tx, collector_index=0, round_no=5, kind="Honest"):
    """One collector's one-label upload of ``tx``, ingested in ``round_no``."""
    c = make_collector(registry, index=collector_index, kind=kind,
                       n_providers=len(governor.rep))
    ltx = c.process(tx)
    assert ltx is not None
    return governor.on_labeled_transaction(c.id, ltx, c.sign_upload(round_no - 1, [ltx]), round_no)


def test_first_copy_starts_timer(registry):
    g = make_governor(registry, topology=((0, 1),), delta_rounds=2)
    p = make_provider(registry, gen_rate=1)
    (tx,) = p.generate(4)
    assert deliver(registry, g, tx, 0, round_no=5) == "ok"
    assert g.inbox[tx.txid][:2] == (tx, 7)  # first sighting + delta
    deliver(registry, g, tx, 1, round_no=5)
    assert g.inbox[tx.txid] == (tx, 7, {0: 1, 1: 1})  # expiry unchanged by later copies
    assert g.expired(7) == [tx.txid]


def test_conflicting_label_from_same_collector_ignored(registry):
    g = make_governor(registry, topology=((0, 1),))
    p = make_provider(registry, gen_rate=1)
    (tx,) = p.generate(1)
    c = make_collector(registry, index=0, kind="Honest", n_providers=1)
    plus = c.process(tx)
    minus = LabeledTransaction(tx=tx, label=-1)
    # One upload: the first label wins, and a conflicting or exact duplicate changes nothing.
    assert ingest_signed(g, [(c, [plus, minus, plus])], 1) == ["ok", "duplicate", "duplicate"]
    assert g.inbox[tx.txid][2] == {0: 1}


def _two_collector_world(registry):
    """A governor for provider 0 on collectors (0, 1), its two transactions, the
    collectors, and each collector's two labels."""
    g = make_governor(registry, topology=((0, 1),))
    a, b = make_provider(registry, gen_rate=2).generate(1)
    c = [make_collector(registry, index=j) for j in (0, 1)]
    labels = [[cj.process(tx) for tx in (a, b)] for cj in c]
    return g, (a, b), c, labels


def test_bad_collector_signature_dropped(registry):
    g, (a, b), _, (labels0, _) = _two_collector_world(registry)
    bad = SimSignature(b"\1" * 32)
    assert g.ingest([(0, labels0, bad)], 1) == ["bad_collector_sig"] * 2
    assert g.dropped_bad_signature == 2  # counted per copy
    assert not g.inbox


def test_relabeled_copy_with_original_signature_refused(registry):
    g, (a, b), c, (labels0, _) = _two_collector_world(registry)
    signature = c[0].sign_upload(0, labels0)
    flipped = dataclasses.replace(labels0[1], label=-labels0[1].label)
    assert flipped.body == label_signing_bytes(b, -labels0[1].label) != labels0[1].body
    assert g.ingest([(0, [labels0[0], flipped], signature)], 1) == ["bad_collector_sig"] * 2
    assert not g.inbox and g.dropped_bad_signature == 2
    assert g.ingest([(0, labels0, signature)], 1) == ["ok", "ok"]  # the genuine upload lands
    # No caller can hand a label or a verdict the bytes of the record it copies.
    with pytest.raises(TypeError):
        LabeledTransaction(b, -labels0[1].label, labels0[1].body)
    msg = g.screen(a.txid).message
    with pytest.raises(TypeError):
        nodes.VerificationMessage(msg.leader_id, msg.provider_id, msg.txid, not msg.validbit,
                                  msg.received, msg.cnt, msg.signature, msg.signing_bytes)


def test_label_moved_into_another_collectors_upload_refuses_both(registry):
    g, (a, b), c, (labels0, labels1) = _two_collector_world(registry)
    sig0, sig1 = c[0].sign_upload(0, labels0), c[1].sign_upload(0, labels1[:1])
    moved = [(0, labels0[:1], sig0), (1, [labels1[0], labels0[1]], sig1)]
    assert g.ingest(moved, 1) == ["bad_collector_sig"] * 3
    assert not g.inbox and g.dropped_bad_signature == 3
    # A whole upload carried under another collector's id is refused too.
    assert g.ingest([(1, labels0, sig0)], 1) == ["bad_collector_sig"] * 2
    assert not g.inbox and g.dropped_bad_signature == 5


def test_upload_replayed_under_another_round_is_refused(registry):
    g, (a, b), c, (labels0, _) = _two_collector_world(registry)
    upload = signed_upload(c[0], labels0, 5)  # uploaded in round 4, due in round 5
    for r in (4, 6):
        assert g.ingest([upload], r) == ["bad_collector_sig"] * 2
    assert not g.inbox
    assert g.ingest([upload], 5) == ["ok", "ok"]


def test_labels_outside_the_signed_upload_are_refused(registry):
    # An upload always carries a signature; labels its signature does not cover,
    # appended after signing or under the signature of an empty upload, refuse it whole.
    g, (a, b), c, (labels0, labels1) = _two_collector_world(registry)
    appended = (1, labels1, c[1].sign_upload(0, labels1[:1]))
    assert g.ingest([signed_upload(c[0], labels0, 1), appended], 1) == \
        ["ok", "ok", "bad_collector_sig", "bad_collector_sig"]
    assert g.ingest([(1, labels1, c[1].sign_upload(0, []))], 1) == ["bad_collector_sig"] * 2
    assert g.dropped_bad_signature == 4
    assert g.inbox[a.txid][2] == g.inbox[b.txid][2] == {0: 1}


def test_bad_upload_leaves_another_collectors_labels_ok(registry):
    g, (a, b), c, (labels0, labels1) = _two_collector_world(registry)
    uploads = [(0, labels0, SimSignature(b"\1" * 32)), signed_upload(c[1], labels1, 1)]
    assert g.ingest(uploads, 1) == ["bad_collector_sig"] * 2 + ["ok"] * 2
    assert g.inbox[a.txid][2] == g.inbox[b.txid][2] == {1: 1}
    assert g.dropped_bad_signature == 2


def test_a_round_signs_one_upload_per_uploading_collector(monkeypatch):
    # Labelling signs nothing; each collector that uploads anything, forgeries
    # included, signs once at the end of the round. The leader signs each verdict
    # through the same module global, which the benchmark's tracer rebinds.
    cfg = ScenarioConfig.from_dict(scenarios.properties(10))
    w = init_world(cfg)
    collector_keys = {c.keypair.node_id: c.id for c in w.collectors}
    governor_keys = {g.keypair.node_id for g in w.governors}
    signed = []
    original_sign, original_process = nodes.sign, CollectorNode.process

    def counting_sign(kp, msg):
        signed.append(kp.node_id)
        return original_sign(kp, msg)

    def process_signing_nothing(self, tx):
        before = len(signed)
        out = original_process(self, tx)
        assert len(signed) == before
        return out

    monkeypatch.setattr(nodes, "sign", counting_sign)
    monkeypatch.setattr(CollectorNode, "process", process_signing_nothing)
    forgers = {c.id for c in w.collectors if c.strategy.kind == "Forger"}
    assert forgers
    signed_verdicts = 0
    for _ in range(8):
        signed.clear()
        step_round(w)
        uploaders = [cid for cid, _, _ in w.to_governors]
        assert uploaders == sorted(set(uploaders))  # one upload a collector, in id order
        assert all(labels for _, labels, _ in w.to_governors)
        assert forgers <= set(uploaders)
        assert sorted(collector_keys[k] for k in signed if k in collector_keys) == uploaders
        verdicts = sum(k in governor_keys for k in signed)
        assert verdicts == w.metrics.rounds[-1].txs_verified
        signed_verdicts += verdicts
    assert signed_verdicts > 0


def test_forged_transactions_rejected_10k_attempts(registry):
    g = make_governor(registry, topology=((0,), (0,)), n_providers=2)
    forger = make_collector(registry, index=0, kind="Forger", forge_rate=10_000,
                            n_providers=2)
    attempts = forger.forge(round_no=1, provider_count=2)
    assert len(attempts) == 10_000
    codes = ingest_signed(g, [(forger, attempts)], 2)  # the upload's own signature is genuine
    assert codes == ["forged"] * 10_000
    assert g.dropped_forged == 10_000
    assert not g.inbox


def test_batched_ingest_matches_one_copy_at_a_time(registry):
    # Provider 0 reaches collectors 0 and 1, provider 1 only collector 2.
    topology = ((0, 1), (2,))
    governors = [make_governor(registry, topology=topology, gov_index=k, n_collectors=4)
                 for k in (0, 1)]
    c0, c1, c2, c3 = (make_collector(registry, index=j, n_providers=2) for j in range(4))
    a, b, verified, settled = make_provider(registry, gen_rate=4).generate(1)
    (d,) = make_provider(registry, node_id=1).generate(1)
    for g in governors:
        g.pending[verified.txid] = (verified, ((0, 1),))
        g.ledger.settled.add(settled.txid)
    forged_tx = Transaction(0, 99, 1, True, SimSignature(b"\x42" * 32))
    bad = SimSignature(b"\x01" * 32)
    uploads = [
        signed_upload(c0, [
            c0.process(a),
            LabeledTransaction(a, -1),  # conflicting
            c0.process(a),
            LabeledTransaction(forged_tx, 1),
        ], 5),
        (3, [c3.process(b)], bad),  # collector 3's upload carries a bad tag
        signed_upload(c1, [c1.process(a), c1.process(verified), c1.process(settled),
                           c1.process(b)], 5),
        (9, [LabeledTransaction(b, 1)], bad),  # unknown collector
        signed_upload(c2, [c2.process(b), c2.process(d)], 5),  # 2 does not serve provider 0
    ]
    signers = {0: c0, 1: c1, 2: c2}

    def one_label_signature(cid, ltx):
        signer = signers.get(cid)
        return bad if signer is None else signer.sign_upload(4, [ltx])

    batched, one_by_one = governors
    codes = batched.ingest(uploads, 5)
    assert codes == [one_by_one.on_labeled_transaction(cid, ltx, one_label_signature(cid, ltx), 5)
                     for cid, labels, _ in uploads for ltx in labels]
    assert codes == ["ok", "duplicate", "duplicate", "forged", "bad_collector_sig",
                     "ok", "settled", "settled", "ok", "bad_collector_sig",
                     "not_connected", "ok"]
    assert list(batched.inbox.items()) == list(one_by_one.inbox.items())
    assert list(batched.inbox) == [a.txid, b.txid, d.txid]
    assert batched.inbox[a.txid] == (a, 6, {0: 1, 1: 1})
    assert list(batched.pending.items()) == list(one_by_one.pending.items())
    for g in governors:
        assert (g.dropped_bad_signature, g.dropped_forged) == (2, 1)


def test_labels_are_filed_and_signed_by_slot_not_collector_id(registry):
    # Provider 0's slots are collectors (3, 1), provider 1's (1, 0): no slot is its id.
    topology = ((3, 1), (1, 0))
    leader, replica = (make_governor(registry, topology=topology, gov_index=k) for k in (0, 1))
    leader.draw_rng = ForcedRng([0.0, 0.0])  # draw slot 0 for both transactions
    kinds = ("AlwaysMinus", "Honest", "Honest", "AlwaysPlus")
    c = [make_collector(registry, index=j, kind=kind, n_providers=2)
         for j, kind in enumerate(kinds)]
    (bad,) = make_provider(registry, node_id=0, invalid=1.0).generate(1)
    (good,) = make_provider(registry, node_id=1).generate(1)
    uploads = [(c[0], [c[0].process(good)]), (c[1], [c[1].process(bad), c[1].process(good)]),
               (c[3], [c[3].process(bad)])]
    for g in (leader, replica):
        assert ingest_signed(g, uploads, 1) == ["ok"] * 4
        assert g.inbox[bad.txid][2] == {0: 1, 1: -1}
        assert g.inbox[good.txid][2] == {0: 1, 1: -1}
        stray = [(cj, [cj.process(good)]) for cj in (c[2], c[3], c[1])]
        assert ingest_signed(g, stray, 2) == ["not_connected", "not_connected", "duplicate"]
        assert g.inbox[good.txid][2] == {0: 1, 1: -1}
    results = [leader.screen(tx.txid) for tx in (bad, good)]
    assert [res.outcome for res in results] == ["invalid", "valid"]
    assert [res.penalized for res in results] == [(0,), (1,)]
    assert [res.message.received for res in results] == [((0, 1), (1, -1))] * 2
    assert leader.pending[good.txid] == (good, ((0, 1), (1, -1)))
    assert leader.rep[0].reps == (-1, 0) and leader.rep[1].reps == (0, -1)
    for res in results:
        replica.on_verification_message(res.message)
    assert replica.rep == leader.rep
    assert replica.state_fingerprint() == leader.state_fingerprint()


def test_detached_provider_signature_is_forged(registry):
    # A collector that wraps a genuine provider tag in a record with a made-up
    # seq gains nothing: the record's bytes come from its fields alone.
    g = make_governor(registry, topology=((0,),))
    (tx,) = make_provider(registry).generate(1)
    assert deliver(registry, g, tx, 0) == "ok"
    before = dict(g.inbox)
    detached = Transaction(tx.provider_id, tx.seq + 1, tx.timestamp, False, tx.signature)
    c0 = make_collector(registry)
    copy = LabeledTransaction(detached, 1)
    assert ingest_signed(g, [(c0, [copy])], 5) == ["forged"]
    assert g.dropped_forged == 1
    assert g.inbox == before
    with pytest.raises(TypeError):
        Transaction(tx.provider_id, tx.seq + 1, tx.timestamp, False, tx.signature,
                    tx.signing_bytes)


def _tag_flipped(tx):
    """``tx`` under the same txid, with the last byte of its provider tag flipped."""
    tag = tx.signature.tag
    return Transaction(tx.provider_id, tx.seq, tx.timestamp, tx.ground_truth_valid,
                       SimSignature(tag[:-1] + bytes([tag[-1] ^ 1])))


def test_copy_under_an_accepted_txid_with_other_bytes_is_checked(registry):
    # Only a byte-identical copy skips the provider check; the txid alone proves nothing.
    g = make_governor(registry, topology=((0, 1),))
    (tx,) = make_provider(registry).generate(1)
    assert deliver(registry, g, tx, 0) == "ok"
    forged = _tag_flipped(tx)
    assert forged.txid == tx.txid and forged.wire_bytes != tx.wire_bytes
    c1 = make_collector(registry, index=1)
    copy = LabeledTransaction(forged, 1)
    assert ingest_signed(g, [(c1, [copy])], 5) == ["forged"]
    assert g.dropped_forged == 1
    (held, expiry, labels) = g.inbox[tx.txid]
    assert (held, expiry, labels) == (tx, 6, {0: 1})
    assert held.wire_bytes == tx.wire_bytes
    assert deliver(registry, g, tx, 1) == "ok"  # the genuine copy still lands
    assert g.inbox[tx.txid][2] == {0: 1, 1: 1}


def test_each_governor_checks_a_provider_signature_once(registry, monkeypatch):
    # k copies from k collectors cost k upload checks and one provider check per
    # governor (the first copy's; the others carry the same bytes), and a block
    # packing the head of pending costs the leader-signature check alone.
    k = 3
    topology = ((0, 1, 2),)
    leader, replica = (make_governor(registry, topology=topology, gov_index=i) for i in (0, 1))
    (tx,) = make_provider(registry).generate(1)
    collectors = [make_collector(registry, index=j) for j in range(k)]
    copies = [c.process(tx) for c in collectors]
    uploads = [signed_upload(c, [copy], 1) for c, copy in zip(collectors, copies)]
    checked = []
    original = KeyRegistry.verify

    def counting(self, public, msg, sig):
        checked.append(msg)
        return original(self, public, msg, sig)

    monkeypatch.setattr(KeyRegistry, "verify", counting)
    for g in (leader, replica):
        checked.clear()
        assert g.ingest(uploads, 1) == ["ok"] * k
        upload_checks = [upload_bytes(j, 0, [c.body]) for j, c in enumerate(copies)]
        assert checked == [upload_checks[0], tx.signing_bytes, *upload_checks[1:]]
    res = leader.screen(tx.txid)
    assert res.outcome == "valid"
    checked.clear()
    replica.on_verification_message(res.message)
    assert checked == [res.message.signing_bytes]
    signed, lists = leader.propose_round([res])
    assert signed.block.tx_list == (tx,)
    for g in (leader, replica):
        checked.clear()
        g.apply_block(signed, lists, leader.id)
        assert checked == [block_bytes(signed.block)]
        assert g.ledger.settled == {tx.txid} and not g.pending


def test_signers_encode_each_signed_record_once(registry, monkeypatch):
    # A label's body is encoded once, by its constructor; an upload by its signer and
    # by each governor that checks it. The bytes a leader signs are the bytes its
    # verdict carries. A transaction is encoded twice: by its provider to sign, by
    # its constructor to carry.
    calls = {}
    for module in (core_types, nodes):
        for name in ("tx_signing_bytes", "label_signing_bytes", "upload_bytes",
                     "verification_message_bytes"):
            if hasattr(module, name):
                def counting(*args, _original=getattr(module, name), _name=name):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counting)
    g = make_governor(registry, topology=((0,),))
    txs = make_provider(registry, gen_rate=3, invalid=0.0).generate(1)
    assert calls == {"tx_signing_bytes": 6}
    tx = txs[0]
    assert tx.signing_bytes == tx_signing_bytes(*tx.txid)  # the test's unwrapped binding
    c = make_collector(registry)
    ltx = c.process(tx)
    assert calls == {"tx_signing_bytes": 6, "label_signing_bytes": 1}
    assert ltx.body == label_signing_bytes(tx, 1)
    signature = c.sign_upload(0, [ltx])
    assert calls == {"tx_signing_bytes": 6, "label_signing_bytes": 1, "upload_bytes": 1}
    assert g.ingest([(c.id, [ltx], signature)], 1) == ["ok"]
    res = g.screen(tx.txid)
    assert res.outcome == "valid"
    assert calls == {"tx_signing_bytes": 6, "label_signing_bytes": 1, "upload_bytes": 2,
                     "verification_message_bytes": 1}
    msg = res.message
    assert msg.signing_bytes == verification_message_bytes(
        msg.leader_id, msg.provider_id, msg.txid, msg.validbit, msg.received, msg.cnt)


def test_screen_single_honest_collector_always_verifies(registry):
    g = make_governor(registry, topology=((0,),))
    p = make_provider(registry, gen_rate=1, invalid=0.0)
    (tx,) = p.generate(1)
    deliver(registry, g, tx, 0, round_no=1)
    res = g.screen(tx.txid)
    assert res.outcome == "valid"
    assert res.loss == 0.0
    assert g.pending == {tx.txid: (tx, ((0, 1),))}
    assert g.rep[0].cnt == 1


def test_screen_drawn_minus_goes_unchecked(registry):
    g = make_governor(registry, topology=((0, 1),))
    g.draw_rng = ForcedRng([0.9])  # draw slot 1, which stays absent
    p = make_provider(registry, gen_rate=1, invalid=0.0)
    (tx,) = p.generate(1)
    deliver(registry, g, tx, 0, round_no=1)
    res = g.screen(tx.txid)
    assert res.outcome == "unchecked"
    assert not res.verified
    assert res.loss == 0.0
    assert res.message is None
    assert g.rep[0].cnt == 0  # no reputation change either
    assert g.rep[0].reps == (0, 0)
    assert tx.txid in g.inbox  # no verdict: it stays until the round clears it
    g.clear_screened([tx.txid])
    assert not g.inbox and not g.pending and not g.ledger.settled


def test_screen_verified_invalid_loss_is_plus_mass(registry):
    g = make_governor(registry, topology=((0, 1),))
    g.draw_rng = ForcedRng([0.0])  # draw slot 0, labeled +1
    p = make_provider(registry, gen_rate=1, invalid=1.0)
    (tx,) = p.generate(1)
    deliver(registry, g, tx, 0, round_no=1, kind="AlwaysPlus")  # slot 0: +1
    deliver(registry, g, tx, 1, round_no=1, kind="Honest")      # slot 1: -1
    res = g.screen(tx.txid)
    assert res.outcome == "invalid"
    assert abs(res.loss - 0.5) < 1e-12  # mass of the +1 slots under uniform reps
    assert res.penalized == (0,)
    assert g.rep[0].reps == (-1, 0)
    msg = res.message
    assert msg is not None
    assert msg.cnt == 1 and msg.validbit is False
    assert dict(msg.received) == {0: 1, 1: -1}


def test_screen_and_the_mc_oracle_run_the_one_screening_step(registry, monkeypatch):
    # The oracle-agreement check covers the leader's screening rule only if
    # the Monte-Carlo oracle runs the same step; a copy of the rule in either
    # caller would count 0 here. The verifier runs only on a drawn +1.
    calls = {"steps": 0, "verified": 0}

    def counting_step(state, labels, rng, verify, subject):
        calls["steps"] += 1

        def counting_verify(x):
            calls["verified"] += 1
            return verify(x)

        return reputation.screen_draw(state, labels, rng, counting_verify, subject)

    monkeypatch.setattr(nodes, "screen_draw", counting_step)
    monkeypatch.setattr(metrics_oracle, "screen_draw", counting_step)
    g = make_governor(registry, topology=((0, 1),))
    g.draw_rng = ForcedRng([0.0, 0.9, 0.9])  # slot 0 (+1), then slot 1 (absent) twice
    p = make_provider(registry, gen_rate=3, invalid=0.0)
    txs = p.generate(1)
    for tx in txs:
        deliver(registry, g, tx, 0, round_no=1)
    assert [g.screen(tx.txid).outcome for tx in txs] == ["valid", "unchecked", "unchecked"]
    assert calls == {"steps": 3, "verified": 1}

    calls["steps"] = 0
    mc_expected_loss([[1, -1], [1, 1], [-1, 0]], [False, True, False], 0.5, n_runs=7, seed=0)
    assert calls["steps"] == 3 * 7


def test_screen_verified_valid_penalizes_minus_and_absent(registry):
    g = make_governor(registry, topology=((0, 1, 2),))
    g.draw_rng = ForcedRng([0.0])
    p = make_provider(registry, gen_rate=1, invalid=0.0)
    (tx,) = p.generate(1)
    deliver(registry, g, tx, 0, round_no=1, kind="Honest")       # +1
    deliver(registry, g, tx, 1, round_no=1, kind="AlwaysMinus")  # -1
    # slot 2 never reports
    res = g.screen(tx.txid)
    assert res.outcome == "valid"
    assert res.penalized == (1, 2)
    assert abs(res.loss - 2 / 3) < 1e-12
    assert g.rep[0].reps == (0, -1, -1)


def _two_verdicts(registry):
    """A leader's two messages for one provider, and a replica that saw both txs."""
    leader = make_governor(registry, topology=((0,),), gov_index=0)
    p = make_provider(registry, gen_rate=2, invalid=1.0)
    txs = p.generate(1)
    for tx in txs:
        deliver(registry, leader, tx, 0, round_no=1, kind="AlwaysPlus")
    messages = [leader.screen(tx.txid).message for tx in txs]
    replica = make_governor(registry, topology=((0,),), gov_index=1)
    for tx in txs:
        deliver(registry, replica, tx, 0, round_no=1, kind="AlwaysPlus")
    return leader, replica, messages


def replica_state(g):
    return (dict(g.inbox), dict(g.pending), tuple(g.rep))


def test_verification_replay_in_and_out_of_order(registry):
    leader, replica_in_order, (m1, m2) = _two_verdicts(registry)
    assert (m1.cnt, m2.cnt) == (1, 2)
    replica_in_order.on_verification_message(m1)
    replica_in_order.on_verification_message(m2)
    assert replica_in_order.rep[0] == leader.rep[0]

    _, replica_reversed, _ = _two_verdicts(registry)
    before = replica_state(replica_reversed)
    with pytest.raises(SimulationError, match="skipped-ahead.*cnt=2, expected 1"):
        replica_reversed.on_verification_message(m2)
    assert replica_state(replica_reversed) == before


def test_verification_gap_is_fatal(registry):
    _, replica, (m1, m2) = _two_verdicts(registry)
    del replica.inbox[m1.txid]  # only the second transaction reached it
    before = replica_state(replica)
    with pytest.raises(SimulationError, match="skipped-ahead"):
        replica.on_verification_message(m2)
    assert replica_state(replica) == before


def test_stale_verification_message_is_fatal(registry):
    _, replica, (m1, m2) = _two_verdicts(registry)
    replica.on_verification_message(m1)
    replica.on_verification_message(m2)
    before = replica_state(replica)
    for msg in (m1, m2):
        with pytest.raises(SimulationError, match=f"stale.*cnt={msg.cnt}, expected 3"):
            replica.on_verification_message(msg)
    assert replica_state(replica) == before


def test_verification_message_bad_signature_rejected(registry):
    leader = make_governor(registry, topology=((0,),), gov_index=0)
    p = make_provider(registry, gen_rate=1, invalid=1.0)
    (tx,) = p.generate(1)
    deliver(registry, leader, tx, 0, round_no=1, kind="AlwaysPlus")
    msg = leader.screen(tx.txid).message
    tampered = type(msg)(
        leader_id=msg.leader_id, provider_id=msg.provider_id, txid=msg.txid,
        validbit=not msg.validbit, received=msg.received, cnt=msg.cnt,
        signature=msg.signature,
    )
    assert msg.signing_bytes == verification_message_bytes(
        msg.leader_id, msg.provider_id, msg.txid, msg.validbit, msg.received, msg.cnt
    ) != tampered.signing_bytes
    fields = (99, msg.provider_id, msg.txid, msg.validbit, msg.received, msg.cnt)
    unknown_leader = type(msg)(*fields, sign(leader.keypair, verification_message_bytes(*fields)))
    replica = make_governor(registry, topology=((0,),), gov_index=1)
    deliver(registry, replica, tx, 0, round_no=1, kind="AlwaysPlus")
    before = replica_state(replica)
    for bad in (tampered, unknown_leader):
        with pytest.raises(SimulationError, match="bad leader signature"):
            replica.on_verification_message(bad)
        assert replica_state(replica) == before


def _closing_epoch_run(registry):
    """A leader with T=2 screens invalid, valid, valid: the epoch closes on tx 2."""
    leader = make_governor(registry, topology=((0, 1),), threshold=2, gov_index=0)
    leader.draw_rng = ForcedRng([])  # always draws slot 0, the AlwaysPlus one
    p = make_provider(registry, gen_rate=1)
    p.invalid_fraction = 1.0
    txs = p.generate(1)
    p.invalid_fraction = 0.0
    txs += p.generate(1) + p.generate(1)
    for tx in txs:
        deliver(registry, leader, tx, 0, round_no=1, kind="AlwaysPlus")
        deliver(registry, leader, tx, 1, round_no=1, kind="Honest")
    results = [leader.screen(tx.txid) for tx in txs]
    return leader, txs, results


def test_leader_screening_reports_epoch_closure(registry):
    leader, txs, results = _closing_epoch_run(registry)
    assert [r.outcome for r in results] == ["invalid", "valid", "valid"]
    assert [r.message.cnt for r in results] == [1, 2, 1]
    assert results[0].closure is None and results[2].closure is None
    closure = results[1].closure
    assert (closure.provider_id, closure.epoch_index) == (0, 0)
    assert closure.eta == 0.5
    assert closure.revenue == revenue_shares((-1, 0), 0.7)
    state = leader.rep[0]
    assert (state.epoch_index, state.epoch_threshold, state.cnt) == (1, 4, 1)
    assert [r.epoch_index for r in results] == [0, 0, 1]


def _replica_of(registry, leader, txs):
    """A second governor that received the same labels as ``_closing_epoch_run``'s leader."""
    replica = make_governor(registry, topology=((0, 1),), threshold=2, gov_index=1)
    for tx in txs:
        deliver(registry, replica, tx, 0, round_no=1, kind="AlwaysPlus")
        deliver(registry, replica, tx, 1, round_no=1, kind="Honest")
    return replica


def test_replica_replay_reaches_leader_state(registry):
    leader, txs, results = _closing_epoch_run(registry)
    replica = _replica_of(registry, leader, txs)
    for res in results:
        replica.on_verification_message(res.message)
    assert replica.rep == leader.rep
    assert not replica.inbox and not leader.inbox
    assert replica.pending == leader.pending
    assert list(replica.pending) == [tx.txid for tx in txs[1:]]
    assert replica.state_fingerprint() == leader.state_fingerprint()


def test_verdict_replayed_into_the_next_epoch_is_refused(registry):
    # The closing verdict resets cnt, so the first verdict's cnt=1 is "next"
    # again; only the settled check in apply_verdict refuses the replay.
    leader, txs, results = _closing_epoch_run(registry)
    replica = _replica_of(registry, leader, txs)
    replica.on_verification_message(results[0].message)
    replica.on_verification_message(results[1].message)
    before = (dict(replica.inbox), dict(replica.pending), tuple(replica.rep))
    with pytest.raises(SimulationError, match=re.escape(
            "verdict for unseen or settled transaction (0, 1, 1)")):
        replica.on_verification_message(results[0].message)
    assert (replica.inbox, replica.pending, tuple(replica.rep)) == before


def append_round_block(g, results):
    """Propose and apply the block of the round ``results`` screened, as step_round does."""
    g.apply_block(*g.propose_round(results), g.id)


def test_settled_transaction_is_refused_and_starts_no_timer(registry):
    leader, txs, results = _closing_epoch_run(registry)
    leader.clear_screened([tx.txid for tx in txs])
    for tx in txs[1:]:  # verified valid: pending until its block
        assert deliver(registry, leader, tx, 0, round_no=9, kind="AlwaysPlus") == "settled"
    append_round_block(leader, results)  # settles the invalid-listed one too
    for tx in txs:
        assert deliver(registry, leader, tx, 0, round_no=9, kind="AlwaysPlus") == "settled"
    assert not leader.inbox
    assert leader.expired(10) == []


def test_clear_screened_keeps_valid_txs_until_their_block(registry):
    leader, txs, results = _closing_epoch_run(registry)
    leader.clear_screened([tx.txid for tx in txs])
    assert not leader.inbox
    assert list(leader.pending) == [tx.txid for tx in txs[1:]]
    assert not leader.ledger.settled
    append_round_block(leader, results)
    assert leader.ledger.last.tx_list == tuple(txs[1:])
    assert not leader.pending
    assert leader.ledger.settled == {tx.txid for tx in txs}


@pytest.mark.parametrize("leader_id", [1, 99], ids=["wrong-leader", "unknown-leader"])
def test_block_from_another_leader_is_refused_and_changes_nothing(registry, leader_id):
    leader, txs, results = _closing_epoch_run(registry)
    registry.enrol("governor", 1, 2001)  # leader 1 is a known governor, just not this round's
    p = make_provider(registry, node_id=0, gen_rate=1)
    (waiting,) = p.generate(5)  # still in its window, so the inbox is not empty
    assert deliver(registry, leader, waiting, 0, round_no=5) == "ok"
    block = leader.propose_round(results)

    def state():
        return (leader.ledger.tip_hash(), dict(leader.inbox), dict(leader.pending),
                set(leader.ledger.settled))

    before = state()
    with pytest.raises(ChainViolation) as exc:
        leader.apply_block(*block, leader_id)
    assert exc.value.violation is Violation.WRONG_LEADER
    assert state() == before
    leader.apply_block(*block, leader.id)
    assert leader.ledger.last.tx_list == tuple(txs[1:])
    assert not leader.pending
    assert leader.propose_round([]) is None  # nothing to record, so no block


@pytest.mark.parametrize("order", ["reversed", "skipped-head"])
def test_block_not_packing_the_head_of_pending_changes_nothing(registry, order):
    leader, txs, results = _closing_epoch_run(registry)
    p = make_provider(registry, node_id=0, gen_rate=1)
    (waiting,) = p.generate(5)  # still in its window, so the inbox is not empty
    assert deliver(registry, leader, waiting, 0, round_no=5) == "ok"
    good, lists = leader.propose_round(results)
    head = good.block.tx_list
    assert head == tuple(txs[1:])
    payload = tuple(reversed(head)) if order == "reversed" else head[1:]
    block = dataclasses.replace(good.block, tx_list=payload)
    signed = dataclasses.replace(good, block=block,
                                 signature=sign(leader.keypair, block_bytes(block)))

    def state():
        return (leader.ledger.tip_hash(), set(leader.ledger.settled), list(leader.pending.items()),
                dict(leader.inbox))

    before = state()
    with pytest.raises(ChainViolation) as exc:
        leader.apply_block(signed, lists, leader.id)
    assert exc.value.violation is Violation.UNLABELED_TX
    assert state() == before
    leader.apply_block(good, lists, leader.id)
    assert leader.ledger.last.tx_list == head and not leader.pending


def test_block_payload_one_tag_byte_off_the_head_of_pending_changes_nothing(registry):
    leader, txs, results = _closing_epoch_run(registry)
    p = make_provider(registry, node_id=0, gen_rate=1)
    (waiting,) = p.generate(5)  # still in its window, so the inbox is not empty
    assert deliver(registry, leader, waiting, 0, round_no=5) == "ok"
    good, lists = leader.propose_round(results)
    head = good.block.tx_list

    def resigned(payload):
        block = dataclasses.replace(good.block, tx_list=payload)
        return dataclasses.replace(good, block=block,
                                   signature=sign(leader.keypair, block_bytes(block)))

    def state():
        return (leader.ledger.tip_hash(), set(leader.ledger.settled), list(leader.pending.items()),
                dict(leader.inbox))

    before = state()
    with pytest.raises(ChainViolation) as exc:
        leader.apply_block(resigned((_tag_flipped(head[0]),) + head[1:]), lists, leader.id)
    assert exc.value.violation is Violation.BAD_TX_SIGNATURE
    assert state() == before
    # A payload byte-identical to the head skips the provider check, not the label rule.
    first = head[0].txid
    queued, labels = leader.pending[first]
    leader.pending[first] = (queued, tuple((c, -1) for c, _ in labels))
    unlabeled = state()
    with pytest.raises(ChainViolation) as exc:
        leader.apply_block(good, lists, leader.id)
    assert exc.value.violation is Violation.UNLABELED_TX
    assert state() == unlabeled
    leader.pending[first] = (queued, labels)
    leader.apply_block(good, lists, leader.id)
    assert leader.ledger.last.tx_list == head and not leader.pending


@pytest.mark.parametrize("case", ["tx-by-collector", "upload-by-provider",
                                  "verdict-by-collector", "block-by-collector"])
def test_a_key_enrolled_under_another_role_verifies_nothing(registry, case):
    # Every signer here is genuine and enrolled, under the same index 0 as the
    # member it signs as, only not in that role.
    leader, txs, results = _closing_epoch_run(registry)
    replica = _replica_of(registry, leader, txs)
    collector = make_collector(registry, index=0)
    provider_kp = registry.issue(0)  # enrolled as provider 0 by make_governor
    g = replica if case == "verdict-by-collector" else leader

    def state():
        return (g.ledger.tip_hash(), set(g.ledger.settled), list(g.pending.items()),
                dict(g.inbox), tuple(g.rep))

    before = state()
    if case == "tx-by-collector":
        fields = (0, 99, 5)  # a transaction of provider 0's
        tx = Transaction(*fields, True, sign(collector.keypair, tx_signing_bytes(*fields)))
        assert collector.process(tx) is None and collector.dropped_bad_signature == 1
        assert ingest_signed(g, [(collector, [LabeledTransaction(tx, 1)])], 6) == ["forged"]
        assert g.dropped_forged == 1
    elif case == "upload-by-provider":
        (tx,) = make_provider(registry).generate(5)
        labels = [collector.process(tx)]
        body = upload_bytes(0, 5, [ltx.body for ltx in labels])
        assert g.ingest([(0, labels, sign(provider_kp, body))], 6) == ["bad_collector_sig"]
        assert g.dropped_bad_signature == 1
    elif case == "verdict-by-collector":
        msg = results[0].message
        fields = (msg.leader_id, msg.provider_id, msg.txid, msg.validbit, msg.received, msg.cnt)
        forged = type(msg)(*fields, sign(collector.keypair, msg.signing_bytes))
        with pytest.raises(SimulationError, match="bad leader signature"):
            g.on_verification_message(forged)
    else:
        good, lists = leader.propose_round(results)
        forged = dataclasses.replace(good, signature=sign(collector.keypair,
                                                          block_bytes(good.block)))
        with pytest.raises(ChainViolation) as exc:
            g.apply_block(forged, lists, leader.id)
        assert exc.value.violation is Violation.BAD_LEADER_SIGNATURE
    assert state() == before


@pytest.mark.parametrize("index", [0, 1], ids=["invalid", "valid"])
def test_second_verdict_for_settled_tx_raises(registry, index):
    leader, txs, results = _closing_epoch_run(registry)
    msg = results[index].message
    before = (dict(leader.pending), tuple(leader.rep))
    with pytest.raises(SimulationError, match="settled"):
        leader.apply_verdict(msg)
    assert (leader.pending, tuple(leader.rep)) == before


def test_validate_governor_reads_ground_truth(registry):
    p = make_provider(registry, gen_rate=2, invalid=0.0)
    for tx in p.generate(1):
        assert validate_governor(tx) is True
