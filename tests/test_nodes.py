import dataclasses
import itertools
import math
import re

import pytest

from conftest import make_governor
from repuchain.core_types import (
    TX_SIGNING_SIZE,
    SimSignature,
    Transaction,
    Upload,
    block_bytes,
    label_signing_bytes,
    tx_signing_bytes,
    upload_bytes,
)
from repuchain.consensus import ChainViolation, Violation
from repuchain.crypto_sim import KeyRegistry, sign, substream
from repuchain import consensus, core_types, metrics_oracle, nodes, reputation, scenarios
from repuchain.metrics_oracle import mc_expected_loss
from repuchain.reputation import (
    ReputationState,
    maybe_advance_epoch,
    revenue_shares,
    screen_draw,
    selection_probabilities,
    update_reputations,
)
from repuchain.nodes import (
    CollectorNode,
    ProviderNode,
    SimulationError,
    StrategySpec,
    Verdict,
    VerificationMessage,
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
    return collector.sign_upload(round_no - 1, labels)


def ingest_signed(g, uploads, round_no):
    """``g.ingest`` of ``(collector, labels)`` pairs, each upload genuinely signed."""
    return g.ingest([signed_upload(c, labels, round_no) for c, labels in uploads], round_no)


def replay(replica, leader, results, round_no=1):
    """``replica`` replays ``leader``'s signed message of the verdicts in ``results``,
    as ``replay_verdicts`` does in round ``round_no``; returns the message."""
    msg = leader.sign_verdicts(round_no, [res.verdict for res in results
                                          if res.verdict is not None])
    replica.on_verification_message(msg, leader.id, round_no)
    return msg


def _count_verifies(monkeypatch):
    """Record the bytes of every ``KeyRegistry.verify`` call from here on."""
    checked = []
    original = KeyRegistry.verify

    def counting(self, public, msg, sig):
        checked.append(msg)
        return original(self, public, msg, sig)

    monkeypatch.setattr(KeyRegistry, "verify", counting)
    return checked


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
    assert c.process(tx) == (tx, 1)

    p2 = make_provider(registry, gen_rate=1, invalid=1.0)
    (bad,) = p2.generate(1)
    assert c.process(bad) == (bad, -1)


def test_always_minus_labels_valid_tx_minus(registry):
    c = make_collector(registry, kind="AlwaysMinus")
    p = make_provider(registry, gen_rate=1, invalid=0.0)
    (tx,) = p.generate(1)
    assert c.process(tx) == (tx, -1)


def test_flip_and_withhold_statistics(registry):
    p = make_provider(registry, gen_rate=2000, invalid=0.0)
    txs = p.generate(1)

    flip = make_collector(registry, index=1, kind="FlipProb", q=0.3)
    flipped = sum(1 for tx in txs if flip.process(tx) == (tx, -1))
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
    assert [None if pair is None else pair[1] for pair in got] == expected
    assert c.rng.getstate() == draws.getstate()
    assert (draws.getstate() != untouched) == (kind in ("FlipProb", "Withhold"))
    if kind != "Withhold":
        assert sum(pair is not None for pair in got) == len(delivered)
    for tx, pair in zip(delivered, got):
        if pair is not None:
            assert type(pair) is tuple and pair[0] is tx
            # A one-label upload lists the pair's body after its 48-byte head and 8-byte length.
            assert upload_bytes(c.id, 1, [pair])[56:] == label_signing_bytes(*pair)


def test_collector_signature_binds_label(registry):
    c = make_collector(registry, index=2)
    txs = make_provider(registry, gen_rate=3).generate(1)
    labels = [c.process(tx) for tx in txs]
    upload = c.sign_upload(7, labels)
    assert (upload.collector_id, upload.round_no, upload.labels) == (2, 7, tuple(labels))
    assert upload.signing_bytes == upload_bytes(2, 7, labels)
    sig = upload.signature
    assert registry.verify(c.keypair.public, upload_bytes(2, 7, labels), sig)
    flipped = [labels[0], (txs[1], -1), labels[2]]
    for other in (upload_bytes(2, 7, flipped), upload_bytes(2, 8, labels),
                  upload_bytes(3, 7, labels), upload_bytes(2, 7, labels[::-1]),
                  upload_bytes(2, 7, labels[:2])):
        assert not registry.verify(c.keypair.public, other, sig)


# -- governors ----------------------------------------------------------------


def deliver(registry, governor, tx, collector_index=0, round_no=5, kind="Honest"):
    """One collector's one-label upload of ``tx``, ingested in ``round_no``."""
    c = make_collector(registry, index=collector_index, kind=kind,
                       n_providers=len(governor.rep))
    label = c.process(tx)
    assert label is not None
    signature = c.sign_upload(round_no - 1, [label]).signature
    return governor.on_labeled_transaction(c.id, label, signature, round_no)


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
    minus = (tx, -1)
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
    assert g.ingest([Upload(0, 0, labels0, bad)], 1) == ["bad_collector_sig"] * 2
    assert g.dropped_bad_signature == 2  # counted per copy
    assert not g.inbox


def test_relabeled_copy_with_original_signature_refused(registry):
    g, (a, b), c, (labels0, _) = _two_collector_world(registry)
    upload = c[0].sign_upload(0, labels0)
    flipped = (b, -labels0[1][1])
    assert label_signing_bytes(*flipped) != label_signing_bytes(*labels0[1])
    relabeled = Upload(0, 0, [labels0[0], flipped], upload.signature)
    assert g.ingest([relabeled], 1) == ["bad_collector_sig"] * 2
    assert not g.inbox and g.dropped_bad_signature == 2
    assert g.ingest([upload], 1) == ["ok", "ok"]  # the genuine upload lands
    # No caller can hand an upload or a verdict the bytes of the record it copies;
    # a label is a bare (tx, label) pair and has no bytes to hand.
    with pytest.raises(TypeError):
        Upload(0, 0, relabeled.labels, upload.signature, upload.signing_bytes)
    msg = g.sign_verdicts(1, [g.screen(a.txid).verdict])
    with pytest.raises(TypeError):
        VerificationMessage(msg.leader_id, msg.round_no, msg.verdicts, msg.signature,
                            msg.signing_bytes)


def test_label_moved_into_another_collectors_upload_refuses_both(registry):
    g, (a, b), c, (labels0, labels1) = _two_collector_world(registry)
    up0, up1 = c[0].sign_upload(0, labels0), c[1].sign_upload(0, labels1[:1])
    moved = [Upload(0, 0, labels0[:1], up0.signature),
             Upload(1, 0, [labels1[0], labels0[1]], up1.signature)]
    assert g.ingest(moved, 1) == ["bad_collector_sig"] * 3
    assert not g.inbox and g.dropped_bad_signature == 3
    # A whole upload carried under another collector's id is refused too.
    assert g.ingest([dataclasses.replace(up0, collector_id=1)], 1) == ["bad_collector_sig"] * 2
    assert not g.inbox and g.dropped_bad_signature == 5


def test_upload_replayed_under_another_round_is_refused(registry):
    g, (a, b), c, (labels0, _) = _two_collector_world(registry)
    upload = signed_upload(c[0], labels0, 5)  # uploaded in round 4, due in round 5
    for r in (4, 6):
        assert g.ingest([upload], r) == ["bad_collector_sig"] * 2
        # Restamped with the round it is replayed in, it carries bytes its signature does not cover.
        restamped = dataclasses.replace(upload, round_no=r - 1)
        assert restamped.signing_bytes == upload_bytes(0, r - 1, labels0)
        assert g.ingest([restamped], r) == ["bad_collector_sig"] * 2
    assert not g.inbox and g.dropped_bad_signature == 8
    assert g.ingest([upload], 5) == ["ok", "ok"]


def test_labels_outside_the_signed_upload_are_refused(registry):
    # An upload always carries a signature; labels its signature does not cover,
    # appended after signing or under the signature of an empty upload, refuse it whole.
    g, (a, b), c, (labels0, labels1) = _two_collector_world(registry)
    appended = dataclasses.replace(c[1].sign_upload(0, labels1[:1]), labels=tuple(labels1))
    assert g.ingest([signed_upload(c[0], labels0, 1), appended], 1) == \
        ["ok", "ok", "bad_collector_sig", "bad_collector_sig"]
    empty = c[1].sign_upload(0, [])
    assert g.ingest([dataclasses.replace(empty, labels=tuple(labels1))], 1) == \
        ["bad_collector_sig"] * 2
    assert g.dropped_bad_signature == 4
    assert g.inbox[a.txid][2] == g.inbox[b.txid][2] == {0: 1}


def test_bad_upload_leaves_another_collectors_labels_ok(registry):
    g, (a, b), c, (labels0, labels1) = _two_collector_world(registry)
    uploads = [Upload(0, 0, labels0, SimSignature(b"\1" * 32)), signed_upload(c[1], labels1, 1)]
    assert g.ingest(uploads, 1) == ["bad_collector_sig"] * 2 + ["ok"] * 2
    assert g.inbox[a.txid][2] == g.inbox[b.txid][2] == {1: 1}
    assert g.dropped_bad_signature == 2


def test_a_round_signs_one_upload_per_uploading_collector(monkeypatch):
    # Labelling signs nothing; each collector that uploads anything, forgeries
    # included, signs once at the end of the round. The leader signs the round's
    # verdicts once, when it verified any, through the same module global, which
    # the benchmark's tracer rebinds.
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
    signed_messages = 0
    for _ in range(8):
        signed.clear()
        step_round(w)
        uploaders = [upload.collector_id for upload in w.to_governors]
        assert uploaders == sorted(set(uploaders))  # one upload a collector, in id order
        assert all(upload.labels for upload in w.to_governors)
        assert forgers <= set(uploaders)
        assert sorted(collector_keys[k] for k in signed if k in collector_keys) == uploaders
        messages = sum(k in governor_keys for k in signed)
        assert messages == (w.metrics.rounds[-1].txs_verified > 0)
        signed_messages += messages
    assert signed_messages > 0


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


def test_forged_copies_are_refused_at_every_governor():
    # properties(10): three governors and one Forger. Each round's forgeries
    # reach every governor the round after, and each refuses all of them.
    w = init_world(ScenarioConfig.from_dict(scenarios.properties(10)))
    assert len(w.governors) > 1
    for _ in range(6):
        step_round(w)
    in_flight = sum(tx.seq >= nodes.FORGED_SEQ_BASE
                    for upload in w.to_governors for tx, _ in upload.labels)
    delivered = w.metrics.forgery_attempts - in_flight
    assert delivered > 0
    for g in w.governors:
        assert g.dropped_forged == delivered
        held = list(g.inbox) + list(g.pending) + list(g.ledger.settled)
        assert all(seq < nodes.FORGED_SEQ_BASE for _, seq, _ in held)


def test_batched_ingest_matches_one_copy_at_a_time(registry):
    # Provider 0 reaches collectors 0 and 1, provider 1 only collector 2.
    topology = ((0, 1), (2,))
    governors = [make_governor(registry, topology=topology, gov_index=k, n_collectors=4)
                 for k in (0, 1)]
    c0, c1, c2, c3 = (make_collector(registry, index=j, n_providers=2) for j in range(4))
    a, b, verified, settled = make_provider(registry, gen_rate=4).generate(1)
    (d,) = make_provider(registry, node_id=1).generate(1)
    for g in governors:
        g.pending[verified.txid] = (verified, frozenset({0}))
        g.ledger.settled.add(settled.txid)
    forged_tx = Transaction(0, 99, 1, True, SimSignature(b"\x42" * 32))
    bad = SimSignature(b"\x01" * 32)
    uploads = [
        signed_upload(c0, [
            c0.process(a),
            (a, -1),  # conflicting
            c0.process(a),
            (forged_tx, 1),
        ], 5),
        Upload(3, 4, [c3.process(b)], bad),  # collector 3's upload carries a bad tag
        signed_upload(c1, [c1.process(a), c1.process(verified), c1.process(settled),
                           c1.process(b)], 5),
        Upload(9, 4, [(b, 1)], bad),  # unknown collector
        signed_upload(c2, [c2.process(b), c2.process(d)], 5),  # 2 does not serve provider 0
    ]
    signers = {0: c0, 1: c1, 2: c2}

    def one_label_signature(cid, label):
        signer = signers.get(cid)
        return bad if signer is None else signer.sign_upload(4, [label]).signature

    batched, one_by_one = governors
    codes = batched.ingest(uploads, 5)
    assert codes == [one_by_one.on_labeled_transaction(
                         u.collector_id, label, one_label_signature(u.collector_id, label), 5)
                     for u in uploads for label in u.labels]
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
    assert [res.verdict.received for res in results] == [((0, 1), (1, -1))] * 2
    assert leader.pending[good.txid] == (good, frozenset({0}))
    assert leader.rep[0].reps == (-1, 0) and leader.rep[1].reps == (0, -1)
    replay(replica, leader, results)
    assert replica.rep == leader.rep
    assert replica.state_fingerprint() == leader.state_fingerprint()
    for g in (leader, replica):  # each files the verdict's own +1 set
        assert g.pending[good.txid][1] is results[1].verdict.plus


def test_detached_provider_signature_is_forged(registry):
    # A collector that wraps a genuine provider tag in a record with a made-up
    # seq gains nothing: the record's bytes come from its fields alone.
    g = make_governor(registry, topology=((0,),))
    (tx,) = make_provider(registry).generate(1)
    assert deliver(registry, g, tx, 0) == "ok"
    before = dict(g.inbox)
    detached = Transaction(tx.provider_id, tx.seq + 1, tx.timestamp, False, tx.signature)
    c0 = make_collector(registry)
    copy = (detached, 1)
    assert ingest_signed(g, [(c0, [copy])], 5) == ["forged"]
    assert g.dropped_forged == 1
    assert g.inbox == before
    with pytest.raises(TypeError):
        Transaction(tx.provider_id, tx.seq + 1, tx.timestamp, False, tx.signature,
                    tx_signing_bytes(*tx.txid))


def _tag_flipped(tx):
    """``tx`` under the same txid, with the last byte of its provider tag flipped."""
    tag = tx.signature.tag
    return Transaction(tx.provider_id, tx.seq, tx.timestamp, tx.ground_truth_valid,
                       SimSignature(tag[:-1] + bytes([tag[-1] ^ 1])))


def test_copy_under_an_accepted_txid_with_other_bytes_is_checked(registry):
    # Only the held object skips the provider check; the txid alone proves nothing.
    g = make_governor(registry, topology=((0, 1),))
    (tx,) = make_provider(registry).generate(1)
    assert deliver(registry, g, tx, 0) == "ok"
    forged = _tag_flipped(tx)
    assert forged.txid == tx.txid and forged.wire_bytes != tx.wire_bytes
    c1 = make_collector(registry, index=1)
    copy = (forged, 1)
    assert ingest_signed(g, [(c1, [copy])], 5) == ["forged"]
    assert g.dropped_forged == 1
    (held, expiry, labels) = g.inbox[tx.txid]
    assert (held, expiry, labels) == (tx, 6, {0: 1})
    assert held.wire_bytes == tx.wire_bytes
    assert deliver(registry, g, tx, 1) == "ok"  # the genuine copy still lands
    assert g.inbox[tx.txid][2] == {0: 1, 1: 1}


def test_distinct_copy_with_the_held_bytes_is_checked(registry, monkeypatch):
    # A copy that is not the held object gets the provider check even with its
    # exact bytes; it passes, and its label joins the held entry.
    g = make_governor(registry, topology=((0, 1),))
    (tx,) = make_provider(registry).generate(1)
    assert deliver(registry, g, tx, 0) == "ok"
    twin = Transaction(tx.provider_id, tx.seq, tx.timestamp, tx.ground_truth_valid,
                       tx.signature)
    assert twin is not tx and twin.wire_bytes == tx.wire_bytes
    upload = signed_upload(make_collector(registry, index=1), [(twin, 1)], 5)
    checked = _count_verifies(monkeypatch)
    assert g.ingest([upload], 5) == ["ok"]
    assert checked == [upload.signing_bytes, tx_signing_bytes(*tx.txid)]
    held, _, labels = g.inbox[tx.txid]
    assert held is tx and labels == {0: 1, 1: 1}


def test_each_governor_checks_a_provider_signature_once(registry, monkeypatch):
    # k copies from k collectors cost k upload checks and one provider check per
    # governor (the first copy's; the others carry the same object), the round's
    # verification message one leader-signature check at the replica, and a
    # block packing the head of pending costs the leader-signature check alone.
    k = 3
    topology = ((0, 1, 2),)
    leader, replica = (make_governor(registry, topology=topology, gov_index=i) for i in (0, 1))
    (tx,) = make_provider(registry).generate(1)
    collectors = [make_collector(registry, index=j) for j in range(k)]
    copies = [c.process(tx) for c in collectors]
    uploads = [signed_upload(c, [copy], 1) for c, copy in zip(collectors, copies)]
    checked = _count_verifies(monkeypatch)
    for g in (leader, replica):
        checked.clear()
        assert g.ingest(uploads, 1) == ["ok"] * k
        upload_checks = [upload_bytes(j, 0, [copy]) for j, copy in enumerate(copies)]
        assert checked == [upload_checks[0], tx_signing_bytes(*tx.txid), *upload_checks[1:]]
    res = leader.screen(tx.txid)
    assert res.outcome == "valid"
    checked.clear()
    msg = replay(replica, leader, [res])
    assert checked == [msg.signing_bytes]
    signed, lists = leader.propose_round([res])
    assert signed.block.tx_list == (tx,)
    for g in (leader, replica):
        checked.clear()
        g.apply_block(signed, lists, leader.id)
        assert checked == [block_bytes(signed.block)]
        assert g.ledger.settled == {tx.txid} and not g.pending


def test_signers_encode_each_signed_record_once(registry, monkeypatch):
    # A transaction's signed triple is encoded once, by its provider, which signs
    # those bytes and carries them as its wire bytes' prefix. A label is encoded
    # only inside its upload, and an upload once, by its signer, however many
    # governors check it. A verdict is encoded only inside its round's message;
    # the bytes a leader signs are the bytes that message carries, and a
    # replica checks those.
    calls = {}
    for module in (core_types, nodes):
        for name in ("tx_signing_bytes", "label_signing_bytes", "upload_bytes",
                     "verification_message_bytes"):
            if hasattr(module, name):
                def counting(*args, _original=getattr(module, name), _name=name):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counting)
    leader, replica = (make_governor(registry, topology=((0,),), gov_index=k) for k in (0, 1))
    txs = make_provider(registry, gen_rate=3, invalid=0.0).generate(1)
    assert calls == {"tx_signing_bytes": 3}
    tx = txs[0]
    # The test's own, unwrapped binding: this call is not counted.
    assert tx.wire_bytes[:TX_SIGNING_SIZE] == tx_signing_bytes(*tx.txid)
    c = make_collector(registry)
    label = c.process(tx)
    assert calls == {"tx_signing_bytes": 3}
    assert label == (tx, 1)
    upload = c.sign_upload(0, [label])
    assert calls == {"tx_signing_bytes": 3, "upload_bytes": 1}
    assert upload.signing_bytes == upload_bytes(c.id, 0, [label])
    assert upload.signing_bytes[56:] == label_signing_bytes(tx, 1)
    for g in (leader, replica):
        assert g.ingest([upload], 1) == ["ok"]
    res = leader.screen(tx.txid)
    assert res.outcome == "valid"
    assert calls == {"tx_signing_bytes": 3, "upload_bytes": 1}
    msg = replay(replica, leader, [res])
    assert replica.state_fingerprint() == leader.state_fingerprint()
    assert calls == {"tx_signing_bytes": 3, "upload_bytes": 1, "verification_message_bytes": 1}
    assert msg.signing_bytes == verification_message_bytes(leader.id, 1, (res.verdict,))


def test_each_round_is_committed_once_and_encoded_at_most_twice(monkeypatch):
    # The leader hashes the round's lists once, in RoundLists, and encodes its
    # block at most twice: for Block.hash and for the bytes SignedBlock carries
    # and the leader signs. Every governor checks against those, so neither
    # count grows with the number of governors.
    w = init_world(ScenarioConfig.from_dict(scenarios.properties(10)))
    assert len(w.governors) >= 3
    calls = {}
    for module in (core_types, consensus, nodes):
        for name in ("lists_commitment_root", "block_bytes"):
            if hasattr(module, name):
                def counting(*args, _original=getattr(module, name), _name=name):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counting)
    for _ in range(8):
        step_round(w)
    blocks = len(w.governors[0].ledger.blocks) - 1
    assert blocks > 0
    assert calls["lists_commitment_root"] == blocks
    assert blocks <= calls["block_bytes"] <= 2 * blocks


class TrustingRegistry:
    """A governor's registry that takes every governor signature on trust."""

    def __init__(self, registry):
        self.registry = registry

    def __getattr__(self, name):
        return getattr(self.registry, name)

    def verify_as(self, role, index, msg, sig):
        return role == "governor" or self.registry.verify_as(role, index, msg, sig)


@pytest.mark.parametrize("lazy", [None, "verdict", "block"])
def test_every_replica_checks_every_leader_signature(monkeypatch, lazy):
    # Each round's verification message, signed once over all of the round's
    # verdicts, is checked by the m - 1 replicas that replay it, and each block
    # by all m governors, its leader too. A total of verifies against replays
    # cannot see one replica skip a check; this count can, so a lazy replica,
    # skipping its message or its block check, makes it come up short.
    w = init_world(ScenarioConfig.from_dict(scenarios.properties(10)))
    m = len(w.governors)
    assert m == 3
    counts = {"governor_checks": 0, "messages": 0}
    verify_as, sign_verdicts = KeyRegistry.verify_as, nodes.GovernorNode.sign_verdicts

    def counting_verify_as(self, role, index, msg, sig):
        counts["governor_checks"] += role == "governor"
        return verify_as(self, role, index, msg, sig)

    def counting_sign_verdicts(self, round_no, verdicts):
        assert verdicts  # a round that verified nothing sends no message
        counts["messages"] += 1
        return sign_verdicts(self, round_no, verdicts)

    monkeypatch.setattr(KeyRegistry, "verify_as", counting_verify_as)
    monkeypatch.setattr(nodes.GovernorNode, "sign_verdicts", counting_sign_verdicts)
    slacker = w.governors[1]
    if lazy == "verdict":
        replay_message = nodes.GovernorNode.on_verification_message

        def skipping_replay(self, msg, leader_id, round_no):
            if self is not slacker:
                return replay_message(self, msg, leader_id, round_no)
            for verdict in msg.verdicts:
                self.assert_no_gaps(verdict)
                self.apply_verdict(verdict)

        monkeypatch.setattr(nodes.GovernorNode, "on_verification_message", skipping_replay)
    elif lazy == "block":
        validate_and_append = nodes.validate_and_append

        def skipping_append(ledger, signed, leader, registry, *rest):
            if ledger is slacker.ledger and leader != slacker.id:
                registry = TrustingRegistry(registry)
            return validate_and_append(ledger, signed, leader, registry, *rest)

        monkeypatch.setattr(nodes, "validate_and_append", skipping_append)
    for _ in range(8):
        step_round(w)
    blocks = len(w.governors[0].ledger.blocks) - 1
    verified_rounds = sum(1 for row in w.metrics.rounds if row.txs_verified)
    assert blocks > 0 and counts["messages"] == verified_rounds > 0
    assert sum(row.txs_verified for row in w.metrics.rounds) > verified_rounds
    expected = (m - 1) * verified_rounds + m * blocks
    if lazy is None:
        assert counts["governor_checks"] == expected
    else:
        assert counts["governor_checks"] < expected


def test_every_governor_files_the_verdicts_own_plus_set(monkeypatch):
    # The leader and every replica file in pending the +1 set the verdict
    # derived once, not a set of their own.
    w = init_world(ScenarioConfig.from_dict(scenarios.properties(10)))
    apply_verdict = nodes.GovernorNode.apply_verdict
    filed = {g.id: 0 for g in w.governors}

    def checking_apply_verdict(self, verdict):
        closure = apply_verdict(self, verdict)
        if verdict.validbit:
            assert self.pending[verdict.txid][1] is verdict.plus
            filed[self.id] += 1
        return closure

    monkeypatch.setattr(nodes.GovernorNode, "apply_verdict", checking_apply_verdict)
    for _ in range(8):
        step_round(w)
    assert len(filed) == 3 and len(set(filed.values())) == 1 and filed[0] > 0


def test_upload_record_encodes_its_own_bytes(registry):
    # The constructor, the signer and dataclasses.replace all encode an upload's
    # bytes from its fields; a record changed after signing no longer verifies.
    g, (a, b), c, (labels0, _) = _two_collector_world(registry)
    upload = c[0].sign_upload(0, labels0)
    assert upload.labels == tuple(labels0)
    assert upload == Upload(0, 0, labels0, upload.signature)
    with pytest.raises(TypeError):
        Upload(0, 0, labels0, upload.signature, upload.signing_bytes)
    with pytest.raises(dataclasses.FrozenInstanceError):
        upload.signing_bytes = upload_bytes(0, 1, labels0)
    changed = [dataclasses.replace(upload, labels=upload.labels[:1]),
               dataclasses.replace(upload, labels=upload.labels[::-1]),
               dataclasses.replace(upload, round_no=1)]
    for other in changed:
        assert other.signature == upload.signature
        assert other.signing_bytes == upload_bytes(other.collector_id, other.round_no, other.labels)
        assert other.signing_bytes != upload.signing_bytes
    assert g.ingest(changed[:2], 1) == ["bad_collector_sig"] * 3
    assert g.ingest(changed[2:], 2) == ["bad_collector_sig"] * 2
    assert not g.inbox and g.dropped_bad_signature == 5
    assert g.ingest([upload], 1) == ["ok", "ok"]


def test_upload_from_another_round_is_refused_unchecked(registry, monkeypatch):
    # The governor compares the upload's round with its own before any signature
    # check: a genuine signature for another round costs no verify call.
    g, (a, b), c, (labels0, _) = _two_collector_world(registry)
    checked = _count_verifies(monkeypatch)
    for sent in (0, 1, 3):
        upload = c[0].sign_upload(sent, labels0)
        assert g.ingest([upload], 3) == ["bad_collector_sig"] * 2
    assert checked == [] and not g.inbox
    upload = c[0].sign_upload(2, labels0)
    assert g.ingest([upload], 3) == ["ok", "ok"]
    assert checked[0] == upload.signing_bytes


def test_screen_single_honest_collector_always_verifies(registry):
    g = make_governor(registry, topology=((0,),))
    p = make_provider(registry, gen_rate=1, invalid=0.0)
    (tx,) = p.generate(1)
    deliver(registry, g, tx, 0, round_no=1)
    res = g.screen(tx.txid)
    assert res.outcome == "valid"
    assert res.loss == 0.0
    assert g.pending == {tx.txid: (tx, frozenset({0}))}
    assert g.pending[tx.txid][1] is res.verdict.plus
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
    assert res.verdict is None
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
    verdict = res.verdict
    assert verdict is not None
    assert verdict.cnt == 1 and verdict.validbit is False
    assert dict(verdict.received) == {0: 1, 1: -1}


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


def _verdicts(registry, n=2):
    """A leader's ``n`` verdicts for one provider, and a replica that saw every tx."""
    leader = make_governor(registry, topology=((0,),), gov_index=0)
    p = make_provider(registry, gen_rate=n, invalid=1.0)
    txs = p.generate(1)
    for tx in txs:
        deliver(registry, leader, tx, 0, round_no=1, kind="AlwaysPlus")
    verdicts = [leader.screen(tx.txid).verdict for tx in txs]
    replica = make_governor(registry, topology=((0,),), gov_index=1)
    for tx in txs:
        deliver(registry, replica, tx, 0, round_no=1, kind="AlwaysPlus")
    return leader, replica, verdicts


def replica_state(g):
    return (dict(g.inbox), dict(g.pending), tuple(g.rep))


def test_verification_replay_in_and_out_of_order(registry):
    # One message replays in its signed order. Reordered, it is still genuinely
    # signed, but its first verdict skips ahead, so nothing applies.
    leader, replica_in_order, (v1, v2) = _verdicts(registry)
    assert (v1.cnt, v2.cnt) == (1, 2)
    msg = leader.sign_verdicts(1, [v1, v2])
    replica_in_order.on_verification_message(msg, leader.id, 1)
    assert replica_in_order.rep[0] == leader.rep[0]
    assert replica_state(replica_in_order) == replica_state(leader)

    _, replica_reversed, _ = _verdicts(registry)
    before = replica_state(replica_reversed)
    with pytest.raises(SimulationError, match="skipped-ahead.*cnt=2, expected 1"):
        replica_reversed.on_verification_message(leader.sign_verdicts(1, [v2, v1]), leader.id, 1)
    assert replica_state(replica_reversed) == before


def test_verification_gap_is_fatal(registry):
    # A gap at a message's first verdict changes nothing. A gap inside a signed
    # message raises after the verdicts before it were applied: SimulationError
    # stops the run, so that partial state is never read.
    leader, replica, (v1, v2, v3) = _verdicts(registry, 3)
    del replica.inbox[v1.txid]  # only the later transactions reached it
    before = replica_state(replica)
    with pytest.raises(SimulationError, match="skipped-ahead.*cnt=2, expected 1"):
        replica.on_verification_message(leader.sign_verdicts(1, [v2, v3]), leader.id, 1)
    assert replica_state(replica) == before

    _, replica, _ = _verdicts(registry, 3)
    _, after_first, _ = _verdicts(registry, 3)
    after_first.on_verification_message(leader.sign_verdicts(1, [v1]), leader.id, 1)
    with pytest.raises(SimulationError, match="skipped-ahead.*cnt=3, expected 2"):
        replica.on_verification_message(leader.sign_verdicts(1, [v1, v3]), leader.id, 1)
    assert replica_state(replica) == replica_state(after_first) != before


def test_stale_verification_message_is_fatal(registry):
    # The round's message replayed twice, or its verdicts re-signed in a later
    # round, passes the round and signature checks and is refused as stale.
    leader, replica, (v1, v2) = _verdicts(registry)
    msg = leader.sign_verdicts(1, [v1, v2])
    replica.on_verification_message(msg, leader.id, 1)
    before = replica_state(replica)
    with pytest.raises(SimulationError, match="stale.*cnt=1, expected 3"):
        replica.on_verification_message(msg, leader.id, 1)
    for verdict in (v1, v2):
        with pytest.raises(SimulationError, match=f"stale.*cnt={verdict.cnt}, expected 3"):
            replica.on_verification_message(leader.sign_verdicts(2, [verdict]), leader.id, 2)
    assert replica_state(replica) == before


def test_verification_message_bad_signature_rejected(registry):
    # A verdict changed under the leader's signature, a message signed by a key
    # enrolled as no governor, and a flipped tag are each refused, changing nothing.
    leader, replica, (v1, v2) = _verdicts(registry)
    msg = leader.sign_verdicts(1, [v1, v2])
    tampered = VerificationMessage(
        msg.leader_id, msg.round_no,
        (v1, dataclasses.replace(v2, validbit=not v2.validbit)), msg.signature)
    assert msg.signing_bytes == verification_message_bytes(leader.id, 1, (v1, v2)) \
        != tampered.signing_bytes
    body = verification_message_bytes(99, 1, (v1, v2))
    unknown_leader = VerificationMessage(99, 1, (v1, v2), sign(leader.keypair, body))
    flipped = VerificationMessage(leader.id, 1, (v1, v2),
                                  msg.signature[:-1] + bytes([msg.signature[-1] ^ 1]))
    before = replica_state(replica)
    for bad, leader_id in ((tampered, leader.id), (unknown_leader, 99), (flipped, leader.id)):
        with pytest.raises(SimulationError, match="bad leader signature"):
            replica.on_verification_message(bad, leader_id, 1)
        assert replica_state(replica) == before
    replica.on_verification_message(msg, leader.id, 1)  # the genuine message lands
    assert replica_state(replica) == replica_state(leader)


def test_verification_message_from_a_non_leader_governor_is_refused(registry, monkeypatch):
    # Governor 2 is genuine and enrolled, and signs the leader's verdicts with its
    # own key under its own id; the round elected governor 0. The replica refuses
    # before any signature check, and nothing changes.
    leader, replica, verdicts = _verdicts(registry)
    other = make_governor(registry, topology=((0,),), gov_index=2)
    forged = other.sign_verdicts(1, verdicts)
    assert registry.verify_as("governor", 2, forged.signing_bytes, forged.signature)
    checked = _count_verifies(monkeypatch)
    before = replica_state(replica)
    with pytest.raises(SimulationError,
                       match="from governor 2, round 1; expected leader 0, round 1"):
        replica.on_verification_message(forged, leader.id, 1)
    assert replica_state(replica) == before and checked == []


def test_verification_message_from_another_round_is_refused(registry, monkeypatch):
    # The leader's genuine message of round 2, or of round 0, replayed in
    # round 1: refused before any signature check, and nothing changes.
    leader, replica, verdicts = _verdicts(registry)
    checked = _count_verifies(monkeypatch)
    before = replica_state(replica)
    for sent in (0, 2):
        with pytest.raises(SimulationError, match=f"round {sent}; expected leader 0, round 1"):
            replica.on_verification_message(leader.sign_verdicts(sent, verdicts), leader.id, 1)
    assert replica_state(replica) == before and checked == []
    msg = leader.sign_verdicts(1, verdicts)
    replica.on_verification_message(msg, leader.id, 1)
    assert checked == [msg.signing_bytes]


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
    assert [r.verdict.cnt for r in results] == [1, 2, 1]
    assert results[0].closure is None and results[2].closure is None
    closure = results[1].closure
    assert (closure.provider_id, closure.epoch_index) == (0, 0)
    assert closure.eta == 0.5
    assert closure.revenue == revenue_shares((-1, 0), 0.7)
    state = leader.rep[0]
    assert (state.epoch_index, state.epoch_threshold, state.cnt) == (1, 4, 1)
    assert [r.epoch_index for r in results] == [0, 0, 1]


def _slot_labels(u):
    """Every assignment of +1, -1 or no label to ``u`` slots, as a slot -> label dict."""
    for combo in itertools.product((1, -1, None), repeat=u):
        yield {k: lab for k, lab in enumerate(combo) if lab is not None}


@pytest.mark.parametrize("u", [1, 2, 3, 4])
def test_replica_verdict_transition_matches_the_reference_update(registry, u):
    # Every per-slot label in {+1, -1, absent} and both verdicts, from a state in
    # mid-epoch and from one a step short of its boundary: a replica's transition
    # equals the oracle's update followed by the epoch step, and penalizes the
    # slots the leader's screening draw reports.
    leader, replica = (make_governor(registry, topology=(tuple(range(u)),), threshold=4,
                                     gov_index=k) for k in (0, 1))
    (tx,) = make_provider(registry).generate(1)
    starts = [
        ReputationState(tuple(-k for k in range(u)), 1, 4, 0.5, 0),
        ReputationState(tuple(-2 * k for k in range(u)), 3, 4, 0.5, 2),
    ]
    closures = 0
    for state, labels, validbit in itertools.product(starts, _slot_labels(u), (True, False)):
        received = tuple(sorted(labels.items()))
        verdict = Verdict(0, tx.txid, validbit, received, state.cnt + 1)
        assert verdict.plus == {k for k, lab in labels.items() if lab == 1}
        replica.rep[0] = state
        replica.inbox[tx.txid] = (tx, 2, dict(labels))
        replica.pending.clear()
        closure = replica.apply_verdict(verdict)
        updated = update_reputations(state, labels, validbit)
        expected, revenue = maybe_advance_epoch(updated, replica.mu, replica.eta_policy)
        assert replica.rep[0] == expected
        assert closure == (None if revenue is None
                           else nodes.EpochClosure(0, state.epoch_index, state.eta, revenue))
        closures += closure is not None
        assert (tx.txid in replica.pending) is validbit and tx.txid not in replica.inbox
        # The rule as the reputation module states it, written out here on its own.
        rule = tuple(k for k in range(u)
                     if (labels.get(k) != 1 if validbit else labels.get(k) == 1))
        assert updated.reps == tuple(r - (k in rule) for k, r in enumerate(state.reps))
        # The leader's draw, landing on each +1 slot in turn, penalizes the same slots.
        probs = selection_probabilities(state.reps, state.eta)
        for k in verdict.plus:
            rng = ForcedRng([sum(probs[:k]) + probs[k] / 2])
            verdict, pen, loss = screen_draw(state, labels, rng, lambda _: validbit, None)
            assert verdict is validbit and pen == rule
            assert loss == sum(probs[j] for j in rule)
    assert closures == 2 * 3 ** u


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
    replay(replica, leader, results)
    assert replica.rep == leader.rep
    assert not replica.inbox and not leader.inbox
    assert replica.pending == leader.pending
    assert list(replica.pending) == [tx.txid for tx in txs[1:]]
    assert replica.state_fingerprint() == leader.state_fingerprint()


def test_verdict_replayed_into_the_next_epoch_is_refused(registry):
    # The closing verdict resets cnt, so the first verdict's cnt=1 is "next"
    # again; only the settled check in apply_verdict refuses it, re-signed by
    # the leader in the next round.
    leader, txs, results = _closing_epoch_run(registry)
    replica = _replica_of(registry, leader, txs)
    replay(replica, leader, results[:2])
    before = (dict(replica.inbox), dict(replica.pending), tuple(replica.rep))
    with pytest.raises(SimulationError, match=re.escape(
            "verdict for unseen or settled transaction (0, 1, 1)")):
        replay(replica, leader, results[:1], round_no=2)
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
    # A payload that is the head's own object skips the provider check, not the label rule.
    first = head[0].txid
    queued, plus = leader.pending[first]
    assert queued is head[0]
    leader.pending[first] = (queued, frozenset())
    unlabeled = state()
    with pytest.raises(ChainViolation) as exc:
        leader.apply_block(good, lists, leader.id)
    assert exc.value.violation is Violation.UNLABELED_TX
    assert state() == unlabeled
    leader.pending[first] = (queued, plus)
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
        assert ingest_signed(g, [(collector, [(tx, 1)])], 6) == ["forged"]
        assert g.dropped_forged == 1
    elif case == "upload-by-provider":
        (tx,) = make_provider(registry).generate(5)
        labels = [collector.process(tx)]
        body = upload_bytes(0, 5, labels)
        assert g.ingest([Upload(0, 5, labels, sign(provider_kp, body))], 6) == ["bad_collector_sig"]
        assert g.dropped_bad_signature == 1
    elif case == "verdict-by-collector":
        verdicts = (results[0].verdict,)
        body = verification_message_bytes(leader.id, 1, verdicts)
        forged = VerificationMessage(leader.id, 1, verdicts, sign(collector.keypair, body))
        with pytest.raises(SimulationError, match="bad leader signature"):
            g.on_verification_message(forged, leader.id, 1)
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
    verdict = results[index].verdict
    before = (dict(leader.pending), tuple(leader.rep))
    with pytest.raises(SimulationError, match="settled"):
        leader.apply_verdict(verdict)
    assert (leader.pending, tuple(leader.rep)) == before


def test_validate_governor_reads_ground_truth(registry):
    p = make_provider(registry, gen_rate=2, invalid=0.0)
    for tx in p.generate(1):
        assert validate_governor(tx) is True
