import math

import pytest

from conftest import make_governor
from repuchain.core_types import (
    LabeledTransaction,
    SimSignature,
    Transaction,
    label_signing_bytes,
)
from repuchain.crypto_sim import sign, substream
from repuchain.reputation import revenue_shares
from repuchain.nodes import (
    CollectorNode,
    ProviderNode,
    SimulationError,
    StrategySpec,
    validate_governor,
)


class ForcedRng:
    """Deterministic stand-in for the leader's draw stream."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0) if self.values else 0.0


def make_provider(registry, node_id=0, connected=(0,), gen_rate=1, invalid=0.0):
    return ProviderNode(
        node_id=node_id,
        keypair=registry.issue(node_id),
        connected_collectors=tuple(connected),
        gen_rate=gen_rate,
        invalid_fraction=invalid,
        rng=substream(42, "provider", node_id),
    )


def make_collector(registry, index=0, kind="Honest", q=0.0, forge_rate=1, n_providers=1):
    publics = {i: registry.issue(i).public for i in range(n_providers)}
    return CollectorNode(
        node_id=index,
        keypair=registry.issue(1000 + index),
        strategy=StrategySpec(kind=kind, q=q, forge_rate=forge_rate),
        registry=registry,
        provider_publics=publics,
        rng=substream(42, "collector", index),
    )


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
    assert p.on_feedback([], [tx.txid]) == [tx]
    # same transaction identity on every retry
    for _ in range(3):
        resub = p.on_feedback([], [tx.txid])
        assert resub == [tx]


def test_feedback_drops_invalid_and_ignores_settled(registry):
    p = make_provider(registry, gen_rate=2)
    t1, t2 = p.generate(1)
    p.on_chain([t1.txid])
    assert t1.txid not in p.pending
    assert p.on_feedback([t2.txid], []) == []
    assert t2.txid not in p.pending


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


def test_collector_ignores_known_invalid(registry):
    c = make_collector(registry)
    p = make_provider(registry, gen_rate=1)
    (tx,) = p.generate(1)
    c.note_invalid([tx.txid])
    assert c.process(tx) is None


def test_collector_signature_binds_label(registry):
    c = make_collector(registry)
    p = make_provider(registry, gen_rate=1)
    (tx,) = p.generate(1)
    ltx = c.process(tx)
    from repuchain.core_types import label_signing_bytes

    assert registry.verify(c.keypair.public, label_signing_bytes(tx, ltx.label), ltx.signature)
    assert not registry.verify(c.keypair.public, label_signing_bytes(tx, -ltx.label), ltx.signature)


# -- governors ----------------------------------------------------------------


def deliver(registry, governor, tx, collector_index=0, round_no=5, kind="Honest"):
    c = make_collector(registry, index=collector_index, kind=kind,
                       n_providers=len(governor.topology))
    ltx = c.process(tx)
    assert ltx is not None
    return governor.on_labeled_transaction(ltx, round_no)


def test_first_copy_starts_timer(registry):
    g = make_governor(registry, topology=((0, 1),), delta_rounds=2)
    p = make_provider(registry, gen_rate=1, connected=(0, 1))
    (tx,) = p.generate(4)
    assert deliver(registry, g, tx, 0, round_no=5) == "ok"
    assert g.timers[tx.txid] == 7  # first sighting + delta
    deliver(registry, g, tx, 1, round_no=5)
    assert g.timers[tx.txid] == 7  # unchanged by later copies
    assert g.expired(7) == [tx.txid]


def test_conflicting_label_from_same_collector_ignored(registry):
    g = make_governor(registry, topology=((0, 1),))
    p = make_provider(registry, gen_rate=1, connected=(0, 1))
    (tx,) = p.generate(1)
    c = make_collector(registry, index=0, kind="Honest", n_providers=1)
    plus = c.process(tx)
    minus = LabeledTransaction(
        tx=tx, label=-1, collector_id=0,
        signature=sign(c.keypair, label_signing_bytes(tx, -1)),
    )
    assert g.on_labeled_transaction(plus, 1) == "ok"
    assert g.on_labeled_transaction(minus, 1) == "duplicate"
    assert g.received[tx.txid] == {0: 1}
    # exact duplicate also leaves the set unchanged
    assert g.on_labeled_transaction(plus, 1) == "duplicate"
    assert g.received[tx.txid] == {0: 1}


def test_bad_collector_signature_dropped(registry):
    g = make_governor(registry, topology=((0,),))
    p = make_provider(registry, gen_rate=1)
    (tx,) = p.generate(1)
    fake = LabeledTransaction(tx=tx, label=1, collector_id=0, signature=SimSignature(b"\1" * 32))
    assert g.on_labeled_transaction(fake, 1) == "bad_collector_sig"
    assert g.dropped_bad_signature == 1
    assert tx.txid not in g.received


def test_forged_transactions_rejected_10k_attempts(registry):
    g = make_governor(registry, topology=((0,), (0,)), n_providers=2)
    forger = make_collector(registry, index=0, kind="Forger", forge_rate=10_000,
                            n_providers=2)
    attempts = forger.forge(round_no=1, n_providers=2)
    assert len(attempts) == 10_000
    accepted = sum(1 for ltx in attempts if g.on_labeled_transaction(ltx, 1) == "ok")
    assert accepted == 0
    assert g.dropped_forged == 10_000
    assert not g.received


def test_screen_single_honest_collector_always_verifies(registry):
    g = make_governor(registry, topology=((0,),))
    p = make_provider(registry, gen_rate=1, invalid=0.0)
    (tx,) = p.generate(1)
    deliver(registry, g, tx, 0, round_no=1)
    res = g.screen(tx.txid)
    assert res.outcome == "valid"
    assert res.probs == (1.0,)
    assert res.loss == 0.0
    assert g.pending_valid == [tx]
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


def test_screen_verified_valid_penalizes_minus_and_absent(registry):
    g = make_governor(registry, topology=((0, 1, 2),))
    g.draw_rng = ForcedRng([0.0])
    p = make_provider(registry, gen_rate=1, invalid=0.0, connected=(0, 1, 2))
    (tx,) = p.generate(1)
    deliver(registry, g, tx, 0, round_no=1, kind="Honest")       # +1
    deliver(registry, g, tx, 1, round_no=1, kind="AlwaysMinus")  # -1
    # slot 2 never reports
    res = g.screen(tx.txid)
    assert res.outcome == "valid"
    assert res.penalized == (1, 2)
    assert abs(res.loss - 2 / 3) < 1e-12
    assert g.rep[0].reps == (0, -1, -1)


def test_verification_replay_in_and_out_of_order(registry):
    def fresh(gov_index):
        return make_governor(registry, topology=((0,),), gov_index=gov_index)

    leader = fresh(0)
    p = make_provider(registry, gen_rate=2, invalid=1.0)
    t1, t2 = p.generate(1)
    for tx in (t1, t2):
        deliver(registry, leader, tx, 0, round_no=1, kind="AlwaysPlus")
    m1 = leader.screen(t1.txid).message
    m2 = leader.screen(t2.txid).message
    assert (m1.cnt, m2.cnt) == (1, 2)

    replica_in_order = fresh(1)
    replica_reversed = fresh(2)
    for rep in (replica_in_order, replica_reversed):
        rep.governor_publics[0] = leader.keypair.public
        for tx in (t1, t2):
            deliver(registry, rep, tx, 0, round_no=1, kind="AlwaysPlus")

    replica_in_order.on_verification_message(m1)
    replica_in_order.on_verification_message(m2)
    replica_reversed.on_verification_message(m2)  # buffered
    assert replica_reversed.rep[0].cnt == 0
    replica_reversed.on_verification_message(m1)  # applies 1 then drains 2
    assert replica_reversed.rep[0] == replica_in_order.rep[0] == leader.rep[0]
    replica_reversed.assert_no_gaps()


def test_verification_gap_is_fatal(registry):
    leader = make_governor(registry, topology=((0,),), gov_index=0)
    p = make_provider(registry, gen_rate=2, invalid=1.0)
    t1, t2 = p.generate(1)
    for tx in (t1, t2):
        deliver(registry, leader, tx, 0, round_no=1, kind="AlwaysPlus")
    leader.screen(t1.txid)
    m2 = leader.screen(t2.txid).message

    replica = make_governor(registry, topology=((0,),), gov_index=1)
    replica.governor_publics[0] = leader.keypair.public
    deliver(registry, replica, t2, 0, round_no=1, kind="AlwaysPlus")
    replica.on_verification_message(m2)
    with pytest.raises(SimulationError):
        replica.assert_no_gaps()


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
    replica = make_governor(registry, topology=((0,),), gov_index=1)
    replica.governor_publics[0] = leader.keypair.public
    deliver(registry, replica, tx, 0, round_no=1, kind="AlwaysPlus")
    with pytest.raises(SimulationError):
        replica.on_verification_message(tampered)


def _closing_epoch_run(registry):
    """A leader with T=2 screens invalid, valid, valid: the epoch closes on tx 2."""
    leader = make_governor(registry, topology=((0, 1),), threshold=2, gov_index=0)
    leader.draw_rng = ForcedRng([])  # always draws slot 0, the AlwaysPlus one
    p = make_provider(registry, gen_rate=1, connected=(0, 1))
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
    assert (closure.provider_id, closure.epoch_index, closure.threshold) == (0, 0, 2)
    assert closure.eta == 0.5
    assert closure.revenue == revenue_shares((-1, 0), 0.7)
    state = leader.rep[0]
    assert (state.epoch_index, state.epoch_threshold, state.cnt) == (1, 4, 1)
    assert [r.epoch_index for r in results] == [0, 0, 1]


def test_replica_replay_reaches_leader_state(registry):
    leader, txs, results = _closing_epoch_run(registry)
    replica = make_governor(registry, topology=((0, 1),), threshold=2, gov_index=1)
    replica.governor_publics[0] = leader.keypair.public
    for tx in txs:
        deliver(registry, replica, tx, 0, round_no=1, kind="AlwaysPlus")
        deliver(registry, replica, tx, 1, round_no=1, kind="Honest")
    for res in results:
        replica.on_verification_message(res.message)
    replica.assert_no_gaps()
    assert replica.rep == leader.rep
    assert replica.evidence == leader.evidence
    assert replica.invalid_archive == leader.invalid_archive == {txs[0].txid}
    assert replica.pending_valid == leader.pending_valid == txs[1:]
    assert replica.state_fingerprint() == leader.state_fingerprint()


def test_settled_transaction_is_refused_and_starts_no_timer(registry):
    leader, txs, _ = _closing_epoch_run(registry)
    leader.clear_screened([tx.txid for tx in txs])
    for tx in txs:
        assert deliver(registry, leader, tx, 0, round_no=9, kind="AlwaysPlus") == "settled"
    assert not leader.timers and not leader.received
    assert leader.expired(10) == []


def test_clear_screened_keeps_valid_txs_until_their_block(registry):
    leader, txs, _ = _closing_epoch_run(registry)
    leader.clear_screened([tx.txid for tx in txs])
    assert set(leader.tx_objects) == {tx.txid for tx in txs[1:]}
    leader.note_block_appended(leader.take_block_txs(8))
    assert not leader.tx_objects and not leader.evidence


def test_validate_governor_reads_ground_truth(registry):
    p = make_provider(registry, gen_rate=2, invalid=0.0)
    for tx in p.generate(1):
        assert validate_governor(tx) is True
