import hashlib
import random

import pytest
from scipy import stats

from repuchain import consensus
from repuchain.consensus import (
    Ledger,
    Violation,
    elect_leader,
    propose_block,
    validate_and_append,
    validate_block,
)
from repuchain.core_types import (
    ZERO_DIGEST,
    Block,
    SimSignature,
    Transaction,
    block_bytes,
    enc_int,
    hash_block,
    lists_commitment_root,
    tx_signing_bytes,
)
from repuchain.crypto_sim import (
    KeyRegistry,
    keypair_from_secret,
    sign,
    vrf_eval,
)


def make_signed_tx(registry, provider_kp, seq, valid=True):
    sig = sign(provider_kp, tx_signing_bytes(provider_kp.node_id, seq, seq))
    return Transaction(provider_kp.node_id, seq, seq, valid, sig)


class Chain:
    """Minimal valid-chain builder for validation tests."""

    def __init__(self, registry=None):
        self.registry = registry or KeyRegistry(root_seed=99)
        self.provider_kp = self.registry.enrol("provider", 0, 0)
        self.leader_kp = self.registry.enrol("governor", 0, 50)
        self.leader_id = 0
        self.ledger = Ledger()
        self.pending = {}
        self.seq = 0
        self.b_limit = 4

    def next_block(self, n_txs=2, n_unchecked=1, n_invalid=0):
        txs = []
        for _ in range(n_txs):
            self.seq += 1
            tx = make_signed_tx(self.registry, self.provider_kp, self.seq)
            self.pending[tx.txid] = (tx, ((3, 1),))
            txs.append(tx)
        unchecked, invalid = [], []
        for _ in range(n_unchecked):
            self.seq += 1
            unchecked.append(make_signed_tx(self.registry, self.provider_kp, self.seq))
        for _ in range(n_invalid):
            self.seq += 1
            invalid.append(make_signed_tx(self.registry, self.provider_kp, self.seq, valid=False))
        signed, lists = propose_block(
            serial=self.ledger.last.serial + 1,
            leader_id=self.leader_id,
            leader_kp=self.leader_kp,
            tx_list=tuple(txs),
            invalid_list=tuple(invalid),
            unchecked_list=tuple(unchecked),
            prev_hash=self.ledger.tip_hash(),
        )
        return signed, lists

    def append(self, signed, lists):
        """Validate and append; on success the payload leaves ``pending``, as on a governor."""
        violation = validate_and_append(
            self.ledger, signed, self.leader_id, self.registry,
            b_limit=self.b_limit,
            pending=self.pending,
            round_lists=lists,
        )
        if violation is None:
            for tx in signed.block.tx_list:
                del self.pending[tx.txid]
        return violation

    def validate_only(self, signed, lists):
        return validate_block(
            self.ledger, signed, self.leader_id, self.registry,
            b_limit=self.b_limit,
            pending=self.pending,
            round_lists=lists,
        )


# -- leader election -----------------------------------------------------------


def test_single_governor_always_leads():
    registry = KeyRegistry(root_seed=1)
    kp = registry.issue(0)
    for i in range(50):
        rec = elect_leader([3], i.to_bytes(8, "big"), [kp], registry)
        assert rec.winner == 0
        assert rec.excluded == ()


def test_equal_stakes_win_half_each():
    registry = KeyRegistry(root_seed=2)
    kps = [registry.issue(k) for k in range(2)]
    stakes = [1, 1]
    n = 10_000
    wins = sum(
        elect_leader(stakes, i.to_bytes(8, "big"), kps, registry).winner == 0
        for i in range(n)
    )
    assert abs(wins - 5000) <= 150  # 3 sigma binomial


def test_three_to_one_stake_wins_three_quarters():
    registry = KeyRegistry(root_seed=3)
    kps = [registry.issue(k) for k in range(2)]
    stakes = [3, 1]
    n = 10_000
    wins = sum(
        elect_leader(stakes, i.to_bytes(8, "big"), kps, registry).winner == 0
        for i in range(n)
    )
    assert abs(wins - 7500) <= 130  # 3 sigma at p = 3/4


def test_unverifiable_governor_excluded():
    registry = KeyRegistry(root_seed=4)
    kps = [registry.issue(0), keypair_from_secret(1, b"\x99" * 32)]
    rec = elect_leader([1, 5], b"seed", kps, registry)
    assert rec.winner == 0
    assert rec.excluded == (1,)


# The m=8 stakes of the benchmark's replicated world (bench/workloads.py).
REPLICATED_STAKES = (100, 150, 200, 250, 300, 350, 400, 450)
CHI_SQUARE_ROUNDS = 10_000


def round_seeds(n):
    """Fixed 32-byte round seeds, shaped like the chain-tip hashes they stand for."""
    return [hashlib.sha256(b"round" + enc_int(i)).digest() for i in range(n)]


def reference_winner(stakes, round_seed, keypairs, registry):
    """The previous election law, one stake unit at a time.

    Unit j of governor k draws ``vrf_eval(kp, round_seed + enc_int(j))`` and
    the least (value, governor id) over all units wins. It costs one VRF
    evaluation and check per stake unit; the election now makes one per
    governor and must follow the same law: P(k leads) = stakes[k] / total.
    """
    best = None
    for gov_id, units in enumerate(stakes):
        kp = keypairs[gov_id]
        for j in range(units):
            vrf_input = round_seed + enc_int(j)
            out = vrf_eval(kp, vrf_input)
            assert registry.vrf_verify(kp.public, vrf_input, out)
            if best is None or (out.value, gov_id) < best:
                best = (out.value, gov_id)
    return best[1]


def chi_square_against_stakes(winner_of, stakes):
    """p-value of the winner counts over the fixed round seeds against stake shares."""
    registry = KeyRegistry(root_seed=len(stakes))
    kps = [registry.issue(k) for k in range(len(stakes))]
    counts = [0] * len(stakes)
    for seed in round_seeds(CHI_SQUARE_ROUNDS):
        counts[winner_of(stakes, seed, kps, registry)] += 1
    total = sum(stakes)
    expected = [CHI_SQUARE_ROUNDS * s / total for s in stakes]
    return stats.chisquare(counts, expected).pvalue


def elected(stakes, seed, kps, registry):
    rec = elect_leader(stakes, seed, kps, registry)
    assert rec.excluded == ()
    return rec.winner


@pytest.mark.parametrize("stakes", [(1, 2, 3, 4), REPLICATED_STAKES], ids=["1-4", "replicated"])
def test_winners_follow_stake_shares(stakes):
    assert chi_square_against_stakes(elected, stakes) > 1e-3


def test_unit_by_unit_reference_follows_stake_shares():
    assert chi_square_against_stakes(reference_winner, (1, 2, 3, 4)) > 1e-3


class FailingVrfRegistry(KeyRegistry):
    """Registry whose VRF check always fails for one public key."""

    def __init__(self, root_seed, bad_public):
        super().__init__(root_seed)
        self.bad_public = bad_public

    def vrf_verify(self, public, vrf_input, out):
        if public == self.bad_public:
            return False
        return super().vrf_verify(public, vrf_input, out)


def test_failing_governor_excluded_as_a_whole():
    # The largest stake cannot lead in any round once its proof fails.
    keys = KeyRegistry(root_seed=7)
    kps = [keys.issue(k) for k in range(3)]
    registry = FailingVrfRegistry(7, bad_public=kps[1].public)
    for kp in kps:
        registry.register(kp)
    stakes = [1, 30, 2]
    winners = set()
    for i in range(100):
        rec = elect_leader(stakes, enc_int(i), kps, registry)
        assert rec.excluded == (1,)
        winners.add(rec.winner)
    assert winners == {0, 2}


def test_election_calls_the_vrf_through_its_module_globals(monkeypatch):
    # The benchmark's tracer counts crypto_sim.vrf_calls by rebinding
    # consensus.vrf_eval and KeyRegistry.vrf_verify; an election that bound
    # either early would count 0, and one that evaluated per stake unit would
    # count the total stake.
    calls = {"vrf_eval": 0, "vrf_verify": 0}
    original_eval, original_verify = consensus.vrf_eval, KeyRegistry.vrf_verify

    def counting_eval(*args):
        calls["vrf_eval"] += 1
        return original_eval(*args)

    def counting_verify(*args):
        calls["vrf_verify"] += 1
        return original_verify(*args)

    monkeypatch.setattr(consensus, "vrf_eval", counting_eval)
    monkeypatch.setattr(KeyRegistry, "vrf_verify", counting_verify)
    registry = KeyRegistry(root_seed=8)
    kps = [registry.issue(k) for k in range(4)]
    elect_leader([100, 150, 200, 250], b"\x01" * 32, kps, registry)
    assert calls == {"vrf_eval": 4, "vrf_verify": 4}


# -- block proposal --------------------------------------------------------------


def test_propose_empty_round():
    chain = Chain()
    signed, lists = chain.next_block(n_txs=0, n_unchecked=0)
    assert signed.block.tx_list == ()
    assert signed.block.mt_root == ZERO_DIGEST
    assert chain.append(signed, lists) is None


def test_mt_root_matches_broadcast_lists():
    chain = Chain()
    signed, lists = chain.next_block(n_txs=1, n_unchecked=2)
    recomputed = lists_commitment_root(lists.invalid_list, lists.unchecked_list)
    assert recomputed == signed.block.mt_root


def test_chain_of_blocks_validates():
    chain = Chain()
    for _ in range(5):
        signed, lists = chain.next_block()
        assert chain.append(signed, lists) is None
    assert [b.serial for b in chain.ledger.blocks] == [0, 1, 2, 3, 4, 5]


def test_append_indexes_chained_and_invalid_listed_txids_only():
    chain = Chain()
    signed, lists = chain.next_block(n_txs=2, n_unchecked=2, n_invalid=2)
    tampered = type(signed)(signed.block, SimSignature(b"\x00" * 32))
    assert chain.append(tampered, lists) is Violation.BAD_LEADER_SIGNATURE
    assert chain.ledger.settled == set()  # a rejected block settles nothing
    assert chain.append(signed, lists) is None
    chained = {tx.txid for tx in signed.block.tx_list}
    invalid = {tx.txid for tx in lists.invalid_list}
    assert len(chained) == len(invalid) == len(lists.unchecked_list) == 2
    assert chain.ledger.settled == chained | invalid
    assert chain.ledger.settled.isdisjoint(tx.txid for tx in lists.unchecked_list)


# -- violations -------------------------------------------------------------------


@pytest.mark.parametrize("listed", ["payload", "invalid_list"])
def test_txid_already_settled_is_refused(listed):
    chain = Chain()
    signed, lists = chain.next_block(n_txs=1, n_unchecked=0, n_invalid=1)
    tx = signed.block.tx_list[0] if listed == "payload" else lists.invalid_list[0]
    chain.ledger.settled.add(tx.txid)
    before = (list(chain.ledger.blocks), set(chain.ledger.settled))
    assert chain.append(signed, lists) is Violation.ALREADY_SETTLED
    assert (chain.ledger.blocks, chain.ledger.settled) == before


def test_serial_gap_is_no_skipping():
    chain = Chain()
    signed, lists = chain.next_block()
    b = signed.block
    skipped = Block(b.serial + 1, b.leader_id, b.tx_list, b.mt_root, b.prev_hash)
    resigned = type(signed)(skipped, sign(chain.leader_kp, block_bytes(skipped)))
    assert chain.validate_only(resigned, lists) is Violation.NO_SKIPPING


def test_tampered_prev_hash_is_chain_integrity():
    chain = Chain()
    signed, lists = chain.next_block()
    b = signed.block
    bad = Block(b.serial, b.leader_id, b.tx_list, b.mt_root, b"\xaa" * 32)
    resigned = type(signed)(bad, sign(chain.leader_kp, block_bytes(bad)))
    assert chain.validate_only(resigned, lists) is Violation.CHAIN_INTEGRITY


def test_wrong_leader_detected():
    chain = Chain()
    signed, lists = chain.next_block()
    b = signed.block
    bad = Block(b.serial, b.leader_id + 1, b.tx_list, b.mt_root, b.prev_hash)
    resigned = type(signed)(bad, sign(chain.leader_kp, block_bytes(bad)))
    assert chain.validate_only(resigned, lists) is Violation.WRONG_LEADER


def test_bad_leader_signature_detected():
    chain = Chain()
    signed, lists = chain.next_block()
    forged = type(signed)(signed.block, SimSignature(b"\x00" * 32))
    assert chain.validate_only(forged, lists) is Violation.BAD_LEADER_SIGNATURE


def test_oversize_tx_list_detected():
    chain = Chain()
    signed, lists = chain.next_block(n_txs=chain.b_limit + 1)
    assert chain.validate_only(signed, lists) is Violation.OVERSIZE_TX_LIST


def test_unsigned_tx_detected():
    chain = Chain()
    signed, lists = chain.next_block(n_txs=1)
    b = signed.block
    fake_tx = Transaction(0, 777, 777, True, SimSignature(b"\x01" * 32))
    chain.pending[fake_tx.txid] = (fake_tx, ((3, 1),))
    bad = Block(b.serial, b.leader_id, (fake_tx,), b.mt_root, b.prev_hash)
    resigned = type(signed)(bad, sign(chain.leader_kp, block_bytes(bad)))
    assert chain.validate_only(resigned, lists) is Violation.BAD_TX_SIGNATURE


def test_tx_without_positive_label_detected():
    chain = Chain()
    tx = make_signed_tx(chain.registry, chain.provider_kp, 500)
    chain.pending[tx.txid] = (tx, ((3, -1),))  # only a -1 label in its verdict
    signed, lists = chain.next_block(n_txs=0, n_unchecked=0)
    b = signed.block
    bad = Block(b.serial, b.leader_id, (tx,), b.mt_root, b.prev_hash)
    resigned = type(signed)(bad, sign(chain.leader_kp, block_bytes(bad)))
    assert chain.validate_only(resigned, lists) is Violation.UNLABELED_TX


@pytest.mark.parametrize("order", ["reversed", "skipped-head"])
def test_payload_not_the_head_of_pending_is_refused(order):
    chain = Chain()
    signed, lists = chain.next_block(n_txs=3)
    b = signed.block
    payload = tuple(reversed(b.tx_list)) if order == "reversed" else b.tx_list[1:]
    bad = Block(b.serial, b.leader_id, payload, b.mt_root, b.prev_hash)
    resigned = type(signed)(bad, sign(chain.leader_kp, block_bytes(bad)))
    before = (list(chain.ledger.blocks), set(chain.ledger.settled), list(chain.pending))
    assert chain.append(resigned, lists) is Violation.UNLABELED_TX
    assert (chain.ledger.blocks, chain.ledger.settled, list(chain.pending)) == before
    assert chain.append(signed, lists) is None
    assert not chain.pending


def test_mt_root_mismatch_detected():
    chain = Chain()
    signed, lists = chain.next_block(n_unchecked=2)
    shorter = type(lists)(lists.invalid_list, lists.unchecked_list[:1])
    assert chain.validate_only(signed, shorter) is Violation.MT_ROOT_MISMATCH


def test_single_field_mutations_all_caught():
    # a smaller copy of the acceptance fuzz: tampering (without the leader's
    # key) on any single field is always rejected
    chain = Chain()
    rng = random.Random(5)
    caught = 0
    trials = 0
    for _ in range(60):
        signed, lists = chain.next_block()
        tampered, _ = mutate_signed_block(signed, rng)
        trials += 1
        if chain.validate_only(tampered, lists) is not None:
            caught += 1
        assert chain.append(signed, lists) is None
    assert caught == trials


def mutate_signed_block(signed, rng):
    """One random single-field mutation, keeping the original signature."""
    b = signed.block
    kind = rng.randrange(6)
    if kind == 0:
        mutated = Block(b.serial + rng.choice((-1, 1, 2)), b.leader_id, b.tx_list,
                        b.mt_root, b.prev_hash)
    elif kind == 1:
        mutated = Block(b.serial, b.leader_id + 1, b.tx_list, b.mt_root, b.prev_hash)
    elif kind == 2 and b.tx_list:
        tx = b.tx_list[0]
        altered = Transaction(tx.provider_id, tx.seq + 9999, tx.timestamp,
                              tx.ground_truth_valid, tx.signature)
        mutated = Block(b.serial, b.leader_id, (altered,) + b.tx_list[1:],
                        b.mt_root, b.prev_hash)
    elif kind == 3:
        root = bytearray(b.mt_root)
        root[rng.randrange(32)] ^= 1 << rng.randrange(8)
        mutated = Block(b.serial, b.leader_id, b.tx_list, bytes(root), b.prev_hash)
    elif kind == 4:
        prev = bytearray(b.prev_hash)
        prev[rng.randrange(32)] ^= 1 << rng.randrange(8)
        mutated = Block(b.serial, b.leader_id, b.tx_list, b.mt_root, bytes(prev))
    else:
        tag = bytearray(signed.signature.tag)
        tag[rng.randrange(32)] ^= 1 << rng.randrange(8)
        return type(signed)(b, SimSignature(bytes(tag))), "signature"
    return type(signed)(mutated, signed.signature), f"field_{kind}"

