import dataclasses
import math
import random

import pytest

from repuchain import reputation
from repuchain.crypto_sim import substream
from repuchain.reputation import (
    EtaPolicy,
    ReputationState,
    TopologyError,
    draw_collector,
    initial_state,
    maybe_advance_epoch,
    revenue_shares,
    screen_draw,
    selection_probabilities,
    update_reputations,
)

SQRT_POLICY = EtaPolicy(kind="PerEpochSqrt")


def test_uniform_when_reputations_equal():
    for eta in (0.1, 1.0, 7.0):
        probs = selection_probabilities((0, 0, 0), eta)
        assert all(abs(p - 1 / 3) < 1e-12 for p in probs)


def test_known_two_slot_distribution():
    # e^0 = 1, e^{-ln 2} = 1/2  ->  (2/3, 1/3)
    probs = selection_probabilities((0, -1), math.log(2))
    assert abs(probs[0] - 2 / 3) < 1e-12
    assert abs(probs[1] - 1 / 3) < 1e-12


def test_shift_invariance():
    shifted = selection_probabilities((-5, -6), math.log(2))
    assert abs(shifted[0] - 2 / 3) < 1e-12
    rng = random.Random(1)
    for _ in range(100):
        reps = tuple(-rng.randrange(0, 50) for _ in range(4))
        c = rng.randrange(-30, 1)
        base = selection_probabilities(reps, 0.3)
        moved = selection_probabilities(tuple(r + c for r in reps), 0.3)
        assert all(abs(a - b) < 1e-12 for a, b in zip(base, moved))


def test_probabilities_sum_to_one():
    rng = random.Random(2)
    for _ in range(200):
        reps = tuple(-rng.randrange(0, 400) for _ in range(rng.randrange(1, 9)))
        probs = selection_probabilities(reps, rng.random() * 2 + 0.01)
        assert abs(sum(probs) - 1.0) < 1e-12


def test_empty_vector_is_topology_error():
    with pytest.raises(TopologyError):
        selection_probabilities((), 0.5)
    with pytest.raises(TopologyError):
        revenue_shares((), 0.5)


def test_draw_degenerate_distribution():
    rng = substream(0, "draw")
    assert all(draw_collector((1.0, 0.0), rng) == 0 for _ in range(100))


def test_draw_frequencies_match_probabilities():
    rng = substream(1, "draw")
    n = 100_000
    hits = sum(draw_collector((0.5, 0.5), rng) for _ in range(n))
    assert abs(hits / n - 0.5) < 0.01


def test_draw_reproducible_for_fixed_seed():
    seq1 = [draw_collector((0.3, 0.5, 0.2), substream(7, "d", i)) for i in range(20)]
    seq2 = [draw_collector((0.3, 0.5, 0.2), substream(7, "d", i)) for i in range(20)]
    assert seq1 == seq2


def fresh_state(u=2, threshold=100, eta=0.5):
    return ReputationState(reps=(0,) * u, cnt=0, epoch_threshold=threshold,
                           eta=eta, epoch_index=0)


def test_state_carries_its_draw_distribution(monkeypatch):
    computed = []

    def counting(reps, eta, _original=reputation.selection_probabilities):
        computed.append(reps)
        return _original(reps, eta)

    monkeypatch.setattr(reputation, "selection_probabilities", counting)
    state = ReputationState((0, -2, -1), 0, 10, 0.5, 0)
    fresh = ReputationState((0, -2, -1), 0, 10, 0.5, 0)
    assert state.probs is None
    assert screen_draw(state, {}, random.Random(1), bool, True) == (None, (), 0.0)
    assert state.probs == selection_probabilities((0, -2, -1), 0.5)
    assert state == fresh and hash(state) == hash(fresh) and repr(state) == repr(fresh)
    # The stored distribution draws exactly as a fresh computation does.
    labels = {0: 1, 1: 1, 2: -1}
    rng_a, rng_b = random.Random(5), random.Random(5)
    for _ in range(50):
        assert screen_draw(state, labels, rng_a, bool, False) == screen_draw(
            fresh, labels, rng_b, bool, False)
        fresh = dataclasses.replace(fresh)
    assert rng_a.random() == rng_b.random()
    assert computed.count((0, -2, -1)) == 51  # once for ``state``, once per fresh copy
    assert dataclasses.replace(state).probs is None


def test_update_valid_penalizes_non_plus_labels():
    state = fresh_state()
    out = update_reputations(state, {0: 1, 1: -1}, valid=True)
    assert out.reps == (0, -1)
    assert out.cnt == 1


def test_update_invalid_penalizes_plus_labels():
    state = fresh_state()
    out = update_reputations(state, {0: 1, 1: 1}, valid=False)
    assert out.reps == (-1, -1)


def test_update_absent_on_invalid_is_unpenalized():
    state = fresh_state(u=1)
    out = update_reputations(state, {}, valid=False)
    assert out.reps == (0,)
    assert out.cnt == 1


def test_update_absent_on_valid_is_penalized():
    state = fresh_state(u=2)
    out = update_reputations(state, {0: 1}, valid=True)
    assert out.reps == (0, -1)


def test_reputations_never_increase():
    rng = random.Random(3)
    state = fresh_state(u=3, threshold=10_000)
    prev = state.reps
    for n in range(1, 300):
        labels = {k: rng.choice((1, -1)) for k in range(3) if rng.random() < 0.8}
        state = update_reputations(state, labels, valid=rng.random() < 0.5)
        assert all(a <= b for a, b in zip(state.reps, prev))
        assert all(r >= -n for r in state.reps)
        prev = state.reps


def test_epoch_advance_at_exact_boundary():
    u = 3
    state = ReputationState(reps=(0, -2, -1), cnt=9, epoch_threshold=10,
                            eta=SQRT_POLICY.eta_for(u, 10), epoch_index=0)
    state = update_reputations(state, {0: 1, 1: 1, 2: 1}, valid=True)
    assert state.cnt == 10
    state, revenue = maybe_advance_epoch(state, mu=math.log(2), policy=SQRT_POLICY)
    assert revenue is not None
    assert state.reps == (0, 0, 0)
    assert state.cnt == 0
    assert state.epoch_threshold == 20
    assert state.epoch_index == 1
    assert abs(state.eta - math.sqrt(math.log(u) / 20)) < 1e-15


def test_epoch_no_advance_off_boundary():
    state = ReputationState(reps=(0, -1), cnt=3, epoch_threshold=10, eta=0.5,
                            epoch_index=0)
    out, revenue = maybe_advance_epoch(state, mu=1.0, policy=SQRT_POLICY)
    assert revenue is None
    assert out == state


def test_epoch_boundary_exactness_over_long_run():
    # revenue fires exactly when cnt reaches the threshold, never between
    state = initial_state(2, 5, SQRT_POLICY)
    boundaries = []
    total = 0
    for _ in range(35):
        state = update_reputations(state, {0: 1, 1: 1}, valid=True)
        total += 1
        state, revenue = maybe_advance_epoch(state, mu=1.0, policy=SQRT_POLICY)
        if revenue is not None:
            boundaries.append(total)
    assert boundaries == [5, 15, 35]  # 5, then +10, then +20


def test_revenue_shares_at_boundary_example():
    # e^0 = 1, e^{-2 ln 2} = 1/4  ->  (4/5, 1/5)
    shares = revenue_shares((0, -2), math.log(2))
    assert abs(shares[0] - 4 / 5) < 1e-12
    assert abs(shares[1] - 1 / 5) < 1e-12


def test_revenue_shares_uniform_and_monotone():
    assert revenue_shares((0, 0), 1.0) == (0.5, 0.5)
    rng = random.Random(4)
    for _ in range(100):
        reps = tuple(-rng.randrange(0, 20) for _ in range(4))
        shares = revenue_shares(reps, 0.8)
        assert abs(sum(shares) - 1.0) < 1e-12
        for a in range(4):
            for b in range(4):
                if reps[a] > reps[b]:
                    assert shares[a] > shares[b]


def test_fixed_eta_policy_survives_doubling():
    policy = EtaPolicy(kind="Fixed", value=0.25)
    state = initial_state(4, 2, policy)
    assert state.eta == 0.25
    state = update_reputations(state, {0: 1}, valid=True)
    state = update_reputations(state, {0: 1}, valid=True)
    state, revenue = maybe_advance_epoch(state, mu=1.0, policy=policy)
    assert revenue is not None
    assert state.eta == 0.25


def test_eta_policy_validation():
    with pytest.raises(ValueError):
        EtaPolicy(kind="Fixed")
    with pytest.raises(ValueError):
        EtaPolicy(kind="Fixed", value=0.0)
    with pytest.raises(ValueError):
        EtaPolicy(kind="Adaptive")
