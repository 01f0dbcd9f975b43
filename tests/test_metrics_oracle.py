import itertools
import math
import random

import pytest

from repuchain.metrics_oracle import (
    OUTCOME_CODES,
    OUTCOME_UNCHECKED,
    InstanceTooLargeError,
    MetricsLog,
    compute_regret,
    emit_csv,
    exact_expected_loss,
    mc_expected_loss,
    mean_se,
    scaling_fit,
    theorem_bound,
)
from repuchain.checks import check_scaling
from repuchain.nodes import EpochClosure, GovernorNode
from repuchain.reputation import EtaPolicy, initial_state
from repuchain.sim_engine import ScenarioConfig, run
from repuchain import scenarios


# -- exact oracle: pinned examples ------------------------------------------------


def test_invalid_tx_both_plus_labels():
    r = exact_expected_loss([[1, 1]], [False], eta=0.5)
    assert r.prose_loss == pytest.approx(1.0)     # verified surely, one wasted check
    assert r.proof_loss == pytest.approx(1.0)     # whole mass sat on penalized slots
    assert r.slot_penalties == pytest.approx((1.0, 1.0))
    assert r.regret == pytest.approx(0.0)


def test_invalid_tx_split_labels_uniform_selection():
    # verification only when slot 0 is drawn: P = 1/2
    r = exact_expected_loss([[1, -1]], [False], eta=0.5)
    assert r.prose_loss == pytest.approx(0.5)
    assert r.verified == pytest.approx(0.5)
    # governor loss charges the +1 mass on the verification event
    assert r.proof_loss == pytest.approx(0.25)
    assert r.slot_penalties == pytest.approx((0.5, 0.0))


def test_all_honest_instance_has_zero_loss():
    labels = [[1, 1], [-1, -1], [1, 1]]
    validity = [True, False, True]
    r = exact_expected_loss(labels, validity, eta=0.7)
    assert r.proof_loss == 0.0
    assert r.prose_loss == 0.0
    assert r.slot_penalties == (0.0, 0.0)


def test_absent_encoding_zero_and_none_equivalent():
    a = exact_expected_loss([[1, 0]], [True], eta=0.5)
    b = exact_expected_loss([[1, None]], [True], eta=0.5)
    assert a == b
    # absent slot penalized iff the tx gets verified, which happens w.p. 1/2
    assert a.verified == pytest.approx(0.5)
    assert a.slot_penalties[1] == pytest.approx(0.5)


def test_oracle_rejects_oversize_instances():
    with pytest.raises(InstanceTooLargeError, match="u <= 3"):
        exact_expected_loss([[1, 1, 1, 1]], [True], eta=0.5)
    with pytest.raises(InstanceTooLargeError, match="T <= 12"):
        exact_expected_loss([[1]] * 13, [True] * 13, eta=0.5)


def test_oracle_rejects_malformed_input():
    with pytest.raises(ValueError):
        exact_expected_loss([[2, 1]], [True], eta=0.5)
    with pytest.raises(ValueError):
        exact_expected_loss([[1, 1]], [True, False], eta=0.5)
    with pytest.raises(ValueError):
        exact_expected_loss([[1, 1], [1]], [True, False], eta=0.5)


# Every row names its id, so adding a row or a column renames no test.
@pytest.mark.parametrize("field,labels,validity,eta,reps", [
    pytest.param("validity", [[1, 1], [1, -1]], [False], 0.5, None,
                 id="validity-labels0-validity0-None"),
    pytest.param("validity", [[1, 1]], [True, False], 0.5, None,
                 id="validity-labels1-validity1-None"),
    pytest.param("labels", [[1, 1], [1]], [True, False], 0.5, None,
                 id="labels-labels2-validity2-None"),
    pytest.param("labels", [[1], [1, -1]], [True, False], 0.5, None,
                 id="labels-labels3-validity3-None"),
    pytest.param("labels", [[]], [True], 0.5, None,
                 id="labels-labels4-validity4-None"),
    pytest.param("initial_reps", [[1, 1]], [True], 0.5, [0, 0, 0],
                 id="initial_reps-labels5-validity5-reps5"),
    pytest.param("initial_reps", [[1, 1]], [True], 0.5, [0],
                 id="initial_reps-labels6-validity6-reps6"),
    pytest.param("labels", [[True, False]], [False], 0.5, None,
                 id="labels-labels7-validity7-None"),
    pytest.param("labels", [[1.0, -1]], [False], 0.5, None,
                 id="labels-labels8-validity8-None"),
    pytest.param("initial_reps", [[1, 1]], [True], 0.5, [-(1 << 53), 0],
                 id="initial_reps-labels9-validity9-reps9"),
    pytest.param("eta", [[1, -1]], [False], float("nan"), None, id="eta-nan"),
    pytest.param("eta", [[1, -1]], [False], 0, None, id="eta-zero"),
    pytest.param("eta", [[1, -1]], [False], -0.5, None, id="eta-negative"),
    pytest.param("eta", [[1, -1]], [False], True, None, id="eta-bool"),
    pytest.param("eta", [[1, -1]], [False], 10**400, None, id="eta-huge"),
    pytest.param("validity", [[1, -1]], [1], 0.5, None, id="validity-int"),
    pytest.param("validity", [[1, -1]], ["no"], 0.5, None, id="validity-str"),
    pytest.param("initial_reps", [[1, -1]], [False], 0.5, [0.5, 0], id="initial_reps-float"),
])
def test_both_oracles_reject_malformed_shapes(field, labels, validity, eta, reps):
    with pytest.raises(ValueError, match=f"field '{field}'"):
        exact_expected_loss(labels, validity, eta=eta, initial_reps=reps)
    with pytest.raises(ValueError, match=f"field '{field}'"):
        mc_expected_loss(labels, validity, eta, n_runs=10, seed=0, initial_reps=reps)


@pytest.mark.parametrize("n_runs", [0, -3, 2.5, True])
def test_mc_oracle_refuses_a_run_count_below_one_or_not_an_integer(n_runs):
    with pytest.raises(ValueError, match="'n_runs'"):
        mc_expected_loss([[1, -1]], [False], 0.5, n_runs=n_runs, seed=0)


def test_theorem_bound_closed_form():
    # at eta = sqrt(ln u / T) the bound collapses to (3/2) sqrt(T ln u)
    eta = math.sqrt(math.log(2) / 100)
    assert theorem_bound(2, eta, 100) == pytest.approx(1.5 * math.sqrt(100 * math.log(2)))
    assert theorem_bound(2, eta, 100) == pytest.approx(12.4883, abs=1e-3)


def test_theorem_bound_is_zero_for_one_slot():
    # u = 1 gives eta = sqrt(ln 1 / T) = 0 under PerEpochSqrt; regret is identically 0.
    eta = EtaPolicy(kind="PerEpochSqrt").eta_for(1, 100)
    assert eta == 0.0
    assert theorem_bound(1, eta, 0) == theorem_bound(1, eta, 100) == 0.0


def test_theorem_inequality_exhaustive_tiny():
    # zero-tolerance sweep over every u=2 pattern for T <= 2
    alphabet = list(itertools.product((1, -1, None), repeat=2))
    steps = [(row, valid) for row in alphabet for valid in (True, False)]
    count = 0
    for T in (1, 2):
        eta = math.sqrt(math.log(2) / T)
        for combo in itertools.product(steps, repeat=T):
            labels = [list(row) for row, _ in combo]
            validity = [v for _, v in combo]
            r = exact_expected_loss(labels, validity, eta=eta)
            bound = theorem_bound(2, eta, T)
            assert r.regret <= bound + 1e-9
            count += 1
    assert count == 18 + 18 * 18


def test_expected_wasted_verifications_within_the_waiting_time_bound():
    # With an Honest slot at reputation 0, a slot penalized D times is drawn with
    # probability at most e^(-eta*D), so after vouching +1 on N invalid rows it
    # is expected to waste at most ln(1 + N(e^eta - 1))/eta + 1 verifications;
    # E[W] is at most the sum of that over the slots with N > 0.
    rng = random.Random(2002)
    for _ in range(400):
        u, T, eta = rng.choice((2, 3)), rng.randint(1, 12), rng.uniform(0.05, 3.0)
        honest = rng.randrange(u)
        validity = [rng.random() < 0.5 for _ in range(T)]
        labels = [[(1 if valid else -1) if k == honest else rng.choice((1, -1, None))
                   for k in range(u)] for valid in validity]
        bound = 0.0
        for k in range(u):
            n = sum(1 for row, valid in zip(labels, validity) if not valid and row[k] == 1)
            if n:
                bound += math.log1p(n * math.expm1(eta)) / eta + 1
        assert exact_expected_loss(labels, validity, eta).prose_loss <= bound + 1e-9


def test_monte_carlo_matches_exact():
    instances = [
        ([[1, -1]], [False], 0.5),
        ([[1, 0], [1, 1], [-1, 1]], [True, False, True], 0.35),
        ([[1, -1, 0], [1, 1, -1], [0, 1, 1]], [False, True, False], 0.4),
    ]
    for idx, (labels, validity, eta) in enumerate(instances):
        exact = exact_expected_loss(labels, validity, eta)
        mc = mc_expected_loss(labels, validity, eta, n_runs=6000, seed=idx)
        assert abs(mc.mean_proof - exact.proof_loss) <= 3 * mc.se_proof + 1e-9
        assert abs(mc.mean_prose - exact.prose_loss) <= 3 * mc.se_prose + 1e-9


def test_monte_carlo_matches_exact_with_absent_labels_and_initial_reps():
    # Slot 1 is absent on two valid transactions, so it is penalized there, and
    # starts ahead: with eta 0.8 it is drawn often, and each of its penalties moves
    # the draw. Neither an absent label nor a non-zero start is covered elsewhere.
    labels = [[1, None, -1], [-1, None, 1], [None, 1, 1], [1, -1, None]]
    validity = [True, True, False, True]
    eta, reps = 0.8, [-1, 2, 0]
    exact = exact_expected_loss(labels, validity, eta, initial_reps=reps)
    mc = mc_expected_loss(labels, validity, eta, n_runs=6000, seed=11, initial_reps=reps)
    assert abs(mc.mean_proof - exact.proof_loss) <= 3 * mc.se_proof + 1e-9
    assert abs(mc.mean_prose - exact.prose_loss) <= 3 * mc.se_prose + 1e-9


def test_full_engine_mean_loss_matches_enumerated_oracle():
    # u=2 (honest + always-plus): the label matrix is a function of validity,
    # so the engine's expected loss is the validity-weighted oracle average
    raw = scenarios.smoke()
    raw.update({
        "n": 2,
        "topology": [[0, 1]],
        "strategies": [{"kind": "Honest"}, {"kind": "AlwaysPlus"}],
        "gen_rate": 1,
        "invalid_fraction": 0.5,
        "total_rounds": 9,
        "T": 1000,
        "eta_policy": {"kind": "Fixed", "value": 0.5},
    })
    base = ScenarioConfig.from_dict(raw)
    T_steps = 6  # txs from rounds 1..6 get screened within 9 rounds

    expected_proof = 0.0
    expected_prose = 0.0
    for pattern in itertools.product((True, False), repeat=T_steps):
        labels = [[1, 1] if v else [-1, 1] for v in pattern]
        r = exact_expected_loss(labels, list(pattern), eta=0.5)
        expected_proof += r.proof_loss / 2 ** T_steps
        expected_prose += r.prose_loss / 2 ** T_steps

    n_seeds = 600
    proof_samples = []
    prose_samples = []
    for seed in range(n_seeds):
        _, metrics = run(base.with_seed(seed))
        events = metrics.events[0]
        assert len(events) == T_steps
        proof_samples.append(sum(e[2] for e in events))
        prose_samples.append(compute_regret(metrics, 0).cumulative_prose_loss)

    mp, sp = mean_se(proof_samples)
    mw, sw = mean_se([float(x) for x in prose_samples])
    assert abs(mp - expected_proof) <= 3 * sp + 1e-9
    assert abs(mw - expected_prose) <= 3 * sw + 1e-9


# -- scaling fit -------------------------------------------------------------------


def test_scaling_fit_sqrt_slope():
    points = [(t, math.sqrt(t)) for t in (100, 200, 400, 800, 1600)]
    assert scaling_fit(points) == pytest.approx(0.5, abs=1e-12)


def test_scaling_fit_linear_slope():
    points = [(t, 2.0 * t) for t in (100, 300, 900, 2700)]
    assert scaling_fit(points) == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_zero_regret_undefined():
    assert scaling_fit([(100, 0.0), (200, 0.0), (400, 0.0), (800, 0.0)]) is None
    assert scaling_fit([]) is None


def doubling_log(regret_of, epochs=6, t0=50):
    """A one-provider log whose closed epoch i holds t0*2^i verified events
    with total regret regret_of(T_i), plus an open epoch after them."""
    log = MetricsLog(1)
    policy = EtaPolicy(kind="PerEpochSqrt")
    for i in range(epochs + 1):
        T = t0 * 2**i
        n = T if i < epochs else T // 2  # the last epoch is still open
        log.events[0].extend((i, 1, regret_of(T) / T, ()) for _ in range(n))
        if i < epochs:
            log.record_epoch_close(EpochClosure(0, i, math.sqrt(math.log(2) / T), (0.5, 0.5)))
    log.finalize([initial_state(2, t0 * 2**epochs, policy)])
    return compute_regret(log, 0)


@pytest.mark.parametrize("regret_of, slope, passes", [
    (lambda T: 1.5 * math.sqrt(T * math.log(2)), 0.5, True),
    (lambda T: 0.1 * T, 1.0, False),
])
def test_scaling_fits_per_epoch_regret_of_closed_epochs(regret_of, slope, passes):
    report = doubling_log(regret_of)
    assert report.slope == pytest.approx(slope, abs=1e-9)
    result = check_scaling([{"seed": 0, "providers": [{"slope": report.slope}]}])
    assert result.passed is passes


def test_prose_slope_fits_wasted_verifications_of_closed_epochs():
    # Closed epoch i verifies T_i = 100*4^i and wastes sqrt(T_i) of them; the
    # open epoch, all wasted, is left out of the fit.
    log = MetricsLog(1)
    for i in range(4):
        T, wasted = 100 * 4**i, 10 * 2**i
        log.events[0].extend((i, 2 if k < wasted else 1, 0.0, ()) for k in range(T))
        log.record_epoch_close(EpochClosure(0, i, 0.1, (0.5, 0.5)))
    log.events[0].extend((4, 2, 0.0, ()) for _ in range(50))
    log.finalize([initial_state(2, 100 * 4**4, EtaPolicy(kind="Fixed", value=0.1))])
    report = compute_regret(log, 0)
    assert [ep.prose_loss for ep in report.epochs] == [10, 20, 40, 80, 50]
    assert report.prose_slope == pytest.approx(0.5, abs=1e-9)
    assert report.slope is None  # no loss, so no regret to fit


# -- regret over engine runs --------------------------------------------------------


def _closed_prose(raw):
    cfg = ScenarioConfig.from_dict(raw)
    _, metrics = run(cfg)
    report = compute_regret(metrics, 0)
    return report.prose_slope, [ep.prose_loss for ep in report.epochs if ep.closed]


def test_wasted_verifications_grow_linearly_without_an_honest_collector():
    # The O(sqrt T) verification cost needs at least one collector that
    # behaves well. The same doubling world without its Honest slot wastes
    # a verification on almost every invalid transaction (measured at seed
    # 0: prose_loss 31 -> 956 over T = 100 -> 3200, slope 0.97, against
    # 21 -> 207 and 0.69 with the Honest slot). A characterization, not a bound.
    with_honest = dict(scenarios.doubling(), T=100, total_rounds=110)
    without = dict(
        with_honest, n=3, topology=[[0, 1, 2]],
        strategies=[{"kind": "AlwaysPlus"}, {"kind": "FlipProb", "q": 0.3},
                    {"kind": "Withhold", "q": 0.5}],
    )
    honest_slope, honest_prose = _closed_prose(with_honest)
    slope, prose = _closed_prose(without)
    assert slope >= 0.9
    assert slope >= honest_slope + 0.15
    assert prose[-1] >= 3 * honest_prose[-1]


def test_per_epoch_rule_holds_on_every_closed_epoch():
    # Under PerEpochSqrt each closed epoch i verified T_i = T0 * 2^i transactions
    # under eta = sqrt(ln u / T_i) and paid revenue shares summing to 1.
    raw = dict(scenarios.doubling(), total_rounds=120)
    cfg = ScenarioConfig.from_dict(raw)
    _, metrics = run(cfg)
    u = len(cfg.topology[0])
    closed = [ep for ep in compute_regret(metrics, 0).epochs if ep.closed]
    assert len(closed) >= 3
    for i, ep in enumerate(closed):
        assert ep.epoch_index == i
        assert ep.T == cfg.T * 2 ** i
        assert abs(ep.eta - math.sqrt(math.log(u) / ep.T)) <= 1e-15
        assert abs(math.fsum(ep.revenue) - 1.0) <= 1e-12
    # A Fixed eta is never retuned.
    raw = scenarios.regret_bound(8)
    _, metrics = run(ScenarioConfig.from_dict(raw))
    epochs = compute_regret(metrics, 0).epochs
    assert epochs and all(ep.eta == raw["eta_policy"]["value"] for ep in epochs)


def test_all_honest_run_has_zero_regret():
    cfg = ScenarioConfig.from_dict(scenarios.smoke())
    _, metrics = run(cfg)
    report = compute_regret(metrics, 0)
    assert report.cumulative_regret == 0.0
    assert all(ep.S_T_min == 0 for ep in report.epochs)


def test_honest_plus_alwaysplus_on_valid_only_traffic():
    raw = scenarios.smoke()
    raw.update({
        "n": 2,
        "topology": [[0, 1]],
        "strategies": [{"kind": "Honest"}, {"kind": "AlwaysPlus"}],
        "invalid_fraction": 0.0,
        "gen_rate": 3,
        "total_rounds": 30,
        "T": 1000,
    })
    _, metrics = run(ScenarioConfig.from_dict(raw))
    report = compute_regret(metrics, 0)
    # strategies coincide on all-valid input: nothing is ever penalized
    assert report.cumulative_regret == 0.0
    assert report.cumulative_prose_loss == 0


def test_slot_penalty_counters_match_reputation_deltas():
    cfg = ScenarioConfig.from_dict(scenarios.doubling()).with_seed(3)
    cfg = ScenarioConfig.from_dict({**scenarios.doubling(), "total_rounds": 120, "seed": 3})
    world_run = run(cfg)
    ledger, metrics = world_run
    final = metrics.final_states[0]
    report = compute_regret(metrics, 0)
    (open_epoch,) = [ep for ep in report.epochs if ep.epoch_index == final.epoch_index]
    assert tuple(-c for c in open_epoch.slot_penalties) == final.reps
    # and across all epochs, totals equal the total decrement count
    for ep in report.epochs:
        assert sum(ep.slot_penalties) == sum(
            len(e[3]) for e in metrics.events[0] if e[0] == ep.epoch_index
        )


def test_screening_events_share_what_repeats(monkeypatch):
    # Each event keeps what the leader's screening returned. The unchecked
    # events of one provider and epoch are one tuple, and each penalized-slot
    # pattern is one tuple, wherever it occurs.
    results = []
    screen = GovernorNode.screen
    monkeypatch.setattr(GovernorNode, "screen",
                        lambda self, txid: results.append(screen(self, txid)) or results[-1])
    cfg = ScenarioConfig.from_dict(scenarios.properties(1))
    _, metrics = run(cfg)
    expected = [[] for _ in range(cfg.l)]
    for res in results:
        expected[res.tx.provider_id].append(
            (res.epoch_index, OUTCOME_CODES[res.outcome], res.loss, res.penalized))
    assert metrics.events == expected
    patterns = {}
    for events in metrics.events:
        unchecked = {}
        for event in events:
            assert patterns.setdefault(event[3], event[3]) is event[3]
            if event[1] == OUTCOME_UNCHECKED:
                assert unchecked.setdefault(event[0], event) is event
        assert len(unchecked) > 1
    assert len(patterns) > 1


def test_window_regret_slices_first_events():
    log = MetricsLog(1)
    from repuchain.reputation import ReputationState

    log.events[0] = [
        (0, 2, 0.5, (1,)),
        (0, 0, 0.0, ()),
        (0, 1, 0.25, (0,)),
    ]
    log.finalize([ReputationState((0, 0), 0, 10, 0.5, 0)])
    loss, counts, regret = log.window_regret(0, first_n=1)
    assert (loss, counts) == (0.5, [0, 1])
    assert regret == 0.5
    loss, counts, regret = log.window_regret(0)
    assert loss == pytest.approx(0.75)
    assert counts == [1, 1]


# -- csv emission --------------------------------------------------------------------


def test_emit_csv_empty_log_headers_only(tmp_path):
    log = MetricsLog(1)
    from repuchain.reputation import ReputationState

    log.finalize([ReputationState((0,), 0, 10, 0.5, 0)])
    emit_csv(log, [], tmp_path)
    rounds = (tmp_path / "rounds.csv").read_text().splitlines()
    epochs = (tmp_path / "epochs.csv").read_text().splitlines()
    assert len(rounds) == 1 and rounds[0].startswith("round,")
    assert len(epochs) == 1 and epochs[0].startswith("provider_id,")


def test_emit_csv_contains_epoch_rows(tmp_path):
    cfg = ScenarioConfig.from_dict({**scenarios.doubling(), "total_rounds": 60})
    _, metrics = run(cfg)
    reports = [compute_regret(metrics, 0)]
    emit_csv(metrics, reports, tmp_path)
    lines = (tmp_path / "epochs.csv").read_text().splitlines()
    assert lines[0].split(",")[:8] == [
        "provider_id", "epoch_index", "T_i", "eta", "L_T", "S_T_min", "regret", "bound"
    ]
    assert len(lines) == 1 + len(reports[0].epochs)
