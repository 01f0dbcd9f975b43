import collections
import dataclasses
import gc
import json
import math
import re
import tracemalloc
import types

import pytest

from conftest import SCENARIOS_DIR
from test_determinism import unequal_stakes
from repuchain import scenarios, sim_engine
from repuchain.consensus import ChainViolation, SignedBlock, Violation
from repuchain.core_types import Block, RoundLists, block_bytes
from repuchain.metrics_oracle import MetricsLog, compute_regret, emit_csv
from repuchain.nodes import (
    FORGED_SEQ_BASE, FORGED_SEQ_STRIDE, GovernorNode, ProviderNode, SimulationError,
)
from repuchain.sim_engine import (
    ConfigError,
    RoundRecord,
    ScenarioConfig,
    finalize,
    init_world,
    run,
    step_round,
    world_state_hash,
)


def cfg_from(name, **overrides):
    raw = scenarios.all_named()[name]
    raw.update(overrides)
    return ScenarioConfig.from_dict(raw)


def minimal_config(**overrides):
    raw = scenarios.smoke()
    raw.update(overrides)
    return ScenarioConfig.from_dict(raw)


# -- config validation ----------------------------------------------------------


@pytest.mark.parametrize("missing", [
    "seed", "l", "n", "m", "topology", "strategies", "stakes", "T", "eta_policy",
    "mu", "delta_rounds", "b_limit", "gen_rate", "invalid_fraction", "total_rounds",
])
def test_missing_field_named_in_error(missing):
    raw = scenarios.smoke()
    del raw[missing]
    with pytest.raises(ConfigError, match=missing):
        ScenarioConfig.from_dict(raw)


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="topology"):
        minimal_config(topology=[[]])
    with pytest.raises(ConfigError, match="topology"):
        minimal_config(topology=[[5]])
    with pytest.raises(ConfigError, match="strategies"):
        minimal_config(strategies=[{"kind": "Chaotic"}])
    with pytest.raises(ConfigError, match="stakes"):
        minimal_config(stakes=[0])
    with pytest.raises(ConfigError, match="invalid_fraction"):
        minimal_config(invalid_fraction=1.5)
    with pytest.raises(ConfigError, match="eta_policy"):
        minimal_config(eta_policy={"kind": "Fixed"})
    with pytest.raises(ConfigError, match="unknown"):
        ScenarioConfig.from_dict({**scenarios.smoke(), "bananas": 1})
    # Each per-node list must have one entry per node: a schema cannot compare
    # a list's length with another field.
    with pytest.raises(ConfigError, match=re.escape("field 'topology': expected 1 ")):
        minimal_config(topology=[[0], [0]])
    with pytest.raises(ConfigError, match=re.escape("field 'strategies': expected 1 ")):
        minimal_config(strategies=[{"kind": "Honest"}] * 2)
    with pytest.raises(ConfigError, match=re.escape("field 'stakes': expected 1 ")):
        minimal_config(stakes=[1, 1])


def smoke_with(field, value):
    """``scenarios.smoke()`` with one value replaced; a dotted field reaches inside."""
    raw = scenarios.smoke()
    if field in raw:
        raw[field] = value
    elif field.endswith("[0]"):
        raw[field[:-3]] = [value]
    elif field == "eta_policy.value":
        raw["eta_policy"] = {"kind": "Fixed", "value": value}
    else:
        key = field.rpartition(".")[2]
        kind = "Forger" if key == "forge_rate" else "FlipProb"
        raw["strategies"] = [{"kind": kind, key: value}]
    return raw


def json_schema_validator():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCENARIOS_DIR.parent / "docs" / "scenario_schema.json").read_text())
    # A JSON number is finite (RFC 8259, section 6), but Python's json module
    # also reads NaN and Infinity; validate with JSON's own number type. An
    # int is always finite, and one past the float range cannot go to isfinite.
    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine(
        "number", lambda c, v: base.TYPE_CHECKER.is_type(v, "number")
        and (isinstance(v, int) or math.isfinite(v))
    )
    return jsonschema.validators.extend(base, type_checker=checker)(schema)


NAN, INF, HUGE = float("nan"), float("inf"), 10**400
MALFORMED_VALUES = [
    ("mu", True), ("mu", NAN), ("mu", INF),
    ("invalid_fraction", True),
    ("stakes[0]", True),
    ("strategies[0].forge_rate", 2.9), ("strategies[0].forge_rate", True),
    ("strategies[0].forge_rate", -1),
    ("strategies[0].q", "0.5"), ("strategies[0].q", True),
    ("eta_policy.value", True), ("eta_policy.value", NAN), ("eta_policy.value", INF),
    ("eta_policy.value", "0.5"),
    ("gen_rate", 2.9), ("gen_rate", NAN), ("gen_rate", INF), ("gen_rate", True),
    # Past 2^64, the range every integer field shares with the seed.
    ("gen_rate", HUGE), ("T", HUGE), ("b_limit", HUGE), ("strategies[0].forge_rate", HUGE),
    ("topology[0]", [0, 0]),
    ("strategies[0]", 5), ("strategies[0]", {"q": 0.5}),
    ("eta_policy", "Fixed"), ("eta_policy", {"value": 0.5}),
]
# Per field, a value both accept, so each case fails on its value alone.
WELL_FORMED = {"mu": 0.5, "invalid_fraction": 0.5, "stakes[0]": 2, "strategies[0].forge_rate": 2,
               "strategies[0].q": 0.5, "eta_policy.value": 0.5, "gen_rate": 2, "T": 3,
               "b_limit": 3, "topology[0]": [0], "strategies[0]": {"kind": "Honest"},
               "eta_policy": {"kind": "Fixed", "value": 0.5}}


@pytest.mark.parametrize("field,value", MALFORMED_VALUES,
                         ids=[f"{f}={'10**400' if v is HUGE else repr(v)}"
                              for f, v in MALFORMED_VALUES])
def test_malformed_value_fails_closed_like_the_schema(field, value):
    validator = json_schema_validator()
    good = smoke_with(field, WELL_FORMED[field])
    ScenarioConfig.from_dict(good)
    assert validator.is_valid(good)
    raw = smoke_with(field, value)
    with pytest.raises(ConfigError, match=re.escape(f"field '{field}'")):
        ScenarioConfig.from_dict(raw)
    assert not validator.is_valid(raw)


@pytest.mark.parametrize("raw", [5, [], "x", None], ids=repr)
def test_top_level_not_an_object_fails_closed_like_the_schema(raw):
    with pytest.raises(ConfigError, match="expected a JSON object"):
        ScenarioConfig.from_dict(raw)
    assert not json_schema_validator().is_valid(raw)


# (field, scenario key, well-formed value, the same with one key misspelt)
UNKNOWN_NESTED_KEYS = [
    ("strategies[0].forge_rat", "strategies",
     [{"kind": "Forger", "forge_rate": 5}], [{"kind": "Forger", "forge_rat": 5}]),
    ("eta_policy.vlaue", "eta_policy",
     {"kind": "Fixed", "value": 0.1}, {"kind": "Fixed", "vlaue": 0.1}),
]


@pytest.mark.parametrize("field,key,good,typo", UNKNOWN_NESTED_KEYS,
                         ids=[case[0] for case in UNKNOWN_NESTED_KEYS])
def test_unknown_nested_key_fails_closed_like_the_schema(field, key, good, typo):
    validator = json_schema_validator()
    good_raw = {**scenarios.smoke(), key: good}
    ScenarioConfig.from_dict(good_raw)
    assert validator.is_valid(good_raw)
    raw = {**scenarios.smoke(), key: typo}
    with pytest.raises(ConfigError, match=re.escape(f"field '{field}': unknown")):
        ScenarioConfig.from_dict(raw)
    assert not validator.is_valid(raw)


@pytest.mark.parametrize("policy,field", [
    ({"kind": "PerEpochSqrt", "value": 0.3}, "eta_policy.value"),
    ({"kind": "Fixed"}, "eta_policy"),
], ids=["PerEpochSqrt-with-value", "Fixed-without-value"])
def test_eta_value_is_refused_or_required_by_kind_like_the_schema(policy, field):
    # PerEpochSqrt sets eta itself: a value would be ignored, and to_dict would
    # write it back into aggregate.json as if it had been used.
    raw = {**scenarios.smoke(), "eta_policy": policy}
    with pytest.raises(ConfigError, match=re.escape(f"field '{field}'")):
        ScenarioConfig.from_dict(raw)
    assert not json_schema_validator().is_valid(raw)
    for good in ({"kind": "PerEpochSqrt"}, {"kind": "Fixed", "value": 0.3}):
        raw = {**scenarios.smoke(), "eta_policy": good}
        config = ScenarioConfig.from_dict(raw)
        assert json_schema_validator().is_valid(raw)
        assert ScenarioConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("field", ["mu", "invalid_fraction", "strategies[0].q",
                                   "eta_policy.value"])
def test_number_past_the_float_range_is_refused(field):
    # 10**400 is a JSON integer no float can hold; converting it would overflow.
    with pytest.raises(ConfigError, match=re.escape(f"field '{field}'")):
        ScenarioConfig.from_dict(smoke_with(field, 10**400))


def test_provider_seqs_stay_below_the_forged_range():
    # Provider seqs run 1..gen_rate*total_rounds; forged ones start past 2^40.
    ScenarioConfig.from_dict({**scenarios.smoke(), "gen_rate": 1 << 20,
                              "total_rounds": (1 << 20) - 1})
    with pytest.raises(ConfigError, match=re.escape("field 'gen_rate'")):
        ScenarioConfig.from_dict({**scenarios.smoke(), "gen_rate": 1 << 20,
                                  "total_rounds": 1 << 20})


def test_forged_seqs_stay_below_two_to_the_64():
    # The forger at collector index 1 forges seqs up to
    # FORGED_SEQ_BASE + 1*FORGED_SEQ_STRIDE + forge_rate*total_rounds.
    room = (1 << 64) - FORGED_SEQ_BASE - FORGED_SEQ_STRIDE

    def raw(forge_rate):
        return {**scenarios.smoke(), "n": 2, "topology": [[0, 1]], "total_rounds": 2,
                "strategies": [{"kind": "Honest"}, {"kind": "Forger", "forge_rate": forge_rate}]}

    ScenarioConfig.from_dict(raw((room - 1) // 2))
    with pytest.raises(ConfigError, match=re.escape("field 'strategies[1].forge_rate'")):
        ScenarioConfig.from_dict(raw(room // 2))


@pytest.mark.parametrize("field", ["gen_rate", "stakes[0]", "strategies[0].forge_rate"])
def test_integral_float_loads_as_the_int_it_equals(field):
    # JSON Schema counts 2.0 as an integer, so the loader must too.
    raw = smoke_with(field, 2.0)
    assert json_schema_validator().is_valid(raw)
    # repr tells 2.0 from 2, which == does not.
    as_int = ScenarioConfig.from_dict(smoke_with(field, 2))
    assert repr(ScenarioConfig.from_dict(raw)) == repr(as_int)


def test_scenario_files_match_builders():
    for name, raw in scenarios.all_named().items():
        on_disk = json.loads((SCENARIOS_DIR / f"{name}.json").read_text())
        assert on_disk == raw, f"scenarios/{name}.json is stale"


def test_scenario_files_satisfy_published_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCENARIOS_DIR.parent / "docs" / "scenario_schema.json").read_text())
    for name, raw in scenarios.all_named().items():
        jsonschema.validate(raw, schema)


# -- engine behavior -------------------------------------------------------------


def test_empty_round_leaves_ledger_at_genesis():
    cfg = minimal_config(gen_rate=0, total_rounds=1)
    ledger, metrics = run(cfg)
    assert len(ledger.blocks) == 1
    assert ledger.blocks[0].serial == 0
    assert len(metrics.rounds) == 1
    assert metrics.rounds[0].blocks == 0


def test_fixed_seed_bitwise_reproducible(tmp_path):
    cfg = cfg_from("properties_0", total_rounds=40)
    out = []
    for sub in ("a", "b"):
        ledger, metrics = run(cfg)
        reports = [compute_regret(metrics, p) for p in range(cfg.l)]
        d = tmp_path / sub
        emit_csv(metrics, reports, d)
        ledger.write_hex(d / "ledger.hex")
        out.append(d)
    for name in ("rounds.csv", "epochs.csv", "ledger.hex"):
        assert (out[0] / name).read_bytes() == (out[1] / name).read_bytes()


def test_ledger_hex_is_written_block_by_block(tmp_path):
    # Writing holds one block's line at a time, so its peak is a small multiple
    # of the longest line, not of the file.
    cfg = minimal_config(gen_rate=100, b_limit=100, total_rounds=105, T=100_000)
    ledger, _ = run(cfg)
    assert len(ledger.blocks) >= 100
    path = tmp_path / "ledger.hex"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ledger.write_hex(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    lines = [block_bytes(b).hex() + "\n" for b in ledger.blocks]
    assert path.read_bytes() == "".join(lines).encode()
    longest = max(map(len, lines))
    assert sum(map(len, lines)) > 50 * longest
    assert peak < 4 * longest


def step_recording(monkeypatch, world, each_round=lambda world, minted: None):
    """Step ``world`` to its last round; return each minted transaction and each
    chained txid's round, this one read off the blocks each round appended."""
    minted = []
    generate = ProviderNode.generate

    def recording(self, round_no):
        fresh = generate(self, round_no)
        minted.extend(fresh)
        return fresh

    monkeypatch.setattr(ProviderNode, "generate", recording)
    chained = {}
    for _ in range(world.config.total_rounds):
        appended = len(world.ledger.blocks)
        step_round(world)
        for block in world.ledger.blocks[appended:]:
            chained.update((tx.txid, world.round) for tx in block.tx_list)
        each_round(world, minted)
    finalize(world)
    return minted, chained


def test_generation_index_holds_what_the_txid_maps_held(monkeypatch):
    cfg = ScenarioConfig.from_dict(scenarios.properties(1))
    assert cfg.l == 2
    world = init_world(cfg)
    minted, chained = step_recording(monkeypatch, world)
    metrics = world.metrics
    gen_round = {tx.txid: tx.timestamp for tx in minted}
    assert {p for p, _, _ in gen_round} == {0, 1}
    assert dict(metrics.generated()) == gen_round
    assert list(metrics.generated()) == sorted(gen_round.items())
    assert all(map(metrics.was_generated, gen_round))
    assert metrics.gen_valid == {tx.txid: tx.timestamp for tx in minted if tx.ground_truth_valid}
    assert set(chained) <= metrics.gen_valid.keys()
    for cutoff in (None, cfg.total_rounds - 10, 1):
        expected = [chained[t] - g for t, g in metrics.gen_valid.items()
                    if t in chained and (cutoff is None or g <= cutoff)]
        assert metrics.inclusion_latencies(cutoff) == expected
    for cutoff in (cfg.total_rounds - 10, cfg.total_rounds, 0):
        eligible = [t for t, g in metrics.gen_valid.items() if g <= cutoff]
        rate = sum(t in chained for t in eligible) / len(eligible) if eligible else 1.0
        assert metrics.inclusion_rate(cutoff) == rate
    assert 0 < metrics.inclusion_rate(cfg.total_rounds) < 1


def _drop_a_provider_pending_id(world):
    p = next(p for p in world.providers if p.pending)
    del p.pending[next(iter(p.pending))]


def _mint_one_more(world):
    world.metrics.gen_rounds[0].append(world.round)


@pytest.mark.parametrize("alter", [
    lambda world: setattr(world, "round", world.round + 1),
    lambda world: _bump_rep(world.governors[0]),
    lambda world: _reorder_pending_tail(world.governors[0]),
    _drop_a_provider_pending_id,
    _mint_one_more,
], ids=["round", "rep", "pending_order", "provider_pending", "minted"])
def test_each_part_world_state_hash_covers_moves_it(alter):
    cfg = ScenarioConfig.from_dict(dict(scenarios.properties(10), b_limit=1))
    world = init_world(cfg)
    for _ in range(12):
        step_round(world)
    before = world_state_hash(world)
    assert world_state_hash(world) == before
    alter(world)
    assert world_state_hash(world) != before


def test_the_tip_commits_the_invalid_lists_the_hash_leaves_out(monkeypatch):
    # world_state_hash reads no round list. A leader that leaves one invalid
    # transaction out of its lists still makes a block every governor accepts,
    # and the tip, so the hash, differs from the honest run's from that round on.
    cfg = ScenarioConfig.from_dict(scenarios.properties(10))
    honest, patched = init_world(cfg), init_world(cfg)
    propose = GovernorNode.propose_round
    dropped = []

    def dropping(self, results):
        invalid = [res for res in results if res.outcome == "invalid"]
        if invalid and not dropped:
            dropped.append(invalid[0].tx.txid)
            results = [res for res in results if res is not invalid[0]]
        return propose(self, results)

    while not dropped:
        assert honest.ledger.tip_hash() == patched.ledger.tip_hash()
        step_round(honest)
        with monkeypatch.context() as patch:
            patch.setattr(GovernorNode, "propose_round", dropping)
            step_round(patched)
    assert patched.round == honest.round and cfg.m == 3
    assert dropped[0] in honest.ledger.settled
    assert all(dropped[0] not in g.ledger.settled for g in patched.governors)
    assert patched.ledger.tip_hash() != honest.ledger.tip_hash()
    assert world_state_hash(patched) != world_state_hash(honest)


@pytest.mark.parametrize("rounds", [120, 600])
def test_world_state_hash_peak_does_not_grow_with_the_run(rounds):
    # The hash reads the round's state, not the archives, so its traced peak
    # (11-12 KB on either finished world) does not grow with the run.
    cfg = ScenarioConfig.from_dict(dict(scenarios.doubling(), total_rounds=rounds))
    world = init_world(cfg)
    for _ in range(rounds):
        step_round(world)
    finalize(world)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world_state_hash(world)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


def test_record_generated_refuses_a_seq_out_of_turn():
    log = MetricsLog(2)
    log.record_generated((1, 1, 3), 3, True)
    with pytest.raises(SimulationError, match=r"provider 1: seq 3 .* next seq is 2"):
        log.record_generated((1, 3, 4), 4, True)  # seq 2 skipped
    with pytest.raises(SimulationError, match=r"provider 1: seq 1 .* next seq is 2"):
        log.record_generated((1, 1, 4), 4, False)  # seq 1 again
    with pytest.raises(SimulationError, match=r"provider 0: seq 1 stamped 5, recorded at round 6"):
        log.record_generated((0, 1, 5), 6, True)
    assert list(log.generated()) == [((1, 1, 3), 3)]
    assert log.gen_valid == {(1, 1, 3): 3}
    assert [list(rounds) for rounds in log.chain_rounds] == [[], [0]]


def test_only_a_generated_transaction_reaches_the_chain_record():
    log = MetricsLog(2)
    log.record_generated((0, 1, 1), 1, True)
    log.record_generated((1, 1, 1), 1, False)
    for txid in [(0, 2, 1), (0, 1, 2), (2, 1, 1), (-1, 1, 1), (0, FORGED_SEQ_BASE + 1, 1),
                 (0, 0, 1)]:
        assert not log.was_generated(txid)
        with pytest.raises(SimulationError, match="never generated"):
            log.record_on_chain(txid, 3)
    log.record_on_chain((0, 1, 1), 3)
    assert log.inclusion_latencies() == [2]


def test_end_to_end_honest_all_on_chain():
    # 100 valid transactions, one honest collector: everything lands, no loss
    cfg = minimal_config(gen_rate=4, total_rounds=29, invalid_fraction=0.0,
                         T=1000, b_limit=50)
    ledger, metrics = run(cfg)
    generated = [txid for txid, r in metrics.generated() if r <= 25]
    assert len(generated) == 100
    on_chain = {tx.txid for b in ledger.blocks for tx in b.tx_list}
    assert set(generated) <= on_chain
    assert compute_regret(metrics, 0).cumulative_prose_loss == 0
    loss, counts, regret = metrics.window_regret(0)
    assert loss == 0.0
    assert regret == 0.0


def test_honest_slots_of_a_shuffled_topology_are_never_penalized():
    # Each provider has one Honest collector, at a slot other than its id. A
    # label filed under the collector id would leave that slot absent, and
    # absent slots are penalized on every valid verdict.
    raw = {
        "seed": 5, "l": 3, "n": 6, "m": 2,
        "topology": [[4, 3, 0], [2, 0, 5], [1, 4, 2]],
        "strategies": [
            {"kind": "AlwaysPlus"}, {"kind": "Honest"}, {"kind": "FlipProb", "q": 0.3},
            {"kind": "Honest"}, {"kind": "AlwaysMinus"}, {"kind": "Honest"},
        ],
        "stakes": [1, 2], "T": 8, "eta_policy": {"kind": "PerEpochSqrt"}, "mu": 0.7,
        "delta_rounds": 1, "b_limit": 6, "gen_rate": 2, "invalid_fraction": 0.3,
        "total_rounds": 40,
    }
    cfg = ScenarioConfig.from_dict(raw)
    _, metrics = run(cfg)
    for provider, adj in enumerate(cfg.topology):
        (honest,) = [slot for slot, cid in enumerate(adj) if cfg.strategies[cid].kind == "Honest"]
        assert adj[honest] != honest
        report = compute_regret(metrics, provider)
        assert sum(ep.closed for ep in report.epochs) >= 2
        for ep in report.epochs:
            assert ep.slot_penalties[honest] == 0
            assert ep.S_T_min == 0 and max(ep.slot_penalties) > 0


def test_step_round_composition_equals_run():
    cfg = minimal_config(total_rounds=2)
    w1 = init_world(cfg)
    step_round(w1)
    step_round(w1)
    w2 = init_world(cfg)
    for _ in range(cfg.total_rounds):
        step_round(w2)
    assert world_state_hash(w1) == world_state_hash(w2)


def test_one_round_step_proposes_first_block():
    # earliest block appears once the pipeline fills: gen r1 -> label r2 ->
    # governor r3 -> screen r3+delta
    cfg = minimal_config(gen_rate=1, total_rounds=6, delta_rounds=1)
    w = init_world(cfg)
    for expected_blocks, _ in enumerate(range(cfg.total_rounds)):
        step_round(w)
    serials = [b.serial for b in w.ledger.blocks]
    assert serials == [0, 1, 2, 3]  # blocks from rounds 4..6
    assert w.metrics.rounds[2].blocks == 0
    assert w.metrics.rounds[3].blocks == 1


def test_message_takes_one_round_per_hop():
    cfg = minimal_config(gen_rate=1, total_rounds=3)
    w = init_world(cfg)
    step_round(w)
    # sent in round 1, not yet visible to the collector
    assert w.metrics.rounds[0].messages_pc == 1
    assert not w.governors[0].inbox
    step_round(w)
    # collector labeled in round 2; governor still unaware
    assert not w.governors[0].inbox
    step_round(w)
    assert len(w.governors[0].inbox) == 1


@pytest.mark.parametrize("raw", [
    scenarios.properties(2), scenarios.properties(7), scenarios.properties(11),
    dict(scenarios.doubling(), total_rounds=120),
], ids=["properties_2", "properties_7", "properties_11", "doubling_120"])
def test_no_collector_is_sent_an_invalid_listed_transaction(raw):
    # Collectors are not told the invalid lists, since no copy they are sent
    # was invalid-listed by the round it arrives: a provider resends only
    # pending transactions, and those are valid. A round's lists would reach
    # the collectors before they label what the round sent, so each round's
    # sends are checked against every invalid list up to that round.
    w = init_world(ScenarioConfig.from_dict(raw))
    round_lists = w.governors[0].ledger.round_lists
    invalid = set()
    resent = 0
    for r in range(1, w.config.total_rounds + 1):
        step_round(w)
        lists = round_lists.get(w.ledger.last.serial)
        if lists is not None:
            invalid.update(tx.txid for tx in lists.invalid_list)
        for tx in w.to_collectors:
            assert tx.txid not in invalid
            if tx.timestamp < r:
                resent += 1
                assert tx.ground_truth_valid
    assert resent == w.metrics.resubmissions > 0 and invalid
    assert not any(c.ignored for c in w.collectors)


def test_carry_over_respects_b_limit():
    cfg = minimal_config(gen_rate=3, total_rounds=12, invalid_fraction=0.0,
                         b_limit=2, T=1000)
    ledger, metrics = run(cfg)
    sizes = [len(b.tx_list) for b in ledger.blocks[1:]]
    assert all(s <= 2 for s in sizes)
    assert max(sizes) == 2
    # backlog keeps carrying, so later blocks stay full
    assert sizes[-1] == 2


def test_conservation_every_tx_in_exactly_one_bucket():
    cfg = cfg_from("properties_0", total_rounds=50)
    w = init_world(cfg)
    for _ in range(cfg.total_rounds):
        step_round(w)
    buckets = w.audit_conservation()
    assert not buckets["unclassified"]
    total = sum(len(v) for v in buckets.values())
    assert total == sum(1 for _ in w.metrics.generated())


def test_multi_governor_replicas_stay_identical():
    cfg = cfg_from("properties_0", total_rounds=60)
    w = init_world(cfg)
    for _ in range(cfg.total_rounds):
        step_round(w)  # internal assertion compares fingerprints each round
    tips = {g.ledger.tip_hash() for g in w.governors}
    assert len(tips) == 1
    reps = {tuple(g.rep) for g in w.governors}
    assert len(reps) == 1


def test_every_governor_applies_each_signed_verdict_once():
    # The leader applies each verdict it drew and signs them in the round's one
    # message; the replicas apply the same objects from it: one input to the one
    # transition, at all m governors.
    cfg = ScenarioConfig.from_dict(scenarios.properties(10))
    w = init_world(cfg)
    assert cfg.m == 3
    signed, in_messages = [], []
    applied = [[] for _ in w.governors]
    for g, log in zip(w.governors, applied):
        def recording_apply(msg, apply=g.apply_verdict, log=log):
            log.append(msg)
            return apply(msg)

        def recording_screen(txid, screen=g.screen):
            res = screen(txid)
            if res.verdict is not None:
                signed.append(res.verdict)
            return res

        def recording_sign(round_no, verdicts, sign=g.sign_verdicts):
            msg = sign(round_no, verdicts)
            in_messages.extend(msg.verdicts)
            return msg

        g.apply_verdict = recording_apply
        g.screen = recording_screen
        g.sign_verdicts = recording_sign
    for _ in range(cfg.total_rounds):
        step_round(w)
    assert 0 < len(signed) == sum(row.txs_verified for row in w.metrics.rounds)
    assert len(in_messages) == len(signed)
    assert all(got is verdict for got, verdict in zip(in_messages, signed))
    for log in applied:
        assert len(log) == len(signed)
        assert all(got is msg for got, msg in zip(log, signed))


def _record_ingested(g, seen):
    """Wrap one governor's ingest so every txid it accepts lands in ``seen``."""
    ingest = g.ingest

    def wrapped(uploads, round_no):
        codes = ingest(uploads, round_no)
        copies = [tx for upload in uploads for tx, _ in upload.labels]
        seen.update(tx.txid for tx, code in zip(copies, codes) if code == "ok")
        return codes

    g.ingest = wrapped


@pytest.mark.parametrize("raw", [scenarios.smoke(), scenarios.properties(10)],
                         ids=["smoke", "properties_10"])
def test_every_governor_keeps_each_tx_in_one_home(raw):
    cfg = ScenarioConfig.from_dict(raw)
    w = init_world(cfg)
    seen = [set() for _ in w.governors]
    for g, s in zip(w.governors, seen):
        _record_ingested(g, s)
    for _ in range(cfg.total_rounds):
        step_round(w)
        for g, s in zip(w.governors, seen):
            ledger = g.ledger
            homes = (g.inbox.keys(), g.pending.keys(), ledger.settled)
            unchecked = {t.txid for rl in ledger.round_lists.values() for t in rl.unchecked_list}
            for txid in s:
                n_homes = sum(txid in home for home in homes)
                # An unchecked tx leaves the governor until its provider resubmits it.
                assert n_homes == 1 or (n_homes == 0 and txid in unchecked), txid
            assert set().union(*homes) <= s
            # The settled index holds exactly what the chain settled.
            chained = [t.txid for b in ledger.blocks for t in b.tx_list]
            invalid = [t.txid for rl in ledger.round_lists.values() for t in rl.invalid_list]
            assert ledger.settled == set(chained) | set(invalid)
            assert len(ledger.settled) == len(chained) + len(invalid)
    assert len(w.governors) == cfg.m and all(
        any(b.tx_list for b in g.ledger.blocks) for g in w.governors
    )


def _bump_rep(g):
    p = max(range(len(g.rep)), key=lambda i: g.rep[i].cnt)
    reps = list(g.rep[p].reps)
    reps[0] += 1
    g.rep[p] = dataclasses.replace(g.rep[p], reps=tuple(reps))


def _reorder_pending_tail(g):
    # The next block takes only the head (b_limit 1), so the block checks
    # pass and only the replica comparison sees the new order.
    assert len(g.pending) >= 3
    head, *tail = g.pending.items()
    g.pending = dict([head, *reversed(tail)])


def _settle_last_unchecked(g):
    ledger = g.ledger
    unchecked = ledger.round_lists[ledger.last.serial].unchecked_list
    assert unchecked
    ledger.settled.add(unchecked[0].txid)


@pytest.mark.parametrize("alter", [
    _bump_rep,
    _reorder_pending_tail,
    lambda g: g.ledger.settled.add((99, 99, 99)),
    _settle_last_unchecked,
], ids=["rep", "pending_order", "settled_unminted", "settled_unchecked"])
def test_replica_divergence_detected(alter):
    cfg = ScenarioConfig.from_dict(dict(scenarios.properties(10), b_limit=1))
    w = init_world(cfg)
    assert cfg.m == 3
    for _ in range(12):
        step_round(w)
    alter(w.governors[1])
    with pytest.raises((SimulationError, ChainViolation), match="divergence"):
        step_round(w)


def test_replica_whose_tip_differs_is_a_chain_integrity_violation():
    # A replica one block behind: its ledger diverges before its state is compared.
    cfg = ScenarioConfig.from_dict(dict(scenarios.properties(10), b_limit=1))
    w = init_world(cfg)
    for _ in range(12):
        step_round(w)
    blocks = w.governors[2].ledger.blocks
    assert len(blocks) > 1
    blocks.pop()
    with pytest.raises(ChainViolation, match="ledger divergence at round 12") as raised:
        sim_engine.check_replicas(w, RoundRecord(w.round))
    assert raised.value.violation is Violation.CHAIN_INTEGRITY



@pytest.fixture
def collector_setting():
    """Put the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_step_round_restores_the_callers_collector_setting(enabled, collector_setting):
    cfg = ScenarioConfig.from_dict(dict(scenarios.properties(10), b_limit=1))
    w = init_world(cfg)
    g0 = w.governors[0]
    ingest, during = g0.ingest, []
    g0.ingest = lambda uploads, r: during.append(gc.isenabled()) or ingest(uploads, r)
    (gc.enable if enabled else gc.disable)()
    for _ in range(12):
        step_round(w)
        assert gc.isenabled() is enabled
    assert during == [False] * 12
    # A round that raises restores the setting too.
    _bump_rep(w.governors[1])
    with pytest.raises(SimulationError, match="divergence"):
        step_round(w)
    assert gc.isenabled() is enabled


def test_rounds_make_no_reference_cycles(collector_setting):
    # step_round pauses the cyclic collector for each round. That frees
    # nothing late only while a round leaves no cycle behind.
    worlds = {
        "properties_10": scenarios.properties(10),
        "unequal_stakes": unequal_stakes(),
        "doubling_40": dict(scenarios.doubling(), total_rounds=40),
    }
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for raw in worlds.values():
            cfg = ScenarioConfig.from_dict(raw)
            world = init_world(cfg)
            for _ in range(cfg.total_rounds):
                step_round(world)
        del world
        unreachable = gc.collect()
        cycles = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert unreachable == 0, cycles.most_common(5)


def test_rounds_start_no_cyclic_collection(collector_setting):
    # Back-to-back rounds allocate nothing tracked outside the collector's
    # pause, so the collections it put off never start.
    cfg = ScenarioConfig.from_dict(dict(scenarios.doubling(), total_rounds=120))
    world = init_world(cfg)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        for _ in range(cfg.total_rounds):
            step_round(world)
    finally:
        gc.callbacks.remove(count)
    assert world.round == 120 and starts == []


def test_no_signed_block_outlives_its_round():
    # Only the leader builds a SignedBlock, with the block's bytes, and the
    # round drops it: the feedback hop keeps the unchecked list and the
    # payload, and each ledger the Block and its lists.
    w = init_world(ScenarioConfig.from_dict(scenarios.properties(10)))
    for _ in range(8):
        step_round(w)
    assert all(w.feedback)  # round 8 made a block with both
    skip = (type, types.ModuleType, types.FunctionType, types.MethodType,
            types.BuiltinFunctionType)
    seen, stack, reached = set(), [w], collections.Counter()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        reached[type(obj)] += 1
        stack.extend(gc.get_referents(obj))
    assert reached[Block] > 1 and reached[RoundLists] > 0
    assert reached[SignedBlock] == 0 and reached[RoundRecord] == 0


@pytest.mark.parametrize("raw", [scenarios.properties(10),
                                 dict(scenarios.doubling(), total_rounds=120)],
                         ids=["properties_10", "doubling_120"])
def test_step_round_runs_each_phase_once_a_round_in_order(raw, monkeypatch):
    # step_round reads PHASES on every call, so wrapped entries observe each
    # phase without patching a node method, and change no result.
    cfg = ScenarioConfig.from_dict(raw)
    plain = init_world(cfg)
    for _ in range(cfg.total_rounds):
        step_round(plain)
    phases, log = sim_engine.PHASES, []

    def logged(phase):
        def wrapped(world, rnd):
            log.append((rnd.round, phase.__name__))
            phase(world, rnd)
        return wrapped

    monkeypatch.setattr(sim_engine, "PHASES", tuple(map(logged, phases)))
    world = init_world(cfg)
    for _ in range(cfg.total_rounds):
        step_round(world)
    assert log == [(r, phase.__name__) for r in range(1, cfg.total_rounds + 1)
                   for phase in phases]
    assert world.ledger.tip_hash() == plain.ledger.tip_hash()
    assert world_state_hash(world) == world_state_hash(plain)


@pytest.mark.parametrize("raw", [dict(scenarios.doubling(), total_rounds=40),
                                 scenarios.properties(10)],
                         ids=["doubling_40", "properties_10"])
def test_replica_check_fingerprints_each_governor_only_with_replicas(raw, monkeypatch):
    cfg = ScenarioConfig.from_dict(raw)
    w = init_world(cfg)
    calls = []
    fingerprint = GovernorNode.state_fingerprint
    monkeypatch.setattr(GovernorNode, "state_fingerprint",
                        lambda g: calls.append(g.id) or fingerprint(g))
    per_round = list(range(cfg.m)) if cfg.m > 1 else []
    for r in range(1, cfg.total_rounds + 1):
        step_round(w)
        assert calls == per_round * r


def test_replica_that_settled_the_next_head_refuses_the_block():
    # The tip hash proves the blocks equal, not the settled index derived
    # from them: only the block check sees this replica's extra txid.
    cfg = ScenarioConfig.from_dict(dict(scenarios.properties(10), b_limit=1))
    w = init_world(cfg)
    for _ in range(12):
        step_round(w)
    g = w.governors[1]
    g.ledger.settled.add(next(iter(g.pending)))
    with pytest.raises(ChainViolation, match="already_settled") as raised:
        step_round(w)
    assert raised.value.violation is Violation.ALREADY_SETTLED


def test_round_row_count_matches_total_rounds():
    cfg = minimal_config(total_rounds=17)
    _, metrics = run(cfg)
    assert len(metrics.rounds) == 17
    assert [row.round for row in metrics.rounds] == list(range(1, 18))


def test_resubmission_until_included():
    # a withholding-heavy collector forces retries; the provider keeps
    # resubmitting until the transaction lands
    raw = scenarios.smoke()
    raw.update({
        "n": 2,
        "topology": [[0, 1]],
        "strategies": [{"kind": "Honest"}, {"kind": "AlwaysMinus"}],
        "gen_rate": 1,
        "total_rounds": 60,
        "invalid_fraction": 0.0,
        "T": 1000,
        "eta_policy": {"kind": "Fixed", "value": 0.3},
    })
    cfg = ScenarioConfig.from_dict(raw)
    ledger, metrics = run(cfg)
    assert metrics.resubmissions > 0
    early = [txid for txid, r in metrics.gen_valid.items() if r <= 20]
    on_chain = {tx.txid for b in ledger.blocks for tx in b.tx_list}
    assert set(early) <= on_chain
