from dataclasses import replace

import pytest

from repuchain import checks, cli, scenarios
from repuchain.checks import (
    check_oracle_agreement,
    check_properties,
    check_regret_bound,
    check_scaling,
    evaluate,
)
from repuchain.cli import run_seed
from repuchain.metrics_oracle import mc_expected_loss, mean_se
from repuchain.nodes import FORGED_SEQ_BASE
from repuchain.scenarios import LATENCY_FACTOR, SLOPE_WINDOW
from repuchain.sim_engine import ScenarioConfig, run

ABORTED = {"seed": 9, "error": "SimulationError: replicated state divergence"}


def summary(seed=0, margins=(1.0,), slope=0.5, rate=1.0, latency=2, on_chain_ok=True):
    """A hand-built per-seed summary with one provider (u = 2)."""
    return {
        "seed": seed,
        "providers": [{
            "provider_id": 0,
            "slope": slope,
            "epochs": [
                {"epoch_index": i, "bound": 10.0, "regret": 10.0 - m}
                for i, m in enumerate(margins)
            ],
        }],
        "inclusion": {"cutoff": 40, "rate": rate, "median_latency": latency, "count": 5},
        "max_u": 2,
        "forgery_attempts": 3,
        "dropped_forged": 3,
        "on_chain_all_generated": on_chain_ok,
    }


def test_mean_se():
    assert mean_se([4.0]) == (4.0, 0.0)
    mean, se = mean_se([1.0, 2.0, 3.0])
    assert mean == 2.0 and abs(se - (1 / 3) ** 0.5) < 1e-12


# -- regret-bound -----------------------------------------------------------------


def test_regret_bound_passes_within_bound():
    result = check_regret_bound([summary(seed=s, margins=(0.5, 2.0)) for s in range(3)])
    assert result.passed
    assert "provider 0 epoch 0" in result.detail  # the tightest epoch is reported


def test_regret_bound_fails_when_one_run_exceeds_its_bound():
    # The bound is deterministic, so a seed over it is not averaged away by
    # another seed far under it (mean margin 24.5 here).
    result = check_regret_bound([summary(margins=(-1.0,)), summary(seed=1, margins=(50.0,))])
    assert not result.passed
    assert "seed 0 provider 0 epoch 0" in result.detail
    assert check_regret_bound([summary(margins=(-1e-10,))]).passed  # rounding slack


def test_regret_bound_fails_beyond_bound():
    result = check_regret_bound([summary(seed=s, margins=(1.0, -0.5)) for s in range(3)])
    assert not result.passed
    assert "epoch 1" in result.detail


def test_regret_bound_fails_on_aborted_or_empty_runs():
    aborted = check_regret_bound([summary(), ABORTED])
    assert not aborted.passed
    assert "1 run(s) aborted" in aborted.detail and "divergence" in aborted.detail
    empty = check_regret_bound([summary(margins=())])
    assert not empty.passed and "no epochs" in empty.detail


# -- scaling ------------------------------------------------------------------------


def test_scaling_passes_inside_window():
    lo, hi = SLOPE_WINDOW
    assert check_scaling([summary(seed=s, slope=(lo + hi) / 2) for s in range(3)]).passed


def test_scaling_fails_outside_window():
    result = check_scaling([summary(slope=SLOPE_WINDOW[1] + 0.05)])
    assert not result.passed and "slope" in result.detail


def test_scaling_fails_without_slopes_or_on_aborted_runs():
    assert not check_scaling([summary(slope=None)]).passed
    aborted = check_scaling([summary(), ABORTED])
    assert not aborted.passed
    assert "1 run(s) aborted" in aborted.detail and "divergence" in aborted.detail


# -- properties ---------------------------------------------------------------------


def test_properties_passes_on_clean_runs():
    result = check_properties([summary(seed=s) for s in range(2)])
    assert result.passed and "6 forgery attempts" in result.detail


def test_properties_fails_on_each_violation():
    too_slow = LATENCY_FACTOR * 2 + 1
    cases = {
        "non-provider transaction": summary(on_chain_ok=False),
        "inclusion 0.9000": summary(rate=0.9),
        "median latency": summary(latency=too_slow),
    }
    for needle, bad in cases.items():
        result = check_properties([summary(seed=5), bad])
        assert not result.passed and needle in result.detail


@pytest.mark.parametrize("index", range(12))
def test_every_properties_world_passes_at_its_own_seed(index):
    # Block capacity must cover the expected valid arrivals; a world whose
    # backlog grows all run fails on median latency.
    raw = scenarios.properties(index)
    summary = run_seed(ScenarioConfig.from_dict(raw), raw["seed"], None)
    result = check_properties([summary])
    assert result.passed, result.detail


@pytest.mark.parametrize("settled", ["forged-range seq", "other timestamp", "provider past l"])
def test_on_chain_all_generated_fails_closed(monkeypatch, settled):
    # A settled txid that no provider minted: a seq in the forged range, a real
    # (provider, seq) under another timestamp, or a provider index >= l.
    raw = scenarios.properties(1)

    def run_then_settle(config):
        ledger, metrics = run(config)
        (provider, seq, stamp), _ = list(metrics.generated())[-1]
        ledger.settled.add({
            "forged-range seq": (provider, FORGED_SEQ_BASE + 1, stamp),
            "other timestamp": (provider, seq, stamp + 1),
            "provider past l": (config.l, seq, stamp),
        }[settled])
        return ledger, metrics

    monkeypatch.setattr(cli, "run", run_then_settle)
    summary = run_seed(ScenarioConfig.from_dict(raw), raw["seed"], None)
    assert summary["on_chain_all_generated"] is False
    result = check_properties([summary])
    assert not result.passed and "non-provider transaction" in result.detail


def test_properties_reports_the_aborted_run():
    result = check_properties([summary(), ABORTED])
    assert not result.passed
    assert "1 run(s) aborted" in result.detail and "divergence" in result.detail


# -- oracle-agreement ---------------------------------------------------------------


@pytest.mark.parametrize("field,tag", [("mean_proof", ""), ("mean_prose", " (prose)")])
def test_oracle_agreement_fails_past_three_standard_errors(monkeypatch, field, tag):
    # Shift one instance's Monte-Carlo mean past 3 SE; the check names that
    # instance, and the prose comparison alone says so.
    shifted = 2

    def off(labels, validity, eta, n_runs, seed):
        mc = mc_expected_loss(labels, validity, eta, n_runs=n_runs, seed=seed)
        if seed != shifted:
            return mc
        se = mc.se_proof if field == "mean_proof" else mc.se_prose
        return replace(mc, **{field: getattr(mc, field) + 3 * se + 0.01})

    monkeypatch.setattr(checks, "mc_expected_loss", off)
    result = check_oracle_agreement([])
    assert not result.passed
    assert result.detail.startswith(f"instance {shifted}{tag}: |")
    assert ("(prose)" in result.detail) == bool(tag)


def test_evaluate_runs_the_named_checks_in_order():
    results = evaluate(("properties", "scaling"), [summary()])
    assert [(r.name, r.passed) for r in results] == [("properties", True), ("scaling", True)]
