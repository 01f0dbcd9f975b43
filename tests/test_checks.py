import pytest

from repuchain import scenarios
from repuchain.checks import (
    check_properties,
    check_regret_bound,
    check_scaling,
    evaluate,
)
from repuchain.cli import run_seed
from repuchain.metrics_oracle import mean_se
from repuchain.scenarios import LATENCY_FACTOR, SLOPE_WINDOW
from repuchain.sim_engine import ScenarioConfig

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
    assert not check_regret_bound([summary(), ABORTED]).passed
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
    assert not check_scaling([summary(), ABORTED]).passed


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


def test_properties_reports_the_aborted_run():
    result = check_properties([summary(), ABORTED])
    assert not result.passed
    assert "1 run(s) aborted" in result.detail and "divergence" in result.detail


def test_evaluate_runs_the_named_checks_in_order():
    results = evaluate(("properties", "scaling"), [summary()])
    assert [(r.name, r.passed) for r in results] == [("properties", True), ("scaling", True)]
