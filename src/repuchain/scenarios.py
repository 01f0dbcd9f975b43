"""Acceptance scenario definitions, shared by the test suite and the CLI.

Every scenario is an ordinary config dict (see ``ScenarioConfig.from_dict``);
the JSON files under scenarios/ are generated from these builders so the two
never drift. Tolerances for the acceptance checks are pinned here as
constants.
"""

from __future__ import annotations

import math

# Criterion parameters.
REGRET_WINDOW = 10_000            # screened transactions per regret run
DOUBLING_T0 = 500                 # first epoch threshold
SLOPE_WINDOW = (0.35, 0.65)
DRAIN_ROUNDS = 60                 # tail excluded from inclusion metrics
LATENCY_FACTOR = 3                # median latency bound is 3 * u


def smoke() -> dict:
    """Tiny honest run: one provider, one collector, one governor."""
    return {
        "seed": 0,
        "l": 1, "n": 1, "m": 1,
        "topology": [[0]],
        "strategies": [{"kind": "Honest"}],
        "stakes": [1],
        "T": 100,
        "eta_policy": {"kind": "Fixed", "value": 0.5},
        "mu": 0.7,
        "delta_rounds": 1,
        "b_limit": 16,
        "gen_rate": 2,
        "invalid_fraction": 0.0,
        "total_rounds": 10,
    }


def regret_bound(u: int) -> dict:
    """One provider, one governor, one honest collector among always-plus ones.

    Sized so at least REGRET_WINDOW transactions are screened within a single
    epoch; eta is fixed at sqrt(ln u / REGRET_WINDOW), which minimizes the
    per-epoch bound ln(u)/eta + eta*T/2 at T = REGRET_WINDOW. The
    regret-bound check compares each epoch's regret with that epoch's bound.
    """
    gen_rate = 200
    gen_rounds = (REGRET_WINDOW + gen_rate - 1) // gen_rate
    return {
        "seed": 0,
        "l": 1, "n": u, "m": 1,
        "topology": [list(range(u))],
        "strategies": [{"kind": "Honest"}] + [{"kind": "AlwaysPlus"}] * (u - 1),
        "stakes": [1],
        "T": 10_000_000,  # single epoch: never reached
        "eta_policy": {"kind": "Fixed", "value": math.sqrt(math.log(u) / REGRET_WINDOW)},
        "mu": 0.7,
        "delta_rounds": 1,
        "b_limit": 400,
        "gen_rate": gen_rate,
        "invalid_fraction": 0.5,
        "total_rounds": gen_rounds + 5,
    }


def doubling() -> dict:
    """Adversarial mix driving six doubling epochs from T = 500.

    Needs (2^6 - 1) * 500 = 31500 verified transactions; with a 0.5 invalid
    fraction roughly every valid transaction is eventually verified, so the
    run generates about twice that, plus drain rounds for stragglers.
    """
    return {
        "seed": 0,
        "l": 1, "n": 4, "m": 1,
        "topology": [[0, 1, 2, 3]],
        "strategies": [
            {"kind": "Honest"},
            {"kind": "AlwaysPlus"},
            {"kind": "FlipProb", "q": 0.3},
            {"kind": "Withhold", "q": 0.5},
        ],
        "stakes": [1],
        "T": DOUBLING_T0,
        "eta_policy": {"kind": "PerEpochSqrt"},
        "mu": 0.7,
        "delta_rounds": 1,
        "b_limit": 400,
        "gen_rate": 120,
        "invalid_fraction": 0.5,
        "total_rounds": 600,
    }


def properties(index: int) -> dict:
    """Randomized multi-governor scenario with a forger, for the safety suite."""
    ls = [1, 2, 3]
    ns = [3, 4, 5, 6]
    ms = [2, 3, 4]
    l = ls[index % len(ls)]
    n = ns[index % len(ns)]
    m = ms[index % len(ms)]
    kinds = ["AlwaysPlus", "AlwaysMinus", "FlipProb", "Withhold"]
    strategies: list[dict] = [{"kind": "Forger", "forge_rate": 12}]
    for j in range(1, n):
        if j <= l:
            strategies.append({"kind": "Honest"})
        else:
            kind = kinds[(index + j) % len(kinds)]
            entry: dict = {"kind": kind}
            if kind in ("FlipProb", "Withhold"):
                entry["q"] = 0.25 + 0.1 * ((index + j) % 4)
            strategies.append(entry)
    # Every provider gets all collectors, so each has an honest slot.
    topology = [list(range(n)) for _ in range(l)]
    return {
        "seed": 1000 + index,
        "l": l, "n": n, "m": m,
        "topology": topology,
        "strategies": strategies,
        "stakes": [1 + (index + k) % 4 for k in range(m)],
        "T": 20 + 10 * (index % 4),
        "eta_policy": {"kind": "PerEpochSqrt"},
        "mu": 0.7,
        "delta_rounds": 1 + index % 2,
        "b_limit": 3 + index % 5,
        "gen_rate": 1 + index % 3,
        "invalid_fraction": 0.2 + 0.1 * (index % 4),
        "total_rounds": 90,
    }


def oracle_uniform_invalid() -> dict:
    """Single invalid transaction, labels (+1, -1), flat reputations."""
    return {
        "labels": [[1, -1]],
        "validity": [False],
        "eta": 0.5,
    }


def all_named() -> dict[str, dict]:
    return {
        "smoke": smoke(),
        "regret_u2": regret_bound(2),
        "regret_u4": regret_bound(4),
        "regret_u8": regret_bound(8),
        "doubling": doubling(),
        "properties_0": properties(0),
    }
