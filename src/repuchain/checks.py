"""Named acceptance checks the CLI evaluates over a batch of runs.

Each check consumes the per-seed summaries produced by the runner and
returns a pass/fail verdict with the governing inequality spelled out, so a
CI failure message says exactly which bound broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .metrics_oracle import exact_expected_loss, mc_expected_loss, mean_se
from .scenarios import LATENCY_FACTOR, SLOPE_WINDOW


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _aborted(name: str, summaries: Sequence[dict]) -> CheckResult | None:
    """The failing verdict of a check that reads runs when any run aborted, else None."""
    failed = [s for s in summaries if "error" in s]
    if not failed:
        return None
    return CheckResult(name, False, f"{len(failed)} run(s) aborted: {failed[0]['error']}")


def check_regret_bound(summaries: Sequence[dict]) -> CheckResult:
    """Every run's per-epoch regret must stay within the theorem bound.

    The bound is deterministic. An epoch starts from zero reputations, so
    W = sum_i exp(eta * rep_i) starts at u. A verified step penalizing the
    slots x in {0, 1}^u costs l = sum_i p_i x_i and, as e^(-eta x) <=
    1 - eta x + eta^2 x / 2 on {0, 1}, scales W by at most
    exp(-eta (1 - eta/2) l); an unchecked step changes nothing. W_T >=
    exp(-eta S_T_min) then gives L_T - S_T_min <= ln(u)/eta + eta L_T / 2
    <= ln(u)/eta + eta T / 2 for any loss sequence, adaptive ones included,
    so every (seed, provider, epoch) is held to it, up to 1e-9 of rounding.
    """
    if aborted := _aborted("regret-bound", summaries):
        return aborted
    worst = min(
        ((ep["bound"] - ep["regret"], s["seed"], prov["provider_id"], ep)
         for s in summaries for prov in s["providers"] for ep in prov["epochs"]),
        key=lambda row: row[0], default=None,
    )
    if worst is None:
        return CheckResult("regret-bound", False, "no epochs recorded")
    slack, seed, provider, ep = worst
    detail = (
        f"worst: seed {seed} provider {provider} epoch {ep['epoch_index']}: "
        f"regret {ep['regret']:.4f}, bound {ep['bound']:.4f}, "
        f"require regret <= bound + 1e-9 in every run (slack {slack:.4f})"
    )
    return CheckResult("regret-bound", slack >= -1e-9, detail)


def check_scaling(summaries: Sequence[dict]) -> CheckResult:
    """Mean log-log slope of per-epoch regret vs epoch size within the window."""
    if aborted := _aborted("scaling", summaries):
        return aborted
    slopes = []
    for s in summaries:
        for prov in s["providers"]:
            if prov["slope"] is not None:
                slopes.append(prov["slope"])
    if not slopes:
        return CheckResult("scaling", False, "no defined slopes (zero regret throughout?)")
    mean, se = mean_se(slopes)
    lo, hi = SLOPE_WINDOW
    detail = (
        f"mean slope over {len(slopes)} fits = {mean:.4f} (se {se:.4f}), "
        f"require {lo} <= slope <= {hi}"
    )
    return CheckResult("scaling", lo <= mean <= hi, detail)


def check_properties(summaries: Sequence[dict]) -> CheckResult:
    """No safety violations, full inclusion, and zero forged txs on chain."""
    if aborted := _aborted("properties", summaries):
        return aborted
    problems = []
    for s in summaries:
        if not s["on_chain_all_generated"]:
            problems.append(f"seed {s['seed']}: non-provider transaction on chain")
        inc = s["inclusion"]
        if inc["rate"] < 1.0:
            problems.append(
                f"seed {s['seed']}: inclusion {inc['rate']:.4f} < 1.0 "
                f"(valid txs generated by round {inc['cutoff']})"
            )
        if inc["median_latency"] is not None and inc["median_latency"] > LATENCY_FACTOR * s["max_u"]:
            problems.append(
                f"seed {s['seed']}: median latency {inc['median_latency']} > "
                f"{LATENCY_FACTOR}*u = {LATENCY_FACTOR * s['max_u']}"
            )
    total_attempts = sum(s["forgery_attempts"] for s in summaries)
    detail = f"{len(summaries)} runs, {total_attempts} forgery attempts, all blocks validated"
    if problems:
        return CheckResult("properties", False, "; ".join(problems[:3]))
    return CheckResult("properties", True, detail)


ORACLE_AGREEMENT_INSTANCES = (
    {"labels": [[1, -1]], "validity": [False], "eta": 0.5},
    {"labels": [[1, 1]], "validity": [False], "eta": 0.5},
    {"labels": [[1, -1], [-1, 1], [1, 1]], "validity": [False, True, False], "eta": 0.4},
    {"labels": [[1, -1, 0], [1, 1, -1], [0, 1, 1], [1, -1, -1]],
     "validity": [False, True, True, False], "eta": 0.3},
)


def check_oracle_agreement(_summaries: Sequence[dict]) -> CheckResult:
    """Monte-Carlo means through the production code paths match the oracle."""
    n_runs = 8000
    for idx, inst in enumerate(ORACLE_AGREEMENT_INSTANCES):
        exact = exact_expected_loss(inst["labels"], inst["validity"], inst["eta"])
        mc = mc_expected_loss(
            inst["labels"], inst["validity"], inst["eta"], n_runs=n_runs, seed=idx
        )
        for tag, mean, se, want in (("", mc.mean_proof, mc.se_proof, exact.proof_loss),
                                    (" (prose)", mc.mean_prose, mc.se_prose, exact.prose_loss)):
            tol = 3 * se + 1e-9
            if abs(mean - want) > tol:
                return CheckResult(
                    "oracle-agreement", False,
                    f"instance {idx}{tag}: |{mean:.5f} - {want:.5f}| > 3*se = {tol:.5f}",
                )
    return CheckResult(
        "oracle-agreement", True,
        f"{len(ORACLE_AGREEMENT_INSTANCES)} instances within 3 standard errors",
    )


CHECKS = {
    "regret-bound": check_regret_bound,
    "scaling": check_scaling,
    "properties": check_properties,
    "oracle-agreement": check_oracle_agreement,
}
CHECK_NAMES = tuple(CHECKS)


def evaluate(names: Sequence[str], summaries: Sequence[dict]) -> list[CheckResult]:
    """Run the named checks in order; an unknown name raises KeyError."""
    return [CHECKS[name](summaries) for name in names]
