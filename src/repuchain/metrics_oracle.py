"""Loss accounting, regret reports, scaling fits, and the exact small-instance oracle.

Two loss metrics are tracked side by side and never merged:

* prose loss ("wasted verifications"): the count of ground-truth-invalid
  transactions the governor actually verified;
* governor loss ("proof loss"): when a transaction is verified, the
  selection-probability mass that sat on the slots being penalized (the +1
  reporters of an invalid transaction, or the -1/absent slots of a valid
  one). Summed over a window started at a reputation reset, this realized
  loss minus the best slot's penalty count never exceeds
  ln(u)/eta + eta*T/2 on any run, which is what the regret checks assert.

The exact oracle recomputes both losses by enumerating the selection
distribution per transaction with its own softmax, independent of the
reputation module it cross-checks.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .crypto_sim import substream
from .nodes import EpochClosure, ScreeningResult, TxId
from .reputation import (
    ReputationState,
    draw_collector,
    selection_probabilities,
    update_reputations,
)

ORACLE_MAX_U = 3
ORACLE_MAX_T = 12

OUTCOME_UNCHECKED = 0
OUTCOME_VALID = 1
OUTCOME_INVALID = 2
OUTCOME_CODES = {
    "unchecked": OUTCOME_UNCHECKED, "valid": OUTCOME_VALID, "invalid": OUTCOME_INVALID,
}

ROUND_COLUMNS = (
    "round", "leader_id", "txs_screened", "txs_verified", "wasted_verifications",
    "blocks", "messages_pc", "messages_cg", "messages_gg",
)


class InstanceTooLargeError(ValueError):
    """The exact oracle only enumerates instances with u <= 3 and T <= 12."""


def theorem_bound(u: int, eta: float, T: int) -> float:
    """Regret ceiling ln(u)/eta + eta*T/2 for one fixed-eta window."""
    return math.log(u) / eta + eta * T / 2.0


@dataclass(slots=True)
class RoundRow:
    round: int
    leader_id: int
    txs_screened: int = 0
    txs_verified: int = 0
    wasted_verifications: int = 0
    blocks: int = 0
    messages_pc: int = 0
    messages_cg: int = 0
    messages_gg: int = 0


@dataclass(frozen=True, slots=True)
class EpochRecord:
    epoch_index: int
    threshold: int
    eta: float
    revenue: tuple[float, ...]


class MetricsLog:
    """Per-run event log: screening events, epochs, latencies, message counts."""

    def __init__(self, n_providers: int):
        self.n_providers = n_providers
        # One (epoch_index, outcome, loss, penalized) tuple per screened tx.
        self.events: list[list[tuple[int, int, float, tuple[int, ...]]]] = [
            [] for _ in range(n_providers)
        ]
        self.epoch_records: list[list[EpochRecord]] = [[] for _ in range(n_providers)]
        self.final_states: list[ReputationState] | None = None
        self.gen_round: dict[TxId, int] = {}
        self.gen_valid: dict[TxId, int] = {}
        self.chain_round: dict[TxId, int] = {}
        self.rounds: list[RoundRow] = []
        self.verification_calls = [0] * n_providers
        self.forgery_attempts = 0
        self.dropped_forged = 0
        self.dropped_bad_signature = 0
        self.resubmissions = 0

    # -- recording hooks driven by the engine -------------------------------

    def record_generated(self, txid: TxId, round_no: int, valid: bool) -> None:
        self.gen_round[txid] = round_no
        if valid:
            self.gen_valid[txid] = round_no

    def record_screening(self, result: ScreeningResult) -> None:
        p = result.provider_id
        if result.verified:
            self.verification_calls[p] += 1
        self.events[p].append(
            (result.epoch_index, OUTCOME_CODES[result.outcome], result.loss, result.penalized)
        )

    def record_epoch_close(self, closure: EpochClosure) -> None:
        self.epoch_records[closure.provider_id].append(
            EpochRecord(
                epoch_index=closure.epoch_index,
                threshold=closure.threshold,
                eta=closure.eta,
                revenue=closure.revenue.shares,
            )
        )

    def record_on_chain(self, txid: TxId, round_no: int) -> None:
        self.chain_round[txid] = round_no

    def finalize(self, states: Sequence[ReputationState]) -> None:
        self.final_states = list(states)

    # -- derived views -------------------------------------------------------

    def wasted_verifications(self, provider: int) -> int:
        return sum(1 for _, o, _, _ in self.events[provider] if o == OUTCOME_INVALID)

    def slot_penalties(
        self, provider: int, first_n: int | None = None, epoch_index: int | None = None
    ) -> list[int]:
        assert self.final_states is not None, "finalize() not called"
        u = len(self.final_states[provider].reps)
        counts = [0] * u
        events = self.events[provider]
        if first_n is not None:
            events = events[:first_n]
        for ep, _, _, penalized in events:
            if epoch_index is not None and ep != epoch_index:
                continue
            for k in penalized:
                counts[k] += 1
        return counts

    def window_regret(
        self, provider: int, first_n: int | None = None
    ) -> tuple[float, list[int], float]:
        """(loss, per-slot penalties, regret) over the first_n screened events."""
        events = self.events[provider]
        if first_n is not None:
            events = events[:first_n]
        loss = sum(e[2] for e in events)
        counts = self.slot_penalties(provider, first_n=first_n)
        return loss, counts, loss - min(counts)

    def inclusion_latencies(self, max_gen_round: int | None = None) -> list[int]:
        """Rounds from generation to on-chain for valid transactions."""
        out = []
        for txid, gen in self.gen_valid.items():
            if max_gen_round is not None and gen > max_gen_round:
                continue
            chained = self.chain_round.get(txid)
            if chained is not None:
                out.append(chained - gen)
        return out

    def inclusion_rate(self, max_gen_round: int) -> float:
        """Fraction of valid txs generated by max_gen_round that reached the chain.

        The cap excludes the drain window at the end of a run, where
        transactions are still legitimately in flight.
        """
        eligible = [t for t, g in self.gen_valid.items() if g <= max_gen_round]
        if not eligible:
            return 1.0
        on_chain = sum(1 for t in eligible if t in self.chain_round)
        return on_chain / len(eligible)


@dataclass(frozen=True, slots=True)
class EpochRegret:
    epoch_index: int
    T: int
    eta: float
    loss: float
    prose_loss: int
    slot_penalties: tuple[int, ...]
    s_min: int
    regret: float
    bound: float
    revenue: tuple[float, ...] | None
    closed: bool


@dataclass(frozen=True, slots=True)
class RegretReport:
    provider_id: int
    u: int
    epochs: tuple[EpochRegret, ...]
    T_total: int
    cumulative_regret: float
    cumulative_prose_loss: int
    slope: float | None


def compute_regret(log: MetricsLog, provider: int) -> RegretReport:
    """Per-epoch and cumulative regret against the theorem bound."""
    assert log.final_states is not None, "finalize() not called"
    final = log.final_states[provider]
    u = len(final.reps)
    closed = {rec.epoch_index: rec for rec in log.epoch_records[provider]}
    by_epoch: dict[int, list[tuple[int, int, float, tuple[int, ...]]]] = {}
    for ev in log.events[provider]:
        by_epoch.setdefault(ev[0], []).append(ev)
    epochs = []
    for idx in sorted(set(by_epoch) | set(closed)):
        events = by_epoch.get(idx, [])
        loss = sum(e[2] for e in events)
        prose = sum(1 for e in events if e[1] == OUTCOME_INVALID)
        counts = [0] * u
        verified = 0
        for _, outcome, _, penalized in events:
            if outcome != OUTCOME_UNCHECKED:
                verified += 1
            for k in penalized:
                counts[k] += 1
        rec = closed.get(idx)
        eta = rec.eta if rec is not None else final.eta
        s_min = min(counts)
        epochs.append(
            EpochRegret(
                epoch_index=idx,
                T=verified,
                eta=eta,
                loss=loss,
                prose_loss=prose,
                slot_penalties=tuple(counts),
                s_min=s_min,
                regret=loss - s_min,
                bound=theorem_bound(u, eta, verified) if verified else math.log(u) / eta,
                revenue=rec.revenue if rec is not None else None,
                closed=rec is not None,
            )
        )
    points = []
    t_acc, r_acc = 0, 0.0
    for ep in epochs:
        if not ep.closed:
            break
        t_acc += ep.T
        r_acc += ep.regret
        points.append((float(t_acc), r_acc))
    return RegretReport(
        provider_id=provider,
        u=u,
        epochs=tuple(epochs),
        T_total=sum(ep.T for ep in epochs),
        cumulative_regret=sum(ep.regret for ep in epochs),
        cumulative_prose_loss=sum(ep.prose_loss for ep in epochs),
        slope=scaling_fit(points),
    )


def scaling_fit(points: Sequence[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(cumulative regret) vs log(T_total).

    Roughly 0.5 signals square-root scaling. Returns None when regret never
    rose above zero (slope undefined, not an error).
    """
    usable = [(t, r) for t, r in points if t > 0 and r > 0]
    if len(usable) < 2:
        return None
    xs = [math.log(t) for t, _ in usable]
    ys = [math.log(r) for _, r in usable]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


# -- exact oracle ------------------------------------------------------------


def _normalize_labels(
    label_matrix: Sequence[Sequence[int | None]],
) -> list[tuple[int | None, ...]]:
    rows = []
    for row in label_matrix:
        norm = []
        for lab in row:
            if lab in (None, 0):
                norm.append(None)
            elif lab in (1, -1):
                norm.append(lab)
            else:
                raise ValueError(f"label must be +1, -1, or absent, got {lab!r}")
        rows.append(tuple(norm))
    return rows


@dataclass(frozen=True, slots=True)
class ExactLoss:
    proof_loss: float
    prose_loss: float
    slot_penalties: tuple[float, ...]
    verified: float  # expected number of verified transactions

    @property
    def regret(self) -> float:
        return self.proof_loss - min(self.slot_penalties)


def exact_expected_loss(
    label_matrix: Sequence[Sequence[int | None]],
    validity: Sequence[bool],
    eta: float,
    initial_reps: Sequence[int] | None = None,
) -> ExactLoss:
    """Exact expectations by propagating the reachable reputation distribution.

    For each transaction only two successor states exist: verified (the
    penalty vector is fixed by the labels and the verdict) and unverified
    (unchanged), so the distribution over reputation vectors stays small and
    expectations are computed without sampling. Deliberately self-contained:
    it shares no code with the reputation module it validates.
    """
    labels = _normalize_labels(label_matrix)
    T = len(labels)
    if T != len(validity):
        raise ValueError("label matrix and validity vector lengths differ")
    u = len(labels[0]) if labels else 0
    if any(len(row) != u for row in labels):
        raise ValueError("label matrix rows have inconsistent widths")
    if u > ORACLE_MAX_U or T > ORACLE_MAX_T:
        raise InstanceTooLargeError(
            f"instance with u={u}, T={T} exceeds oracle bounds "
            f"(u <= {ORACLE_MAX_U}, T <= {ORACLE_MAX_T})"
        )
    if u == 0:
        raise ValueError("instance has no collector slots")
    reps0 = tuple(initial_reps) if initial_reps is not None else (0,) * u
    if len(reps0) != u:
        raise ValueError("initial reputation vector width differs from label matrix")

    dist: dict[tuple[int, ...], float] = {reps0: 1.0}
    proof_loss = 0.0
    prose_loss = 0.0
    verified = 0.0
    slot_pen = [0.0] * u
    for row, valid in zip(labels, validity):
        plus = [k for k in range(u) if row[k] == 1]
        if valid:
            pen = [k for k in range(u) if row[k] != 1]
        else:
            pen = plus
        nxt: dict[tuple[int, ...], float] = {}
        for reps, pr in dist.items():
            m = max(reps)
            ws = [math.exp(eta * (r - m)) for r in reps]
            tot = sum(ws)
            q = sum(ws[k] for k in plus) / tot
            if q > 0.0:
                mass = sum(ws[k] for k in pen) / tot
                proof_loss += pr * q * mass
                verified += pr * q
                if not valid:
                    prose_loss += pr * q
                for k in pen:
                    slot_pen[k] += pr * q
                after = list(reps)
                for k in pen:
                    after[k] -= 1
                key = tuple(after)
                nxt[key] = nxt.get(key, 0.0) + pr * q
            if q < 1.0:
                nxt[reps] = nxt.get(reps, 0.0) + pr * (1.0 - q)
        dist = nxt
    return ExactLoss(
        proof_loss=proof_loss,
        prose_loss=prose_loss,
        slot_penalties=tuple(slot_pen),
        verified=verified,
    )


def mean_se(xs: Sequence[float]) -> tuple[float, float]:
    """Sample mean and its standard error (zero for a single sample)."""
    n = len(xs)
    mean = sum(xs) / n
    if n < 2:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, math.sqrt(var / n)


@dataclass(frozen=True, slots=True)
class MonteCarloLoss:
    mean_proof: float
    se_proof: float
    mean_prose: float
    se_prose: float
    n_runs: int


def mc_expected_loss(
    label_matrix: Sequence[Sequence[int | None]],
    validity: Sequence[bool],
    eta: float,
    n_runs: int,
    seed: int,
    initial_reps: Sequence[int] | None = None,
) -> MonteCarloLoss:
    """Monte-Carlo estimate of the same instance, driven through the
    production selection/update code paths, for agreement checks against
    the exact oracle."""
    labels = _normalize_labels(label_matrix)
    u = len(labels[0])
    reps0 = tuple(initial_reps) if initial_reps is not None else (0,) * u
    rng = substream(seed, "oracle-mc")
    proof_samples = []
    prose_samples = []
    base = ReputationState(
        reps=reps0, cnt=0, epoch_threshold=1 << 30, eta=eta, epoch_index=0
    )
    for _ in range(n_runs):
        state = base
        proof = 0.0
        prose = 0
        for row, valid in zip(labels, validity):
            received = {k: lab for k, lab in enumerate(row) if lab is not None}
            probs = selection_probabilities(state.reps, eta)
            k = draw_collector(probs, rng)
            if received.get(k) != 1:
                continue
            if valid:
                pen = [j for j in range(u) if received.get(j) != 1]
            else:
                pen = [j for j in range(u) if received.get(j) == 1]
                prose += 1
            proof += sum(probs[j] for j in pen)
            state = update_reputations(state, received, valid)
        proof_samples.append(proof)
        prose_samples.append(prose)
    mp, sp = mean_se(proof_samples)
    mw, sw = mean_se(prose_samples)
    return MonteCarloLoss(mp, sp, mw, sw, n_runs)


# -- artifact emission --------------------------------------------------------


def emit_csv(log: MetricsLog, reports: Sequence[RegretReport], out_dir) -> None:
    """Write rounds.csv and epochs.csv with deterministic ordering."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "rounds.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ROUND_COLUMNS)
        for row in log.rounds:
            w.writerow([
                row.round, row.leader_id, row.txs_screened, row.txs_verified,
                row.wasted_verifications, row.blocks, row.messages_pc,
                row.messages_cg, row.messages_gg,
            ])
    max_u = max((r.u for r in reports), default=0)
    with open(out / "epochs.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["provider_id", "epoch_index", "T_i", "eta", "L_T", "S_T_min",
             "regret", "bound"]
            + [f"revenue_share_{k + 1}" for k in range(max_u)]
        )
        for report in reports:
            for ep in report.epochs:
                revenue = list(ep.revenue) if ep.revenue is not None else []
                revenue += [""] * (max_u - len(revenue))
                w.writerow(
                    [report.provider_id, ep.epoch_index, ep.T, repr(ep.eta),
                     repr(ep.loss), ep.s_min, repr(ep.regret), repr(ep.bound)]
                    + [repr(x) if x != "" else "" for x in revenue]
                )


def summary_dict(reports: Sequence[RegretReport]) -> dict:
    """Structured summary mirroring the RegretReport fields."""
    return {
        "providers": [
            {
                "provider_id": r.provider_id,
                "u": r.u,
                "T_total": r.T_total,
                "cumulative_regret": r.cumulative_regret,
                "cumulative_prose_loss": r.cumulative_prose_loss,
                "slope": r.slope,
                "epochs": [
                    {
                        "epoch_index": ep.epoch_index,
                        "T": ep.T,
                        "eta": ep.eta,
                        "L_T": ep.loss,
                        "prose_loss": ep.prose_loss,
                        "S_T_min": ep.s_min,
                        "slot_penalties": list(ep.slot_penalties),
                        "regret": ep.regret,
                        "bound": ep.bound,
                        "revenue": list(ep.revenue) if ep.revenue else None,
                        "closed": ep.closed,
                    }
                    for ep in r.epochs
                ],
            }
            for r in reports
        ]
    }


def write_summary(reports: Sequence[RegretReport], path) -> None:
    Path(path).write_text(json.dumps(summary_dict(reports), indent=2, sort_keys=True))
