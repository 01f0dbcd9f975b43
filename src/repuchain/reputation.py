"""Reputation engine: softmax slot selection, one-sided penalty updates,
epoch doubling with reset, and revenue allocation.

Reputations are nonpositive integers per (provider, collector-slot). Slots
labeling a verified transaction wrongly lose one unit; an absent report
counts as a -1 label, so it is penalized only when the transaction turns out
valid. ``penalized_set`` states that rule once, over the set of slots that
vouched +1; the leader's draw (``screen_draw``), ``update_reputations``,
the Monte-Carlo oracle and a governor's verdict (``apply_penalties``) all
go through it. After ``epoch_threshold`` verified transactions the
accumulated reputations pay out revenue, reset to zero, the threshold
doubles, and the learning rate is retuned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from .core_types import slot_setters


class TopologyError(ValueError):
    """A provider ended up with no collector slots."""


@dataclass(frozen=True, slots=True)
class EtaPolicy:
    """How the learning rate is chosen at scenario start and each doubling.

    ``PerEpochSqrt`` retunes eta to sqrt(ln u / T_i) whenever the threshold
    doubles; ``Fixed`` keeps the configured value forever.
    """

    kind: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("PerEpochSqrt", "Fixed"):
            raise ValueError(f"unknown eta policy kind: {self.kind!r}")
        if self.kind == "Fixed" and (self.value is None or self.value <= 0):
            raise ValueError("Fixed eta policy needs a positive value")

    def eta_for(self, u: int, threshold: int) -> float:
        if self.kind == "Fixed":
            return float(self.value)  # type: ignore[arg-type]
        return math.sqrt(math.log(u) / threshold)


@dataclass(frozen=True, slots=True, init=False)
class ReputationState:
    """Per-provider reputation vector plus epoch counters.

    ``probs`` is the selection distribution of ``reps`` under ``eta``, a
    function of those two alone: the first ``screen_draw`` on the state
    computes it and stores it there, and every later draw on the same state
    (one after an unchecked screening, or the oracle's next run) reads it.
    It takes no part in equality, hashing or repr.
    """

    reps: tuple[int, ...]
    cnt: int
    epoch_threshold: int
    eta: float
    epoch_index: int
    probs: tuple[float, ...] | None = field(init=False, repr=False, compare=False)

    def __init__(self, reps: tuple[int, ...], cnt: int, epoch_threshold: int, eta: float,
                 epoch_index: int) -> None:
        s_reps, s_cnt, s_threshold, s_eta, s_epoch, s_probs = _STATE_SLOTS
        s_reps(self, reps)
        s_cnt(self, cnt)
        s_threshold(self, epoch_threshold)
        s_eta(self, eta)
        s_epoch(self, epoch_index)
        s_probs(self, None)


_STATE_SLOTS = slot_setters(ReputationState)
_set_probs = _STATE_SLOTS[-1]


def initial_state(u: int, threshold: int, policy: EtaPolicy,
                  epoch_index: int = 0) -> ReputationState:
    """Epoch ``epoch_index``'s start: u zero reputations, threshold ``threshold``, its eta."""
    if u < 1:
        raise TopologyError("provider has no collector slots")
    if threshold < 1:
        raise ValueError(f"epoch threshold must be >= 1, got {threshold}")
    return ReputationState(
        reps=(0,) * u,
        cnt=0,
        epoch_threshold=threshold,
        eta=policy.eta_for(u, threshold),
        epoch_index=epoch_index,
    )


def _softmax(reps: Sequence[float], scale: float) -> tuple[float, ...]:
    if not reps:
        raise TopologyError("empty reputation vector: provider has no collectors")
    m = max(reps)
    ws = [math.exp(scale * (r - m)) for r in reps]
    total = sum(ws)
    return tuple(w / total for w in ws)


def selection_probabilities(reps: Sequence[float], eta: float) -> tuple[float, ...]:
    """Probability of each slot, proportional to exp(eta * reputation).

    Computed with max-subtraction so deeply negative reputations stay stable.
    """
    return _softmax(reps, eta)


def draw_collector(probs: Sequence[float], rng) -> int:
    """Inverse-CDF draw over slots in canonical order; advances rng once."""
    r = rng.random()
    acc = 0.0
    last = len(probs) - 1
    for k, p in enumerate(probs):
        acc += p
        if r < acc:
            return k
    return last


def plus_slots(labels: Iterable[tuple[int, int]]) -> frozenset[int]:
    """The slots among ``(slot, label)`` pairs that vouched +1."""
    return frozenset([k for k, lab in labels if lab == 1])


def penalized_set(u: int, plus: frozenset[int], valid: bool) -> frozenset[int]:
    """The penalty rule, stated here alone: which of ``u`` slots lose one unit.

    Slot k loses one iff whether it vouched +1 (``k in plus``) differs from
    the verdict: verified valid, every slot that reported -1 or stayed
    silent; verified invalid, every slot that reported +1.
    """
    return plus.symmetric_difference(range(u)) if valid else plus


def penalized_slots(
    u: int, received_labels: Mapping[int, int], valid: bool
) -> tuple[int, ...]:
    """Slots that lose one reputation unit for this verified transaction, in order."""
    return tuple(sorted(penalized_set(u, plus_slots(received_labels.items()), valid)))


def screen_draw(
    state: ReputationState, labels: Mapping[int, int], rng,
    verify: Callable[[Any], bool], subject: Any,
) -> tuple[bool | None, tuple[int, ...], float]:
    """One screening step: draw a slot by reputation, verify only on its +1.

    Returns ``(verdict, penalized, loss)``: ``verify(subject)``, or None when
    the drawn slot did not vouch +1 (an absent label counts as -1); the slots
    to penalize; and the selection-probability mass on them. Leaves ``state``
    unchanged, apart from storing its ``probs`` on the first draw.
    """
    probs = state.probs
    if probs is None:
        probs = selection_probabilities(state.reps, state.eta)
        _set_probs(state, probs)
    if labels.get(draw_collector(probs, rng)) != 1:
        return None, (), 0.0
    valid = verify(subject)
    pen = penalized_slots(len(state.reps), labels, valid)
    return valid, pen, sum(probs[k] for k in pen) if pen else 0.0


def update_reputations(
    state: ReputationState, received_labels: Mapping[int, int], valid: bool
) -> ReputationState:
    """Apply one verified transaction's penalties and bump the epoch counter."""
    return apply_penalties(state, plus_slots(received_labels.items()), valid)


def apply_penalties(state: ReputationState, plus: frozenset[int], valid: bool) -> ReputationState:
    """``update_reputations`` for a verdict whose +1 slots are ``plus``, in one pass over the reps."""
    reps = state.reps
    pen = penalized_set(len(reps), plus, valid)
    return ReputationState(tuple([r - (k in pen) for k, r in enumerate(reps)]), state.cnt + 1,
                           state.epoch_threshold, state.eta, state.epoch_index)


def revenue_shares(reps: Sequence[int], mu: float) -> tuple[float, ...]:
    """Per-slot shares of one epoch's unit profit, summing to 1: softmax(mu * reps)."""
    return _softmax(reps, mu)


def maybe_advance_epoch(
    state: ReputationState, mu: float, policy: EtaPolicy
) -> tuple[ReputationState, tuple[float, ...] | None]:
    """At the epoch boundary: pay revenue, reset reputations, double T, retune eta.

    Call after every ``apply_penalties``. At the boundary it returns the next
    epoch's state (u = ``len(state.reps)`` zeros) and the closed epoch's
    revenue shares; anywhere short of it, ``(state, None)``.
    """
    if state.cnt < state.epoch_threshold:
        return state, None
    next_epoch = initial_state(len(state.reps), state.epoch_threshold * 2, policy,
                               state.epoch_index + 1)
    return next_epoch, revenue_shares(state.reps, mu)
