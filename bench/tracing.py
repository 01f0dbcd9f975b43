"""Per-layer tracing by wrapping repuchain's public functions from outside.

Each traced function is replaced, in every repuchain module that binds it
(``from .x import y`` copies the reference), by a wrapper that counts the
call and times it. Methods are wrapped on their classes. A layer's time is
self time: the wrapped call's duration minus the wrapped calls it made, so
the layers add up without double counting. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Per-layer metric -> (unit, better). Counts repeat exactly for a given seed.
LAYER_METRICS = {
    "core_types.encode_calls": ("count", "lower"),
    "core_types.encode_s": ("s", "lower"),
    "core_types.merkle_s": ("s", "lower"),
    "core_types.hash_block_calls": ("count", "lower"),
    "crypto_sim.sign_calls": ("count", "lower"),
    "crypto_sim.sign_s": ("s", "lower"),
    "crypto_sim.verify_calls": ("count", "lower"),
    "crypto_sim.verify_s": ("s", "lower"),
    "crypto_sim.vrf_calls": ("count", "lower"),
    "crypto_sim.vrf_s": ("s", "lower"),
    "reputation.select_calls": ("count", "lower"),
    "reputation.select_s": ("s", "lower"),
    "reputation.update_s": ("s", "lower"),
    "reputation.epochs_closed": ("count", "higher"),
    "nodes.tx_generated": ("count", "higher"),
    "nodes.generate_s": ("s", "lower"),
    "nodes.labels_emitted": ("count", "higher"),
    "nodes.label_s": ("s", "lower"),
    "nodes.ingest_calls": ("count", "lower"),
    "nodes.ingest_ok": ("count", "higher"),
    "nodes.ingest_s": ("s", "lower"),
    "nodes.screen_calls": ("count", "lower"),
    "nodes.verified": ("count", "lower"),
    "nodes.wasted_verifications": ("count", "lower"),
    "nodes.screen_s": ("s", "lower"),
    "nodes.replicate_calls": ("count", "lower"),
    "nodes.replicate_s": ("s", "lower"),
    "nodes.fingerprint_s": ("s", "lower"),
    "consensus.elections": ("count", "lower"),
    "consensus.elect_s": ("s", "lower"),
    "consensus.blocks": ("count", "lower"),
    "consensus.block_txs": ("count", "higher"),
    "consensus.propose_s": ("s", "lower"),
    "consensus.validate_s": ("s", "lower"),
    "sim_engine.init_s": ("s", "lower"),
    "sim_engine.step_self_s": ("s", "lower"),
    "metrics_oracle.record_s": ("s", "lower"),
    "metrics_oracle.regret_s": ("s", "lower"),
    "metrics_oracle.emit_s": ("s", "lower"),
    "metrics_oracle.oracle_calls": ("count", "lower"),
    "checks.evaluate_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _n_generated(result, args):
    return len(result)


def _emitted(result, args):
    return 0 if result is None else 1


def _n_forged(result, args):
    return len(result)


def _ingest_ok(result, args):
    return 1 if result == "ok" else 0


def _verified(result, args):
    return 1 if result.verified else 0


def _wasted(result, args):
    return 1 if result.outcome == "invalid" else 0


def _epoch_closed(result, args):
    return 0 if result[1] is None else 1


def _block_txs(result, args):
    return len(result[0].block.tx_list)


# (module, owner class or None, function name, time metric,
#  [(count metric, increment function or None for +1), ...]).
TARGETS = [
    ("core_types", None, "tx_signing_bytes", "core_types.encode_s", [("core_types.encode_calls", None)]),
    ("core_types", None, "tx_wire_bytes", "core_types.encode_s", [("core_types.encode_calls", None)]),
    ("core_types", None, "label_signing_bytes", "core_types.encode_s", [("core_types.encode_calls", None)]),
    ("core_types", None, "block_bytes", "core_types.encode_s", [("core_types.encode_calls", None)]),
    ("core_types", None, "merkle_root", "core_types.merkle_s", []),
    ("core_types", None, "commitment_items", "core_types.merkle_s", []),
    ("core_types", None, "lists_commitment_root", "core_types.merkle_s", []),
    ("core_types", None, "hash_block", "core_types.merkle_s", [("core_types.hash_block_calls", None)]),
    ("crypto_sim", None, "sign", "crypto_sim.sign_s", [("crypto_sim.sign_calls", None)]),
    ("crypto_sim", "KeyRegistry", "verify", "crypto_sim.verify_s", [("crypto_sim.verify_calls", None)]),
    ("crypto_sim", None, "vrf_eval", "crypto_sim.vrf_s", [("crypto_sim.vrf_calls", None)]),
    ("crypto_sim", "KeyRegistry", "vrf_verify", "crypto_sim.vrf_s", [("crypto_sim.vrf_calls", None)]),
    ("reputation", None, "selection_probabilities", "reputation.select_s", []),
    ("reputation", None, "draw_collector", "reputation.select_s", [("reputation.select_calls", None)]),
    ("reputation", None, "update_reputations", "reputation.update_s", []),
    ("reputation", None, "penalized_slots", "reputation.update_s", []),
    ("reputation", None, "revenue_shares", "reputation.update_s", []),
    ("reputation", None, "maybe_advance_epoch", "reputation.update_s",
     [("reputation.epochs_closed", _epoch_closed)]),
    ("nodes", "ProviderNode", "generate", "nodes.generate_s", [("nodes.tx_generated", _n_generated)]),
    ("nodes", "ProviderNode", "on_feedback", "nodes.generate_s", []),
    ("nodes", "ProviderNode", "on_chain", "nodes.generate_s", []),
    ("nodes", "CollectorNode", "process", "nodes.label_s", [("nodes.labels_emitted", _emitted)]),
    ("nodes", "CollectorNode", "forge", "nodes.label_s", [("nodes.labels_emitted", _n_forged)]),
    ("nodes", "CollectorNode", "note_invalid", "nodes.label_s", []),
    ("nodes", "GovernorNode", "on_labeled_transaction", "nodes.ingest_s",
     [("nodes.ingest_calls", None), ("nodes.ingest_ok", _ingest_ok)]),
    ("nodes", "GovernorNode", "expired", "nodes.screen_s", []),
    ("nodes", "GovernorNode", "screen", "nodes.screen_s",
     [("nodes.screen_calls", None), ("nodes.verified", _verified),
      ("nodes.wasted_verifications", _wasted)]),
    ("nodes", "GovernorNode", "clear_screened", "nodes.screen_s", []),
    ("nodes", "GovernorNode", "on_verification_message", "nodes.replicate_s",
     [("nodes.replicate_calls", None)]),
    ("nodes", "GovernorNode", "assert_no_gaps", "nodes.replicate_s", []),
    ("nodes", "GovernorNode", "note_block_appended", "nodes.replicate_s", []),
    ("nodes", "GovernorNode", "state_fingerprint", "nodes.fingerprint_s", []),
    ("consensus", None, "elect_leader", "consensus.elect_s", [("consensus.elections", None)]),
    ("consensus", None, "propose_block", "consensus.propose_s",
     [("consensus.blocks", None), ("consensus.block_txs", _block_txs)]),
    ("consensus", None, "validate_block", "consensus.validate_s", []),
    ("consensus", None, "validate_and_append", "consensus.validate_s", []),
    ("sim_engine", None, "init_world", "sim_engine.init_s", []),
    ("sim_engine", None, "step_round", "sim_engine.step_self_s", []),
    ("metrics_oracle", "MetricsLog", "record_generated", "metrics_oracle.record_s", []),
    ("metrics_oracle", "MetricsLog", "record_screening", "metrics_oracle.record_s", []),
    ("metrics_oracle", "MetricsLog", "record_epoch_close", "metrics_oracle.record_s", []),
    ("metrics_oracle", "MetricsLog", "record_on_chain", "metrics_oracle.record_s", []),
    ("metrics_oracle", None, "compute_regret", "metrics_oracle.regret_s", []),
    ("metrics_oracle", None, "scaling_fit", "metrics_oracle.regret_s", []),
    ("metrics_oracle", "MetricsLog", "window_regret", "metrics_oracle.regret_s", []),
    ("metrics_oracle", "MetricsLog", "inclusion_latencies", "metrics_oracle.regret_s", []),
    ("metrics_oracle", "MetricsLog", "inclusion_rate", "metrics_oracle.regret_s", []),
    ("metrics_oracle", None, "emit_csv", "metrics_oracle.emit_s", []),
    ("metrics_oracle", None, "summary_dict", "metrics_oracle.emit_s", []),
    ("metrics_oracle", None, "write_summary", "metrics_oracle.emit_s", []),
    # The oracle runs only inside the oracle-agreement check, so its time is
    # the check's: counted here, timed under checks.evaluate_s.
    ("metrics_oracle", None, "exact_expected_loss", "checks.evaluate_s",
     [("metrics_oracle.oracle_calls", None)]),
    ("metrics_oracle", None, "mc_expected_loss", "checks.evaluate_s",
     [("metrics_oracle.oracle_calls", None)]),
    ("checks", None, "evaluate", "checks.evaluate_s", []),
    ("cli", None, "main", "cli.self_s", []),
]


class Tracer:
    """Self time and call counts per layer metric, kept in memory."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []

    def span(self, time_metric: str, fn, label: str, counters=()):
        """Wrap ``fn`` so each call charges its self time to ``time_metric``."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        calls = self.calls
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[time_metric] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                calls[label] += 1
            for name, inc in counters:
                counts[name] += 1 if inc is None else inc(result, args)
            return result

        return wrapper

    def run_span(self, time_metric: str, fn, *args):
        """Run ``fn(*args)`` as one span of ``time_metric``."""
        return self.span(time_metric, fn, time_metric)(*args)

    def install(self) -> None:
        """Replace every binding of every target in the loaded repuchain modules."""
        for mod_name in ("cli", "scenarios", *(t[0] for t in TARGETS)):
            importlib.import_module(f"repuchain.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "repuchain" or name.startswith("repuchain.")]
        for mod_name, owner, fn_name, time_metric, counters in TARGETS:
            home = sys.modules[f"repuchain.{mod_name}"]
            label = f"{mod_name}.{owner + '.' if owner else ''}{fn_name}"
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[fn_name]
                setattr(cls, fn_name, self.span(time_metric, original, label, counters))
                continue
            original = getattr(home, fn_name)
            wrapped = self.span(time_metric, original, label, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def layer_metrics(self, factor: float) -> dict[str, float]:
        """Every layer metric; times scaled by the run's calibration factor."""
        out: dict[str, float] = {}
        for name, (unit, _) in LAYER_METRICS.items():
            if unit == "count":
                out[name] = self.counts.get(name, 0)
            elif unit == "s":
                out[name] = self.self_s.get(name, 0.0) * factor
        return out
