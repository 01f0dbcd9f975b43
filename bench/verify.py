"""Correctness checks run on every world the benchmark simulates.

Nothing here copies the program's current output. Block hashes and Merkle
commitments are re-derived with an encoder written from the serialization
rule in the ``repuchain.core_types`` docstring; regret, learning rates and
revenue shares are recomputed from the per-transaction event stream with the
benchmark's own softmax; the rest are properties the protocol must have.
Each check returns a list of problems, empty when the world passes.
"""

from __future__ import annotations

import hashlib
import math

ZERO = b"\x00" * 32
TAG_INVALID = b"\x01"
TAG_UNCHECKED = b"\x02"
OUTCOME_UNCHECKED = 0
TOL = 1e-9


def _int(v: int) -> bytes:
    return v.to_bytes(8, "big")


def _field(payload: bytes) -> bytes:
    return len(payload).to_bytes(8, "big") + payload


def _list(items) -> bytes:
    items = list(items)
    return _int(len(items)) + b"".join(_field(i) for i in items)


def tx_signed_bytes(tx) -> bytes:
    return _field(_int(tx.provider_id)) + _field(_int(tx.seq)) + _field(_int(tx.timestamp))


def tx_wire(tx) -> bytes:
    return tx_signed_bytes(tx) + _field(tx.signature.tag)


def block_hash(block) -> bytes:
    body = (
        _field(_int(block.serial))
        + _field(_int(block.leader_id))
        + _field(_list(tx_wire(t) for t in block.tx_list))
        + _field(block.mt_root)
        + _field(block.prev_hash)
    )
    return hashlib.sha256(body).digest()


def merkle(items) -> bytes:
    level = [hashlib.sha256(i).digest() for i in items]
    if not level:
        return ZERO
    while len(level) > 1:
        nxt = [hashlib.sha256(level[i] + level[i + 1]).digest() for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _softmax(xs, scale: float) -> list[float]:
    top = max(xs)
    ws = [math.exp(scale * (x - top)) for x in xs]
    total = sum(ws)
    return [w / total for w in ws]


def check_chain(world) -> list[str]:
    """(a) hashes, serials, links and list commitments; (e) one tip for all governors."""
    problems = []
    ledger = world.governors[0].ledger
    blocks = ledger.blocks
    g = blocks[0]
    if (g.serial, g.leader_id, g.tx_list, g.mt_root, g.prev_hash) != (0, 0, (), ZERO, ZERO):
        problems.append("chain: genesis block differs from the fixed bootstrap block")
    prev = None
    for i, block in enumerate(blocks):
        if block.serial != i:
            problems.append(f"chain: block {i} has serial {block.serial}")
        h = block_hash(block)
        if prev is not None and block.prev_hash != prev:
            problems.append(f"chain: block {i} prev_hash does not link to block {i - 1}")
        lists = ledger.round_lists.get(block.serial)
        if i > 0 and lists is not None:
            items = [TAG_INVALID + tx_wire(t) for t in lists.invalid_list]
            items += [TAG_UNCHECKED + tx_wire(t) for t in lists.unchecked_list]
            if merkle(items) != block.mt_root:
                problems.append(f"chain: block {i} mt_root does not commit its round lists")
        prev = h
        if len(problems) > 5:
            break
    if prev != ledger.tip_hash():
        problems.append("chain: re-derived tip hash differs from Ledger.tip_hash()")
    tips = {block_hash(gov.ledger.last) for gov in world.governors}
    if len(tips) != 1:
        problems.append(f"replicas: governors end on {len(tips)} different tips")
    return problems


def check_inclusion(world, drain_rounds: int) -> list[str]:
    """(b) chained transactions are unique, provider-signed and valid; none is lost."""
    problems = []
    metrics = world.metrics
    registry = world.registry
    publics = world.provider_publics
    seen = set()
    for block in world.governors[0].ledger.blocks:
        for tx in block.tx_list:
            txid = (tx.provider_id, tx.seq, tx.timestamp)
            if txid in seen:
                problems.append(f"inclusion: {txid} is on chain twice")
            seen.add(txid)
            if not tx.ground_truth_valid:
                problems.append(f"inclusion: invalid transaction {txid} on chain")
            public = publics.get(tx.provider_id)
            if public is None or not registry.verify(public, tx_signed_bytes(tx), tx.signature):
                problems.append(f"inclusion: {txid} lacks its provider's signature")
            if metrics.gen_valid.get(txid) != tx.timestamp:
                problems.append(f"inclusion: {txid} was not generated valid by its provider")
            if len(problems) > 5:
                return problems
    cutoff = max(world.config.total_rounds - drain_rounds, 1)
    lost = [t for t, r in metrics.gen_valid.items() if r <= cutoff and t not in seen]
    if lost:
        problems.append(
            f"inclusion: {len(lost)} valid transactions generated by round {cutoff} "
            f"never reached the chain, e.g. {lost[0]}"
        )
    return problems


def check_reputation(world) -> list[str]:
    """(c) per-epoch regret bound, epoch sizes, revenue; (d) honest slots unpenalized."""
    problems = []
    cfg = world.config
    metrics = world.metrics
    policy = cfg.eta_policy
    for p in range(cfg.l):
        slots = cfg.topology[p]
        u = len(slots)
        honest = [k for k, c in enumerate(slots) if cfg.strategies[c].kind == "Honest"]
        by_epoch: dict[int, list] = {}
        for ev in metrics.events[p]:
            by_epoch.setdefault(ev[0], []).append(ev)
        closed = {rec.epoch_index: rec for rec in metrics.epoch_records[p]}
        for i in sorted(set(by_epoch) | set(closed)):
            threshold = cfg.T * 2**i
            if policy.kind == "PerEpochSqrt":
                eta = math.sqrt(math.log(u) / threshold)
            else:
                eta = float(policy.value)
            reps = [0] * u
            loss = 0.0
            verified = 0
            mismatches = 0
            for _, outcome, recorded_loss, penalized in by_epoch.get(i, []):
                if outcome == OUTCOME_UNCHECKED:
                    continue
                verified += 1
                probs = _softmax(reps, eta)
                step = sum(probs[k] for k in penalized)
                mismatches += abs(step - recorded_loss) > TOL
                loss += step
                for k in penalized:
                    reps[k] -= 1
            if mismatches:
                problems.append(f"regret: provider {p} epoch {i}: {mismatches} recorded losses "
                                f"differ from the replayed softmax")
            penalties = [-r for r in reps]
            regret = loss - min(penalties)
            # With one slot (u=1, so eta=0 under PerEpochSqrt) regret is 0.
            bound = math.log(u) / eta + eta * verified / 2.0 if eta > 0 else 0.0
            if regret > bound + TOL:
                problems.append(f"regret: provider {p} epoch {i} regret {regret:.4f} > bound {bound:.4f}")
            rec = closed.get(i)
            if rec is not None:
                if verified != threshold:
                    problems.append(
                        f"epochs: provider {p} closed epoch {i} holds {verified} verified, "
                        f"expected T0*2^i = {threshold}"
                    )
                shares = _softmax(reps, cfg.mu)
                if len(rec.revenue) != u or any(
                    abs(a - b) > TOL for a, b in zip(shares, rec.revenue)
                ):
                    problems.append(f"revenue: provider {p} epoch {i} shares differ from softmax")
            for k in honest:
                if penalties[k]:
                    problems.append(f"honest: provider {p} epoch {i} slot {k} penalized {penalties[k]}")
            if len(problems) > 5:
                return problems
    return problems


def check_world(world, drain_rounds: int) -> list[str]:
    return check_chain(world) + check_inclusion(world, drain_rounds) + check_reputation(world)
