"""Deterministic stand-ins for PKI primitives: signatures, hashing, VRF.

Signatures are keyed SHA-256 tags; verification goes through a registry of
issued keys that models the identity manager installing verification keys on
every node. This gives unforgeability-by-assumption without real asymmetric
crypto, keeps runs reproducible, and needs no dependencies.

A tag is SHA-256 over ``b"sig" + secret + msg``. The registry keeps, per
public key, a SHA-256 state that has absorbed ``b"sig" + secret``; it is
built on the first verification under that key, so issuing keys costs no
more than before. Every verification copies that state, hashes its own
message into the copy and compares the digest with the tag, so each check
still computes its own digest and none reuses another's verdict.

The VRF works the same way for a stake-weighted election: a governor's
value and proof for unit ``j`` hash ``round_seed + enc_int(j)`` after the
prefix ``b"vrf"``/``b"vrfp" + secret``. ``vrf_eval_units`` and
``KeyRegistry.vrf_verify_units`` absorb that prefix and the round seed once
per governor and then evaluate, or check, every unit from a copy; they
equal ``vrf_eval``/``vrf_verify`` unit by unit, which stay the definition.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Mapping

from .core_types import SimSignature, Transaction, enc_int, sha256

SECRET_SIZE = 32


def _sig_tag(secret: bytes, msg: bytes) -> bytes:
    return hashlib.sha256(b"sig" + secret + msg).digest()


def _vrf_pair(secret: bytes, vrf_input: bytes) -> tuple[bytes, bytes]:
    return (
        sha256(b"vrf" + secret + vrf_input),
        sha256(b"vrfp" + secret + vrf_input),
    )


@dataclass(frozen=True, slots=True)
class KeyPair:
    node_id: int
    secret: bytes
    public: bytes


@dataclass(frozen=True, slots=True)
class VrfOutput:
    value: bytes
    proof: bytes


def public_from_secret(secret: bytes) -> bytes:
    return sha256(b"pk" + secret)


def keypair_from_secret(node_id: int, secret: bytes) -> KeyPair:
    if len(secret) != SECRET_SIZE:
        raise ValueError(f"secret must be {SECRET_SIZE} bytes, got {len(secret)}")
    return KeyPair(node_id=node_id, secret=secret, public=public_from_secret(secret))


def sign(kp: KeyPair, msg: bytes) -> SimSignature:
    return SimSignature(tag=_sig_tag(kp.secret, msg))


def vrf_eval(kp: KeyPair, vrf_input: bytes) -> VrfOutput:
    value, proof = _vrf_pair(kp.secret, vrf_input)
    return VrfOutput(value=value, proof=proof)


def _vrf_unit_pairs(secret: bytes, round_seed: bytes, units: int) -> list[tuple[bytes, bytes]]:
    """``_vrf_pair(secret, round_seed + enc_int(j))`` for every j < units."""
    value_state = hashlib.sha256(b"vrf" + secret + round_seed)
    proof_state = hashlib.sha256(b"vrfp" + secret + round_seed)
    pairs = []
    for j in range(units):
        suffix = enc_int(j)
        value = value_state.copy()
        value.update(suffix)
        proof = proof_state.copy()
        proof.update(suffix)
        pairs.append((value.digest(), proof.digest()))
    return pairs


def vrf_eval_units(kp: KeyPair, round_seed: bytes, units: int) -> list[VrfOutput]:
    """Unit j's output is ``vrf_eval(kp, round_seed + enc_int(j))``."""
    pairs = _vrf_unit_pairs(kp.secret, round_seed, units)
    return [VrfOutput(value, proof) for value, proof in pairs]


class KeyRegistry:
    """Simulated identity manager: issues keys and resolves them for verifiers.

    All key material derives from one root seed, so a scenario's identities
    are reproducible. Verification of unknown publics fails closed.
    """

    def __init__(self, root_seed: int = 0):
        self._root = enc_int(root_seed)
        self._by_public: dict[bytes, bytes] = {}
        # public -> SHA-256 state after b"sig" + secret, built on first verify
        self._sig_states: dict[bytes, hashlib._Hash] = {}

    def issue(self, node_id: int) -> KeyPair:
        secret = sha256(b"key" + self._root + enc_int(node_id))
        kp = keypair_from_secret(node_id, secret)
        self.register(kp)
        return kp

    def register(self, kp: KeyPair) -> None:
        self._by_public[kp.public] = kp.secret

    def verify(self, public: bytes, msg: bytes, sig: SimSignature) -> bool:
        state = self._sig_states.get(public)
        if state is None:
            secret = self._by_public.get(public)
            if secret is None:
                return False
            state = self._sig_states[public] = hashlib.sha256(b"sig" + secret)
        h = state.copy()
        h.update(msg)
        return h.digest() == sig.tag

    def verify_tx(self, provider_publics: Mapping[int, bytes], tx: Transaction) -> bool:
        """Check a transaction's provider signature; unknown providers fail closed."""
        public = provider_publics.get(tx.provider_id)
        return public is not None and self.verify(public, tx.signing_bytes, tx.signature)

    def vrf_verify(self, public: bytes, vrf_input: bytes, out: VrfOutput) -> bool:
        secret = self._by_public.get(public)
        if secret is None:
            return False
        return (out.value, out.proof) == _vrf_pair(secret, vrf_input)

    def vrf_verify_units(self, public: bytes, round_seed: bytes, outs: list[VrfOutput]) -> bool:
        """True iff every ``outs[j]`` passes ``vrf_verify`` on ``round_seed + enc_int(j)``."""
        secret = self._by_public.get(public)
        if secret is None:
            return False
        expected = _vrf_unit_pairs(secret, round_seed, len(outs))
        return all(
            out.value == value and out.proof == proof
            for out, (value, proof) in zip(outs, expected)
        )


def substream(seed: int, *labels: int | str | bytes) -> random.Random:
    """Independent RNG substream keyed off the root seed.

    Adding a node never perturbs another node's stream, which keeps paired
    seed comparisons between scenarios meaningful.
    """
    h = hashlib.sha256(b"rng" + enc_int(seed))
    for label in labels:
        if isinstance(label, int):
            h.update(enc_int(label))
        elif isinstance(label, str):
            h.update(label.encode())
        else:
            h.update(label)
    return random.Random(int.from_bytes(h.digest(), "big"))
