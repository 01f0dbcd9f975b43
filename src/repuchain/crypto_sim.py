"""Deterministic stand-ins for PKI primitives: signatures, hashing, VRF.

Signatures are keyed SHA-256 tags; verification goes through a registry of
issued keys that models the identity manager installing verification keys on
every node. This gives unforgeability-by-assumption without real asymmetric
crypto, keeps runs reproducible, and needs no dependencies.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .core_types import SimSignature, Transaction, enc_int, sha256, tx_signing_bytes

SECRET_SIZE = 32


# The same (secret, message) tag is computed when signing and again at every
# verifying hop; memoizing the pure function keeps the simulation honest
# while dropping the duplicate hashing.
@lru_cache(maxsize=1 << 16)
def _sig_tag(secret: bytes, msg: bytes) -> bytes:
    return sha256(b"sig" + secret + msg)


@lru_cache(maxsize=1 << 14)
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


class KeyRegistry:
    """Simulated identity manager: issues keys and resolves them for verifiers.

    All key material derives from one root seed, so a scenario's identities
    are reproducible. Verification of unknown publics fails closed.
    """

    def __init__(self, root_seed: int = 0):
        self._root = enc_int(root_seed)
        self._by_public: dict[bytes, bytes] = {}

    def issue(self, node_id: int) -> KeyPair:
        secret = sha256(b"key" + self._root + enc_int(node_id))
        kp = keypair_from_secret(node_id, secret)
        self.register(kp)
        return kp

    def register(self, kp: KeyPair) -> None:
        self._by_public[kp.public] = kp.secret

    def verify(self, public: bytes, msg: bytes, sig: SimSignature) -> bool:
        secret = self._by_public.get(public)
        if secret is None:
            return False
        return sig.tag == _sig_tag(secret, msg)

    def verify_tx(self, provider_publics: Mapping[int, bytes], tx: Transaction) -> bool:
        """Check a transaction's provider signature; unknown providers fail closed."""
        public = provider_publics.get(tx.provider_id)
        return public is not None and self.verify(
            public, tx_signing_bytes(tx.provider_id, tx.seq, tx.timestamp), tx.signature
        )

    def vrf_verify(self, public: bytes, vrf_input: bytes, out: VrfOutput) -> bool:
        secret = self._by_public.get(public)
        if secret is None:
            return False
        return (out.value, out.proof) == _vrf_pair(secret, vrf_input)


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
