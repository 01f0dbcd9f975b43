"""Deterministic stand-ins for PKI primitives: signatures, hashing, VRF.

Signatures are keyed SHA-256 tags; verification goes through a registry of
issued keys that models the identity manager installing verification keys on
every node. This gives unforgeability-by-assumption without real asymmetric
crypto, keeps runs reproducible, and needs no dependencies.

The registry is the one identity directory: ``KeyRegistry.enrol`` installs
a node's public under its role (provider, collector or governor) and index,
and ``verify_as`` checks a signature as that member's, so a genuine key of
another role verifies nothing. No node or block check holds a key map.

A tag is SHA-256 over ``b"sig" + secret + msg``. A ``KeyPair`` carries, as
``sig_state``, the SHA-256 state after ``b"sig" + secret``, built once with
the key; ``sign`` and every check copy it and hash their own message into the
copy. The registry maps each public to its ``KeyPair`` and keeps no
verdicts: a check is a pure function of the key, the bytes and the tag, and a
governor that has already accepted a transaction's exact bytes does not ask
again (``nodes.GovernorNode.ingest``, ``consensus.validate_block``).
``KeyRegistry.verify`` alone refuses unknown signers: an unregistered public,
or None for a member with no public, verifies nothing.

The VRF is a pair of keyed hashes: a governor's value and proof for an
input are SHA-256 over ``b"vrf" + secret + input`` and
``b"vrfp" + secret + input``, and ``KeyRegistry.vrf_verify`` recomputes both
from the registered secret. The election (``consensus.elect_leader``) draws
one value per governor per round from the round seed alone; the stake
weighting happens in how that value is read (see ``docs/election.md``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .core_types import SimSignature, Transaction, enc_int, sha256

SECRET_SIZE = 32


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
    sig_state: hashlib._Hash = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sig_state", hashlib.sha256(b"sig" + self.secret))


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
    h = kp.sig_state.copy()
    h.update(msg)
    return SimSignature(h.digest())


def vrf_eval(kp: KeyPair, vrf_input: bytes) -> VrfOutput:
    value, proof = _vrf_pair(kp.secret, vrf_input)
    return VrfOutput(value=value, proof=proof)


class KeyRegistry:
    """Simulated identity manager: issues keys and resolves them for verifiers.

    All key material derives from one root seed, so a scenario's identities
    are reproducible. Verification of unknown publics fails closed.
    ``members`` maps each role to ``{index: public}``.
    """

    def __init__(self, root_seed: int = 0):
        self._root = enc_int(root_seed)
        self._keys: dict[bytes, KeyPair] = {}
        self.members: dict[str, dict[int, bytes]] = {
            role: {} for role in ("provider", "collector", "governor")}

    def issue(self, node_id: int) -> KeyPair:
        secret = sha256(b"key" + self._root + enc_int(node_id))
        kp = keypair_from_secret(node_id, secret)
        self.register(kp)
        return kp

    def enrol(self, role: str, index: int, node_id: int) -> KeyPair:
        """Issue ``node_id``'s key and install its public as ``role`` member ``index``."""
        kp = self.issue(node_id)
        self.members[role][index] = kp.public
        return kp

    def register(self, kp: KeyPair) -> None:
        self._keys[kp.public] = kp

    def verify(self, public: bytes | None, msg: bytes, sig: SimSignature) -> bool:
        kp = self._keys.get(public)
        if kp is None:
            return False
        h = kp.sig_state.copy()
        h.update(msg)
        return h.digest() == sig.tag

    def verify_as(self, role: str, index: int, msg: bytes, sig: SimSignature) -> bool:
        """Check ``sig`` as ``role`` member ``index``'s; a member not enrolled fails closed."""
        return self.verify(self.members[role].get(index), msg, sig)

    def verify_tx(self, tx: Transaction) -> bool:
        """Check a transaction's provider signature; unknown providers fail closed."""
        return self.verify(self.members["provider"].get(tx.provider_id), tx.signing_bytes,
                           tx.signature)

    def vrf_verify(self, public: bytes, vrf_input: bytes, out: VrfOutput) -> bool:
        kp = self._keys.get(public)
        if kp is None:
            return False
        return (out.value, out.proof) == _vrf_pair(kp.secret, vrf_input)


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
