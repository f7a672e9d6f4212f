"""Simulated cryptographic primitives.

Signatures here are keyed SHA-256 digests held together by a per-run
KeyRegistry that knows every secret seed.  This gives us the two properties
the protocol logic actually depends on -- determinism and uniqueness (exactly
one byte string verifies per (signer, message)) -- without pretending to be
real cryptography.  Ephemeral per-(user, round, step) keys carry an explicit
destroy/retain lifecycle so key-reuse attacks can be expressed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

UserId = int
Digest = bytes
Signature = bytes

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN

# Domain-separation tags, exactly 4 ASCII bytes each (3-letter names are
# padded with "_").  Every hashed payload starts with one of these.
TAG_LEADER = b"LEAD"
TAG_VERIFIER = b"VERF"
TAG_BLOCK = b"BLK_"
TAG_PAYMENT = b"PAY_"
TAG_EPHEMERAL = b"EPH_"


class CryptoError(Exception):
    pass


class UnknownUserError(CryptoError):
    pass


class KeyMissingError(CryptoError):
    pass


class KeyDestroyedError(CryptoError):
    pass


class InvalidTransitionError(CryptoError):
    pass


class UnauthorizedSignerError(CryptoError):
    pass


def sha256(data: bytes) -> Digest:
    """32-byte SHA-256 digest of `data`."""
    return hashlib.sha256(data).digest()


def hash_to_unit(digest: Digest) -> float:
    """Map a digest to a fraction: first 8 bytes as big-endian u64 over 2^64."""
    return int.from_bytes(digest[:8], "big") / 2**64


def be8(value: int) -> bytes:
    """Big-endian 8-byte encoding used by all canonical serializations."""
    return value.to_bytes(8, "big")


class KeyState(Enum):
    AVAILABLE = "available"
    DESTROYED = "destroyed"
    RETAINED = "retained"


@dataclass
class EphemeralKeyRecord:
    """Per-(owner, round, step) signing key with a one-way lifecycle."""

    owner: UserId
    round: int
    step: int
    secret_seed: bytes
    state: KeyState = KeyState.AVAILABLE


class KeyRegistry:
    """Holds every secret seed of one simulation run.

    All key material derives from the u64 run seed, so a run's crypto output
    is bit-identical across executions.  The registry is the trusted verifier:
    verification recomputes the unique signature and compares, which makes a
    second accepting signature impossible by construction.

    Honest code signs through the registry directly; adversarial code must go
    through an :class:`AdversarySigner`, which restricts signing to corrupted
    users.
    """

    def __init__(self, run_seed: int, horizon: int, max_step: int):
        self.horizon = horizon
        self.max_step = max_step
        self._master = sha256(b"SEED" + be8(run_seed))
        self.genesis_seed = sha256(b"GENQ" + self._master)
        self._keys: dict[UserId, bytes] = {}  # long-term secret seeds
        self._ephemeral: dict[tuple[UserId, int, int], EphemeralKeyRecord] = {}

    # -- registration -------------------------------------------------------

    def register_user(self, user: UserId) -> None:
        """Provision a user's long-term key and its ephemeral key space."""
        if user not in self._keys:
            self._keys[user] = sha256(b"LTSK" + self._master + be8(user))

    def is_registered(self, user: UserId) -> bool:
        return user in self._keys

    def public_handle(self, user: UserId) -> bytes:
        self._require_key(user)
        return sha256(b"USER" + be8(user))

    def _require_key(self, user: UserId) -> bytes:
        try:
            return self._keys[user]
        except KeyError:
            raise UnknownUserError(f"user {user} is not registered") from None

    # -- unique (long-term) signatures --------------------------------------

    def _raw_unique(self, user: UserId, message: bytes) -> Signature:
        return sha256(self._require_key(user) + message)

    def unique_sign(self, owner: UserId, message: bytes) -> Signature:
        return self._raw_unique(owner, message)

    def expected_signature(self, owner: UserId, message: bytes) -> Signature:
        """Verification helper: the one signature that verifies for (owner,
        message).  Never exposes the seed."""
        return self._raw_unique(owner, message)

    def verify_unique(self, owner: UserId, message: bytes, sig: Signature) -> bool:
        return self._raw_unique(owner, message) == sig

    def unique_signatures(self, owners: Iterable[UserId],
                          message: bytes) -> list[Signature]:
        """Every owner's unique signature over one message, in order; the
        bytes equal `unique_sign(owner, message)`."""
        return [sha256(self._require_key(u) + message) for u in owners]

    # -- ephemeral keys ------------------------------------------------------

    def _provisioned(self, owner: UserId, round: int, step: int) -> bool:
        return (owner in self._keys
                and 0 <= round <= self.horizon
                and 1 <= step <= self.max_step)

    def _seed(self, owner: UserId, round: int, step: int) -> bytes:
        return sha256(TAG_EPHEMERAL + self._master
                      + be8(owner) + be8(round) + be8(step))

    def _record(self, owner: UserId, round: int, step: int) -> EphemeralKeyRecord:
        if not self._provisioned(owner, round, step):
            raise KeyMissingError(
                f"no ephemeral key for user {owner} at round {round} step {step}")
        key = (owner, round, step)
        rec = self._ephemeral.get(key)
        if rec is None:
            rec = EphemeralKeyRecord(owner, round, step,
                                     self._seed(owner, round, step))
            self._ephemeral[key] = rec
        return rec

    def ephemeral_state(self, owner: UserId, round: int, step: int) -> KeyState:
        return self._record(owner, round, step).state

    def ephemeral_sign(self, owner: UserId, round: int, step: int,
                       message: bytes) -> Signature:
        rec = self._record(owner, round, step)
        if rec.state is KeyState.DESTROYED:
            raise KeyDestroyedError(
                f"ephemeral key of user {owner} for round {round} step {step} "
                "was destroyed")
        return sha256(rec.secret_seed + message)

    def verify_ephemeral(self, owner: UserId, round: int, step: int,
                         message: bytes, sig: Signature) -> bool:
        """Check an ephemeral signature.  Works regardless of key state:
        destroying a key revokes signing, not past signatures.  Stores no
        key record, so verifying a chain holds no memory per message."""
        if not self._provisioned(owner, round, step):
            return False
        return sha256(self._seed(owner, round, step) + message) == sig

    def destroy_ephemeral(self, owner: UserId, round: int, step: int,
                          policy: str = "honest") -> KeyState:
        """Retire a key: `honest` destroys it, `retain` keeps it signable.

        Re-applying the same terminal state is a no-op; crossing from one
        terminal state to the other is an invalid transition.
        """
        if policy not in ("honest", "retain"):
            raise ValueError(f"unknown key policy {policy!r}")
        rec = self._record(owner, round, step)
        target = KeyState.DESTROYED if policy == "honest" else KeyState.RETAINED
        if rec.state is KeyState.AVAILABLE:
            rec.state = target
        elif rec.state is not target:
            raise InvalidTransitionError(
                f"key of user {owner} at ({round},{step}) is {rec.state.value}; "
                f"cannot move to {target.value}")
        return rec.state

    def retained_records(self, round: int | None = None) -> list[EphemeralKeyRecord]:
        recs = [r for r in self._ephemeral.values() if r.state is KeyState.RETAINED]
        if round is not None:
            recs = [r for r in recs if r.round == round]
        return sorted(recs, key=lambda r: (r.round, r.step, r.owner))


@dataclass
class AdversarySigner:
    """Adversary-facing signing API: only users the active strategy has
    corrupted can be signed for."""

    registry: KeyRegistry
    corrupted: set[UserId] = field(default_factory=set)

    def _check(self, owner: UserId) -> None:
        if owner not in self.corrupted:
            raise UnauthorizedSignerError(
                f"adversary does not control user {owner}")

    def unique_sign(self, owner: UserId, message: bytes) -> Signature:
        self._check(owner)
        return self.registry.unique_sign(owner, message)

    def ephemeral_sign(self, owner: UserId, round: int, step: int,
                       message: bytes) -> Signature:
        self._check(owner)
        return self.registry.ephemeral_sign(owner, round, step, message)
