"""Simulated cryptographic primitives.

Signatures here are keyed SHA-256 digests held together by a per-run
KeyRegistry that knows every secret seed.  This gives us the two properties
the protocol logic actually depends on -- determinism and uniqueness (exactly
one byte string verifies per (signer, message)) -- without pretending to be
real cryptography.

Ephemeral per-(user, round, step) keys carry a one-way lifecycle, available
then destroyed (the honest rule) or retained (kept, and so for sale), so
key-reuse attacks can be expressed; the owner decides which, as the
registry's key keepers (`keep_keys`) retain the keys they spend and all
other owners destroy theirs.  The registry stores key state, not keys: a
round's row of owner bitmasks, one per step, so an honest round adds one
short list of integers to it whatever its committee sizes.
A committee step spends its members' keys in one `spend_keys` call, which
checks every member before it changes any state; `ephemeral_sign_many`
spends them so and then signs.
Verifying mirrors it: one `verify_ephemeral_many` call checks a step's
signatures.

The signatures are the README's formulas, SHA-256(seed + message), but no
call hashes a secret from scratch: each user's SHA-256 state is prepared once,
at registration, with the long-term seed absorbed, and one state prepared with
"EPH_" + master starts every ephemeral key seed.  A signature copies its
state and absorbs the message, which gives the same bytes as hashing the
concatenation and saves setting up a digest per call.  hashlib states do not
pickle, and no registry needs to: a run's registry stays in the process that
made it (`run --jobs` workers write their own output files).
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

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


def _ephemeral_sig(head, owner: UserId, tail: bytes, message: bytes) -> Signature:
    """One ephemeral signature, SHA-256(seed + message), where the key seed is
    SHA-256("EPH_" + master + owner + tail), tail = round + step; `head` is
    the SHA-256 state that has absorbed "EPH_" + master."""
    seed = head.copy()
    seed.update(owner.to_bytes(8, "big") + tail)
    return hashlib.sha256(seed.digest() + message).digest()


class KeyState(Enum):
    AVAILABLE = "available"
    DESTROYED = "destroyed"
    RETAINED = "retained"


class EphemeralKeyRecord(NamedTuple):
    """A per-(owner, round, step) signing key.  The registry holds none: it
    builds one for each retained key when `retained_records` lists them, and
    re-derives a key's seed whenever it signs."""

    owner: UserId
    round: int
    step: int
    state: KeyState = KeyState.AVAILABLE


class KeyRegistry:
    """Holds every secret seed of one simulation run.

    All key material derives from the u64 run seed, so a run's crypto output
    is bit-identical across executions.  The registry is the trusted verifier:
    verification recomputes the unique signature and compares, which makes a
    second accepting signature impossible by construction.

    Ephemeral keys exist for every registered user, round 0..horizon and step
    1..max_step; a key's seed is re-derived whenever it signs or verifies.
    Key state is kept in rows, one per round: `_destroyed` and `_retained`
    each map a round to a list of owner bitmasks indexed by step - 1 (each
    user gets one bit when registered).  A row is made by its round's first
    spend and reaches only as far as the highest step spent, and a retained
    row only once a key keeper spends, so an honest run holds none.  A key
    whose bit is in neither row is available; retained keys are the only
    ones an attacker can buy.  `_keepers` holds the owners who retain keys.

    Honest code signs through the registry directly; adversarial code must go
    through an :class:`AdversarySigner`, which restricts signing to corrupted
    users.

    Secrets are held only inside prepared SHA-256 states: `_head` has
    absorbed "EPH_" + master, and `_states[u]` user u's long-term seed.
    """

    def __init__(self, run_seed: int, horizon: int, max_step: int):
        self.horizon = horizon
        self.max_step = max_step
        self._master = sha256(b"SEED" + be8(run_seed))
        self.genesis_seed = sha256(b"GENQ" + self._master)
        self._destroyed: dict[int, list[int]] = {}  # round -> masks by step - 1
        self._retained: dict[int, list[int]] = {}
        self._keepers: set[UserId] = set()
        self._head = hashlib.sha256(TAG_EPHEMERAL + self._master)
        self._states: dict[UserId, object] = {}  # hashlib state, seed absorbed
        self._bit: dict[UserId, int] = {}  # index of the owner's mask bit

    # -- registration -------------------------------------------------------

    def register_user(self, user: UserId) -> None:
        """Provision a user's long-term key and its ephemeral key space."""
        if user not in self._states:
            self._states[user] = hashlib.sha256(
                sha256(b"LTSK" + self._master + be8(user)))
            self._bit[user] = len(self._bit)

    def is_registered(self, user: UserId) -> bool:
        return user in self._states

    # -- unique (long-term) signatures --------------------------------------

    def unique_sign(self, owner: UserId, message: bytes) -> Signature:
        """The one signature that verifies for (owner, message); verifiers
        recompute it, and the seed never leaves the registry."""
        return self.unique_signatures((owner,), message)[0]

    def verify_unique(self, owner: UserId, message: bytes, sig: Signature) -> bool:
        return self.unique_sign(owner, message) == sig

    def unique_signatures(self, owners: Iterable[UserId],
                          message: bytes) -> list[Signature]:
        """Every owner's unique signature over one message, in order;
        `unique_sign` is the one-owner call.  This is sortition's hot loop,
        so it copies straight from the state table."""
        states, sigs = self._states, []
        try:
            for u in owners:
                h = states[u].copy()
                h.update(message)
                sigs.append(h.digest())
        except KeyError as exc:
            raise UnknownUserError(
                f"user {exc.args[0]} is not registered") from None
        return sigs

    # -- ephemeral keys ------------------------------------------------------

    def _provisioned(self, round: int, step: int) -> bool:  # a key per user
        return 0 <= round <= self.horizon and 1 <= step <= self.max_step

    def _owner_bit(self, owner: UserId, round: int, step: int) -> int:
        """The owner's bit in a (round, step) mask, if that key exists."""
        if owner not in self._bit or not self._provisioned(round, step):
            raise KeyMissingError(
                f"no ephemeral key for user {owner} at round {round} step {step}")
        return 1 << self._bit[owner]

    def ephemeral_state(self, owner: UserId, round: int, step: int) -> KeyState:
        bit = self._owner_bit(owner, round, step)  # or raise: no row is read yet
        if _mask(self._destroyed, round, step) & bit:
            return KeyState.DESTROYED
        if _mask(self._retained, round, step) & bit:
            return KeyState.RETAINED
        return KeyState.AVAILABLE

    def keep_keys(self, users: Iterable[UserId]) -> None:
        """From now on, each key `users` spend is retained, not destroyed."""
        self._keepers.update(users)

    def spend_keys(self, owners: Sequence[UserId], round: int,
                   step: int) -> None:
        """Each owner spends its key for (round, step), signing nothing: a
        key keeper's key is retained, anyone else's destroyed.  A destroyed
        key is refused.  All owners are checked first: a refused call raises
        what the first refused one-owner call would, and changes nothing."""
        index = self._bit if self._provisioned(round, step) else {}  # {}: nobody's key
        start = mask = _mask(self._destroyed, round, step) if index else 0
        keepers, kept = self._keepers, 0
        for owner in owners:
            i = index.get(owner)
            if i is None:
                self._owner_bit(owner, round, step)  # raises: no such key
            bit = 1 << i
            if mask & bit:
                raise KeyDestroyedError(
                    f"ephemeral key of user {owner} for round {round} step {step} "
                    "was destroyed")
            if owner in keepers:
                kept |= bit
            else:
                mask |= bit
        if mask != start:
            _row(self._destroyed, round, step)[step - 1] = mask
        if kept:
            _row(self._retained, round, step)[step - 1] |= kept

    def ephemeral_sign_many(self, owners: Sequence[UserId], round: int,
                            step: int, message: bytes) -> list[Signature]:
        """Each owner in turn signs `message` with its key for (round, step),
        which `spend_keys` spends first, refusing as it does."""
        if not owners:
            return []
        self.spend_keys(owners, round, step)
        head, tail = self._head, be8(round) + be8(step)
        return [_ephemeral_sig(head, owner, tail, message) for owner in owners]

    def verify_ephemeral_many(self, signed: Sequence[tuple[UserId, Signature]],
                              round: int, step: int, message: bytes) -> list[bool]:
        """Whether each (owner, sig) is the owner's signature over `message`
        with its (round, step) key, whatever that key's state: destroying a
        key revokes signing, not past signatures.  Stores nothing."""
        if not self._provisioned(round, step):
            return [False] * len(signed)
        users, head, tail = self._bit, self._head, be8(round) + be8(step)
        return [owner in users and _ephemeral_sig(head, owner, tail, message) == sig
                for owner, sig in signed]

    def retained_records(self, round: int | None = None) -> list[EphemeralKeyRecord]:
        """A record of each retained key, of `round` or of every round, in
        (round, step, owner) order, built from the retained rows."""
        rows = self._retained
        rounds = sorted(rows) if round is None else [round] if round in rows else []
        owners = sorted(self._bit.items())
        return [EphemeralKeyRecord(owner, r, step, KeyState.RETAINED)
                for r in rounds for step, mask in enumerate(rows[r], 1) if mask
                for owner, i in owners if mask >> i & 1]


def _mask(rows: dict[int, list[int]], round: int, step: int) -> int:
    """The (round, step) mask of `rows`, 0 where no row reaches it; the
    caller has checked that the key exists, so `step - 1` is its index."""
    row = rows.get(round, ())
    return row[step - 1] if step <= len(row) else 0


def _row(rows: dict[int, list[int]], round: int, step: int) -> list[int]:
    """The round's row of `rows`, made or extended, to its exact length, so
    that it reaches `step`."""
    row = rows.get(round, [])
    if len(row) < step:
        rows[round] = row = row + [0] * (step - len(row))
    return row


class AdversarySigner:
    """Adversary-facing signing API: only users the active strategy has
    corrupted can be signed for.  Corruption is where a user starts keeping
    keys, so building a signer makes every corrupted user a key keeper."""

    def __init__(self, registry: KeyRegistry, corrupted: set[UserId]):
        self.registry, self.corrupted = registry, corrupted
        registry.keep_keys(corrupted)

    def _check(self, owner: UserId) -> None:
        if owner not in self.corrupted:
            raise UnauthorizedSignerError(
                f"adversary does not control user {owner}")

    def unique_sign(self, owner: UserId, message: bytes) -> Signature:
        self._check(owner)
        return self.registry.unique_sign(owner, message)

    def ephemeral_sign_many(self, owners: Sequence[UserId], round: int,
                            step: int, message: bytes) -> list[Signature]:
        for owner in owners:
            self._check(owner)
        return self.registry.ephemeral_sign_many(owners, round, step, message)
