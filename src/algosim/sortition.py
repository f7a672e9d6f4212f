"""Hash-threshold sortition for leaders and per-step verifier committees.

A user's selection status is a deterministic function of (user, round, step,
previous seed): the credential signature is unique, so no API allows retrying
with a different signature to improve one's odds.  Selection is per-user (one
unit per user); stake-weighted refinements are out of scope.

`select_committee` is the one sortition kernel: the engine, the validators
and the adversary all enumerate leaders and committees through it, and
`ledger.view_leader` names a round's leader by it.  It builds
the credential message once, signs it for every eligible user in one registry
call and keeps a user when SHA-256(signature) <= `selection_bound(p)`, a
byte-string compare against `selection_limit(p)` as 8 big-endian bytes padded
with 24 `0xff` bytes.  Bytes compare lexicographically, so a digest whose
first 8 bytes are below the limit's is below the bound, one whose first 8
bytes exceed it is above, and on a tie the all-`0xff` tail admits any suffix:
the compare decides exactly as `int.from_bytes(digest[:8], "big") <= limit`,
which in turn decides as the float rule `hash_to_unit(...) <= p` would.  Per
user the kernel makes its two hashes (sign, then hash), each from a copied
prepared SHA-256 state (the signer's, then the empty `_SELECTION_HASH`), and
one bytes compare, with no slice or integer conversion.  The certificate check
(`ledger.check_cert`) recomputes each step group's credentials through it as
well, so this compare is the one selection rule.  Who may serve in a round
is a read of the chain, `ledger.eligible`; this module reads no chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from hashlib import sha256 as _sha256
from typing import NamedTuple, Sequence

from .crypto import (
    TAG_LEADER,
    TAG_VERIFIER,
    Digest,
    KeyRegistry,
    Signature,
    UserId,
    be8,
    hash_to_unit,
)

_SELECTION_HASH = _sha256()  # copied, never updated: starts each selection hash


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-wide knobs.

    The defaults are what `cli.load_config` derives for the default
    `ScenarioConfig` (10 users, 20 rounds), so `ScenarioConfig()` runs.
    """

    leader_prob: float = 0.05
    verifier_prob: float = 0.2
    lookback: int = 3
    max_ba_steps: int = 9
    cert_threshold: int = 2
    horizon: int = 28

    def __post_init__(self):
        if not 0 <= self.leader_prob <= 1:
            raise ValueError("leader_prob must be in [0, 1]")
        if not 0 <= self.verifier_prob <= 1:
            raise ValueError("verifier_prob must be in [0, 1]")
        if self.lookback < 1 or self.max_ba_steps < 1 or self.cert_threshold < 1:
            raise ValueError("lookback, max_ba_steps and cert_threshold must be >= 1")

    @property
    def max_step(self) -> int:
        # Proposal, vote, relay, then binary agreement through step
        # max_ba_steps + 3, plus one step to certify a late decision.
        return self.max_ba_steps + 4


def default_cert_threshold(expected_committee: int) -> int:
    """Two thirds of the expected committee, rounded down, plus one."""
    return 2 * expected_committee // 3 + 1


class Credential(NamedTuple):
    """Sortition proof: a unique signature whose hash orders candidates.

    The ordering fraction is always recomputed from the signature, so it
    cannot be forged independently of it.
    """

    user: UserId
    round: int
    step: int
    sig: Signature

    @property
    def unit(self) -> float:
        return hash_to_unit(_sha256(self.sig).digest())


def credential_message(round: int, step: int, prev_seed: Digest) -> bytes:
    tag = TAG_LEADER if step == 1 else TAG_VERIFIER
    return tag + be8(round) + be8(step) + prev_seed


@lru_cache(maxsize=64)
def selection_limit(p: float) -> int:
    """The largest x in [0, 2**64) with x / 2**64 <= p.

    The quotient is monotone in x, so `x <= selection_limit(p)` holds exactly
    when `x / 2**64 <= p` does.  At p = 0 the limit is 0, which still admits
    an all-zero hash prefix, as the float rule does.
    """
    lo, hi = 0, 2**64 - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid / 2**64 <= p:
            lo = mid
        else:
            hi = mid - 1
    return lo


@lru_cache(maxsize=64)
def selection_bound(p: float) -> bytes:
    """The 32-byte digest bound of `p`: a digest d has
    `d <= selection_bound(p)` exactly when
    `int.from_bytes(d[:8], "big") <= selection_limit(p)`."""
    return selection_limit(p).to_bytes(8, "big") + b"\xff" * 24


def _bound(step: int, params: ProtocolParams) -> bytes:
    return selection_bound(params.leader_prob if step == 1 else params.verifier_prob)


def select_committee(round: int, step: int, prev_seed: Digest,
                     eligible: Sequence[UserId], params: ProtocolParams,
                     registry: KeyRegistry) -> list[Credential]:
    """Credentials of the `eligible` users that sortition selects for
    (round, step), in the order of `eligible`.  Step 1 selects potential
    leaders, later steps verifier committees."""
    bound, start = _bound(step, params), _SELECTION_HASH.copy
    sigs = registry.unique_signatures(
        eligible, credential_message(round, step, prev_seed))
    selected = []
    for u, sig in zip(eligible, sigs):
        h = start()
        h.update(sig)
        if h.digest() <= bound:  # the sortition rule: SHA-256(sig) <= bound
            selected.append(Credential(u, round, step, sig))
    return selected


def select_leader(credentials: list[Credential]) -> UserId | None:
    """The holder of the smallest hashed credential, ties breaking on user id;
    None when there are no credentials."""
    if not credentials:
        return None
    return min(credentials, key=lambda c: (c.unit, c.user)).user

