"""Hash-threshold sortition for leaders and per-step verifier committees.

A user's selection status is a deterministic function of (user, round, step,
previous seed): the credential signature is unique, so no API allows retrying
with a different signature to improve one's odds.  Selection is per-user (one
unit per user); stake-weighted refinements are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .crypto import (
    TAG_LEADER,
    TAG_VERIFIER,
    Digest,
    KeyRegistry,
    Signature,
    UserId,
    be8,
    hash_to_unit,
    sha256,
)
from .ledger import Chain, users_at


class NotEligibleError(Exception):
    """User is outside the lookback set (or the round is before it)."""


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-wide knobs.

    Desk-scale defaults keep the 2/3-threshold ratios of the full-size
    protocol while running in milliseconds; production-scale values remain
    configurable.
    """

    leader_prob: float = 0.05
    verifier_prob: float = 0.2
    lookback: int = 3
    max_ba_steps: int = 9
    cert_threshold: int = 14
    horizon: int = 64

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


@dataclass(frozen=True)
class Credential:
    """Sortition proof: a unique signature whose hash orders candidates.

    The ordering fraction is always recomputed from the signature, so it
    cannot be forged independently of it.
    """

    user: UserId
    round: int
    step: int
    sig: Signature

    @cached_property
    def unit(self) -> float:
        return hash_to_unit(sha256(self.sig))


@dataclass(frozen=True)
class CredentialCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def credential_message(round: int, step: int, prev_seed: Digest) -> bytes:
    tag = TAG_LEADER if step == 1 else TAG_VERIFIER
    return tag + be8(round) + be8(step) + prev_seed


def _eligible(user: UserId, round: int, chain: Chain, params: ProtocolParams) -> bool:
    # A user may serve in round r only if it joined at least `lookback`
    # rounds earlier.
    if round < params.lookback:
        raise NotEligibleError(f"round {round} is before the lookback horizon")
    if user not in users_at(chain, round - params.lookback):
        raise NotEligibleError(
            f"user {user} not in the user set of round {round - params.lookback}")
    return True


def _threshold(step: int, params: ProtocolParams) -> float:
    return params.leader_prob if step == 1 else params.verifier_prob


def _credential_if_selected(user: UserId, round: int, step: int, sig: Signature,
                            params: ProtocolParams) -> Credential | None:
    cred = Credential(user, round, step, sig)
    return cred if cred.unit <= _threshold(step, params) else None


def leader_credential(user: UserId, round: int, prev_seed: Digest, chain: Chain,
                      params: ProtocolParams, signer) -> Credential | None:
    """The user's round-leadership credential, or None if not selected.

    `signer` is the KeyRegistry for users signing for themselves, or an
    AdversarySigner for corrupted users.  Raises NotEligibleError when the
    user is outside the lookback set.
    """
    _eligible(user, round, chain, params)
    sig = signer.unique_sign(user, credential_message(round, 1, prev_seed))
    return _credential_if_selected(user, round, 1, sig, params)


def verifier_credential(user: UserId, round: int, step: int, prev_seed: Digest,
                        chain: Chain, params: ProtocolParams,
                        signer) -> Credential | None:
    """Committee-membership credential for step >= 2, or None if not selected."""
    if step < 2:
        raise ValueError("verifier credentials exist for steps >= 2 only")
    _eligible(user, round, chain, params)
    sig = signer.unique_sign(user, credential_message(round, step, prev_seed))
    return _credential_if_selected(user, round, step, sig, params)


def select_leader(credentials: list[Credential]) -> UserId:
    """The holder of the smallest hashed credential; ties break on user id."""
    if not credentials:
        raise ValueError("cannot select a leader from no credentials")
    return min(credentials, key=lambda c: (c.unit, c.user)).user


def verify_credential(cred: Credential, prev_seed: Digest, chain: Chain,
                      params: ProtocolParams, registry: KeyRegistry) -> CredentialCheck:
    """Recompute eligibility, signature and threshold for a credential."""
    if cred.step < 1:
        return CredentialCheck(False, "bad-step")
    try:
        _eligible(cred.user, cred.round, chain, params)
    except NotEligibleError:
        return CredentialCheck(False, "not-eligible")
    expected = registry.expected_signature(
        cred.user, credential_message(cred.round, cred.step, prev_seed))
    if cred.sig != expected:
        return CredentialCheck(False, "bad-signature")
    if cred.unit > _threshold(cred.step, params):
        return CredentialCheck(False, "not-selected")
    return CredentialCheck(True)


# -- omniscient views ---------------------------------------------------------
# Validators, adversaries and tests enumerate who sortition selects from the
# registry's expected signatures, without signing on anyone's behalf; the
# recomputed credentials are byte-identical to the ones the users themselves
# would publish.

def view_credential(user: UserId, round: int, step: int, prev_seed: Digest,
                    chain: Chain, params: ProtocolParams,
                    registry: KeyRegistry) -> Credential | None:
    try:
        _eligible(user, round, chain, params)
    except NotEligibleError:
        return None
    sig = registry.expected_signature(user, credential_message(round, step, prev_seed))
    return _credential_if_selected(user, round, step, sig, params)


def view_committee(round: int, step: int, prev_seed: Digest, chain: Chain,
                   params: ProtocolParams, registry: KeyRegistry) -> list[Credential]:
    if round < params.lookback:
        return []
    out = []
    for user in sorted(users_at(chain, round - params.lookback)):
        cred = view_credential(user, round, step, prev_seed, chain, params, registry)
        if cred is not None:
            out.append(cred)
    return out


def view_leader(round: int, prev_seed: Digest, chain: Chain,
                params: ProtocolParams, registry: KeyRegistry) -> UserId | None:
    """The round's leader: smallest-unit potential leader, or None."""
    creds = view_committee(round, 1, prev_seed, chain, params, registry)
    return select_leader(creds) if creds else None
