"""Round pipeline operations: proposal, votes, graded consensus, binary
agreement, the simplified two-step majority protocol, and certificates.

Steps 2 to the last binary-agreement step all send one message type, `Vote`:
a member's ephemeral signature over the step's value (a digest at steps 2 and
3, `bytes([bit])` in binary agreement).  Engine traffic is broadcast-only,
so the rules that choose a value (`supermajority_value`, `gc_grade`, the BBA
tally) run once per step over the one shared inbox, and the step's members
sign the result in one `vote` (or `make_cert_message`) call, which signs in
one `KeyRegistry.ephemeral_sign_many` call.  The step-2 value is the block
proposed by the potential leader `sortition.select_leader` names, or the
canonical empty block when the round has no potential leader.

Nothing here re-checks a message built by honest code: `ledger.validate_block`
(through `ledger.check_cert` and `sortition.check_credentials`, one step group
of the certificate at a time) is the one verifier, which `verify-chain`, fork
detection and the tests run.

All vote counting is over distinct voters (a voter equivocating or repeating
counts once per value) and all thresholds use exact integer arithmetic:
``count > 2n/3`` is evaluated as ``3*count > 2*n``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .crypto import Digest, KeyRegistry, Signature, UserId, be8, hash_to_unit, sha256
from .ledger import (
    Block,
    Chain,
    Payment,
    block_hash,
    cert_payload,
    empty_block,
    empty_round_seed,
    leader_round_seed,
)
from .sortition import Credential


class ProtocolInconsistencyError(Exception):
    """Binary agreement settled on a value nobody graded; cannot occur with an
    honest supermajority, flagged for attack analysis."""


class ProposalMessage(NamedTuple):
    block: Block
    block_sig: Signature  # ephemeral (proposer, round, 1) over the block hash
    credential: Credential


class Vote(NamedTuple):
    voter: UserId
    round: int
    step: int
    value: bytes  # the signed payload: a digest, or bytes([bit]) in BBA
    sig: Signature
    credential: Credential


class GradedValue(NamedTuple):
    value: Digest | None
    grade: int  # 0, 1 or 2; grade 0 iff value is None


class CertMessage(NamedTuple):
    voter: UserId
    round: int
    step: int
    bit: int  # 1 iff the certified block is the round's empty block
    block_digest: Digest
    sig: Signature
    credential: Credential


def canonical_empty_digest(chain: Chain, round: int) -> Digest:
    """Hash of the one possible empty block for `round` on this chain."""
    prev = chain.blocks[round - 1]
    return block_hash(empty_block(round, prev.seed, block_hash(prev)))


def distinct_voter_counts(messages: Iterable) -> dict[Digest, int]:
    """Distinct-voter tally per value over messages with .voter and .value."""
    voters: dict[Digest, set[UserId]] = {}
    for m in messages:
        voters.setdefault(m.value, set()).add(m.voter)
    return {v: len(s) for v, s in voters.items()}


def supermajority_value(messages: Iterable, committee_size: int) -> Digest | None:
    """The value voted by more than two thirds of a committee of
    `committee_size`, counting distinct voters; None when no value is.

    Graded-consensus relays and the two-step majority rule both decide by
    this.  Two values can both qualify only when more than a third of the
    committee equivocates; the one with more distinct voters then wins, ties
    going to the smaller digest.
    """
    counts = distinct_voter_counts(messages)
    qualifying = [v for v, c in counts.items() if 3 * c > 2 * committee_size]
    if not qualifying:
        return None
    return min(qualifying, key=lambda v: (-counts[v], v))


# -- step 1: proposal ----------------------------------------------------------

def propose(credential: Credential, payset: tuple[Payment, ...], chain: Chain,
            registry: KeyRegistry, policy: str = "honest") -> ProposalMessage:
    """Build and sign the leader's candidate block over `payset` (see
    `ledger.build_payset`).  The proposer's ephemeral step-1 key is retired per
    `policy` after signing."""
    r = credential.round
    prev = chain.blocks[r - 1]
    if payset:
        seed = leader_round_seed(registry.unique_sign(credential.user, prev.seed))
    else:
        seed = empty_round_seed(prev.seed, r)
    block = Block(r, payset, seed, block_hash(prev), ())
    sig = registry.ephemeral_sign(credential.user, r, 1, block_hash(block), policy)
    return ProposalMessage(block, sig, credential)


# -- steps 2 and later: votes ----------------------------------------------------

def _sign_step(credentials: Sequence[Credential], value: bytes, signer,
               policies: Mapping[UserId, str | None]):
    """(round, step, signatures) of one committee's members over `value`, in
    one `ephemeral_sign_many` call of `signer` (the KeyRegistry, or an
    AdversarySigner); each key is retired per `policies[member]`."""
    if not credentials:
        return 0, 0, []
    r, s = credentials[0].round, credentials[0].step
    return r, s, signer.ephemeral_sign_many(
        [(c.user, policies[c.user]) for c in credentials], r, s, value)


def vote(credentials: Sequence[Credential], value: bytes, signer,
         policies: Mapping[UserId, str | None]) -> list[Vote]:
    """Every member of one committee votes `value` (see `_sign_step`)."""
    r, s, sigs = _sign_step(credentials, value, signer, policies)
    return [Vote(c.user, r, s, value, sig, c)
            for c, sig in zip(credentials, sigs)]


# -- graded consensus ------------------------------------------------------------

def gc_grade(relays: Iterable[Vote], committee_size_3: int) -> GradedValue:
    """Grade the best-supported relayed value: 2 above two thirds, 1 above one
    third, else 0 with no value."""
    counts = distinct_voter_counts(relays)
    if not counts:
        return GradedValue(None, 0)
    value, count = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if 3 * count > 2 * committee_size_3:
        return GradedValue(value, 2)
    if 3 * count > committee_size_3:
        return GradedValue(value, 1)
    return GradedValue(None, 0)


# -- binary agreement -------------------------------------------------------------

def coin_bit(prev_seed: Digest, iteration: int) -> int:
    """Shared per-iteration coin derived from the round's entropy seed."""
    return 1 if hash_to_unit(sha256(prev_seed + be8(iteration))) > 0.5 else 0


def bba_transition(zeros: int, ones: int, n: int, phase: int,
                   coin: int | None = None) -> tuple[int, int | None]:
    """One voting step of binary agreement.

    Given distinct-voter tallies for a committee of size n, returns
    (next_bit, decided) where decided is 0/1 when the step's halting
    condition fires and None otherwise.  Phase 0 can only decide 0, phase 1
    only 1; phase 2 falls back to the shared coin when neither bit holds a
    two-thirds supermajority.
    """
    zero_super = 3 * zeros > 2 * n
    one_super = 3 * ones > 2 * n
    if phase == 0:
        if zero_super:
            return 0, 0
        return (1, None) if one_super else (0, None)
    if phase == 1:
        if one_super:
            return 1, 1
        return (0, None) if zero_super else (1, None)
    if phase == 2:
        if zero_super:
            return 0, None
        if one_super:
            return 1, None
        if coin not in (0, 1):
            raise ValueError("phase 2 requires the iteration coin")
        return coin, None
    raise ValueError(f"invalid phase {phase}")


def bba(vote_step: Callable[[int, int | None], tuple[int, int, int]],
        prev_seed: Digest, max_ba_steps: int) -> tuple[int | None, int]:
    """Run binary agreement over steps 4, 5, ... for at most `max_ba_steps`.

    `vote_step(step, bit)` has that step's committee vote `bit` and returns
    the distinct-voter tally (zeros, ones, committee size); at step 4 `bit`
    is None and each voter votes its own input.  Returns (decided_bit, step)
    with the step at which the halting condition fired, or (None, last step)
    when the budget runs out.  Bit 0 means the graded value is agreed, bit 1
    means the round falls back to the empty block.
    """
    bit: int | None = None
    for step in range(4, max_ba_steps + 4):
        zeros, ones, n = vote_step(step, bit)
        phase = (step - 4) % 3
        coin = coin_bit(prev_seed, (step - 4) // 3) if phase == 2 else None
        bit, decided = bba_transition(zeros, ones, n, phase, coin)
        if decided is not None:
            return decided, step
    return None, max_ba_steps + 3


def ba_output(graded: GradedValue, bba_result: int) -> Digest | None:
    """Final value of the agreement pipeline: the graded value when the bit
    protocol settles on 0, otherwise None (empty block)."""
    if bba_result == 1:
        return None
    if graded.grade == 0 or graded.value is None:
        raise ProtocolInconsistencyError(
            "agreement settled on a value but no value was graded")
    return graded.value


# -- certificates ------------------------------------------------------------------

def make_cert_message(credentials: Sequence[Credential], block_digest: Digest,
                      is_empty: bool, signer,
                      policies: Mapping[UserId, str | None]) -> list[CertMessage]:
    """Every member of one committee certifies `block_digest` with its key for
    the step at which it decided (see `_sign_step`)."""
    bit = 1 if is_empty else 0
    r, s, sigs = _sign_step(credentials, cert_payload(bit, block_digest),
                            signer, policies)
    return [CertMessage(c.user, r, s, bit, block_digest, sig, c)
            for c, sig in zip(credentials, sigs)]
