"""Round pipeline operations: proposal, votes, graded consensus, binary
agreement, the simplified two-step majority protocol, and certificates.

A round runs as three phases, each driven through the engine's step primitive
`step(s, value, sign=cast) -> (committee, delivered)` and returning its
decision with its evidence: `propose_phase`, `agree` (the step-3 relay,
`gc_grade` and the binary-agreement step loop) and `certify`.

Steps 2 to the last certificate step all send one message type,
`ledger.Vote` (the record a block's certificate holds), for the step's value
(a digest at steps 2 and 3, `bytes([bit])` in binary agreement,
`cert_payload(bit, digest)` in a cert), and run the rules that choose it
(`supermajority_value`, `gc_grade`, the BBA tally) once per step over the one
shared inbox of broadcast-only traffic.  Every committee step,
step 1 included, spends its members' keys in one `KeyRegistry.spend_keys`
call, the lifecycle the bribery attack buys, but only what leaves the round
is signed: the certificate votes (`vote`); every other vote is `cast`, and
the leader's block travels unsigned.  The step-2 value is the leader's block
(`sortition.select_leader`), or the round's empty block when the round has
no potential leader.

Nothing here re-checks a message built by honest code: `ledger.validate_block`
is the one verifier, which `verify-chain`, fork detection and the tests run.
Its `ledger.check_cert` recomputes each step group of the certificate through
`sortition.select_committee`, the kernel that picked the committee here.

All vote counting is over distinct voters (a voter equivocating or repeating
counts once per value) and all thresholds use exact integer arithmetic:
``count > 2n/3`` is evaluated as ``3*count > 2*n``.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .crypto import Digest, KeyRegistry, UserId, be8, hash_to_unit, sha256
from .ledger import Block, Chain, Payment, Vote, next_block
from .sortition import Credential, select_leader

Step = Callable[..., tuple[list[Credential], list]]


class ProposalMessage(NamedTuple):
    block: Block | None  # the leader's block; None from any other proposer
    credential: Credential


class GradedValue(NamedTuple):
    value: Digest | None
    grade: int  # 0, 1 or 2; grade 0 iff value is None


class Proposal(NamedTuple):
    leaders: list[Credential]  # the step-1 committee: every potential leader
    leader: UserId | None
    block: Block | None  # the leader's candidate block


class Agreement(NamedTuple):
    graded: GradedValue
    tallies: tuple[tuple[int, int, int], ...]  # (zeros, ones, n) per BBA step
    decided: int  # 0: the graded value is agreed; 1: the empty block
    value: Digest | None  # None: the empty block
    flags: tuple[str, ...]


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
    this: `gc_grade`'s value when its grade is 2.  Two values can both
    qualify only when more than a third of the committee equivocates; the
    best-supported one then wins, as `gc_grade` picks it.
    """
    graded = gc_grade(messages, committee_size)
    return graded.value if graded.grade == 2 else None


# -- step 1: proposal ----------------------------------------------------------

def propose_phase(step: Step, payset: tuple[Payment, ...],
                  chain: Chain) -> Proposal:
    """Step 1: every potential leader spends its step-1 key in one
    `spend_keys` call and sends its credential; the leader `select_leader`
    names attaches the round's candidate block, `ledger.next_block` over
    `payset`.  The leader and block are read from the one delivered message
    that carries a block (None without a potential leader)."""
    def propose_block(committee, payset, registry):
        if not committee:
            return []
        leader = select_leader(committee)
        registry.spend_keys([c.user for c in committee], committee[0].round, 1)
        block = next_block(chain.tip(), payset, registry, leader)
        return [ProposalMessage(block if c.user == leader else None, c)
                for c in committee]

    leaders, proposals = step(1, payset, propose_block)
    for p in proposals:
        if p.block is not None:
            return Proposal(leaders, p.credential.user, p.block)
    return Proposal(leaders, None, None)


# -- steps 2 and later: votes ----------------------------------------------------

def vote(credentials: Sequence[Credential], value: bytes, signer) -> list[Vote]:
    """Every member of one committee votes `value`, signed in one
    `ephemeral_sign_many` call of `signer` (the KeyRegistry, or an
    AdversarySigner), which retains a key keeper's key and destroys others'.
    Certificate votes are signed so: they leave the round."""
    if not credentials:
        return []
    r, s = credentials[0].round, credentials[0].step
    sigs = signer.ephemeral_sign_many([c.user for c in credentials], r, s, value)
    return [Vote(c.user, r, s, value, sig, c)
            for c, sig in zip(credentials, sigs)]


def cast(credentials: Sequence[Credential], value: bytes,
         registry: KeyRegistry) -> list[Vote]:
    """`vote` with no signature: the members spend their keys in one
    `spend_keys` call, as signing would.  Steps 2 to the decision step cast,
    as their votes never leave the round."""
    if not credentials:
        return []
    r, s = credentials[0].round, credentials[0].step
    registry.spend_keys([c.user for c in credentials], r, s)
    return [Vote(c.user, r, s, value, None, c) for c in credentials]


# -- graded consensus ------------------------------------------------------------

def gc_grade(relays: Iterable[Vote], committee_size_3: int) -> GradedValue:
    """Grade the best-supported relayed value (most distinct voters, ties
    going to the smaller value): 2 above two thirds, 1 above one third, else
    0 with no value."""
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


def agree(step: Step, majority: Digest | None, prev_seed: Digest,
          max_ba_steps: int) -> Agreement:
    """Step 3 relays the step-2 `majority` (silent when None) and grades the
    relays; binary agreement then votes one shared bit per step from step 4,
    starting from 0 on grade 2 and 1 otherwise, for at most `max_ba_steps`
    steps.  A budget that runs out decides 1 (`no-termination`); a 0 decision
    with no graded value, which an honest supermajority cannot produce, is
    flagged `ba-inconsistency`."""
    committee, relays = step(3, majority)
    graded = gc_grade(relays, len(committee))
    bit = 0 if graded.grade == 2 else 1
    tallies = []
    flags = ()
    for s in range(4, max_ba_steps + 4):
        committee, votes = step(s, bytes([bit]))
        counts = distinct_voter_counts(votes)
        tallies.append((counts.get(b"\x00", 0), counts.get(b"\x01", 0),
                        len(committee)))
        phase = (s - 4) % 3
        coin = coin_bit(prev_seed, (s - 4) // 3) if phase == 2 else None
        bit, decided = bba_transition(*tallies[-1], phase, coin)
        if decided is not None:
            break
    else:
        decided = 1
        flags = ("no-termination",)
    value = graded.value if decided == 0 else None
    if decided == 0 and value is None:
        flags = ("ba-inconsistency",)
    return Agreement(graded, tuple(tallies), decided, value, flags)


# -- certificate -------------------------------------------------------------------

def certify(step: Step, payload: bytes, first_step: int, max_step: int,
            threshold: int) -> tuple[Vote, ...] | None:
    """Fresh committees vote the certificate `payload` from `first_step` on,
    each voter signing once, until `threshold` distinct voters have signed;
    their delivered votes are the certificate.  None when `max_step` passes
    first."""
    voters: set[UserId] = set()

    def vote_fresh(committee, payload, registry):
        fresh = [c for c in committee if c.user not in voters]
        voters.update(c.user for c in fresh)
        return vote(fresh, payload, registry)

    cert: list[Vote] = []
    for s in range(first_step, max_step + 1):
        cert += step(s, payload, vote_fresh)[1]
        if len(voters) >= threshold:
            return tuple(cert)
    return None
