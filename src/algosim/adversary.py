"""Adversary strategies: genesis-set chain forking and bribery with retained
ephemeral keys.

Both attacks forge blocks that the regular block validator accepts; that is
their entire point.  All adversarial signing goes through an
:class:`~algosim.crypto.AdversarySigner`, which refuses to sign for any user
outside the corrupted set.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .consensus import vote
from .crypto import AdversarySigner, KeyMissingError, KeyState, UserId
from .ledger import (
    Block,
    Chain,
    block_hash,
    cert_payload,
    eligible,
    make_payment,
    next_block,
    users_at,
    view_leader,
)
from .sortition import Checked, Credential, select_committee

STRATEGIES = ("honest", "genesis_fork", "bribery")


class PreconditionViolatedError(Exception):
    pass


class ForkInfeasibleError(Exception):
    """Sortition on the forked branch left too few corrupted committee keys."""

    def __init__(self, round: int, have: int, need: int):
        super().__init__(
            f"round {round}: only {have} corrupted certifiers available, "
            f"need {need}")
        self.round = round
        self.have = have
        self.need = need


class AttackFailedError(Exception):
    """Bribery could not gather enough retained committee keys."""

    def __init__(self, have: int, need: int, reason: str = "insufficient keys"):
        super().__init__(f"{reason}: have {have}, need {need}")
        self.have = have
        self.need = need
        self.reason = reason


class _AdversaryFields(NamedTuple):
    strategy: str = "honest"
    fork_round: int | None = None  # genesis_fork: round whose user set is corrupted
    retention_fraction: float = 0.0  # bribery: share of nodes that keep keys
    target_round: int | None = None  # bribery: finalized round to re-certify


class AdversaryConfig(Checked, _AdversaryFields):
    __slots__ = ()

    def _check(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown adversary strategy {self.strategy!r}")
        if self.strategy == "genesis_fork" and self.fork_round is None:
            raise ValueError("genesis_fork requires fork_round")
        if self.strategy == "bribery":
            if self.target_round is None:
                raise ValueError("bribery requires target_round")
            if not 0.0 <= self.retention_fraction <= 1.0:
                raise ValueError("retention_fraction must be in [0, 1]")


# -- genesis-set fork ----------------------------------------------------------

def fork_from(chain: Chain, fork_round: int) -> Chain:
    """Rebuild the chain from `fork_round` one block past the honest tip.

    Requires control of every user in the round's user set and the one-third
    population bound.  The forged branch replays sortition honestly against
    its own seeds and builds each block with `ledger.next_block`.  Its
    certificate comes from the corrupted committee members whose ephemeral
    key the honest run did not destroy (see `_held_voters`), and signing
    retains those keys.  A forged round short of the certificate threshold
    signs nothing and raises ForkInfeasibleError instead of padding.
    """
    tip = chain.tip_round
    if not 0 <= fork_round <= tip:
        raise PreconditionViolatedError(f"fork round {fork_round} not on chain")
    corrupted = users_at(chain, fork_round)
    population = users_at(chain, tip)
    if 3 * len(corrupted) >= len(population):
        raise PreconditionViolatedError(
            f"corrupting {len(corrupted)} of {len(population)} users exceeds "
            "the one-third budget")
    params, registry = chain.params, chain.registry
    signer = AdversarySigner(registry, set(corrupted))
    payers = sorted(corrupted)
    recipients = sorted(population - corrupted)
    fork = chain.prefix(fork_round + 1)
    need = params.cert_threshold
    for r in range(fork_round + 1, tip + 2):
        prev = fork.tip()
        if r < params.lookback:
            fork.append(next_block(prev))
            continue
        status = fork.status_entering(r)
        if r == tip + 1:
            payset = _tiny_grants(signer, status, payers, recipients, r)
        else:
            payset = _shuffle_payment(signer, status, payers, r)
        leader = view_leader(r, prev.seed, fork)
        if payset and (leader is None or leader not in corrupted):
            payset = []  # cannot produce the leader's seed signature
        block = next_block(prev, payset, signer, leader)

        def unspent(user: UserId, step: int) -> bool:
            try:
                return registry.ephemeral_state(user, r, step) is not KeyState.DESTROYED
            except KeyMissingError:  # the registry provisions no such key
                return False

        voters = _held_voters(fork, r, prev.seed, corrupted, unspent)
        if len(voters) < need:
            raise ForkInfeasibleError(r, len(voters), need)
        payload = cert_payload(0 if payset else 1, block_hash(block))
        fork.append(block.with_cert(_sign_cert(voters[:need], payload, signer)))
    return fork


def _shuffle_payment(signer, status, payers, round: int) -> list:
    """One 1-unit transfer between two fixed corrupted users."""
    if len(payers) < 2:
        return []
    a, b = payers[0], payers[1]
    if status.balances.get(a, 0) >= 1:
        return [make_payment(signer, a, b, 1, round)]
    if status.balances.get(b, 0) >= 1:
        return [make_payment(signer, b, a, 1, round)]
    return []


def _tiny_grants(signer, status, payers, recipients, round: int) -> list:
    """1-unit payments from corrupted users to every user they displaced."""
    balances = {u: status.balances.get(u, 0) for u in payers}
    out = []
    cursor = 0
    for rcpt in recipients:
        for _ in range(len(payers)):
            payer = payers[cursor % len(payers)]
            cursor += 1
            if balances[payer] >= 1:
                break
        else:
            raise PreconditionViolatedError(
                "corrupted users cannot fund the final payment set")
        balances[payer] -= 1
        out.append(make_payment(signer, payer, rcpt, 1, round))
    return out


def _held_voters(chain: Chain, round: int, prev_seed: bytes,
                 users: set[UserId], holds) -> list[Credential]:
    """Every distinct committee member of `round` among `users` whose key the
    adversary holds, at its first such step from 2 on: each step is one
    `select_committee` call over the eligible `users` not yet chosen for whom
    `holds(user, step)` is true, made only when there are such users.  The
    steps end at `max_step` or once every eligible user is chosen.  Voters
    come in step, then user order."""
    pool = sorted(eligible(round, chain) & users)
    voters: list[Credential] = []
    for step in range(2, chain.params.max_step + 1):
        if not pool:
            break
        held = [u for u in pool if holds(u, step)]
        if not held:
            continue
        chosen = select_committee(round, step, prev_seed, held, chain.params,
                                  chain.registry)
        voters += chosen
        taken = {c.user for c in chosen}
        pool = [u for u in pool if u not in taken]
    return voters


def _sign_cert(voters: list[Credential], payload: bytes,
               signer: AdversarySigner) -> list:
    """The `voters` sign the certificate `payload`, one `vote` call a step;
    corrupted users keep keys, so each key is retained."""
    cert = []
    for _, creds in groupby(voters, lambda c: c.step):
        cert += vote(list(creds), payload, signer)
    return cert


# -- bribery ---------------------------------------------------------------------

def bribe_and_recertify(chain: Chain, target_round: int, retained) -> Block:
    """Certify an alternative block for an already-finalized round.

    `retained` holds the ephemeral key records bought from their owners; all
    must be in the retained state.  Succeeds iff at least cert_threshold
    distinct genuine committee members of the target round are among them
    (see `_held_voters`), and returns a block (different payset, same seed
    chain position) that passes validation against the honest prefix; the
    first cert_threshold of them sign its certificate.
    """
    r = target_round
    if not 1 <= r < chain.tip_round:
        raise PreconditionViolatedError(
            f"target round {r} must lie strictly inside the chain")
    for rec in retained:
        if rec.state is not KeyState.RETAINED:
            raise PreconditionViolatedError(
                f"key of user {rec.owner} at ({rec.round},{rec.step}) "
                "was not retained")

    honest = chain.blocks[r]
    prev = chain.blocks[r - 1]
    owners = {rec.owner for rec in retained}
    signer = AdversarySigner(chain.registry, set(owners))

    # Which bought keys belong to genuine committee members of this round?
    bought = {(rec.owner, rec.step) for rec in retained if rec.round == r}
    usable = _held_voters(chain, r, prev.seed, owners,
                          lambda user, step: (user, step) in bought)
    have, need = len(usable), chain.params.cert_threshold
    if have < need:
        raise AttackFailedError(have, need)

    payset = _alternative_payset(signer, chain, r, owners)
    if honest.is_empty():
        # No leader signature to reuse; the bribed set must include the leader.
        leader = view_leader(r, prev.seed, chain)
        if leader is None or leader not in owners:
            raise AttackFailedError(have, need, reason="round leader not bribable")
        block = next_block(prev, payset, signer, leader)
    else:  # reuse the leader's seed signature: it is payset-independent
        block = Block(r, tuple(payset), honest.seed, honest.prev_hash, ())
    digest = block_hash(block)
    if digest == block_hash(honest):
        raise PreconditionViolatedError("alternative block equals the honest one")
    return block.with_cert(_sign_cert(usable[:need], cert_payload(0, digest),
                                      signer))


def _alternative_payset(signer, chain: Chain, round: int,
                        owners: set[UserId]) -> list:
    status = chain.status_entering(round)
    payer = next((u for u in sorted(owners) if status.balances.get(u, 0) >= 1),
                 None)
    if payer is None:
        raise PreconditionViolatedError("no bribed user can fund a payment")
    payee = next((u for u in sorted(status.balances) if u != payer), payer)
    return [make_payment(signer, payer, payee, 1, round)]
