"""Adversary strategies: genesis-set chain forking and bribery with retained
ephemeral keys.

Both attacks forge blocks that the regular block validator accepts; that is
their entire point.  All adversarial signing goes through an
:class:`~algosim.crypto.AdversarySigner`, which refuses to sign for any user
outside the corrupted set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .consensus import vote
from .crypto import AdversarySigner, KeyMissingError, KeyRegistry, KeyState, UserId
from .ledger import (
    Block,
    Chain,
    block_hash,
    cert_payload,
    empty_block,
    empty_round_seed,
    leader_round_seed,
    make_payment,
    users_at,
)
from .sortition import ProtocolParams, view_committee, view_credential, view_leader

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


@dataclass(frozen=True)
class AdversaryConfig:
    strategy: str = "honest"
    fork_round: int | None = None  # genesis_fork: round whose user set is corrupted
    retention_fraction: float = 0.0  # bribery: share of nodes that keep keys
    target_round: int | None = None  # bribery: finalized round to re-certify

    def __post_init__(self):
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

def fork_from(chain: Chain, fork_round: int, params: ProtocolParams,
              registry: KeyRegistry) -> Chain:
    """Rebuild the chain from `fork_round` one block past the honest tip.

    Requires control of every user in the round's user set and the one-third
    population bound.  The forged branch replays sortition honestly against
    its own seeds; blocks carry real certificates from corrupted committee
    members, using ephemeral keys the honest run never consumed (and
    retaining them).  Raises ForkInfeasibleError instead of padding when a
    forged round cannot reach the certificate threshold.
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
    signer = AdversarySigner(registry, set(corrupted))
    payers = sorted(corrupted)
    recipients = sorted(population - corrupted)
    fork = chain.prefix(fork_round + 1)

    for r in range(fork_round + 1, tip + 2):
        prev = fork.tip()
        prev_seed, prev_hash = prev.seed, block_hash(prev)
        if r < params.lookback:
            fork.append(empty_block(r, prev_seed, prev_hash))
            continue
        status = fork.status_entering(r)
        if r == tip + 1:
            payset = _tiny_grants(signer, status, payers, recipients, r)
        else:
            payset = _shuffle_payment(signer, status, payers, r)
        leader = view_leader(r, prev_seed, fork, params, registry)
        if payset and (leader is None or leader not in corrupted):
            payset = []  # cannot produce the leader's seed signature
        if payset:
            seed = leader_round_seed(signer.unique_sign(leader, prev_seed))
        else:
            seed = empty_round_seed(prev_seed, r)
        block = Block(r, tuple(payset), seed, prev_hash, ())
        payload = cert_payload(0 if payset else 1, block_hash(block))
        cert = _forge_cert(fork, r, payload, prev_seed, corrupted, params,
                           registry, signer)
        fork.append(block.with_cert(cert))
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


def _forge_cert(fork: Chain, round: int, payload: bytes,
                prev_seed: bytes, corrupted: set[UserId],
                params: ProtocolParams, registry: KeyRegistry,
                signer: AdversarySigner) -> tuple:
    """Certificate from corrupted committee members of the forked branch.

    Scans steps for sortition-selected corrupted users whose ephemeral key is
    still usable (the honest run destroyed the keys of the steps it played;
    higher steps stayed untouched).  Keys are retained, never destroyed.
    """
    msgs = []
    seen: set[UserId] = set()
    retain = dict.fromkeys(corrupted, "retain")
    for step in range(2, params.max_step + 1):
        if len(seen) >= params.cert_threshold:
            break
        batch = []
        for cred in view_committee(round, step, prev_seed, fork, params, registry):
            if len(seen) >= params.cert_threshold:
                break
            if cred.user not in corrupted or cred.user in seen:
                continue
            try:
                if registry.ephemeral_state(cred.user, round, step) is KeyState.DESTROYED:
                    continue
            except KeyMissingError:
                continue
            batch.append(cred)
            seen.add(cred.user)
        msgs += vote(batch, payload, signer, retain)
    if len(seen) < params.cert_threshold:
        raise ForkInfeasibleError(round, len(seen), params.cert_threshold)
    return tuple(msgs)


# -- bribery ---------------------------------------------------------------------

def bribe_and_recertify(chain: Chain, target_round: int, retained,
                        params: ProtocolParams,
                        registry: KeyRegistry) -> Block:
    """Certify an alternative block for an already-finalized round.

    `retained` holds the ephemeral key records bought from their owners; all
    must be in the retained state.  Succeeds iff at least cert_threshold
    distinct genuine committee members of the target round are among them,
    and returns a block (different payset, same seed chain position) that
    passes validation against the honest prefix.
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
    signer = AdversarySigner(registry, set(owners))

    # Which bought keys belong to genuine committee members of this round?
    usable = []
    seen: set[UserId] = set()
    for rec in sorted(retained, key=lambda k: (k.step, k.owner)):
        if rec.round != r or rec.step < 2 or rec.owner in seen:
            continue
        cred = view_credential(rec.owner, r, rec.step, prev.seed, chain,
                               params, registry)
        if cred is None:
            continue
        usable.append(cred)
        seen.add(rec.owner)
    have, need = len(usable), params.cert_threshold
    if have < need:
        raise AttackFailedError(have, need)

    payset = _alternative_payset(signer, chain, r, owners)
    if honest.is_empty():
        # No leader signature to reuse; the bribed set must include the leader.
        leader = view_leader(r, prev.seed, chain, params, registry)
        if leader is None or leader not in owners:
            raise AttackFailedError(have, need, reason="round leader not bribable")
        seed = leader_round_seed(signer.unique_sign(leader, prev.seed))
    else:
        seed = honest.seed  # the leader's seed signature is payset-independent
    block = Block(r, tuple(payset), seed, honest.prev_hash, ())
    digest = block_hash(block)
    if digest == block_hash(honest):
        raise PreconditionViolatedError("alternative block equals the honest one")
    cert = []
    payload = cert_payload(0, digest)
    retain = dict.fromkeys(owners, "retain")
    for _, creds in groupby(usable[:need], lambda c: c.step):  # one call a step
        cert += vote(list(creds), payload, signer, retain)
    return block.with_cert(cert)


def _alternative_payset(signer, chain: Chain, round: int,
                        owners: set[UserId]) -> list:
    status = chain.status_entering(round)
    payer = next((u for u in sorted(owners) if status.balances.get(u, 0) >= 1),
                 None)
    if payer is None:
        raise PreconditionViolatedError("no bribed user can fund a payment")
    payee = next((u for u in sorted(status.balances) if u != payer), payer)
    return [make_payment(signer, payer, payee, 1, round)]
