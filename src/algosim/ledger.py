"""Accounts, payments, blocks, the chain's reads and chain validation.

A block is hashed over length-prefixed big-endian fields in declaration
order, so golden digests can be reproduced with any SHA-256 implementation
(see README for the exact byte layout).  A block hash covers (round, payset,
seed, prev_hash) and explicitly excludes the certificate.  `next_block`
builds every new block by the seed rule, and `validate_block`, the one block
verifier, checks it; its `check_cert` checks a certificate one committee step
group at a time, recomputing the group's credentials through
`sortition.select_committee`.  Who may serve (`eligible`) and who leads
(`view_leader`) are chain reads and live here, with `Vote`, the record a
certificate holds.  A `Chain` carries the `ProtocolParams` and `KeyRegistry`
it is read under, so every chain read takes only the chain.  A chain file
is a JSON genesis header line and then one JSON block record a line, with
sorted keys, no spaces, ints and lowercase hex; nothing there needs
escaping, so `chain_lines` formats each record from a template as it is
drawn, and a writer holds one line.  `chain_from_lines` takes any iterable
of lines, an open file included (a line's newline is JSON whitespace), and
reads one record at a time, so a reader holds the chain's objects and one
line, never the file's text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import sortition
from .crypto import (
    DIGEST_LEN,
    TAG_BLOCK,
    TAG_PAYMENT,
    ZERO_DIGEST,
    Digest,
    KeyRegistry,
    Signature,
    UserId,
    be8,
    sha256,
)
from .sortition import Credential, ProtocolParams


class LedgerError(Exception):
    pass


class InvalidPaymentError(LedgerError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"payment {index}: {reason}")
        self.index = index
        self.reason = reason


class InvalidSignatureError(InvalidPaymentError):
    def __init__(self, index: int):
        super().__init__(index, "invalid signature")


class InsufficientFundsError(InvalidPaymentError):
    def __init__(self, index: int, payer: UserId):
        super().__init__(index, f"insufficient funds for payer {payer}")
        self.payer = payer


class RoundOutOfRangeError(LedgerError):
    pass


class IncompatibleGenesisError(LedgerError):
    pass


@dataclass
class Status:
    """Account balances entering a round (non-negative money units)."""

    round: int
    balances: dict[UserId, int]

    @cached_property
    def holders(self) -> set[UserId]:
        """Users with a positive balance, computed once per status."""
        return {u for u, a in self.balances.items() if a > 0}


@dataclass(frozen=True)
class Payment:
    payer: UserId
    payee: UserId
    amount: int
    sig: Signature


@dataclass(frozen=True)
class Block:
    round: int
    payset: tuple[Payment, ...]
    seed: Digest
    prev_hash: Digest
    cert: tuple[Vote, ...]
    # Hash of the canonical serialization (the cert is not covered), computed
    # on construction and by `dataclasses.replace`; `with_cert` copies it.
    digest: Digest = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = [TAG_BLOCK, be8(self.round), be8(len(self.payset))]
        for p in self.payset:
            parts += [be8(p.payer), be8(p.payee), be8(p.amount), p.sig]
        parts += [self.seed, self.prev_hash]
        object.__setattr__(self, "digest", sha256(b"".join(parts)))

    def is_empty(self) -> bool:
        return not self.payset

    def with_cert(self, cert: Sequence[Vote]) -> "Block":
        certified = object.__new__(Block)
        certified.__dict__.update(self.__dict__, cert=tuple(cert))
        return certified


def payment_message(payer: UserId, payee: UserId, amount: int, round: int) -> bytes:
    return TAG_PAYMENT + be8(payer) + be8(payee) + be8(amount) + be8(round)


class Vote(NamedTuple):
    voter: UserId
    round: int
    step: int
    value: bytes  # a digest, bytes([bit]) in BBA, or cert_payload(bit, digest)
    sig: Signature | None  # a certificate vote's only; None when cast
    credential: Credential


def cert_payload(bit: int, block_digest: Digest) -> bytes:
    """The value a certificate `Vote` signs; bit 1 marks the empty block."""
    return bytes([bit]) + block_digest


def make_payment(signer, payer: UserId, payee: UserId, amount: int,
                 round: int) -> Payment:
    """Build a signed payment for `round`; whether it applies is the payment
    rule's call (`apply_payset`).  `signer` is a KeyRegistry for honest code
    or an AdversarySigner for corrupted payers."""
    sig = signer.unique_sign(payer, payment_message(payer, payee, amount, round))
    return Payment(payer, payee, amount, sig)


def _pay(balances: dict[UserId, int], index: int, p: Payment, round: int,
         registry: KeyRegistry) -> None:
    """The payment rule: move `p.amount` from payer to payee in `balances`,
    or raise with the payment's `index` and leave `balances` as they are.

    A payment needs a positive amount, a registered payer whose unique
    signature over the payment message for `round` verifies, and a payer
    balance that covers the amount.
    """
    if p.amount < 1:
        raise InvalidPaymentError(index, "non-positive amount")
    if not (registry.is_registered(p.payer) and registry.verify_unique(
            p.payer, payment_message(p.payer, p.payee, p.amount, round), p.sig)):
        raise InvalidSignatureError(index)
    if balances.get(p.payer, 0) < p.amount:
        raise InsufficientFundsError(index, p.payer)
    balances[p.payer] -= p.amount
    balances[p.payee] = balances.get(p.payee, 0) + p.amount


def apply_payset(status: Status, payset: Sequence[Payment],
                 registry: KeyRegistry) -> Status:
    """Apply the round's payments sequentially, in list order.

    New payees are created with the received amount.  Total money is
    conserved.  Raises with the offending payment index if a payment breaks
    the payment rule at its position in the list.
    """
    balances = dict(status.balances)
    for i, p in enumerate(payset):
        _pay(balances, i, p, status.round, registry)
    return Status(status.round + 1, balances)


def build_payset(pending: Sequence[Payment], status: Status,
                 registry: KeyRegistry) -> tuple[tuple[Payment, ...], Status]:
    """The maximal valid subset of `pending` in arrival order, applied to the
    balances of `status`: a payment that breaks the payment rule is skipped
    and later payments may still apply.  Also returns the status after it,
    which equals `apply_payset(status, payset, registry)`."""
    balances = dict(status.balances)
    payset = []
    for p in pending:
        try:
            _pay(balances, len(payset), p, status.round, registry)
        except InvalidPaymentError:
            continue
        payset.append(p)
    return tuple(payset), Status(status.round + 1, balances)


# -- blocks and seeds --------------------------------------------------------

def block_hash(b: Block) -> Digest:
    """Hash of the canonical block serialization; the cert is not covered."""
    return b.digest


def empty_round_seed(prev_seed: Digest, round: int) -> Digest:
    """Seed of an empty block: hash of the previous seed and the round."""
    return sha256(prev_seed + be8(round))


def leader_round_seed(sig_of_prev_seed: Signature) -> Digest:
    """Seed of a non-empty block: hash of the leader's unique signature over
    the previous seed."""
    return sha256(sig_of_prev_seed)


def next_block(prev: Block, payset: Sequence[Payment] = (), signer=None,
               leader: UserId | None = None) -> Block:
    """The uncertified block after `prev` over `payset`, by the seed rule: the
    round's one empty block, or one whose seed hashes `leader`'s unique
    signature over `prev.seed`, made by `signer` (registry or adversary)."""
    round = prev.round + 1
    if payset:
        seed = leader_round_seed(signer.unique_sign(leader, prev.seed))
    else:
        seed = empty_round_seed(prev.seed, round)
    return Block(round, tuple(payset), seed, block_hash(prev), ())


@dataclass
class Chain:
    """Validated sequence of blocks starting at genesis, read under its own
    `params` and `registry`: the chain reads (`eligible`, `view_leader`,
    `validate_block`, `verify_chain`) take both from the chain.

    Keeps a window of statuses: `_statuses[r]` is the Status entering round
    r, i.e. after replaying paysets 0..r-1, which caches its positive
    `holders`.  Genesis stays; of the later rounds only the
    `params.lookback + 1` highest computed ones stay.  A round is read in the
    order the chain grows: the engine and `validate_block` ask for
    `status_entering(r)` and `users_at(r - lookback)`, so that window serves
    them all and memory stays flat per round.  A request below the window (an
    attack's target round, a test) replays from genesis and caches nothing.
    A caller that has just applied the payset of the chain's own block hands
    the result over with `carry`, so the window's next status is not
    replayed (and its payment signatures not verified) a second time.
    """

    genesis_status: Status
    blocks: list[Block] = field(default_factory=list)
    registry: KeyRegistry | None = None
    params: ProtocolParams = field(kw_only=True)
    _statuses: dict[int, Status] = field(init=False, repr=False)
    _top: int = field(init=False, repr=False)  # highest round in _statuses

    def __post_init__(self):
        self._statuses = {0: Status(0, dict(self.genesis_status.balances))}
        self._top = 0

    @property
    def tip_round(self) -> int:
        return len(self.blocks) - 1

    def tip(self) -> Block:
        return self.blocks[-1]

    def append(self, block: Block) -> None:
        if block.round != len(self.blocks):
            raise LedgerError(
                f"expected block for round {len(self.blocks)}, got {block.round}")
        self.blocks.append(block)

    def status_entering(self, round: int) -> Status:
        """S^round: balances after replaying paysets of rounds 0..round-1."""
        if round < 0 or round > len(self.blocks):
            raise RoundOutOfRangeError(f"no status for round {round}")
        status = self._statuses.get(round)
        if status is not None:
            return status
        # Below the window, replay from genesis and keep nothing; above it,
        # replay from the window's top and keep each status.  _top moves with
        # each kept round, so a payset that raises part way leaves it on a
        # status the window still holds.
        keep = round > self._top
        start = self._top if keep else 0
        status = self._statuses[start]
        for r in range(start, round):
            status = apply_payset(status, self.blocks[r].payset, self.registry)
            if keep:
                self._keep(status)
        return status

    def _keep(self, status: Status) -> None:
        """Store the status entering round `_top + 1` and slide the window."""
        self._statuses[status.round] = status
        self._top = status.round
        old = status.round - self.params.lookback - 1
        if old > 0:
            self._statuses.pop(old, None)

    def carry(self, block: Block, status: Status) -> None:
        """Keep `status`, the balances after `block`'s payset applied, as the
        status entering the next round.  Only the chain's own block at its
        round counts, and only when that status is the window's next one;
        any other call changes nothing."""
        r = block.round + 1
        if (status.round == r == self._top + 1 and r <= len(self.blocks)
                and self.blocks[r - 1] is block):
            self._keep(status)

    def prefix(self, length: int) -> "Chain":
        """A chain holding the first `length` blocks (shared, immutable)."""
        return Chain(self.genesis_status, list(self.blocks[:length]),
                     self.registry, params=self.params)


def make_genesis(balances: dict[UserId, int], registry: KeyRegistry,
                 params: ProtocolParams) -> Chain:
    genesis = Status(0, dict(balances))
    chain = Chain(genesis, registry=registry, params=params)
    chain.append(Block(0, (), registry.genesis_seed, ZERO_DIGEST, ()))
    return chain


def users_at(chain: Chain, round: int) -> set[UserId]:
    """Users holding a positive balance after replaying through `round`."""
    if round < 0 or round > chain.tip_round:
        raise RoundOutOfRangeError(f"round {round} not on chain")
    return chain.status_entering(round + 1).holders


def eligible(round: int, chain: Chain) -> set[UserId]:
    """Who may serve in `round`: the holders `lookback` rounds earlier."""
    lookback = chain.params.lookback
    if round < lookback:
        return set()
    return users_at(chain, round - lookback)


def view_leader(round: int, prev_seed: Digest, chain: Chain) -> UserId | None:
    """The round's leader: smallest-unit potential leader, or None."""
    users = sorted(eligible(round, chain))
    return sortition.select_leader(sortition.select_committee(
        round, 1, prev_seed, users, chain.params, chain.registry))


def validate_block(chain: Chain, b: Block) -> list[str]:
    """Check a block against the chain prefix through round b.round - 1.

    Returns the full violation list (empty means valid) instead of failing
    fast, so adversarial blocks can be analyzed.
    """
    params, registry = chain.params, chain.registry
    violations: list[str] = []
    if b.round < 1 or b.round > len(chain.blocks):
        return [f"round {b.round} has no validated predecessor"]
    # Sortition below reads user sets of earlier rounds, so an invalid payset
    # anywhere in the prefix leaves nothing to check this block against.
    try:
        status = chain.status_entering(b.round)
    except LedgerError as exc:
        return [f"chain prefix does not replay: {exc}"]
    prev = chain.blocks[b.round - 1]
    if b.prev_hash != block_hash(prev):
        violations.append("previous-block hash mismatch")

    # Payset replay; a payset that applies is replayed once per chain.
    try:
        chain.carry(b, apply_payset(status, b.payset, registry))
    except LedgerError as exc:
        violations.append(f"payset does not apply: {exc}")

    bootstrap = b.round < params.lookback

    # Seed rule: empty blocks chain the previous seed with the round number;
    # non-empty blocks embed the hash of the leader's signature over it.
    if b.is_empty():
        if b.seed != empty_round_seed(prev.seed, b.round):
            violations.append("seed rule violated for empty block")
    elif bootstrap:
        violations.append("non-empty block before the lookback horizon")
    else:
        leader = view_leader(b.round, prev.seed, chain)
        if leader is None:
            violations.append("non-empty block in a round with no potential leader")
        elif b.seed != leader_round_seed(registry.unique_sign(leader, prev.seed)):
            violations.append("seed rule violated for non-empty block")

    # Certificate: at least cert_threshold valid messages from distinct
    # sortition-verified committee members, all over this block's hash.
    # Rounds before the lookback horizon cannot have committees at all, so
    # any message there is reported and only the threshold is waived.
    seen: set[UserId] = set()  # voters of the valid messages
    for m, reason in zip(b.cert, check_cert(
            b.cert, b.round, block_hash(b), 1 if b.is_empty() else 0,
            prev.seed, chain)):
        if reason is None and m.voter not in seen:
            seen.add(m.voter)
        else:
            violations.append(f"cert message from user {m.voter}: "
                              f"{reason or 'duplicate voter'}")
    if not bootstrap and len(seen) < params.cert_threshold:
        violations.append(
            f"insufficient certificates: have {len(seen)}, "
            f"need {params.cert_threshold}")
    return violations


def check_cert(cert: Sequence[Vote], round: int, digest: Digest,
               expected_bit: int, prev_seed: Digest,
               chain: Chain) -> list[str | None]:
    """Why each message of `cert` is unacceptable for `digest` (None where
    it is fine), in cert order; `expected_bit` is 1 for the round's empty
    block, else 0.

    One pass makes the structural checks, then `bad-step` and `not-eligible`
    against one read of the round's eligible users, and groups the rest by
    step; those all vote `cert_payload(expected_bit, digest)`.  A step
    group's credentials are recomputed in one `sortition.select_committee`
    call over its voters, the one selection rule: a credential is valid when
    it is among the selected ones, and otherwise `verify_unique` tells
    `bad-signature` from `not-selected`.  The valid messages' ephemeral
    signatures are checked in one `verify_ephemeral_many` call.  An eligible
    voter the registry does not know raises `UnknownUserError`."""
    params, registry = chain.params, chain.registry
    payload = cert_payload(expected_bit, digest)
    serving = eligible(round, chain)
    reasons: list[str | None] = []
    by_step: dict[int, list[tuple[int, Vote]]] = {}
    for m in cert:
        voter, m_round, step, value, _, credential = m
        reason = None
        if m_round != round:
            reason = "wrong round"
        elif value != payload:
            reason = ("wrong block digest" if value[1:] != digest
                      else "bit does not match block emptiness")
        elif credential[:3] != (voter, round, step):
            reason = "credential does not match message"
        elif step < 1:
            reason = "credential invalid (bad-step)"
        elif voter not in serving:
            reason = "credential invalid (not-eligible)"
        else:
            by_step.setdefault(step, []).append((len(reasons), m))
        reasons.append(reason)
    for step, group in by_step.items():
        selected = set(sortition.select_committee(
            round, step, prev_seed, [m.voter for _, m in group], params, registry))
        valid = []
        for i, m in group:
            if m.credential in selected:
                valid.append((i, m))
            elif registry.verify_unique(
                    m.voter, sortition.credential_message(round, step, prev_seed),
                    m.credential.sig):
                reasons[i] = "credential invalid (not-selected)"
            else:
                reasons[i] = "credential invalid (bad-signature)"
        for (i, _), ok in zip(valid, registry.verify_ephemeral_many(
                [(m.voter, m.sig) for _, m in valid], round, step, payload)):
            if not ok:
                reasons[i] = "bad ephemeral signature"
    return reasons


def verify_chain(chain: Chain, genesis: dict[UserId, int] | None = None
                 ) -> list[tuple[int, str]]:
    """Replay validate_block over every round; returns (round, violation) pairs.

    A genesis seed other than `chain.registry.genesis_seed` means the chain
    is of another scenario seed, and genesis balances other than `genesis`
    (when given) of another scenario: every later check would fail or mean
    nothing for that one reason, so it is the one violation reported, at
    round 0, and no block is checked.  The seed is compared first.
    """
    g = chain.blocks[0]
    if g.seed != chain.registry.genesis_seed:
        return [(0, "genesis seed does not match the registry's genesis seed")]
    if genesis is not None and chain.genesis_status.balances != genesis:
        return [(0, "genesis balances do not match the config")]
    problems: list[tuple[int, str]] = []
    if g.round != 0 or g.payset or g.prev_hash != ZERO_DIGEST or g.cert:
        problems.append((0, "malformed genesis block"))
    for b in chain.blocks[1:]:
        for v in validate_block(chain, b):
            problems.append((b.round, v))
    return problems


# -- line-delimited export (one JSON object per block) ------------------------

_BLOCK = '{"cert":[%s],"payset":[%s],"prev_hash":"%s","round":%d,"seed":"%s"}'
_PAYMENT = '{"amount":%d,"payee":%d,"payer":%d,"sig":"%s"}'
_CERT = ('{"bit":%d,"block_digest":"%s","credential":{"round":%d,"sig":"%s",'
         '"step":%d,"user":%d},"round":%d,"sig":"%s","step":%d,"voter":%d}')


def chain_lines(chain: Chain) -> Iterator[str]:
    """The chain file's lines, header first, each formatted as it is drawn."""
    yield json.dumps(
        {"genesis_status": {str(u): a for u, a in
                            chain.genesis_status.balances.items()}},
        sort_keys=True, separators=(",", ":"))
    for b in chain.blocks:
        cert = [_CERT % (p[0], p[1:].hex(), cr, c_sig.hex(), cs, u, r, sig.hex(), s, v)
                for v, r, s, p, sig, (u, cr, cs, c_sig) in b.cert]
        payset = [_PAYMENT % (p.amount, p.payee, p.payer, p.sig.hex())
                  for p in b.payset]
        yield _BLOCK % (",".join(cert), ",".join(payset), b.prev_hash.hex(),
                        b.round, b.seed.hex())


def _hash_field(text: str) -> bytes:
    """Decode a hex digest or signature; each is exactly DIGEST_LEN bytes."""
    value = bytes.fromhex(text)
    if len(value) != DIGEST_LEN:
        raise ValueError(f"expected {DIGEST_LEN} bytes, got {len(value)}")
    return value


def _u64_field(value) -> int:
    """A number of a chain file (user id, balance, amount, round, step or
    bit); each is an int in [0, 2**64)."""
    if type(value) is not int or not 0 <= value < 2**64:
        raise ValueError(f"expected an integer in [0, 2**64), got {value!r}")
    return value


def _bit_field(value) -> int:
    """A cert bit of a chain file: one byte of the signed `cert_payload`."""
    if _u64_field(value) >= 256:
        raise ValueError(f"expected a cert bit in [0, 256), got {value}")
    return value


# What a malformed line raises while it is read: json.loads (RecursionError
# when arrays nest deeper than the interpreter's limit), a missing key, or a
# value of the wrong type or range, checked in field declaration order.
# Every number passes `_u64_field` before a Block serializes it.
_PARSE_ERRORS = (StopIteration, KeyError, ValueError, TypeError, AttributeError,
                 RecursionError)


def chain_from_lines(lines: Iterable[str],
                     registry: KeyRegistry | None = None,
                     params: ProtocolParams = ProtocolParams()) -> Chain:
    """Parse an exported chain, to be read under `registry` and `params`."""
    it = iter(lines)
    try:
        header = json.loads(next(it))
        balances = {_u64_field(int(u)): _u64_field(a)
                    for u, a in header["genesis_status"].items()}
    except UnicodeDecodeError:
        raise  # not text: a file's decoder may have failed on a later line
    except _PARSE_ERRORS as exc:
        raise LedgerError(f"malformed chain file header: {exc}") from exc
    chain = Chain(Status(0, balances), registry=registry, params=params)
    for line in it:
        if not line.strip():
            continue
        try:
            o = json.loads(line)
            # the block's votes share one payload object, as certify's do;
            # each is validated before it is looked up
            payloads: dict[bytes, bytes] = {}
            payset = tuple([Payment(_u64_field(p["payer"]), _u64_field(p["payee"]),
                                    _u64_field(p["amount"]), _hash_field(p["sig"]))
                            for p in o["payset"]])
            cert = tuple([Vote(
                _u64_field(m["voter"]), _u64_field(m["round"]),
                _u64_field(m["step"]),
                payloads.setdefault(payload := cert_payload(
                    _bit_field(m["bit"]), _hash_field(m["block_digest"])), payload),
                _hash_field(m["sig"]),
                Credential(_u64_field((c := m["credential"])["user"]),
                           _u64_field(c["round"]), _u64_field(c["step"]),
                           _hash_field(c["sig"])))
                for m in o["cert"]])
            block = Block(_u64_field(o["round"]), payset, _hash_field(o["seed"]),
                          _hash_field(o["prev_hash"]), cert)
        except _PARSE_ERRORS as exc:
            raise LedgerError(f"malformed chain record: {exc}") from exc
        chain.append(block)
    if not chain.blocks:
        raise LedgerError("no block record follows the header")
    return chain
