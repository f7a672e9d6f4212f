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
it is read under, so every chain read takes only the chain.  `apply_payset`
is the payment rule; a chain's status window applies each committed payset
through it when a later round first reads the status after it, the
validator's read of a block's own status included.  A chain file
is a JSON genesis header line and then one JSON block record a line, with
sorted keys, no spaces, ints and lowercase hex; nothing there needs
escaping, so `chain_pieces` formats the file from templates one record at a
time (a certificate message, a payment, a block's fixed fields), and a
writer holds one record, never a block's line (`block_pieces` formats one
block).  `read_chain` takes any iterable of lines, an open file included (a
line's newline is JSON whitespace): it parses the header and then hands the
blocks on one record at a time, so a reader never holds the file's text.
`verify_chain` of that stream registers the users each block names,
validates the block as it is read and keeps only the blocks its status
window reads, so it holds no chain;
`chain_from_lines` collects the blocks into a whole chain.  The reader checks
the writer's field texts: `payset` and `cert` lists, digests and signatures
of exactly 64 lowercase hex characters and header user ids in plain decimal,
and a parse error names its record's line.  It does not yet check a record's
key order or spacing, and takes extra and duplicated keys.
"""

from __future__ import annotations

import binascii
import json
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


class Status:
    """Account balances entering a round (non-negative money units)."""

    def __init__(self, round: int, balances: dict[UserId, int]):
        self.round, self.balances = round, balances

    def __eq__(self, other):
        return (isinstance(other, Status)
                and (self.round, self.balances) == (other.round, other.balances))

    @cached_property
    def holders(self) -> set[UserId]:
        """Users with a positive balance, computed once per status."""
        return {u for u, a in self.balances.items() if a > 0}


class Payment(NamedTuple):
    payer: UserId
    payee: UserId
    amount: int
    sig: Signature


class _BlockFields(NamedTuple):
    round: int
    payset: tuple[Payment, ...]
    seed: Digest
    prev_hash: Digest
    cert: tuple[Vote, ...]
    # Hash of the canonical serialization (the cert is not covered)
    digest: Digest


class Block(_BlockFields):
    """`Block(round, payset, seed, prev_hash, cert)` computes the digest, and
    so does every copy (`_replace`, or `_make` of those five fields): no
    caller passes one in.  `with_cert` carries it over, as the cert is not
    hashed."""

    __slots__ = ()

    def __new__(cls, round: int, payset: tuple[Payment, ...], seed: Digest,
                prev_hash: Digest, cert: tuple[Vote, ...]) -> Block:
        parts = [TAG_BLOCK, be8(round), be8(len(payset))]
        for p in payset:
            parts += [be8(p.payer), be8(p.payee), be8(p.amount), p.sig]
        parts += [seed, prev_hash]
        return super().__new__(cls, round, payset, seed, prev_hash, cert,
                               sha256(b"".join(parts)))

    @classmethod
    def _make(cls, fields) -> Block:
        return cls(*fields)

    def _replace(self, **changes) -> Block:  # `digest=` is a TypeError
        return Block(**{**dict(zip(self._fields[:5], self)), **changes})

    def is_empty(self) -> bool:
        return not self.payset

    def with_cert(self, cert: Sequence[Vote]) -> Block:
        return tuple.__new__(Block, (*self[:4], tuple(cert), self.digest))


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


def apply_payset(status: Status, payset: Sequence[Payment],
                 registry: KeyRegistry) -> Status:
    """The payment rule: the status after the round's payments, applied in
    list order.  A payment needs a positive amount, a registered payer whose
    unique signature over the payment message for `status.round` verifies,
    and a payer balance that covers the amount, counting the payments before
    it; a new payee is created with the amount received, and total money is
    conserved.  The first payment that breaks the rule raises, with its
    index."""
    balances = dict(status.balances)
    for i, p in enumerate(payset):
        if p.amount < 1:
            raise InvalidPaymentError(i, "non-positive amount")
        if not (registry.is_registered(p.payer) and registry.verify_unique(
                p.payer, payment_message(p.payer, p.payee, p.amount,
                                         status.round), p.sig)):
            raise InvalidSignatureError(i)
        if balances.get(p.payer, 0) < p.amount:
            raise InsufficientFundsError(i, p.payer)
        balances[p.payer] -= p.amount
        balances[p.payee] = balances.get(p.payee, 0) + p.amount
    return Status(status.round + 1, balances)


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
    The window applies a committed payset when a later round first reads the
    status after it, so a run applies each payset once, and its tip's, which
    no round reads, not at all.  `validate_block` of the chain's own block
    reads the status after it from the window, so verifying a chain applies
    each payset (and verifies its payment signatures) once too.
    A chain that grows at its tip and is read only there (a run handing its
    rounds to a sink as they commit, `SimulationRun.run` with `release`, and
    `verify_chain` of a stream) calls `release` after each block, so it keeps
    the blocks from round `tip_round - lookback - 1` on, None for the rest;
    an attack's run also keeps the prefix it reads back.
    """

    def __init__(self, genesis_status: Status, blocks: list[Block] | None = None,
                 registry: KeyRegistry | None = None, *, params: ProtocolParams):
        self.genesis_status, self.registry, self.params = (
            genesis_status, registry, params)
        self.blocks = [] if blocks is None else blocks
        self._statuses = {0: Status(0, dict(genesis_status.balances))}
        self._top = 0  # highest round in _statuses

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
        # replay from the window's top and keep each status, dropping the one
        # `lookback + 1` rounds below it (genesis stays).  _top moves with
        # each kept round, so a payset that raises part way leaves it on a
        # status the window still holds.
        keep = round > self._top
        start = self._top if keep else 0
        status = self._statuses[start]
        for r in range(start, round):
            status = apply_payset(status, self.blocks[r].payset, self.registry)
            if keep:
                self._statuses[r + 1] = status
                self._top = r + 1
                if r > self.params.lookback:
                    self._statuses.pop(r - self.params.lookback, None)
        return status

    def release(self, kept: int = -1) -> None:
        """Drop the block `lookback + 2` rounds below the tip, which no read
        at the tip needs any more, unless it lies in blocks 0 to `kept`, a
        prefix the caller reads back; a chain growing at its tip calls this
        once per appended block.  The block the window's replay starts from
        stays: a payset that does not apply keeps `_top` at its round, and
        each later status replays that payset, which raises again before a
        later block is read."""
        old = self.tip_round - self.params.lookback - 2
        if old >= 0 and old > kept and old != self._top:
            self.blocks[old] = None

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

    # Payset replay: the chain's own block is applied by its status window,
    # once per chain; any other block is checked and its status dropped.
    try:
        if b.round < len(chain.blocks) and chain.blocks[b.round] is b:
            chain.status_entering(b.round + 1)
        else:
            apply_payset(status, b.payset, registry)
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


def verify_chain(chain: Chain, genesis: dict[UserId, int] | None = None,
                 blocks: Iterable[Block] | None = None) -> list[tuple[int, str]]:
    """Replay validate_block over every round; returns (round, violation) pairs.

    The blocks are `blocks`, drawn one at a time from genesis on (a reader's
    stream) into a `chain` that holds none yet: each is appended, then
    validated, and the chain then releases the block its window stops
    reading, so memory stays flat in the chain's length and
    `len(chain.blocks)` ends counting every block.  Without `blocks`, the
    chain's own blocks are streamed so into a fresh chain of its genesis,
    registry and params, which leaves `chain` as it was: its status window
    may sit at its tip, where each early round's status would be replayed
    from genesis.

    The registry is `chain.registry`: the genesis users are registered
    first, and each block's payers and payees before the block is appended,
    so a reader's registry needs no user registered beforehand.

    A genesis seed other than `chain.registry.genesis_seed` means the chain
    is of another scenario seed, and genesis balances other than `genesis`
    (when given) of another scenario: every later check would fail or mean
    nothing for that one reason, so it is the one violation reported, at
    round 0, and no block is checked.  The seed is compared first.  The
    blocks are drawn to the end either way, so whatever a stream raises for
    a later record is raised.
    """
    if blocks is None:
        chain, blocks = Chain(chain.genesis_status, registry=chain.registry,
                              params=chain.params), chain.blocks
    for u in chain.genesis_status.balances:
        chain.registry.register_user(u)
    blocks = _appended(chain, blocks)
    g = next(blocks)
    if g.seed != chain.registry.genesis_seed:
        problems = [(0, "genesis seed does not match the registry's genesis seed")]
    elif genesis is not None and chain.genesis_status.balances != genesis:
        problems = [(0, "genesis balances do not match the config")]
    else:
        problems = []
        if g.payset or g.prev_hash != ZERO_DIGEST or g.cert:
            problems.append((0, "malformed genesis block"))
        for b in blocks:
            for v in validate_block(chain, b):
                problems.append((b.round, v))
    for _ in blocks:
        pass
    return problems


def _appended(chain: Chain, blocks: Iterable[Block]) -> Iterator[Block]:
    """Each of `blocks` once `chain` holds it, its payers and payees
    registered; when the next is drawn, the chain releases what its window
    no longer reads."""
    register = chain.registry.register_user
    for b in blocks:
        for p in b.payset:
            register(p.payer)
            register(p.payee)
        chain.append(b)
        yield b
        chain.release()


# -- line-delimited export (one JSON object per block) ------------------------

_BLOCK = '{"cert":[%s],"payset":[%s],"prev_hash":"%s","round":%d,"seed":"%s"}'
_PAYMENT = '{"amount":%d,"payee":%d,"payer":%d,"sig":"%s"}'
_CERT = ('{"bit":%d,"block_digest":"%s","credential":{"round":%d,"sig":"%s",'
         '"step":%d,"user":%d},"round":%d,"sig":"%s","step":%d,"voter":%d}')


# The block template's three fixed parts, around its cert and payset lists,
# so that each record of those is yielded on its own, after a comma if not first
_BLOCK_OPEN, _BLOCK_MID, _BLOCK_CLOSE = _BLOCK.split("%s", 2)
_BLOCK_CLOSE += "\n"
_NEXT_CERT, _NEXT_PAYMENT = "," + _CERT, "," + _PAYMENT


def block_pieces(b: Block) -> Iterator[str]:
    """A block's line in pieces of at most one record, formatted as drawn: its
    opening, each cert message, its payset's opening, each payment, the rest."""
    yield _BLOCK_OPEN
    template = _CERT
    for v, r, s, p, sig, (u, cr, cs, c_sig) in b.cert:
        yield template % (p[0], p[1:].hex(), cr, c_sig.hex(), cs, u, r,
                          sig.hex(), s, v)
        template = _NEXT_CERT
    yield _BLOCK_MID
    template = _PAYMENT
    for p in b.payset:
        yield template % (p.amount, p.payee, p.payer, p.sig.hex())
        template = _NEXT_PAYMENT
    yield _BLOCK_CLOSE % (b.prev_hash.hex(), b.round, b.seed.hex())


def chain_pieces(chain: Chain) -> Iterator[str]:
    """The chain file's text: its header line, then each block's pieces."""
    yield json.dumps(
        {"genesis_status": {str(u): a for u, a in
                            chain.genesis_status.balances.items()}},
        sort_keys=True, separators=(",", ":")) + "\n"
    for b in chain.blocks:
        yield from block_pieces(b)


def _hash_field(text: str, name: str) -> bytes:
    """Decode the digest or signature of field `name`: exactly 2 * DIGEST_LEN
    lowercase hex characters, as the writer makes it.  `unhexlify` rejects
    spaces and is faster than `bytes.fromhex`; the round trip rejects
    uppercase."""
    try:
        value = binascii.unhexlify(text)
    except (TypeError, ValueError):  # not a string, or not ASCII hex
        value = None
    if value is None or len(value) != DIGEST_LEN or value.hex() != text:
        raise ValueError(
            f"{name}: expected {DIGEST_LEN}-byte lowercase hex, got {text!r}")
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


def _user_key(key: str) -> int:
    """A header key: a user id in the decimal text the writer makes (`int`
    alone also takes signs, spaces, underscores, leading zeros and other
    scripts' digits)."""
    user = _u64_field(int(key))
    if str(user) != key:
        raise ValueError(f"expected a user id in plain decimal, got {key!r}")
    return user


def _cert_value(payloads: dict, m: dict) -> bytes:
    """`cert_payload` of message `m`'s bit and block digest, decoded once per
    distinct pair in a record and shared, as certify's is.  Only an int bit is
    looked up: `true` or `1.0` would find the entry of 1."""
    try:
        if type(m["bit"]) is int:
            return payloads[m["bit"], m["block_digest"]]
    except (KeyError, TypeError):
        pass  # read afresh below, so a bad message raises what it raised
    value = cert_payload(_bit_field(m["bit"]),
                         _hash_field(m["block_digest"], "cert block_digest"))
    payloads[m["bit"], m["block_digest"]] = value
    return value


# What a malformed line raises while it is read: json.loads (RecursionError
# when arrays nest deeper than the interpreter's limit), a missing key, or a
# value of the wrong type or range, checked in field declaration order.
# Every number passes `_u64_field` before a Block serializes it.
_PARSE_ERRORS = (KeyError, ValueError, TypeError, AttributeError, RecursionError)


def _cause(exc: Exception) -> object:
    """A parse error in the reader's words where Python's are bare: a missing
    key, or a list, number or string where the writer puts an object."""
    if type(exc) is KeyError:
        return f"missing key {exc.args[0]!r}"
    if type(exc) is TypeError and ("subscriptable" in str(exc) or "indices" in str(exc)):
        return "expected an object"
    return exc


def _list_field(o: dict, key: str) -> list:
    """A record's `payset` or `cert`: a list, as the writer makes it."""
    value = o[key]
    if type(value) is not list:
        raise ValueError(f"{key}: expected a list")
    return value


def read_chain(lines: Iterable[str], registry: KeyRegistry | None = None,
               params: ProtocolParams = ProtocolParams()
               ) -> tuple[Chain, Iterator[Block]]:
    """Parse an exported chain's header into a `Chain` that holds no block
    yet, to be read under `registry` and `params`, and return it with a
    generator that parses the block records one at a time as it is drawn."""
    it = iter(lines)
    first = next(it, None)
    if first is None:
        raise LedgerError("malformed chain file header: the file is empty")
    try:
        status = json.loads(first)["genesis_status"]
        if type(status) is not dict:
            raise ValueError("genesis_status: expected an object")
        balances = {_user_key(u): _u64_field(a) for u, a in status.items()}
    except UnicodeDecodeError:
        raise  # not text: a file's decoder may have failed on a later line
    except _PARSE_ERRORS as exc:
        raise LedgerError(
            f"line 1: malformed chain file header: {_cause(exc)}") from exc
    return Chain(Status(0, balances), registry=registry, params=params), _blocks(it)


def _blocks(lines: Iterator[str]) -> Iterator[Block]:
    """The blocks of a chain file's records, the header's line already read;
    blank lines are skipped, but counted in the line a parse error names."""
    empty = True
    for n, line in enumerate(lines, 2):
        if line.strip():
            empty = False
            yield _block(line, n)
    if empty:
        raise LedgerError("no block record follows the header")


def _block(line: str, n: int) -> Block:
    """The block of chain-file record `n`, parsed in a call of its own so
    that the record's JSON objects are freed before the block is validated."""
    try:
        o = json.loads(line)
        payloads: dict[tuple[int, str], bytes] = {}
        payset = tuple([Payment(_u64_field(p["payer"]), _u64_field(p["payee"]),
                                _u64_field(p["amount"]),
                                _hash_field(p["sig"], "payment sig"))
                        for p in _list_field(o, "payset")])
        cert = tuple([Vote(
            _u64_field(m["voter"]), _u64_field(m["round"]),
            _u64_field(m["step"]), _cert_value(payloads, m),
            _hash_field(m["sig"], "cert sig"),
            Credential(_u64_field((c := m["credential"])["user"]),
                       _u64_field(c["round"]), _u64_field(c["step"]),
                       _hash_field(c["sig"], "credential sig")))
            for m in _list_field(o, "cert")])
        return Block(_u64_field(o["round"]), payset,
                     _hash_field(o["seed"], "seed"),
                     _hash_field(o["prev_hash"], "prev_hash"), cert)
    except _PARSE_ERRORS as exc:
        raise LedgerError(
            f"line {n}: malformed chain record: {_cause(exc)}") from exc


def chain_from_lines(lines: Iterable[str],
                     registry: KeyRegistry | None = None,
                     params: ProtocolParams = ProtocolParams()) -> Chain:
    """Parse an exported chain whole, to be read under `registry` and `params`."""
    chain, blocks = read_chain(lines, registry, params)
    for b in blocks:
        chain.append(b)
    return chain
