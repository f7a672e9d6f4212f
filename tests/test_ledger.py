import hashlib
import json
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algosim import sortition
from algosim.crypto import (
    TAG_BLOCK,
    TAG_PAYMENT,
    UnknownUserError,
    _ephemeral_sig,
    be8,
    hash_to_unit,
)
from algosim.cli import load_config
from algosim.engine import ScenarioConfig, run_scenario
from algosim.ledger import (
    Block,
    Chain,
    InsufficientFundsError,
    InvalidPaymentError,
    InvalidSignatureError,
    LedgerError,
    Payment,
    RoundOutOfRangeError,
    Status,
    Vote,
    apply_payset,
    block_hash,
    build_payset,
    cert_payload,
    chain_from_lines,
    chain_pieces,
    empty_round_seed,
    make_genesis,
    make_payment,
    next_block,
    users_at,
    validate_block,
    verify_chain,
    view_leader,
)
from algosim.sortition import (
    Credential,
    ProtocolParams,
    credential_message,
)

from conftest import export_lines, idle_chain, make_registry, view_committee


def cert_vote(voter, round, step, bit, block_digest, sig, credential):
    """A certificate `Vote` from the fields of a chain-file cert record: it
    signs the bit byte, then the block digest (README)."""
    return Vote(voter, round, step, bytes([bit]) + block_digest, sig, credential)


@pytest.fixture
def chain(registry):
    return make_genesis({u: 100 for u in range(1, 11)}, registry,
                        ProtocolParams(lookback=1))


def replay_oracle(balances, transfers):
    """Straightforward sequential replay used as an independent oracle."""
    out = dict(balances)
    for payer, payee, amount in transfers:
        assert out.get(payer, 0) >= amount
        out[payer] = out.get(payer, 0) - amount
        out[payee] = out.get(payee, 0) + amount
    return out


class TestApplyPayset:
    def test_empty_payset(self, registry):
        status = Status(4, {1: 10})
        nxt = apply_payset(status, [], registry)
        assert nxt.round == 5
        assert nxt.balances == {1: 10}

    def test_simple_transfer(self, registry):
        status = Status(0, {1: 10, 2: 0})
        p = make_payment(registry, 1, 2, 5, 0)
        nxt = apply_payset(status, [p], registry)
        assert nxt.balances == {1: 5, 2: 5}

    def test_sequential_validity_creates_then_spends(self, registry):
        # user 3 is created by the first payment and spends in the second
        status = Status(2, {1: 4})
        payset = [make_payment(registry, 1, 3, 4, 2),
                  make_payment(registry, 3, 4, 4, 2)]
        nxt = apply_payset(status, payset, registry)
        assert nxt.balances == {1: 0, 3: 0, 4: 4}
        assert nxt.balances == replay_oracle({1: 4}, [(1, 3, 4), (3, 4, 4)])

    def test_conservation(self):
        registry = make_registry(users=range(1, 13))
        rng = random.Random(5)
        status = Status(1, {u: rng.randint(0, 50) for u in range(1, 9)})
        total = sum(status.balances.values())
        payset = []
        working = dict(status.balances)
        for _ in range(30):
            payer = rng.choice([u for u in working if working[u] >= 1] or [1])
            if working.get(payer, 0) < 1:
                continue
            amount = rng.randint(1, working[payer])
            payee = rng.randint(1, 12)
            payset.append(make_payment(registry, payer, payee, amount, 1))
            working[payer] -= amount
            working[payee] = working.get(payee, 0) + amount
        nxt = apply_payset(status, payset, registry)
        assert sum(nxt.balances.values()) == total

    def test_invalid_signature_reports_index(self, registry):
        status = Status(0, {1: 10})
        good = make_payment(registry, 1, 2, 1, 0)
        bad = make_payment(registry, 1, 2, 1, 9)  # signed for the wrong round
        with pytest.raises(InvalidSignatureError) as err:
            apply_payset(status, [good, bad], registry)
        assert err.value.index == 1

    def test_insufficient_funds_reports_index(self, registry):
        status = Status(0, {1: 3})
        p1 = make_payment(registry, 1, 2, 3, 0)
        p2 = make_payment(registry, 1, 2, 1, 0)
        with pytest.raises(InsufficientFundsError) as err:
            apply_payset(status, [p1, p2], registry)
        assert err.value.index == 1


# -- the one payment rule, skipping and raising ----------------------------------

RULE_REGISTRY = make_registry(users=range(1, 6))  # user 6 stays unregistered
RULE_STATUS = Status(3, {1: 5, 2: 3, 3: 0})


def drawn_payment(payer, payee, amount, round_offset):
    """A payment as it may arrive: any amount, zero included, signed for the
    round `round_offset` away from RULE_STATUS's, or by nobody when the payer
    is unregistered."""
    if not RULE_REGISTRY.is_registered(payer):
        return Payment(payer, payee, amount, b"\x00" * 32)
    return make_payment(RULE_REGISTRY, payer, payee, amount,
                        RULE_STATUS.round + round_offset)


@given(st.lists(st.builds(drawn_payment, st.integers(1, 6), st.integers(1, 6),
                          st.integers(0, 6), st.sampled_from([0, 0, 0, 1])),
                max_size=8))
def test_build_payset_skips_exactly_what_apply_payset_refuses(pending):
    # payees 4 and 5 start with nothing, so they can pay only after an
    # earlier payment of the list funds them
    built, after = build_payset(pending, RULE_STATUS, RULE_REGISTRY)
    assert apply_payset(RULE_STATUS, built, RULE_REGISTRY) == after
    if built == tuple(pending):
        apply_payset(RULE_STATUS, pending, RULE_REGISTRY)
        return
    first_skipped = next(i for i, p in enumerate(pending)
                         if i == len(built) or built[i] != p)
    with pytest.raises(InvalidPaymentError) as err:
        apply_payset(RULE_STATUS, pending, RULE_REGISTRY)
    assert err.value.index == first_skipped


class TestBlockHash:
    def test_cert_excluded(self, registry, chain, params):
        b = chain.blocks[0]
        certed = b.with_cert((object(),))
        assert block_hash(b) == block_hash(certed)

    def test_payment_changes_hash(self, registry, chain):
        p1 = make_payment(registry, 1, 2, 5, 1)
        p2 = make_payment(registry, 1, 2, 6, 1)
        prev = block_hash(chain.blocks[0])
        seed = empty_round_seed(chain.blocks[0].seed, 1)
        b1 = Block(1, (p1,), seed, prev, ())
        b2 = Block(1, (p2,), seed, prev, ())
        assert block_hash(b1) != block_hash(b2)

    def test_golden_digest_from_documented_serialization(self, registry):
        # Independent reconstruction of the canonical layout with hashlib.
        p = make_payment(registry, 1, 2, 5, 3)
        seed = bytes(range(32))
        prev = bytes(reversed(range(32)))
        b = Block(3, (p,), seed, prev, ())
        preimage = (TAG_BLOCK + be8(3) + be8(1)
                    + be8(1) + be8(2) + be8(5) + p.sig + seed + prev)
        assert block_hash(b) == hashlib.sha256(preimage).digest()
        # and the payment signature itself is a keyed digest over the
        # documented payment message
        msg = TAG_PAYMENT + be8(1) + be8(2) + be8(5) + be8(3)
        assert registry.verify_unique(1, msg, p.sig)


class TestUsersAt:
    def test_genesis_round(self, registry, chain):
        assert users_at(chain, 0) == set(range(1, 11))

    def test_new_user_joins(self, registry, chain):
        p = make_payment(registry, 1, 77, 10, 1)
        prev = chain.blocks[0]
        chain.append(Block(1, (p,), empty_round_seed(prev.seed, 1),
                           block_hash(prev), ()))
        assert 77 in users_at(chain, 1)

    def test_broke_user_drops_out(self, registry, chain):
        p = make_payment(registry, 1, 2, 100, 1)  # entire balance of user 1
        prev = chain.blocks[0]
        chain.append(Block(1, (p,), empty_round_seed(prev.seed, 1),
                           block_hash(prev), ()))
        assert 1 not in users_at(chain, 1)
        assert users_at(chain, 0) == set(range(1, 11))

    def test_round_out_of_range(self, registry, chain):
        with pytest.raises(RoundOutOfRangeError):
            users_at(chain, 5)


def test_golden_vector_file_digests():
    # the exported vector chain re-hashes to the recorded digests, so any
    # serialization or hashing change shows up here first
    from pathlib import Path

    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    chain = chain_from_lines(
        (fixtures / "golden_chain.jsonl").read_text().splitlines())
    expected = {}
    for line in (fixtures / "golden_digests.txt").read_text().splitlines():
        r, digest = line.split()
        expected[int(r)] = digest
    assert len(chain.blocks) == len(expected)
    for b in chain.blocks:
        assert block_hash(b).hex() == expected[b.round], f"round {b.round}"
    # spot-check one digest against a from-scratch serialization
    b = chain.blocks[3]
    parts = [TAG_BLOCK, be8(b.round), be8(len(b.payset))]
    for p in b.payset:
        parts += [be8(p.payer), be8(p.payee), be8(p.amount), p.sig]
    parts += [b.seed, b.prev_hash]
    assert hashlib.sha256(b"".join(parts)).hexdigest() == expected[3]


def test_cert_mutation_never_changes_hash(registry):
    rng = random.Random(99)
    chain = idle_chain(registry, {u: 200 for u in range(1, 6)}, 2)
    prev = chain.tip()
    for _ in range(40):
        payset = tuple(
            make_payment(registry, rng.randint(1, 5), rng.randint(1, 9),
                         rng.randint(1, 50), 3)
            for _ in range(rng.randint(0, 4)))
        block = Block(3, payset, empty_round_seed(prev.seed, 3),
                      block_hash(prev), ())
        reference = block_hash(block)
        junk = tuple(object() for _ in range(rng.randint(1, 3)))
        assert block_hash(block.with_cert(junk)) == reference


def test_replay_is_deterministic(registry):
    chain = idle_chain(registry, {1: 30, 2: 40}, 3)
    p = make_payment(registry, 1, 2, 3, 4)
    prev = chain.tip()
    chain.append(Block(4, (p,), empty_round_seed(prev.seed, 4),
                       block_hash(prev), ()))
    first = [chain.status_entering(r).balances for r in range(6)]
    again = chain_from_lines(export_lines(chain), registry)
    second = [again.status_entering(r).balances for r in range(6)]
    assert first == second


def test_failed_long_jump_leaves_the_status_window_usable(registry):
    # lookback 1 (a window of 2), then a forward jump that evicts the
    # window's old top before block 4's payset fails: later calls must match
    # a fresh replay
    blocks = idle_chain(registry, {1: 30, 2: 40}, 3).blocks
    bad = make_payment(registry, 1, 2, 31, 4)  # user 1 holds only 30
    blocks.append(Block(4, (bad,), empty_round_seed(blocks[-1].seed, 4),
                        block_hash(blocks[-1]), ()))
    blocks.append(next_block(blocks[-1]))
    chain = Chain(Status(0, {1: 30, 2: 40}), list(blocks), registry,
                  params=ProtocolParams(lookback=1))
    fresh = [Status(0, {1: 30, 2: 40})]
    for b in blocks[:4]:
        fresh.append(apply_payset(fresh[-1], b.payset, registry))
    chain.status_entering(1)
    with pytest.raises(InsufficientFundsError):
        chain.status_entering(5)
    for r in (3, 4, 2, 4, 0, 1):
        assert chain.status_entering(r) == fresh[r]
    for r in (5, 6):
        with pytest.raises(InsufficientFundsError):
            chain.status_entering(r)


def test_only_the_chains_own_block_carries_its_status(registry):
    chain = idle_chain(registry, {1: 30, 2: 40}, 3)
    p = make_payment(registry, 1, 2, 3, 4)
    prev = chain.tip()
    block = Block(4, (p,), empty_round_seed(prev.seed, 4), block_hash(prev), ())
    chain.append(block)
    entering = chain.status_entering(4)
    after = apply_payset(entering, block.payset, registry)
    twin = block._replace()  # equal, but not the chain's block
    for other, status in ((twin, after), (block, entering), (chain.blocks[3], after)):
        chain.carry(other, status)
        assert 5 not in chain._statuses
    chain.carry(block, after)
    assert chain.status_entering(5) is after
    chain.carry(block, apply_payset(entering, block.payset, registry))
    assert chain.status_entering(5) is after  # the window had it already


class TestExport:
    def test_round_trip(self, registry):
        chain = idle_chain(registry, {1: 30, 2: 40}, 3)
        p = make_payment(registry, 1, 2, 3, 4)
        prev = chain.tip()
        chain.append(Block(4, (p,), empty_round_seed(prev.seed, 4),
                           block_hash(prev), ()))
        lines = export_lines(chain)
        back = chain_from_lines(lines, registry)
        assert len(back.blocks) == len(chain.blocks)
        for x, y in zip(chain.blocks, back.blocks):
            assert block_hash(x) == block_hash(y)
        assert back.genesis_status.balances == chain.genesis_status.balances
        assert export_lines(back) == lines

    @pytest.mark.parametrize("path", [
        ("seed",), ("prev_hash",), ("payset", 0, "sig"),
        ("cert", 0, "block_digest"), ("cert", 0, "sig"),
        ("cert", 0, "credential", "sig"),
    ])
    @pytest.mark.parametrize("value", ["00", "ab" * 33])
    def test_hash_fields_must_be_32_bytes(self, path, value):
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        lines = (fixtures / "golden_chain.jsonl").read_text().splitlines()
        record = json.loads(lines[4])
        target = record
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        lines[4] = json.dumps(record)
        with pytest.raises(LedgerError):
            chain_from_lines(lines)


    @pytest.mark.parametrize("tail", [[], [""], ["", "  "]])
    def test_header_alone_is_not_a_chain(self, tail):
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        header = (fixtures / "golden_chain.jsonl").read_text().splitlines()[0]
        with pytest.raises(LedgerError, match="no block record"):
            chain_from_lines([header] + tail)

    def test_negative_number_is_parse_error(self):
        # a block hashes its fields on construction, so a number that has no
        # 8-byte big-endian form is rejected while the file is read
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        lines = (fixtures / "golden_chain.jsonl").read_text().splitlines()
        record = json.loads(lines[4])
        record["payset"][0]["amount"] = -5
        lines[4] = json.dumps(record)
        with pytest.raises(LedgerError):
            chain_from_lines(lines)


# -- block digests -----------------------------------------------------------------

def readme_preimage(b):
    """The README block layout, built with struct rather than the ledger's
    own encoder: "BLK_" + round + payset_len + (payer + payee + amount + sig)
    per payment + seed + prev_hash, integers as big-endian u64."""
    out = b"BLK_" + struct.pack(">QQ", b.round, len(b.payset))
    for p in b.payset:
        out += struct.pack(">QQQ", p.payer, p.payee, p.amount) + p.sig
    return out + b.seed + b.prev_hash


def test_block_digest_matches_readme_preimage_on_every_path(registry):
    chain = idle_chain(registry, {1: 30, 2: 40}, 3)
    prev = chain.tip()
    pays = (make_payment(registry, 1, 2, 3, 4), make_payment(registry, 2, 1, 7, 4))
    built = Block(4, pays, empty_round_seed(prev.seed, 4), block_hash(prev), ())
    certed = built.with_cert((cert_vote(1, 4, 2, 0, block_hash(built),
                                        b"\x01" * 32,
                                        Credential(1, 4, 2, b"\x02" * 32)),))
    reseeded = built._replace(seed=bytes(range(32)))
    chain.append(certed)
    parsed = chain_from_lines(export_lines(chain), registry).blocks
    for b in (built, certed, reseeded, *chain.blocks, *parsed):
        assert block_hash(b) == hashlib.sha256(readme_preimage(b)).digest()
    assert block_hash(reseeded) != block_hash(built)
    assert block_hash(parsed[4]) == block_hash(built)
    with pytest.raises(TypeError):
        Block(4, pays, built.seed, built.prev_hash, (), b"\x00" * 32)
    with pytest.raises(TypeError):
        built._replace(digest=b"\x00" * 32)


u64 = st.integers(0, 2**64 - 1)
hash32 = st.binary(min_size=32, max_size=32)
payments = st.builds(Payment, u64, u64, u64, hash32)
credentials = st.builds(Credential, u64, u64, u64, hash32)
cert_messages = st.builds(cert_vote, voter=u64, round=u64, step=u64,
                          bit=st.integers(0, 1), block_digest=hash32,
                          sig=hash32, credential=credentials)


@st.composite
def chains(draw):
    """A structurally arbitrary chain: any balances, paysets, seeds, hashes
    and certificate messages, valid or not."""
    chain = Chain(Status(0, draw(st.dictionaries(u64, u64, max_size=4))),
                  params=ProtocolParams(lookback=1))
    for r in range(draw(st.integers(1, 5))):
        chain.append(Block(r, tuple(draw(st.lists(payments, max_size=3))),
                           draw(hash32), draw(hash32),
                           tuple(draw(st.lists(cert_messages, max_size=3)))))
    return chain


@given(chains())
def test_export_round_trip_keeps_blocks_and_digests(chain):
    back = chain_from_lines(export_lines(chain))
    assert back.genesis_status.balances == chain.genesis_status.balances
    assert back.blocks == chain.blocks
    assert [block_hash(b) for b in back.blocks] == \
        [block_hash(b) for b in chain.blocks]


# -- export and parse against the dict-based reference -----------------------------
# `chain_pieces` formats block records from templates and `chain_from_lines`
# builds records positionally.  The references below are the dict tree passed
# to `json.dumps` and the keyword-argument reader they replaced.

def reference_block_line(b):
    obj = {
        "round": b.round,
        "payset": [{"payer": p.payer, "payee": p.payee, "amount": p.amount,
                    "sig": p.sig.hex()} for p in b.payset],
        "seed": b.seed.hex(),
        "prev_hash": b.prev_hash.hex(),
        "cert": [{"voter": m.voter, "round": m.round, "step": m.step,
                  "bit": m.value[0], "block_digest": m.value[1:].hex(),
                  "sig": m.sig.hex(),
                  "credential": {"user": m.credential.user,
                                 "round": m.credential.round,
                                 "step": m.credential.step,
                                 "sig": m.credential.sig.hex()}}
                 for m in b.cert],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reference_parse_record(line):
    """The block record reader with keyword arguments, errors included."""
    from algosim.ledger import _PARSE_ERRORS, _bit_field, _cause, _u64_field
    def listed(o, key):  # the writer makes `payset` and `cert` lists only
        if not isinstance(o[key], list):
            raise ValueError(f"{key}: expected a list")
        return o[key]

    def hex32(value, name):  # the writer's digests: 64 lowercase hex digits
        if not (isinstance(value, str) and len(value) == 64
                and set(value) <= set("0123456789abcdef")):
            raise ValueError(
                f"{name}: expected 32-byte lowercase hex, got {value!r}")
        return bytes.fromhex(value)

    try:
        o = json.loads(line)
        payset = tuple(Payment(_u64_field(p["payer"]), _u64_field(p["payee"]),
                               _u64_field(p["amount"]),
                               hex32(p["sig"], "payment sig"))
                       for p in listed(o, "payset"))
        cert = tuple(cert_vote(
            voter=_u64_field(m["voter"]), round=_u64_field(m["round"]),
            step=_u64_field(m["step"]), bit=_bit_field(m["bit"]),
            block_digest=hex32(m["block_digest"], "cert block_digest"),
            sig=hex32(m["sig"], "cert sig"),
            credential=Credential(_u64_field(m["credential"]["user"]),
                                  _u64_field(m["credential"]["round"]),
                                  _u64_field(m["credential"]["step"]),
                                  hex32(m["credential"]["sig"],
                                        "credential sig")))
            for m in listed(o, "cert"))
        return Block(_u64_field(o["round"]), payset, hex32(o["seed"], "seed"),
                     hex32(o["prev_hash"], "prev_hash"), cert)
    except _PARSE_ERRORS as exc:
        raise LedgerError(f"malformed chain record: {_cause(exc)}") from exc


U64_MAX = 2**64 - 1
u64_edge = st.one_of(st.sampled_from([0, U64_MAX]), u64)
edge_payments = st.builds(Payment, u64_edge, u64_edge, u64_edge, hash32)
edge_cert_messages = st.builds(
    cert_vote, voter=u64_edge, round=u64_edge,
    step=st.one_of(st.integers(1, 12), u64_edge),
    bit=st.one_of(st.integers(0, 1), st.sampled_from([2, 255])),
    block_digest=hash32, sig=hash32,
    credential=st.builds(Credential, u64_edge, u64_edge, u64_edge, hash32))


@st.composite
def edge_blocks(draw):
    return Block(draw(u64_edge), tuple(draw(st.lists(edge_payments, max_size=6))),
                 draw(hash32), draw(hash32),
                 tuple(draw(st.lists(edge_cert_messages, max_size=25))))


def exported(blocks, balances=None):
    chain = Chain(Status(0, balances or {}), params=ProtocolParams(lookback=1))
    chain.blocks.extend(blocks)  # any rounds: the writer does not check them
    return export_lines(chain)


@settings(deadline=None)
@given(st.lists(edge_blocks(), min_size=1, max_size=4),
       st.dictionaries(u64_edge, u64_edge, max_size=4))
def test_export_equals_reference_writer(blocks, balances):
    lines = exported(blocks, balances)
    assert lines[1:] == [reference_block_line(b) for b in blocks]
    assert [reference_parse_record(line) for line in lines[1:]] == blocks
    # a chain file numbers its blocks 0, 1, ...
    lines = exported([b._replace(round=r) for r, b in enumerate(blocks)],
                     balances)
    assert export_lines(chain_from_lines(lines)) == lines


def test_export_reaches_u64_extremes_and_long_certs():
    # the cases the strategy above exists for, pinned so they always run
    cred = Credential(U64_MAX, 0, U64_MAX, b"\xff" * 32)
    cert = tuple(cert_vote(U64_MAX * (i % 2), U64_MAX, i % 3 + 1, i % 2,
                           b"\x00" * 32, bytes([i]) * 32, cred)
                 for i in range(25))
    pays = tuple(Payment(U64_MAX, 0, U64_MAX, bytes([i]) * 32) for i in range(6))
    b = Block(0, pays, b"\xab" * 32, b"\x01" * 32, cert)
    top = b._replace(round=U64_MAX)
    assert exported([top])[1] == reference_block_line(top)
    lines = exported([b], {U64_MAX: 0, 0: U64_MAX})
    assert lines[1] == reference_block_line(b)
    assert chain_from_lines(lines).blocks == [b]
    assert export_lines(chain_from_lines(lines)) == lines


@given(edge_blocks(), st.lists(edge_cert_messages, max_size=25), u64_edge)
def test_with_cert_equals_a_fresh_block(block, cert, round):
    # `with_cert` carries the digest over, as the cert is not hashed;
    # `_replace` of a hashed field computes it afresh
    original = block.cert
    certed = block.with_cert(cert)
    fresh = Block(block.round, block.payset, block.seed, block.prev_hash,
                  tuple(cert))
    assert (certed, certed.digest) == (fresh, fresh.digest)
    assert block.cert is original  # the uncertified block is unchanged
    moved = certed._replace(round=round)
    assert moved.digest == fresh._replace(round=round).digest == \
        Block(round, block.payset, block.seed, block.prev_hash, ()).digest


GOLDEN_TEXT = (Path(__file__).resolve().parent.parent / "fixtures"
               / "golden_chain.jsonl").read_text()
GOLDEN_LINES = GOLDEN_TEXT.splitlines()
# a block line with a payment and certificate messages
GOLDEN_RECORD = json.loads(GOLDEN_LINES[4])
MISSING = object()
BAD_VALUES = [MISSING, "x", 1.5, True, None, [], -1, 2**64, "00", "ab" * 33,
              "zz" * 32, "AB" * 32, " ".join(["ab"] * 32)]
RECORD_PATHS = (
    [(k,) for k in ("round", "seed", "prev_hash", "payset", "cert")]
    + [("payset", 0, k) for k in ("payer", "payee", "amount", "sig")]
    + [("cert", 0, k) for k in ("voter", "round", "step", "bit",
                                "block_digest", "sig", "credential")]
    + [("cert", 0, "credential", k) for k in ("user", "round", "step", "sig")])


def read_outcome(read, line):
    """The block `read` gives for `line`, or the text of its LedgerError."""
    try:
        return read(line)
    except LedgerError as exc:
        return str(exc)


def golden_with(*changes):
    """The golden block line with each (path, value) of `changes` applied."""
    record = json.loads(GOLDEN_LINES[4])
    for path, value in changes:
        target = record
        for key in path[:-1]:
            target = target[key]
        if value is MISSING:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return json.dumps(record)


def assert_reads_like_reference(line):
    expected = read_outcome(reference_parse_record, line)
    got = read_outcome(
        lambda line: chain_from_lines(GOLDEN_LINES[:4] + [line]).blocks[-1], line)
    assert got == expected
    return expected


@pytest.mark.parametrize("path", RECORD_PATHS,
                         ids=lambda path: "/".join(map(str, path)))
def test_parse_errors_equal_reference_reader(path):
    assert GOLDEN_RECORD["payset"] and GOLDEN_RECORD["cert"]
    for value in BAD_VALUES:
        outcome = assert_reads_like_reference(golden_with((path, value)))
        if not (value == [] and path in (("payset",), ("cert",))):
            assert outcome.startswith("malformed chain record: "), value
    # with two fields bad, the one checked first names the error
    for other in RECORD_PATHS:
        if other[:len(path)] != path and path[:len(other)] != other:
            for value in (MISSING, "x", 1.5):
                assert_reads_like_reference(
                    golden_with((path, value), (other, MISSING)))


def test_golden_chain_parses_and_reexports_byte_for_byte():
    back = chain_from_lines(GOLDEN_LINES)
    assert back.blocks == [reference_parse_record(line)
                           for line in GOLDEN_LINES[1:]]
    assert "".join(chain_pieces(back)) == GOLDEN_TEXT


def test_a_blocks_votes_share_one_payload_object():
    # as the engine's certificate votes do: one payload per block, not per vote
    blocks = chain_from_lines(GOLDEN_LINES).blocks
    assert max(len(b.cert) for b in blocks) > 1
    for b in blocks:
        assert len({id(m.value) for m in b.cert}) == len({m.value for m in b.cert})


# -- certificate checks --------------------------------------------------------------
# `validate_block` checks a certificate one step group at a time.  The
# references below check one message at a time, straight from the rules, and
# the batch must report exactly what they report.

CERT_RUN = ScenarioConfig(
    seed=11, num_genesis_users=10, initial_balance=1000, rounds=10,
    consensus_mode="ba", payments_per_round=3, new_users_per_round=1,
    params=ProtocolParams(leader_prob=0.5, verifier_prob=0.7, lookback=3,
                          max_ba_steps=9, cert_threshold=5, horizon=32))
OUTSIDER = 99  # registered after the run, so it never holds a balance


@pytest.fixture(scope="module")
def certified():
    chains, _ = run_scenario(CERT_RUN)
    chains[0].registry.register_user(OUTSIDER)
    return chains[0]


def reference_check_credential(cred, prev_seed, chain, params, registry):
    """Why one credential fails, through `users_at`, `verify_unique` and the
    float rule of sortition."""
    user, round, step, sig = cred
    if step < 1:
        return "bad-step"
    if not (round >= params.lookback
            and user in users_at(chain, round - params.lookback)):
        return "not-eligible"
    if not registry.verify_unique(
            user, credential_message(round, step, prev_seed), sig):
        return "bad-signature"
    p = params.leader_prob if step == 1 else params.verifier_prob
    if not hash_to_unit(hashlib.sha256(sig).digest()) <= p:
        return "not-selected"
    return None


def reference_verify_ephemeral(registry, owner, round, step, message, sig):
    return (registry.is_registered(owner) and 0 <= round <= registry.horizon
            and 1 <= step <= registry.max_step
            and sig == _ephemeral_sig(registry._head, owner,
                                      be8(round) + be8(step), message))


def reference_check_cert_message(m, round, digest, expected_bit, prev_seed,
                                 chain, params, registry):
    voter, m_round, step, value, sig, credential = m
    bit, block_digest = value[0], value[1:]
    if m_round != round:
        return "wrong round"
    if block_digest != digest:
        return "wrong block digest"
    if bit != expected_bit:
        return "bit does not match block emptiness"
    if credential[:3] != (voter, round, step):
        return "credential does not match message"
    reason = reference_check_credential(credential, prev_seed, chain, params,
                                        registry)
    if reason is not None:
        return f"credential invalid ({reason})"
    if not reference_verify_ephemeral(registry, voter, round, step,
                                      cert_payload(bit, block_digest), sig):
        return "bad ephemeral signature"
    return None


def reference_cert_violations(chain, b, params, registry):
    """What `validate_block` reports about the certificate of `b`."""
    prev = chain.blocks[b.round - 1]
    digest, expected_bit = block_hash(b), 1 if b.is_empty() else 0
    violations, seen, valid = [], set(), 0
    for m in b.cert:
        reason = reference_check_cert_message(
            m, b.round, digest, expected_bit, prev.seed, chain, params, registry)
        if reason is not None:
            violations.append(f"cert message from user {m.voter}: {reason}")
            continue
        if m.voter in seen:
            violations.append(f"cert message from user {m.voter}: duplicate voter")
            continue
        seen.add(m.voter)
        valid += 1
    if valid < params.cert_threshold:
        violations.append(f"insufficient certificates: have {valid}, "
                          f"need {params.cert_threshold}")
    return violations


def signed_message(chain, block, user, step):
    """`user`'s cert message for `block` at `step`, with its real credential
    and ephemeral signatures, whether or not sortition selects it."""
    registry, r = chain.registry, block.round
    prev_seed = chain.blocks[r - 1].seed
    bit = 1 if block.is_empty() else 0
    credential = Credential(user, r, step, registry.unique_sign(
        user, credential_message(r, step, prev_seed)))
    sig = _ephemeral_sig(registry._head, user, be8(r) + be8(step),
                         cert_payload(bit, block_hash(block)))
    return cert_vote(user, r, step, bit, block_hash(block), sig, credential)


def selected(chain, block, step):
    r = block.round
    return [c.user for c in view_committee(r, step, chain.blocks[r - 1].seed,
                                           chain)]


def flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


CERT_MUTATIONS = ("round", "digest", "bit", "bit_and_digest", "credential",
                  "credential_sig", "sig", "step_zero", "step_high", "ineligible",
                  "unselected", "other_step", "duplicate")


def mutated_message(chain, block, m, kind, draw, params):
    if kind == "round":
        return m._replace(round=m.round + draw(st.sampled_from([-1, 1])))
    bit, digest = m.value[0], m.value[1:]
    if kind in ("digest", "bit_and_digest"):
        if kind == "bit_and_digest":
            bit = 1 - bit
        return m._replace(value=bytes([bit]) + draw(hash32.filter(lambda d: d != digest)))
    if kind == "bit":
        return m._replace(value=bytes([1 - bit]) + digest)
    if kind == "credential":  # names another user or another step
        field = draw(st.sampled_from(["user", "step"]))
        return m._replace(credential=m.credential._replace(
            **{field: getattr(m.credential, field) + 1}))
    if kind == "credential_sig":
        return m._replace(credential=m.credential._replace(sig=flip(m.credential.sig)))
    if kind == "sig":
        return m._replace(sig=flip(m.sig))
    if kind == "step_zero":
        return signed_message(chain, block, m.voter, 0)
    if kind == "step_high":
        return signed_message(chain, block, m.voter,
                              params.max_step + draw(st.integers(1, 2)))
    if kind == "ineligible":
        return signed_message(chain, block, OUTSIDER, m.step)
    holders = sorted(users_at(chain, block.round - params.lookback))
    if kind == "unselected":
        left_out = sorted(set(holders) - set(selected(chain, block, m.step)))
        return (signed_message(chain, block, draw(st.sampled_from(left_out)), m.step)
                if left_out else m)
    assert kind == "other_step"  # a real member of another step's committee
    step = draw(st.integers(2, params.max_step).filter(lambda s: s != m.step))
    members = selected(chain, block, step)
    return (signed_message(chain, block, draw(st.sampled_from(members)), step)
            if members else m)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_validate_block_reports_what_per_message_checks_report(certified, data):
    chain, params = certified, CERT_RUN.params
    block = chain.blocks[data.draw(st.integers(params.lookback, chain.tip_round),
                                   label="round")]
    assert validate_block(chain, block) == []
    cert = list(block.cert)
    for kind in data.draw(st.lists(st.sampled_from(CERT_MUTATIONS), max_size=6),
                          label="mutations"):
        k = data.draw(st.integers(0, len(cert) - 1))
        if kind == "duplicate":
            cert.insert(data.draw(st.integers(0, len(cert))), cert[k])
        else:
            cert[k] = mutated_message(chain, block, cert[k], kind, data.draw,
                                      params)
    mutated = block.with_cert(data.draw(st.permutations(cert), label="order"))
    found = validate_block(chain, mutated)
    assert found == reference_cert_violations(chain, mutated, params, chain.registry)
    # a message with both its bit and its digest wrong is a wrong digest
    bit, digest = 1 if block.is_empty() else 0, block_hash(block)
    for m in mutated.cert:
        if m.round == block.round and m.value[0] != bit and m.value[1:] != digest:
            assert f"cert message from user {m.voter}: wrong block digest" in found


def test_bootstrap_cert_messages_are_reported(certified):
    # before the lookback horizon nobody is eligible, so even a message with
    # the voter's real credential and signature is reported; only the
    # certificate threshold is waived there
    chain = certified
    block = chain.blocks[1]
    assert block.round < CERT_RUN.params.lookback
    assert validate_block(chain, block) == []
    voters = sorted(users_at(chain, 0))[:2]
    cert = [signed_message(chain, block, u, 2) for u in voters]
    assert validate_block(chain, block.with_cert(cert)) == [
        f"cert message from user {u}: credential invalid (not-eligible)"
        for u in voters]


@pytest.fixture(scope="module")
def honest_cfg_chain():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    chains, _ = run_scenario(load_config(str(fixtures / "honest.cfg")))
    return chains[0]


def forged_round_2(chain, kind):
    """The honest round-2 block with its `seed` or `prev_hash` flipped, or
    with one validly signed payment in its payset."""
    honest = chain.blocks[2]
    if kind == "payment":
        payer, payee = sorted(users_at(chain, 1))[:2]
        payment = make_payment(chain.registry, payer, payee, 1, 2)
        return Block(2, (payment,), honest.seed, honest.prev_hash, ())
    return honest._replace(**{kind: flip(getattr(honest, kind))})


@pytest.mark.parametrize("kind, violation", [
    ("seed", "seed rule violated for empty block"),
    ("prev_hash", "previous-block hash mismatch"),
    ("payment", "non-empty block before the lookback horizon"),
])
def test_forged_bootstrap_block_gives_its_one_violation(honest_cfg_chain, kind,
                                                        violation):
    # rounds below `lookback` carry no certificate, so the rule check is the
    # only guard: each forged block breaks one rule, and only that one
    chain = honest_cfg_chain
    assert 2 < chain.params.lookback and chain.blocks[2].is_empty()
    forged = chain.prefix(2)
    forged.append(forged_round_2(chain, kind))
    assert verify_chain(forged) == [(2, violation)]


def test_block_past_the_prefix_has_no_validated_predecessor(honest_cfg_chain):
    chain = honest_cfg_chain
    assert validate_block(chain.prefix(2), chain.blocks[4]) == [
        "round 4 has no validated predecessor"]


def test_an_eligible_voter_the_registry_does_not_know_raises():
    # users 7 and 8 hold money but are unregistered, so sortition cannot
    # recompute their credentials; which of them the text names is not pinned
    registry = make_registry(users=range(1, 7))
    params = ProtocolParams(leader_prob=0.5, verifier_prob=0.5, lookback=3,
                            max_ba_steps=2, cert_threshold=1, horizon=16)
    chain = idle_chain(registry, {u: 100 for u in range(1, 9)}, 6, params)
    prev = chain.tip()
    block = next_block(prev)
    junk = b"\x01" * 32
    cert = [cert_vote(u, 7, 2, 1, block_hash(block), junk, Credential(u, 7, 2, junk))
            for u in (1, 7, 8)]
    with pytest.raises(UnknownUserError):
        validate_block(chain, block.with_cert(cert))


def test_cert_check_selects_through_the_one_kernel(certified, monkeypatch):
    # a cert voter that `select_committee` leaves out is not selected, even
    # with a genuine credential: the check recomputes committees through it
    chain, params = certified, CERT_RUN.params
    block = chain.blocks[params.lookback + 1]
    prev_seed = chain.blocks[block.round - 1].seed
    leader = view_leader(block.round, prev_seed, chain)
    dropped = next(m.voter for m in block.cert if m.voter != leader)
    real = sortition.select_committee

    def without_dropped(*args):
        return [c for c in real(*args) if c.user != dropped]

    monkeypatch.setattr(sortition, "select_committee", without_dropped)
    found = validate_block(chain, block)
    assert [v for v in found if v.startswith("cert message")] == [
        f"cert message from user {dropped}: credential invalid (not-selected)"]


def test_cert_check_builds_one_credential_message_per_step(certified, monkeypatch):
    # a certificate of N messages over k steps makes k credential messages,
    # not N, plus the leader sweep's one for a non-empty block
    chain, params = certified, CERT_RUN.params
    block = chain.blocks[params.lookback + 1]
    other = 2 if block.cert[0].step != 2 else 3
    # half the voters that also sit on the `other` committee sign there
    both = sorted({m.voter for m in block.cert}
                  & set(selected(chain, block, other)))
    moved = both[:max(1, len(both) // 2)]
    mixed = block.with_cert([signed_message(chain, block, m.voter, other)
                             if m.voter in moved else m for m in block.cert])
    steps = {m.step for m in mixed.cert}
    assert len(steps) == 2 < len(mixed.cert)

    real, calls = sortition.credential_message, []

    def counted(round, step, prev_seed):
        calls.append((round, step))
        return real(round, step, prev_seed)

    monkeypatch.setattr(sortition, "credential_message", counted)
    assert validate_block(chain, mixed) == []
    leader_sweep = [] if block.is_empty() else [(block.round, 1)]
    assert sorted(calls) == sorted(leader_sweep + [(block.round, s) for s in steps])
