from collections import defaultdict, namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algosim.consensus import (
    GradedValue,
    ProtocolInconsistencyError,
    ba_output,
    bba,
    bba_transition,
    coin_bit,
    gc_grade,
    propose,
    supermajority_value,
    vote,
)
from algosim.crypto import KeyDestroyedError, KeyState
from algosim.ledger import (
    block_hash,
    build_payset,
    cert_payload,
    empty_block,
    make_payment,
    validate_block,
)
from algosim.sortition import ProtocolParams, view_credential, view_leader

from conftest import idle_chain, key_records, make_registry

Vote = namedtuple("Vote", "voter value")

# key policies of `vote`: every member alike
HONEST = defaultdict(lambda: "honest")
RETAIN = defaultdict(lambda: "retain")

N = 12
ROUND = 5


def fixed_committee(inputs):
    """vote_step of an honest committee: step 4 votes `inputs`, every later
    step votes the shared bit."""
    def vote_step(step, bit):
        bits = list(inputs) if bit is None else [bit] * len(inputs)
        zeros = bits.count(0)
        return zeros, len(bits) - zeros, len(bits)
    return vote_step


def agreement_value(votes, n2, prev_seed, max_ba_steps):
    """The digest the relay/grade/agreement pipeline finalizes from a step-2
    vote multiset with honest committees of seven; None for the empty block."""
    relayed = supermajority_value(votes, n2)
    relays = [Vote(u, relayed) for u in range(7)] if relayed is not None else []
    graded = gc_grade(relays, 7)
    bits = [0 if graded.grade == 2 else 1] * 7
    bit, _ = bba(fixed_committee(bits), prev_seed, max_ba_steps)
    return ba_output(graded, bit)


@pytest.fixture
def env():
    params = ProtocolParams(leader_prob=1.0, verifier_prob=1.0, lookback=3,
                            max_ba_steps=9, cert_threshold=4, horizon=64)
    registry = make_registry(seed=21, users=range(1, N + 1))
    chain = idle_chain(registry, {u: 100 for u in range(1, N + 1)}, ROUND - 1)
    return registry, chain, params


def lead_cred(env, user):
    registry, chain, params = env
    return view_credential(user, ROUND, 1, chain.tip().seed, chain, params,
                           registry)


def verf_cred(env, user, step):
    registry, chain, params = env
    return view_credential(user, ROUND, step, chain.tip().seed, chain,
                           params, registry)


def payset_of(env, pending):
    registry, chain, _ = env
    return build_payset(pending, chain.status_entering(ROUND), registry)


def round_leader(env):
    registry, chain, params = env
    return view_leader(ROUND, chain.tip().seed, chain, params, registry)


def cert_of(env, block, users, step=4):
    """Cert votes of `users` for `block`, signed at `step` under the retain
    policy so one fixture can certify several blocks."""
    payload = cert_payload(1 if block.is_empty() else 0, block_hash(block))
    return vote([verf_cred(env, u, step) for u in users], payload, env[0],
                RETAIN)


def violations(env, block, cert):
    registry, chain, params = env
    return validate_block(chain, block.with_cert(cert), params, registry)


class TestPropose:
    def check_signed(self, env, msg):
        registry = env[0]
        assert registry.verify_ephemeral(msg.credential.user, ROUND, 1,
                                         block_hash(msg.block), msg.block_sig)
        assert not registry.verify_ephemeral(msg.credential.user, ROUND, 2,
                                             block_hash(msg.block), msg.block_sig)

    def test_empty_pending(self, env):
        registry, chain, params = env
        msg = propose(lead_cred(env, 1), payset_of(env, []), chain, registry)
        assert msg.block.payset == ()
        assert msg.block.round == ROUND
        prev = chain.tip()
        assert msg.block == empty_block(ROUND, prev.seed, block_hash(prev))
        self.check_signed(env, msg)
        assert violations(env, msg.block, cert_of(env, msg.block, range(1, 5))) == []

    def test_invalid_payment_excluded_rest_kept(self, env):
        registry, chain, params = env
        good1 = make_payment(registry, 1, 2, 5, ROUND)
        bad = make_payment(registry, 3, 2, 5, ROUND + 1)  # wrong-round signature
        good2 = make_payment(registry, 4, 2, 5, ROUND)
        payset = payset_of(env, [good1, bad, good2])
        assert payset == (good1, good2)
        msg = propose(lead_cred(env, round_leader(env)), payset, chain, registry)
        assert msg.block.payset == (good1, good2)
        self.check_signed(env, msg)
        assert violations(env, msg.block, cert_of(env, msg.block, range(1, 5))) == []

    def test_overdraft_skipped_later_payment_applies(self, env):
        registry, _, _ = env
        first = make_payment(registry, 1, 2, 60, ROUND)
        overdraft = make_payment(registry, 1, 3, 60, ROUND)  # 40 left
        smaller = make_payment(registry, 1, 3, 40, ROUND)
        assert payset_of(env, [first, overdraft, smaller]) == (first, smaller)

    def test_only_the_leaders_block_validates(self, env):
        # every potential leader proposes over the same payset; the engine
        # carries the smallest-credential proposal, and the validator's seed
        # rule accepts that one block only
        registry, chain, params = env
        payset = payset_of(env, [make_payment(registry, 1, 2, 5, ROUND)])
        proposals = [propose(lead_cred(env, u), payset, chain, registry)
                     for u in range(1, N + 1)]
        best = min(proposals, key=lambda p: (p.credential.unit, p.credential.user))
        assert best.credential.user == round_leader(env)
        for p in proposals:
            found = violations(env, p.block, cert_of(env, p.block, range(1, 5)))
            if p is best:
                assert found == []
            else:
                assert found == ["seed rule violated for non-empty block"]

    def test_honest_policy_destroys_key(self, env):
        registry, chain, params = env
        cred = lead_cred(env, 2)
        propose(cred, (), chain, registry, policy="honest")
        with pytest.raises(KeyDestroyedError):
            propose(cred, (), chain, registry, policy="honest")

    def test_retain_policy_allows_reuse(self, env):
        registry, chain, params = env
        cred = lead_cred(env, 3)
        first = propose(cred, (), chain, registry, policy="retain")
        second = propose(cred, (), chain, registry, policy="retain")
        assert first == second


@pytest.mark.parametrize("step, value", [
    (2, b"\x11" * 32), (3, b"\x11" * 32), (4, bytes([0]))])
def test_vote_is_signed_for_its_step(env, step, value):
    registry, _, _ = env
    cred = verf_cred(env, 2, step)
    [ballot] = vote([cred], value, registry, HONEST)
    assert (ballot.voter, ballot.round, ballot.step) == (2, ROUND, step)
    assert ballot.value == value
    assert registry.verify_ephemeral(2, ROUND, step, value, ballot.sig)
    with pytest.raises(KeyDestroyedError):
        vote([cred], value, registry, HONEST)


@pytest.mark.parametrize("kind, step", [("propose", 1), ("vote", 2), ("cert", 4)])
def test_honest_signing_stores_no_key_record(env, kind, step):
    # signing retires the key in the same call; an honest key leaves one bit
    registry, chain, _ = env
    for u in range(1, N + 1):
        if kind == "propose":
            propose(lead_cred(env, u), (), chain, registry)
        elif kind == "vote":
            vote([verf_cred(env, u, step)], b"\x11" * 32, registry, HONEST)
        else:
            vote([verf_cred(env, u, step)], cert_payload(0, b"\x11" * 32),
                 registry, HONEST)
        assert registry.ephemeral_state(u, ROUND, step) is KeyState.DESTROYED
    assert key_records(registry) == []
    assert registry.retained_records() == []


def test_retained_signing_stores_one_record_per_key(env):
    registry, _, _ = env
    for u in range(1, N + 1):
        vote([verf_cred(env, u, 2)], b"\x11" * 32, registry, RETAIN)
    records = registry.retained_records(ROUND)
    assert [(r.owner, r.step) for r in records] == [(u, 2) for u in range(1, N + 1)]
    assert key_records(registry) == records


class TestGradedConsensus:
    def test_relay_above_two_thirds(self):
        votes = [Vote(i, "x") for i in range(7)] + [Vote(7, "y"), Vote(8, "y")]
        assert supermajority_value(votes, 9) == "x"  # 7 of 9: 21 > 18

    def test_no_relay_at_exact_boundary(self):
        votes = [Vote(i, "x") for i in range(6)]
        assert supermajority_value(votes, 9) is None  # 6 of 9: 18 > 18 fails

    def test_duplicate_votes_count_once(self):
        votes = [Vote(i % 5, "x") for i in range(7)]  # 5 distinct voters
        assert supermajority_value(votes, 9) is None

    def test_grade_two(self):
        relays = [Vote(i, "x") for i in range(7)]
        assert gc_grade(relays, 9) == GradedValue("x", 2)

    def test_grade_one(self):
        relays = [Vote(i, "x") for i in range(4)]
        assert gc_grade(relays, 9) == GradedValue("x", 1)

    def test_grade_zero(self):
        relays = [Vote(i, "x") for i in range(2)]
        assert gc_grade(relays, 9) == GradedValue(None, 0)

    def test_boundary_not_grade_two(self):
        relays = [Vote(i, "x") for i in range(6)]
        assert gc_grade(relays, 9) == GradedValue("x", 1)


class TestBinaryAgreement:
    def test_unanimous_zero(self, env):
        _, chain, params = env
        bit, step = bba(fixed_committee([0] * 7), chain.tip().seed,
                        params.max_ba_steps)
        assert bit == 0 and step == 4

    def test_unanimous_one(self, env):
        _, chain, params = env
        bit, step = bba(fixed_committee([1] * 7), chain.tip().seed,
                        params.max_ba_steps)
        assert bit == 1 and step == 5

    def test_mixed_inputs_still_agree(self, env):
        _, chain, params = env
        for ones in range(8):
            inputs = [1 if u <= ones else 0 for u in range(1, 8)]
            bit, _ = bba(fixed_committee(inputs), chain.tip().seed,
                         params.max_ba_steps)
            assert bit in (0, 1)

    def test_exhausted_budget_returns_no_decision(self, env):
        _, chain, params = env
        assert bba(fixed_committee([]), chain.tip().seed,
                   params.max_ba_steps) == (None, params.max_ba_steps + 3)

    def test_transition_thresholds(self):
        # phase 0 decides 0 only above two thirds
        assert bba_transition(7, 2, 9, 0) == (0, 0)
        assert bba_transition(6, 3, 9, 0) == (0, None)
        assert bba_transition(2, 7, 9, 0) == (1, None)
        # phase 1 decides 1
        assert bba_transition(2, 7, 9, 1) == (1, 1)
        assert bba_transition(7, 2, 9, 1) == (0, None)
        assert bba_transition(3, 3, 9, 1) == (1, None)
        # phase 2 falls back to the coin
        assert bba_transition(3, 3, 9, 2, coin=1) == (1, None)
        assert bba_transition(7, 1, 9, 2, coin=1) == (0, None)

    def test_coin_is_deterministic(self):
        seed = b"\x05" * 32
        assert coin_bit(seed, 3) == coin_bit(seed, 3)
        assert coin_bit(seed, 3) in (0, 1)


class TestBaOutput:
    def test_value_on_zero(self):
        assert ba_output(GradedValue(b"x" * 32, 2), 0) == b"x" * 32

    def test_empty_on_one(self):
        assert ba_output(GradedValue(b"x" * 32, 1), 1) is None

    def test_inconsistency_flagged(self):
        with pytest.raises(ProtocolInconsistencyError):
            ba_output(GradedValue(None, 0), 0)


class TestSimpleVote:
    # Each boundary case is also run through the relay/grade/agreement
    # pipeline, which must land on the same value.
    def test_above_threshold(self, env):
        _, chain, params = env
        votes = [Vote(i, "x") for i in range(14)] + [Vote(20 + i, "y")
                                                     for i in range(6)]
        assert supermajority_value(votes, 20) == "x"  # 42 > 40
        assert agreement_value(votes, 20, chain.tip().seed,
                               params.max_ba_steps) == "x"

    def test_boundary(self, env):
        _, chain, params = env
        votes = [Vote(i, "x") for i in range(13)]
        assert supermajority_value(votes, 20) is None  # 39 > 40 fails
        assert agreement_value(votes, 20, chain.tip().seed,
                               params.max_ba_steps) is None

    def test_even_split(self):
        votes = [Vote(i, "x") for i in range(10)] + [Vote(10 + i, "y")
                                                     for i in range(10)]
        assert supermajority_value(votes, 20) is None

    def test_tie_break_with_two_supermajorities(self):
        # With more than n/3 equivocators two values can both clear 2n/3;
        # the one with more distinct voters wins, even with the larger digest,
        # and equal support goes to the smaller digest.
        low, high = b"\x01" * 32, b"\x02" * 32
        votes = [Vote(i, high) for i in range(6)] + [Vote(i, low)
                                                     for i in range(5)]
        assert supermajority_value(votes, 6) == high  # 6 and 5 voters of 6
        votes = [Vote(i, high) for i in range(5)] + [Vote(i + 1, low)
                                                     for i in range(5)]
        assert supermajority_value(votes, 6) == low  # 5 and 5 voters of 6


@given(st.lists(st.tuples(st.integers(0, 9), st.sampled_from("abc"))),
       st.integers(0, 12))
def test_supermajority_matches_brute_force(ballots, n):
    backers = {value: {v for v, x in ballots if x == value}
               for _, value in ballots}
    qualifying = [x for x, voters in backers.items() if 3 * len(voters) > 2 * n]
    expected = None
    if qualifying:
        most = max(len(backers[x]) for x in qualifying)
        expected = min(x for x in qualifying if len(backers[x]) == most)
    votes = [Vote(voter, value) for voter, value in ballots]
    assert supermajority_value(votes, n) == expected


class TestCertificates:
    def test_bits_track_emptiness(self, env):
        # a cert vote signs the bit byte, then the digest (README layout)
        registry, chain, params = env
        digest = b"\x07" * 32
        [m0] = vote([verf_cred(env, 1, 3)], cert_payload(0, digest), registry,
                    HONEST)
        [m1] = vote([verf_cred(env, 2, 3)], cert_payload(1, digest), registry,
                    HONEST)
        assert (m0.value, m1.value) == (b"\x00" + digest, b"\x01" + digest)
        assert registry.verify_ephemeral(1, ROUND, 3, b"\x00" + digest, m0.sig)

    def test_destroyed_key_cannot_certify(self, env):
        registry, chain, params = env
        cred = verf_cred(env, 3, 3)
        payload = cert_payload(0, b"\x07" * 32)
        vote([cred], payload, registry, HONEST)
        with pytest.raises(KeyDestroyedError):
            vote([cred], payload, registry, HONEST)

    # A certificate is whatever the block carries: `validate_block` counts
    # its valid messages from distinct voters against cert_threshold (4).
    @pytest.fixture
    def block(self, env):
        _, chain, _ = env
        return propose(lead_cred(env, 1), (), chain, env[0]).block

    def test_threshold_met(self, env, block):
        assert violations(env, block, cert_of(env, block, range(1, 5))) == []

    def test_threshold_boundary(self, env, block):
        assert violations(env, block, cert_of(env, block, range(1, 4))) == [
            "insufficient certificates: have 3, need 4"]

    def test_duplicate_voter_not_counted(self, env, block):
        cert = cert_of(env, block, range(1, 5))
        cert[3] = cert[0]  # only 3 distinct voters remain
        assert violations(env, block, cert) == [
            "cert message from user 1: duplicate voter",
            "insufficient certificates: have 3, need 4"]

    def test_bit_must_match_emptiness(self, env, block):
        # correctly signed, but the signers called an empty block non-empty
        registry = env[0]
        cert = vote([verf_cred(env, u, 4) for u in range(1, 5)],
                    cert_payload(0, block_hash(block)), registry, HONEST)
        assert violations(env, block, cert)[0] == \
            "cert message from user 1: bit does not match block emptiness"

    def test_wrong_digest_rejected(self, env, block):
        other = propose(lead_cred(env, round_leader(env)),
                        payset_of(env, [make_payment(env[0], 1, 2, 5, ROUND)]),
                        env[1], env[0]).block
        found = violations(env, block, cert_of(env, other, range(1, 5)))
        assert found[-1] == "insufficient certificates: have 0, need 4"
        assert all("wrong block digest" in v for v in found[:-1])


def test_equivocation_cannot_double_finalize():
    # two Byzantine voters show opposite votes to two honest observers; no
    # pair of views may finalize different values
    n = 7  # committee size; 5 honest voters, 2 equivocators
    honest = [Vote(1, "A"), Vote(2, "A"), Vote(3, "A"), Vote(4, "B"), Vote(5, "B")]
    view_a = honest + [Vote(6, "A"), Vote(7, "A")]
    view_b = honest + [Vote(6, "B"), Vote(7, "B")]
    result_a = supermajority_value(view_a, n)
    result_b = supermajority_value(view_b, n)
    assert result_a == "A"  # 5 of 7 distinct voters clears the threshold
    assert result_b is None  # 4 of 7 does not
    assert not (result_a and result_b and result_a != result_b)


def test_agreement_implies_simple_vote_on_small_instances(env):
    # Exhaustive small-instance enumeration: every vote split over two candidate
    # values, run through the relay/grade/agreement pipeline with honest
    # committees, must land exactly where the simple majority rule lands.
    registry, chain, params = env
    prev_seed = chain.tip().seed
    for n2 in range(1, 8):
        for a in range(n2 + 1):
            for b in range(n2 + 1 - a):
                votes = [Vote(i, "A") for i in range(a)]
                votes += [Vote(a + i, "B") for i in range(b)]
                assert agreement_value(votes, n2, prev_seed,
                                       params.max_ba_steps) == \
                    supermajority_value(votes, n2)
