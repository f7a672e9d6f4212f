from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algosim.consensus import (
    GradedValue,
    Proposal,
    agree,
    bba_transition,
    cast,
    certify,
    coin_bit,
    gc_grade,
    propose_phase,
    supermajority_value,
    vote,
)
from algosim.crypto import KeyDestroyedError, KeyState
from algosim.ledger import (
    block_hash,
    build_payset,
    cert_payload,
    make_payment,
    next_block,
    validate_block,
    view_leader,
)
from algosim.sortition import ProtocolParams

from conftest import idle_chain, key_rows, make_registry, view_credential

Vote = namedtuple("Vote", "voter value")

N = 12
ROUND = 5


class FixedCommittee:
    """A step primitive for `agree` over honest committees.  Step 3 has seven
    members and delivers `relays` relays of its value (none when the step is
    silent); step 4 delivers the bits `inputs`, and every later step the bit
    it is given from each of len(inputs) members.  With `inputs` None every
    step from 4 on has seven members voting the bit they are given.  `calls`
    records each (step, value)."""

    def __init__(self, inputs=None, relays=7):
        self.inputs = inputs
        self.relays = relays
        self.calls = []

    def __call__(self, s, value, sign=None):
        self.calls.append((s, value))
        if s == 3:
            relays = [] if value is None else [Vote(u, value)
                                               for u in range(self.relays)]
            return list(range(7)), relays
        if s == 4 and self.inputs is not None:
            bits = list(self.inputs)
        else:
            bits = [value[0]] * (7 if self.inputs is None else len(self.inputs))
        return list(range(len(bits))), [Vote(u, bytes([b]))
                                        for u, b in enumerate(bits)]


def agreement_value(votes, n2, prev_seed, max_ba_steps):
    """The digest `agree` finalizes from a step-2 vote multiset with honest
    committees of seven; None for the empty block."""
    majority = supermajority_value(votes, n2)
    return agree(FixedCommittee(), majority, prev_seed, max_ba_steps).value


@pytest.fixture
def env():
    params = ProtocolParams(leader_prob=1.0, verifier_prob=1.0, lookback=3,
                            max_ba_steps=9, cert_threshold=4, horizon=64)
    registry = make_registry(seed=21, users=range(1, N + 1))
    chain = idle_chain(registry, {u: 100 for u in range(1, N + 1)}, ROUND - 1,
                       params)
    return registry, chain, params


def lead_cred(env, user):
    chain = env[1]
    return view_credential(user, ROUND, 1, chain.tip().seed, chain)


def verf_cred(env, user, step):
    chain = env[1]
    return view_credential(user, ROUND, step, chain.tip().seed, chain)


def payset_of(env, pending):
    registry, chain, _ = env
    return build_payset(pending, chain.status_entering(ROUND), registry)[0]


def round_leader(env):
    chain = env[1]
    return view_leader(ROUND, chain.tip().seed, chain)


def cert_of(env, block, users, step=4):
    """Cert votes of `users` for `block`, signed at `step`; the users become
    key keepers, so one fixture can certify several blocks."""
    payload = cert_payload(1 if block.is_empty() else 0, block_hash(block))
    env[0].keep_keys(users)
    return vote([verf_cred(env, u, step) for u in users], payload, env[0])


def violations(env, block, cert):
    chain = env[1]
    return validate_block(chain, block.with_cert(cert))


class CommitteeStep:
    """A step primitive over fixed committees: the users `committees[s]` sign
    through the phase's `sign`, which destroys their keys, and the step delivers
    what they signed.  `signers` records who signed at each step run."""

    def __init__(self, env, committees):
        self.registry = env[0]
        self.committees = {s: [verf_cred(env, u, s) for u in users]
                           for s, users in committees.items()}
        self.signers = {}

    def __call__(self, s, value, sign=vote):
        members = self.committees.get(s, [])
        messages = sign(members, value, self.registry)
        self.signers[s] = [m.credential.user for m in messages]
        return members, messages


class TestPropose:
    def test_empty_pending(self, env):
        registry, chain, params = env
        block = next_block(chain.tip(), payset_of(env, []), registry, 1)
        assert block.payset == ()
        assert block.round == ROUND
        assert block == next_block(chain.tip())
        assert violations(env, block, cert_of(env, block, range(1, 5))) == []

    def test_invalid_payment_excluded_rest_kept(self, env):
        registry, chain, params = env
        good1 = make_payment(registry, 1, 2, 5, ROUND)
        bad = make_payment(registry, 3, 2, 5, ROUND + 1)  # wrong-round signature
        good2 = make_payment(registry, 4, 2, 5, ROUND)
        payset = payset_of(env, [good1, bad, good2])
        assert payset == (good1, good2)
        block = next_block(chain.tip(), payset, registry, round_leader(env))
        assert block.payset == (good1, good2)
        assert violations(env, block, cert_of(env, block, range(1, 5))) == []

    def test_overdraft_skipped_later_payment_applies(self, env):
        registry, _, _ = env
        first = make_payment(registry, 1, 2, 60, ROUND)
        overdraft = make_payment(registry, 1, 3, 60, ROUND)  # 40 left
        smaller = make_payment(registry, 1, 3, 40, ROUND)
        assert payset_of(env, [first, overdraft, smaller]) == (first, smaller)

    def test_only_the_leaders_block_validates(self, env):
        # any potential leader could build a block over the same payset; the
        # validator's seed rule accepts the smallest credential's block only
        registry, chain, params = env
        payset = payset_of(env, [make_payment(registry, 1, 2, 5, ROUND)])
        creds = [lead_cred(env, u) for u in range(1, N + 1)]
        best = min(creds, key=lambda c: (c.unit, c.user)).user
        assert best == round_leader(env)
        for u in range(1, N + 1):
            block = next_block(chain.tip(), payset, registry, u)
            found = violations(env, block, cert_of(env, block, range(1, 5)))
            if u == best:
                assert found == []
            else:
                assert found == ["seed rule violated for non-empty block"]

    def test_phase_leader_holds_the_smallest_credential(self, env):
        registry, chain, _ = env
        payset = payset_of(env, [make_payment(registry, 1, 2, 5, ROUND)])
        step = CommitteeStep(env, {1: range(1, N + 1)})
        proposal = propose_phase(step, payset, chain)
        leaders = step.committees[1]
        assert proposal.leaders == leaders
        best = min(leaders, key=lambda c: (c.unit, c.user))
        assert proposal.leader == best.user
        assert proposal.block.payset == payset
        # the seed rule accepts only the leader's own block
        assert violations(env, proposal.block,
                          cert_of(env, proposal.block, range(1, 5))) == []

    def test_phase_spends_every_potential_leaders_key(self, env):
        # only the leader's message carries a block; every key is spent
        registry, chain, _ = env
        step, delivered = CommitteeStep(env, {1: range(1, N + 1)}), []

        def recording(s, value, sign=vote):
            committee, messages = step(s, value, sign)
            delivered.extend(messages)
            return committee, messages

        proposal = propose_phase(recording, (), chain)
        assert step.signers[1] == list(range(1, N + 1))
        assert [(m.credential.user, m.block) for m in delivered
                if m.block is not None] == [(proposal.leader, proposal.block)]
        assert {registry.ephemeral_state(u, ROUND, 1)
                for u in range(1, N + 1)} == {KeyState.DESTROYED}

    def test_phase_without_potential_leaders(self, env):
        proposal = propose_phase(CommitteeStep(env, {}), (), env[1])
        assert proposal == Proposal([], None, None)

    def test_honest_policy_destroys_key(self, env):
        registry, chain, params = env
        step = CommitteeStep(env, {1: [2]})
        propose_phase(step, (), chain)
        with pytest.raises(KeyDestroyedError):
            propose_phase(step, (), chain)
        assert registry.ephemeral_state(2, ROUND, 1) is KeyState.DESTROYED

    def test_retain_policy_allows_reuse(self, env):
        registry, chain, params = env
        payset = payset_of(env, [make_payment(registry, 1, 2, 5, ROUND)])
        step = CommitteeStep(env, {1: [3]})
        registry.keep_keys([3])
        first = propose_phase(step, payset, chain)
        second = propose_phase(step, payset, chain)
        assert first == second and first.leader == 3
        assert registry.ephemeral_state(3, ROUND, 1) is KeyState.RETAINED


@pytest.mark.parametrize("step, value", [
    (2, b"\x11" * 32), (3, b"\x11" * 32), (4, bytes([0]))])
def test_vote_is_signed_for_its_step(env, step, value):
    registry, _, _ = env
    cred = verf_cred(env, 2, step)
    [ballot] = vote([cred], value, registry)
    assert (ballot.voter, ballot.round, ballot.step) == (2, ROUND, step)
    assert ballot.value == value
    assert registry.verify_ephemeral_many([(2, ballot.sig)], ROUND, step, value)[0]
    with pytest.raises(KeyDestroyedError):
        vote([cred], value, registry)


@pytest.mark.parametrize("keeper", [False, True])
@pytest.mark.parametrize("step, value", [(2, b"\x11" * 32), (4, bytes([0]))])
def test_cast_spends_the_key_and_signs_nothing(env, step, value, keeper):
    registry, _, _ = env
    cred = verf_cred(env, 2, step)
    if keeper:
        registry.keep_keys([2])
    [ballot] = cast([cred], value, registry)
    assert ballot == (2, ROUND, step, value, None, cred)
    assert registry.ephemeral_state(2, ROUND, step) is (
        KeyState.RETAINED if keeper else KeyState.DESTROYED)
    if keeper:  # a retained key can be spent again
        assert cast([cred], value, registry) == [ballot]
    else:
        with pytest.raises(KeyDestroyedError):
            cast([cred], value, registry)


@pytest.mark.parametrize("kind, step", [("propose", 1), ("vote", 2), ("cert", 4)])
def test_honest_signing_stores_no_key_record(env, kind, step):
    # signing retires the key in the same call; an honest key leaves one bit
    registry, chain, _ = env
    for u in range(1, N + 1):
        if kind == "propose":
            propose_phase(CommitteeStep(env, {1: [u]}), (), chain)
        elif kind == "vote":
            vote([verf_cred(env, u, step)], b"\x11" * 32, registry)
        else:
            vote([verf_cred(env, u, step)], cert_payload(0, b"\x11" * 32),
                 registry)
        assert registry.ephemeral_state(u, ROUND, step) is KeyState.DESTROYED
    assert key_rows(registry)[1] == {}  # no retained row
    assert registry.retained_records() == []


def test_retained_signing_lists_one_record_per_key(env):
    # the registry holds one retained mask for the step, a bit per key, and
    # lists a record for each key
    registry, _, _ = env
    registry.keep_keys(range(1, N + 1))
    for u in range(1, N + 1):
        vote([verf_cred(env, u, 2)], b"\x11" * 32, registry)
    records = registry.retained_records(ROUND)
    assert [(r.owner, r.step) for r in records] == [(u, 2) for u in range(1, N + 1)]
    assert key_rows(registry) == ({}, {ROUND: (0, 2**N - 1)})


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


DIGEST = b"\x11" * 32


def agree_on(env, inputs=None, majority=DIGEST, relays=7):
    _, chain, params = env
    return agree(FixedCommittee(inputs, relays), majority, chain.tip().seed,
                 params.max_ba_steps)


class TestBinaryAgreement:
    def test_unanimous_zero(self, env):
        result = agree_on(env, [0] * 7)
        assert result.decided == 0 and result.tallies == ((7, 0, 7),)

    def test_unanimous_one(self, env):
        result = agree_on(env, [1] * 7)
        assert result.decided == 1
        assert result.tallies == ((0, 7, 7), (0, 7, 7))

    def test_mixed_inputs_still_agree(self, env):
        for ones in range(8):
            inputs = [1 if u <= ones else 0 for u in range(1, 8)]
            result = agree_on(env, inputs)
            assert result.decided in (0, 1) and result.flags == ()

    def test_exhausted_budget_returns_no_decision(self, env):
        # an empty committee never clears a threshold: the budget runs out,
        # and the round falls back to the empty block
        _, _, params = env
        result = agree_on(env, [])
        assert result.tallies == ((0, 0, 0),) * params.max_ba_steps
        assert (result.decided, result.value) == (1, None)
        assert result.flags == ("no-termination",)

    def test_silent_relay_starts_at_one(self, env):
        # no step-2 majority: step 3 signs nothing, nothing is graded, and
        # binary agreement starts from bit 1 (the empty block)
        stub = FixedCommittee()
        _, chain, params = env
        result = agree(stub, None, chain.tip().seed, params.max_ba_steps)
        assert stub.calls[:2] == [(3, None), (4, b"\x01")]
        assert result.graded == GradedValue(None, 0)
        assert (result.decided, result.value, result.flags) == (1, None, ())

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

    def test_transition_refuses_a_missing_coin_and_an_unknown_phase(self):
        with pytest.raises(ValueError, match="phase 2 requires the iteration coin"):
            bba_transition(3, 3, 9, 2)
        with pytest.raises(ValueError, match="invalid phase 3"):
            bba_transition(3, 3, 9, 3, coin=0)

    def test_coin_is_deterministic(self):
        seed = b"\x05" * 32
        assert coin_bit(seed, 3) == coin_bit(seed, 3)
        assert coin_bit(seed, 3) in (0, 1)


class TestBaOutput:
    def test_value_on_zero(self, env):
        result = agree_on(env)
        assert result.graded == GradedValue(DIGEST, 2)
        assert (result.decided, result.value) == (0, DIGEST)

    def test_empty_on_one(self, env):
        # four relays of seven grade the value 1: agreement starts from 1
        result = agree_on(env, relays=4)
        assert result.graded == GradedValue(DIGEST, 1)
        assert (result.decided, result.value, result.flags) == (1, None, ())

    def test_inconsistency_flagged(self, env):
        # nothing relayed, yet the BBA voters vote 0: a 0 decision with no
        # graded value
        result = agree_on(env, [0] * 7, relays=0)
        assert result.graded == GradedValue(None, 0)
        assert (result.decided, result.value) == (0, None)
        assert result.flags == ("ba-inconsistency",)


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
        [m0] = vote([verf_cred(env, 1, 3)], cert_payload(0, digest), registry)
        [m1] = vote([verf_cred(env, 2, 3)], cert_payload(1, digest), registry)
        assert (m0.value, m1.value) == (b"\x00" + digest, b"\x01" + digest)
        assert registry.verify_ephemeral_many([(1, m0.sig)], ROUND, 3,
                                              b"\x00" + digest)[0]

    def test_destroyed_key_cannot_certify(self, env):
        registry, chain, params = env
        cred = verf_cred(env, 3, 3)
        payload = cert_payload(0, b"\x07" * 32)
        vote([cred], payload, registry)
        with pytest.raises(KeyDestroyedError):
            vote([cred], payload, registry)

    # A certificate is whatever the block carries: `validate_block` counts
    # its valid messages from distinct voters against cert_threshold (4).
    @pytest.fixture
    def block(self, env):
        _, chain, _ = env
        return next_block(chain.tip())

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
                    cert_payload(0, block_hash(block)), registry)
        assert violations(env, block, cert)[0] == \
            "cert message from user 1: bit does not match block emptiness"

    def test_wrong_digest_rejected(self, env, block):
        other = next_block(env[1].tip(),
                           payset_of(env, [make_payment(env[0], 1, 2, 5, ROUND)]),
                           env[0], round_leader(env))
        found = violations(env, block, cert_of(env, other, range(1, 5)))
        assert found[-1] == "insufficient certificates: have 0, need 4"
        assert all("wrong block digest" in v for v in found[:-1])


class TestCertify:
    PAYLOAD = cert_payload(0, b"\x07" * 32)
    COMMITTEES = {4: [1, 2], 5: [2, 3, 4], 6: [5, 6]}

    def test_stops_at_threshold_without_re_signing(self, env):
        step = CommitteeStep(env, self.COMMITTEES)
        cert = certify(step, self.PAYLOAD, 4, 6, 4)
        # user 2 certified at step 4 and stays silent at step 5
        assert step.signers == {4: [1, 2], 5: [3, 4]}
        assert [(m.voter, m.step) for m in cert] == [(1, 4), (2, 4), (3, 5),
                                                     (4, 5)]
        assert all(m.value == self.PAYLOAD for m in cert)

    def test_unreachable_threshold_returns_none(self, env):
        step = CommitteeStep(env, self.COMMITTEES)
        assert certify(step, self.PAYLOAD, 4, 6, 7) is None
        assert step.signers == {4: [1, 2], 5: [3, 4], 6: [5, 6]}


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
