import hashlib
import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import algosim.sortition as sortition
from algosim.crypto import ZERO_DIGEST, _ephemeral_sig, be8, hash_to_unit
from algosim.ledger import Vote, cert_payload, check_cert, users_at, view_leader
from algosim.sortition import (
    Credential,
    ProtocolParams,
    credential_message,
    default_cert_threshold,
    select_committee,
    select_leader,
    selection_bound,
    selection_limit,
)

from conftest import (
    idle_chain,
    make_registry,
    view_committee,
    view_credential,
    with_params,
)

N = 100


@pytest.fixture
def env():
    registry = make_registry(seed=11, users=range(1, N + 1))
    chain = idle_chain(registry, {u: 100 for u in range(1, N + 1)}, 6)
    return registry, chain


def params_with(p=0.05, p2=0.2):
    return ProtocolParams(leader_prob=p, verifier_prob=p2, lookback=3,
                          max_ba_steps=9, cert_threshold=5, horizon=64)


def check_credential(cred, prev_seed, chain):
    """Why `ledger.check_cert` rejects `cred` as the credential of a
    one-message certificate (None where it accepts it): the reason inside
    its `credential invalid (...)`.  The message is otherwise sound, with
    the voter's real ephemeral signature."""
    user, round, step, _ = cred
    payload = cert_payload(0, ZERO_DIGEST)
    sig = _ephemeral_sig(chain.registry._head, user, be8(round) + be8(step), payload)
    [reason] = check_cert([Vote(user, round, step, payload, sig, cred)], round,
                          ZERO_DIGEST, 0, prev_seed, chain)
    if reason is None:
        return None
    assert reason.startswith("credential invalid (") and reason.endswith(")")
    return reason[len("credential invalid ("):-1]


def test_default_cert_threshold():
    assert default_cert_threshold(20) == 14
    assert default_cert_threshold(10) == 7
    assert default_cert_threshold(1) == 1


def test_saturated_threshold_selects_everyone(env):
    registry, chain = env
    params = params_with(p=1.0, p2=1.0)
    chain = with_params(chain, params)
    prev_seed = chain.blocks[4].seed
    leaders = select_committee(5, 1, prev_seed, range(1, N + 1), params,
                               registry)
    assert [c.user for c in leaders] == list(range(1, N + 1))
    assert len(view_committee(5, 2, prev_seed, chain)) == N


def test_zero_threshold_selects_nobody(env):
    registry, chain = env
    params = params_with(p=0.0, p2=0.0)
    chain = with_params(chain, params)
    prev_seed = chain.blocks[4].seed
    assert select_committee(5, 1, prev_seed, range(1, N + 1), params,
                            registry) == []
    assert view_committee(5, 2, prev_seed, chain) == []


def test_selection_matches_independent_enumeration(env):
    # Brute-force oracle: recompute every user's hash fraction with hashlib
    # alone and compare the selected sets.
    registry, chain = env
    params = params_with(p=0.05)
    prev_seed = chain.blocks[4].seed
    selected = {c.user for c in select_committee(5, 1, prev_seed, range(1, N + 1),
                                                 params, registry)}

    oracle = set()
    run_master = hashlib.sha256(b"SEED" + be8(11)).digest()
    for u in range(1, N + 1):
        lt_seed = hashlib.sha256(b"LTSK" + run_master + be8(u)).digest()
        msg = b"LEAD" + be8(5) + be8(1) + prev_seed
        sig = hashlib.sha256(lt_seed + msg).digest()
        frac = int.from_bytes(hashlib.sha256(sig).digest()[:8], "big") / 2**64
        if frac <= 0.05:
            oracle.add(u)
    assert selected == oracle
    assert 0 < len(selected) < N


def test_step_memberships_are_independent(env):
    registry, chain = env
    params = params_with(p2=0.5)
    chain = with_params(chain, params)
    prev_seed = chain.blocks[4].seed
    in2_not3 = in3_not2 = 0
    for u in range(1, N + 1):
        a = view_credential(u, 5, 2, prev_seed, chain)
        b = view_credential(u, 5, 3, prev_seed, chain)
        in2_not3 += bool(a) and not b
        in3_not2 += bool(b) and not a
    assert in2_not3 > 0 and in3_not2 > 0


def test_committee_mean_matches_binomial(env):
    registry, chain = env
    params = params_with(p2=0.2)
    chain = with_params(chain, params)
    sizes = []
    for i in range(300):
        prev_seed = hashlib.sha256(b"trial" + be8(i)).digest()
        sizes.append(len(view_committee(5, 2, prev_seed, chain)))
    mean = sum(sizes) / len(sizes)
    assert 19.0 <= mean <= 21.0


def chi2_sf(x, dof):
    """P(X >= x) for X chi-square with `dof` degrees of freedom, in closed
    form: exp(-x/2) times the sum of (x/2)**a / Gamma(a + 1), over
    a = 0, 1, .., dof/2 - 1 for even dof, and over a = 1/2, 3/2, ..,
    (dof - 2)/2 plus erfc(sqrt(x/2)) for odd dof."""
    h = x / 2
    total, start = (math.erfc(math.sqrt(h)), 0.5) if dof % 2 else (0.0, 0.0)
    for j in range(dof // 2):
        a = start + j
        total += math.exp(a * math.log(h) - h - math.lgamma(a + 1))
    return total


def test_committee_sizes_fit_binomial_chi_square(env):
    registry, chain = env
    params = params_with(p2=0.2)
    chain = with_params(chain, params)
    draws = []
    for i in range(10_000):
        prev_seed = hashlib.sha256(b"chi2" + be8(i)).digest()
        draws.append(len(view_committee(5, 2, prev_seed, chain)))
    # bin the binomial(100, 0.2) pmf so every expected count is >= 5
    pmf = [math.comb(N, k) * 0.2**k * 0.8**(N - k) for k in range(N + 1)]
    edges, acc = [], 0.0
    for k in range(N + 1):
        acc += pmf[k]
        if acc * len(draws) >= 5 and (1.0 - acc) * len(draws) >= 5:
            edges.append(k)
            acc = 0.0
    observed = [0] * (len(edges) + 1)
    expected = [0.0] * (len(edges) + 1)
    for d in draws:
        i = sum(1 for e in edges if d > e)
        observed[i] += 1
    for k in range(N + 1):
        i = sum(1 for e in edges if k > e)
        expected[i] += pmf[k] * len(draws)
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    pvalue = chi2_sf(stat, len(observed) - 1)
    assert pvalue >= 0.01


def test_not_eligible_outside_lookback(env):
    registry, chain = env
    params = params_with(p=1.0, p2=1.0)
    chain = with_params(chain, params)
    registry.register_user(999)  # registered but never on chain
    for user, round, prev_seed in ((999, 5, chain.blocks[4].seed),
                                   (1, 2, chain.blocks[1].seed)):
        assert view_credential(user, round, 1, prev_seed, chain) is None
        sig = registry.unique_sign(
            user, credential_message(round, 1, prev_seed))
        assert check_credential(Credential(user, round, 1, sig), prev_seed,
                                chain) == "not-eligible"


def test_steps_start_at_one(env):
    # step 1 is the leader step (leader tag and leader_prob); there is no
    # step 0
    registry, chain = env
    params = params_with(p=1.0, p2=0.0)
    chain = with_params(chain, params)
    prev_seed = chain.blocks[4].seed
    cred = view_credential(1, 5, 1, prev_seed, chain)
    assert cred.sig == registry.unique_sign(
        1, b"LEAD" + be8(5) + be8(1) + prev_seed)
    assert check_credential(cred, prev_seed, chain) is None
    sig = registry.unique_sign(1, credential_message(5, 0, prev_seed))
    assert check_credential(Credential(1, 5, 0, sig), prev_seed, chain) == "bad-step"


class TestSelectLeader:
    def test_single_credential(self):
        cred = Credential(7, 5, 1, b"\x01" * 32)
        assert select_leader([cred]) == 7

    def test_smallest_unit_wins(self, env):
        registry, chain = env
        params = params_with(p=1.0)
        chain = with_params(chain, params)
        prev_seed = chain.blocks[4].seed
        creds = [view_credential(u, 5, 1, prev_seed, chain)
                 for u in (3, 4, 5)]
        best = min(creds, key=lambda c: c.unit)
        assert select_leader(creds) == best.user

    def test_exact_tie_breaks_on_user_id(self):
        sig = b"\x2a" * 32
        a, b = Credential(9, 5, 1, sig), Credential(4, 5, 1, sig)
        assert a.unit == b.unit
        assert select_leader([a, b]) == 4

    def test_empty_input(self):
        assert select_leader([]) is None


class TestVerifyCredential:
    def test_round_trip(self, env):
        registry, chain = env
        params = params_with(p2=1.0)
        chain = with_params(chain, params)
        prev_seed = chain.blocks[4].seed
        cred = view_credential(8, 5, 2, prev_seed, chain)
        assert check_credential(cred, prev_seed, chain) is None

    def test_unit_is_derived_not_trusted(self, env):
        registry, chain = env
        params = params_with(p2=1.0)
        chain = with_params(chain, params)
        prev_seed = chain.blocks[4].seed
        cred = view_credential(8, 5, 2, prev_seed, chain)
        forged = Credential(cred.user, cred.round, cred.step, b"\x00" * 32)
        assert forged.unit != cred.unit  # recomputed from the signature
        assert check_credential(forged, prev_seed, chain) == "bad-signature"

    def test_mutations_rejected(self, env):
        registry, chain = env
        params = params_with(p2=1.0)
        chain = with_params(chain, params)
        prev_seed = chain.blocks[4].seed
        cred = view_credential(8, 5, 2, prev_seed, chain)
        for broken in (Credential(9, 5, 2, cred.sig),
                       Credential(8, 4, 2, cred.sig),
                       Credential(8, 5, 3, cred.sig)):
            assert check_credential(broken, prev_seed, chain) is not None

    def test_not_eligible_reason(self, env):
        registry, chain = env
        params = params_with(p2=1.0)
        chain = with_params(chain, params)
        registry.register_user(999)
        prev_seed = chain.blocks[4].seed
        sig = registry.unique_sign(999, b"whatever")
        assert check_credential(Credential(999, 5, 2, sig), prev_seed,
                                chain) == "not-eligible"

    def test_threshold_miss_reason(self, env):
        registry, chain = env
        prev_seed = chain.blocks[4].seed
        loose = with_params(chain, params_with(p2=1.0))
        tight = with_params(chain, params_with(p2=0.0))
        cred = view_credential(8, 5, 2, prev_seed, loose)
        assert check_credential(cred, prev_seed, tight) == "not-selected"


def test_selection_is_deterministic_non_grinding(env):
    registry, chain = env
    params = params_with(p=0.1)
    chain = with_params(chain, params)
    prev_seed = chain.blocks[4].seed
    again = make_registry(seed=11, users=range(1, N + 1))
    first = select_committee(5, 1, prev_seed, range(1, N + 1), params, registry)
    assert select_committee(5, 1, prev_seed, range(1, N + 1), params,
                            again) == first
    by_user = {c.user: c for c in first}
    assert [view_credential(u, 5, 1, prev_seed, chain)
            for u in range(1, N + 1)] == [by_user.get(u) for u in range(1, N + 1)]


# -- brute-force reference ------------------------------------------------------
# The per-user float rule the kernel replaced: every user of the lookback set
# signs the credential message on its own, and is selected when the hashed
# signature, as a fraction of 2**64, is at most p.

def reference_committee(round, step, prev_seed, chain, params, registry):
    p = params.leader_prob if step == 1 else params.verifier_prob
    msg = credential_message(round, step, prev_seed)
    out = []
    for u in sorted(users_at(chain, round - params.lookback)):
        sig = registry.unique_sign(u, msg)
        if hash_to_unit(hashlib.sha256(sig).digest()) <= p:
            out.append(Credential(u, round, step, sig))
    return out


def test_view_leader_matches_signed_path(env):
    registry, chain = env
    params = params_with(p=0.2)
    chain = with_params(chain, params)
    prev_seed = chain.blocks[4].seed
    # every user signs for itself, then the float rule picks the leaders
    msg = credential_message(5, 1, prev_seed)
    signed = [Credential(u, 5, 1, registry.unique_sign(u, msg))
              for u in range(1, N + 1)]
    creds = [c for c in signed
             if hash_to_unit(hashlib.sha256(c.sig).digest()) <= 0.2]
    assert creds
    assert view_leader(5, prev_seed, chain) == \
        select_leader(creds)


def test_view_credential_round_trip(env):
    # the omniscient view yields exactly the credentials the user would sign
    # and publish, they verify, and rounds before the lookback yield none
    registry, chain = env
    params = params_with(p=0.5, p2=0.5)
    chain = with_params(chain, params)
    prev_seed = chain.blocks[4].seed
    creds = []
    for step in range(1, params.max_step + 1):
        cred = view_credential(4, 5, step, prev_seed, chain)
        signed = next((c for c in reference_committee(
            5, step, prev_seed, chain, params, registry) if c.user == 4), None)
        assert cred == signed
        if cred is not None:
            creds.append(cred)
    assert creds, "a p = 0.5 user is selected for some step almost surely"
    for cred in creds:
        assert check_credential(cred, prev_seed, chain) is None
    early_seed = chain.blocks[1].seed
    assert all(view_credential(4, 2, step, early_seed, chain) is None
               for step in range(1, params.max_step + 1))


PROP_USERS = range(1, 41)
PROP_REGISTRY = make_registry(seed=5, users=PROP_USERS)
probabilities = st.one_of(st.sampled_from([0.0, 1.0]),
                          st.floats(min_value=0.0, max_value=1.0))


@st.composite
def sortition_cases(draw):
    """A chain whose genesis user set is a random subset of PROP_USERS, and
    one (round, step, prev_seed) on it with random probabilities."""
    holders = draw(st.sets(st.sampled_from(PROP_USERS), min_size=1))
    params = ProtocolParams(leader_prob=draw(probabilities),
                            verifier_prob=draw(probabilities), lookback=3,
                            max_ba_steps=9, cert_threshold=5, horizon=64)
    chain = idle_chain(PROP_REGISTRY, {u: 100 for u in holders}, 6, params)
    round = draw(st.integers(params.lookback, chain.tip_round + params.lookback))
    step = draw(st.integers(1, params.max_step))
    prev_seed = draw(st.binary(min_size=32, max_size=32))
    return chain, params, round, step, prev_seed


@given(sortition_cases(), st.data())
def test_kernel_matches_per_user_reference(case, data):
    chain, params, round, step, prev_seed = case
    reference = reference_committee(round, step, prev_seed, chain, params,
                                    PROP_REGISTRY)
    assert view_committee(round, step, prev_seed, chain) == reference
    eligible = sorted(users_at(chain, round - params.lookback))
    assert select_committee(round, step, prev_seed, eligible, params,
                            PROP_REGISTRY) == reference
    # any sublist of the eligible users, in any order, keeps exactly its
    # reference members, in its own order
    by_user = {c.user: c for c in reference}
    picked = data.draw(st.lists(st.sampled_from(eligible), unique=True))
    assert select_committee(round, step, prev_seed, picked, params,
                            PROP_REGISTRY) == \
        [by_user[u] for u in picked if u in by_user]
    for u in PROP_USERS:
        assert view_credential(u, round, step, prev_seed, chain) == by_user.get(u)


@given(sortition_cases())
def test_view_leader_is_reference_minimum(case):
    chain, params, round, _, prev_seed = case
    reference = reference_committee(round, 1, prev_seed, chain, params,
                                    PROP_REGISTRY)
    expected = (min(reference, key=lambda c: (c.unit, c.user)).user
                if reference else None)
    assert view_leader(round, prev_seed, chain) == expected


# -- integer selection limit ------------------------------------------------------

@pytest.mark.parametrize("p", [
    0.0, 1.0, 0.05, 0.2, 0.5, 5e-324, 2**-64, math.nextafter(1.0, 0.0),
    1 / 2**64, (2**53 + 1) / 2**64, 12345678901234567890 / 2**64,
    (2**63 - 1) / 2**64, (2**64 - 2) / 2**64,
])
def test_selection_limit_is_largest_admitted_integer(p):
    limit = selection_limit(p)
    assert 0 <= limit < 2**64
    assert limit / 2**64 <= p
    assert limit == 2**64 - 1 or (limit + 1) / 2**64 > p


def test_selection_limit_edges():
    assert selection_limit(0.0) == 0
    assert selection_limit(1.0) == 2**64 - 1
    # not p * 2**64: in [0.5, 1) quotients round to steps of 2**11 in x, and
    # 2**63 + 1024 is the halfway point that still rounds (to even) to 0.5
    assert selection_limit(0.5) == 2**63 + 1024
    assert (2**63 + 1024) / 2**64 == 0.5 < (2**63 + 1025) / 2**64


@pytest.mark.parametrize("p, digest", [(0.0, b"\x00" * 32), (1.0, b"\xff" * 32)])
def test_extreme_hashes_select_as_the_float_rule(env, monkeypatch, p, digest):
    # an all-zero hash prefix is selected even at p = 0 (0.0 <= 0.0), and at
    # p = 1 the largest prefix is selected too, so everyone is
    registry, chain = env
    assert hash_to_unit(digest) <= p
    hashed = []

    def forced():
        # stands in for a copy of the empty selection state: every
        # credential hashes to `digest`
        return SimpleNamespace(update=hashed.append, digest=lambda: digest)

    monkeypatch.setattr(sortition, "_SELECTION_HASH",
                        SimpleNamespace(copy=forced))
    params = params_with(p=p, p2=p)
    chain = with_params(chain, params)
    prev_seed = chain.blocks[4].seed
    for step in (1, 2):
        hashed.clear()
        committee = view_committee(5, step, prev_seed, chain)
        assert [c.user for c in committee] == list(range(1, N + 1))
        assert len(hashed) == N
        assert all(check_credential(c, prev_seed, chain)
                   is None for c in committee)
        assert len(hashed) == 2 * N


PROBABILITIES = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                          st.integers(0, 2**64 - 1).map(lambda y: y / 2**64))


@given(st.integers(0, 2**64 - 1), PROBABILITIES)
def test_integer_limit_agrees_with_float_compare(x, p):
    assert (x <= selection_limit(p)) == (x / 2**64 <= p)


@st.composite
def digests_near_the_limit(draw):
    """A probability and a 32-byte digest, often on the bound's edge: the
    limit's prefix with an all-0x00 or all-0xff suffix, or the prefix above."""
    p = draw(PROBABILITIES)
    limit = selection_limit(p)
    edge = draw(st.sampled_from(["any", "zeros", "ones", "above"]))
    if edge == "any":
        return p, draw(st.binary(min_size=32, max_size=32))
    prefix = min(limit + 1, 2**64 - 1) if edge == "above" else limit
    suffix = b"\xff" * 24 if edge == "ones" else b"\x00" * 24
    return p, prefix.to_bytes(8, "big") + suffix


@given(digests_near_the_limit())
@example((0.0, b"\x00" * 32))
@example((0.0, b"\x00" * 8 + b"\xff" * 24))
@example((0.0, b"\x00" * 7 + b"\x01" + b"\x00" * 24))
@example((1.0, b"\xff" * 32))
@example((0.5, (2**63 + 1024).to_bytes(8, "big") + b"\xff" * 24))
@example((0.5, (2**63 + 1025).to_bytes(8, "big") + b"\x00" * 24))
def test_bytes_bound_agrees_with_integer_limit(case):
    p, digest = case
    assert len(selection_bound(p)) == 32
    assert ((digest <= selection_bound(p))
            == (int.from_bytes(digest[:8], "big") <= selection_limit(p)))
