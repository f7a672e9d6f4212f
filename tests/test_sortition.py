import hashlib

import pytest

from algosim.crypto import be8
from algosim.sortition import (
    Credential,
    NotEligibleError,
    ProtocolParams,
    default_cert_threshold,
    leader_credential,
    select_leader,
    verifier_credential,
    verify_credential,
    view_committee,
    view_credential,
    view_leader,
)

from conftest import idle_chain, make_registry

N = 100


@pytest.fixture
def env():
    registry = make_registry(seed=11, users=range(1, N + 1))
    chain = idle_chain(registry, {u: 100 for u in range(1, N + 1)}, 6)
    return registry, chain


def params_with(p=0.05, p2=0.2):
    return ProtocolParams(leader_prob=p, verifier_prob=p2, lookback=3,
                          max_ba_steps=9, cert_threshold=5, horizon=64)


def test_default_cert_threshold():
    assert default_cert_threshold(20) == 14
    assert default_cert_threshold(10) == 7
    assert default_cert_threshold(1) == 1


def test_saturated_threshold_selects_everyone(env):
    registry, chain = env
    params = params_with(p=1.0, p2=1.0)
    prev_seed = chain.blocks[4].seed
    leaders = [u for u in range(1, N + 1)
               if leader_credential(u, 5, prev_seed, chain, params, registry)]
    assert leaders == list(range(1, N + 1))
    assert len(view_committee(5, 2, prev_seed, chain, params, registry)) == N


def test_zero_threshold_selects_nobody(env):
    registry, chain = env
    params = params_with(p=0.0, p2=0.0)
    prev_seed = chain.blocks[4].seed
    assert all(leader_credential(u, 5, prev_seed, chain, params, registry) is None
               for u in range(1, N + 1))


def test_selection_matches_independent_enumeration(env):
    # Brute-force oracle: recompute every user's hash fraction with hashlib
    # alone and compare the selected sets.
    registry, chain = env
    params = params_with(p=0.05)
    prev_seed = chain.blocks[4].seed
    selected = {u for u in range(1, N + 1)
                if leader_credential(u, 5, prev_seed, chain, params, registry)}

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
    prev_seed = chain.blocks[4].seed
    in2_not3 = in3_not2 = 0
    for u in range(1, N + 1):
        a = verifier_credential(u, 5, 2, prev_seed, chain, params, registry)
        b = verifier_credential(u, 5, 3, prev_seed, chain, params, registry)
        in2_not3 += bool(a) and not b
        in3_not2 += bool(b) and not a
    assert in2_not3 > 0 and in3_not2 > 0


def test_committee_mean_matches_binomial(env):
    registry, chain = env
    params = params_with(p2=0.2)
    sizes = []
    for i in range(300):
        prev_seed = hashlib.sha256(b"trial" + be8(i)).digest()
        sizes.append(len(view_committee(5, 2, prev_seed, chain, params, registry)))
    mean = sum(sizes) / len(sizes)
    assert 19.0 <= mean <= 21.0


def test_committee_sizes_fit_binomial_chi_square(env):
    scipy_stats = pytest.importorskip("scipy.stats")
    registry, chain = env
    params = params_with(p2=0.2)
    draws = []
    for i in range(10_000):
        prev_seed = hashlib.sha256(b"chi2" + be8(i)).digest()
        draws.append(len(view_committee(5, 2, prev_seed, chain, params, registry)))
    # bin the binomial(100, 0.2) pmf so every expected count is >= 5
    pmf = [scipy_stats.binom.pmf(k, N, 0.2) for k in range(N + 1)]
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
    pvalue = scipy_stats.chi2.sf(stat, len(observed) - 1)
    assert pvalue >= 0.01


def test_not_eligible_outside_lookback(env):
    registry, chain = env
    params = params_with()
    registry.register_user(999)  # registered but never on chain
    with pytest.raises(NotEligibleError):
        leader_credential(999, 5, chain.blocks[4].seed, chain, params, registry)
    with pytest.raises(NotEligibleError):
        leader_credential(1, 2, chain.blocks[1].seed, chain, params, registry)


def test_verifier_steps_start_at_two(env):
    registry, chain = env
    with pytest.raises(ValueError):
        verifier_credential(1, 5, 1, chain.blocks[4].seed, chain,
                            params_with(), registry)


class TestSelectLeader:
    def test_single_credential(self):
        cred = Credential(7, 5, 1, b"\x01" * 32)
        assert select_leader([cred]) == 7

    def test_smallest_unit_wins(self, env):
        registry, chain = env
        params = params_with(p=1.0)
        prev_seed = chain.blocks[4].seed
        creds = [leader_credential(u, 5, prev_seed, chain, params, registry)
                 for u in (3, 4, 5)]
        best = min(creds, key=lambda c: c.unit)
        assert select_leader(creds) == best.user

    def test_exact_tie_breaks_on_user_id(self):
        sig = b"\x2a" * 32
        a, b = Credential(9, 5, 1, sig), Credential(4, 5, 1, sig)
        assert a.unit == b.unit
        assert select_leader([a, b]) == 4

    def test_empty_input(self):
        with pytest.raises(ValueError):
            select_leader([])


class TestVerifyCredential:
    def test_round_trip(self, env):
        registry, chain = env
        params = params_with(p2=1.0)
        prev_seed = chain.blocks[4].seed
        cred = verifier_credential(8, 5, 2, prev_seed, chain, params, registry)
        assert verify_credential(cred, prev_seed, chain, params, registry)

    def test_unit_is_derived_not_trusted(self, env):
        registry, chain = env
        params = params_with(p2=1.0)
        prev_seed = chain.blocks[4].seed
        cred = verifier_credential(8, 5, 2, prev_seed, chain, params, registry)
        forged = Credential(cred.user, cred.round, cred.step, b"\x00" * 32)
        assert forged.unit != cred.unit  # recomputed from the signature
        check = verify_credential(forged, prev_seed, chain, params, registry)
        assert not check and check.reason == "bad-signature"

    def test_mutations_rejected(self, env):
        registry, chain = env
        params = params_with(p2=1.0)
        prev_seed = chain.blocks[4].seed
        cred = verifier_credential(8, 5, 2, prev_seed, chain, params, registry)
        for broken in (Credential(9, 5, 2, cred.sig),
                       Credential(8, 4, 2, cred.sig),
                       Credential(8, 5, 3, cred.sig)):
            assert not verify_credential(broken, prev_seed, chain, params,
                                         registry)

    def test_not_eligible_reason(self, env):
        registry, chain = env
        params = params_with(p2=1.0)
        registry.register_user(999)
        prev_seed = chain.blocks[4].seed
        sig = registry.expected_signature(999, b"whatever")
        check = verify_credential(Credential(999, 5, 2, sig), prev_seed,
                                  chain, params, registry)
        assert not check and check.reason == "not-eligible"

    def test_threshold_miss_reason(self, env):
        registry, chain = env
        prev_seed = chain.blocks[4].seed
        loose = params_with(p2=1.0)
        tight = params_with(p2=0.0)
        cred = verifier_credential(8, 5, 2, prev_seed, chain, loose, registry)
        check = verify_credential(cred, prev_seed, chain, tight, registry)
        assert not check and check.reason == "not-selected"


def test_selection_is_deterministic_non_grinding(env):
    registry, chain = env
    params = params_with(p=0.1)
    prev_seed = chain.blocks[4].seed
    first = [leader_credential(u, 5, prev_seed, chain, params, registry)
             for u in range(1, N + 1)]
    second = [leader_credential(u, 5, prev_seed, chain, params, registry)
              for u in range(1, N + 1)]
    assert [(c.user, c.sig) if c else None for c in first] == \
           [(c.user, c.sig) if c else None for c in second]


def test_view_leader_matches_signed_path(env):
    registry, chain = env
    params = params_with(p=0.2)
    prev_seed = chain.blocks[4].seed
    creds = [c for u in range(1, N + 1)
             if (c := leader_credential(u, 5, prev_seed, chain, params, registry))]
    assert view_leader(5, prev_seed, chain, params, registry) == \
        select_leader(creds)


def test_view_credential_round_trip(env):
    # the omniscient view yields exactly the credentials the user would sign
    # and publish, they verify, and rounds before the lookback yield none
    registry, chain = env
    params = params_with(p=0.5, p2=0.5)
    prev_seed = chain.blocks[4].seed
    creds = []
    for step in range(1, params.max_step + 1):
        cred = view_credential(4, 5, step, prev_seed, chain, params, registry)
        signed = (leader_credential(4, 5, prev_seed, chain, params, registry)
                  if step == 1 else
                  verifier_credential(4, 5, step, prev_seed, chain, params,
                                      registry))
        assert cred == signed
        if cred is not None:
            creds.append(cred)
    assert creds, "a p = 0.5 user is selected for some step almost surely"
    for cred in creds:
        assert verify_credential(cred, prev_seed, chain, params, registry)
    early_seed = chain.blocks[1].seed
    assert all(view_credential(4, 2, step, early_seed, chain, params,
                               registry) is None
               for step in range(1, params.max_step + 1))
