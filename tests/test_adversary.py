import hashlib
import random

import pytest

from algosim.adversary import (
    AdversaryConfig,
    AttackFailedError,
    ForkInfeasibleError,
    PreconditionViolatedError,
    bribe_and_recertify,
    fork_from,
)
from algosim.crypto import EphemeralKeyRecord, KeyState
from algosim.engine import ScenarioConfig, _sub_seed, run_scenario
from algosim.ledger import block_hash, users_at, validate_block, verify_chain
from algosim.sortition import ProtocolParams, view_committee, view_leader

FORK_PARAMS = ProtocolParams(leader_prob=1.0, verifier_prob=1.0, lookback=3,
                             max_ba_steps=9, cert_threshold=7, horizon=20)


def fork_fixture(seed=0, adversary=None, rounds=12):
    """10 genesis users growing to 40 by round 12; corrupting round 2 stays
    below the one-third budget."""
    return ScenarioConfig(
        seed=seed, num_genesis_users=10, initial_balance=1000, rounds=rounds,
        consensus_mode="simple", params=FORK_PARAMS,
        adversary=adversary or AdversaryConfig(),
        payments_per_round=2, new_users_per_round=3)


def bribery_fixture(seed=3, retention=1.0, target=5):
    return ScenarioConfig(
        seed=seed, num_genesis_users=20, initial_balance=1000, rounds=10,
        consensus_mode="simple",
        params=ProtocolParams(leader_prob=1.0, verifier_prob=0.5, lookback=3,
                              max_ba_steps=9, cert_threshold=7, horizon=20),
        adversary=AdversaryConfig(strategy="bribery",
                                  retention_fraction=retention,
                                  target_round=target),
        payments_per_round=3)


class TestAdversaryConfig:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            AdversaryConfig(strategy="eclipse")

    def test_genesis_fork_needs_round(self):
        with pytest.raises(ValueError):
            AdversaryConfig(strategy="genesis_fork")

    def test_bribery_needs_target(self):
        with pytest.raises(ValueError):
            AdversaryConfig(strategy="bribery", retention_fraction=0.5)


@pytest.fixture(scope="module")
def honest_run():
    chains, _ = run_scenario(fork_fixture())
    return chains[0]


@pytest.fixture(scope="module")
def bribery_run():
    cfg = bribery_fixture()
    chains, metrics = run_scenario(cfg)
    return cfg, chains[0]


class TestGenesisFork:
    def test_forged_chain_longer_and_valid(self, honest_run):
        chain = honest_run
        fork = fork_from(chain, 2, FORK_PARAMS, chain.registry)
        assert len(fork.blocks) == len(chain.blocks) + 1
        # validate_block is the oracle: every forged block must pass it
        for block in fork.blocks[3:]:
            assert validate_block(fork, block, FORK_PARAMS, chain.registry) == []
        assert verify_chain(fork, FORK_PARAMS, chain.registry) == []

    def test_fork_diverges_but_shares_prefix(self, honest_run):
        chain = honest_run
        fork = fork_from(chain, 2, FORK_PARAMS, chain.registry)
        for r in range(3):
            assert block_hash(fork.blocks[r]) == block_hash(chain.blocks[r])
        assert block_hash(fork.blocks[3]) != block_hash(chain.blocks[3])

    def test_final_block_pays_displaced_users(self, honest_run):
        chain = honest_run
        fork = fork_from(chain, 2, FORK_PARAMS, chain.registry)
        displaced = users_at(chain, chain.tip_round) - users_at(chain, 2)
        final = fork.blocks[-1]
        assert {p.payee for p in final.payset} == displaced
        assert all(p.amount == 1 for p in final.payset)
        assert users_at(fork, fork.tip_round) >= displaced

    def test_intermediate_blocks_stay_in_corrupted_set(self, honest_run):
        chain = honest_run
        fork = fork_from(chain, 2, FORK_PARAMS, chain.registry)
        corrupted = users_at(chain, 2)
        for block in fork.blocks[3:-1]:
            for p in block.payset:
                assert p.payer in corrupted and p.payee in corrupted

    def test_fork_at_tip_violates_budget(self, honest_run):
        # Corrupting the tip's own user set can never stay below one third
        # of the tip population, so the no-history-rewritten fork is
        # unreachable through the checked API.
        chain = honest_run
        with pytest.raises(PreconditionViolatedError):
            fork_from(chain, chain.tip_round, FORK_PARAMS, chain.registry)

    def test_budget_boundary(self, honest_run):
        chain = honest_run
        # round 3 holds 13 of 40 users: 39 < 40 still passes ...
        fork = fork_from(chain, 3, FORK_PARAMS, chain.registry)
        assert len(fork.blocks) == len(chain.blocks) + 1
        # ... round 4 holds 16: 48 >= 40 violates the budget
        with pytest.raises(PreconditionViolatedError):
            fork_from(chain, 4, FORK_PARAMS, chain.registry)

    def test_adversarial_signatures_only_for_corrupted(self, honest_run):
        # every signature in a forged block -- certificate votes, payments
        # and the leader's seed signature -- belongs to a corrupted user
        chain = honest_run
        registry = chain.registry
        corrupted = users_at(chain, 2)
        fork = fork_from(chain, 2, FORK_PARAMS, registry)
        forged = fork.blocks[3:]
        assert any(b.payset for b in forged), "fork must sign payments"
        for block in forged:
            assert {m.voter for m in block.cert} <= corrupted
            assert {p.payer for p in block.payset} <= corrupted
            if block.payset:
                prev_seed = fork.blocks[block.round - 1].seed
                assert view_leader(block.round, prev_seed, fork, FORK_PARAMS,
                                   registry) in corrupted

    def test_forged_keys_are_retained_not_destroyed(self, honest_run):
        chain = honest_run
        registry = chain.registry
        fork = fork_from(chain, 2, FORK_PARAMS, registry)
        for block in fork.blocks[3:]:
            for m in block.cert:
                assert registry.ephemeral_state(
                    m.voter, m.round, m.step) is KeyState.RETAINED

    def test_fork_from_genesis_round_rebuilds_everything(self, honest_run):
        # corrupting the original user set rewrites every later round,
        # including the forged bootstrap rounds before the lookback horizon
        chain = honest_run
        fork = fork_from(chain, 0, FORK_PARAMS, chain.registry)
        assert len(fork.blocks) == len(chain.blocks) + 1
        assert fork.blocks[1].payset == () and fork.blocks[2].payset == ()
        assert verify_chain(fork, FORK_PARAMS, chain.registry) == []

    def test_starved_committees_report_infeasible(self, honest_run):
        # with a near-zero committee threshold the ten corrupted users are
        # rarely selected; the fork must report the deficit, not pad it
        from dataclasses import replace

        chain = honest_run
        starved = replace(FORK_PARAMS, verifier_prob=0.02)
        with pytest.raises(ForkInfeasibleError) as err:
            fork_from(chain, 2, starved, chain.registry)
        assert err.value.have < err.value.need == starved.cert_threshold


class TestScenarioIntegration:
    def test_scenario_reports_exactly_one_genesis_fork(self):
        cfg = fork_fixture(adversary=AdversaryConfig(strategy="genesis_fork",
                                                     fork_round=2))
        chains, metrics = run_scenario(cfg)
        assert metrics.forks_detected == 1
        report = metrics.fork_reports[0]
        assert report.classification == "genesis-fork"
        assert report.round == 3
        assert len(chains) == 2

    def test_bribery_scenario_reports_fork(self):
        chains, metrics = run_scenario(bribery_fixture())
        assert metrics.forks_detected == 1
        assert metrics.fork_reports[0].classification == "bribery-fork"
        assert metrics.fork_reports[0].round == 5


class TestBribery:
    def test_alternative_block_validates(self, bribery_run):
        cfg, chain = bribery_run
        registry = chain.registry
        retained = registry.retained_records(5)
        alt = bribe_and_recertify(chain, 5, retained, cfg.params, registry)
        assert block_hash(alt) != block_hash(chain.blocks[5])
        assert validate_block(chain, alt, cfg.params, registry) == []

    def test_no_retention_fails_with_zero(self, bribery_run):
        cfg, chain = bribery_run
        with pytest.raises(AttackFailedError) as err:
            bribe_and_recertify(chain, 5, [], cfg.params, chain.registry)
        assert err.value.have == 0
        assert err.value.need == cfg.params.cert_threshold

    def test_threshold_minus_one_fails_with_exact_deficit(self, bribery_run):
        from algosim.sortition import view_credential

        cfg, chain = bribery_run
        registry = chain.registry
        prev_seed = chain.blocks[4].seed
        # keep records of exactly cert_threshold - 1 distinct genuine
        # committee members (step-1 leader keys do not count)
        usable, owners = [], set()
        for rec in registry.retained_records(5):
            if rec.step < 2 or rec.owner in owners:
                continue
            if view_credential(rec.owner, 5, rec.step, prev_seed, chain,
                               cfg.params, registry) is None:
                continue
            if len(owners) == cfg.params.cert_threshold - 1:
                break
            owners.add(rec.owner)
            usable.append(rec)
        assert len(usable) == cfg.params.cert_threshold - 1
        with pytest.raises(AttackFailedError) as err:
            bribe_and_recertify(chain, 5, usable, cfg.params, registry)
        assert err.value.have == cfg.params.cert_threshold - 1
        assert err.value.need == cfg.params.cert_threshold

    def test_non_retained_records_rejected(self, bribery_run):
        cfg, chain = bribery_run
        registry = chain.registry
        # the top step is never reached by the honest run, so this key is
        # still available rather than retained
        step = cfg.params.max_step
        assert registry.ephemeral_state(1, 5, step) is KeyState.AVAILABLE
        for state in (KeyState.AVAILABLE, KeyState.DESTROYED):
            rec = EphemeralKeyRecord(1, 5, step, state)
            with pytest.raises(PreconditionViolatedError):
                bribe_and_recertify(chain, 5, [rec], cfg.params, registry)

    def test_retention_zero_scenario_reports_failure(self):
        chains, metrics = run_scenario(bribery_fixture(retention=0.0))
        assert metrics.forks_detected == 0
        assert metrics.attack_error is not None
        assert "have 0" in metrics.attack_error


# SHA-256 of the key state after run_scenario(bribery_fixture(retention=0.5)):
# repr((retained records' (owner, round, step), sorted destroyed masks)).
MIXED_RETENTION_KEY_STATE = \
    "bf0a763cc71620aebada3f3360ef07bfee440f78156b42e862d70a813ff90880"


def test_mixed_retention_retains_exactly_the_keepers_keys():
    cfg = bribery_fixture(retention=0.5)
    chains, metrics = run_scenario(cfg)
    chain, params = chains[0], cfg.params
    registry = chain.registry
    # the keepers, drawn as `retention_fraction` says: one draw per user, in
    # the order users register (no user joins this scenario)
    rng = random.Random(_sub_seed(cfg.seed, b"POLI"))
    keepers = {u for u in range(1, cfg.num_genesis_users + 1)
               if rng.random() < cfg.adversary.retention_fraction}
    assert 0 < len(keepers) < cfg.num_genesis_users
    # every key the run signed: whole committees before the decision step
    # (simple mode: proposals and step-2 votes), then the certificate voters
    signed = set()
    for rec in metrics.rounds[params.lookback - 1:]:
        r, prev_seed = rec.round, chain.blocks[rec.round - 1].seed
        for s in rec.committee_sizes:
            if s < rec.steps_to_decision:
                signed |= {(c.user, r, s) for c in view_committee(
                    r, s, prev_seed, chain, params, registry)}
        signed |= {(m.voter, r, m.step) for m in chain.blocks[r].cert}
    kept = {k for k in signed if k[0] in keepers}
    assert kept and signed - kept
    for key in signed:
        assert registry.ephemeral_state(*key) is (
            KeyState.RETAINED if key in kept else KeyState.DESTROYED)
    assert {(k.owner, k.round, k.step)
            for k in registry.retained_records()} == kept
    assert sum(m.bit_count() for m in registry._destroyed.values()) == \
        len(signed - kept)
    state = repr(([(k.owner, k.round, k.step)
                   for k in registry.retained_records()],
                  sorted(registry._destroyed.items())))
    assert hashlib.sha256(state.encode()).hexdigest() == \
        MIXED_RETENTION_KEY_STATE
