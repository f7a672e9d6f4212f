import hashlib
import random
from pathlib import Path

import pytest

from algosim import adversary
from algosim.adversary import (
    AdversaryConfig,
    AttackFailedError,
    ForkInfeasibleError,
    PreconditionViolatedError,
    bribe_and_recertify,
    fork_from,
)
from algosim.cli import load_config
from algosim.crypto import EphemeralKeyRecord, KeyState
from algosim.engine import ScenarioConfig, _sub_seed, metrics_to_lines, run_scenario
from algosim.ledger import (
    block_hash,
    users_at,
    validate_block,
    verify_chain,
    view_leader,
)
from algosim.sortition import ProtocolParams

from conftest import export_lines, view_committee, view_credential, with_params

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
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
        fork = fork_from(chain, 2)
        assert len(fork.blocks) == len(chain.blocks) + 1
        # validate_block is the oracle: every forged block must pass it
        for block in fork.blocks[3:]:
            assert validate_block(fork, block) == []
        assert verify_chain(fork) == []

    def test_fork_diverges_but_shares_prefix(self, honest_run):
        chain = honest_run
        fork = fork_from(chain, 2)
        for r in range(3):
            assert block_hash(fork.blocks[r]) == block_hash(chain.blocks[r])
        assert block_hash(fork.blocks[3]) != block_hash(chain.blocks[3])

    def test_final_block_pays_displaced_users(self, honest_run):
        chain = honest_run
        fork = fork_from(chain, 2)
        displaced = users_at(chain, chain.tip_round) - users_at(chain, 2)
        final = fork.blocks[-1]
        assert {p.payee for p in final.payset} == displaced
        assert all(p.amount == 1 for p in final.payset)
        assert users_at(fork, fork.tip_round) >= displaced

    def test_intermediate_blocks_stay_in_corrupted_set(self, honest_run):
        chain = honest_run
        fork = fork_from(chain, 2)
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
            fork_from(chain, chain.tip_round)

    def test_budget_boundary(self, honest_run):
        chain = honest_run
        # round 3 holds 13 of 40 users: 39 < 40 still passes ...
        fork = fork_from(chain, 3)
        assert len(fork.blocks) == len(chain.blocks) + 1
        # ... round 4 holds 16: 48 >= 40 violates the budget
        with pytest.raises(PreconditionViolatedError):
            fork_from(chain, 4)

    def test_adversarial_signatures_only_for_corrupted(self, honest_run):
        # every signature in a forged block -- certificate votes, payments
        # and the leader's seed signature -- belongs to a corrupted user
        chain = honest_run
        corrupted = users_at(chain, 2)
        fork = fork_from(chain, 2)
        forged = fork.blocks[3:]
        assert any(b.payset for b in forged), "fork must sign payments"
        for block in forged:
            assert {m.voter for m in block.cert} <= corrupted
            assert {p.payer for p in block.payset} <= corrupted
            if block.payset:
                prev_seed = fork.blocks[block.round - 1].seed
                assert view_leader(block.round, prev_seed, fork) in corrupted

    def test_forged_keys_are_retained_not_destroyed(self, honest_run):
        chain = honest_run
        registry = chain.registry
        fork = fork_from(chain, 2)
        for block in fork.blocks[3:]:
            for m in block.cert:
                assert registry.ephemeral_state(
                    m.voter, m.round, m.step) is KeyState.RETAINED

    def test_fork_from_genesis_round_rebuilds_everything(self, honest_run):
        # corrupting the original user set rewrites every later round,
        # including the forged bootstrap rounds before the lookback horizon
        chain = honest_run
        fork = fork_from(chain, 0)
        assert len(fork.blocks) == len(chain.blocks) + 1
        assert fork.blocks[1].payset == () and fork.blocks[2].payset == ()
        assert verify_chain(fork) == []

    def test_starved_committees_report_infeasible(self, honest_run):
        # with a near-zero committee threshold the ten corrupted users are
        # rarely selected; the fork must report the deficit, not pad it
        chain = honest_run
        starved = FORK_PARAMS._replace(verifier_prob=0.02)
        with pytest.raises(ForkInfeasibleError) as err:
            fork_from(with_params(chain, starved), 2)
        assert err.value.have < err.value.need == starved.cert_threshold

    def test_no_committee_drawn_from_no_users(self, monkeypatch):
        # saturated sortition chooses every eligible corrupted user within
        # the first steps; no later step draws a committee from nobody
        sizes = []
        real = adversary.select_committee

        def counted(round, step, seed, users, params, registry):
            sizes.append(len(users))
            return real(round, step, seed, users, params, registry)

        monkeypatch.setattr(adversary, "select_committee", counted)
        _, metrics = run_scenario(load_config(str(FIXTURES / "genesis_fork.cfg")))
        assert metrics.forks_detected == 1
        assert sizes and 0 not in sizes

    @pytest.mark.parametrize("seed", range(4))
    def test_short_round_signs_nothing(self, seed):
        # a fresh run: the module's honest_run registry is shared
        chain = run_scenario(fork_fixture(seed))[0][0]
        registry = chain.registry
        before = registry.retained_records(3)
        with pytest.raises(ForkInfeasibleError) as err:
            fork_from(with_params(chain, FORK_PARAMS._replace(
                verifier_prob=0.02)), 2)
        assert err.value.round == 3
        assert registry.retained_records(3) == before


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
        alt = bribe_and_recertify(chain, 5, retained)
        assert block_hash(alt) != block_hash(chain.blocks[5])
        assert validate_block(chain, alt) == []

    def test_no_retention_fails_with_zero(self, bribery_run):
        cfg, chain = bribery_run
        with pytest.raises(AttackFailedError) as err:
            bribe_and_recertify(chain, 5, [])
        assert err.value.have == 0
        assert err.value.need == cfg.params.cert_threshold

    def test_threshold_minus_one_fails_with_exact_deficit(self, bribery_run):
        cfg, chain = bribery_run
        registry = chain.registry
        prev_seed = chain.blocks[4].seed
        # keep records of exactly cert_threshold - 1 distinct genuine
        # committee members (step-1 leader keys do not count)
        usable, owners = [], set()
        for rec in registry.retained_records(5):
            if rec.step < 2 or rec.owner in owners:
                continue
            if view_credential(rec.owner, 5, rec.step, prev_seed,
                               chain) is None:
                continue
            if len(owners) == cfg.params.cert_threshold - 1:
                break
            owners.add(rec.owner)
            usable.append(rec)
        assert len(usable) == cfg.params.cert_threshold - 1
        with pytest.raises(AttackFailedError) as err:
            bribe_and_recertify(chain, 5, usable)
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
                bribe_and_recertify(chain, 5, [rec])

    def test_leaderless_empty_round_is_not_bribable(self):
        # with no potential leader every honest block is empty, and no bought
        # key can sign the leader's seed; the count reported is every usable
        # voter, not the threshold's worth the certificate would take
        cfg = bribery_fixture()
        cfg = cfg._replace(params=cfg.params._replace(leader_prob=0.0))
        _, metrics = run_scenario(cfg)
        assert metrics.attack_error == \
            "round leader not bribable: have 17, need 7"

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
                    r, s, prev_seed, chain)}
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


def key_state_digest(registry) -> str:
    """SHA-256 of every retained record with its state plus the sorted
    destroyed masks: the whole key lifecycle a run leaves behind."""
    state = repr(([(k.owner, k.round, k.step, k.state.value)
                   for k in registry.retained_records()],
                  sorted(registry._destroyed.items())))
    return hashlib.sha256(state.encode()).hexdigest()


# Key states after honest.cfg (seed 1, 8 rounds), the genesis fork from
# round 2, and bribery with every key and half the keys retained.  Recorded
# when every committee member signed every step's message.
KEY_STATE_DIGESTS = {
    "honest":
        "d54c3f95aba8814c8fb34b62b3d12ce19710f10e245b79f8204f614e1a5842be",
    "genesis_fork":
        "4478619639e33efc40290586a207faa82c21f0be11a8df14fee45d8b52cf4795",
    "bribery":
        "6112a1280c403bc196f5a48fe63e4a22c79514ee174382e8443bac5d9a2f240d",
    "bribery_half":
        "a2bd02e1f5d6b7e333fefd7811dd48aabf598bb72a8ffff4b6965e60da811517",
}


def test_key_states_are_pinned():
    configs = {
        "honest": load_config(str(FIXTURES / "honest.cfg"), seed=1, rounds=8),
        "genesis_fork": fork_fixture(
            adversary=AdversaryConfig("genesis_fork", fork_round=2)),
        "bribery": bribery_fixture(),
        "bribery_half": bribery_fixture(retention=0.5),
    }
    for name, cfg in configs.items():
        chains, _ = run_scenario(cfg)
        assert key_state_digest(chains[0].registry) == \
            KEY_STATE_DIGESTS[name], name


def transcript_digest(chains, metrics) -> str:
    """SHA-256 of metrics_to_lines plus the exported lines of every chain."""
    lines = metrics_to_lines(metrics)
    for chain in chains:
        lines += export_lines(chain)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Attack transcripts by (strategy, fork round or retention) and seed 0-2;
# bribery re-certifies round 4.  Forking from round 0 rebuilds the bootstrap
# rounds 1 and 2 as the empty blocks they already are, over the same users,
# so it forges the same chain as forking from round 2.
ATTACK_DIGESTS = {
    ("genesis_fork", 2): [
        "14849f6226a89b75a035da562133c2c4c5077480aa9e122d4b3d58e19e25b0e3",
        "60473b8c941360598f9d359a1d0a20cce649c534ddd1820b2168fee269047219",
        "fbfd1cfdc262de63e02fd6d1a6f6e22b28c25562da8c2b2d896631daaa3ef354"],
    ("genesis_fork", 0): [
        "14849f6226a89b75a035da562133c2c4c5077480aa9e122d4b3d58e19e25b0e3",
        "60473b8c941360598f9d359a1d0a20cce649c534ddd1820b2168fee269047219",
        "fbfd1cfdc262de63e02fd6d1a6f6e22b28c25562da8c2b2d896631daaa3ef354"],
    ("bribery", 1.0): [
        "07dae2f92f7adb4a579bb772629449230579dd5d325caf36a20a60feebc4d9e4",
        "83a8d5b5efd4df5a4226856b02d73bf90b94c66f0f23cb62b9cd4d4dd543c0c0",
        "aa3174a91b2d5536d2708d18fccb6543f029e0644498ee758963dfadfa8193a7"],
    ("bribery", 0.5): [
        "a58d85c654f989b43df35a0d9e63e109f4cfb44766a80376d8699231ea141317",
        "2fa92dc7e9afa851b8cb2fb9d223640e2830eb919b56c4a68577a40dd21689b1",
        "edb4fe78c8ca31fd8948f56b11db2c87a626198d23ff8cdcdf640fbf5f53c1cf"],
}
# The fork from round 2 with verifier_prob 0.02, on each seed's honest chain
# after its genesis_fork scenario from round 2.
STARVED_FORK_ERRORS = [
    "round 3: only 3 corrupted certifiers available, need 7",
    "round 3: only 1 corrupted certifiers available, need 7",
    "round 3: only 3 corrupted certifiers available, need 7"]


@pytest.mark.parametrize("seed", range(3))
def test_attack_transcripts_are_pinned(seed):
    for (strategy, knob), digests in ATTACK_DIGESTS.items():
        if strategy == "genesis_fork":
            cfg = fork_fixture(seed, AdversaryConfig(strategy, fork_round=knob))
        else:
            cfg = bribery_fixture(seed, retention=knob, target=4)
        chains, metrics = run_scenario(cfg)
        assert transcript_digest(chains, metrics) == digests[seed], (strategy, knob)
        if (strategy, knob) == ("genesis_fork", 2):
            honest = chains[0]
    with pytest.raises(ForkInfeasibleError) as err:
        fork_from(with_params(honest, FORK_PARAMS._replace(
            verifier_prob=0.02)), 2)
    assert str(err.value) == STARVED_FORK_ERRORS[seed]
