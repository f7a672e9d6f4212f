import pytest

from algosim.adversary import AdversaryConfig
from algosim.crypto import KeyState
from algosim.engine import (
    ScenarioConfig,
    detect_fork,
    metrics_to_lines,
    run_scenario,
)
from algosim.ledger import block_hash, chain_to_lines, verify_chain
from algosim.sortition import ProtocolParams

SMALL = ScenarioConfig(
    seed=42, num_genesis_users=10, initial_balance=1000, rounds=20,
    consensus_mode="both",
    params=ProtocolParams(leader_prob=0.5, verifier_prob=0.7, lookback=3,
                          max_ba_steps=9, cert_threshold=5, horizon=32),
    payments_per_round=3)


@pytest.fixture(scope="module")
def small_run():
    return run_scenario(SMALL)


def test_honest_run_shape(small_run):
    chains, metrics = small_run
    assert len(chains) == 1
    assert len(chains[0].blocks) == 21  # genesis plus 20 rounds
    assert metrics.forks_detected == 0
    assert len(metrics.rounds) == 20


def test_honest_run_equivalence_each_round(small_run):
    _, metrics = small_run
    for rec in metrics.rounds:
        assert rec.equivalent in (True, None)
        if rec.round >= SMALL.params.lookback:
            assert rec.equivalent is True


def test_honest_chain_fully_validates(small_run):
    chains, _ = small_run
    chain = chains[0]
    assert verify_chain(chain, SMALL.params, chain.registry) == []


def test_consumed_keys_destroyed_under_honest_policy(small_run):
    chains, _ = small_run
    registry = chains[0].registry
    assert registry.retained_records() == []
    states = {rec.state for rec in registry._ephemeral.values()}
    assert states == {KeyState.DESTROYED}


def test_determinism_bit_identical(small_run):
    chains_a, metrics_a = small_run
    chains_b, metrics_b = run_scenario(SMALL)
    assert metrics_to_lines(metrics_a) == metrics_to_lines(metrics_b)
    assert chain_to_lines(chains_a[0]) == chain_to_lines(chains_b[0])


def test_regression_golden_tip(small_run):
    # frozen after the first verified execution; any protocol change that
    # alters the transcript must be deliberate
    chains, _ = small_run
    assert block_hash(chains[0].tip()).hex() == (
        "df66e2414f67cb9c8ab4e8bf589278e16d2efe5caeb7b1a2f236797366134c98")


def test_seed_changes_transcript():
    cfg = ScenarioConfig(seed=43, num_genesis_users=10, rounds=20,
                         consensus_mode="both", params=SMALL.params,
                         payments_per_round=3)
    chains, _ = run_scenario(cfg)
    assert block_hash(chains[0].tip()).hex() != (
        "df66e2414f67cb9c8ab4e8bf589278e16d2efe5caeb7b1a2f236797366134c98")


def test_bootstrap_rounds_empty(small_run):
    chains, metrics = small_run
    for rec in metrics.rounds[:SMALL.params.lookback - 1]:
        assert rec.empty_block and "bootstrap" in rec.flags
    for r in range(1, SMALL.params.lookback):
        assert chains[0].blocks[r].payset == ()


def test_no_leader_rounds_produce_certified_empty_blocks():
    cfg = ScenarioConfig(
        seed=5, num_genesis_users=10, rounds=8, consensus_mode="both",
        params=ProtocolParams(leader_prob=0.0, verifier_prob=0.8, lookback=3,
                              max_ba_steps=9, cert_threshold=5, horizon=16),
        payments_per_round=3)
    chains, metrics = run_scenario(cfg)
    chain = chains[0]
    assert all(rec.empty_block for rec in metrics.rounds)
    assert all(rec.equivalent in (True, None) for rec in metrics.rounds)
    assert verify_chain(chain, cfg.params, chain.registry) == []
    assert all(m.bit == 1 for m in chain.blocks[5].cert)


def test_simple_mode_runs_two_steps():
    cfg = ScenarioConfig(seed=9, num_genesis_users=10, rounds=10,
                         consensus_mode="simple", params=SMALL.params,
                         payments_per_round=2)
    chains, metrics = run_scenario(cfg)
    chain = chains[0]
    assert verify_chain(chain, cfg.params, chain.registry) == []
    for rec in metrics.rounds:
        if "bootstrap" in rec.flags:
            continue
        assert rec.ba_digest is None
        assert rec.simple_digest is not None
        assert rec.steps_to_decision == 3
        assert 3 not in rec.committee_sizes or rec.committee_sizes[3] >= 0


def test_fifty_round_chain_validates_block_by_block():
    # every block the honest engine emits passes the validator
    import algosim.cli as cli
    from pathlib import Path

    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "honest.cfg"
    cfg = cli.load_config(str(fixture), seed=11)
    chains, _ = run_scenario(cfg)
    chain = chains[0]
    assert len(chain.blocks) == 51
    assert verify_chain(chain, cfg.params, chain.registry) == []


def test_message_counts_accumulate(small_run):
    _, metrics = small_run
    assert metrics.total_messages == sum(r.message_count for r in metrics.rounds)
    assert metrics.total_messages > 0


class TestDetectFork:
    def test_identical_chains(self, small_run):
        chains, _ = small_run
        chain = chains[0]
        assert detect_fork([chain, chain], SMALL.params, chain.registry) == []

    def test_prefix_extension_is_not_a_fork(self, small_run):
        chains, _ = small_run
        chain = chains[0]
        shorter = chain.prefix(15)
        assert detect_fork([chain, shorter], SMALL.params, chain.registry) == []

    def test_genesis_fork_fixture_reports_once(self):
        cfg = ScenarioConfig(
            seed=1, num_genesis_users=10, rounds=12, consensus_mode="simple",
            params=ProtocolParams(leader_prob=1.0, verifier_prob=1.0,
                                  lookback=3, cert_threshold=7, horizon=20),
            adversary=AdversaryConfig(strategy="genesis_fork", fork_round=2),
            payments_per_round=2, new_users_per_round=3)
        chains, metrics = run_scenario(cfg)
        assert [r.round for r in metrics.fork_reports] == [3]
        reports = detect_fork(chains, cfg.params, chains[0].registry)
        assert len(reports) == 1
        assert reports[0].classification == "protocol-violation"  # unhinted


class TestCompareConsensus:
    def test_all_rounds_equivalent(self, small_run):
        _, metrics = small_run
        for rec in metrics.rounds:
            if rec.ba_digest is not None and rec.simple_digest is not None:
                assert rec.ba_digest == rec.simple_digest


def test_mode_ba_only_has_no_shadow():
    cfg = ScenarioConfig(seed=2, num_genesis_users=8, rounds=6,
                         consensus_mode="ba",
                         params=ProtocolParams(leader_prob=0.9, verifier_prob=0.9,
                                               lookback=1, cert_threshold=4,
                                               horizon=12),
                         payments_per_round=2)
    chains, metrics = run_scenario(cfg)
    assert verify_chain(chains[0], cfg.params, chains[0].registry) == []
    for rec in metrics.rounds:
        assert rec.ba_digest is not None
        assert rec.simple_digest is None
        assert rec.equivalent is None


def test_lookback_one_has_no_bootstrap_rounds():
    cfg = ScenarioConfig(seed=2, num_genesis_users=8, rounds=6,
                         consensus_mode="ba",
                         params=ProtocolParams(leader_prob=0.9, verifier_prob=0.9,
                                               lookback=1, cert_threshold=4,
                                               horizon=12),
                         payments_per_round=2)
    _, metrics = run_scenario(cfg)
    assert not any("bootstrap" in rec.flags for rec in metrics.rounds)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(rounds=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(num_genesis_users=1).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(consensus_mode="bft").validate()
    with pytest.raises(ValueError):
        ScenarioConfig(rounds=100,
                       params=ProtocolParams(horizon=50)).validate()
