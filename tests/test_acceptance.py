"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Budgeted criteria assert their wall-clock limits as well as their outcomes.
"""

import random
import time
from collections import namedtuple
from pathlib import Path

import pytest

import algosim.cli as cli
import algosim.modelcheck as modelcheck
from algosim.adversary import AdversaryConfig, AttackFailedError, bribe_and_recertify
from algosim.consensus import GradedValue, gc_grade
from algosim.crypto import KeyRegistry, be8
from algosim.engine import ScenarioConfig, run_scenario
from algosim.ledger import block_hash, users_at, validate_block, verify_chain
from algosim.sortition import ProtocolParams

from conftest import idle_chain, make_registry, view_committee, view_credential

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

Vote = namedtuple("Vote", "voter value")


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- shared honest batch (criteria 3 and 10) ------------------------------------

HONEST_BATCH = ScenarioConfig(
    seed=0, num_genesis_users=100, initial_balance=1000, rounds=50,
    consensus_mode="both",
    params=ProtocolParams(leader_prob=0.05, verifier_prob=0.2, lookback=3,
                          max_ba_steps=9, cert_threshold=14, horizon=64),
    payments_per_round=5)


@pytest.fixture(scope="session")
def honest_batch():
    results = []
    start = time.perf_counter()
    for seed in range(100):
        cfg = ScenarioConfig(
            seed=seed, num_genesis_users=HONEST_BATCH.num_genesis_users,
            initial_balance=HONEST_BATCH.initial_balance,
            rounds=HONEST_BATCH.rounds, consensus_mode="both",
            params=HONEST_BATCH.params,
            payments_per_round=HONEST_BATCH.payments_per_round)
        _, metrics = run_scenario(cfg)
        results.append(metrics)
    return results, time.perf_counter() - start


def test_criterion_01_genesis_fork_attack():
    """Corrupting an early minority user set rebuilds a longer chain whose
    every block passes validation, deterministically, across 100 seeds."""
    params = ProtocolParams(leader_prob=1.0, verifier_prob=1.0, lookback=3,
                            max_ba_steps=9, cert_threshold=7, horizon=20)
    start = time.perf_counter()
    for seed in range(100):
        cfg = ScenarioConfig(
            seed=seed, num_genesis_users=10, initial_balance=1000, rounds=12,
            consensus_mode="simple", params=params,
            adversary=AdversaryConfig(strategy="genesis_fork", fork_round=2),
            payments_per_round=2, new_users_per_round=3)
        chains, metrics = run_scenario(cfg)
        honest, fork = chains
        assert len(users_at(honest, 2)) * 3 < len(users_at(honest, 12))
        assert len(fork.blocks) == len(honest.blocks) + 1, f"seed {seed}"
        assert verify_chain(fork) == [], f"seed {seed}"
        assert metrics.forks_detected == 1, f"seed {seed}"
        assert metrics.fork_reports[0].classification == "genesis-fork"
    elapsed = time.perf_counter() - start
    report(1, elapsed < 5.0,
           f"100/100 seeds forked, forged chains verify, {elapsed:.2f}s < 5s")


def test_criterion_01_cli_round_trip(tmp_path, capsys):
    """The attack subcommand exports a forked chain that the verify-chain
    subcommand accepts."""
    out = tmp_path / "fork"
    code = cli.main(["attack", "genesis-fork", "--config",
                     str(FIXTURES / "genesis_fork.cfg"), "--out", str(out)])
    assert code == 0
    code = cli.main(["verify-chain", "--chain", str(out / "chain_fork0.jsonl"),
                     "--config", str(FIXTURES / "genesis_fork.cfg")])
    capsys.readouterr()
    report(1, code == 0, "CLI attack + verify-chain round trip (exit 0)")


def test_criterion_02_bribery_attack():
    """Full key retention lets the adversary re-certify a finalized round;
    one key short of the threshold fails with the exact deficit."""
    cfg = cli.load_config(str(FIXTURES / "bribery.cfg"))
    chains, metrics = run_scenario(cfg)
    honest = chains[0]
    registry = honest.registry
    target = cfg.adversary.target_round

    assert metrics.forks_detected == 1
    assert metrics.fork_reports[0].classification == "bribery-fork"
    assert metrics.fork_reports[0].round == target

    alt = bribe_and_recertify(honest, target, registry.retained_records(target))
    assert block_hash(alt) != block_hash(honest.blocks[target])
    assert validate_block(honest, alt) == []

    # exact boundary: records of cert_threshold - 1 genuine committee members
    prev_seed = honest.blocks[target - 1].seed
    usable, owners = [], set()
    for rec in registry.retained_records(target):
        if rec.step < 2 or rec.owner in owners:
            continue
        if view_credential(rec.owner, target, rec.step, prev_seed,
                           honest) is None:
            continue
        if len(owners) == cfg.params.cert_threshold - 1:
            break
        owners.add(rec.owner)
        usable.append(rec)
    with pytest.raises(AttackFailedError) as err:
        bribe_and_recertify(honest, target, usable)
    ok = (err.value.have == cfg.params.cert_threshold - 1
          and err.value.need == cfg.params.cert_threshold)
    report(2, ok, "alternative block certified and validated; "
                  f"deficit reported exactly ({err.value.have} of "
                  f"{err.value.need})")


def test_criterion_03_agreement_equals_simple_vote(honest_batch):
    """Across 100 honest seeds of 50 rounds, the agreement pipeline and the
    two-step majority rule finalize the same digest every round."""
    results, elapsed = honest_batch
    mismatches = 0
    rounds_checked = 0
    for metrics in results:
        for rec in metrics.rounds:
            if rec.equivalent is None:
                continue
            rounds_checked += 1
            mismatches += 0 if rec.equivalent else 1
    ok = mismatches == 0 and elapsed < 60.0
    report(3, ok, f"{rounds_checked} rounds, {mismatches} mismatches, "
                  f"batch {elapsed:.1f}s < 60s")


def test_criterion_04_no_two_supermajorities():
    """Exhaustively, with up to floor(n/3) equivocating voters on committees
    of 4..12, no two distinct values both clear the strict two-thirds
    distinct-voter threshold."""
    start = time.perf_counter()
    counterexamples = modelcheck.check_vote_safety(range(4, 13))
    elapsed = time.perf_counter() - start
    ok = counterexamples == [] and elapsed < 30.0
    report(4, ok, f"committees of 4..12, {len(counterexamples)} "
                  f"counterexamples, {elapsed:.2f}s < 30s")


def test_criterion_05_grading_thresholds():
    """Boundary table of the grading rule on a committee of nine."""
    cases = [
        (7, GradedValue("x", 2)),
        (4, GradedValue("x", 1)),
        (2, GradedValue(None, 0)),
    ]
    ok = all(gc_grade([Vote(i, "x") for i in range(k)], 9) == expected
             for k, expected in cases)
    six = gc_grade([Vote(i, "x") for i in range(6)], 9)
    ok = ok and six.grade != 2 and six == GradedValue("x", 1)
    report(5, ok, "7/9 grades 2, 4/9 grades 1, 2/9 grades 0, 6/9 not 2")


def test_criterion_06_binary_agreement_model_check():
    """Committees of 4..7 with an honest supermajority: agreement and
    validity hold under every per-recipient Byzantine message pattern and
    every coin sequence; every non-equivocating instance decides within the
    step budget; and the two reunification lemmas that bound the equivocating
    case (some coin value always unifies honest bits; unified bits decide
    within one iteration under any messages) hold exhaustively."""
    rep = modelcheck.model_check_bba(sizes=(4, 5, 6, 7), max_steps=9)
    detail = (f"{rep.instances} instances: "
              f"{len(rep.agreement_violations)} agreement, "
              f"{len(rep.validity_violations)} validity, "
              f"{len(rep.termination_violations)} termination, "
              f"{len(rep.coin_progress_violations)}+"
              f"{len(rep.unanimity_absorb_violations)} lemma violations")
    report(6, rep.ok(), detail)


def test_criterion_07_committee_size_statistics():
    """With selection probability 0.2 over 100 eligible users, the mean
    realized committee size over 1000 rounds sits within half a member of
    the binomial mean of 20."""
    start = time.perf_counter()
    registry = make_registry(seed=1234, users=range(1, 101))
    params = ProtocolParams(leader_prob=0.05, verifier_prob=0.2, lookback=3,
                            max_ba_steps=9, cert_threshold=14, horizon=2048)
    chain = idle_chain(registry, {u: 100 for u in range(1, 101)}, 1002, params)
    sizes = [len(view_committee(r, 2, chain.blocks[r - 1].seed, chain))
             for r in range(3, 1003)]
    elapsed = time.perf_counter() - start
    mean = sum(sizes) / len(sizes)
    ok = 19.5 <= mean <= 20.5 and elapsed < 5.0
    report(7, ok, f"mean committee {mean:.3f} in [19.5, 20.5] over "
                  f"{len(sizes)} rounds, {elapsed:.2f}s < 5s")


def test_criterion_08_signature_uniqueness_fuzz():
    """10^4 fuzzed (key, message) pairs: signing is deterministic and no
    constructed second signature is ever accepted."""
    registry = KeyRegistry(99, horizon=4, max_step=4)
    users = list(range(1, 51))
    for u in users:
        registry.register_user(u)
    rng = random.Random(7)
    violations = 0
    for i in range(10_000):
        owner = users[i % len(users)]
        message = be8(i) + rng.randbytes(8)
        sig = registry.unique_sign(owner, message)
        if registry.unique_sign(owner, message) != sig:
            violations += 1
        if not registry.verify_unique(owner, message, sig):
            violations += 1
        # candidate second signatures: a bit flip, fresh randomness, another
        # user's signature, and a signature over a different message
        flipped = bytearray(sig)
        flipped[i % 32] ^= 0x40
        for candidate in (bytes(flipped), rng.randbytes(32),
                          registry.unique_sign(users[(i + 1) % 50], message),
                          registry.unique_sign(owner, message + b"x")):
            if candidate != sig and registry.verify_unique(owner, message,
                                                           candidate):
                violations += 1
    report(8, violations == 0, f"10000 pairs, {violations} violations")


def test_criterion_09_determinism_regression(tmp_path, capsys):
    """Two runs of the same config and seed write byte-identical metric and
    chain files, and the compare subcommand agrees."""
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = str(FIXTURES / "honest.cfg")
    assert cli.main(["run", "--config", cfg, "--seed", "7", "--out", str(a)]) == 0
    assert cli.main(["run", "--config", cfg, "--seed", "7", "--out", str(b)]) == 0
    identical = ((a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
                 and (a / "chain.jsonl").read_bytes() == (b / "chain.jsonl").read_bytes())
    code = cli.main(["compare", str(a / "metrics.jsonl"),
                     str(b / "metrics.jsonl")])
    capsys.readouterr()
    report(9, identical and code == 0,
           "metric and chain files byte-identical; compare exit 0")


def test_criterion_10_honest_runs_never_fork(honest_batch):
    """No fork report in any of the 100 honest 50-round runs."""
    results, _ = honest_batch
    forked = sum(m.forks_detected for m in results)
    report(10, forked == 0, f"100 runs, {forked} forks detected")
