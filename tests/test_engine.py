import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import algosim.cli as cli
import algosim.crypto as crypto
import algosim.ledger as ledger
from algosim.adversary import AdversaryConfig
from algosim.crypto import KeyRegistry, KeyState
from algosim.engine import (
    EngineError,
    ReleasedBlockError,
    ScenarioConfig,
    SimulationRun,
    detect_fork,
    metrics_to_lines,
    round_line,
    run_scenario,
    summary_line,
)
from algosim.ledger import (
    IncompatibleGenesisError,
    Status,
    apply_payset,
    block_hash,
    cert_payload,
    chain_from_lines,
    users_at,
    validate_block,
    verify_chain,
)
from algosim.netsim import Network
from algosim.sortition import ProtocolParams, select_committee

from conftest import (
    destroyed_masks,
    export_lines,
    idle_chain,
    key_rows,
    make_registry,
    scenario_configs,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

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


@pytest.mark.parametrize("source", ["SMALL", "bribery.cfg", "genesis_fork.cfg"])
def test_honest_chain_fully_validates(small_run, source):
    # the engine does not check the blocks it builds; the validator must
    # accept every one, also when every user keeps keys (bribery.cfg) and
    # with users joining each round (genesis_fork.cfg)
    if source == "SMALL":
        chains, _ = small_run
    else:
        cfg = cli.load_config(str(FIXTURES / source))
        chains, _ = run_scenario(cfg)
    chain = chains[0]
    if source == "bribery.cfg":
        assert chain.registry.retained_records()
    if source == "genesis_fork.cfg":
        assert max(users_at(chain, chain.tip_round)) > cfg.num_genesis_users
    assert verify_chain(chain) == []


@pytest.mark.parametrize("mode", ["ba", "simple", "both"])
def test_consumed_keys_destroyed_under_honest_policy(small_run, mode):
    # Recompute every committee the run drew: each key the run signed with
    # ends DESTROYED, every other key stays AVAILABLE, and the destroyed keys
    # number exactly the messages the run broadcast.
    if mode == SMALL.consensus_mode:
        chains, metrics = small_run
    else:
        chains, metrics = run_scenario(
            SMALL._replace(consensus_mode=mode))
    chain = chains[0]
    registry = chain.registry
    params = SMALL.params
    assert registry.retained_records() == []
    assert key_rows(registry)[1] == {}  # no retained row
    signed = 0
    for rec in metrics.rounds:
        if rec.round < params.lookback:
            assert rec.committee_sizes == () and rec.message_count == 0
            continue
        r = rec.round
        eligible = sorted(users_at(chain, r - params.lookback))
        cert_voters = {}
        for m in chain.blocks[r].cert:
            cert_voters.setdefault(m.step, set()).add(m.voter)
        # certification starts at the decision step (never before step 2)
        cert_from = max(rec.steps_to_decision, 2)
        for s, size in enumerate(rec.committee_sizes, 1):
            committee = [c.user for c in select_committee(
                r, s, chain.blocks[r - 1].seed, eligible, params, registry)]
            assert len(committee) == size
            destroyed = {u for u in committee
                         if registry.ephemeral_state(u, r, s) == KeyState.DESTROYED}
            if s >= cert_from:
                assert destroyed == cert_voters.pop(s, set())
            elif s == 3:
                # graded consensus votes only when step 2 gave a value
                assert destroyed in (set(), set(committee))
            else:
                # proposals, step-2 votes and binary agreement votes
                assert destroyed == set(committee)
            signed += len(destroyed)
        assert cert_voters == {}
    # every broadcast message is signed with one ephemeral key and reaches
    # each of the users; no key outside the committees above was touched
    assert signed * SMALL.num_genesis_users == \
        sum(rec.message_count for rec in metrics.rounds)
    assert sum(m.bit_count() for m in destroyed_masks(registry).values()) == \
        signed
    assert signed > 0


def test_determinism_bit_identical(small_run):
    chains_a, metrics_a = small_run
    chains_b, metrics_b = run_scenario(SMALL)
    assert metrics_to_lines(metrics_a) == metrics_to_lines(metrics_b)
    assert export_lines(chains_a[0]) == export_lines(chains_b[0])


def test_regression_golden_tip(small_run):
    # frozen after the first verified execution; any protocol change that
    # alters the transcript must be deliberate
    chains, _ = small_run
    assert block_hash(chains[0].tip()).hex() == (
        "df66e2414f67cb9c8ab4e8bf589278e16d2efe5caeb7b1a2f236797366134c98")


# SHA-256 of the metrics and chain files of SMALL in every mode, with and
# without joining users, recorded when each step's rule still ran once per
# committee member.  A change to any mode's transcript, message counts or
# decision steps shows here, not only in the `both`-mode tip above.
TRANSCRIPT_DIGESTS = {
    ("ba", 0): "b3cd504dc5ebc73aa7845e85c9b87a1a3ca8f066d4f4781f55d98a20773f8bdf",
    ("ba", 2): "5932d3305c06c7a40e593b8589573d2c90551e9a95a75125b12ae0f262e87494",
    ("simple", 0): "b8b15f17fbf6c006c09ad2309e640d477cc24540f5b6b5546a039de542795e6b",
    ("simple", 2): "1a4d359a9ff717616087c49f6a8367341611afa3d5131f63c83d4e5da4af2020",
    ("both", 0): "87a15c6f1bc3f8b50bdb7795b256166002f9f17ab88b587c7942ecb3c77cd797",
    ("both", 2): "d1e8aff21b34e93a85e151dc4d40de5a8c8ee9c2abdab6f427998da4760d8593",
}


def transcript_digest(chains, metrics):
    text = "\n".join(metrics_to_lines(metrics) + export_lines(chains[0]))
    return hashlib.sha256((text + "\n").encode()).hexdigest()


@pytest.mark.parametrize("mode, new_users", sorted(TRANSCRIPT_DIGESTS))
def test_transcript_digest_per_mode(mode, new_users):
    cfg = SMALL._replace(consensus_mode=mode,
                         new_users_per_round=new_users)
    assert transcript_digest(*run_scenario(cfg)) == \
        TRANSCRIPT_DIGESTS[mode, new_users]


def test_transcript_does_not_depend_on_the_hash_seed():
    # str and bytes hashes, and so set order, change with PYTHONHASHSEED;
    # fresh interpreters, as this one's hash seed is fixed at start-up; each
    # rebuilds SMALL from its repr and prints the text transcript_digest hashes
    probe = ("from algosim.adversary import AdversaryConfig; "
             "from algosim.engine import ScenarioConfig, metrics_to_lines, "
             "run_scenario; "
             "from algosim.ledger import chain_pieces; "
             "from algosim.sortition import ProtocolParams; "
             f"chains, metrics = run_scenario({SMALL!r}); "
             "print('\\n'.join(metrics_to_lines(metrics)), "
             "''.join(chain_pieces(chains[0])), sep='\\n', end='')")
    procs = [subprocess.Popen(
        [sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                 PYTHONHASHSEED=seed))
        for seed in ("0", "98765")]
    outs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert [hashlib.sha256(out.encode()).hexdigest() for out in outs] == \
        [TRANSCRIPT_DIGESTS["both", 0]] * 2


# Under SMALL every round decides at the first binary-agreement step.  Small
# committees with a three-step budget reach the other agreement paths:
# decisions at steps 5, 6 and 7, rounds that exhaust the budget
# (`no-termination`) and, in `both`, rounds where the two rules disagree.
# Recorded on the engine before its round was split into phase functions.
SHORT_BUDGET = SMALL._replace(
    seed=2, num_genesis_users=20, rounds=30, payments_per_round=3,
    params=ProtocolParams(leader_prob=0.1, verifier_prob=0.1, lookback=1,
                          max_ba_steps=3, cert_threshold=1, horizon=32))
SHORT_BUDGET_DIGESTS = {
    "ba": "672c409e85bab7cf2d258e03feea5d0e83c1a90052ce9244b78b25afedc6dfb1",
    "both": "e1baf93abb80c0d1217dea04cb90ccb9e5afa8ad9aa4867a9decfd6209efbe4d",
}


@pytest.mark.parametrize("mode", sorted(SHORT_BUDGET_DIGESTS))
def test_transcript_digest_short_budget(mode):
    chains, metrics = run_scenario(
        SHORT_BUDGET._replace(consensus_mode=mode))
    rounds = metrics.rounds
    assert {rec.steps_to_decision for rec in rounds} == {5, 6, 7}
    assert sum(rec.flags == ("no-termination",) for rec in rounds) == 8
    assert sum(rec.equivalent is False for rec in rounds) == \
        (9 if mode == "both" else 0)
    assert transcript_digest(chains, metrics) == SHORT_BUDGET_DIGESTS[mode]


@settings(deadline=None, max_examples=40)
@given(scenario_configs("both"))
def test_decisions_differ_only_across_an_empty_committee(config):
    # Every member is honest and delivery is broadcast-only, so a non-empty
    # committee is unanimous: graded consensus grades a step-2 majority 2 and
    # agreement decides it at the first step.  Only an empty committee among
    # the agreement steps (3 through the last binary-agreement step, at most
    # 3 + max_ba_steps) can send agreement elsewhere than the simple vote.
    records = []
    try:
        run_scenario(config, lambda committed: records.append(committed.record))
    except EngineError:  # an unreachable certificate ends the run there
        pass
    assert records[0] is None  # genesis
    for rec in records[1:]:
        if "bootstrap" in rec.flags:
            continue
        sizes = rec.committee_sizes
        assert rec.steps_to_decision <= 3 + config.params.max_ba_steps + 1
        agreement = [sizes[s - 1] for s in range(3, rec.steps_to_decision)]
        if not rec.equivalent:
            assert 0 in agreement, rec
        if all(sizes):
            assert rec.equivalent, rec


MUTATIONS = ("seed", "prev_hash", "payment_order", "cert_bit", "cert_digest",
             "cert_sig", "cert_step", "cert_voter", "cert_credential",
             "duplicate_voter", "thin_cert")


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_single_field_mutation_of_certified_block_is_rejected(small_run, data):
    chains, _ = small_run
    chain, params = chains[0], SMALL.params
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    rounds = [r for r in range(params.lookback, len(chain.blocks))
              if kind != "payment_order" or len(chain.blocks[r].payset) >= 2]
    block = chain.blocks[data.draw(st.sampled_from(rounds), label="round")]
    assert validate_block(chain, block) == []
    if kind in ("seed", "prev_hash"):
        value = data.draw(st.binary(min_size=32, max_size=32)
                          .filter(lambda v: v != getattr(block, kind)))
        mutated = block._replace(**{kind: value})
    elif kind == "payment_order":
        payset = list(block.payset)
        i, j = data.draw(st.lists(st.integers(0, len(payset) - 1), min_size=2,
                                  max_size=2, unique=True))
        payset[i], payset[j] = payset[j], payset[i]
        mutated = block._replace(payset=tuple(payset))
    elif kind == "thin_cert":
        mutated = block.with_cert(block.cert[:params.cert_threshold - 1])
    else:
        cert = list(block.cert)
        k = data.draw(st.integers(0, len(cert) - 1))
        m = cert[k]
        j = data.draw(st.integers(0, len(cert) - 2))
        other = cert[j + (j >= k)]
        if kind == "duplicate_voter":
            cert[k] = other
        elif kind == "cert_credential":  # a valid credential of another voter
            cert[k] = m._replace(credential=other.credential)
        else:
            field, values = {
                "cert_bit": ("value", st.just(bytes([1 - m.value[0]]) + m.value[1:])),
                "cert_digest": ("value", st.binary(min_size=32, max_size=32)
                                .map(lambda d: m.value[:1] + d)),
                "cert_sig": ("sig", st.binary(min_size=32, max_size=32)),
                "cert_step": ("step", st.integers(1, params.max_step)),
                "cert_voter": ("voter", st.integers(1, SMALL.num_genesis_users)),
            }[kind]
            value = data.draw(values.filter(lambda v: v != getattr(m, field)))
            cert[k] = m._replace(**{field: value})
        mutated = block.with_cert(cert)
    assert validate_block(chain, mutated)


def test_seed_changes_transcript():
    cfg = ScenarioConfig(seed=43, num_genesis_users=10, rounds=20,
                         consensus_mode="both", params=SMALL.params,
                         payments_per_round=3)
    chains, _ = run_scenario(cfg)
    assert block_hash(chains[0].tip()).hex() != (
        "df66e2414f67cb9c8ab4e8bf589278e16d2efe5caeb7b1a2f236797366134c98")


def test_nobody_can_pay_so_no_payment_and_no_new_user():
    # a payment needs a payer of 10 units and a new user a payer of 2: with
    # one unit each, both workload loops stop before their first draw
    cfg = SMALL._replace(initial_balance=1, rounds=6, new_users_per_round=2)
    chains, _ = run_scenario(cfg)
    chain = chains[0]
    assert [b.payset for b in chain.blocks] == [()] * 7
    assert users_at(chain, chain.tip_round) == set(
        range(1, cfg.num_genesis_users + 1))
    assert not chain.registry.is_registered(cfg.num_genesis_users + 1)


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
    assert verify_chain(chain) == []
    payload = cert_payload(1, block_hash(chain.blocks[5]))
    assert all(m.value == payload for m in chain.blocks[5].cert)


def test_simple_mode_runs_two_steps():
    cfg = ScenarioConfig(seed=9, num_genesis_users=10, rounds=10,
                         consensus_mode="simple", params=SMALL.params,
                         payments_per_round=2)
    chains, metrics = run_scenario(cfg)
    chain = chains[0]
    assert verify_chain(chain) == []
    for rec in metrics.rounds:
        if "bootstrap" in rec.flags:
            continue
        assert rec.ba_digest is None
        assert rec.simple_digest is not None
        assert rec.steps_to_decision == 3
        assert len(rec.committee_sizes) < 3 or rec.committee_sizes[2] >= 0


def test_fifty_round_chain_validates_block_by_block():
    # every block the honest engine emits passes the validator
    cfg = cli.load_config(str(FIXTURES / "honest.cfg"), seed=11)
    chains, _ = run_scenario(cfg)
    chain = chains[0]
    assert len(chain.blocks) == 51
    # genesis plus a window of lookback + 1 rounds, not one status per round
    assert len(chain._statuses) <= cfg.params.lookback + 2
    assert verify_chain(chain) == []


def test_verifying_a_run_chain_replays_each_payset_once(monkeypatch):
    # a run's chain has its status window at its tip, so validating it in
    # place would replay each early round's status from genesis (3,434
    # replays here); its blocks are validated in a fresh chain instead, and
    # the chain is left as it was
    cfg = cli.load_config(str(FIXTURES / "honest.cfg"))
    chain = run_scenario(cfg)[0][0]
    blocks, statuses = list(chain.blocks), dict(chain._statuses)
    replays = []
    apply = ledger.apply_payset

    def counted(status, *args):
        replays.append(status.round)
        return apply(status, *args)

    monkeypatch.setattr(ledger, "apply_payset", counted)
    assert verify_chain(chain) == []
    assert sorted(replays) == list(range(len(blocks)))
    assert chain.blocks == blocks and chain._statuses == statuses


def replayed_statuses(chain) -> list[Status]:
    """The status entering each round 0..len(chain.blocks), folded from
    genesis with `apply_payset`: the reference for the status window."""
    statuses = [Status(0, dict(chain.genesis_status.balances))]
    for b in chain.blocks:
        statuses.append(apply_payset(statuses[-1], b.payset, chain.registry))
    return statuses


def test_status_window_misses_equal_a_fresh_replay():
    cfg = cli.load_config(str(FIXTURES / "honest.cfg"), seed=4, rounds=20)
    chain = run_scenario(cfg)[0][0]
    fresh = replayed_statuses(chain)
    chain.status_entering(len(chain.blocks))  # the window's top
    kept = set(chain._statuses)
    assert len(kept) < len(chain.blocks)
    # evicted rounds first, then newest to oldest, then in chain order
    for r in [r for r in range(len(chain.blocks)) if r not in kept] \
            + list(range(len(chain.blocks), -1, -1)) \
            + list(range(len(chain.blocks) + 1)):
        assert chain.status_entering(r) == fresh[r]
        if r < len(chain.blocks):
            assert users_at(chain, r) == fresh[r + 1].holders
    assert set(chain._statuses) == kept


@settings(deadline=None, max_examples=20)
@given(config=scenario_configs("both"), data=st.data())
def test_status_window_holds_lookback_plus_one_rounds(config, data):
    # at every lookback the window keeps genesis and `lookback + 1` rounds,
    # and a read in any order equals the replay from genesis
    run = SimulationRun(config)
    try:
        for r in range(1, config.rounds + 1):
            run.run_round(r)
    except EngineError:  # an unreachable certificate ends the run there
        pass
    chain = run.chain
    assert len(chain._statuses) <= chain.params.lookback + 2
    fresh = replayed_statuses(chain)
    order = data.draw(st.permutations(range(len(fresh))), label="order")
    for r in order:
        assert chain.status_entering(r) == fresh[r]
        assert len(chain._statuses) <= chain.params.lookback + 2


def test_verifying_a_chain_stores_no_key_records():
    # re-validation derives each voter's key seed and keeps nothing
    cfg = cli.load_config(str(FIXTURES / "honest.cfg"), seed=0)
    chains, _ = run_scenario(cfg)
    registry = KeyRegistry(cfg.seed, horizon=cfg.params.horizon,
                           max_step=cfg.params.max_step)
    for u in range(1, cfg.num_genesis_users + 1):
        registry.register_user(u)
    chain = chain_from_lines(export_lines(chains[0]), registry, cfg.params)
    assert verify_chain(chain) == []
    assert key_rows(registry) == ({}, {})
    assert {registry.ephemeral_state(m.voter, m.round, m.step)
            for b in chain.blocks for m in b.cert} == {KeyState.AVAILABLE}
    assert len(chain._statuses) <= cfg.params.lookback + 2


def test_message_counts_accumulate(small_run):
    _, metrics = small_run
    assert metrics.total_messages == sum(r.message_count for r in metrics.rounds)
    assert metrics.total_messages > 0


@pytest.mark.parametrize("mode", ["ba", "simple", "both"])
def test_each_voting_step_signs_in_one_registry_call(monkeypatch, mode):
    # every step, the proposal included, spends its members' keys in one
    # call, never one call a member and never a second call for the leader
    calls = []
    batch = KeyRegistry.spend_keys

    def recording(self, owners, round, step):
        calls.append((round, step, len(owners)))
        return batch(self, owners, round, step)

    monkeypatch.setattr(KeyRegistry, "spend_keys", recording)
    cfg = cli.load_config(str(FIXTURES / "honest.cfg"), seed=3, rounds=12,
                          mode=mode)
    _, metrics = run_scenario(cfg)
    assert len({(r, s) for r, s, _ in calls}) == len(calls)
    assert all(n >= 1 for _, _, n in calls)
    for rec in metrics.rounds:
        # every message, proposals included, is sent by a spent key
        broadcast = rec.message_count // cfg.num_genesis_users
        assert sum(n for r, _, n in calls if r == rec.round) == broadcast
        assert sum(n for r, s, n in calls if (r, s) == (rec.round, 1)) == \
            sum(rec.committee_sizes[:1])  # step 1's, none when bootstrap
    # the proposal, the vote and the certificate of every round that has them
    assert len(calls) >= 3 * sum("bootstrap" not in rec.flags
                                 for rec in metrics.rounds)


@pytest.mark.parametrize("mode", ["ba", "simple", "both"])
def test_only_certificate_votes_are_signed(monkeypatch, mode):
    # every other message spends its key but is never signed: nothing reads
    # it, and the leader's block is checked through its seed and certificate
    signed_rounds = []
    sign = crypto._ephemeral_sig

    def recording(head, owner, tail, message):
        signed_rounds.append(int.from_bytes(tail[:8], "big"))
        return sign(head, owner, tail, message)

    monkeypatch.setattr(crypto, "_ephemeral_sig", recording)
    chains, metrics = run_scenario(SMALL._replace(consensus_mode=mode))
    for rec in metrics.rounds:
        assert signed_rounds.count(rec.round) == \
            len(chains[0].blocks[rec.round].cert)
    assert any(rec.committee_sizes[:1] > (1,) for rec in metrics.rounds)
    assert any(not rec.empty_block for rec in metrics.rounds)


def test_mismatched_rounds_write_nothing_to_stderr(capfd):
    # a fresh interpreter with no logging configured, where a library log
    # would reach stderr through Python's last-resort handler; the metrics
    # record each mismatch (`equivalent` false, both digests)
    both = SHORT_BUDGET._replace(consensus_mode="both")
    probe = ("from algosim.adversary import AdversaryConfig; "
             "from algosim.engine import ScenarioConfig, run_scenario; "
             "from algosim.sortition import ProtocolParams; "
             f"_, metrics = run_scenario({both!r}); "
             "print(sum(rec.equivalent is False for rec in metrics.rounds))")
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    out, err = capfd.readouterr()
    assert (out, err) == ("9\n", "")


@pytest.mark.parametrize("mode", ["ba", "simple", "both"])
def test_each_step_sends_once_per_sender_in_ascending_order(monkeypatch,
                                                            mode):
    # netsim delivers in send order; that this is ascending sender order,
    # with no repeated sender within a step, is the engine's doing
    steps, sent = [], []
    broadcast, deliver = Network.broadcast, Network.step

    def record_broadcast(net, sender, payload):
        sent.append(sender)
        broadcast(net, sender, payload)

    def record_step(net):
        steps.append(sent[:])
        sent.clear()
        return deliver(net)

    monkeypatch.setattr(Network, "broadcast", record_broadcast)
    monkeypatch.setattr(Network, "step", record_step)
    _, metrics = run_scenario(SMALL._replace(consensus_mode=mode))
    # one delivery per committee step of each round: no step runs twice
    assert len(steps) == sum(len(rec.committee_sizes)
                             for rec in metrics.rounds)
    assert sum(map(len, steps)) * SMALL.num_genesis_users == \
        metrics.total_messages
    for senders in steps:
        assert senders == sorted(set(senders))
    assert any(len(senders) > 1 for senders in steps)


class TestDetectFork:
    def test_identical_chains(self, small_run):
        chains, _ = small_run
        chain = chains[0]
        assert detect_fork(chain, chain) == []

    def test_prefix_extension_is_not_a_fork(self, small_run):
        chains, _ = small_run
        chain = chains[0]
        shorter = chain.prefix(15)
        assert detect_fork(chain, shorter) == []

    def test_genesis_fork_fixture_reports_once(self):
        cfg = ScenarioConfig(
            seed=1, num_genesis_users=10, rounds=12, consensus_mode="simple",
            params=ProtocolParams(leader_prob=1.0, verifier_prob=1.0,
                                  lookback=3, cert_threshold=7, horizon=20),
            adversary=AdversaryConfig(strategy="genesis_fork", fork_round=2),
            payments_per_round=2, new_users_per_round=3)
        chains, metrics = run_scenario(cfg)
        assert [r.round for r in metrics.fork_reports] == [3]
        reports = detect_fork(*chains)
        assert len(reports) == 1
        assert reports[0].classification == "protocol-violation"  # unhinted

    def test_pair_with_an_invalid_block_is_not_a_fork(self):
        # the bribed block with another seed keeps its certificate, which now
        # signs another digest: two rules broken, so no fork is reported
        chains, metrics = run_scenario(
            cli.load_config(str(FIXTURES / "bribery.cfg")))
        assert len(detect_fork(*chains)) == metrics.forks_detected == 1
        target = metrics.fork_reports[0].round
        alt = chains[1].blocks[target]
        forged = alt._replace(seed=bytes(32)).with_cert(alt.cert)
        bad = chains[1].prefix(target)
        reasons = validate_block(bad, forged)
        assert "seed rule violated for non-empty block" in reasons
        assert any(r.endswith("wrong block digest") for r in reasons)
        bad.append(forged)
        assert detect_fork(chains[0], bad) == []

    def test_incompatible_genesis(self):
        # registries of different seeds give different genesis seeds
        a = idle_chain(make_registry(seed=0), {1: 5, 2: 5}, 2)
        b = idle_chain(make_registry(seed=9), {1: 5, 2: 5}, 2)
        with pytest.raises(IncompatibleGenesisError):
            detect_fork(a, b)

    def test_walk_into_a_released_block_is_a_named_error(self, small_run):
        # the chains agree past the prefix the run kept, as a forged block
        # equal to the honest one would make them
        chains, _ = small_run
        released = chains[0].prefix(len(chains[0].blocks))
        released.blocks[5] = None
        with pytest.raises(ReleasedBlockError, match="round 5: "):
            detect_fork(chains[0], released)
        with pytest.raises(ReleasedBlockError, match="round 5: "):
            detect_fork(released, chains[0])


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
    assert verify_chain(chains[0]) == []
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
    # an invalid config cannot be constructed
    with pytest.raises(ValueError):
        ScenarioConfig(rounds=0)
    with pytest.raises(ValueError):
        ScenarioConfig(num_genesis_users=1)
    with pytest.raises(ValueError):
        ScenarioConfig(consensus_mode="bft")
    with pytest.raises(ValueError):
        ScenarioConfig(rounds=100, params=ProtocolParams(horizon=50))
    with pytest.raises(ValueError):
        ScenarioConfig()._replace(rounds=64)


def test_honest_run_writes_each_block_as_it_commits():
    # the blocks handed over are the unstreamed run's, in order, and the
    # chain keeps only those from round r - lookback - 1 on
    config = cli.load_config(str(FIXTURES / "honest.cfg"), rounds=12)
    lookback = config.params.lookback
    [whole], metrics = run_scenario(config)
    handed = []

    def sink(committed):
        # handed over as the tip, with the blocks the last round released
        chain, block = committed.chain, committed.block
        released = max(0, block.round - lookback - 2)
        assert chain.tip() is block and None not in chain.blocks[released:]
        assert chain.blocks[:released] == [None] * released
        handed.append(committed)

    [streamed], streamed_metrics = run_scenario(config, sink)
    assert [c.block for c in handed] == whole.blocks
    assert [c.record for c in handed] == [None, *metrics.rounds]
    assert streamed_metrics.rounds == ()  # the run held no record
    assert streamed_metrics._replace(wall_time=0) == \
        metrics._replace(wall_time=0, rounds=())
    kept = 12 - lookback - 1
    assert streamed.blocks == [None] * kept + whole.blocks[kept:]


@pytest.mark.parametrize("seed", range(4))
def test_honest_run_holds_under_950_bytes_a_round(seed):
    # a run that hands its rounds to a sink as they commit holds its status
    # window and its key state, a row of destroyed-key masks per round:
    # 317 to 486 B a round for seeds 0 to 3.  The name keeps the first
    # bound; holding the round records too took 630 to 800 B, and a dict
    # of committee sizes in each record and a (round, step) key for each
    # destroyed mask 1.0 to 1.2 KB
    def held(rounds):
        cfg = cli.load_config(str(FIXTURES / "honest.cfg"), seed=seed,
                              rounds=rounds, mode="ba")
        gc.collect()
        tracemalloc.start()
        try:
            _, metrics = run_scenario(cfg, lambda committed: None)
            gc.collect()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (metrics.round_count, metrics.rounds) == (rounds, ())
        return size

    per_round = (held(60) - held(20)) / 40  # the longer run first
    assert per_round < 600


@pytest.mark.parametrize("fixture", ["genesis_fork.cfg", "bribery.cfg"])
def test_attack_run_writes_each_block_and_keeps_its_prefix(fixture):
    # the blocks handed over are the unstreamed run's, in order; the chain
    # releases only blocks above the prefix the attack and `detect_fork` read
    # back and below the status window
    config = cli.load_config(str(FIXTURES / fixture), rounds=16)
    lookback, adv = config.params.lookback, config.adversary
    [whole, _], _ = run_scenario(config)
    handed = []

    def sink(committed):
        assert committed.chain.tip() is committed.block
        handed.append(committed.block)

    [streamed, _], metrics = run_scenario(config, sink)
    assert handed == whole.blocks
    if adv.strategy == "bribery":
        kept = adv.target_round
    else:
        kept = next(b.round for b in whole.blocks
                    if b.round > adv.fork_round and not b.is_empty())
    window = config.rounds - lookback - 1
    assert kept < window - 1  # some block is released
    assert streamed.blocks == (whole.blocks[:kept + 1]
                               + [None] * (window - kept - 1)
                               + whole.blocks[window:])
    assert metrics.forks_detected == 1


def attack_outcome(config, stream=False):
    """An attack's metrics lines and forged-chain lines, or its error; with
    `stream`, the round lines are formatted by a sink as rounds commit."""
    lines = []

    def sink(committed):
        if committed.record:
            lines.append(round_line(committed.record))
    try:
        chains, metrics = run_scenario(config, sink if stream else None)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    lines = [*lines, summary_line(metrics)] if stream else metrics_to_lines(metrics)
    return lines, [export_lines(chain) for chain in chains[1:]]


@settings(deadline=None, max_examples=60)
@given(fork_round=st.integers(0, 6), leader_prob=st.sampled_from([0.1, 0.2]),
       seed=st.integers(0, 2**16))
@example(fork_round=0, leader_prob=0.2, seed=0)  # forks at round 4
def test_streamed_genesis_fork_equals_the_held_one(fork_round, leader_prob,
                                                   seed):
    # a forged block equals an empty honest block, so the fork can be found
    # past fork_round + 1, and the run must keep every block up to it
    config = cli.load_config(str(FIXTURES / "genesis_fork.cfg"), seed=seed)
    config = config._replace(
        params=config.params._replace(leader_prob=leader_prob),
        adversary=config.adversary._replace(fork_round=fork_round))
    streamed = attack_outcome(config, stream=True)
    assert streamed == attack_outcome(config)


@settings(deadline=None, max_examples=60)
@given(target_round=st.integers(-2, 11),
       retention_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       seed=st.integers(0, 2**16))
def test_streamed_bribery_equals_the_held_one(target_round,
                                              retention_fraction, seed):
    config = cli.load_config(str(FIXTURES / "bribery.cfg"), seed=seed)
    config = config._replace(adversary=config.adversary._replace(
        target_round=target_round, retention_fraction=retention_fraction))
    streamed = attack_outcome(config, stream=True)
    assert streamed == attack_outcome(config)


def test_named_genesis_fork_is_found_past_the_round_after_the_fork():
    # the example above: blocks 1 to 3 are empty in both chains
    config = cli.load_config(str(FIXTURES / "genesis_fork.cfg"))
    config = config._replace(
        params=config.params._replace(leader_prob=0.2),
        adversary=config.adversary._replace(fork_round=0))
    _, metrics = run_scenario(config, lambda committed: None)
    assert [rep.round for rep in metrics.fork_reports] == [4]
