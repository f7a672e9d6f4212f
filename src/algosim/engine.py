"""Round driver: provisions users and keys, runs the per-round pipeline
(sortition, proposal, vote, agreement or simple majority, certification),
hands each committed round to one sink, invokes adversary strategies,
detects forks and counts the run's totals.

`run_round` composes a round from the phases of `consensus`: `propose_phase`,
the step-2 vote, `agree` (not in simple mode) and `certify`.  Every committee
step runs through one primitive in `run_round`: `step(s, value, sign)` selects
the (r, s) committee, has its members send `value` through `sign` in one call
(None: the step is silent), delivers, and returns the committee and the
delivered messages.  Every step from 2 on sends `ledger.Vote`s, cast
unsigned up to the decision step and signed over `cert_payload` by
`certify`; step 1 proposes through its own `sign` builder, where every
potential leader spends its key and only the leader attaches a block, unsigned.
Members send in committee order, so each step delivers at most one message
per sender, in ascending sender order.

A run is a pure function of its ScenarioConfig: every random stream is seeded
from the configured seed, so chains and metrics are bit-identical across
executions.
"""

from __future__ import annotations

import json
import random
import time
from typing import NamedTuple, Sequence

from . import consensus
from .adversary import (
    AdversaryConfig,
    AttackFailedError,
    bribe_and_recertify,
    fork_from,
)
from .crypto import KeyRegistry, UserId, be8, sha256
from .ledger import (
    Block,
    Chain,
    IncompatibleGenesisError,
    Payment,
    block_hash,
    build_payset,
    cert_payload,
    eligible,
    make_genesis,
    make_payment,
    next_block,
    validate_block,
)
from .netsim import Network
from .sortition import Checked, ProtocolParams, select_committee

CONSENSUS_MODES = ("ba", "simple", "both")
FORK_CLASSIFICATIONS = {"genesis_fork": "genesis-fork", "bribery": "bribery-fork"}


class EngineError(Exception):
    pass


class ReleasedBlockError(EngineError):
    """`detect_fork` walked into a block the run had released: the chains
    agreed past the kept prefix, which a genesis fork does only when a forged
    block equals the honest one, payset included."""


class _ScenarioFields(NamedTuple):
    seed: int = 0
    num_genesis_users: int = 10
    initial_balance: int = 1000
    rounds: int = 20
    params: ProtocolParams = ProtocolParams()
    consensus_mode: str = "ba"
    adversary: AdversaryConfig = AdversaryConfig()
    payments_per_round: int = 5
    new_users_per_round: int = 0


class ScenarioConfig(Checked, _ScenarioFields):
    __slots__ = ()

    def _check(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.num_genesis_users < 2:
            raise ValueError("need at least 2 genesis users")
        if self.initial_balance < 1:
            raise ValueError("initial_balance must be >= 1")
        if self.num_genesis_users * self.initial_balance >= 2**64:
            raise ValueError("total genesis money must be below 2**64")
        if self.payments_per_round < 0 or self.new_users_per_round < 0:
            raise ValueError(
                "payments_per_round and new_users_per_round must be >= 0")
        if self.consensus_mode not in CONSENSUS_MODES:
            raise ValueError(f"unknown consensus mode {self.consensus_mode!r}")
        if self.params.horizon < self.rounds + 1:
            raise ValueError("horizon must cover every round plus one")


class RoundRecord(NamedTuple):
    """One round's metrics.  `committee_sizes` holds the committee size of
    each step the round ran, steps 1, 2 and so on: its steps always run
    contiguously from 1 (`agree` takes steps 3 to 3 + k, and certification
    starts at 4 + k, or at 3 in simple mode)."""

    round: int
    leader: UserId | None
    committee_sizes: tuple[int, ...]
    steps_to_decision: int
    ba_digest: bytes | None
    simple_digest: bytes | None
    equivalent: bool | None
    empty_block: bool
    message_count: int
    flags: tuple[str, ...] = ()


class ForkReport(NamedTuple):
    round: int
    digest_a: bytes
    digest_b: bytes
    cert_a: tuple
    cert_b: tuple
    classification: str


class CommittedRound(NamedTuple):
    """A round as it commits, as a run's sink receives it: the chain it
    joined, its block (the chain's tip) and its record; genesis has none."""

    chain: Chain
    block: Block
    record: RoundRecord | None


class RunMetrics(NamedTuple):
    """A run's totals, counted as its rounds pass, and its fork reports.
    `rounds` holds the round records only when `run_scenario` was given no
    sink: a run hands each record to its sink and holds none."""

    round_count: int
    forks_detected: int
    fork_reports: list[ForkReport]
    total_messages: int
    wall_time: float
    attack_error: str | None = None
    rounds: Sequence[RoundRecord] = ()


def _sub_seed(seed: int, tag: bytes) -> int:
    return int.from_bytes(sha256(tag + be8(seed))[:8], "big")


class SimulationRun:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.params = config.params
        self.registry = KeyRegistry(config.seed, horizon=self.params.horizon,
                                    max_step=self.params.max_step)
        self.net = Network()
        self._workload_rng = random.Random(_sub_seed(config.seed, b"WORK"))
        self._policy_rng = random.Random(_sub_seed(config.seed, b"POLI"))
        genesis_users = range(1, config.num_genesis_users + 1)
        for u in genesis_users:
            self._register_user(u)
        self.next_uid = config.num_genesis_users + 1
        self.chain = make_genesis(
            {u: config.initial_balance for u in genesis_users}, self.registry,
            self.params)

    def _register_user(self, uid: UserId) -> None:
        self.registry.register_user(uid)
        self.net.add_node(uid)
        adv = self.config.adversary
        if (adv.strategy == "bribery"
                and self._policy_rng.random() < adv.retention_fraction):
            self.registry.keep_keys([uid])

    # -- workload -----------------------------------------------------------

    def _workload(self, round: int) -> list[Payment]:
        cfg = self.config
        rng = self._workload_rng
        balances = dict(self.chain.status_entering(round).balances)
        live = sorted(u for u, a in balances.items() if a > 0)
        payments: list[Payment] = []
        for _ in range(cfg.payments_per_round):
            # amount <= balance/10, so payers below 10 units sit a round out
            funded = [u for u in live if balances[u] >= 10]
            if not funded:
                break
            payer = rng.choice(funded)
            payee = rng.choice(live)
            amount = rng.randint(1, balances[payer] // 10)
            payments.append(make_payment(self.registry, payer, payee, amount, round))
            balances[payer] -= amount
            balances[payee] += amount
        for _ in range(cfg.new_users_per_round):
            funded = [u for u in live if balances[u] >= 2]
            if not funded:
                break
            payer = rng.choice(funded)
            uid = self.next_uid
            self.next_uid += 1
            self._register_user(uid)
            payments.append(make_payment(self.registry, payer, uid, 1, round))
            balances[payer] -= 1
            balances[uid] = 1
        return payments

    # -- round pipeline -------------------------------------------------------

    def run_round(self, r: int) -> RoundRecord:
        params = self.params
        mode = self.config.consensus_mode
        prev = self.chain.blocks[r - 1]
        empty = next_block(prev)
        if r < params.lookback:
            # No user clears the lookback rule yet: an uncertified empty block.
            self.chain.append(empty)
            return RoundRecord(
                r, None, (), 0, None, None, None, True, 0, ("bootstrap",))

        serving = sorted(eligible(r, self.chain))
        payset, after = build_payset(self._workload(r),
                                     self.chain.status_entering(r), self.registry)
        sizes: list[int] = []  # step s's committee size at index s - 1
        deliveries: list[int] = []

        def step(s, value, sign=consensus.cast):
            committee = select_committee(r, s, prev.seed, serving, params,
                                         self.registry)
            sizes.append(len(committee))
            if value is not None:
                for msg in sign(committee, value, self.registry):
                    self.net.broadcast(msg.credential.user, msg)
            deliveries.append(self.net.step())
            return committee, self.net.inbox_common()

        proposal = consensus.propose_phase(step, payset, self.chain)
        sv2, votes = step(2, block_hash(proposal.block or empty))
        majority = consensus.supermajority_value(votes, len(sv2))
        empty_digest = block_hash(empty)
        simple_digest = None if mode == "ba" else (majority or empty_digest)
        ba_digest = None
        decision_step = 3
        flags = ()
        if mode != "simple":
            agreement = consensus.agree(step, majority, prev.seed,
                                        params.max_ba_steps)
            ba_digest = agreement.value or empty_digest
            decision_step = 3 + len(agreement.tallies) + 1
            flags = agreement.flags
        committed = ba_digest or simple_digest
        is_empty = committed == empty_digest
        payload = cert_payload(1 if is_empty else 0, committed)
        cert = consensus.certify(step, payload, decision_step, params.max_step,
                                 params.cert_threshold)
        if cert is None:
            raise EngineError(f"round {r}: certificate threshold unreachable")
        # Votes only ever back the candidate or the empty block.
        block = empty if is_empty else proposal.block
        self.chain.append(block.with_cert(cert))
        if not is_empty:  # the leader's block holds `payset`, just applied
            self.chain.carry(self.chain.tip(), after)
        equivalent = ba_digest == simple_digest if mode == "both" else None
        return RoundRecord(
            r, proposal.leader, tuple(sizes), decision_step, ba_digest,
            simple_digest, equivalent, is_empty, sum(deliveries), flags)

    # -- adversary phase -------------------------------------------------------

    def run(self, sink, release: bool = True) -> tuple[list[Chain], RunMetrics]:
        """Hand genesis and then each round to `sink` as a `CommittedRound`
        as it commits; no round record is held, and the summary's totals are
        counted as the rounds pass.  With `release`, the chain then releases
        the block its window stops reading (`Chain.release`), so after round
        r it keeps the blocks from r - lookback - 1 on and the prefix an
        attack reads back: blocks 0 to `target_round` for bribery, and for a
        genesis fork blocks 0 through the first non-empty block after
        `fork_round`.  The forged chain is held whole.  Without `release`,
        the chain is held whole."""
        start = time.perf_counter()
        adv = self.config.adversary
        # The last round of the kept prefix; None while not yet known.  A
        # genesis fork copies blocks 0 to `fork_round`, and `detect_fork`
        # walks on past each round where both chains are empty (an empty
        # block's digest excludes its certificate), so it stops by the first
        # non-empty honest block after `fork_round`.
        kept = {"honest": -1, "bribery": adv.target_round}.get(adv.strategy)
        sink(CommittedRound(self.chain, self.chain.blocks[0], None))
        messages = 0
        for r in range(1, self.config.rounds + 1):
            record = self.run_round(r)
            messages += record.message_count
            block = self.chain.blocks[r]
            # handed on outside run_round, which the benchmark times
            sink(CommittedRound(self.chain, block, record))
            if release:
                if kept is None and r > adv.fork_round and not block.is_empty():
                    kept = r
                if kept is not None:
                    self.chain.release(kept)
        chains, attack_error = [self.chain], None
        if adv.strategy == "genesis_fork":
            chains.append(fork_from(self.chain, adv.fork_round))
        elif adv.strategy == "bribery":
            retained = self.registry.retained_records(adv.target_round)
            try:
                alt = bribe_and_recertify(self.chain, adv.target_round, retained)
                chains.append(self.chain.prefix(adv.target_round))
                chains[1].append(alt)
            except AttackFailedError as exc:
                attack_error = str(exc)
        reports = [] if len(chains) == 1 else detect_fork(
            *chains, classification=FORK_CLASSIFICATIONS[adv.strategy])
        metrics = RunMetrics(
            round_count=self.config.rounds,  # a run that completes has them all
            forks_detected=len(reports),
            fork_reports=reports,
            total_messages=messages,
            wall_time=time.perf_counter() - start,
            attack_error=attack_error,
        )
        return chains, metrics


def run_scenario(config: ScenarioConfig, sink=None) -> tuple[list[Chain], RunMetrics]:
    """Execute one scenario; deterministic for a given config.  Each round
    goes to `sink` as it commits, and the chain keeps only the blocks that
    its window and the attack read back (`SimulationRun.run`).  With no
    sink, the rounds are gathered in a list: the chain is held whole and the
    metrics carry every round record."""
    run = SimulationRun(config)
    if sink is not None:
        return run.run(sink)
    committed: list[CommittedRound] = []
    chains, metrics = run.run(committed.append, release=False)
    return chains, metrics._replace(rounds=[c.record for c in committed[1:]])


def detect_fork(a: Chain, b: Chain,
                classification: str = "protocol-violation") -> list[ForkReport]:
    """One report when chains `a` and `b` diverge with two validly certified
    blocks on a common prefix, else none.  Pure extensions are not forks.
    Raises ReleasedBlockError if the walk reaches a released block."""
    if block_hash(a.blocks[0]) != block_hash(b.blocks[0]):
        raise IncompatibleGenesisError("chains do not share genesis")
    for r in range(1, min(len(a.blocks), len(b.blocks))):
        if a.blocks[r] is None or b.blocks[r] is None:
            raise ReleasedBlockError(
                f"round {r}: fork detection reached a released block")
        da, db = block_hash(a.blocks[r]), block_hash(b.blocks[r])
        if da == db:
            continue
        prefix = a.prefix(r)
        if (validate_block(prefix, a.blocks[r])
                or validate_block(prefix, b.blocks[r])):
            return []
        return [ForkReport(r, da, db, a.blocks[r].cert, b.blocks[r].cert,
                           classification)]
    return []


# -- metrics serialization ------------------------------------------------------
# One line per round record, formatted as the round commits, then one summary
# line.  wall_time is deliberately left out of the file format so identical
# runs produce byte-identical output; it is only printed in console summaries.

def round_line(rec: RoundRecord) -> str:
    """The `metrics.jsonl` line of one round's record."""
    return json.dumps({
        "round": rec.round,
        "leader": rec.leader,
        "committee_sizes": {str(s): n for s, n in enumerate(rec.committee_sizes, 1)},
        "steps_to_decision": rec.steps_to_decision,
        "ba_digest": rec.ba_digest.hex() if rec.ba_digest else None,
        "simple_digest": rec.simple_digest.hex() if rec.simple_digest else None,
        "equivalent": rec.equivalent,
        "empty_block": rec.empty_block,
        "message_count": rec.message_count,
        "flags": list(rec.flags),
    }, sort_keys=True, separators=(",", ":"))


def summary_line(metrics: RunMetrics) -> str:
    """The `metrics.jsonl` line that follows the rounds' lines."""
    return json.dumps({"summary": {
        "rounds": metrics.round_count,
        "forks_detected": metrics.forks_detected,
        "fork_descriptions": [{
            "round": rep.round,
            "digest_a": rep.digest_a.hex(),
            "digest_b": rep.digest_b.hex(),
            "cert_a_voters": sorted(m.voter for m in rep.cert_a),
            "cert_b_voters": sorted(m.voter for m in rep.cert_b),
            "classification": rep.classification,
        } for rep in metrics.fork_reports],
        "total_messages": metrics.total_messages,
        "attack_error": metrics.attack_error,
    }}, sort_keys=True, separators=(",", ":"))


def metrics_to_lines(metrics: RunMetrics) -> list[str]:
    """Every line of a run's `metrics.jsonl`, from the round records that a
    run with no sink holds."""
    return [*map(round_line, metrics.rounds), summary_line(metrics)]
