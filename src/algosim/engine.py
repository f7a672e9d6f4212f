"""Round driver: provisions users and keys, runs the per-round pipeline
(sortition, proposal, vote, agreement or simple majority, certification),
invokes adversary strategies, detects forks and accumulates metrics.

Every committee step of a round (proposal, vote, relay, each agreement and
certificate step) runs through one primitive in `run_round`: `step(s, value)`
signs `value` for every member of the (r, s) committee in one call (None: the
step is silent).  Every step from 2 on sends `consensus.Vote`s (a cert step's
over `cert_payload`); step 1 proposes through its own `sign` builder, as each
proposer signs a different block.  Members send in committee order, so each
step delivers at most one message per sender, in ascending sender order.

A run is a pure function of its ScenarioConfig: every random stream is seeded
from the configured seed, so chains and metrics are bit-identical across
executions.
"""

from __future__ import annotations

import json
import logging
import random
import time
from dataclasses import dataclass, field

from . import consensus
from .adversary import (
    AdversaryConfig,
    AttackFailedError,
    bribe_and_recertify,
    fork_from,
)
from .crypto import KeyRegistry, UserId, be8, sha256
from .ledger import (
    Chain,
    IncompatibleGenesisError,
    Payment,
    block_hash,
    build_payset,
    cert_payload,
    empty_block,
    make_genesis,
    make_payment,
    users_at,
    validate_block,
)
from .netsim import Network
from .sortition import ProtocolParams, select_committee, select_leader

log = logging.getLogger("algosim.engine")

CONSENSUS_MODES = ("ba", "simple", "both")


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    num_genesis_users: int = 10
    initial_balance: int = 1000
    rounds: int = 20
    params: ProtocolParams = field(default_factory=ProtocolParams)
    consensus_mode: str = "ba"
    adversary: AdversaryConfig = field(default_factory=AdversaryConfig)
    payments_per_round: int = 5
    new_users_per_round: int = 0

    def __post_init__(self):
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


@dataclass
class RoundRecord:
    round: int
    leader: UserId | None
    committee_sizes: dict[int, int]
    steps_to_decision: int
    ba_digest: bytes | None
    simple_digest: bytes | None
    equivalent: bool | None
    empty_block: bool
    message_count: int
    flags: tuple[str, ...] = ()


@dataclass
class ForkReport:
    round: int
    digest_a: bytes
    digest_b: bytes
    cert_a: tuple
    cert_b: tuple
    classification: str


@dataclass
class RunMetrics:
    rounds: list[RoundRecord]
    forks_detected: int
    fork_reports: list[ForkReport]
    total_messages: int
    wall_time: float
    attack_error: str | None = None


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
        self._policy: dict[UserId, str] = {}
        genesis_users = range(1, config.num_genesis_users + 1)
        for u in genesis_users:
            self._register_user(u)
        self.next_uid = config.num_genesis_users + 1
        self.chain = make_genesis(
            {u: config.initial_balance for u in genesis_users}, self.registry,
            window=self.params.lookback + 1)
        self.records: list[RoundRecord] = []

    def _register_user(self, uid: UserId) -> None:
        self.registry.register_user(uid)
        self.net.add_node(uid)
        retain = (self.config.adversary.strategy == "bribery"
                  and self._policy_rng.random() < self.config.adversary.retention_fraction)
        self._policy[uid] = "retain" if retain else "honest"

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

    def run_round(self, r: int) -> None:
        params = self.params
        mode = self.config.consensus_mode
        prev = self.chain.blocks[r - 1]
        prev_seed = prev.seed
        empty = empty_block(r, prev_seed, block_hash(prev))

        if r < params.lookback:
            # No user can clear the lookback rule yet: the round degenerates
            # to an uncertified empty block.
            self.chain.append(empty)
            self.records.append(RoundRecord(
                r, None, {}, 0, None, None, None, True, 0, ("bootstrap",)))
            return

        eligible = sorted(users_at(self.chain, r - params.lookback))
        pending = self._workload(r)
        messages = 0
        sizes: dict[int, int] = {}
        flags: list[str] = []

        # Delivery is broadcast-only, so each rule below runs once per step
        # over the one inbox; `validate_block` is the one verifier.

        def step(s, value, sign=consensus.vote):
            """Select the (r, s) committee, broadcast the messages `sign`
            builds for it over `value` (None: a silent step), deliver.
            Returns the committee and the delivered messages, in order."""
            nonlocal messages
            committee = select_committee(r, s, prev_seed, eligible, params,
                                         self.registry)
            sizes[s] = len(committee)
            if value is not None:
                for msg in sign(committee, value, self.registry, self._policy):
                    self.net.broadcast(msg.credential.user, msg)
            messages += self.net.step()
            return committee, self.net.inbox_common()

        def propose_each(committee, payset, registry, policies):
            return [consensus.propose(c, payset, self.chain, registry,
                                      policies[c.user]) for c in committee]

        # Step 1: each potential leader signs its own block over one payset.
        payset = build_payset(pending, self.chain.status_entering(r),
                              self.registry)
        leaders, proposals = step(1, payset, propose_each)
        leader = select_leader(leaders) if leaders else None
        candidate = next((p.block for p in proposals
                          if p.credential.user == leader), None)
        empty_digest = block_hash(empty)

        # Step 2: the vote committee backs the leader's block, or the empty
        # block when the round has no potential leader.  Its supermajority is
        # the two-step rule's decision and the graded-consensus relay value.
        sv2, votes = step(2, empty_digest if candidate is None
                          else block_hash(candidate))
        majority = consensus.supermajority_value(votes, len(sv2))

        simple_digest = None
        if mode in ("simple", "both"):
            simple_digest = majority if majority is not None else empty_digest

        ba_digest = None
        decision_step = 3
        if mode in ("ba", "both"):
            # Step 3 relays the majority (silent when there is none); binary
            # agreement then runs from step 4.
            sv3, relays = step(3, majority)
            graded = consensus.gc_grade(relays, len(sv3))
            initial_bit = 0 if graded.grade == 2 else 1

            def vote_step(s, bit):
                committee, votes = step(
                    s, bytes([initial_bit if bit is None else bit]))
                counts = consensus.distinct_voter_counts(votes)
                return counts.get(b"\x00", 0), counts.get(b"\x01", 0), len(committee)

            decided, last_step = consensus.bba(vote_step, prev_seed,
                                               params.max_ba_steps)
            decision_step = last_step + 1
            if decided is None:
                flags.append("no-termination")
                decided = 1
            try:
                value = consensus.ba_output(graded, decided)
            except consensus.ProtocolInconsistencyError:
                flags.append("ba-inconsistency")
                value = None
            ba_digest = value if value is not None else empty_digest

        committed = ba_digest if mode in ("ba", "both") else simple_digest
        is_empty = committed == empty_digest
        # Votes only ever back the candidate or the empty block.
        block = empty if is_empty else candidate

        # Fresh committees vote the certificate payload of the decided block,
        # from the decision step on, until cert_threshold distinct voters
        # have signed once each; their delivered votes are the certificate.
        # Every step so far is below the decision step, so no step runs twice.
        cert: list[consensus.Vote] = []
        voters: set[UserId] = set()

        def certify(committee, payload, registry, policies):
            fresh = [c for c in committee if c.user not in voters]
            voters.update(c.user for c in fresh)
            return consensus.vote(fresh, payload, registry, policies)

        payload = cert_payload(1 if is_empty else 0, committed)
        for s in range(decision_step, params.max_step + 1):
            cert += step(s, payload, certify)[1]
            if len(voters) >= params.cert_threshold:
                break
        else:
            raise EngineError(f"round {r}: certificate threshold unreachable")
        self.chain.append(block.with_cert(tuple(cert)))

        equivalent = None
        if mode == "both":
            equivalent = ba_digest == simple_digest
            if not equivalent:
                log.warning("round %d: agreement %s vs simple vote %s",
                            r, ba_digest.hex()[:16], simple_digest.hex()[:16])

        self.records.append(RoundRecord(
            r, leader, sizes, decision_step, ba_digest, simple_digest,
            equivalent, is_empty, messages, tuple(flags)))

    # -- adversary phase -------------------------------------------------------

    def run(self) -> tuple[list[Chain], RunMetrics]:
        start = time.perf_counter()
        for r in range(1, self.config.rounds + 1):
            self.run_round(r)
        chains = [self.chain]
        reports: list[ForkReport] = []
        attack_error = None
        adv = self.config.adversary
        if adv.strategy == "genesis_fork":
            forked = fork_from(self.chain, adv.fork_round, self.params,
                               self.registry)
            chains.append(forked)
            reports = detect_fork(chains, self.params, self.registry,
                                  classification="genesis-fork")
        elif adv.strategy == "bribery":
            retained = self.registry.retained_records(adv.target_round)
            try:
                alt = bribe_and_recertify(self.chain, adv.target_round,
                                          retained, self.params, self.registry)
                forked = self.chain.prefix(adv.target_round)
                forked.append(alt)
                chains.append(forked)
                reports = detect_fork(chains, self.params, self.registry,
                                      classification="bribery-fork")
            except AttackFailedError as exc:
                attack_error = str(exc)
        metrics = RunMetrics(
            rounds=self.records,
            forks_detected=len(reports),
            fork_reports=reports,
            total_messages=sum(rec.message_count for rec in self.records),
            wall_time=time.perf_counter() - start,
            attack_error=attack_error,
        )
        return chains, metrics


def run_scenario(config: ScenarioConfig) -> tuple[list[Chain], RunMetrics]:
    """Execute one scenario; deterministic for a given config."""
    return SimulationRun(config).run()


def detect_fork(chains: list[Chain], params: ProtocolParams,
                registry: KeyRegistry,
                classification: str = "protocol-violation") -> list[ForkReport]:
    """One report per chain pair diverging with two validly certified blocks
    on a common prefix.  Pure extensions are not forks."""
    reports = []
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            a, b = chains[i], chains[j]
            if block_hash(a.blocks[0]) != block_hash(b.blocks[0]):
                raise IncompatibleGenesisError("chains do not share genesis")
            for r in range(1, min(len(a.blocks), len(b.blocks))):
                da, db = block_hash(a.blocks[r]), block_hash(b.blocks[r])
                if da == db:
                    continue
                prefix = a.prefix(r)
                ok_a = not validate_block(prefix, a.blocks[r], params, registry)
                ok_b = not validate_block(prefix, b.blocks[r], params, registry)
                if ok_a and ok_b:
                    reports.append(ForkReport(
                        r, da, db, a.blocks[r].cert, b.blocks[r].cert,
                        classification))
                break
    return reports


# -- metrics serialization ------------------------------------------------------
# wall_time is deliberately left out of the file format so identical runs
# produce byte-identical output; it is only printed in console summaries.

def metrics_to_lines(metrics: RunMetrics) -> list[str]:
    lines = []
    for rec in metrics.rounds:
        lines.append(json.dumps({
            "round": rec.round,
            "leader": rec.leader,
            "committee_sizes": {str(k): v for k, v in sorted(rec.committee_sizes.items())},
            "steps_to_decision": rec.steps_to_decision,
            "ba_digest": rec.ba_digest.hex() if rec.ba_digest else None,
            "simple_digest": rec.simple_digest.hex() if rec.simple_digest else None,
            "equivalent": rec.equivalent,
            "empty_block": rec.empty_block,
            "message_count": rec.message_count,
            "flags": list(rec.flags),
        }, sort_keys=True, separators=(",", ":")))
    lines.append(json.dumps({"summary": {
        "rounds": len(metrics.rounds),
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
    }}, sort_keys=True, separators=(",", ":")))
    return lines
