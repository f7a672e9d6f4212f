import pytest
from hypothesis import strategies as st

from algosim.crypto import Digest, EphemeralKeyRecord, KeyRegistry, UserId
from algosim.engine import ScenarioConfig
from algosim.ledger import Chain, eligible, make_genesis, next_block
from algosim.sortition import Credential, ProtocolParams, select_committee


def make_registry(seed=0, horizon=64, max_step=13, users=range(1, 11)) -> KeyRegistry:
    reg = KeyRegistry(seed, horizon=horizon, max_step=max_step)
    for u in users:
        reg.register_user(u)
    return reg


def sign_one(registry, owner, round, step, message) -> bytes:
    """One owner's ephemeral signature, through the committee-step call."""
    return registry.ephemeral_sign_many([owner], round, step, message)[0]


def key_records(registry) -> list[EphemeralKeyRecord]:
    """Every EphemeralKeyRecord the registry holds, in whichever store."""
    return [v for store in vars(registry).values() if isinstance(store, dict)
            for v in store.values() if isinstance(v, EphemeralKeyRecord)]


def idle_chain(registry, balances, rounds,
               params: ProtocolParams = ProtocolParams()) -> Chain:
    """A chain of empty blocks, read under `params`; enough structure for
    sortition and ledger tests that do not re-validate certificates."""
    chain = make_genesis(balances, registry, params)
    for _ in range(rounds):
        chain.append(next_block(chain.tip()))
    return chain


# -- omniscient views -----------------------------------------------------------
# Tests enumerate who sortition selects over the user set `lookback` rounds
# back, through the same kernel the engine runs; the credentials are
# byte-identical to the ones the users themselves publish.

def view_credential(user: UserId, round: int, step: int, prev_seed: Digest,
                    chain: Chain) -> Credential | None:
    if user not in eligible(round, chain):
        return None
    selected = select_committee(round, step, prev_seed, [user], chain.params,
                                chain.registry)
    return selected[0] if selected else None


def view_committee(round: int, step: int, prev_seed: Digest,
                   chain: Chain) -> list[Credential]:
    return select_committee(round, step, prev_seed, sorted(eligible(round, chain)),
                            chain.params, chain.registry)


@pytest.fixture
def registry():
    return make_registry()


@pytest.fixture
def params():
    return ProtocolParams(leader_prob=1.0, verifier_prob=1.0, lookback=3,
                          max_ba_steps=9, cert_threshold=4, horizon=64)


@st.composite
def scenario_configs(draw, mode: str) -> ScenarioConfig:
    """An honest scenario with small, often empty committees: 4-40 users,
    any leader probability, verifier probability 0.05-1, lookback 1-4,
    1-9 agreement steps, a certificate threshold from 1 to the expected
    committee size, 3-12 rounds, payments and new users."""
    users = draw(st.integers(4, 40), label="users")
    verifier_prob = draw(st.floats(0.05, 1.0), label="verifier_prob")
    expected = max(1, round(users * verifier_prob))
    rounds = draw(st.integers(3, 12), label="rounds")
    params = ProtocolParams(
        leader_prob=draw(st.floats(0.0, 1.0), label="leader_prob"),
        verifier_prob=verifier_prob,
        lookback=draw(st.integers(1, 4), label="lookback"),
        max_ba_steps=draw(st.integers(1, 9), label="max_ba_steps"),
        cert_threshold=draw(st.integers(1, expected), label="cert_threshold"),
        horizon=rounds + 1)
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**64 - 1), label="seed"),
        num_genesis_users=users, rounds=rounds, params=params,
        consensus_mode=mode,
        payments_per_round=draw(st.integers(0, 5), label="payments"),
        new_users_per_round=draw(st.integers(0, 3), label="new_users"))
