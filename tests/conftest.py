import pytest

from algosim.crypto import Digest, EphemeralKeyRecord, KeyRegistry, UserId
from algosim.ledger import Chain, make_genesis, next_block
from algosim.sortition import Credential, ProtocolParams, eligible, select_committee


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


def idle_chain(registry, balances, rounds) -> Chain:
    """A chain of empty blocks; enough structure for sortition and ledger
    tests that do not re-validate certificates."""
    chain = make_genesis(balances, registry,
                         window=ProtocolParams().lookback + 1)
    for _ in range(rounds):
        chain.append(next_block(chain.tip()))
    return chain


# -- omniscient views -----------------------------------------------------------
# Tests enumerate who sortition selects over the user set `lookback` rounds
# back, through the same kernel the engine runs; the credentials are
# byte-identical to the ones the users themselves publish.

def view_credential(user: UserId, round: int, step: int, prev_seed: Digest,
                    chain: Chain, params: ProtocolParams,
                    registry: KeyRegistry) -> Credential | None:
    if user not in eligible(round, chain, params):
        return None
    selected = select_committee(round, step, prev_seed, [user], params, registry)
    return selected[0] if selected else None


def view_committee(round: int, step: int, prev_seed: Digest, chain: Chain,
                   params: ProtocolParams, registry: KeyRegistry) -> list[Credential]:
    return select_committee(round, step, prev_seed,
                            sorted(eligible(round, chain, params)), params, registry)


@pytest.fixture
def registry():
    return make_registry()


@pytest.fixture
def params():
    return ProtocolParams(leader_prob=1.0, verifier_prob=1.0, lookback=3,
                          max_ba_steps=9, cert_threshold=4, horizon=64)
