import pytest

from algosim.crypto import EphemeralKeyRecord, KeyRegistry
from algosim.ledger import Chain, block_hash, empty_block, make_genesis
from algosim.sortition import ProtocolParams


def make_registry(seed=0, horizon=64, max_step=13, users=range(1, 11)) -> KeyRegistry:
    reg = KeyRegistry(seed, horizon=horizon, max_step=max_step)
    for u in users:
        reg.register_user(u)
    return reg


def key_records(registry) -> list[EphemeralKeyRecord]:
    """Every EphemeralKeyRecord the registry holds, in whichever store."""
    return [v for store in vars(registry).values() if isinstance(store, dict)
            for v in store.values() if isinstance(v, EphemeralKeyRecord)]


def idle_chain(registry, balances, rounds) -> Chain:
    """A chain of empty blocks; enough structure for sortition and ledger
    tests that do not re-validate certificates."""
    chain = make_genesis(balances, registry,
                         window=ProtocolParams().lookback + 1)
    for r in range(1, rounds + 1):
        prev = chain.tip()
        chain.append(empty_block(r, prev.seed, block_hash(prev)))
    return chain


@pytest.fixture
def registry():
    return make_registry()


@pytest.fixture
def params():
    return ProtocolParams(leader_prob=1.0, verifier_prob=1.0, lookback=3,
                          max_ba_steps=9, cert_threshold=4, horizon=64)
