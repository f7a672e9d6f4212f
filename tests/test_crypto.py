import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algosim.crypto import (
    AdversarySigner,
    CryptoError,
    KeyRegistry,
    KeyDestroyedError,
    KeyMissingError,
    KeyState,
    UnauthorizedSignerError,
    UnknownUserError,
    be8,
    hash_to_unit,
    sha256,
)

from conftest import key_rows, make_registry, sign_one

# SHA-256 of the empty string, as published everywhere.
EMPTY_SHA256 = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_hash_is_deterministic_and_fixed_width():
    assert sha256(b"payload") == sha256(b"payload")
    assert len(sha256(b"payload")) == 32


def test_hash_empty_input_matches_reference():
    assert sha256(b"") == EMPTY_SHA256
    assert sha256(b"") == hashlib.sha256(b"").digest()


def test_hash_distinct_inputs():
    assert sha256(b"a") != sha256(b"b")


def test_hash_to_unit_boundaries():
    assert hash_to_unit(b"\x00" * 32) == 0.0
    assert hash_to_unit(b"\x80" + b"\x00" * 31) == 0.5
    assert hash_to_unit(b"\xff" * 32) == (2**64 - 1) / 2**64


def test_hash_to_unit_uniform_mean():
    # 1e5 fuzzed digests; mean of a uniform [0,1) sample this size is within
    # 0.003 of one half with overwhelming margin.
    total = 0.0
    for i in range(100_000):
        total += hash_to_unit(sha256(b"unif" + be8(i)))
    assert 0.497 <= total / 100_000 <= 0.503


def test_unique_sign_deterministic(registry):
    assert registry.unique_sign(1, b"m") == registry.unique_sign(1, b"m")


def test_unique_sign_round_trip(registry):
    sig = registry.unique_sign(1, b"m")
    assert registry.verify_unique(1, b"m", sig)
    assert not registry.verify_unique(1, b"m2", sig)
    assert not registry.verify_unique(2, b"m", sig)


def test_verify_rejects_random_bytes(registry):
    rng = random.Random(42)
    for _ in range(200):
        fake = rng.randbytes(32)
        assert not registry.verify_unique(1, b"msg", fake)


def test_verify_unknown_user(registry):
    with pytest.raises(UnknownUserError):
        registry.verify_unique(999, b"m", b"\x00" * 32)


def test_unique_signatures_batch_equals_unique_sign(registry):
    msg = b"batch message"
    assert (registry.unique_signatures([3, 1, 2], msg)
            == [registry.unique_sign(u, msg) for u in (3, 1, 2)])
    with pytest.raises(UnknownUserError):
        registry.unique_signatures([1, 999], msg)


def test_no_second_accepting_signature(registry):
    # All single-byte mutations of a valid signature must fail verification;
    # exactly one byte string verifies per (owner, message).
    sig = registry.unique_sign(3, b"payload")
    for i in range(32):
        for delta in (1, 0x80):
            mutated = bytearray(sig)
            mutated[i] ^= delta
            assert not registry.verify_unique(3, b"payload", bytes(mutated))


def test_crypto_outputs_stable_across_registries():
    a = make_registry(seed=77)
    b = make_registry(seed=77)
    assert a.genesis_seed == b.genesis_seed
    assert a.unique_sign(1, b"x") == b.unique_sign(1, b"x")
    assert sign_one(a, 2, 5, 3, b"y") == sign_one(b, 2, 5, 3, b"y")
    c = make_registry(seed=78)
    assert a.unique_sign(1, b"x", ) != c.unique_sign(1, b"x")


# -- the README's formulas, hashed over concatenated bytes --------------------
# The registry signs from SHA-256 states prepared once per key; this plain
# path is the reference it must equal byte for byte.

def h(*parts: bytes) -> bytes:
    return hashlib.sha256(b"".join(parts)).digest()


def reference_unique(run_seed, user, message):
    master = h(b"SEED", be8(run_seed))
    return h(h(b"LTSK", master, be8(user)), message)


def reference_ephemeral(run_seed, user, round, step, message):
    master = h(b"SEED", be8(run_seed))
    return h(h(b"EPH_", master, be8(user), be8(round), be8(step)), message)


MESSAGES = st.binary(max_size=200)  # SHA-256 blocks are 64 bytes


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1),
       st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6, unique=True),
       st.randoms(use_true_random=False), st.lists(MESSAGES, min_size=1, max_size=3),
       st.integers(0, 12), st.integers(1, 13))
def test_signatures_follow_the_readme_formulas(run_seed, users, rnd, messages,
                                               round, step):
    registry = KeyRegistry(run_seed, horizon=12, max_step=13)
    order = list(users)
    rnd.shuffle(order)  # registration order is free
    for u in order:
        registry.register_user(u)
    for message in messages:  # each message starts from the same states
        unique = [reference_unique(run_seed, u, message) for u in users]
        assert registry.unique_signatures(users, message) == unique
        for u, sig in zip(users, unique):
            assert registry.unique_sign(u, message) == sig
            assert registry.verify_unique(u, message, sig)
            assert not registry.verify_unique(u, message + b"\x00", sig)
    message = messages[0]
    ephemeral = [reference_ephemeral(run_seed, u, round, step, message)
                 for u in users]
    assert registry.ephemeral_sign_many(users, round, step, message) == ephemeral
    assert registry.verify_ephemeral_many(list(zip(users, ephemeral)), round,
                                          step, message) == [True] * len(users)
    assert registry.verify_ephemeral_many(list(zip(users, unique)), round,
                                          step, message) == [False] * len(users)


class TestEphemeralLifecycle:
    def test_sign_then_destroy_then_sign_fails(self, registry):
        sign_one(registry, 1, 4, 2, b"v")
        with pytest.raises(KeyDestroyedError):
            sign_one(registry, 1, 4, 2, b"v")

    def test_retained_key_signs_again(self, registry):
        registry.keep_keys([1])
        first = sign_one(registry, 1, 4, 2, b"v")
        assert sign_one(registry, 1, 4, 2, b"v") == first

    def test_transitions(self, registry):
        assert registry.ephemeral_state(1, 1, 1) is KeyState.AVAILABLE
        sign_one(registry, 1, 1, 1, b"v")
        assert registry.ephemeral_state(1, 1, 1) is KeyState.DESTROYED
        registry.keep_keys([1])
        sign_one(registry, 1, 2, 1, b"v")
        sign_one(registry, 1, 2, 1, b"v")
        assert registry.ephemeral_state(1, 2, 1) is KeyState.RETAINED
        # a destroyed key cannot be retained: it no longer signs at all
        with pytest.raises(KeyDestroyedError):
            sign_one(registry, 1, 1, 1, b"v")
        assert registry.ephemeral_state(1, 1, 1) is KeyState.DESTROYED

    def test_missing_keys(self, registry):
        with pytest.raises(KeyMissingError):
            sign_one(registry, 999, 1, 1, b"v")  # unregistered user
        with pytest.raises(KeyMissingError):
            sign_one(registry, 1, registry.horizon + 1, 1, b"v")
        with pytest.raises(KeyMissingError):
            sign_one(registry, 1, 1, registry.max_step + 1, b"v")
        with pytest.raises(KeyMissingError):
            registry.ephemeral_state(1, 1, 0)

    def test_verification_survives_destruction(self, registry):
        sig = sign_one(registry, 1, 4, 2, b"v")
        assert registry.verify_ephemeral_many([(1, sig)], 4, 2, b"v")[0]

    def test_retained_records_listing(self, registry):
        registry.keep_keys([1])
        sign_one(registry, 1, 4, 2, b"v")
        sign_one(registry, 2, 4, 2, b"v")
        recs = registry.retained_records(4)
        assert [(r.owner, r.round, r.step) for r in recs] == [(1, 4, 2)]
        assert recs[0].state is KeyState.RETAINED

    def test_honest_signing_stores_no_record(self, registry):
        for owner in (1, 2, 3):
            for step in range(1, registry.max_step + 1):
                sign_one(registry, owner, 4, step, b"v")
        assert registry.retained_records() == []
        # one row of one mask per step, whatever the number of owners, and
        # no retained row
        destroyed, retained = key_rows(registry)
        assert list(destroyed) == [4] and retained == {}
        assert destroyed[4] == (0b111,) * registry.max_step
        registry.keep_keys([1])
        sign_one(registry, 1, 5, 1, b"v")
        assert key_rows(registry)[1] == {5: (0b1,)}


# -- key lifecycle against a reference dict of states --------------------------

LIFECYCLE_HORIZON, LIFECYCLE_MAX_STEP = 2, 3
LIFECYCLE_USERS = (1, 2, 3)  # owners 0 and 4 start unregistered


def reference_sign(states, keepers, key, registered=LIFECYCLE_USERS):
    """The lifecycle as a dict of states: sign, then retain the key if its
    owner is in `keepers`, else destroy it.  Returns the exception type a call
    raises, or None."""
    owner, round, step = key
    if not (owner in registered and 0 <= round <= LIFECYCLE_HORIZON
            and 1 <= step <= LIFECYCLE_MAX_STEP):
        return KeyMissingError
    state = states.get(key, KeyState.AVAILABLE)
    if state is KeyState.DESTROYED:
        return KeyDestroyedError
    target = KeyState.RETAINED if owner in keepers else KeyState.DESTROYED
    # AVAILABLE -> DESTROYED or RETAINED; keepers only grow, so a retained
    # key's owner is still a keeper and the key stays retained
    assert state in (KeyState.AVAILABLE, target)
    states[key] = target
    return None


owner_ids = st.integers(0, 4)
lifecycle_rounds = st.integers(-1, LIFECYCLE_HORIZON + 1)
lifecycle_steps = st.integers(0, LIFECYCLE_MAX_STEP + 1)
key_ids = st.tuples(owner_ids, lifecycle_rounds, lifecycle_steps)
lifecycle_ops = st.lists(st.one_of(
    st.tuples(st.just("sign"), key_ids),
    st.tuples(st.just("spend"), st.lists(owner_ids, min_size=1, max_size=5),
              lifecycle_rounds, lifecycle_steps),
    st.tuples(st.just("keep"), owner_ids),
    st.tuples(st.just("register"), owner_ids),
    st.tuples(st.just("state"), key_ids),
    st.tuples(st.just("retained"),
              st.one_of(st.none(), st.integers(0, LIFECYCLE_HORIZON)))),
    max_size=40)


def lifecycle_registry(order=LIFECYCLE_USERS):
    reg = KeyRegistry(5, horizon=LIFECYCLE_HORIZON, max_step=LIFECYCLE_MAX_STEP)
    for u in order:
        reg.register_user(u)
    return reg


@settings(deadline=None, max_examples=150)
@given(st.permutations(LIFECYCLE_USERS), lifecycle_ops)
@example((3, 1, 2), [("keep", 4), ("keep", 1), ("keep", 2), ("register", 4),
                     ("register", 0), ("keep", 0),
                     ("spend", [4, 2, 0, 1, 3], 1, 2), ("retained", None)])
def test_key_lifecycle_matches_reference_states(order, ops):
    # users register in any order, and owners 0 and 4 may register late
    # (after keep_keys, too), so an owner's bit is not in id order
    registry = lifecycle_registry(order)
    registered = set(order)
    states: dict = {}
    keepers: set = set()
    for op in ops:
        if op[0] == "sign":
            key = op[1]
            expected = reference_sign(states, keepers, key, registered)
            if expected is None:
                sig = sign_one(registry, *key, b"m")
                assert registry.verify_ephemeral_many(
                    [(key[0], sig)], *key[1:], b"m") == [True]
            else:
                with pytest.raises(expected):
                    sign_one(registry, *key, b"m")
        elif op[0] == "spend":
            # one batch: it raises what the first refused one-owner call
            # would, naming that owner, and changes nothing
            _, owners, round, step = op
            after = dict(states)
            for owner in owners:
                refused = reference_sign(after, keepers, (owner, round, step),
                                         registered)
                if refused:
                    break
            if refused is None:
                registry.spend_keys(owners, round, step)
                states = after
            else:
                untouched = key_rows(registry)
                with pytest.raises(refused, match=f"user {owner} "):
                    registry.spend_keys(owners, round, step)
                assert key_rows(registry) == untouched
        elif op[0] == "keep":
            keepers.add(op[1])
            registry.keep_keys([op[1]])
        elif op[0] == "register":
            registered.add(op[1])
            registry.register_user(op[1])
        elif op[0] == "state":
            key = op[1]
            if reference_sign({}, set(), key, registered) is KeyMissingError:
                with pytest.raises(KeyMissingError):
                    registry.ephemeral_state(*key)
            else:
                assert registry.ephemeral_state(*key) \
                    is states.get(key, KeyState.AVAILABLE)
        else:
            round = op[1]
            expected = sorted((r, s, o) for (o, r, s), st_ in states.items()
                              if st_ is KeyState.RETAINED
                              and (round is None or r == round))
            assert [(k.round, k.step, k.owner)
                    for k in registry.retained_records(round)] == expected
    # every key as the reference says; a key the registry does not provision
    # (step 0 or max_step + 1 of a round with a row, round -1 or
    # horizon + 1, an unregistered owner) is missing, and reads no row
    rows = key_rows(registry)
    for owner in range(5):
        for round in range(-1, LIFECYCLE_HORIZON + 2):
            for step in range(LIFECYCLE_MAX_STEP + 2):
                key = (owner, round, step)
                if reference_sign({}, set(), key, registered) is None:
                    assert registry.ephemeral_state(*key) \
                        is states.get(key, KeyState.AVAILABLE)
                    continue
                with pytest.raises(KeyMissingError):
                    registry.ephemeral_state(*key)
                with pytest.raises(KeyMissingError):
                    registry.spend_keys([owner], round, step)
    assert key_rows(registry) == rows


# -- one call per step against one call per owner ------------------------------

def key_states(registry):
    """Every provisioned key's state, and the retained records."""
    states = {(o, r, s): registry.ephemeral_state(o, r, s)
              for o in LIFECYCLE_USERS for r in range(LIFECYCLE_HORIZON + 1)
              for s in range(1, LIFECYCLE_MAX_STEP + 1)}
    retained = [(k.owner, k.round, k.step, k.state)
                for k in registry.retained_records()]
    return states, retained


@settings(deadline=None, max_examples=300)
@given(early=st.sets(owner_ids), before=st.lists(key_ids, max_size=12),
       late=st.sets(owner_ids),
       round=st.integers(-1, LIFECYCLE_HORIZON + 1),
       step=st.integers(0, LIFECYCLE_MAX_STEP + 1),
       owners=st.lists(owner_ids, max_size=6))
def test_batch_signing_matches_one_call_per_owner(early, before, late, round,
                                                  step, owners):
    batch, twin = lifecycle_registry(), lifecycle_registry()
    for reg in (batch, twin):  # destroyed and retained keys, on both alike
        reg.keep_keys(early)
        for key in before:
            try:
                sign_one(reg, *key, b"old")
            except CryptoError:
                pass
        reg.keep_keys(late)  # also owners of keys destroyed before
    expected, refusal = [], None
    for owner in owners:
        try:
            expected.append(sign_one(twin, owner, round, step, b"m"))
        except CryptoError as exc:
            refusal = exc
            break
    untouched = key_states(batch)
    if refusal is None:
        assert batch.ephemeral_sign_many(owners, round, step, b"m") == expected
        assert key_states(batch) == key_states(twin)
    else:
        with pytest.raises(type(refusal)) as raised:
            batch.ephemeral_sign_many(owners, round, step, b"m")
        assert type(raised.value) is type(refusal)
        assert str(raised.value) == str(refusal)
        assert key_states(batch) == untouched


def spent_and_signed(early, before, late):
    """Two registries with the same destroyed and retained keys."""
    pair = lifecycle_registry(), lifecycle_registry()
    for reg in pair:
        reg.keep_keys(early)
        for key in before:
            try:
                sign_one(reg, *key, b"old")
            except CryptoError:
                pass
        reg.keep_keys(late)
    return pair


@settings(deadline=None, max_examples=150)
@given(early=st.sets(owner_ids), before=st.lists(key_ids, max_size=12),
       late=st.sets(owner_ids),
       round=st.integers(-1, LIFECYCLE_HORIZON + 1),
       step=st.integers(0, LIFECYCLE_MAX_STEP + 1),
       owners=st.lists(owner_ids, max_size=6))
def test_spending_keys_matches_signing(early, before, late, round, step,
                                       owners):
    spent, signed = spent_and_signed(early, before, late)
    untouched = key_states(spent)
    try:
        signed.ephemeral_sign_many(owners, round, step, b"m")
    except CryptoError as refusal:
        with pytest.raises(type(refusal)) as raised:
            spent.spend_keys(owners, round, step)
        assert type(raised.value) is type(refusal)
        assert str(raised.value) == str(refusal)
        assert key_states(spent) == untouched
    else:
        assert spent.spend_keys(owners, round, step) is None
        assert key_states(spent) == key_states(signed)


@settings(deadline=None, max_examples=50)
@given(early=st.sets(owner_ids), before=st.lists(key_ids, max_size=12),
       round=st.integers(-1, LIFECYCLE_HORIZON + 1),
       step=st.integers(-1, LIFECYCLE_MAX_STEP + 1))
def test_spending_no_keys_changes_nothing(early, before, round, step):
    registry, _ = spent_and_signed(early, before, ())
    untouched = key_states(registry), key_rows(registry)
    registry.spend_keys([], round, step)
    assert registry.ephemeral_sign_many([], round, step, b"m") == []
    assert (key_states(registry), key_rows(registry)) == untouched


class TestAdversaryAccess:
    def test_unauthorized_owner_rejected(self, registry):
        signer = AdversarySigner(registry, {1, 2})
        with pytest.raises(UnauthorizedSignerError):
            signer.unique_sign(3, b"m")
        with pytest.raises(UnauthorizedSignerError):
            signer.ephemeral_sign_many([3], 1, 1, b"m")

    def test_corrupted_owner_signs(self, registry):
        signer = AdversarySigner(registry, {1})
        sig = signer.unique_sign(1, b"m")
        assert registry.verify_unique(1, b"m", sig)

    def test_corrupted_owners_keep_their_keys(self, registry):
        # corruption is where a user starts keeping keys, whoever signs
        signer = AdversarySigner(registry, {1})
        signer.ephemeral_sign_many([1], 5, 2, b"m")
        sign_one(registry, 1, 5, 3, b"m")
        sign_one(registry, 2, 5, 2, b"m")
        assert [registry.ephemeral_state(*k) for k in
                ((1, 5, 2), (1, 5, 3), (2, 5, 2))] == \
            [KeyState.RETAINED, KeyState.RETAINED, KeyState.DESTROYED]

    def test_destroyed_key_never_signs_even_for_adversary(self, registry):
        sign_one(registry, 1, 5, 2, b"v")
        signer = AdversarySigner(registry, {1})
        with pytest.raises(KeyDestroyedError):
            signer.ephemeral_sign_many([1], 5, 2, b"m")

    def test_batch_with_one_uncorrupted_owner_signs_nothing(self, registry):
        signer = AdversarySigner(registry, {1, 2})
        with pytest.raises(UnauthorizedSignerError, match="user 3"):
            signer.ephemeral_sign_many([1, 3, 2], 5, 2, b"m")
        assert [registry.ephemeral_state(u, 5, 2) for u in (1, 2, 3)] == \
            [KeyState.AVAILABLE] * 3
        assert registry.retained_records() == []
