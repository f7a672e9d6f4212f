import hashlib
import random

import pytest

from algosim.crypto import (
    AdversarySigner,
    InvalidTransitionError,
    KeyDestroyedError,
    KeyMissingError,
    KeyState,
    UnauthorizedSignerError,
    UnknownUserError,
    be8,
    hash_to_unit,
    sha256,
)

from conftest import make_registry

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
    assert a.ephemeral_sign(2, 5, 3, b"y") == b.ephemeral_sign(2, 5, 3, b"y")
    c = make_registry(seed=78)
    assert a.unique_sign(1, b"x", ) != c.unique_sign(1, b"x")


def test_public_handle_is_function_of_owner(registry):
    other = make_registry(seed=12345)
    assert registry.public_handle(1) == other.public_handle(1)
    assert registry.public_handle(1) != registry.public_handle(2)


class TestEphemeralLifecycle:
    def test_sign_then_destroy_then_sign_fails(self, registry):
        registry.ephemeral_sign(1, 4, 2, b"v")
        registry.destroy_ephemeral(1, 4, 2, "honest")
        with pytest.raises(KeyDestroyedError):
            registry.ephemeral_sign(1, 4, 2, b"v")

    def test_retained_key_signs_again(self, registry):
        first = registry.ephemeral_sign(1, 4, 2, b"v")
        registry.destroy_ephemeral(1, 4, 2, "retain")
        assert registry.ephemeral_sign(1, 4, 2, b"v") == first

    def test_transitions(self, registry):
        assert registry.destroy_ephemeral(1, 1, 1, "honest") is KeyState.DESTROYED
        assert registry.destroy_ephemeral(1, 1, 1, "honest") is KeyState.DESTROYED
        assert registry.destroy_ephemeral(1, 2, 1, "retain") is KeyState.RETAINED
        assert registry.destroy_ephemeral(1, 2, 1, "retain") is KeyState.RETAINED
        with pytest.raises(InvalidTransitionError):
            registry.destroy_ephemeral(1, 2, 1, "honest")
        with pytest.raises(InvalidTransitionError):
            registry.destroy_ephemeral(1, 1, 1, "retain")

    def test_missing_keys(self, registry):
        with pytest.raises(KeyMissingError):
            registry.ephemeral_sign(999, 1, 1, b"v")  # unregistered user
        with pytest.raises(KeyMissingError):
            registry.ephemeral_sign(1, registry.horizon + 1, 1, b"v")
        with pytest.raises(KeyMissingError):
            registry.ephemeral_sign(1, 1, registry.max_step + 1, b"v")

    def test_verification_survives_destruction(self, registry):
        sig = registry.ephemeral_sign(1, 4, 2, b"v")
        registry.destroy_ephemeral(1, 4, 2, "honest")
        assert registry.verify_ephemeral(1, 4, 2, b"v", sig)

    def test_retained_records_listing(self, registry):
        registry.ephemeral_sign(1, 4, 2, b"v")
        registry.destroy_ephemeral(1, 4, 2, "retain")
        registry.ephemeral_sign(2, 4, 2, b"v")
        registry.destroy_ephemeral(2, 4, 2, "honest")
        recs = registry.retained_records(4)
        assert [(r.owner, r.round, r.step) for r in recs] == [(1, 4, 2)]


class TestAdversaryAccess:
    def test_unauthorized_owner_rejected(self, registry):
        signer = AdversarySigner(registry, {1, 2})
        with pytest.raises(UnauthorizedSignerError):
            signer.unique_sign(3, b"m")
        with pytest.raises(UnauthorizedSignerError):
            signer.ephemeral_sign(3, 1, 1, b"m")

    def test_corrupted_owner_signs(self, registry):
        signer = AdversarySigner(registry, {1})
        sig = signer.unique_sign(1, b"m")
        assert registry.verify_unique(1, b"m", sig)

    def test_destroyed_key_never_signs_even_for_adversary(self, registry):
        signer = AdversarySigner(registry, {1})
        registry.destroy_ephemeral(1, 5, 2, "honest")
        with pytest.raises(KeyDestroyedError):
            signer.ephemeral_sign(1, 5, 2, b"m")
