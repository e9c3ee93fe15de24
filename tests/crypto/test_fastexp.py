"""Tests for the fast-exponentiation engine and the verification caches.

The contract of the whole subsystem: *wall-clock only*.  Signatures
must stay byte-identical to the seed implementation, and a cached
verdict must never accept a tampered key, message, or signature.
"""

import random

import pytest

from repro.crypto import fastexp
from repro.crypto.fastexp import (
    G,
    P,
    Q,
    FixedBaseTable,
    LruDict,
    base_pow,
    generator_pow,
    multi_pow,
)
from repro.crypto.hashing import bytes_to_int, int_to_bytes, tagged_hash
from repro.crypto.schnorr import (
    PublicKey,
    Signature,
    _SCALAR_BYTES,
    _challenge,
    batch_verify,
    cache_stats,
    clear_verification_caches,
    generate_keypair,
    sign,
    verify,
)


# ----------------------------------------------------------------------
# fastexp primitives agree with builtins.pow
# ----------------------------------------------------------------------
def test_fixed_base_table_matches_pow():
    rng = random.Random(7)
    table = FixedBaseTable(G, P, max_bits=512, window=5)
    for bits in (1, 8, 64, 256, 512):
        exponent = rng.getrandbits(bits)
        assert table.pow(exponent) == pow(G, exponent, P)


def test_fixed_base_table_edge_exponents():
    table = FixedBaseTable(G, P, max_bits=64, window=4)
    assert table.pow(0) == 1
    assert table.pow(1) == G
    # Beyond the table's capacity it falls back to builtins.pow.
    big = Q - 1
    assert table.pow(big) == pow(G, big, P)


def test_fixed_base_table_rejects_negative_exponent():
    table = FixedBaseTable(G, P, max_bits=32, window=4)
    with pytest.raises(ValueError):
        table.pow(-1)


def test_generator_pow_matches_pow():
    rng = random.Random(11)
    for _ in range(5):
        exponent = rng.getrandbits(500)
        assert generator_pow(exponent) == pow(G, exponent, P)


def _product(pairs, modulus=P):
    expected = 1 % modulus
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, modulus) % modulus
    return expected


def test_base_pow_matches_pow_before_and_after_table_build():
    rng = random.Random(13)
    base = pow(G, 0xDEADBEEF, P)
    fastexp.clear_caches()
    for _ in range(3):
        exponent = rng.getrandbits(256)
        assert base_pow(base, exponent) == pow(base, exponent, P)
    assert fastexp.cache_stats()["base_tables"] == 0
    fastexp.prewarm_base(base)
    for _ in range(3):
        exponent = rng.getrandbits(256)
        assert base_pow(base, exponent) == pow(base, exponent, P)
    assert fastexp.cache_stats()["base_tables"] == 1


def test_base_pow_rejects_negative_exponent_cold_or_warm():
    fastexp.clear_caches()
    base = pow(G, 0xBAD, P)
    with pytest.raises(ValueError):
        base_pow(base, -1)
    fastexp.prewarm_base(base)
    with pytest.raises(ValueError):
        base_pow(base, -1)
    with pytest.raises(ValueError):
        base_pow(G, -1)


def test_multi_pow_matches_product_of_pows():
    rng = random.Random(17)
    pairs = [
        (pow(G, rng.getrandbits(200), P), rng.getrandbits(bits))
        for bits in (128, 256, 384, 1)
    ]
    expected = 1
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, P) % P
    assert multi_pow(pairs, P) == expected


def test_multi_pow_empty_is_identity():
    assert multi_pow([], P) == 1


def test_prewarm_base_builds_table_immediately():
    base = pow(G, 0xC0FFEE, P)
    fastexp.clear_caches()
    assert fastexp.prewarm_base(base)
    assert not fastexp.prewarm_base(base)  # already warm
    assert fastexp.cache_stats()["base_tables"] == 1
    rng = random.Random(19)
    exponent = rng.getrandbits(256)
    assert base_pow(base, exponent) == pow(base, exponent, P)


def test_validator_set_generation_prewarms_member_tables():
    from repro.consensus.validators import ValidatorSet

    fastexp.clear_caches()
    validators = ValidatorSet.generate(1, seed="prewarm-check")
    assert fastexp.cache_stats()["base_tables"] >= validators.size
    # The warmed tables answer exactly like builtins.pow.
    rng = random.Random(23)
    for key in validators.public_keys():
        exponent = rng.getrandbits(256)
        assert base_pow(key.point, exponent) == pow(key.point, exponent, P)


def test_lru_dict_evicts_least_recently_used():
    cache = LruDict(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # touch a; b is now the LRU victim
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3


# ----------------------------------------------------------------------
# Signatures are byte-identical to the seed implementation
# ----------------------------------------------------------------------
def _seed_sign(private_key, message: bytes) -> Signature:
    """The seed implementation, verbatim, on builtins.pow."""
    nonce_material = tagged_hash(
        "repro/schnorr/nonce",
        int_to_bytes(private_key.scalar, _SCALAR_BYTES) + message,
    )
    k = bytes_to_int(nonce_material) % (Q - 1) + 1
    commitment = pow(G, k, P)
    public = PublicKey(pow(G, private_key.scalar, P))
    e = _challenge(commitment, public, message)
    return Signature(commitment, (k + e * private_key.scalar) % Q)


def test_signatures_byte_identical_to_seed_implementation():
    for index in range(4):
        private, public = generate_keypair(f"identical-{index}".encode())
        message = f"message {index}".encode()
        fast = sign(private, message)
        slow = _seed_sign(private, message)
        assert fast == slow
        assert fast.to_bytes() == slow.to_bytes()
        assert public.point == pow(G, private.scalar, P)


# ----------------------------------------------------------------------
# The verification cache cannot be fooled
# ----------------------------------------------------------------------
def test_cached_verify_still_rejects_tampering():
    private, public = generate_keypair(b"cache-tamper")
    _, other_public = generate_keypair(b"cache-other")
    message = b"the real message"
    signature = sign(private, message)
    clear_verification_caches()
    # Warm the cache with the genuine verdict, twice (hit the cache).
    assert verify(public, message, signature)
    assert verify(public, message, signature)
    stats = cache_stats()
    assert stats["verify_hits"] >= 1
    # Tampered message / signature / key must all be re-checked and fail.
    assert not verify(public, b"the fake message", signature)
    assert not verify(public, message, Signature(signature.commitment, (signature.response + 1) % Q))
    assert not verify(public, message, Signature(signature.commitment * G % P, signature.response))
    assert not verify(other_public, message, signature)
    # And the genuine one still passes afterwards.
    assert verify(public, message, signature)


def test_negative_verdicts_are_cached_too():
    private, public = generate_keypair(b"cache-negative")
    signature = sign(private, b"signed")
    clear_verification_caches()
    assert not verify(public, b"unsigned", signature)
    misses = cache_stats()["verify_misses"]
    assert not verify(public, b"unsigned", signature)
    assert cache_stats()["verify_misses"] == misses  # second check was a hit


def test_batch_verify_rejects_batch_with_one_bad_signature():
    items = []
    for index in range(5):
        private, public = generate_keypair(f"batch-bad-{index}".encode())
        message = f"batch message {index}".encode()
        items.append((public, message, sign(private, message)))
    clear_verification_caches()
    assert batch_verify(items)
    for position in range(len(items)):
        tampered = list(items)
        public, message, signature = tampered[position]
        tampered[position] = (public, message + b"!", signature)
        assert not batch_verify(tampered)
    # The valid batch is cached; re-checking is a transcript hit.
    hits = cache_stats()["batch_hits"]
    assert batch_verify(items)
    assert cache_stats()["batch_hits"] == hits + 1


def test_batch_success_seeds_the_per_signature_cache():
    private, public = generate_keypair(b"batch-seeds")
    message = b"quorum statement"
    signature = sign(private, message)
    clear_verification_caches()
    assert batch_verify([(public, message, signature)])
    hits = cache_stats()["verify_hits"]
    assert verify(public, message, signature)
    assert cache_stats()["verify_hits"] == hits + 1


# ----------------------------------------------------------------------
# multi_pow: dedup, prewarmed tables, sliding-window Straus
# ----------------------------------------------------------------------
EXPONENT_BITS = (0, 1, 2, 63, 64, 65, 320, 700, 1100)


@pytest.mark.parametrize("bits", EXPONENT_BITS)
def test_sliding_path_matches_pow_at_each_exponent_length(bits):
    fastexp.clear_caches()
    rng = random.Random(1000 + bits)
    for size in (1, 2, 5, 12):
        pairs = [
            (pow(G, rng.getrandbits(200), P), rng.getrandbits(bits))
            for _ in range(size)
        ]
        assert multi_pow(pairs, P) == _product(pairs)


@pytest.mark.parametrize("size", (1, 2, 3, 4, 7, 16, 31, 62, 80))
def test_sliding_path_matches_pow_for_mixed_batches(size):
    # Every exponent length in one shared squaring chain, with repeated
    # bases (merged by summing exponents) and a non-group modulus too.
    fastexp.clear_caches()
    rng = random.Random(size)
    bases = [pow(G, rng.getrandbits(200), P) for _ in range(max(1, size // 3))]
    pairs = [
        (rng.choice(bases), rng.getrandbits(EXPONENT_BITS[i % len(EXPONENT_BITS)]))
        for i in range(size)
    ]
    assert multi_pow(pairs, P) == _product(pairs)
    odd_modulus = rng.getrandbits(512) | 1
    assert multi_pow(pairs, odd_modulus) == _product(pairs, odd_modulus)


def test_unprewarmed_key_never_builds_a_table():
    fastexp.clear_caches()
    rng = random.Random(53)
    key = pow(G, rng.getrandbits(256), P)
    for _ in range(200):
        exponent = rng.getrandbits(64)
        assert base_pow(key, exponent) == pow(key, exponent, P)
        pairs = [(key, exponent), (pow(G, rng.getrandbits(64), P), rng.getrandbits(16))]
        assert multi_pow(pairs, P) == _product(pairs)
    assert fastexp.cache_stats()["base_tables"] == 0


def test_prewarmed_key_serves_both_entry_points():
    fastexp.clear_caches()
    rng = random.Random(59)
    key = pow(G, rng.getrandbits(256), P)
    assert fastexp.prewarm_base(key)
    hits = fastexp.cache_stats()["base_table_hits"]
    exponent = rng.getrandbits(320)
    assert base_pow(key, exponent) == pow(key, exponent, P)
    pairs = [(key, exponent), (pow(G, rng.getrandbits(64), P), rng.getrandbits(64))]
    assert multi_pow(pairs, P) == _product(pairs)
    stats = fastexp.cache_stats()
    assert stats["base_table_hits"] == hits + 2
    assert stats["base_tables"] == 1


def test_multi_pow_dedupes_repeated_bases():
    rng = random.Random(29)
    base = pow(G, rng.getrandbits(200), P)
    other = pow(G, rng.getrandbits(200), P)
    e1, e2, e3 = (rng.getrandbits(300) for _ in range(3))
    pairs = [(base, e1), (other, e3), (base, e2)]
    expected = pow(base, e1 + e2, P) * pow(other, e3, P) % P
    assert multi_pow(pairs, P) == expected


def test_multi_pow_zero_base_and_zero_exponents():
    assert multi_pow([(0, 5)], P) == 0
    assert multi_pow([(0, 0)], P) == 1  # 0^0 == 1, matching builtins.pow
    assert multi_pow([(123, 0), (456, 0)], P) == 1


def test_multi_pow_modulus_one_is_zero():
    assert multi_pow([], 1) == 0
    assert multi_pow([(3, 5), (7, 11)], 1) == 0


def test_multi_pow_large_cold_batch_agrees():
    # Many fresh bases with short exponents, as in a merged seal flush;
    # the result must match the plain product.
    fastexp.clear_caches()
    rng = random.Random(31)
    pairs = [
        (pow(G, rng.getrandbits(200), P), rng.getrandbits(64))
        for _ in range(64)
    ]
    expected = 1
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, P) % P
    assert multi_pow(pairs, P) == expected


def test_hot_base_upgrades_to_wide_window():
    fastexp.clear_caches()
    base = pow(G, 0xFEED, P)
    assert fastexp.prewarm_base(base)
    assert fastexp._base_tables.get(base).window == fastexp.BASE_WINDOW
    assert fastexp.prewarm_base(base, hot=True)
    assert not fastexp.prewarm_base(base)  # a wide table also serves narrow
    assert fastexp._base_tables.get(base).window == fastexp.BASE_WINDOW_HOT
    rng = random.Random(43)
    exponent = rng.getrandbits(320)
    assert base_pow(base, exponent) == pow(base, exponent, P)


def test_multi_pow_reuses_cached_tables_without_rebuild():
    fastexp.clear_caches()
    rng = random.Random(47)
    base = pow(G, rng.getrandbits(200), P)
    fastexp.prewarm_base(base)
    built = fastexp.cache_stats()["base_tables"]
    for _ in range(6):
        pairs = [(base, rng.getrandbits(320)), (pow(G, rng.getrandbits(64), P), rng.getrandbits(64))]
        expected = 1
        for b, e in pairs:
            expected = expected * pow(b, e, P) % P
        assert multi_pow(pairs, P) == expected
    assert fastexp.cache_stats()["base_tables"] == built + 0  # no churn of the hot base
    assert base in fastexp._base_tables
