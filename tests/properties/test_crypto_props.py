"""Property-based tests for the cryptographic primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import bytes_to_int, hash_concat, int_to_bytes
from repro.crypto.keys import KeyPair, Wallet
from repro.crypto.merkle import MerkleTree
from repro.crypto.pathsig import extend_path_signature, sign_vote
from repro.crypto.schnorr import generate_keypair, sign, verify

small_bytes = st.binary(min_size=0, max_size=64)


@given(seed=small_bytes, message=small_bytes)
@settings(max_examples=25, deadline=None)
def test_schnorr_roundtrip(seed, message):
    private, public = generate_keypair(seed or b"\x00")
    assert verify(public, message, sign(private, message))


@given(seed=small_bytes, message=small_bytes, other=small_bytes)
@settings(max_examples=25, deadline=None)
def test_schnorr_rejects_other_messages(seed, message, other):
    if message == other:
        return
    private, public = generate_keypair(seed or b"\x00")
    assert not verify(public, other, sign(private, message))


@given(value=st.integers(min_value=0, max_value=2**256))
def test_int_bytes_roundtrip(value):
    assert bytes_to_int(int_to_bytes(value)) == value


@given(parts=st.lists(small_bytes, min_size=1, max_size=6))
def test_hash_concat_deterministic(parts):
    assert hash_concat(*parts) == hash_concat(*parts)


@given(
    parts=st.lists(small_bytes, min_size=2, max_size=4),
    data=st.data(),
)
@settings(max_examples=50)
def test_hash_concat_injective_on_structure(parts, data):
    # Moving a byte across a boundary must change the hash.
    index = data.draw(st.integers(min_value=0, max_value=len(parts) - 2))
    if not parts[index + 1]:
        return
    moved = list(parts)
    moved[index] = parts[index] + parts[index + 1][:1]
    moved[index + 1] = parts[index + 1][1:]
    if moved == parts:
        return
    assert hash_concat(*parts) != hash_concat(*moved)


@given(leaves=st.lists(small_bytes, min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_merkle_every_leaf_provable(leaves):
    tree = MerkleTree(leaves)
    for index, leaf in enumerate(leaves):
        assert tree.proof(index).verify(leaf, tree.root)


@given(
    leaves=st.lists(small_bytes, min_size=2, max_size=20),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_merkle_wrong_leaf_rejected(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    tampered = leaves[index] + b"!"
    assert not tree.proof(index).verify(tampered, tree.root)


@given(
    deal_id=st.binary(min_size=1, max_size=32),
    hops=st.lists(st.sampled_from(["p1", "p2", "p3", "p4"]), max_size=3, unique=True),
)
@settings(max_examples=30, deadline=None)
def test_path_signature_any_forwarding_chain_verifies(deal_id, hops):
    wallet = Wallet()
    voter = KeyPair.from_label("voter")
    wallet.register(voter)
    path = sign_vote(voter, deal_id)
    for hop in hops:
        keypair = KeyPair.from_label(hop)
        wallet.register(keypair)
        path = extend_path_signature(path, keypair)
    assert path.path_length == 1 + len(hops)
    assert path.verify(wallet, deal_id)
    assert not path.verify(wallet, deal_id + b"x")


# ----------------------------------------------------------------------
# Fast-exponentiation engine vs builtins.pow (PR 4 satellite)
# ----------------------------------------------------------------------
from repro.crypto import fastexp  # noqa: E402
from repro.crypto.fastexp import (  # noqa: E402
    BASE_TABLE_BITS,
    G,
    GENERATOR_TABLE_BITS,
    P,
    base_pow,
    generator_pow,
    multi_pow,
)

# Exponents deliberately straddle every regime: zero, tiny, the honest
# ~256/320/513-bit ranges, and values past both table capacities
# (which must fall back, not fail).
exponents = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=2**320),
    st.integers(min_value=2**BASE_TABLE_BITS, max_value=2 ** (BASE_TABLE_BITS + 8)),
    st.integers(
        min_value=2**GENERATOR_TABLE_BITS, max_value=2 ** (GENERATOR_TABLE_BITS + 8)
    ),
)

group_bases = st.integers(min_value=0, max_value=2**256).map(
    lambda e: pow(G, e, P)
)


@given(pairs=st.lists(st.tuples(group_bases, exponents), min_size=0, max_size=12))
@settings(max_examples=40, deadline=None)
def test_multi_pow_matches_builtin_product(pairs):
    expected = 1
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, P) % P
    assert multi_pow(pairs, P) == expected


@given(
    pairs=st.lists(st.tuples(group_bases, exponents), min_size=1, max_size=6),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_multi_pow_duplicate_bases_merge_correctly(pairs, data):
    # Duplicate every pair a random number of times: exponent-summing
    # dedup must agree with the plain product.
    duplicated = []
    for pair in pairs:
        duplicated.extend([pair] * data.draw(st.integers(min_value=1, max_value=3)))
    expected = 1
    for base, exponent in duplicated:
        expected = expected * pow(base, exponent, P) % P
    assert multi_pow(duplicated, P) == expected


@given(
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**64), exponents),
        min_size=0,
        max_size=8,
    ),
    modulus=st.one_of(
        st.just(1), st.integers(min_value=2, max_value=2**64), st.just(P)
    ),
)
@settings(max_examples=60, deadline=None)
def test_multi_pow_arbitrary_moduli(pairs, modulus):
    expected = 1 % modulus
    for base, exponent in pairs:
        expected = expected * pow(base, exponent, modulus) % modulus
    assert multi_pow(pairs, modulus) == expected


@given(base=group_bases, exponent=exponents)
@settings(max_examples=40, deadline=None)
def test_base_pow_matches_builtin_cold_and_prewarmed(base, exponent):
    # Cold (builtins.pow) first, then through a prewarmed table, which
    # itself falls back past its capacity.
    fastexp.clear_caches()
    assert base_pow(base, exponent) == pow(base, exponent, P)
    fastexp.prewarm_base(base)
    assert base_pow(base, exponent) == pow(base, exponent, P)


@given(exponent=exponents)
@settings(max_examples=40, deadline=None)
def test_generator_pow_matches_builtin(exponent):
    assert generator_pow(exponent) == pow(G, exponent, P)
