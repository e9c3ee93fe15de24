"""Schnorr signatures over the RFC 3526 2048-bit MODP safe-prime group.

The paper's protocols verify signatures inside contracts (path
signatures in the timelock protocol, validator certificates in the CBC
protocol), and the §7.1 gas analysis charges 3000 gas per verification.
To exercise the same code paths as a production chain we use a *real*
public-key signature scheme rather than an HMAC stand-in: classic
Schnorr signatures in the multiplicative group of integers modulo the
RFC 3526 group-14 prime ``p``.

``p`` is a safe prime, so ``q = (p - 1) / 2`` is prime and the squares
modulo ``p`` form a cyclic group of order ``q`` in which discrete log is
believed hard.  We take ``g = 4`` (a quadratic residue) as generator.

Nonces are derived deterministically from the private key and message
(RFC 6979 style), so signing is reproducible — a requirement of the
simulator's determinism policy (DESIGN.md §7).

Performance: all exponentiation goes through
:mod:`repro.crypto.fastexp` (a fixed-base window table for ``g``,
per-public-key tables for keys prewarmed as hot, a shared-squaring
sliding-window multi-exponent for batches), and verification results are memoized in a bounded LRU
keyed on the full ``(key, message, signature)`` triple — the timelock
protocol re-verifies the same path signature at every hop and the CBC
protocol re-verifies the same certificate on every chain, so repeats
are dict hits.  None of this changes a single signature byte, and a
cached verdict can never accept a tampered input: any change to the
key, message, or signature is a different cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.fastexp import (
    G,
    GENERATOR_TABLE_BITS,
    P,
    Q,
    LruDict,
    base_pow,
    generator_pow,
    multi_pow,
)
from repro.crypto.hashing import bytes_to_int, hash_concat, int_to_bytes, tagged_hash
from repro.errors import CryptoError, SignatureError

_SCALAR_BYTES = (Q.bit_length() + 7) // 8

# Batch-verification weights: the Bellare–Garay–Rabin small-exponent
# test.  64-bit random weights give a 2^-64 soundness bound (a forged
# signature passes only if the forger predicts its Fiat-Shamir weight)
# while keeping the weighted exponents short: ``R^w`` costs a 64-bit
# exponent and ``pk^{e·w}`` a ~320-bit one, so the whole batched check
# squares ~320 times instead of ~384 and every digit loop is shorter.
_BATCH_WEIGHT_BYTES = 8

_VERIFY_CACHE = LruDict(1 << 15)
_BATCH_CACHE = LruDict(1 << 12)


@dataclass(frozen=True)
class PrivateKey:
    """A Schnorr private key: a scalar in ``[1, q)``."""

    scalar: int

    def __post_init__(self) -> None:
        if not 1 <= self.scalar < Q:
            raise CryptoError("private key scalar out of range")

    def public_key(self) -> "PublicKey":
        """Derive the matching public key ``g^x mod p`` (memoized)."""
        return PublicKey(_public_point(self.scalar))


@lru_cache(maxsize=4096)
def _public_point(scalar: int) -> int:
    return generator_pow(scalar)


@dataclass(frozen=True)
class PublicKey:
    """A Schnorr public key: a group element ``g^x mod p``."""

    point: int

    def __post_init__(self) -> None:
        if not 1 < self.point < P:
            raise CryptoError("public key element out of range")

    def to_bytes(self) -> bytes:
        """Serialize as fixed-width big-endian bytes."""
        return int_to_bytes(self.point, (P.bit_length() + 7) // 8)

    def fingerprint(self) -> bytes:
        """Return a 20-byte identifier (an address-style hash)."""
        return tagged_hash("repro/pubkey", self.to_bytes())[:20]


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(R, s)`` with ``g^s == R * pk^e``."""

    commitment: int  # R = g^k mod p
    response: int  # s = k + e * x mod q

    def to_bytes(self) -> bytes:
        """Serialize the signature for hashing/transport."""
        return int_to_bytes(self.commitment, (P.bit_length() + 7) // 8) + int_to_bytes(
            self.response, _SCALAR_BYTES
        )


def _challenge(commitment: int, public_key: PublicKey, message: bytes) -> int:
    digest = tagged_hash(
        "repro/schnorr/challenge",
        int_to_bytes(commitment, (P.bit_length() + 7) // 8)
        + public_key.to_bytes()
        + message,
    )
    return bytes_to_int(digest) % Q


@lru_cache(maxsize=4096)
def generate_keypair(seed: bytes) -> tuple[PrivateKey, PublicKey]:
    """Derive a keypair deterministically from ``seed``.

    Distinct seeds give independent keys; the same seed always gives the
    same keypair, keeping simulations reproducible.  Memoized: sweeps
    regenerate the same labelled parties and validators for every deal,
    and both returned objects are frozen.
    """
    scalar = bytes_to_int(tagged_hash("repro/schnorr/keygen", seed)) % (Q - 1) + 1
    private = PrivateKey(scalar)
    return private, private.public_key()


def sign(private_key: PrivateKey, message: bytes) -> Signature:
    """Sign ``message``, deriving the nonce deterministically."""
    nonce_material = tagged_hash(
        "repro/schnorr/nonce",
        int_to_bytes(private_key.scalar, _SCALAR_BYTES) + message,
    )
    k = bytes_to_int(nonce_material) % (Q - 1) + 1
    commitment = generator_pow(k)
    e = _challenge(commitment, private_key.public_key(), message)
    response = (k + e * private_key.scalar) % Q
    return Signature(commitment, response)


def verify(public_key: PublicKey, message: bytes, signature: Signature) -> bool:
    """Return ``True`` iff ``signature`` is valid for ``message``.

    This is the operation the gas model charges 3000 gas for when it
    runs inside a contract (see :mod:`repro.chain.gas`).  Wall-clock
    only: verdicts are memoized on the full input triple, so repeated
    re-verification of the same signature (every hop of a path
    signature, every chain checking the same certificate) costs a dict
    lookup.  A tampered message, key, or signature is a different
    cache key and is always re-checked from scratch.
    """
    if not 1 < signature.commitment < P:
        return False
    if not 0 <= signature.response < Q:
        return False
    key = (public_key.point, message, signature.commitment, signature.response)
    cached = _VERIFY_CACHE.get(key)
    if cached is not None:
        return cached
    e = _challenge(signature.commitment, public_key, message)
    lhs = generator_pow(signature.response)
    rhs = (signature.commitment * base_pow(public_key.point, e)) % P
    result = lhs == rhs
    _VERIFY_CACHE.put(key, result)
    return result


def require_valid(public_key: PublicKey, message: bytes, signature: Signature) -> None:
    """Raise :class:`SignatureError` unless the signature verifies."""
    if not verify(public_key, message, signature):
        raise SignatureError("signature verification failed")


def _ranges_ok(items) -> bool:
    """The cheap structural half of a batch check (no exponentiation)."""
    for _, _, signature in items:
        if not 1 < signature.commitment < P or not 0 <= signature.response < Q:
            return False
    return True


def _transcript(items) -> bytes:
    """The Fiat-Shamir transcript binding an entire batch."""
    return hash_concat(
        *[
            public_key.to_bytes() + message + signature.to_bytes()
            for public_key, message, signature in items
        ]
    )


def _combined_check(items, transcript: bytes) -> bool:
    """Evaluate the weighted linear combination for a staged batch.

        g^(Σ w_i·s_i)  ==  Π R_i^{w_i} · pk_i^{e_i·w_i}   (mod p)

    Weights are small BGR exponents drawn from the transcript, and the
    products ``e_i·w_i`` stay unreduced — at ~320 bits they are far
    below ``q``, so the value is unchanged while the multi-exp squares
    only as far as the longest real exponent.
    """
    lhs_exponent = 0
    pairs = []
    for index, (public_key, message, signature) in enumerate(items):
        material = tagged_hash(
            "repro/schnorr/batch-weight", transcript + index.to_bytes(8, "big")
        )
        weight = bytes_to_int(material[:_BATCH_WEIGHT_BYTES]) or 1
        e = _challenge(signature.commitment, public_key, message)
        lhs_exponent += weight * signature.response
        pairs.append((signature.commitment, weight))
        pairs.append((public_key.point, e * weight))
    # Honest responses keep the sum well inside the generator table's
    # range; only forged out-of-band responses need the reduction.
    if lhs_exponent.bit_length() >= GENERATOR_TABLE_BITS:
        lhs_exponent %= Q
    return generator_pow(lhs_exponent) == multi_pow(pairs, P)


def _certify_members(items) -> None:
    """Seed the per-signature cache: batch acceptance certifies each."""
    for public_key, message, signature in items:
        _VERIFY_CACHE.put(
            (public_key.point, message, signature.commitment, signature.response),
            True,
        )


def batch_verify(items: list[tuple[PublicKey, bytes, Signature]]) -> bool:
    """Verify many Schnorr signatures in one combined check.

    The §9 "signature combining" idea, realized as standard batch
    verification with Bellare–Garay–Rabin small-exponent weights drawn
    by Fiat-Shamir over the whole batch.  The left side is one
    fixed-base exponentiation and the right side is a single
    multi-exponentiation (:func:`repro.crypto.fastexp.multi_pow`), so
    a batch of ``k`` costs a fraction of ``k`` standalone checks.
    Sound: a forged signature only passes if the adversary predicts
    its 64-bit random weight, which the hash prevents.

    Returns True iff every signature in the batch is valid (an empty
    batch is vacuously valid).  Verdicts are memoized on the batch
    transcript; a successful batch also seeds the per-signature verify
    cache, since batch acceptance certifies each member.
    """
    if not items:
        return True
    if not _ranges_ok(items):
        return False
    transcript = _transcript(items)
    cached = _BATCH_CACHE.get(transcript)
    if cached is not None:
        return cached
    result = _combined_check(items, transcript)
    _BATCH_CACHE.put(transcript, result)
    if result:
        _certify_members(items)
    return result


def batch_verify_many(
    batches: list[list[tuple[PublicKey, bytes, Signature]]],
) -> list[bool]:
    """Verify several independent batches, merging them when possible.

    The cross-block aggregation primitive: every batch that passes its
    cheap range checks is folded into **one** combined linear
    combination over the concatenated transcript — one
    ``generator_pow`` and one ``multi_pow`` no matter how many batches
    arrived (and the multi-exp deduplicates the public keys that recur
    across them).  If the merged check passes, every constituent batch
    passed; each batch's own transcript verdict and every member
    signature are cached, exactly as if the batches had been verified
    one by one.  If it fails, each batch is re-checked individually
    (:func:`batch_verify`), so the returned verdicts are always
    identical to the per-batch ones — the merge is a wall-clock
    optimization, never a semantic one.
    """
    verdicts: list[bool] = []
    staged: list[int] = []
    for index, items in enumerate(batches):
        if not items:
            verdicts.append(True)
        elif not _ranges_ok(items):
            verdicts.append(False)
        else:
            verdicts.append(True)  # provisional; settled below
            staged.append(index)
    if not staged:
        return verdicts
    if len(staged) == 1:
        index = staged[0]
        verdicts[index] = batch_verify(batches[index])
        return verdicts
    merged = [item for index in staged for item in batches[index]]
    transcript = _transcript(merged)
    cached = _BATCH_CACHE.get(transcript)
    result = cached if cached is not None else _combined_check(merged, transcript)
    if cached is None:
        _BATCH_CACHE.put(transcript, result)
    if result:
        _certify_members(merged)
        for index in staged:
            _BATCH_CACHE.put(_transcript(batches[index]), True)
        return verdicts
    # Some batch in the merge is bad: isolate per batch.
    for index in staged:
        verdicts[index] = batch_verify(batches[index])
    return verdicts


def cache_stats() -> dict:
    """Hit/miss/size counters for the verification caches."""
    return {
        "verify_hits": _VERIFY_CACHE.hits,
        "verify_misses": _VERIFY_CACHE.misses,
        "verify_size": len(_VERIFY_CACHE),
        "batch_hits": _BATCH_CACHE.hits,
        "batch_misses": _BATCH_CACHE.misses,
        "batch_size": len(_BATCH_CACHE),
    }


def clear_verification_caches() -> None:
    """Drop all memoized verification verdicts (tests, benchmarks)."""
    _VERIFY_CACHE.clear()
    _BATCH_CACHE.clear()
