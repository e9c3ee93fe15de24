"""BFT validator sets.

A validator set of size ``3f + 1`` tolerates ``f`` Byzantine members;
any ``2f + 1`` signatures constitute a quorum certificate (paper
§6.2).  The simulation holds the validators' keypairs so it can
produce certificates; contracts only ever see public keys.

Reconfiguration: a set can *hand over* to a successor set by signing a
handover statement with a quorum — the certificate-chain proofs in
:mod:`repro.consensus.bft` thread these handovers so a contract that
knows only the initial validators can still check recent certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.fastexp import prewarm_base
from repro.crypto.hashing import hash_concat
from repro.crypto.keys import KeyPair
from repro.crypto.schnorr import (
    PublicKey,
    Signature,
    batch_verify as schnorr_batch_verify,
    batch_verify_many as schnorr_batch_verify_many,
)
from repro.errors import ConsensusError


@dataclass(frozen=True)
class QuorumSignature:
    """One validator's contribution to a quorum certificate."""

    public_key: PublicKey
    signature: Signature


class ValidatorSet:
    """``3f + 1`` validators with quorum-signing helpers."""

    def __init__(self, keypairs: list[KeyPair], epoch: int = 0):
        if not keypairs:
            raise ConsensusError("validator set cannot be empty")
        if (len(keypairs) - 1) % 3 != 0:
            raise ConsensusError(
                f"validator set size must be 3f+1, got {len(keypairs)}"
            )
        self._keypairs = list(keypairs)
        self.epoch = epoch
        # A validator's key verifies certificates for the whole run, so
        # its fastexp window table is built now, at set-generation time;
        # fastexp builds tables only for keys prewarmed like this.
        # Keypairs are memoized per label, so regenerated sets find warm
        # tables.
        for keypair in self._keypairs:
            prewarm_base(keypair.public_key.point)

    @classmethod
    def generate(cls, f: int, seed: str = "validators", epoch: int = 0) -> "ValidatorSet":
        """Create a fresh set tolerating ``f`` Byzantine validators."""
        if f < 0:
            raise ConsensusError("f must be non-negative")
        size = 3 * f + 1
        keypairs = [
            KeyPair.from_label(f"{seed}/epoch{epoch}/validator{i}") for i in range(size)
        ]
        return cls(keypairs, epoch=epoch)

    @property
    def size(self) -> int:
        """Total validator count, ``3f + 1``."""
        return len(self._keypairs)

    @property
    def f(self) -> int:
        """The Byzantine tolerance ``f``."""
        return (len(self._keypairs) - 1) // 3

    @property
    def quorum(self) -> int:
        """Quorum size, ``2f + 1``."""
        return 2 * self.f + 1

    def public_keys(self) -> tuple[PublicKey, ...]:
        """The validators' public keys (what contracts are told)."""
        return tuple(kp.public_key for kp in self._keypairs)

    def quorum_sign(self, message: bytes) -> tuple[QuorumSignature, ...]:
        """Produce exactly ``2f + 1`` signatures over ``message``.

        The first ``2f + 1`` validators sign — which members
        participate is irrelevant to verification.
        """
        return tuple(
            QuorumSignature(kp.public_key, kp.sign(message))
            for kp in self._keypairs[: self.quorum]
        )

    def next_epoch(self, seed: str = "validators") -> "ValidatorSet":
        """Generate the successor set for a reconfiguration."""
        return ValidatorSet.generate(self.f, seed=seed, epoch=self.epoch + 1)

    def batch_verify(
        self, message: bytes, signatures: tuple[QuorumSignature, ...]
    ) -> bool:
        """Check a quorum certificate over ``message`` in one batch."""
        return batch_verify_quorum(
            self.public_keys(), self.quorum, message, signatures
        )


def quorum_structure_ok(
    valid_keys: tuple[PublicKey, ...],
    quorum: int,
    signatures,
) -> bool:
    """The structural half of a quorum check, shared by every caller.

    Every signer must be a member of ``valid_keys``, no signer may
    appear twice, and at least ``quorum`` signatures must be present —
    the same rules the per-signature replay in
    :mod:`repro.core.proofs` enforces, and the rules the market
    mempool applies before whole-block signature merging.
    """
    entries = list(signatures)
    if len(entries) < quorum:
        return False
    key_set = set(valid_keys)
    seen: set[int] = set()
    for entry in entries:
        if entry.public_key.point in seen:
            return False  # duplicate signer: malformed certificate
        seen.add(entry.public_key.point)
        if entry.public_key not in key_set:
            return False  # only members may vote
    return True


def batch_verify_quorum(
    valid_keys: tuple[PublicKey, ...],
    quorum: int,
    message: bytes,
    signatures,
) -> bool:
    """Batch-verify a quorum certificate: one combined check for all.

    Structure via :func:`quorum_structure_ok`; the cryptographic check
    itself is a single randomized linear combination
    (:func:`repro.crypto.schnorr.batch_verify`) instead of one
    exponentiation pair per signature.

    This is a wall-clock API — gas accounting stays with the caller,
    which still charges the protocol's full per-verification price.
    """
    entries = list(signatures)
    if not quorum_structure_ok(valid_keys, quorum, entries):
        return False
    return schnorr_batch_verify(
        [(entry.public_key, message, entry.signature) for entry in entries]
    )


class VerifyAggregator:
    """Cross-block signature-verification aggregation.

    Several block producers seal at the same simulated instant — every
    market chain's mempool seals on the same half-grid boundary — and
    each seal wants one batched Schnorr check for its block's worth of
    signatures.  Instead of verifying inline, each producer *enqueues*
    its batch here together with a verdict callback; the aggregator
    schedules a single flush **at the same instant** (the simulator
    runs same-time events in scheduling order, so the flush runs after
    every seal at that boundary and strictly before the next block
    executes).  When more than one block's batch lands at a boundary,
    the flush folds up to ``max_blocks`` of them into one merged check
    (:func:`repro.crypto.schnorr.batch_verify_many`) — one
    ``multi_pow`` for the whole boundary, with the hot public keys
    deduplicated across blocks — and delivers each block its own
    verdict in enqueue order.

    Scope note: with one coordinator shard exactly one mempool carries
    signature batches, so production flushes hold a single batch and
    the merge path stays idle (the E16 unsharded win comes from the v2
    ``multi_pow`` engine underneath).  The sharded market (PR 5) runs
    M order-carrying coordinator chains whose mempools all seal on the
    same half-grid boundary, so production flushes routinely fold M
    registration batches into one ``multi_pow`` —
    ``MarketReport.aggregator_merge_rate()`` reports how often, from
    the ``stats`` counters; ``tests/market/test_cross_shard.py`` and
    ``tests/market/test_verify_aggregation.py`` pin the behaviour.

    Because verdicts are delivered at the same simulated time the
    seals ran, and a failed merge falls back to per-batch (and the
    callers fall back to per-order) isolation, commit/abort decisions
    and report bytes are identical to unaggregated verification; only
    wall-clock changes.  ``schedule`` is any callable that runs a
    thunk later in the current instant (the market passes
    ``simulator.schedule_at(simulator.now, ...)``).  In ``stats``,
    ``isolation_fallbacks`` counts flush chunks in which at least one
    batch failed and isolation ran — merged or not.
    """

    def __init__(self, schedule, max_blocks: int = 8):
        if max_blocks < 1:
            raise ConsensusError("max_blocks must be at least 1")
        self._schedule = schedule
        self.max_blocks = max_blocks
        self._queue: list[tuple[list, object]] = []
        self._flush_scheduled = False
        # Telemetry hook (repro.telemetry.Telemetry or None): flushes
        # report their merge width and pair counts; strictly
        # observational, one attribute check when off.
        self.telemetry = None
        self.stats = {
            "flushes": 0,
            "batches": 0,
            "merged_flushes": 0,
            "merged_batches": 0,
            "isolation_fallbacks": 0,
        }

    def enqueue(self, items: list, on_verdict) -> None:
        """Queue one block's signature batch; ``on_verdict(ok)`` later.

        ``items`` are ``(public_key, message, signature)`` triples (one
        block's worth); the callback fires during this instant's flush.
        """
        self._queue.append((items, on_verdict))
        self.stats["batches"] += 1
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._schedule(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        queue, self._queue = self._queue, []
        self.stats["flushes"] += 1
        for start in range(0, len(queue), self.max_blocks):
            chunk = queue[start : start + self.max_blocks]
            batches = [items for items, _ in chunk]
            if self.telemetry is not None:
                self.telemetry.verify_flush(
                    len(chunk), sum(len(items) for items in batches)
                )
            if len(chunk) > 1:
                self.stats["merged_flushes"] += 1
                self.stats["merged_batches"] += len(chunk)
            verdicts = schnorr_batch_verify_many(batches)
            if not all(verdicts):
                self.stats["isolation_fallbacks"] += 1
            for (_, on_verdict), verdict in zip(chunk, verdicts):
                on_verdict(verdict)


@dataclass(frozen=True)
class HandoverCertificate:
    """A quorum of epoch ``k`` vouching for the validators of epoch ``k+1``."""

    from_epoch: int
    to_epoch: int
    new_public_keys: tuple[PublicKey, ...]
    signatures: tuple[QuorumSignature, ...]

    @staticmethod
    def message(from_epoch: int, to_epoch: int, new_keys: tuple[PublicKey, ...]) -> bytes:
        """Canonical byte encoding of the handover statement."""
        return hash_concat(
            b"repro/handover",
            from_epoch.to_bytes(8, "big"),
            to_epoch.to_bytes(8, "big"),
            *[key.to_bytes() for key in new_keys],
        )


def make_handover(old: ValidatorSet, new: ValidatorSet) -> HandoverCertificate:
    """Have ``old``'s quorum certify ``new`` as its successor."""
    if new.epoch != old.epoch + 1:
        raise ConsensusError("handover must advance the epoch by one")
    message = HandoverCertificate.message(old.epoch, new.epoch, new.public_keys())
    return HandoverCertificate(
        from_epoch=old.epoch,
        to_epoch=new.epoch,
        new_public_keys=new.public_keys(),
        signatures=old.quorum_sign(message),
    )
