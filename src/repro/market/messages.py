"""The typed messages of the shard-runtime API.

The market coordinator and its per-shard
:class:`~repro.market.runtime.ShardRuntime`\\ s communicate *only*
through the frozen payload types below, wrapped in the uniform
:class:`~repro.sim.network.Envelope` (sender, shard, tick, payload)
and carried by a :class:`~repro.sim.network.LocalBus`.  Each type
names one protocol edge:

* :class:`SubmitOrder` — coordinator → home shard: register a signed
  deal order on the shard's commit log (the runtime builds the
  on-chain registration transaction itself).
* :class:`CrossShardEscrowOp` — coordinator → asset shard: publish a
  per-deal escrow contract or submit one escrow step (``open``,
  ``approve``, ``deposit``, ``transfer``, ``refund``, ``claim``) to
  the asset chain's mempool.
* :class:`VoteFanout` — coordinator → shard: a commit-log vote or
  abort mark on the deal's home shard, or a §5 path-signature vote
  fanned to a timelock escrow's chain.
* :class:`DealDecided` — coordinator → asset shard: the home commit
  log decided; claim (commit/abort) the deal's book escrows on one
  chain.
* :class:`SealBatch` — shard → verify service: one sealed block's
  merged order-signature batch, keyed ``(chain_id, seq)``; the
  verdict settles the block through a callback held by the service.
* :class:`BlockReceipts` — shard → coordinator: one sealed block's
  receipts, which the coordinator's phase engine routes to deal state
  machines.
* :class:`DeltaShipment` / :class:`DeltaAck` — replication plane:
  sealed-block write-set shipping leader → follower and the
  follower's sequence acknowledgement (these two ride the dedicated
  replication :class:`~repro.sim.network.SynchronousNetwork`, not the
  bus, but share the Envelope wrapper so network fault stats cover
  them uniformly).

**At-least-once delivery.**  Under a chaotic bus
(:class:`~repro.sim.network.ChaosBus`) every envelope carries a
per-(sender, recipient) monotonic ``msg_id`` (a sender sequence
number), the transport acks each delivery with a
:class:`~repro.sim.network.BusAck`, and unacked envelopes are resent
on a capped exponential backoff.  At-least-once means handlers *will*
see duplicates; each handler guards itself with a
:class:`DedupWindow`, which suppresses any (sender, msg_id) it has
already admitted — making replayed, duplicated, and reordered
delivery indistinguishable from exact delivery at the state level.
``msg_id == 0`` (the plain bus) bypasses the window entirely.

Every type is a frozen dataclass; nothing here imports the runtime,
so the vocabulary is dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.network import BusAck, Envelope

__all__ = [
    "Envelope",
    "BusAck",
    "DedupWindow",
    "SubmitOrder",
    "CrossShardEscrowOp",
    "VoteFanout",
    "DealDecided",
    "SealBatch",
    "BlockReceipts",
    "DeltaShipment",
    "DeltaAck",
]


class DedupWindow:
    """Suppress duplicate reliable envelopes at one endpoint.

    Tracks, per sender, a contiguous *floor* (every ``msg_id`` at or
    below it has been admitted) plus the sparse set of admitted ids
    above it.  Because :class:`~repro.sim.network.ChaosBus` stamps
    ``msg_id`` per (sender, recipient) pair, the ids arriving at one
    endpoint from one sender are gap-free once delivery settles, so
    the floor advances and the set stays small.  A *permanently*
    missing low id (possible only if the transport gave up resending —
    the ChaosBus never does) would pin the floor below the gap and let
    ``_seen`` grow with one entry per later id until the gap fills;
    that growth is bounded by the sender's in-flight window under
    at-least-once delivery, and the regression tests document the
    stuck-floor behaviour explicitly.  ``stats`` (optional)
    is a counter dict whose ``"dup_suppressed"`` key is bumped on
    every suppression — the market passes the bus's own stats dict so
    suppression shows up next to the chaos counters.
    """

    def __init__(self, stats: dict | None = None):
        self._floor: dict[str, int] = {}
        self._seen: dict[str, set[int]] = {}
        self._stats = stats

    def duplicate(self, envelope: Envelope) -> bool:
        """Admit ``envelope`` once; True if it was already admitted."""
        msg_id = envelope.msg_id
        if not msg_id:
            return False
        sender = envelope.sender
        floor = self._floor.get(sender, 0)
        seen = self._seen.setdefault(sender, set())
        if msg_id <= floor or msg_id in seen:
            if self._stats is not None:
                # ``.get``: only the ChaosBus pre-seeds this key, but a
                # window can sit over a plain LocalBus (whose stats
                # dict has no chaos keys) and still see a nonzero
                # msg_id — e.g. replayed or test-injected envelopes.
                self._stats["dup_suppressed"] = (
                    self._stats.get("dup_suppressed", 0) + 1
                )
            return True
        seen.add(msg_id)
        while floor + 1 in seen:
            floor += 1
            seen.discard(floor)
        self._floor[sender] = floor
        return False


@dataclass(frozen=True)
class SubmitOrder:
    """Register a signed order on its home shard's commit log."""

    deal_id: bytes
    order: object  # SignedDealOrder


@dataclass(frozen=True)
class CrossShardEscrowOp:
    """One escrow-plane operation on an asset chain.

    ``op == "publish"`` carries the per-deal escrow ``contract`` to
    publish; every other op carries the ready-signed transaction
    ``tx`` for the chain's mempool.
    """

    deal_id: bytes
    chain_id: str
    op: str
    tx: object | None = None  # Transaction
    contract: object | None = None  # Contract (publish only)
    asset_id: str = ""


@dataclass(frozen=True)
class VoteFanout:
    """A vote (or abort mark) fanned out to one chain's mempool."""

    deal_id: bytes
    chain_id: str
    tx: object  # Transaction


@dataclass(frozen=True)
class DealDecided:
    """The home log decided: claim the deal's book escrows on a chain."""

    deal_id: bytes
    chain_id: str
    method: str  # "commit" | "abort"


@dataclass(frozen=True)
class SealBatch:
    """One sealed block's merged order-signature batch.

    ``items`` are ``(public_key, message, signature)`` triples; the
    ``(chain_id, seq)`` key is assigned per chain in seal order and
    names the settle callback the verify service holds for the batch.
    """

    chain_id: str
    seq: int
    items: tuple


@dataclass(frozen=True)
class BlockReceipts:
    """One sealed block's receipts, for the coordinator's phase engine."""

    chain_id: str
    height: int
    receipts: tuple


@dataclass(frozen=True)
class DeltaShipment:
    """A sealed block's write-set, shipped leader → follower."""

    chain_id: str
    seq: int
    delta: object  # repro.chain.ledger.StateDelta


@dataclass(frozen=True)
class DeltaAck:
    """A follower's highest-applied sequence acknowledgement."""

    follower: str
    chain_id: str
    seq: int

