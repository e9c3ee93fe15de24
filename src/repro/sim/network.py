"""Network timing models: synchronous and eventually synchronous.

Endpoints register by name and receive messages via a callback.  The
network decides *when* a sent message is delivered:

* :class:`SynchronousNetwork` delivers within a known bound Δ — the
  model the timelock protocol (§5) requires;
* :class:`EventuallySynchronousNetwork` delivers with arbitrary
  (adversary-controllable) delay before the global stabilization time
  (GST) and within Δ after it — the model the CBC protocol (§6)
  tolerates.

Fault injectors (see :mod:`repro.sim.faults`) can drop or delay
messages for specific endpoints to model crashes, offline windows,
and denial-of-service attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import NetworkError
from repro.sim.rng import DeterministicRng
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class Message:
    """An application message in flight between two endpoints."""

    sender: str
    recipient: str
    payload: object
    sent_at: float


@dataclass(frozen=True)
class Envelope:
    """The one typed wrapper every market message plane shares.

    Replication delta shipping and the shard runtime messages
    (:mod:`repro.market.messages`) all travel as an ``Envelope``: who
    sent it, which shard it concerns, the simulated tick it was posted
    at, and a frozen payload.  Because the wrapper
    is uniform, :class:`Network` filter/drop/delay stats — and the
    fault injectors behind them — apply to every plane the same way:
    a fault filter keyed on endpoint names never needs to know which
    plane a message belongs to, and a payload-typed consumer can
    ``isinstance`` its way through any plane's traffic.

    ``msg_id`` is the at-least-once delivery tag: a per-(sender,
    recipient) monotonic sequence number stamped by :class:`ChaosBus`.
    ``msg_id == 0`` marks exact-transport traffic (the plain
    :class:`LocalBus`, acks) that is neither acked nor deduplicated —
    the trailing default keeps chaos-free construction byte-identical.
    """

    sender: str
    shard: int
    tick: float
    payload: object
    msg_id: int = 0


@dataclass(frozen=True)
class BusAck:
    """Transport-level receipt for a reliable :class:`Envelope`.

    Emitted by :class:`ChaosBus` when a reliable envelope reaches its
    handler; consumed inside the bus (never delivered to endpoint
    handlers).  ``origin`` names the acking recipient, ``msg_id`` the
    sequence number being acknowledged.  Acks themselves ride the
    chaotic channel: a lost ack is healed by the sender's resend, whose
    duplicate delivery is re-acked.
    """

    origin: str
    msg_id: int


Handler = Callable[[Message], None]


class Network:
    """Base network: registration, delivery, fault hooks.

    Subclasses implement :meth:`latency` to realize a timing model.
    A *delivery filter* may veto or postpone deliveries; fault
    injectors install these.
    """

    def __init__(self, simulator: Simulator, rng: DeterministicRng | None = None):
        self.simulator = simulator
        self.rng = rng or DeterministicRng(0)
        self._handlers: dict[str, Handler] = {}
        self._filters: list[Callable[[Message], float | None]] = []
        self._delivered = 0
        self._dropped = 0
        self._filter_dropped = 0
        self._filter_delayed = 0
        self._filter_duplicated = 0
        self._last_delivery: dict[tuple[str, str], float] = {}

    def register(self, name: str, handler: Handler) -> None:
        """Attach an endpoint; messages to ``name`` invoke ``handler``."""
        if name in self._handlers:
            raise NetworkError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def deregister(self, name: str) -> None:
        """Detach an endpoint; future messages to it are dropped."""
        self._handlers.pop(name, None)

    def add_filter(self, fn: Callable[[Message], float | None]) -> None:
        """Install a delivery filter.

        For each message the filter returns ``None`` to leave it alone,
        a non-negative float to add that much extra delay, or raises
        :class:`DropMessage` to drop it.
        """
        self._filters.append(fn)

    def latency(self, message: Message) -> float:
        """The base delivery delay for ``message`` (timing model)."""
        raise NotImplementedError

    @property
    def stats(self) -> dict[str, int]:
        """Delivery counters, including fault-injector effects.

        ``filter_dropped``/``filter_delayed`` count what the installed
        delivery filters did (``dropped`` also includes filter drops),
        so injected faults are observable rather than silent.
        """
        return {
            "delivered": self._delivered,
            "dropped": self._dropped,
            "filter_dropped": self._filter_dropped,
            "filter_delayed": self._filter_delayed,
            "filter_duplicated": self._filter_duplicated,
        }

    def send(self, sender: str, recipient: str, payload: object) -> None:
        """Send ``payload``; delivery is scheduled per the timing model."""
        message = Message(sender, recipient, payload, self.simulator.now)
        delay = self.latency(message)
        duplicate_delay: float | None = None
        try:
            for fn in self._filters:
                extra = fn(message)
                if extra is not None:
                    delay += extra
                    if extra > 0:
                        self._filter_delayed += 1
        except DropMessage:
            self._dropped += 1
            self._filter_dropped += 1
            return
        except DuplicateMessage as dup:
            self._filter_duplicated += 1
            duplicate_delay = delay + dup.extra_delay
        # FIFO per ordered pair (a TCP-like channel): a later send is
        # never delivered before an earlier one.  The clamp can only
        # push delivery later, and never past the Δ bound, because the
        # earlier message already respected it at an earlier send time.
        self._schedule_delivery(message, delay)
        if duplicate_delay is not None:
            # The duplicated copy rides the same FIFO channel, so it
            # lands *after* the original — idempotent apply absorbs it.
            self._schedule_delivery(message, duplicate_delay)

    def _schedule_delivery(self, message: Message, delay: float) -> None:
        pair = (message.sender, message.recipient)
        deliver_at = self.simulator.now + delay
        floor = self._last_delivery.get(pair)
        if floor is not None and deliver_at <= floor:
            deliver_at = floor + 1e-9
        self._last_delivery[pair] = deliver_at
        self.simulator.schedule_at(
            deliver_at,
            lambda: self._deliver(message),
            label=f"deliver->{message.recipient}",
        )

    def broadcast(self, sender: str, payload: object) -> None:
        """Send ``payload`` to every registered endpoint except ``sender``."""
        for name in sorted(self._handlers):
            if name != sender:
                self.send(sender, name, payload)

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.recipient)
        if handler is None:
            self._dropped += 1
            return
        self._delivered += 1
        handler(message)


class DropMessage(Exception):
    """Raised by a delivery filter to drop the message entirely."""


class DuplicateMessage(Exception):
    """Raised by a delivery filter to deliver the message *twice*.

    The second copy is delivered ``extra_delay`` ticks after the
    original's delivery time (FIFO-clamped, so it never overtakes it).
    Fault injectors raise this to exercise idempotent apply paths.
    """

    def __init__(self, extra_delay: float = 0.0):
        super().__init__(extra_delay)
        self.extra_delay = extra_delay


class LocalBus:
    """Zero-latency, synchronous :class:`Envelope` delivery.

    The in-process message plane of the market's shard runtimes: a
    ``post`` builds an :class:`Envelope` stamped with the current
    simulated tick and hands it to the recipient's handler *in the
    same call* — no simulator event is scheduled, so wiring the bus
    into an existing event order perturbs nothing.  That synchronous
    delivery is also the degenerate (and trivially correct) form of
    the simulated-time barrier protocol: every message for tick *t*
    is delivered before anything advances past *t*, because nothing
    advances at all until the handler returns.

    The bus keeps :class:`Network`-shaped delivery counters and
    accepts the same style of delivery filters (return extra delay,
    or raise :class:`DropMessage`), so drop/delay observability is
    uniform across the replication network, the telemetry plane, and
    the shard message plane.  A delayed envelope is re-posted through
    the simulator; the market itself installs no filters, keeping the
    default path event-free.
    """

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self._handlers: dict[str, Callable[[Envelope], None]] = {}
        self._filters: list[Callable[[Envelope], float | None]] = []
        self.stats = {
            "delivered": 0,
            "dropped": 0,
            "filter_dropped": 0,
            "filter_delayed": 0,
        }


    def register(self, name: str, handler: Callable[[Envelope], None]) -> None:
        """Attach an endpoint; envelopes posted to ``name`` invoke it."""
        if name in self._handlers:
            raise NetworkError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def deregister(self, name: str) -> None:
        """Detach an endpoint; future envelopes to it are dropped."""
        self._handlers.pop(name, None)

    def add_filter(self, fn: Callable[[Envelope], float | None]) -> None:
        """Install a delivery filter (same contract as Network's)."""
        self._filters.append(fn)

    def post(self, sender: str, recipient: str, shard: int, payload: object) -> None:
        """Deliver ``payload`` to ``recipient`` at this very instant."""
        envelope = Envelope(
            sender=sender, shard=shard, tick=self.simulator.now, payload=payload
        )
        self._route(recipient, envelope)

    def _route(self, recipient: str, envelope: Envelope) -> None:
        """Run the delivery filters, then deliver (now or delayed)."""
        delay = 0.0
        try:
            for fn in self._filters:
                extra = fn(envelope)
                if extra is not None and extra > 0:
                    delay += extra
                    self.stats["filter_delayed"] += 1
        except DropMessage:
            self.stats["dropped"] += 1
            self.stats["filter_dropped"] += 1
            return
        if delay > 0:
            self.simulator.schedule(
                delay,
                lambda: self._deliver(recipient, envelope),
                label=f"bus->{recipient}",
            )
            return
        self._deliver(recipient, envelope)

    def _deliver(self, recipient: str, envelope: Envelope) -> None:
        handler = self._handlers.get(recipient)
        if handler is None:
            self.stats["dropped"] += 1
            return
        self.stats["delivered"] += 1
        handler(envelope)


class ChaosBus(LocalBus):
    """A :class:`LocalBus` with seeded chaos and at-least-once delivery.

    Every ``post`` stamps the envelope with a per-(sender, recipient)
    monotonic ``msg_id`` and registers it as pending.  Each physical
    transmission then rolls the plane's :class:`~repro.sim.chaos.ChaosPolicy`
    hazards on the dedicated ``chaos/bus`` stream — drop (the copy
    vanishes), duplicate (a second copy is dispatched), delay and
    reorder (the copy is held and re-enters via the simulator, landing
    behind same-instant traffic).  Reliability sits on top: a delivered
    reliable envelope is acked with a :class:`BusAck` back to its
    sender (the ack rides the same chaotic channel and is intercepted
    by the bus, never reaching endpoint handlers); an unacked envelope
    is retransmitted on a capped exponential backoff timer.  Duplicate
    deliveries are re-acked, so a lost ack heals, and recipients are
    expected to suppress them with a :class:`~repro.market.messages.DedupWindow`.

    Determinism: all hazard draws come from one labelled stream with a
    fixed number of draws per transmission, so a given (seed, policy,
    workload) triple replays the identical chaos schedule in any
    process layout.  A pending envelope whose recipient turns out to be
    unregistered is abandoned (retrying a void endpoint forever would
    keep the event loop alive); everything else is retried until acked.
    """

    def __init__(
        self,
        simulator: Simulator,
        policy,
        seed: int | str = 0,
        ack_timeout: float = 2.0,
        backoff_cap: float = 16.0,
    ):
        super().__init__(simulator)
        self.policy = policy
        self.rng = DeterministicRng(f"chaos-bus/{seed}")
        self.ack_timeout = ack_timeout
        self.backoff_cap = backoff_cap
        self._next_seq: dict[tuple[str, str], int] = {}
        # (sender, recipient, msg_id) -> [recipient, envelope, attempt, timer]
        self._pending: dict[tuple[str, str, int], list] = {}
        self.stats.update(
            {
                "chaos_dropped": 0,
                "chaos_duplicated": 0,
                "chaos_delayed": 0,
                "chaos_reordered": 0,
                "resends": 0,
                "acks_delivered": 0,
                "dup_suppressed": 0,
            }
        )

    @property
    def in_flight(self) -> int:
        """Reliable envelopes posted but not yet acknowledged."""
        return len(self._pending)

    def post(self, sender: str, recipient: str, shard: int, payload: object) -> None:
        """Reliably deliver ``payload`` (at-least-once, acked)."""
        pair = (sender, recipient)
        seq = self._next_seq.get(pair, 0) + 1
        self._next_seq[pair] = seq
        envelope = Envelope(
            sender=sender,
            shard=shard,
            tick=self.simulator.now,
            payload=payload,
            msg_id=seq,
        )
        key = (sender, recipient, seq)
        self._pending[key] = [recipient, envelope, 0, None]
        self._transmit(recipient, envelope)
        if key in self._pending:
            # Not acked synchronously (the copy was dropped, held, or
            # the ack was) — arm the resend timer.  The zero-chaos
            # path never reaches here, so it schedules no events.
            self._arm(key)

    def _transmit(self, recipient: str, envelope: Envelope) -> None:
        """One physical transmission attempt: roll hazards, dispatch."""
        policy = self.policy.for_payload(envelope.payload)
        stream = self.rng.stream("chaos/bus")
        # Fixed draw count per transmission keeps the chaos schedule a
        # pure function of (seed, transmission index), independent of
        # which hazards fire.
        r_drop = stream.random()
        r_dup = stream.random()
        r_delay = stream.random()
        u_delay = stream.random()
        r_reorder = stream.random()
        u_reorder = stream.random()
        u_dup = stream.random()
        if r_drop < policy.drop_rate:
            self.stats["chaos_dropped"] += 1
            return
        hold = 0.0
        if r_delay < policy.delay_rate:
            hold += policy.delay_min + u_delay * (policy.delay_max - policy.delay_min)
            self.stats["chaos_delayed"] += 1
        if r_reorder < policy.reorder_rate:
            # A short hold re-enters the simulator behind other traffic
            # at nearby instants — the reordering hazard.
            hold += u_reorder * policy.reorder_max
            self.stats["chaos_reordered"] += 1
        if r_dup < policy.dup_rate:
            self.stats["chaos_duplicated"] += 1
            self._dispatch(recipient, envelope, hold + u_dup * policy.reorder_max)
        self._dispatch(recipient, envelope, hold)

    def _dispatch(self, recipient: str, envelope: Envelope, hold: float) -> None:
        if hold > 0:
            self.simulator.schedule(
                hold,
                lambda: self._route(recipient, envelope),
                label=f"chaos->{recipient}",
            )
            return
        self._route(recipient, envelope)

    def _deliver(self, recipient: str, envelope: Envelope) -> None:
        payload = envelope.payload
        if isinstance(payload, BusAck):
            entry = self._pending.pop((recipient, payload.origin, payload.msg_id), None)
            if entry is not None:
                if entry[3] is not None:
                    entry[3].cancel()
                self.stats["acks_delivered"] += 1
            return
        handler = self._handlers.get(recipient)
        if handler is None:
            self.stats["dropped"] += 1
            if envelope.msg_id:
                entry = self._pending.pop(
                    (envelope.sender, recipient, envelope.msg_id), None
                )
                if entry is not None and entry[3] is not None:
                    entry[3].cancel()
            return
        self.stats["delivered"] += 1
        handler(envelope)
        if envelope.msg_id:
            ack = Envelope(
                sender=recipient,
                shard=envelope.shard,
                tick=self.simulator.now,
                payload=BusAck(origin=recipient, msg_id=envelope.msg_id),
            )
            self._transmit(envelope.sender, ack)

    def _arm(self, key: tuple[str, str, int]) -> None:
        entry = self._pending.get(key)
        if entry is None:
            return
        delay = min(self.ack_timeout * (2.0 ** entry[2]), self.backoff_cap)
        entry[3] = self.simulator.schedule(
            delay, lambda: self._retry(key), label=f"bus-retry->{entry[0]}"
        )

    def _retry(self, key: tuple[str, str, int]) -> None:
        entry = self._pending.get(key)
        if entry is None:
            return
        entry[2] += 1
        entry[3] = None
        self.stats["resends"] += 1
        self._transmit(entry[0], entry[1])
        if key in self._pending:
            self._arm(key)


class SynchronousNetwork(Network):
    """Delivery within a known bound Δ (paper §5's model).

    Latency is drawn uniformly from ``[min_latency, delta]`` so that
    message orderings vary across seeds while respecting the bound.
    """

    def __init__(
        self,
        simulator: Simulator,
        delta: float,
        rng: DeterministicRng | None = None,
        min_latency: float = 0.0,
    ):
        super().__init__(simulator, rng)
        if delta <= 0:
            raise NetworkError("delta must be positive")
        if not 0 <= min_latency <= delta:
            raise NetworkError("min_latency must lie in [0, delta]")
        self.delta = delta
        self.min_latency = min_latency

    def latency(self, message: Message) -> float:
        return self.rng.uniform("net/latency", self.min_latency, self.delta)


class EventuallySynchronousNetwork(Network):
    """Unbounded delays before GST, bounded by Δ after (paper §6's model).

    Before the global stabilization time, each message is delayed by a
    draw from ``[0, pre_gst_max]`` (default: until shortly after GST),
    modelling the adversary's pre-GST scheduling power.  After GST the
    network behaves synchronously with bound Δ.
    """

    def __init__(
        self,
        simulator: Simulator,
        delta: float,
        gst: float,
        rng: DeterministicRng | None = None,
        pre_gst_max: float | None = None,
    ):
        super().__init__(simulator, rng)
        if delta <= 0:
            raise NetworkError("delta must be positive")
        if gst < 0:
            raise NetworkError("gst must be non-negative")
        self.delta = delta
        self.gst = gst
        self.pre_gst_max = pre_gst_max

    def latency(self, message: Message) -> float:
        now = self.simulator.now
        if now >= self.gst:
            return self.rng.uniform("net/latency", 0.0, self.delta)
        # Pre-GST: adversarial delay.  By default, hold the message
        # until a uniformly random point after GST (but within Δ of it),
        # the worst schedule the model permits.
        if self.pre_gst_max is not None:
            return self.rng.uniform("net/pre-gst", 0.0, self.pre_gst_max)
        release = self.gst + self.rng.uniform("net/pre-gst", 0.0, self.delta)
        return max(0.0, release - now)


@dataclass
class RecordingNetwork:
    """Wrap a network, recording every send for assertions in tests."""

    inner: Network
    log: list[Message] = field(default_factory=list)

    @property
    def simulator(self) -> Simulator:
        return self.inner.simulator

    @property
    def stats(self) -> dict[str, int]:
        """The wrapped network's counters (filter effects included)."""
        return self.inner.stats

    def register(self, name: str, handler: Handler) -> None:
        self.inner.register(name, handler)

    def deregister(self, name: str) -> None:
        self.inner.deregister(name)

    def add_filter(self, fn: Callable[[Message], float | None]) -> None:
        self.inner.add_filter(fn)

    def send(self, sender: str, recipient: str, payload: object) -> None:
        self.log.append(
            Message(sender, recipient, payload, self.inner.simulator.now)
        )
        self.inner.send(sender, recipient, payload)

    def broadcast(self, sender: str, payload: object) -> None:
        for name in sorted(self.inner._handlers):
            if name != sender:
                self.send(sender, name, payload)
