"""Span tracing installed from the benchmark's own files.

A traced run wraps the public functions at the boundaries of the
``crypto``, ``consensus``, ``chain``, ``market`` and ``sim`` layers.
Each call records a span: name, parent span, start and end (from
``time.perf_counter``).  Spans live in memory and are written out once
the run is over.  Untraced runs never import this module, so they run
the program exactly as a user would.

Wrappers replace the name the *caller* resolves.  A function imported
with ``from repro.crypto.schnorr import verify as schnorr_verify`` is a
separate binding in the importing module; patching only the defining
module would leave every such call untraced.  ``everywhere`` sites
therefore patch every binding of the function object in the loaded
``repro`` modules, and methods are patched on their class and on each subclass
that overrides them.  Wrappers must be installed before the workload
and market are built, because the runtime stores bound methods (bus
handlers, aggregator callbacks) at construction.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("crypto", "consensus", "chain", "market", "sim")
_LAYER_PACKAGES = tuple(f"repro.{layer}" for layer in LAYERS)


class TracingError(RuntimeError):
    """A boundary the benchmark expects to wrap does not exist."""


def _count_pairs(counts, args, kwargs):
    counts["crypto.multi_pow_pairs"] += len(args[0] if args else kwargs["pairs"])


def _count_seal_batches(counts, args, kwargs):
    batches = args[0] if args else kwargs["batches"]
    counts["consensus.seal_batches"] += len(batches)
    counts["consensus.seal_sigs"] += sum(len(items) for items in batches)


def _count_seal_batch(counts, args, kwargs):
    # The mempool's unaggregated path: one block batch per call.
    counts["consensus.seal_batches"] += 1
    counts["consensus.seal_sigs"] += len(args[0] if args else kwargs["items"])


@dataclass(frozen=True)
class Boundary:
    span: str
    # "module:function" binds one name; "module:Class.method" patches
    # the class and every subclass overriding the method.
    sites: tuple
    calls: str
    time: str
    # Report self time (duration minus child spans) instead of the
    # inclusive duration of the outermost calls.
    self_time: bool = False
    # Patch every binding of the function object in the loaded repro
    # modules, not only the defining one.
    everywhere: bool = False
    count: object = None


BOUNDARIES = (
    Boundary("crypto.multi_pow", ("repro.crypto.fastexp:multi_pow",),
             "crypto.multi_pow_calls", "crypto.multi_pow_s",
             everywhere=True, count=_count_pairs),
    Boundary("crypto.table_build", ("repro.crypto.fastexp:FixedBaseTable.__init__",),
             "crypto.table_builds", "crypto.table_build_s"),
    Boundary("crypto.verify", ("repro.crypto.schnorr:verify",),
             "crypto.verify_calls", "crypto.verify_s", everywhere=True),
    Boundary("crypto.base_pow", ("repro.crypto.fastexp:base_pow",),
             "crypto.base_pow_calls", "crypto.base_pow_s", everywhere=True),
    Boundary("crypto.sign", ("repro.crypto.schnorr:sign",),
             "crypto.run_sign_calls", "crypto.run_sign_s", everywhere=True),
    Boundary("consensus.seal_verify",
             ("repro.consensus.validators:schnorr_batch_verify_many",),
             "consensus.seal_flushes", "consensus.seal_verify_s",
             count=_count_seal_batches),
    Boundary("consensus.seal_verify_direct",
             ("repro.market.mempool:schnorr_batch_verify",),
             "consensus.seal_direct_calls", "consensus.seal_direct_s",
             count=_count_seal_batch),
    Boundary("consensus.cbc_quorum_sign",
             ("repro.consensus.validators:ValidatorSet.quorum_sign",),
             "consensus.cbc_quorum_sign_calls", "consensus.cbc_quorum_sign_s"),
    Boundary("consensus.cbc_verify", ("repro.consensus.bft:schnorr_batch_verify",),
             "consensus.cbc_verify_calls", "consensus.cbc_verify_s"),
    Boundary("chain.invoke", ("repro.chain.contracts:Contract.invoke",),
             "chain.invoke_calls", "chain.invoke_self_s", self_time=True),
    Boundary("chain.contract_verify",
             ("repro.chain.contracts:CallContext.verify_signature",
              "repro.chain.contracts:CallContext.verify_raw_signature",
              "repro.chain.contracts:CallContext.verify_signature_batch"),
             "chain.contract_verify_calls", "chain.contract_verify_s"),
    Boundary("market.handle", ("repro.market.runtime:ShardRuntime.handle",),
             "market.handle_calls", "market.handle_self_s", self_time=True),
    Boundary("market.mempool_submit", ("repro.market.mempool:StepMempool.submit",),
             "market.mempool_submits", "market.mempool_submit_s"),
    Boundary("market.seal_select", ("repro.market.fees:SealPolicy.select",),
             "market.seal_select_calls", "market.seal_select_s"),
    # Production delta shipping calls ReplicationLayer._apply_shipment
    # directly; it is the body of the public ShardReplicaGroup.apply_delta
    # seam, so wrapping it counts both callers once.
    Boundary("market.apply_delta",
             ("repro.market.replication:ReplicationLayer._apply_shipment",),
             "market.apply_delta_calls", "market.apply_delta_s"),
    Boundary("market.invariants", ("repro.market.invariants:check_market_invariants",),
             "market.invariants_calls", "market.invariants_s", everywhere=True),
    Boundary("sim.bus_post", ("repro.sim.network:LocalBus.post",),
             "sim.bus_posts", "sim.bus_post_s"),
)


class Tracer:
    """In-memory span recorder; records only while ``armed``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, parent index, start, end, nested in a same-name span]
        self.spans: list[list] = []
        # Argument-derived counters, per root span name.
        self.counts: dict[str, dict[str, int]] = {}
        self._current: dict[str, int] = {}
        self.armed = False
        self._stack = [-1]
        self._depth: dict[str, int] = {}

    def wrap(self, name: str, fn, count=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            if count is not None:
                count(tracer._current, args, kwargs)
            index = len(spans)
            level = depth.get(name, 0)
            spans.append([name, stack[-1], clock(), 0.0, level > 0])
            stack.append(index)
            depth[name] = level + 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[name] = level
                stack.pop()
                spans[index][3] = clock()

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def root(self, name: str):
        """Arm the tracer under a top-level span named ``name``."""
        if len(self._stack) != 1:
            raise TracingError("root spans do not nest")
        span = [name, -1, 0.0, 0.0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._current = self.counts.setdefault(name, defaultdict(int))
        self.armed = True
        span[2] = time.perf_counter()
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self.armed = False
            self._stack.pop()

    def write(self, path) -> None:
        """Write every span as one JSON line (the run id on each)."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, parent, start, end, _) in enumerate(self.spans):
                out.write(json.dumps({
                    "run": self.run_id, "span": index, "parent": parent,
                    "name": name, "start": start, "end": end,
                }, separators=(",", ":")))
                out.write("\n")


def _layer_modules() -> list:
    for package_name in _LAYER_PACKAGES:
        package = importlib.import_module(package_name)
        for info in pkgutil.walk_packages(package.__path__, package_name + "."):
            importlib.import_module(info.name)
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        found.append(klass)
        todo.extend(klass.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Patch every boundary.

    Raises :class:`TracingError` when a named site is missing, so a
    renamed or moved function fails the traced run loudly instead of
    reporting a zero.
    """
    modules = _layer_modules()
    for boundary in BOUNDARIES:
        for site in boundary.sites:
            module_name, _, attr = site.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(module, class_name, None)
                if cls is None or method not in vars(cls):
                    raise TracingError(f"no method {site}")
                for klass in _subclasses(cls):
                    if method in vars(klass):
                        original = vars(klass)[method]
                        setattr(klass, method,
                                tracer.wrap(boundary.span, original, boundary.count))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                raise TracingError(f"no function {site}")
            wrapped = tracer.wrap(boundary.span, original, boundary.count)
            owners = [(module, attr)]
            if boundary.everywhere:
                owners = [
                    (owner, name)
                    for owner in modules
                    for name, value in list(vars(owner).items())
                    if value is original
                ]
            for owner, name in owners:
                setattr(owner, name, wrapped)


def span_metrics(spans: list, root_name: str) -> dict:
    """Per-boundary counts and times, and per-layer self times, for the
    spans under the top-level spans named ``root_name``.

    A span's self time is its duration minus the durations of its
    direct children.  Summed over every span under the roots, self
    times telescope to the time the roots' children cover, so the
    layers' self times plus ``trace.unattributed_s`` (the roots' own
    self time) equal the roots' wall time exactly.
    """
    root_of = [0] * len(spans)
    child_time = [0.0] * len(spans)
    roots = []
    for index, (name, parent, start, end, _) in enumerate(spans):
        if parent < 0:
            root_of[index] = index
            if name == root_name:
                roots.append(index)
        else:
            root_of[index] = root_of[parent]
            child_time[parent] += end - start
    if not roots:
        raise TracingError(f"no root span {root_name!r}")
    wanted = set(roots)
    by_span = {boundary.span: boundary for boundary in BOUNDARIES}
    metrics: dict[str, float] = {}
    for boundary in BOUNDARIES:
        metrics[boundary.calls] = 0
        metrics[boundary.time] = 0.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    span_count = 0
    for index, (name, parent, start, end, nested) in enumerate(spans):
        if parent < 0 or root_of[index] not in wanted:
            continue
        span_count += 1
        own = (end - start) - child_time[index]
        layer_self[name.split(".", 1)[0]] += own
        boundary = by_span[name]
        metrics[boundary.calls] += 1
        if boundary.self_time:
            metrics[boundary.time] += own
        elif not nested:
            metrics[boundary.time] += end - start
    wall = sum(spans[index][3] - spans[index][2] for index in roots)
    unattributed = wall - sum(child_time[index] for index in roots)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.unattributed_share"] = unattributed / wall if wall > 0 else 0.0
    metrics["trace.spans"] = span_count
    return metrics
