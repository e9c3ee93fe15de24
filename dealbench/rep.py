"""One measured market run, in a fresh interpreter.

Usage: python3 dealbench/rep.py WORKLOAD SEED TRACE [SPANS_PATH]

Runs the workload's closed batch once through the public entry points
and prints one JSON object.  A fresh interpreter per run is what makes
every run cold: the signature-verdict caches, the fixed-base tables
(the generator table survives ``fastexp.clear_caches()``) and the
memoized key derivations all start empty, as they do for a user who
runs the market once.  ``run.py`` starts these processes one at a
time, so no two runs share a core.

The phases, timed with ``time.perf_counter``:

* set-up: ``MarketWorkload(profile)`` and ``open_market(...)``;
* client signing: the first ``workload.orders()`` call, made before
  the market opens, so the server clock never includes it;
* server: ``MarketHandle.run()``.

With TRACE=1 the wrappers of ``tracing.py`` are installed before any
of this and the run also reports its span metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_checkout():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    origin = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    if origin != SRC:
        raise SystemExit(f"imported repro from {origin}, expected {SRC}")


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload_name: str, seed: int, trace: bool, spans_path: str | None) -> dict:
    from workloads import WORKLOADS

    workload_def = WORKLOADS[workload_name]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(f"{workload_name}/seed{seed}/pid{os.getpid()}")
        tracing.install(tracer)

    from repro.crypto import fastexp, schnorr
    from repro.market import open_market
    from repro.workloads.market import MarketWorkload

    profile = workload_def.profile(seed)
    config = workload_def.config()

    def phase(name):
        return tracer.root(name) if tracer is not None else contextlib.nullcontext()

    clock = time.perf_counter
    t0 = clock()
    with phase("setup"):
        workload = MarketWorkload(profile)
    t1 = clock()
    with phase("sign"):
        workload.orders()
    t2 = clock()
    with phase("setup"):
        handle = open_market(workload, config)
    t3 = clock()
    batch_before = schnorr.cache_stats()
    tables_before = fastexp.cache_stats()
    with phase("run"):
        report = handle.run()
    t4 = clock()
    batch_after = schnorr.cache_stats()
    tables_after = fastexp.cache_stats()
    rendered = report.render()
    fingerprint = report.fingerprint()
    t5 = clock()

    table_hits = tables_after["base_table_hits"] - tables_before["base_table_hits"]
    table_misses = tables_after["base_table_misses"] - tables_before["base_table_misses"]
    verify_stats = dict(report.verify_stats)
    result = {
        "setup_s": (t1 - t0) + (t3 - t2),
        "client_sign_s": t2 - t1,
        "server_s": t4 - t3,
        "peak_rss_mb": _rss_mb(),
        "deals_spawned": report.deals,
        "committed": report.committed,
        "aborted": report.aborted,
        "rejected": report.rejected,
        "stuck": report.stuck,
        "invariant_violations": len(report.invariant_violations),
        "latency_p50_ticks": report.latency_p50,
        "latency_p99_ticks": report.latency_p99,
        "fingerprint": fingerprint,
        "render_sha256": hashlib.sha256(rendered.encode("utf-8")).hexdigest(),
        # Verdicts carried into the run would turn it into a replay.
        "batch_cache_size_at_start": batch_before["batch_size"],
        "layers": {
            "crypto.batch_cache_hits": batch_after["batch_hits"] - batch_before["batch_hits"],
            "crypto.table_hit_ratio": (
                table_hits / (table_hits + table_misses) if table_hits + table_misses else 0.0
            ),
            "consensus.merge_rate": report.aggregator_merge_rate(),
            "consensus.isolation_fallbacks": verify_stats.get("isolation_fallbacks", 0),
            "chain.blocks": report.blocks,
            "chain.txs_executed": report.txs_executed,
            "chain.revert_ratio": (
                report.txs_reverted / report.txs_executed if report.txs_executed else 0.0
            ),
            "market.report_s": t5 - t4,
            "market.max_mempool_depth": report.max_mempool_depth,
            "market.escrow_conflicts": report.conflicts,
            "market.fee_priced_out": report.fee_priced_out,
            "sim.events": report.events_processed,
        },
    }
    if tracer is not None:
        import tracing

        layers = result["layers"]
        layers.update(tracing.span_metrics(tracer.spans, "run"))
        run_counts = tracer.counts.get("run", {})
        for name in ("crypto.multi_pow_pairs", "consensus.seal_batches", "consensus.seal_sigs"):
            layers[name] = run_counts.get(name, 0)
        setup = tracing.span_metrics(tracer.spans, "setup")
        layers["crypto.setup_table_builds"] = setup["crypto.table_builds"]
        layers["crypto.setup_table_build_s"] = setup["crypto.table_build_s"]
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    _import_checkout()
    workload_name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spans_path = argv[3] if len(argv) == 4 else None
    print(json.dumps(measure(workload_name, seed, trace, spans_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
