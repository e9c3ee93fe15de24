"""Tier-1 smoke target for the E16 concurrent deal market.

Runs ``benchmarks/bench_e16_market.py`` in ``--quick`` mode and checks
the ``BENCH_market.json`` schema plus the run's determinism, so every
future PR keeps a working market-throughput trajectory (a regression
here fails the tier-1 suite) — the market analogue of
``tests/test_perfsuite.py``.
"""

import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import bench_e16_market  # noqa: E402

EXPECTED_METRICS = {
    "per_protocol",
    "verify_aggregation",
    "shards",
    "cross_shard_deals",
    "cross_shard_committed",
    "cross_shard_fraction",
    "stale_proofs_rejected",
    "timelock_refund_sweeps",
    "deals_spawned",
    "deals_committed",
    "deals_aborted",
    "deals_rejected",
    "deals_stuck",
    "escrow_conflicts",
    "patience_timeouts",
    "abort_rate",
    "latency_p50_ticks",
    "latency_p90_ticks",
    "latency_p99_ticks",
    "chain_ticks",
    "deals_per_kilotick",
    "chains",
    "blocks",
    "txs_executed",
    "txs_reverted",
    "max_mempool_depth",
    "invariant_violations",
    "fingerprint",
    "wall_s",
    "deals_per_wall_s",
    "replication_factor",
    "faults_injected",
    "recoveries",
    "failovers",
    "availability",
    "sore_losers",
    "replication",
    "seal_policy",
    "fee_priced_out",
    "fees_accrued",
}


def test_market_quick_smoke(tmp_path):
    output = tmp_path / "BENCH_market.json"
    assert bench_e16_market.main(["--quick", "--output", str(output)]) == 0
    report = json.loads(output.read_text())
    assert report["schema"] == "BENCH_market/v7"
    assert report["quick"] is True
    metrics = report["metrics"]
    assert set(metrics) == EXPECTED_METRICS
    # The fixed-seed smoke market must actually run hot: most deals
    # commit, none are stranded, and every conservation invariant holds.
    assert metrics["deals_committed"] > metrics["deals_spawned"] * 0.8
    assert metrics["deals_stuck"] == 0
    assert metrics["invariant_violations"] == 0
    assert metrics["chains"] >= 4
    assert metrics["latency_p50_ticks"] > 0
    assert metrics["latency_p99_ticks"] >= metrics["latency_p50_ticks"]
    assert metrics["deals_per_wall_s"] > 0
    assert (
        metrics["deals_committed"]
        + metrics["deals_aborted"]
        + metrics["deals_rejected"]
        == metrics["deals_spawned"]
    )


def test_market_protocol_mix_quick_smoke(tmp_path):
    """The --protocol-mix mode commits via all three protocols."""
    output = tmp_path / "BENCH_market.json"
    assert bench_e16_market.main(
        ["--quick", "--protocol-mix", "--output", str(output)]
    ) == 0
    report = json.loads(output.read_text())
    per_protocol = report["metrics"]["per_protocol"]
    assert set(per_protocol) == {"unanimity", "timelock", "cbc"}
    for protocol, bucket in per_protocol.items():
        assert bucket["committed"] > 0, protocol
    assert report["metrics"]["invariant_violations"] == 0
    assert report["metrics"]["deals_stuck"] == 0
    assert report["metrics"]["stale_proofs_rejected"] > 0


def test_market_sharded_quick_smoke(tmp_path):
    """--shards 2 gates the quick sharded acceptance criteria."""
    output = tmp_path / "BENCH_market.json"
    assert bench_e16_market.main(
        ["--quick", "--shards", "2", "--output", str(output)]
    ) == 0
    report = json.loads(output.read_text())
    metrics = report["metrics"]
    assert report["profile"]["shards"] == 2
    assert metrics["shards"] == 2
    assert metrics["cross_shard_deals"] > 0
    assert metrics["cross_shard_fraction"] >= 0.2
    assert metrics["verify_aggregation"]["merged_batches"] > 0
    assert metrics["verify_aggregation"]["merge_rate"] > 0
    assert metrics["invariant_violations"] == 0
    assert metrics["deals_stuck"] == 0


def test_market_fixed_seed_run_is_deterministic():
    from repro.workloads.market import MarketProfile

    first, _ = bench_e16_market.run_market(MarketProfile.smoke())
    second, _ = bench_e16_market.run_market(MarketProfile.smoke())
    assert first.fingerprint() == second.fingerprint()
    # The rendered report is the byte-identity contract run_all relies on.
    assert first.render() == second.render()


def test_market_sweep_identical_across_job_counts():
    from dataclasses import replace

    base = replace(bench_e16_market._SWEEP_BASE, deals=40)
    serial = bench_e16_market.rate_sweep(jobs=1, base=base)
    parallel = bench_e16_market.rate_sweep(jobs=2, base=base)
    assert serial == parallel
