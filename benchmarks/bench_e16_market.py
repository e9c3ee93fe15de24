"""E16 — the concurrent deal market: throughput, latency, abort rates.

The paper specifies its protocols per deal; the ROADMAP's north star
is heavy traffic.  E16 measures the gap-closer: the
:mod:`repro.market` runtime drives thousands of deals concurrently
over four shared chains — per-chain mempools, whole-block order
verification via ``batch_verify_quorum``, one escrow book per chain,
one commit log per coordinator shard, first-committed-wins conflict
resolution (within a book and across books).

Four measurements:

* the **headline run** (``MarketProfile.headline``): 5,600 deals with
  adversaries mixed in (vote withholders, escrow no-shows, forged
  orders) and account balances tight enough that real escrow conflicts
  occur; it must commit >= 5,000 deals with every conservation
  invariant holding;
* a **protocol-mix run** (``MarketProfile.mixed``): the paper's two
  real commit protocols — timelock path-signature voting (§5) and CBC
  certified proofs (§6) — interleaved with unanimity deals and NFT
  ticket sales on the same chains, with stale-proof forgers and
  double-sellers mixed in; with ``--protocol-mix`` it must commit
  >= 1,000 deals *per protocol* with zero invariant violations;
* a **shard sweep** (``MarketProfile.sharded``): the market split
  across 1, 2, and 4 order-carrying coordinator chains with a
  guaranteed slice of cross-shard deals; the table reports committed
  and cross-shard counts next to the shared ``VerifyAggregator``'s
  merge counters — the deterministic evidence that boundary-sharing
  blocks from several shards really fold into one ``multi_pow``
  (pre-PR 5 those counters were dropped by the report path entirely);
* an **arrival-rate sweep** showing how commit latency and the abort
  rate respond to load on fixed block space.

With ``--shards M`` the headline (or quick) run itself is sharded and
gated: at M=4 it must commit >= 5,000 deals of which >= 20% are
cross-shard, with zero conservation violations and an aggregator
merge rate > 0.  ``--shards 1`` reproduces the unsharded headline
fingerprint byte-for-byte.

With ``--replication R`` the headline run replicates every shard into
an ``R``-member replica group (:mod:`repro.market.replication`);
``--replication 1`` is the unreplicated layout and reproduces the
headline fingerprint byte-for-byte — the crash/recovery axis itself
is E17's (``bench_e17_faults.py``).

The report contains simulation quantities only (chain ticks, counts,
fingerprints), so it is byte-identical across hosts, runs and
``--jobs`` settings.  Wall-clock throughput goes to
``BENCH_market.json`` (schema ``BENCH_market/v7``: v6's fee-market
fields ``seal_policy`` / ``fee_priced_out`` / ``fees_accrued``, without
v5's two execution-backend keys) via ``main``::

    python benchmarks/bench_e16_market.py [--quick] [--jobs N]
                                          [--protocol-mix] [--shards M]
                                          [--replication R]
                                          [--output BENCH_market.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from functools import partial

from repro.analysis.tables import render_table
from repro.market import MarketConfig, MarketReport, open_market
from repro.workloads.market import MarketProfile, MarketWorkload

RATE_SWEEP = [2.0, 6.0, 12.0]
SHARD_SWEEP = [1, 2, 4]

_SWEEP_BASE = MarketProfile(
    deals=400, chains=4, accounts=24, initial_balance=1_800, seed=7
)


def run_market(
    profile: MarketProfile,
    config: MarketConfig | None = None,
) -> tuple[MarketReport, float]:
    """Run one market; return (report, wall seconds)."""
    started = time.perf_counter()
    workload = MarketWorkload(profile)
    report = open_market(workload, config).run()
    return report, time.perf_counter() - started


# ----------------------------------------------------------------------
# Arrival-rate sweep
# ----------------------------------------------------------------------
def sweep_point(rate: float, base: MarketProfile = _SWEEP_BASE) -> dict:
    """One sweep record (simulation quantities only)."""
    report, _ = run_market(replace(base, arrival_rate=rate))
    return {
        "x": rate,
        "committed": report.committed,
        "aborted": report.aborted,
        "conflicts": report.conflicts,
        "abort_rate": report.abort_rate,
        "p50": report.latency_p50,
        "p99": report.latency_p99,
        "throughput": report.deals_per_kilotick,
    }


def rate_sweep(
    jobs: int | None = None, base: MarketProfile = _SWEEP_BASE
) -> list[dict]:
    """Fan the sweep points over the process pool (serial if nested)."""
    from repro.analysis.sweep import sweep_parallel

    return sweep_parallel(RATE_SWEEP, partial(sweep_point, base=base), jobs=jobs)


# ----------------------------------------------------------------------
# Report and JSON
# ----------------------------------------------------------------------
def sweep_table(jobs: int | None = None, quick: bool = False) -> str:
    base = replace(_SWEEP_BASE, deals=80) if quick else _SWEEP_BASE
    records = rate_sweep(jobs=jobs, base=base)
    sweep_rows = [
        [
            f"{r['x']:.0f}",
            r["committed"],
            r["conflicts"],
            f"{r['abort_rate']:.1%}",
            f"{r['p50']:.2f}",
            f"{r['p99']:.2f}",
            f"{r['throughput']:.1f}",
        ]
        for r in records
    ]
    return render_table(
        ["arrivals/tick", "committed", "conflicts", "abort rate",
         "p50 (ticks)", "p99 (ticks)", "deals/kilotick"],
        sweep_rows,
        title=f"E16 — load sweep ({base.deals} deals, "
              f"{base.chains} chains, shared accounts)",
    )


def make_report(
    jobs: int | None = None,
    quick: bool = False,
    shards: int = 1,
    trace: str | None = None,
    chaos: float = 0.0,
    seal_policy: str = "fifo",
) -> str:
    profile = _pick_profile(quick, mixed=False, shards=shards)
    config = None
    if seal_policy != "fifo":
        # The fee-market axis (E19 owns the sweep; this knob prices
        # the headline run).  "fifo" must not touch the config at all:
        # CI cmp's --seal-policy fifo output against the default
        # report to prove the fee machinery is structurally absent.
        config = MarketConfig(seal_policy=seal_policy)
    telemetry = None
    if trace is not None:
        # Telemetry is byte-neutral by contract: the rendered report
        # must be identical with and without it, so the trace file is
        # written silently (CI cmp's the report bytes to prove it).
        from repro.telemetry import Telemetry
        from repro.telemetry.export import write_trace_jsonl

        telemetry = Telemetry()
        config = (
            replace(config, telemetry=telemetry)
            if config is not None
            else MarketConfig(telemetry=telemetry)
        )
    if chaos > 0:
        # The seeded chaos axis: drop/dup/delay/reorder the headline
        # run's message planes at this intensity.  chaos == 0 must not
        # touch the config at all (CI cmp's --chaos 0 against the
        # chaos-free report to prove byte-neutrality).
        from repro.sim.chaos import ChaosPlan

        plan = ChaosPlan.at(chaos, seed=profile.seed)
        config = (
            replace(config, chaos=plan)
            if config is not None
            else MarketConfig(chaos=plan)
        )
    headline, _ = run_market(profile, config)
    if telemetry is not None:
        write_trace_jsonl(telemetry, trace)
    return (
        headline.render()
        + "\n" + protocol_table(quick=quick)
        + "\n" + shard_table(jobs=jobs, quick=quick)
        + "\n" + sweep_table(jobs=jobs, quick=quick)
    )


# ----------------------------------------------------------------------
# Shard sweep (cross-market sharding + aggregator merge evidence)
# ----------------------------------------------------------------------
def shard_point(shards: int, deals: int = 400, seed: int = 11) -> dict:
    """One shard-sweep record (simulation quantities only)."""
    profile = replace(MarketProfile.sharded(seed=seed, shards=shards), deals=deals)
    report, _ = run_market(profile)
    stats = dict(report.verify_stats)
    return {
        "x": shards,
        "committed": report.committed,
        "cross_shard": report.cross_shard_deals,
        "cross_fraction": report.cross_shard_fraction,
        "agg_batches": stats.get("batches", 0),
        "agg_merged": stats.get("merged_batches", 0),
        "merge_rate": report.aggregator_merge_rate(),
        "violations": len(report.invariant_violations),
    }


def shard_sweep(jobs: int | None = None, deals: int = 400) -> list[dict]:
    """Fan the shard-sweep points over the process pool."""
    from repro.analysis.sweep import sweep_parallel

    return sweep_parallel(SHARD_SWEEP, partial(shard_point, deals=deals), jobs=jobs)


def shard_table(jobs: int | None = None, quick: bool = False) -> str:
    """The cross-market sharding table (surfaces the merge counters).

    This is where the shared ``VerifyAggregator``'s counters — absent
    from ``MarketReport.render()`` by design, so toggling aggregation
    can never change report bytes — enter the experiment report that
    ``run_all.py`` serializes.  All columns are deterministic seeded
    simulation counts.
    """
    deals = 80 if quick else 400
    records = shard_sweep(jobs=jobs, deals=deals)
    rows = [
        [
            r["x"],
            r["committed"],
            r["cross_shard"],
            f"{r['cross_fraction']:.1%}",
            r["agg_batches"],
            r["agg_merged"],
            f"{r['merge_rate']:.1%}",
            r["violations"],
        ]
        for r in records
    ]
    return render_table(
        ["shards", "committed", "cross-shard", "cross %",
         "agg batches", "agg merged", "merge rate", "violations"],
        rows,
        title=f"E16 — cross-market sharding ({deals} deals, 4 chains, "
              "shared VerifyAggregator)",
    )


# ----------------------------------------------------------------------
# Protocol mix
# ----------------------------------------------------------------------
def protocol_table(quick: bool = False, seed: int = 5) -> str:
    """A small protocol-mix run for the experiment report."""
    profile = (
        MarketProfile.mixed_smoke(seed=seed) if quick
        else MarketProfile.mixed(seed=seed, deals=400)
    )
    report, _ = run_market(profile)
    rows = report.protocol_outcome_rows(include_p90=False)
    rows.append([
        "(all)", report.committed, report.aborted, report.rejected,
        f"{report.latency_p50:.2f}", f"{report.latency_p99:.2f}",
    ])
    return render_table(
        ["protocol", "committed", "aborted", "rejected",
         "p50 (ticks)", "p99 (ticks)"],
        rows,
        title=f"E16 — protocol mix ({profile.deals} deals: unanimity / "
              f"timelock §5 / CBC §6, {report.stale_proofs_rejected} stale "
              f"proofs rejected, {len(report.invariant_violations)} "
              "invariant violations)",
    )


def market_metrics(report: MarketReport, wall_s: float) -> dict:
    """The BENCH_market.json metrics block for one run."""
    per_protocol = {
        protocol: {
            "committed": committed,
            "aborted": aborted,
            "rejected": rejected,
            "latency_p50_ticks": round(p50, 3),
            "latency_p99_ticks": round(p99, 3),
        }
        for protocol, committed, aborted, rejected, p50, _p90, p99
        in report.per_protocol
    }
    verify_aggregation = dict(report.verify_stats)
    if verify_aggregation:
        verify_aggregation["merge_rate"] = round(report.aggregator_merge_rate(), 4)
    return {
        "per_protocol": per_protocol,
        # VerifyAggregator counters (how many block batches merged per
        # flush, how often forgery isolation fell back, the merge
        # rate) — deliberately absent from MarketReport.render(), so
        # they surface here and in the E16 shard table.
        "verify_aggregation": verify_aggregation,
        "shards": report.shards,
        "cross_shard_deals": report.cross_shard_deals,
        "cross_shard_committed": report.cross_shard_committed,
        "cross_shard_fraction": round(report.cross_shard_fraction, 4),
        "stale_proofs_rejected": report.stale_proofs_rejected,
        "timelock_refund_sweeps": report.timelock_refund_sweeps,
        "deals_spawned": report.deals,
        "deals_committed": report.committed,
        "deals_aborted": report.aborted,
        "deals_rejected": report.rejected,
        "deals_stuck": report.stuck,
        "escrow_conflicts": report.conflicts,
        "patience_timeouts": report.timeouts,
        "abort_rate": round(report.abort_rate, 4),
        "latency_p50_ticks": round(report.latency_p50, 3),
        "latency_p90_ticks": round(report.latency_p90, 3),
        "latency_p99_ticks": round(report.latency_p99, 3),
        "chain_ticks": round(report.end_time, 3),
        "deals_per_kilotick": round(report.deals_per_kilotick, 2),
        "chains": report.chains,
        "blocks": report.blocks,
        "txs_executed": report.txs_executed,
        "txs_reverted": report.txs_reverted,
        "max_mempool_depth": report.max_mempool_depth,
        "invariant_violations": len(report.invariant_violations),
        # Replication/fault axis (schema v4).  All zeros / 1.0 on an
        # unreplicated fault-free run; the counters come from the
        # replication layer and are deterministic seeded quantities.
        "replication_factor": report.replication_factor,
        "faults_injected": report.faults_injected,
        "recoveries": report.recoveries,
        "failovers": report.failovers,
        "availability": round(report.availability, 6),
        "sore_losers": report.sore_losers,
        "replication": dict(report.replication_stats),
        # Fee-market axis (schema v6): the sealing policy the run
        # priced block space with, the deals it priced out (a measured
        # outcome, like sore losers), and the fee units sealed traffic
        # paid.  "fifo" / 0 / 0 on every default run.
        "seal_policy": report.seal_policy,
        "fee_priced_out": report.fee_priced_out,
        "fees_accrued": report.fees_accrued,
        "fingerprint": report.fingerprint(),
        "wall_s": round(wall_s, 3),
        "deals_per_wall_s": round(report.committed / wall_s, 2) if wall_s else 0.0,
    }


def _pick_profile(quick: bool, mixed: bool, shards: int = 1) -> MarketProfile:
    if mixed:
        profile = MarketProfile.mixed_smoke() if quick else MarketProfile.mixed()
        if shards > 1:
            profile = replace(profile, shards=shards, cross_shard_rate=0.35)
        return profile
    if shards > 1:
        return (
            MarketProfile.sharded_smoke(shards=shards) if quick
            else MarketProfile.sharded(shards=shards)
        )
    return MarketProfile.smoke() if quick else MarketProfile.headline()


def write_market_json(
    path: str,
    quick: bool = False,
    mixed: bool = False,
    run: tuple[MarketReport, float] | None = None,
    profile: MarketProfile | None = None,
    shards: int = 1,
    replication: int = 1,
) -> dict:
    """Write ``BENCH_market.json``; runs the market unless given a run.

    A caller supplying a precomputed ``run`` must supply the profile
    that produced it, so the JSON's profile block always describes the
    metrics next to it.  ``replication > 1`` runs the market with each
    shard replicated that many ways (fault-free — so the fingerprint
    stays the unreplicated one, which is the point: the perf baseline
    covers the replicated path without changing behaviour).
    """
    if run is not None and profile is None:
        raise ValueError("a precomputed run needs its profile")
    if profile is None:
        profile = _pick_profile(quick, mixed, shards)
    config = (
        MarketConfig(replication_factor=replication) if replication > 1 else None
    )
    report, wall_s = run if run is not None else run_market(profile, config)
    metrics = market_metrics(report, wall_s)
    payload = {
        "schema": "BENCH_market/v7",
        "python": platform.python_version(),
        "quick": quick,
        "profile": {
            "deals": profile.deals,
            "chains": profile.chains,
            "accounts": profile.accounts,
            "arrival_rate": profile.arrival_rate,
            "initial_balance": profile.initial_balance,
            "protocol_mix": [list(pair) for pair in profile.protocol_mix],
            "nft_rate": profile.nft_rate,
            "stale_proof_rate": profile.stale_proof_rate,
            "shards": profile.shards,
            "cross_shard_rate": profile.cross_shard_rate,
            "seed": profile.seed,
        },
        "metrics": metrics,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small fixed-seed profile (smoke test)")
    parser.add_argument("--protocol-mix", action="store_true",
                        help="run the mixed unanimity/timelock/CBC profile "
                             "instead of the unanimity headline")
    parser.add_argument("--shards", type=int, default=1,
                        help="coordinator shards for the headline run "
                             "(>1 shards the market and gates the "
                             "cross-shard acceptance criteria)")
    parser.add_argument("--replication", type=int, default=1,
                        help="replica group size per shard (1 = "
                             "unreplicated; fault-free either way, so "
                             "the fingerprint must not change)")
    parser.add_argument("--trace", metavar="OUT", default=None,
                        help="write a deal-lifecycle trace (JSONL) of the "
                             "headline run; byte-neutral — report bytes "
                             "and fingerprint are unchanged")
    parser.add_argument("--output", default="BENCH_market.json",
                        help="where to write the JSON report")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for the load sweep")
    parser.add_argument("--seal-policy", dest="seal_policy", default="fifo",
                        choices=("fifo", "first_price", "base_fee"),
                        help="sealing policy for the headline run's block "
                             "space ('fifo' touches nothing — report bytes "
                             "must match a build without fee machinery; "
                             "the policy x congestion sweep is E19's)")
    parser.add_argument("--chaos", type=float, default=0.0, metavar="P",
                        help="seeded chaos intensity for the headline run "
                             "(drop/dup/delay/reorder each message plane "
                             "at probability P; 0 = chaos off, "
                             "byte-identical to a chaos-free build)")
    args = parser.parse_args(argv)
    profile = _pick_profile(args.quick, args.protocol_mix, args.shards)
    telemetry = None
    if args.trace is not None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    chaos_plan = None
    if args.chaos > 0:
        from repro.sim.chaos import ChaosPlan

        chaos_plan = ChaosPlan.at(args.chaos, seed=profile.seed)
    config = (
        MarketConfig(replication_factor=args.replication,
                     telemetry=telemetry, chaos=chaos_plan,
                     seal_policy=args.seal_policy)
        if args.replication > 1 or telemetry is not None
        or chaos_plan is not None or args.seal_policy != "fifo"
        else None
    )
    run = run_market(profile, config)
    payload = write_market_json(args.output, quick=args.quick,
                                mixed=args.protocol_mix, run=run,
                                profile=profile,
                                replication=args.replication)
    metrics = payload["metrics"]
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name.ljust(width)}  {value}")
    print(f"wrote {args.output}")
    print()
    print(run[0].render())
    if telemetry is not None:
        from repro.telemetry.export import write_trace_jsonl

        records = write_trace_jsonl(telemetry, args.trace)
        committed, full = telemetry.deal_coverage()
        coverage = full / committed if committed else 1.0
        print(f"trace: {records} records -> {args.trace}; "
              f"{full}/{committed} committed deals carry full "
              f"register->commit span chains ({coverage:.1%})")
        if coverage < 0.95:
            print(f"FAIL: trace coverage {coverage:.1%} < 95%")
            return 1
    if args.protocol_mix:
        report = run[0]
        # The quick profile runs ~60 deals per protocol; a floor of 25
        # still catches a protocol path that stopped committing.
        floor = 25 if args.quick else 1_000
        shortfall = {
            protocol: count
            for protocol, count in report.committed_by_protocol().items()
            if count < floor
        }
        if shortfall or len(report.committed_by_protocol()) < 3:
            print(f"FAIL: protocols under the {floor}-commit floor: "
                  f"{shortfall or report.committed_by_protocol()}")
            return 1
        if report.invariant_violations:
            print(f"FAIL: {len(report.invariant_violations)} invariant "
                  "violations")
            return 1
        print(f"protocol-mix acceptance: >= {floor} commits per protocol, "
              "0 invariant violations")
    if args.shards > 1:
        report = run[0]
        # The headline sharded gate is >= 5,000 commits; the mixed
        # profile only spawns 3,900 deals, so its sharded gate scales
        # to the same ~89% commit bar.
        if args.quick:
            floor = 25
        elif args.protocol_mix:
            floor = int(profile.deals * 0.85)
        else:
            floor = 5_000
        merge_rate = report.aggregator_merge_rate()
        failures = []
        if report.committed < floor:
            failures.append(f"committed {report.committed} < {floor}")
        if report.cross_shard_fraction < 0.20:
            failures.append(
                f"cross-shard fraction {report.cross_shard_fraction:.1%} < 20%"
            )
        if report.invariant_violations:
            failures.append(
                f"{len(report.invariant_violations)} invariant violations"
            )
        if merge_rate <= 0.0:
            failures.append("aggregator merge rate is 0")
        if failures:
            print(f"FAIL ({args.shards} shards): " + "; ".join(failures))
            return 1
        print(f"sharded acceptance ({args.shards} shards): "
              f"{report.committed} commits (floor {floor}), "
              f"{report.cross_shard_fraction:.1%} cross-shard, "
              f"0 invariant violations, "
              f"aggregator merge rate {merge_rate:.1%}")
    print(shard_table(jobs=args.jobs, quick=args.quick))
    print(sweep_table(jobs=args.jobs, quick=args.quick))
    return 0


# ----------------------------------------------------------------------
# Shape checks (run with the benchmark suite, not tier-1)
# ----------------------------------------------------------------------
def test_shape_smoke_market_commits_and_conserves():
    report, _ = run_market(MarketProfile.smoke())
    assert report.committed > report.deals * 0.8
    assert report.stuck == 0
    assert report.invariant_violations == ()


def test_shape_protocol_mix_commits_all_three():
    report, _ = run_market(MarketProfile.mixed_smoke())
    committed = report.committed_by_protocol()
    assert set(committed) == {"unanimity", "timelock", "cbc"}
    assert all(count > 0 for count in committed.values())
    assert report.stuck == 0
    assert report.invariant_violations == ()
    assert report.stale_proofs_rejected > 0


def test_shape_sharded_market_merges_and_conserves():
    report, _ = run_market(MarketProfile.sharded_smoke())
    assert report.committed > report.deals * 0.8
    assert report.cross_shard_fraction >= 0.2
    assert report.invariant_violations == ()
    assert report.aggregator_merge_rate() > 0.0
    assert report.stuck == 0


def test_shape_replication_keeps_fingerprint():
    base, _ = run_market(MarketProfile.sharded_smoke())
    replicated, _ = run_market(
        MarketProfile.sharded_smoke(), MarketConfig(replication_factor=3)
    )
    assert replicated.fingerprint() == base.fingerprint()
    assert replicated.replication_factor == 3
    assert dict(replicated.replication_stats)["deltas_shipped"] > 0
    assert replicated.invariant_violations == ()


def test_shape_sweep_is_job_count_invariant():
    serial = rate_sweep(jobs=1)
    parallel = rate_sweep(jobs=2)
    assert serial == parallel


def test_shape_contention_aborts_rise_with_load():
    records = rate_sweep(jobs=1)
    assert records[0]["abort_rate"] <= records[-1]["abort_rate"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
