"""Behavioural tests for the concurrent deal-market runtime.

Each test builds a small deterministic market and drives hand-crafted
orders through the scheduler, checking the paths the E16 benchmark
exercises statistically: clean commits, forged-order rejection,
vote-withholding timeouts, escrow no-shows with partial refunds, and
mempool backpressure.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from market_test_utils import HandWorkload, run_hand, two_party_swap
from repro.core.deal import Asset, DealSpec, TransferStep
from repro.errors import MarketError
from repro.market.order import sign_order
from repro.market import DealPhase, MarketConfig, MarketCoordinator, open_market
from repro.sim.faults import FaultPlan, ReplicaCrash
from repro.workloads.market import MarketProfile, MarketWorkload


def test_clean_swap_commits_and_pays_both_sides():
    scheduler, report = run_hand(lambda wl: [two_party_swap(wl)])
    assert report.committed == 1 and report.aborted == 0
    assert report.invariant_violations == ()
    wl = scheduler.workload
    pa, pb = wl.labels[0], wl.labels[1]
    book0 = scheduler.books[wl.chain_ids[0]]
    book1 = scheduler.books[wl.chain_ids[-1]]
    # pa paid 100 on chain0 and received 100 on chain1; pb vice versa.
    assert book0.peek_account(pa, wl.tokens[wl.chain_ids[0]]) == 900
    assert book0.peek_account(pb, wl.tokens[wl.chain_ids[0]]) == 1100
    assert book1.peek_account(pb, wl.tokens[wl.chain_ids[-1]]) == 900
    assert book1.peek_account(pa, wl.tokens[wl.chain_ids[-1]]) == 1100


def test_commit_latency_is_measured_in_chain_time():
    _, report = run_hand(lambda wl: [two_party_swap(wl, arrival=0.5)])
    assert report.latency_p50 == report.latency_p99 > 0
    # Five pipeline hops (register, open, transfer, vote, claim), one
    # block each, measured from the mid-tick arrival to the settling
    # block's grid timestamp.
    assert report.latency_p50 == pytest.approx(5.5)


def test_forged_order_is_rejected_before_touching_any_chain():
    def orders(wl):
        return [two_party_swap(wl, forge=frozenset({wl.labels[0]}))]

    scheduler, report = run_hand(orders)
    assert report.rejected == 1 and report.committed == 0
    # No step of the forged deal ever reached a chain.
    assert report.txs_executed == 0
    run = next(iter(scheduler.runs.values()))
    assert run.phase is DealPhase.REJECTED and run.reason == "forged"


def test_vote_withholder_times_out_and_everyone_is_refunded():
    def orders(wl):
        return [two_party_swap(wl, withhold_votes=frozenset({wl.labels[1]}))]

    scheduler, report = run_hand(orders)
    assert report.aborted == 1 and report.timeouts == 1
    wl = scheduler.workload
    for chain_id in wl.chain_ids:
        book = scheduler.books[chain_id]
        for party in (wl.labels[0], wl.labels[1]):
            assert book.peek_account(party, wl.tokens[chain_id]) == 1000


def test_escrow_no_show_aborts_with_partial_refund():
    def orders(wl):
        return [two_party_swap(wl, no_show=frozenset({wl.labels[1]}))]

    scheduler, report = run_hand(orders)
    assert report.aborted == 1
    assert report.invariant_violations == ()
    wl = scheduler.workload
    # p0's escrowed 100 on chain0 came back; p1 never escrowed.
    book0 = scheduler.books[wl.chain_ids[0]]
    assert book0.peek_account(wl.labels[0], wl.tokens[wl.chain_ids[0]]) == 1000


def test_interleaved_deals_share_chains_and_all_commit():
    def orders(wl):
        return [
            two_party_swap(wl, index=i, arrival=0.25 + 0.1 * i, a=i % 3,
                           b=(i + 1) % 3, amount=50)
            for i in range(12)
        ]

    _, report = run_hand(orders)
    assert report.committed == 12
    assert report.stuck == 0
    assert report.invariant_violations == ()


def test_mempool_backpressure_delays_but_never_drops():
    def orders(wl):
        return [
            two_party_swap(wl, index=i, arrival=0.25, a=i % 3, b=(i + 1) % 3,
                           amount=10)
            for i in range(30)
        ]

    workload = HandWorkload(orders)
    scheduler = MarketCoordinator(
        workload, MarketConfig(patience=60.0, max_txs_per_block=8)
    )
    report = scheduler.run()
    assert report.committed == 30
    assert report.max_mempool_depth > 8
    # Bounded block space stretches the tail latencies.
    assert report.latency_p99 > report.latency_p50


def test_duplicate_deal_id_is_a_hard_error():
    def orders(wl):
        return [two_party_swap(wl, index=0), two_party_swap(wl, index=0,
                                                            arrival=0.75)]

    with pytest.raises(MarketError):
        run_hand(orders)


def test_nonfungible_and_alien_assets_are_inadmissible():
    def orders(wl):
        pa, pb = wl.labels[0], wl.labels[1]
        spec = DealSpec(
            parties=(pa, pb),
            assets=(
                Asset(asset_id="nft", chain_id=wl.chain_ids[0],
                      token=wl.tokens[wl.chain_ids[0]], owner=pa,
                      token_ids=("t0",)),
                Asset(asset_id="coin", chain_id=wl.chain_ids[0],
                      token=wl.tokens[wl.chain_ids[0]], owner=pb, amount=5),
            ),
            steps=(
                TransferStep(asset_id="nft", giver=pa, receiver=pb,
                             token_ids=("t0",)),
                TransferStep(asset_id="coin", giver=pb, receiver=pa, amount=5),
            ),
            nonce=b"hand/nft",
        )
        return [sign_order(spec, wl.accounts, arrival=0.5)]

    _, report = run_hand(orders)
    assert report.rejected == 1
    assert report.txs_executed == 0


def test_minimum_account_pool_never_overflows_ring_size():
    # A 3-account pool must clamp the 2-4 party ring draw (regression:
    # parties[(i + 1) % n] indexed past the truncated party list).
    profile = MarketProfile(deals=60, chains=2, accounts=3,
                            initial_balance=3_000, seed=5)
    workload = MarketWorkload(profile)
    orders = workload.orders()
    assert len(orders) == 60
    assert all(len(o.parties) <= 3 for o in orders)
    report = open_market(MarketWorkload(profile)).run()
    assert report.stuck == 0
    assert report.invariant_violations == ()


def test_generated_workload_is_deterministic():
    first = MarketWorkload(MarketProfile.smoke()).orders()
    second = MarketWorkload(MarketProfile.smoke()).orders()
    assert [o.deal_id for o in first] == [o.deal_id for o in second]
    assert [o.arrival for o in first] == [o.arrival for o in second]
    shifted = MarketWorkload(MarketProfile.smoke(seed=1)).orders()
    assert [o.deal_id for o in shifted] != [o.deal_id for o in first]


def test_smoke_profile_run_is_fingerprint_stable():
    profile = MarketProfile(deals=40, chains=3, accounts=8,
                            initial_balance=1_500, seed=3)
    reports = [
        open_market(MarketWorkload(profile)).run() for _ in range(2)
    ]
    assert reports[0].fingerprint() == reports[1].fingerprint()
    assert reports[0].render() == reports[1].render()
    assert reports[0].invariant_violations == ()


# ----------------------------------------------------------------------
# The entry point and the protocol-mix matrix
# ----------------------------------------------------------------------
PROTOCOL_MIX = (("unanimity", 1.0), ("timelock", 1.0), ("cbc", 1.0))


def _mix_profile(shards: int) -> MarketProfile:
    """A tiny protocol-mix market over ``shards`` coordinator shards."""
    base = MarketProfile.sharded_smoke(seed=7, shards=shards)
    if shards == 1:
        base = replace(base, cross_shard_rate=0.0)
    return replace(
        base, deals=40, protocol_mix=PROTOCOL_MIX, book_fund_fraction=0.5
    )


def _mix_config(replication: int, crash: bool) -> MarketConfig:
    plan = None
    if crash:
        # A seeded (deterministic) crash schedule: a follower of shard
        # 0 dies mid-run and recovers through snapshot + replay.
        plan = FaultPlan().add(
            ReplicaCrash(replica="s0/r1", at_time=12.0, recover_at=30.0)
        )
    return MarketConfig(replication_factor=replication, fault_plan=plan)


# (shards, replication factor, seeded crash schedule?)
MATRIX = [
    (1, 1, False),
    (2, 1, False),
    (4, 1, False),
    (1, 3, True),
    (2, 3, True),
    (4, 3, True),
]


@pytest.mark.parametrize("shards,replication,crash", MATRIX)
def test_protocol_mix_matrix_holds_invariants(shards, replication, crash):
    report = open_market(
        MarketWorkload(_mix_profile(shards)), _mix_config(replication, crash)
    ).run()
    assert not report.invariant_violations
    assert report.stuck == 0
    assert report.committed > 0
    assert report.committed_by_protocol().keys() == {"unanimity", "timelock", "cbc"}
    assert report.shards == shards
    assert report.replication_factor == replication
    assert (report.faults_injected, report.recoveries) == ((1, 1) if crash else (0, 0))


def test_open_market_returns_the_coordinator_and_runs_once():
    market = open_market(MarketWorkload(_mix_profile(1)))
    assert isinstance(market, MarketCoordinator)
    # run() is memoized: a second call returns the same report object.
    assert market.run() is market.run()


def test_deal_scheduler_shim_is_gone():
    # The one-release deprecation shim has been removed: the public
    # surface is open_market (and MarketCoordinator for direct use).
    with pytest.raises(ImportError):
        from repro.market import DealScheduler  # noqa: F401
    with pytest.raises(ModuleNotFoundError):
        import repro.market.scheduler  # noqa: F401
