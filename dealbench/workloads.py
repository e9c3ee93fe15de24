"""The benchmark's three deal-market workloads.

Each workload is a closed batch: ``(name, seed)`` fixes the order
stream and its simulated arrival times, the market clears the whole
batch, and the benchmark reports work completed per wall-second at the
stated size.  README.md explains why each shape was chosen and which
layer it stresses.

``expect`` lists the traced counters whose zero / non-zero value is a
property of the workload's shape.  Every traced run checks them, so a
wrapper that silently stops firing (a renamed binding, a caller that
moved) fails the run instead of reporting a plausible zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.market import MarketConfig
from repro.workloads.market import MarketProfile

ZERO = "zero"
NONZERO = "nonzero"


@dataclass(frozen=True)
class Workload:
    name: str
    deals: int
    make_profile: object  # (seed, deals) -> MarketProfile
    make_config: object  # () -> MarketConfig
    expect: tuple  # ((metric name, ZERO | NONZERO), ...)

    def profile(self, seed: int) -> MarketProfile:
        return self.make_profile(seed, self.deals)

    def config(self) -> MarketConfig:
        return self.make_config()


def _headline(seed: int, deals: int) -> MarketProfile:
    # The E16 headline shape (unanimity only, 1 shard, 48 accounts):
    # the 48 keys fit the 96-entry key-table cache.
    return replace(MarketProfile.headline(seed=seed), deals=deals)


def _protocol_mix(seed: int, deals: int) -> MarketProfile:
    # Unanimity + timelock (§5) + CBC (§6) with NFT double-sells and
    # stale proofs, on one shard.
    return MarketProfile.mixed(seed=seed, deals=deals)


def _congested_shards(seed: int, deals: int) -> MarketProfile:
    # The E19 congestion shape (2 shards, spam flood, snipers,
    # starvation rings) over 192 accounts: twice the key-table cache,
    # so the table hit ratio differs from headline's.
    return replace(MarketProfile.congested(seed=seed, deals=deals), accounts=192)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="headline",
            deals=450,
            make_profile=_headline,
            make_config=MarketConfig,
            expect=(
                ("crypto.run_sign_calls", ZERO),
                ("crypto.batch_cache_hits", ZERO),
                ("chain.contract_verify_calls", ZERO),
                ("consensus.cbc_verify_calls", ZERO),
                ("consensus.merge_rate", ZERO),
                ("market.apply_delta_calls", ZERO),
                ("market.seal_select_calls", ZERO),
                ("consensus.seal_flushes", NONZERO),
                ("consensus.seal_direct_calls", ZERO),
                ("crypto.multi_pow_calls", NONZERO),
            ),
        ),
        Workload(
            name="protocol_mix",
            deals=260,
            make_profile=_protocol_mix,
            make_config=MarketConfig,
            expect=(
                ("crypto.run_sign_calls", NONZERO),
                ("chain.contract_verify_calls", NONZERO),
                ("consensus.cbc_quorum_sign_calls", NONZERO),
                ("consensus.cbc_verify_calls", NONZERO),
                ("consensus.merge_rate", ZERO),
                ("market.apply_delta_calls", ZERO),
                ("market.seal_select_calls", ZERO),
                ("consensus.seal_flushes", NONZERO),
                ("consensus.seal_direct_calls", ZERO),
            ),
        ),
        Workload(
            name="congested_shards",
            deals=400,
            make_profile=_congested_shards,
            make_config=lambda: MarketConfig(seal_policy="base_fee", replication_factor=2),
            expect=(
                ("crypto.run_sign_calls", ZERO),
                ("crypto.batch_cache_hits", ZERO),
                ("chain.contract_verify_calls", ZERO),
                ("consensus.cbc_verify_calls", ZERO),
                ("consensus.merge_rate", NONZERO),
                ("market.apply_delta_calls", NONZERO),
                ("market.seal_select_calls", NONZERO),
                ("consensus.seal_flushes", NONZERO),
                ("consensus.seal_direct_calls", ZERO),
            ),
        ),
    )
}
