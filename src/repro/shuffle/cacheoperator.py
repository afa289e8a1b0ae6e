"""The cache-cluster exchange substrate.

:class:`CacheExchange` routes the all-to-all through a provisioned
in-memory key-value cluster (the ElastiCache-style alternative the
paper mentions): staged mappers MSET one value per reducer and reducers
MGET their range; streaming readers park on the owning node's set
notification.  Input splits are read from object storage and sorted runs
are written back to it, so ``ShuffleSort(executor, codec,
backend=CacheExchange(cluster))`` is a drop-in replacement inside the
pipelines: only the intermediate-data substrate changes.  The cluster's
lifecycle (provision/terminate) belongs to the caller: whether it is
billed per run or amortized always-on is an experiment decision, not an
operator one.
"""

from __future__ import annotations

from repro.cloud.memstore.service import MemStoreCluster
from repro.cloud.profiles import CloudProfile
from repro.errors import ShuffleError
from repro.shuffle.exchange import ExchangeBackend
from repro.shuffle.planner import (
    CacheShuffleCostModel,
    ExchangeTerms,
    cache_terms,
    resolve_cache_node,
)
from repro.shuffle.streaming import StreamConfig


class CacheExchange(ExchangeBackend):
    """Exchange partitions through a provisioned in-memory cache cluster."""

    name = "cache"
    process_labels = {"staged": "cacheshuffle", "streaming": "streamcacheshuffle"}
    out_prefixes = {"staged": "cache-shuffle", "streaming": "streaming-cache-shuffle"}

    def __init__(
        self,
        cluster: MemStoreCluster,
        cost: CacheShuffleCostModel | None = None,
        stream: StreamConfig | None = None,
    ):
        super().__init__(
            cost if cost is not None else CacheShuffleCostModel(), stream
        )
        self.cluster = cluster
        self._peak_fill = 0.0
        self._stats_baseline: dict[str, float] = {}

    def validate(self, logical_size: float) -> None:
        self.cluster.ensure_running()
        if logical_size > self.cluster.capacity_bytes:
            raise ShuffleError(
                f"shuffle data ({logical_size:.0f} logical bytes) exceeds "
                f"cluster capacity ({self.cluster.capacity_bytes:.0f}); "
                "provision more or larger cache nodes"
            )
        # The cluster may be reused across sorts (its lifecycle belongs
        # to the caller); report per-sort deltas, not lifetime totals.
        self._stats_baseline = self.cluster.stats_totals()

    def exchange_terms(self, profile: CloudProfile) -> ExchangeTerms:
        return cache_terms(
            profile,
            resolve_cache_node(profile, self.cluster.node_type.name),
            len(self.cluster.nodes),
        )

    def port_route(self, out_bucket: str) -> dict:
        return {"kind": "cache", "cluster_id": self.cluster.cluster_id}

    def collect_route(
        self,
        reducer_id: int,
        workers: int,
        map_results: list[dict],
        out_bucket: str,
        out_prefix: str,
    ) -> dict:
        route = super().collect_route(
            reducer_id, workers, map_results, out_bucket, out_prefix
        )
        route["cleanup"] = self.cost.cleanup
        return route

    def on_map_done(self, map_results: list[dict]) -> None:
        self._peak_fill = max(node.fill_fraction for node in self.cluster.nodes)

    def provisioned_rate_usd_per_s(self) -> float:
        return len(self.cluster.nodes) * self.cluster.node_type.per_second_usd

    def minimum_billed_s(self) -> float:
        return self.cluster.service.profile.minimum_billed_s

    def extra_report(self) -> dict:
        totals = self.cluster.stats_totals()
        baseline = self._stats_baseline
        return {
            "cluster_id": self.cluster.cluster_id,
            "nodes": len(self.cluster.nodes),
            "node_type": self.cluster.node_type.name,
            "peak_fill_fraction": self._peak_fill,
            "cache_sets": int(totals["sets"] - baseline.get("sets", 0)),
            "cache_gets": int(totals["gets"] - baseline.get("gets", 0)),
            "evictions": int(totals["evictions"] - baseline.get("evictions", 0)),
            "dedup_hits": int(totals["dedup_hits"] - baseline.get("dedup_hits", 0)),
            "dedup_restores": int(
                totals["dedup_restores"] - baseline.get("dedup_restores", 0)
            ),
            "dedup_bytes": totals["dedup_bytes"] - baseline.get("dedup_bytes", 0.0),
        }

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        return self.cluster.cas_entries(prefix)

