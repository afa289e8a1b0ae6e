"""Primula-like shuffle/sort (and GroupBy) over pluggable substrates.

The generic :class:`ShuffleSort` drives one
:class:`~repro.shuffle.exchange.ExchangeBackend`; four substrates ship:
object storage (the paper's serverless default,
:class:`ObjectStoreExchange`), an in-memory cache cluster
(:class:`CacheExchange`), a VM-hosted partition relay
(:class:`RelayExchange`) and a sharded multi-relay fleet
(:class:`ShardedRelayExchange`); :func:`exchange_backend` builds any of
them by name.  The execution mode is a field of the backend: given a
:class:`StreamConfig` it runs *streaming*, where the reduce wave
overlaps the map wave.  Workers reach every substrate through one
:class:`ExchangePort`.  :func:`choose_exchange_substrate` picks
substrate — and execution mode — analytically.
"""

from repro.shuffle.adaptive import (
    EXCHANGE_MODES,
    EXCHANGE_SUBSTRATES,
    DecisionPoint,
    DecisionTimeline,
    OnlineTuner,
    ProbeReport,
    StreamRateSample,
    SubstrateDecision,
    SubstrateEstimate,
    choose_exchange_substrate,
    fit_profile,
    fit_stream_profiles,
    streaming_chunk_count,
    streaming_chunk_overhead_s,
)
from repro.shuffle.cacheoperator import CacheExchange
from repro.shuffle.cacheplanner import (
    CacheShuffleCostModel,
    plan_cache_shuffle,
    predict_cache_shuffle_time,
    required_cache_nodes,
)
from repro.shuffle.kernels import (
    DecimalFieldKeySpec,
    KernelFallback,
    KeySpec,
    PartitionOutcome,
    PrefixKeySpec,
    ReversedKeySpec,
    SortOutcome,
    grouped_records,
    kernel_report_extras,
    kernels_enabled,
    partition_buffer,
    record_view,
    sort_buffer,
    window_keys,
)
from repro.shuffle.groupby import (
    AggregateFn,
    GroupByResult,
    GroupKeyCodec,
    ShuffleGroupBy,
    shuffle_group_reducer,
)
from repro.shuffle.exchange import (
    ExchangeBackend,
    ExchangeReport,
    ObjectStoreExchange,
)
from repro.shuffle.online import OnlineShuffleSort
from repro.shuffle.operator import (
    ShuffleResult,
    ShuffleSort,
    SortedRun,
    exchange_backend,
)
from repro.shuffle.orderby import (
    OrderByResult,
    ReversedKey,
    ShuffleOrderBy,
)
from repro.shuffle.ports import ExchangePort, partition_key
from repro.shuffle.planner import (
    PlanPoint,
    ShuffleCostModel,
    ShufflePlan,
    plan_shuffle,
    predict_shuffle_time,
    predict_streaming_shuffle_time,
)
from repro.shuffle.records import FixedWidthCodec, LineRecordCodec, RecordCodec
from repro.shuffle.relay import (
    PartitionLoadRouter,
    RelayExchange,
    ShardedRelayExchange,
    build_rebalance_assignments,
)
from repro.shuffle.relayplanner import (
    RelayShuffleCostModel,
    RelayShufflePlan,
    plan_relay_shuffle,
    predict_relay_shuffle_time,
    relay_usable_bytes,
    required_relay_fleet,
    required_relay_instance,
    resolve_relay_instance,
)
from repro.shuffle.sampler import (
    choose_boundaries,
    choose_weighted_boundaries,
    estimate_partition_weights,
    partition_index,
    partition_skew_of,
    reservoir_sample,
)
from repro.shuffle.skew import (
    KEY_DISTRIBUTIONS,
    SkewSpec,
    skewed_fixed_payload,
    skewed_keys,
    zipf_weights,
)
from repro.shuffle.streaming import (
    StreamConfig,
    streaming_shuffle_mapper,
    streaming_shuffle_reducer,
)
from repro.shuffle.stages import shuffle_mapper, shuffle_reducer, shuffle_sampler

__all__ = [
    "AggregateFn",
    "CacheExchange",
    "CacheShuffleCostModel",
    "EXCHANGE_MODES",
    "EXCHANGE_SUBSTRATES",
    "KEY_DISTRIBUTIONS",
    "SkewSpec",
    "StreamConfig",
    "ExchangeBackend",
    "ExchangePort",
    "ExchangeReport",
    "ObjectStoreExchange",
    "DecisionPoint",
    "DecisionTimeline",
    "OnlineShuffleSort",
    "OnlineTuner",
    "StreamRateSample",
    "PartitionLoadRouter",
    "ProbeReport",
    "RelayExchange",
    "RelayShuffleCostModel",
    "RelayShufflePlan",
    "ShardedRelayExchange",
    "SubstrateDecision",
    "SubstrateEstimate",
    "build_rebalance_assignments",
    "choose_exchange_substrate",
    "exchange_backend",
    "fit_profile",
    "fit_stream_profiles",
    "plan_relay_shuffle",
    "predict_relay_shuffle_time",
    "relay_usable_bytes",
    "required_relay_fleet",
    "required_relay_instance",
    "resolve_relay_instance",
    "partition_key",
    "plan_cache_shuffle",
    "predict_cache_shuffle_time",
    "required_cache_nodes",
    "DecimalFieldKeySpec",
    "FixedWidthCodec",
    "GroupByResult",
    "GroupKeyCodec",
    "KernelFallback",
    "KeySpec",
    "LineRecordCodec",
    "PartitionOutcome",
    "PrefixKeySpec",
    "ReversedKeySpec",
    "SortOutcome",
    "grouped_records",
    "kernel_report_extras",
    "kernels_enabled",
    "partition_buffer",
    "record_view",
    "sort_buffer",
    "window_keys",
    "OrderByResult",
    "PlanPoint",
    "RecordCodec",
    "ReversedKey",
    "ShuffleCostModel",
    "ShuffleGroupBy",
    "ShuffleOrderBy",
    "ShufflePlan",
    "ShuffleResult",
    "ShuffleSort",
    "SortedRun",
    "shuffle_group_reducer",
    "choose_boundaries",
    "choose_weighted_boundaries",
    "estimate_partition_weights",
    "partition_index",
    "partition_skew_of",
    "plan_shuffle",
    "predict_shuffle_time",
    "predict_streaming_shuffle_time",
    "reservoir_sample",
    "skewed_fixed_payload",
    "skewed_keys",
    "zipf_weights",
    "shuffle_mapper",
    "shuffle_reducer",
    "shuffle_sampler",
    "streaming_chunk_count",
    "streaming_chunk_overhead_s",
    "streaming_shuffle_mapper",
    "streaming_shuffle_reducer",
]
