"""Analytic planner: the optimal number of shuffle functions.

This is the heart of the Primula reimplementation and of the paper's
thesis: "object storage performs well **when the appropriate number of
functions is used**" in I/O-bound stages.

The planner models end-to-end shuffle time as a function of the worker
count ``W`` (we use ``W`` mappers and ``W`` reducers, Primula's default
square layout) and picks the minimizing ``W``:

* **too few functions** — each worker moves ``S/W`` bytes through its
  own NIC: bandwidth-starved, compute-starved;
* **too many functions** — the all-to-all phase issues ``W²`` requests:
  per-request latency and the substrate's ops/s ceiling dominate, plus
  every extra worker pays a cold start.

One prediction skeleton serves every exchange substrate
(:func:`predict_exchange_time`).  Its terms (per phase, seconds), with
``b``/``A`` the object store's per-worker/aggregate bandwidth and
``c``/``X`` the exchange's:

==============  =====================================================
startup         invoke overhead + cold start (+ VM boot, cold relay)
map read        ``max(S / (W·b), S / A)`` + one GET latency — the
                input split always comes from object storage
partition CPU   ``(S/W) / partition_throughput``
map write       ``max(l_map(W) + max(S / (W·c), S / X), W²/Q)``
reduce fetch    ``max(l_reduce(W) + max(σ·S / (W·c), S / X), W²/Q)``
sort CPU        ``σ·(S/W) / sort_throughput``
reduce write    ``max(σ·S / (W·b), S / A)`` + one PUT latency — sorted
                runs land back in object storage for the encode stage
driver          ``3·W·(L_w + L_r)`` — the orchestrator uploads one
                payload and fetches one result per call, serially, for
                each of the three phases (Lithops driver behaviour)
==============  =====================================================

``σ`` is the expected max-over-mean partition bytes: input splits are
byte-even whatever the key distribution, so only the reduce side is
paced by the straggler that owns the hottest partition.

The substrates differ **only in the all-to-all** (:class:`ExchangeTerms`):

* **object storage** (:func:`objectstore_terms`) — the exchange *is* the
  store (``c = b``, ``X = A``).  Write-combined mappers PUT one object
  each, so the map write pays one PUT latency and no request floor; a
  reducer range-GETs ``W`` segments ``K`` at a time
  (``l_reduce = ceil(W/K)·L_r``), floored by the account's ops/s
  ceiling ``Q``.
* **cache cluster** (:func:`cache_terms`) — sub-millisecond, *batched*
  requests: a mapper's MSET and a reducer's MGET pay one latency per
  node touched (``min(W, nodes)``); ``Q`` is per node, ~30x the object
  store's and growing with the cluster; ``X`` is the cluster's
  aggregate NIC (nodes x line rate), typically far below the object
  store's pipe.  A flatter right flank but an earlier bandwidth
  ceiling — the shape benchmark S8 checks.
* **VM relay / sharded fleet** (:func:`relay_terms`) — one in-VPC round
  trip per batch (a mapper's MPUSH, a reducer's MPULL; per-shard
  sub-batches fan out in parallel); ``Q`` is N relay request loops and
  ``X`` the fleet's aggregate NIC, crossed once per wave.  One relay
  has the scale-up ceiling of one instance line rate; N shards multiply
  it at the price of N billing clocks, so :func:`plan_relay_shuffle`
  treats the shard count as a decision variable.  A cold relay
  (``include_boot``) also pays the VM boot up front — the Table 1
  provisioning penalty.

Provisioned substrates also have finite memory: the capacity sizing at
the end of this module (:func:`required_cache_nodes`,
:func:`required_relay_instance`, :func:`required_relay_fleet`) is a
hard feasibility constraint object storage never has.

The planned curve is itself an experiment artifact: benchmark S1 sweeps
the *simulated* shuffle over ``W`` and checks it reproduces this
U-shape with a compatible minimizer.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro.cloud.profiles import CacheNodeType, CloudProfile, InstanceType
from repro.errors import ShuffleError

#: Slack multiplier between a fleet's mean per-shard load and what each
#: shard must be able to hold: hash routing never splits perfectly, so
#: sizing (:func:`required_relay_fleet`) and runtime admission
#: (``RelayExchange.validate``) both budget this margin — they must
#: agree, or a planner-sized fleet would be rejected at execution time.
SHARD_IMBALANCE_HEADROOM = 1.3


# ----------------------------------------------------------------------
# workload-side cost models
# ----------------------------------------------------------------------
@dataclasses.dataclass(slots=True)
class ExchangeCostModel:
    """Workload-side constants every substrate's shuffle shares; each
    substrate's model adds only its own knobs."""

    #: Full-core throughput of the partitioning pass (bytes/s).
    partition_throughput: float = 180e6
    #: Full-core throughput of the reduce-side sort (bytes/s).
    sort_throughput: float = 90e6
    #: Peek window appended to splits for record alignment (bytes).
    peek_bytes: int = 64 * 1024
    #: Bytes each sampler reads for boundary estimation.
    sample_bytes: int = 256 * 1024
    #: Number of key samples kept per sampler.
    sample_keys: int = 512
    #: Sampling windows per sampler, spread across its split.  A single
    #: head-of-split window is biased on locally-sorted inputs
    #: (``sorted-runs``): the head of each split over-represents low
    #: keys, skewing :func:`~repro.shuffle.sampler.choose_weighted_boundaries`.
    #: Strided windows restore uniform coverage at the same byte budget.
    sample_strides: int = 4
    #: Expected max-over-mean partition bytes (straggler-reducer term;
    #: 1.0 = balanced key distribution).
    expected_skew: float = 1.0


@dataclasses.dataclass(slots=True)
class ShuffleCostModel(ExchangeCostModel):
    """Cost model of the object-storage shuffle."""

    #: Concurrent range-GETs per reducer (latency hiding).
    fetch_parallelism: int = 4
    #: Primula's write-combining I/O optimization: each mapper writes one
    #: combined object (W PUTs per map phase) instead of one object per
    #: partition (W² PUTs).  Disable to measure the naive all-to-all the
    #: paper warns about.
    write_combining: bool = True


@dataclasses.dataclass(slots=True)
class CacheShuffleCostModel(ExchangeCostModel):
    """Cost model of the cache-cluster shuffle."""

    #: Delete partitions from the cache after the reduce reads them.
    cleanup: bool = False


@dataclasses.dataclass(slots=True)
class RelayShuffleCostModel(ExchangeCostModel):
    """Cost model of the VM-relay (and sharded fleet) shuffle."""

    #: Reducers delete their partitions after writing their sorted run,
    #: freeing relay memory as the reduce wave drains.  Crash-safe:
    #: worker-attempt consuming pulls take *read-leases* that only
    #: remove entries when the activation commits — a reducer that dies
    #: mid-consume has its leases reinstated, so the retry finds every
    #: partition intact (see
    #: :meth:`~repro.cloud.vm.relay.PartitionRelay.commit_attempt`).
    #: Off by default (mirroring the cache substrate's ``cleanup``);
    #: long-lived shared fleets opt in so memory self-reclaims between
    #: jobs instead of waiting for terminate.
    consume: bool = False
    #: Charge the VM boot latency into the plan (cold relay).  Warm
    #: (pre-provisioned) relays leave it out, like the cache.
    include_boot: bool = False
    #: Shard counts within this fraction of the best predicted time
    #: collapse to the smallest such fleet (diminishing-returns cutoff
    #: of the ``shards=None`` search).
    shard_convergence: float = 0.02
    #: Route fleet shards by planned partition bytes instead of raw
    #: CRC (``ShardedRelayExchange``): the sampling pass's load profile
    #: is balanced across shard NICs/memory with a deterministic LPT
    #: assignment.  Disable to measure the naive hash routing S11
    #: contrasts it with.
    rebalance: bool = True


# ----------------------------------------------------------------------
# the prediction skeleton
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class PlanPoint:
    """Predicted shuffle timing at one worker count."""

    workers: int
    total_s: float
    breakdown: dict[str, float]


@dataclasses.dataclass(frozen=True, slots=True)
class ShufflePlan:
    """Planner output: chosen worker count plus the full predicted curve."""

    workers: int
    predicted_s: float
    curve: tuple[PlanPoint, ...]

    def point(self, workers: int) -> PlanPoint:
        for candidate in self.curve:
            if candidate.workers == workers:
                return candidate
        raise ShuffleError(f"no plan point for {workers} workers")


@dataclasses.dataclass(frozen=True, slots=True)
class RelayShufflePlan(ShufflePlan):
    """A :class:`ShufflePlan` that also fixes the fleet configuration."""

    shards: int = 1
    instance_type: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class ExchangeTerms:
    """The all-to-all as one substrate prices it — all the model varies."""

    #: One worker's line rate into the exchange (bytes/s).
    connection_bw: float
    #: The exchange's aggregate bandwidth (bytes/s).
    aggregate_bw: float
    #: Request latency of one mapper's publish at ``W`` workers (s).
    map_latency: t.Callable[[int], float]
    #: Request latency of one reducer's collect at ``W`` workers (s).
    reduce_latency: t.Callable[[int], float]
    #: Request ceiling behind the ``W²`` floor (requests/s).
    ops_per_second: float
    #: Whether the ``W²`` floor also bounds the map write (write-combined
    #: object-storage mappers issue ``W`` PUTs, not ``W²``).
    map_floor: bool = True
    #: Extra startup before any function runs (a cold relay's VM boot).
    boot_s: float = 0.0


def objectstore_terms(profile: CloudProfile, cost: ShuffleCostModel) -> ExchangeTerms:
    """Object storage as the exchange: K-way batched range-GETs."""
    store = profile.objectstore
    parallelism = max(1, cost.fetch_parallelism)
    return ExchangeTerms(
        connection_bw=min(
            profile.faas.instance_bandwidth, store.per_connection_bandwidth
        ),
        aggregate_bw=store.aggregate_bandwidth,
        map_latency=lambda _workers: store.write_latency.mean,
        reduce_latency=lambda workers: -(-workers // parallelism)
        * store.read_latency.mean,
        ops_per_second=store.ops_per_second,
        map_floor=False,
    )


def cache_terms(
    profile: CloudProfile, node_type: CacheNodeType, nodes: int
) -> ExchangeTerms:
    """A cache cluster as the exchange: one request per node touched."""
    if nodes < 1:
        raise ShuffleError(f"nodes must be >= 1, got {nodes}")
    cache = profile.memstore
    return ExchangeTerms(
        connection_bw=min(
            profile.faas.instance_bandwidth, cache.per_connection_bandwidth
        ),
        aggregate_bw=nodes * node_type.nic_bandwidth,
        map_latency=lambda workers: min(workers, nodes) * cache.write_latency.mean,
        reduce_latency=lambda workers: min(workers, nodes) * cache.read_latency.mean,
        ops_per_second=nodes * cache.ops_per_node,
    )


def relay_terms(
    profile: CloudProfile,
    instance_type: InstanceType,
    shards: int = 1,
    include_boot: bool = False,
) -> ExchangeTerms:
    """A relay fleet of ``shards`` instances as the exchange: one round
    trip per batch, N NICs and N request loops."""
    if shards < 1:
        raise ShuffleError(f"shards must be >= 1, got {shards}")
    vm = profile.vm
    request = vm.relay_request_latency.mean
    return ExchangeTerms(
        connection_bw=min(profile.faas.instance_bandwidth, instance_type.nic_bandwidth),
        aggregate_bw=instance_type.nic_bandwidth * shards,
        map_latency=lambda _workers: request,
        reduce_latency=lambda _workers: request,
        ops_per_second=shards * vm.relay_ops_per_second,
        boot_s=vm.boot.mean if include_boot else 0.0,
    )


def predict_exchange_time(
    logical_bytes: float,
    workers: int,
    profile: CloudProfile,
    cost: ExchangeCostModel,
    terms: ExchangeTerms,
    skew: float | None = None,
) -> PlanPoint:
    """Evaluate the analytic model at one worker count.

    ``skew`` is the expected max-over-mean partition bytes (default:
    ``cost.expected_skew``); the straggler reducer's fetch transfer,
    sort CPU and output write scale by it.  ``total_s`` is the sum of
    the breakdown, in its key order.
    """
    if workers < 1:
        raise ShuffleError(f"workers must be >= 1, got {workers}")
    skew = cost.expected_skew if skew is None else skew
    if skew < 1.0:
        raise ShuffleError(f"skew must be >= 1 (max/mean), got {skew}")
    size = float(logical_bytes)
    store = profile.objectstore
    faas = profile.faas
    store_bw = min(faas.instance_bandwidth, store.per_connection_bandwidth)
    per_worker = size / workers
    straggler = per_worker * skew

    def store_io(worker_bytes: float) -> float:
        return max(worker_bytes / store_bw, size / store.aggregate_bandwidth)

    def exchange_io(worker_bytes: float) -> float:
        return max(worker_bytes / terms.connection_bw, size / terms.aggregate_bw)

    ops_floor = (workers * workers) / terms.ops_per_second
    map_write = terms.map_latency(workers) + exchange_io(per_worker)
    breakdown = {
        "startup": faas.invoke_overhead.mean + faas.cold_start.mean + terms.boot_s,
        "map_read": store_io(per_worker) + store.read_latency.mean,
        "partition_cpu": per_worker / cost.partition_throughput,
        "map_write": max(map_write, ops_floor) if terms.map_floor else map_write,
        "reduce_fetch": max(
            terms.reduce_latency(workers) + exchange_io(straggler), ops_floor
        ),
        "sort_cpu": straggler / cost.sort_throughput,
        "reduce_write": store_io(straggler) + store.write_latency.mean,
        "driver": 3.0 * workers * (store.write_latency.mean + store.read_latency.mean),
    }
    return PlanPoint(workers, sum(breakdown.values()), breakdown)


def predict_shuffle_time(
    logical_bytes: float,
    workers: int,
    profile: CloudProfile,
    cost: ShuffleCostModel,
    skew: float | None = None,
) -> PlanPoint:
    """The object-storage shuffle at one worker count."""
    return predict_exchange_time(
        logical_bytes, workers, profile, cost, objectstore_terms(profile, cost), skew
    )


def predict_cache_shuffle_time(
    logical_bytes: float,
    workers: int,
    profile: CloudProfile,
    node_type: CacheNodeType,
    nodes: int,
    cost: CacheShuffleCostModel,
    skew: float | None = None,
) -> PlanPoint:
    """The cache-cluster shuffle at one worker count."""
    return predict_exchange_time(
        logical_bytes, workers, profile, cost,
        cache_terms(profile, node_type, nodes), skew,
    )


def predict_relay_shuffle_time(
    logical_bytes: float,
    workers: int,
    profile: CloudProfile,
    instance_type: InstanceType,
    cost: RelayShuffleCostModel,
    shards: int = 1,
    skew: float | None = None,
) -> PlanPoint:
    """The relay-fleet shuffle at one worker count.

    The fleet NIC term stays aggregate under skew: load-aware
    rebalancing (the ``ShardedRelayExchange`` default) spreads the hot
    partition's segments across shard NICs.
    """
    return predict_exchange_time(
        logical_bytes, workers, profile, cost,
        relay_terms(profile, instance_type, shards, cost.include_boot), skew,
    )


# ----------------------------------------------------------------------
# the curve search
# ----------------------------------------------------------------------
def best_plan(curve: tuple[PlanPoint, ...]) -> ShufflePlan:
    """The curve's fastest point (ties: fewer workers)."""
    best = min(curve, key=lambda point: (point.total_s, point.workers))
    return ShufflePlan(workers=best.workers, predicted_s=best.total_s, curve=curve)


def plan_exchange(
    logical_bytes: float,
    profile: CloudProfile,
    cost: ExchangeCostModel,
    terms: ExchangeTerms,
    max_workers: int = 256,
    candidates: t.Sequence[int] | None = None,
    skew: float | None = None,
) -> ShufflePlan:
    """Pick the worker count minimizing predicted shuffle time.

    ``candidates`` defaults to every integer in ``[1, max_workers]``;
    pass an explicit sequence (e.g. powers of two) to restrict the
    search the way Primula's on-the-fly heuristic does, or one count to
    evaluate a pinned worker count.  ``skew`` prices the straggler
    reducer (see :func:`predict_exchange_time`).
    """
    if logical_bytes <= 0:
        raise ShuffleError(f"logical_bytes must be positive, got {logical_bytes}")
    pool = list(candidates) if candidates is not None else list(range(1, max_workers + 1))
    if not pool:
        raise ShuffleError("empty candidate worker set")
    return best_plan(
        tuple(
            predict_exchange_time(logical_bytes, workers, profile, cost, terms, skew)
            for workers in sorted(set(pool))
        )
    )


def plan_shuffle(
    logical_bytes: float,
    profile: CloudProfile,
    cost: ShuffleCostModel | None = None,
    max_workers: int = 256,
    candidates: t.Sequence[int] | None = None,
    skew: float | None = None,
) -> ShufflePlan:
    """Plan the object-storage shuffle (see :func:`plan_exchange`)."""
    cost = cost if cost is not None else ShuffleCostModel()
    return plan_exchange(
        logical_bytes, profile, cost, objectstore_terms(profile, cost),
        max_workers, candidates, skew,
    )


def plan_cache_shuffle(
    logical_bytes: float,
    profile: CloudProfile,
    node_type_name: str,
    nodes: int,
    cost: CacheShuffleCostModel | None = None,
    max_workers: int = 256,
    candidates: t.Sequence[int] | None = None,
    skew: float | None = None,
) -> ShufflePlan:
    """Plan the cache-cluster shuffle (see :func:`plan_exchange`)."""
    return plan_exchange(
        logical_bytes, profile,
        cost if cost is not None else CacheShuffleCostModel(),
        cache_terms(profile, resolve_cache_node(profile, node_type_name), nodes),
        max_workers, candidates, skew,
    )


def plan_relay_shuffle(
    logical_bytes: float,
    profile: CloudProfile,
    instance_type_name: str,
    cost: RelayShuffleCostModel | None = None,
    max_workers: int = 256,
    candidates: t.Sequence[int] | None = None,
    shards: int | None = 1,
    min_shards: int = 1,
    max_shards: int = 8,
    skew: float | None = None,
) -> RelayShufflePlan:
    """Pick ``(workers, shards)`` minimizing predicted relay-shuffle time.

    ``shards`` pins the fleet size (1 = the classic single relay);
    ``shards=None`` searches ``min_shards..max_shards`` jointly with the
    worker count and returns the *smallest* fleet whose best time is
    within ``cost.shard_convergence`` of the global optimum — once the
    worker NICs (not the fleet NIC) bound the exchange, extra shards
    only cost money (the monetized trade-off lives in
    :func:`~repro.shuffle.adaptive.choose_exchange_substrate`).
    """
    cost = cost if cost is not None else RelayShuffleCostModel()
    instance_type = resolve_relay_instance(profile, instance_type_name)
    if shards is not None:
        shard_pool = [shards]
    elif not 1 <= min_shards <= max_shards:
        raise ShuffleError(
            f"need 1 <= min_shards <= max_shards, got {min_shards}..{max_shards}"
        )
    else:
        shard_pool = list(range(min_shards, max_shards + 1))
    plans = {
        n: plan_exchange(
            logical_bytes, profile, cost,
            relay_terms(profile, instance_type, n, cost.include_boot),
            max_workers, candidates, skew,
        )
        for n in shard_pool
    }
    optimum = min(plan.predicted_s for plan in plans.values())
    chosen = min(
        n
        for n, plan in plans.items()
        if plan.predicted_s <= optimum * (1.0 + cost.shard_convergence)
    )
    best = plans[chosen]
    return RelayShufflePlan(
        best.workers, best.predicted_s, best.curve, chosen, instance_type.name
    )


# ----------------------------------------------------------------------
# the streaming execution mode
# ----------------------------------------------------------------------
def streaming_chunk_count(
    logical_bytes: float, workers: int, chunk_bytes: float
) -> int:
    """Chunks per mapper at one worker count (the pipelining grain)."""
    if chunk_bytes <= 0:
        raise ShuffleError(f"chunk_bytes must be positive, got {chunk_bytes}")
    return max(1, math.ceil((logical_bytes / max(1, workers)) / chunk_bytes))


def streaming_chunk_overhead_s(profile: CloudProfile, substrate: str) -> float:
    """Per-chunk request overhead of the readiness protocol.

    What the streaming mode pays per chunk that staging never does: one
    manifest PUT + one discovery GET on object storage, one notification
    read + one extra write round trip on the cache, two relay round
    trips on the relay family.  Multiplied by the chunk count in
    :func:`predict_streaming_shuffle_time`, this is the term that keeps
    infinitely fine chunking from winning.
    """
    if substrate == "objectstore":
        store = profile.objectstore
        return store.write_latency.mean + store.read_latency.mean
    if substrate == "cache":
        memstore = profile.memstore
        return memstore.write_latency.mean + memstore.read_latency.mean
    if substrate in ("relay", "sharded-relay"):
        return 2.0 * profile.vm.relay_request_latency.mean
    raise ShuffleError(f"unknown exchange substrate {substrate!r}")


def predict_streaming_shuffle_time(
    staged: PlanPoint,
    chunks: int,
    per_chunk_overhead_s: float = 0.0,
    chunked_input: bool = False,
) -> PlanPoint:
    """Overlap-aware completion time of the pipelined map→reduce exchange.

    Transforms a *staged* prediction (any substrate's — every point of
    the skeleton carries the same breakdown keys) into the streaming
    execution mode's: the producer side of the exchange (partitioning +
    publishing) and the consumer side (fetching + sorting) run as a
    two-stage pipeline over ``chunks`` chunks per mapper, so the
    critical path is the slower side plus one chunk's worth of the
    faster side (the pipeline fill/drain), instead of their sum::

        pipelined = max(P, C) + min(P, C) / chunks
        P = partition_cpu + map_write
        C = reduce_fetch + sort_cpu

    ``per_chunk_overhead_s`` charges what staging never pays: the extra
    per-chunk requests of the readiness protocol (manifest PUT/poll on
    object storage, notification reads on cache/relay), linear in the
    chunk count — which is why infinitely fine chunking does not win.
    Input read, output write, startup and driver terms are unchanged;
    with ``chunks == 1`` and zero overhead this degenerates to the
    staged total.

    ``chunked_input`` models the online sort's chunked map-side *input*
    reads: the mapper range-GETs each chunk's sub-range just before
    partitioning it, so the whole-split read joins the producer side of
    the pipeline (``P = map_read + partition_cpu + map_write``) instead
    of serialising before it — pipeline fill drops below ``map_read +
    first chunk``.
    """
    if chunks < 1:
        raise ShuffleError(f"chunks must be >= 1, got {chunks}")
    if per_chunk_overhead_s < 0:
        raise ShuffleError(
            f"per_chunk_overhead_s must be >= 0, got {per_chunk_overhead_s}"
        )
    b = staged.breakdown
    producer = b["partition_cpu"] + b["map_write"]
    serial_read = b["map_read"]
    if chunked_input:
        producer += serial_read
        serial_read = 0.0
    consumer = b["reduce_fetch"] + b["sort_cpu"]
    breakdown = {
        "startup": b["startup"],
        "map_read": serial_read,
        "pipelined_exchange": max(producer, consumer)
        + min(producer, consumer) / chunks,
        "chunk_overhead": chunks * per_chunk_overhead_s,
        "reduce_write": b["reduce_write"],
        "driver": b["driver"],
    }
    return PlanPoint(staged.workers, sum(breakdown.values()), breakdown)


def streaming_curve(
    staged_curve: t.Iterable[PlanPoint],
    logical_bytes: float,
    profile: CloudProfile,
    substrate: str,
    chunk_bytes: float,
    chunked_input: bool = False,
) -> tuple[PlanPoint, ...]:
    """A substrate's staged curve, transformed point by point into the
    streaming mode's at ``chunk_bytes``-sized chunks (each point's own
    chunk count, the substrate's per-chunk readiness overhead)."""
    overhead = streaming_chunk_overhead_s(profile, substrate)
    return tuple(
        predict_streaming_shuffle_time(
            point,
            streaming_chunk_count(logical_bytes, point.workers, chunk_bytes),
            overhead,
            chunked_input=chunked_input,
        )
        for point in staged_curve
    )


# ----------------------------------------------------------------------
# capacity sizing of the provisioned substrates
# ----------------------------------------------------------------------
def resolve_cache_node(profile: CloudProfile, type_name: str) -> CacheNodeType:
    """Look up a cache node flavour, raising a helpful error when unknown."""
    try:
        return profile.memstore.catalog[type_name]
    except KeyError:
        raise ShuffleError(
            f"unknown cache node type {type_name!r}; available: "
            f"{sorted(profile.memstore.catalog)}"
        ) from None


def resolve_relay_instance(profile: CloudProfile, type_name: str) -> InstanceType:
    """Look up a relay VM flavour, raising a helpful error when unknown."""
    try:
        return profile.vm.catalog[type_name]
    except KeyError:
        raise ShuffleError(
            f"unknown relay instance type {type_name!r}; available: "
            f"{sorted(profile.vm.catalog)}"
        ) from None


def _check_sizing(
    logical_bytes: float, headroom: float, partition_skew: float = 1.0
) -> None:
    if logical_bytes <= 0:
        raise ShuffleError(f"logical_bytes must be positive, got {logical_bytes}")
    if headroom < 1.0:
        raise ShuffleError(f"headroom must be >= 1, got {headroom}")
    if partition_skew < 1.0:
        raise ShuffleError(
            f"partition_skew must be >= 1 (max/mean), got {partition_skew}"
        )


def _largest_instance(profile: CloudProfile) -> InstanceType:
    return max(profile.vm.catalog.values(), key=lambda instance: instance.memory_gb)


def required_cache_nodes(
    logical_bytes: float,
    profile: CloudProfile,
    node_type_name: str,
    headroom: float = 1.3,
    partition_skew: float = 1.0,
) -> int:
    """Smallest node count whose usable memory holds the shuffle data.

    ``headroom`` leaves slack for sharding imbalance; the whole dataset
    sits in the cache between the map and reduce waves, so capacity is a
    hard feasibility constraint (unlike object storage, which is
    effectively unbounded — a qualitative difference the comparison
    reports).

    ``partition_skew`` (max-over-mean partition bytes) sizes the cluster
    so the *hottest node's* expected share — ``min(logical, skew *
    logical / nodes)`` under hash slot routing — fits in one node's
    usable memory, mirroring :func:`required_relay_fleet`.
    """
    _check_sizing(logical_bytes, headroom, partition_skew)
    node_type = resolve_cache_node(profile, node_type_name)
    per_node = (
        node_type.memory_gb
        * (1 << 30)
        * profile.memstore.usable_memory_fraction
    )
    if per_node >= logical_bytes * headroom:
        return 1
    needed = logical_bytes * headroom * partition_skew
    return max(1, -(-int(needed) // int(per_node)))


def required_relay_instance(
    logical_bytes: float,
    profile: CloudProfile,
    headroom: float = SHARD_IMBALANCE_HEADROOM,
) -> str:
    """Smallest catalog instance whose usable memory holds the shuffle data.

    ``headroom`` leaves slack for partition imbalance.  The relay is
    scale-up: when even the fattest flavour cannot hold the dataset the
    substrate is infeasible and this raises — the qualitative limit the
    comparison reports (the cache scales out, object storage is
    unbounded).
    """
    _check_sizing(logical_bytes, headroom)
    needed = logical_bytes * headroom
    fitting = [
        instance
        for instance in profile.vm.catalog.values()
        if profile.vm.relay_usable_bytes(instance) >= needed
    ]
    if not fitting:
        largest = _largest_instance(profile)
        raise ShuffleError(
            f"no instance type holds {logical_bytes:.0f} logical bytes "
            f"(x{headroom:.2f} headroom); largest is {largest.name} with "
            f"{largest.memory_gb} GB — the relay substrate is scale-up only"
        )
    best = min(fitting, key=lambda instance: (instance.memory_gb, instance.name))
    return best.name


def hot_shard_bytes(
    logical_bytes: float, shards: int, partition_skew: float = 1.0
) -> float:
    """Expected logical bytes on the *hottest* shard of a fleet.

    Hash routing only realises the mean ``logical / shards`` on balanced
    keys: a partition skew of ``s`` (max-over-mean partition bytes)
    concentrates up to ``s * logical / shards`` on the shard that owns
    the hot partition, capped at the whole dataset (one shard can never
    receive more than everything).  ``partition_skew=1.0`` reduces to
    the mean — the pre-skew-aware sizing.
    """
    return min(float(logical_bytes), partition_skew * logical_bytes / shards)


def _fleet_shards_for(
    logical_bytes: float, usable: float, headroom: float, partition_skew: float
) -> int:
    """Smallest shard count whose hottest shard fits in ``usable``.

    Feasibility is ``headroom * hot_shard_bytes(logical, n, skew) <=
    usable``, which is monotone in ``n``: one shard suffices whenever the
    whole dataset fits, otherwise the hot-shard term dictates
    ``ceil(headroom * logical * skew / usable)`` — the skew-aware
    generalisation of the old mean-based ``ceil(headroom * logical /
    usable)`` that under-provisioned Zipf workloads when rebalancing is
    off.
    """
    if usable >= headroom * logical_bytes:
        return 1
    return max(1, math.ceil(headroom * logical_bytes * partition_skew / usable))


def required_relay_fleet(
    logical_bytes: float,
    profile: CloudProfile,
    instance_type_name: str | None = None,
    max_shards: int = 8,
    headroom: float = SHARD_IMBALANCE_HEADROOM,
    partition_skew: float = 1.0,
) -> tuple[str, int]:
    """Cheapest ``(instance_type, shards)`` whose fleet holds the data.

    With ``instance_type_name`` pinned, returns the smallest shard count
    (``<= max_shards``) of that flavour that fits; otherwise searches
    the catalog for the fleet minimizing total instance-hours (then
    shard count, then name).  Sharding is what makes datasets beyond
    the fattest single flavour feasible on the relay substrate at all —
    when even ``max_shards`` of the fattest flavour cannot hold the data
    this raises, mirroring :func:`required_relay_instance`.

    ``partition_skew`` (max-over-mean partition bytes) sizes the fleet
    so the *hot shard's* expected bytes — not the mean — fit in
    :meth:`~repro.cloud.profiles.VmProfile.relay_usable_bytes`: CRC
    routing parks a hot partition entirely on one shard, so a Zipf
    workload needs roughly ``skew`` times the balanced shard count
    unless load-aware rebalancing spreads it (in which case callers
    should keep the default of 1.0).
    """
    _check_sizing(logical_bytes, headroom, partition_skew)
    if max_shards < 1:
        raise ShuffleError(f"max_shards must be >= 1, got {max_shards}")
    if instance_type_name is not None:
        instance = resolve_relay_instance(profile, instance_type_name)
        usable = profile.vm.relay_usable_bytes(instance)
        shards = _fleet_shards_for(logical_bytes, usable, headroom, partition_skew)
        if shards > max_shards:
            raise ShuffleError(
                f"{logical_bytes:.0f} logical bytes (x{headroom:.2f} headroom, "
                f"partition skew {partition_skew:.2f}) need {shards} shards of "
                f"{instance.name}, beyond the max_shards={max_shards} fleet limit"
            )
        return instance.name, shards
    options: list[tuple[float, int, str]] = []
    for instance in profile.vm.catalog.values():
        usable = profile.vm.relay_usable_bytes(instance)
        shards = _fleet_shards_for(logical_bytes, usable, headroom, partition_skew)
        if shards <= max_shards:
            options.append((shards * instance.hourly_usd, shards, instance.name))
    if not options:
        largest = _largest_instance(profile)
        raise ShuffleError(
            f"no fleet of <= {max_shards} instances holds {logical_bytes:.0f} "
            f"logical bytes (x{headroom:.2f} headroom); largest flavour is "
            f"{largest.name} with {largest.memory_gb} GB"
        )
    _cost, shards, name = min(options)
    return name, shards
