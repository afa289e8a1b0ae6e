"""Online shuffle sort: mid-stream substrate re-selection (OnlineTuner v2).

:class:`OnlineShuffleSort` turns the one-shot pre-flight decision of
:func:`~repro.shuffle.adaptive.choose_exchange_substrate` into a
**control loop running inside the shuffle**.  The input object is cut
into a fixed (mapper × chunk) grid up front; mappers then execute in
*waves* — wave ``k`` reads and publishes every mapper's chunk ``k`` —
and between waves the driver:

1. refits a profile copy from the waves' *observed* chunk publish rates
   (:func:`~repro.shuffle.adaptive.fit_stream_profiles` — the telemetry
   the pipeline produced anyway, no dedicated probe);
2. re-runs :func:`~repro.shuffle.adaptive.choose_exchange_substrate` on
   the **remaining** bytes, and — behind a hysteresis margin — switches
   the worker count, shard count, mode, or (at the chunk boundary) the
   exchange substrate itself for every future wave;
3. when the running substrate is the rebalancing relay fleet, re-routes
   future chunks of hot (mapper, reducer) cells at chunk grain
   (:func:`~repro.shuffle.relay.build_chunk_rebalance_assignments`
   installed as a :meth:`~repro.shuffle.relay.PartitionLoadRouter.with_chunk_epoch`).

Reducers are substrate-agnostic subscribers: a tiny **control plane**
on object storage (a grid record plus one immutable *route record* per
wave, published before that wave's mappers are submitted) tells every
reducer which substrate carries which wave, so a reducer simply follows
the route table chunk by chunk — chunks already published on an earlier
substrate keep their routes, the rendezvous invariant mid-switch.

Because each wave reads only its own input sub-range (chunked map-side
*input* reads), the pipeline fill is one chunk's read + publish instead
of the whole split read + the first chunk — the shape
``choose_exchange_substrate(stream_chunked_input=True)`` prices.

Byte parity: each reducer reassembles its partition in (mapper, chunk)
order — exactly the record order the staged mapper would have
partitioned in — then applies the same stable sort, so the sorted runs
are byte-identical to every static substrate's at the same boundaries.

The whole decision history lands in a
:class:`~repro.shuffle.adaptive.DecisionTimeline` (the ``auto_sort``
stage records it as ``substrate_decision``); benchmark S12 measures
the payoff against every static decision under a mid-run rate shift.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro.cas import cas_enabled, sha256_hex
from repro.cloud.objectstore.errors import NoSuchKey
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready
from repro.errors import ShuffleError
from repro.shuffle.adaptive import (
    DecisionPoint,
    DecisionTimeline,
    StreamRateSample,
    SubstrateDecision,
    SubstrateEstimate,
    choose_exchange_substrate,
    fit_stream_profiles,
)
from repro.shuffle.cacheplanner import CacheShuffleCostModel
from repro.shuffle.content import build_run_manifest
from repro.shuffle.exchange import ExchangeReport, ObjectStoreExchange
from repro.shuffle.operator import ShuffleResult, ShuffleSort, _jsonable, _split
from repro.shuffle.planner import ShuffleCostModel
from repro.shuffle.records import RecordCodec
from repro.shuffle.relay import (
    PartitionLoadRouter,
    build_chunk_rebalance_assignments,
    build_rebalance_assignments,
)
from repro.shuffle.relayplanner import RelayShuffleCostModel
from repro.shuffle import kernels
from repro.shuffle.ports import ExchangePort
from repro.shuffle.sampler import partition_skew_of
from repro.shuffle.stages import read_split
from repro.shuffle.streaming import StreamConfig, _StreamBuffer
from repro.sim import SimEvent
from repro.storage import paths
from repro.storage.serializer import deserialize, serialize


# ----------------------------------------------------------------------
# control-plane key layout (always on object storage)
# ----------------------------------------------------------------------
def online_grid_key(ctl_prefix: str) -> str:
    """COS object describing the fixed (mapper × chunk) grid."""
    return f"{ctl_prefix}/grid"


def online_route_key(ctl_prefix: str, wave: int) -> str:
    """COS object routing wave ``wave``'s chunks to their substrate."""
    return f"{ctl_prefix}/w{wave:05d}"


def _poll_object(ctx, bucket: str, key: str, interval: float) -> t.Generator:
    """GET ``bucket/key``, polling with gentle backoff until it exists."""
    delay = interval
    while True:
        try:
            raw = yield ctx.storage.get(bucket, key)
        except NoSuchKey:
            yield ctx.sleep(delay)
            delay = min(delay * 1.5, interval * 4)
        else:
            return raw


class _RouteTable:
    """Reducer-side cache of wave → stream port.

    Route records are immutable once written (the driver publishes wave
    ``k``'s record before submitting wave ``k``'s mappers), so each is
    read at most once per reducer; ports are shared across waves that
    route to the same substrate instance (``route_id``).
    """

    def __init__(self, ctx, bucket: str, ctl_prefix: str, poll_interval: float):
        self.ctx = ctx
        self.bucket = bucket
        self.ctl_prefix = ctl_prefix
        self.poll_interval = poll_interval
        self._descriptors: dict[int, dict] = {}
        self._ports: dict[str, t.Any] = {}

    def port(self, wave: int) -> t.Generator:
        descriptor = self._descriptors.get(wave)
        if descriptor is None:
            raw = yield from _poll_object(
                self.ctx, self.bucket,
                online_route_key(self.ctl_prefix, wave), self.poll_interval,
            )
            descriptor = deserialize(raw)
            self._descriptors[wave] = descriptor
        route_id = descriptor["route_id"]
        port = self._ports.get(route_id)
        if port is None:
            port = ExchangePort.open(self.ctx, descriptor)
            self._ports[route_id] = port
        return port


# ----------------------------------------------------------------------
# worker stages
# ----------------------------------------------------------------------
def online_wave_mapper(ctx, task: dict) -> t.Generator:
    """Read, partition and publish one wave's chunk units.

    Task fields: ``units`` (list of ``{mapper_id, chunk, start, end}``
    input sub-ranges), ``bucket, key, object_size, peek_bytes,
    boundaries, codec, partition_throughput`` and the ``stream`` port
    descriptor of this wave's substrate.  Unlike the streaming mapper,
    the *input read itself* is chunked: each unit reads only its own
    sub-range before publishing, so the pipeline fill is one chunk's
    read + publish, not the whole split read.

    Returns per-wave telemetry the driver's control loop feeds back:
    summed ``read_s``/``publish_s``, the published logical bytes, and
    the per-(mapper, chunk) reducer-byte ``cells`` behind hot-partition
    rerouting.
    """
    started_at = ctx.sim.now
    codec: RecordCodec = task["codec"]
    boundaries = task["boundaries"]
    parts = len(boundaries) + 1
    port = ExchangePort.open(ctx, task["stream"])

    records_total = 0
    read_s = 0.0
    publish_s = 0.0
    published_logical = 0.0
    partition_bytes = [0.0] * parts
    cells: list[dict] = []
    kernel_kinds: set[str] = set()
    kernel_s = 0.0
    for unit in task["units"]:
        before = ctx.sim.now
        owned = yield from read_split(ctx, task, unit["start"], unit["end"])
        read_s += ctx.sim.now - before
        outcome = kernels.partition_buffer(codec, owned, boundaries)
        segments = outcome.segments()
        records_total += outcome.records
        kernel_kinds.add(outcome.kernel)
        kernel_s += outcome.elapsed_s
        yield ctx.compute_bytes(len(owned), task["partition_throughput"])
        cell_bytes = [len(segment) * ctx.logical_scale for segment in segments]
        before = ctx.sim.now
        yield from port.publish(unit["mapper_id"], unit["chunk"], segments)
        publish_s += ctx.sim.now - before
        published_logical += sum(cell_bytes)
        for reducer_id, logical in enumerate(cell_bytes):
            partition_bytes[reducer_id] += logical
        cells.append(
            {"mapper": unit["mapper_id"], "chunk": unit["chunk"],
             "bytes": cell_bytes}
        )
    kernel = "mixed" if len(kernel_kinds) > 1 else next(
        iter(kernel_kinds), kernels.KERNEL_SCALAR
    )
    return {
        "records": records_total,
        "units": len(task["units"]),
        "chunks": len(task["units"]),
        "read_s": read_s,
        "publish_s": publish_s,
        "published_logical": published_logical,
        "partition_bytes": partition_bytes,
        "cells": cells,
        "started_at": started_at,
        "kernel": kernel,
        "kernel_records": records_total,
        "kernel_s": kernel_s,
    }


def online_stream_reducer(ctx, task: dict) -> t.Generator:
    """Follow the route table chunk by chunk; sort as chunks land.

    Task fields: ``reducer_id, bucket, ctl_prefix, poll_interval,
    buffer_bytes, out_bucket, output_key, codec, sort_throughput``.
    The grid record supplies the (mapper × chunk) shape; each chunk's
    substrate comes from that wave's route record, so the reducer keeps
    fetching seamlessly across mid-stream substrate switches (chunks
    published before a switch keep their old route).  Buffering,
    backpressure and the incremental sorter mirror the streaming
    reducer; the reassembly order (mapper-major, then chunk) is the
    staged record order, so the sorted run is byte-identical.
    """
    started_at = ctx.sim.now
    codec: RecordCodec = task["codec"]
    reducer_id = task["reducer_id"]
    poll_interval = task["poll_interval"]
    raw = yield from _poll_object(
        ctx, task["bucket"], online_grid_key(task["ctl_prefix"]), poll_interval
    )
    grid = deserialize(raw)
    mappers: int = grid["mappers"]
    chunk_counts: list[int] = grid["chunks"]
    routes = _RouteTable(ctx, task["bucket"], task["ctl_prefix"], poll_interval)
    buffer = _StreamBuffer(ctx.sim, task["buffer_bytes"])
    chunks: dict[int, dict[int, bytes]] = {m: {} for m in range(mappers)}
    finished = {"fetchers": 0}

    def consume_stream(mapper_id: int) -> t.Generator:
        for chunk_index in range(chunk_counts[mapper_id]):
            yield from buffer.wait_for_space()
            port = yield from routes.port(chunk_index)
            data = yield from port.fetch_chunk(mapper_id, reducer_id, chunk_index)
            chunks[mapper_id][chunk_index] = data
            buffer.arrived(len(data), len(data) * ctx.logical_scale)
        finished["fetchers"] += 1
        buffer.notify_work()

    def sorter() -> t.Generator:
        while True:
            if buffer.queue:
                real_len, logical = buffer.queue.popleft()
                if real_len > 0:
                    yield ctx.compute_bytes(real_len, task["sort_throughput"])
                buffer.drained(logical)
                continue
            if finished["fetchers"] == mappers:
                return
            yield buffer.work_event()

    fetchers = [
        ctx.track(
            ctx.sim.process(
                consume_stream(mapper_id), name=f"onlinefetch-m{mapper_id}"
            )
        )
        for mapper_id in range(mappers)
    ]
    sort_process = ctx.track(ctx.sim.process(sorter(), name="onlinesort"))
    yield ctx.sim.all_of(
        [process.completion for process in fetchers] + [sort_process.completion]
    )

    payload = b"".join(
        chunks[mapper_id][chunk_index]
        for mapper_id in range(mappers)
        for chunk_index in range(chunk_counts[mapper_id])
    )
    outcome = kernels.sort_buffer(codec, payload)
    yield ctx.storage.put(
        task["out_bucket"], task["output_key"], outcome.output, dedup=True
    )
    return {
        "records": outcome.records,
        "bytes": len(outcome.output),
        "output_key": task["output_key"],
        "buffer_waits": buffer.waits,
        "buffer_wait_s": buffer.wait_s,
        "buffer_high_watermark_bytes": buffer.high_watermark,
        "started_at": started_at,
        "kernel": outcome.kernel,
        "kernel_records": outcome.records,
        "kernel_s": outcome.elapsed_s,
    }


# ----------------------------------------------------------------------
# driver-side substrate stints
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Stint:
    """One provisioned substrate serving a contiguous run of waves."""

    substrate: str
    descriptor: dict
    provisioned: t.Any = None
    fleet: bool = False
    router: PartitionLoadRouter | None = None
    rate_usd_per_s: float = 0.0
    minimum_billed_s: float = 0.0
    started_at: float = 0.0
    ended_at: float | None = None
    peak_fill: float = 0.0
    #: Content log ``(key, sha256, logical)`` of the chunks this stint's
    #: substrate committed, captured just before it is torn down (a
    #: terminated relay/cluster takes its in-memory log with it).
    cas_entries: list[tuple[str, str, float]] = dataclasses.field(
        default_factory=list
    )
    #: Wire bytes this stint's substrate saved through content dedup
    #: (fresh instance per stint, so lifetime totals are per-stint).
    dedup_bytes: float = 0.0

    def billed_usd(self, now: float) -> float:
        end = self.ended_at if self.ended_at is not None else now
        if self.rate_usd_per_s <= 0:
            return 0.0
        return self.rate_usd_per_s * max(
            end - self.started_at, self.minimum_billed_s
        )

    def release(self, now: float) -> None:
        self.ended_at = now
        if self.provisioned is None:
            return
        if hasattr(self.provisioned, "peak_fill_fraction"):
            self.peak_fill = self.provisioned.peak_fill_fraction
        if hasattr(self.provisioned, "cas_entries"):
            self.cas_entries = self.provisioned.cas_entries(
                self.descriptor["prefix"]
            )
        if hasattr(self.provisioned, "stats_totals"):
            self.dedup_bytes = self.provisioned.stats_totals().get(
                "dedup_bytes", 0.0
            )
        elif hasattr(self.provisioned, "stats"):
            self.dedup_bytes = self.provisioned.stats.as_dict().get(
                "dedup_bytes", 0.0
            )
        if self.fleet:
            self.provisioned.terminate()
        elif self.provisioned.state == "running":
            self.provisioned.terminate()
        self.provisioned = None


class OnlineShuffleSort(ShuffleSort):
    """Sort with mid-stream substrate re-selection (OnlineTuner v2).

    Parameters
    ----------
    executor, codec:
        As :class:`~repro.shuffle.operator.ShuffleSort`.
    stream:
        The chunk grain / reducer buffer / poll cadence
        (:class:`~repro.shuffle.streaming.StreamConfig`).
    shuffle_cost, cache_cost, relay_cost:
        Per-substrate workload constants, passed to every
        (re-)selection and to the worker stages.
    time_value_usd_per_hour, substrates, modes, cache_node_type,
    relay_instance_type, max_relay_shards, partition_skew:
        Forwarded to :func:`~repro.shuffle.adaptive.choose_exchange_substrate`
        at every decision point.
    switch_margin:
        Hysteresis: a candidate configuration only displaces the running
        one when its score undercuts the running configuration's
        *refit* score by this fraction — re-provisioning has a cost the
        analytic score does not see, so marginal wins stay put.
    reroute_threshold:
        Hot-partition sensitivity: a chunk-grain reroute fires when the
        hottest shard's share of a wave's observed bytes exceeds its
        fair share by this fraction (projected through the routing that
        will govern the next chunks).

    After :meth:`sort` completes, :attr:`timeline` holds the
    :class:`~repro.shuffle.adaptive.DecisionTimeline` and
    :attr:`report` the uniform exchange report (``substrate`` = the
    final configuration's, ``mode`` = ``"online"``).
    """

    def __init__(
        self,
        executor,
        codec: RecordCodec,
        stream: StreamConfig | None = None,
        shuffle_cost: ShuffleCostModel | None = None,
        cache_cost: CacheShuffleCostModel | None = None,
        relay_cost: RelayShuffleCostModel | None = None,
        time_value_usd_per_hour: float = 1.0,
        substrates: t.Sequence[str] | None = None,
        modes: t.Sequence[str] = ("staged", "streaming"),
        cache_node_type: str = "cache.r5.large",
        relay_instance_type: str | None = None,
        max_relay_shards: int = 8,
        partition_skew: float = 1.0,
        switch_margin: float = 0.05,
        reroute_threshold: float = 0.2,
    ):
        super().__init__(
            executor, codec, backend=ObjectStoreExchange(shuffle_cost)
        )
        if getattr(executor, "speculation", None) is not None:
            raise ShuffleError(
                "OnlineShuffleSort drives its own wave control loop and "
                "does not support speculative execution; disable the "
                "executor's speculation policy"
            )
        if switch_margin < 0:
            raise ShuffleError(
                f"switch_margin must be >= 0, got {switch_margin}"
            )
        if reroute_threshold < 0:
            raise ShuffleError(
                f"reroute_threshold must be >= 0, got {reroute_threshold}"
            )
        self.stream = stream if stream is not None else StreamConfig()
        self.shuffle_cost = self.cost  # backend-carried ShuffleCostModel
        self.cache_cost = (
            cache_cost if cache_cost is not None else CacheShuffleCostModel()
        )
        self.relay_cost = (
            relay_cost if relay_cost is not None else RelayShuffleCostModel()
        )
        self.time_value_usd_per_hour = time_value_usd_per_hour
        self.substrates = tuple(substrates) if substrates is not None else None
        self.modes = tuple(modes)
        self.cache_node_type = cache_node_type
        self.relay_instance_type = relay_instance_type
        self.max_relay_shards = max_relay_shards
        self.partition_skew = partition_skew
        self.switch_margin = switch_margin
        self.reroute_threshold = reroute_threshold
        #: Decision history of the last sort.
        self.timeline = DecisionTimeline()
        #: Chunk-grain hot-partition reroutes of the last sort.
        self.chunk_reroutes = 0

    # ------------------------------------------------------------------
    def sort(
        self,
        bucket: str,
        key: str,
        out_bucket: str | None = None,
        out_prefix: str | None = None,
        workers: int | None = None,
        samplers: int = 8,
        max_workers: int = 256,
    ) -> SimEvent:
        """Sort ``bucket/key``; event → :class:`ShuffleResult`."""
        return self.sim.process(
            self._sort(
                bucket,
                key,
                out_bucket if out_bucket is not None else bucket,
                out_prefix if out_prefix is not None else "online-shuffle",
                workers,
                samplers,
                max_workers,
            ),
            name=f"onlineshuffle.sort:{key}",
        ).completion

    # ------------------------------------------------------------------
    def _decide(
        self,
        logical_bytes: float,
        profile,
        workers: int | None,
        max_workers: int = 256,
    ) -> SubstrateDecision:
        return choose_exchange_substrate(
            max(1.0, logical_bytes),
            profile,
            workers,
            cache_node_type=self.cache_node_type,
            relay_instance_type=self.relay_instance_type,
            time_value_usd_per_hour=self.time_value_usd_per_hour,
            max_workers=max_workers,
            max_relay_shards=self.max_relay_shards,
            substrates=self.substrates,
            modes=self.modes,
            stream_chunk_bytes=self.stream.chunk_bytes,
            stream_chunked_input=True,
            partition_skew=self.partition_skew,
            shuffle_cost=self.shuffle_cost,
            cache_cost=self.cache_cost,
            relay_cost=self.relay_cost,
        )

    def _provision_stint(
        self,
        estimate: SubstrateEstimate,
        out_bucket: str,
        out_prefix: str,
        epoch: int,
        base_router_table: t.Sequence[t.Sequence[int]] | None,
    ) -> _Stint:
        """Provision (warm) the substrate one estimate priced.

        Every stint gets a *fresh* substrate instance: an earlier
        stint's chunks stay resident on its relay/cache until the
        reducers drain them, so reusing the instance could overflow a
        fleet sized only for the remaining bytes.  The stint's
        ``route_id`` names the instance in the reducers' port cache.
        """
        cloud = self.executor.cloud
        profile = cloud.profile
        descriptor = {
            "prefix": f"{out_prefix}/stream",
            "chunk_bytes": self.stream.chunk_bytes,
            "buffer_bytes": self.stream.buffer_bytes,
            "poll_interval": self.stream.poll_interval_s,
            "route_id": f"{estimate.substrate}#{epoch}",
        }
        stint = _Stint(
            substrate=estimate.substrate,
            descriptor=descriptor,
            started_at=self.sim.now,
        )
        if estimate.substrate == "objectstore":
            descriptor.update(kind="objectstore", bucket=out_bucket)
        elif estimate.substrate == "cache":
            nodes = max(1, estimate.shards)
            cluster = cloud.cache.provision_ready(estimate.instance_type, nodes)
            descriptor.update(kind="cache", cluster_id=cluster.cluster_id)
            node_type = profile.memstore.catalog[estimate.instance_type]
            stint.provisioned = cluster
            stint.rate_usd_per_s = nodes * node_type.per_second_usd
            stint.minimum_billed_s = profile.memstore.minimum_billed_s
        else:
            volume_per_s = (
                profile.vm.boot_volume_gb * profile.vm.volume_gb_hour_usd
                / 3600.0
            )
            if estimate.substrate == "relay":
                relay = relay_ready(cloud.vms, estimate.instance_type)
                shards = 1
            else:  # sharded-relay
                shards = max(1, estimate.shards)
                relay = fleet_ready(cloud.vms, estimate.instance_type, shards)
                stint.fleet = True
                if base_router_table is not None and shards >= 2:
                    stint.router = PartitionLoadRouter(base_router_table)
                    relay.set_router(stint.router)
            descriptor.update(kind="relay", relay_id=relay.relay_id)
            instance = relay.instance_type
            stint.provisioned = relay
            stint.rate_usd_per_s = shards * (
                instance.per_second_usd + volume_per_s
            )
            stint.minimum_billed_s = profile.vm.minimum_billed_s
        return stint

    @staticmethod
    def _config_of(estimate: SubstrateEstimate) -> tuple:
        return (
            estimate.substrate,
            estimate.mode,
            estimate.workers,
            estimate.shards,
            estimate.instance_type,
        )

    @staticmethod
    def _group_units(units: list[dict], groups: int) -> list[list[dict]]:
        """Contiguous near-even grouping of units into map tasks."""
        groups = max(1, min(groups, len(units)))
        return [
            units[start:end]
            for start, end in _split(len(units), groups)
            if end > start
        ]

    # ------------------------------------------------------------------
    def _sort(
        self,
        bucket: str,
        key: str,
        out_bucket: str,
        out_prefix: str,
        pinned_workers: int | None,
        samplers: int,
        max_workers: int,
    ) -> t.Generator:
        """Span-owning shell around :meth:`_sort_online`.

        Owns the sort's root span, folds the
        :class:`~repro.shuffle.adaptive.DecisionTimeline` into it as
        span events once the sort finished (every decision point —
        including substrate switches and hot-partition reroutes —
        appears on the exported trace at its simulation time), and on
        failure closes whatever wave spans the aborted body left open.
        """
        started_at = self.sim.now
        sort_span = self.sim.tracer.span(
            f"sort:{out_prefix}", category="sort", substrate="online",
            mode="online",
        )
        with sort_span:
            try:
                result = yield from self._sort_online(
                    bucket, key, out_bucket, out_prefix, pinned_workers,
                    samplers, max_workers, sort_span,
                )
            except BaseException:
                if sort_span.recording:
                    for open_span in self.sim.tracer.open_spans():
                        if (
                            open_span.trace_id == sort_span.trace_id
                            and open_span.category == "wave"
                        ):
                            open_span.end("error")
                raise
            if sort_span.recording:
                for point in self.timeline.points:
                    chosen = point.decision.chosen
                    sort_span.event_at(
                        started_at + point.at_s,
                        f"decision:{point.trigger}",
                        wave=point.wave,
                        substrate=chosen.substrate,
                        mode=chosen.mode,
                        workers=chosen.workers,
                        switched=point.switched,
                        detail=point.detail,
                    )
            return result

    def _sort_online(
        self,
        bucket: str,
        key: str,
        out_bucket: str,
        out_prefix: str,
        pinned_workers: int | None,
        samplers: int,
        max_workers: int,
        sort_span,
    ) -> t.Generator:
        started_at = self.sim.now
        profile = self.executor.cloud.profile
        meta = yield from self._preflight(bucket, key)
        real_size = meta.size
        total_logical = meta.logical_size
        scale = total_logical / real_size if real_size else 1.0
        self.timeline = DecisionTimeline()
        self.chunk_reroutes = 0
        cos_dedup_baseline = self.executor.cloud.store.stats.dedup_bytes

        # --- initial selection (fixes the grid's reducer count R) -----
        decision = self._decide(
            total_logical, profile, pinned_workers, max_workers
        )
        current = decision.chosen
        reducers = pinned_workers if pinned_workers is not None else current.workers
        if reducers < 1:
            raise ShuffleError(f"workers must be >= 1, got {reducers}")
        self.timeline.append(
            DecisionPoint(
                wave=0, at_s=self.sim.now - started_at, trigger="initial",
                decision=decision, switched=False,
            )
        )

        boundaries = yield from self._sample(
            bucket, key, real_size, total_logical, reducers, samplers,
            span=sort_span,
        )

        # --- the fixed (mapper × chunk) grid ---------------------------
        chunk_real = max(1, int(self.stream.chunk_bytes / max(1e-12, scale)))
        # The full-split peek window would dwarf a scaled-down chunk
        # (and every chunk re-reads it): cap it near the chunk size,
        # but never below a record-safe floor.
        peek_bytes = min(
            self.cost.peek_bytes, max(4096, chunk_real // 8)
        )
        mapper_ranges = _split(real_size, reducers)
        chunk_counts: list[int] = []
        units_by_wave: dict[int, list[dict]] = {}
        for mapper_id, (m_start, m_end) in enumerate(mapper_ranges):
            span = m_end - m_start
            count = max(1, math.ceil(span / chunk_real)) if span else 1
            chunk_counts.append(count)
            for chunk, (c_start, c_end) in enumerate(_split(span, count)):
                units_by_wave.setdefault(chunk, []).append(
                    {
                        "mapper_id": mapper_id,
                        "chunk": chunk,
                        "start": m_start + c_start,
                        "end": m_start + c_end,
                    }
                )
        total_waves = len(units_by_wave)

        # --- first stint + control plane -------------------------------
        epoch = 0
        base_table = None
        if (
            current.substrate == "sharded-relay"
            and self.relay_cost.rebalance
            and current.shards >= 2
        ):
            base_table = build_rebalance_assignments(
                self.predicted_partition_bytes, reducers, current.shards
            )
        stint = self._provision_stint(
            current, out_bucket, out_prefix, epoch, base_table
        )
        stints = [stint]
        ctl_prefix = f"{out_prefix}/ctl"
        grid_payload = serialize(
            {"mappers": reducers, "reducers": reducers, "chunks": chunk_counts}
        )
        yield self.executor.storage.put_object(
            out_bucket, online_grid_key(ctl_prefix), grid_payload,
            logical_size=len(grid_payload),
        )

        def publish_route(wave: int) -> SimEvent:
            payload = serialize(stint.descriptor)
            return self.executor.storage.put_object(
                out_bucket, online_route_key(ctl_prefix, wave), payload,
                logical_size=len(payload),
            )

        job = f"onlineshuffle:{out_prefix}@{started_at:.3f}"
        self._record_wave(job, "map", "start")
        # One span covers the whole chunked map phase: online waves are
        # slices of a single logical stage, not separate stages.
        map_span = self.sim.tracer.span(
            "wave:map", category="wave", parent=sort_span, waves=total_waves
        )
        yield publish_route(0)

        # Wave 0's mappers are submitted before the reducers so they
        # enqueue ahead on the account concurrency limit (the reducers
        # park at their rendezvous; mappers must never starve).
        def wave_tasks(units: list[dict], workers: int) -> list[dict]:
            return [
                {
                    "units": group,
                    "bucket": bucket,
                    "key": key,
                    "object_size": real_size,
                    "peek_bytes": peek_bytes,
                    "boundaries": boundaries,
                    "codec": self.codec,
                    "partition_throughput": self.cost.partition_throughput,
                    "stream": dict(stint.descriptor),
                }
                for group in self._group_units(units, workers)
            ]

        map_futures = yield self.executor.map(
            online_wave_mapper, wave_tasks(units_by_wave[0], current.workers),
            span=map_span,
        )

        reduce_tasks = [
            {
                "reducer_id": reducer_id,
                "bucket": out_bucket,
                "ctl_prefix": ctl_prefix,
                "poll_interval": self.stream.poll_interval_s,
                "buffer_bytes": self.stream.buffer_bytes,
                "out_bucket": out_bucket,
                "output_key": paths.shuffle_output_key(out_prefix, reducer_id),
                "codec": self.codec,
                "sort_throughput": self.cost.sort_throughput,
            }
            for reducer_id in range(reducers)
        ]
        self._record_wave(job, "reduce", "start")
        reduce_span = self.sim.tracer.span(
            "wave:reduce", category="wave", parent=sort_span, workers=reducers
        )
        reduce_futures = yield self.executor.map(
            online_stream_reducer, reduce_tasks, span=reduce_span
        )

        # --- the wave control loop --------------------------------------
        samples: dict[str, StreamRateSample] = {}
        observed_cells = [[0.0] * reducers for _ in range(reducers)]
        last_reroute_table = None
        mapped_records = 0
        map_exec_start = float("inf")
        published_logical = 0.0
        stream_chunks = 0
        map_kernel_results: list[dict] = []
        wave = 0
        try:
            while True:
                map_results = yield self.executor.get_result(map_futures)
                map_kernel_results.extend(map_results)
                mapped_records += sum(r["records"] for r in map_results)
                stream_chunks += sum(r["chunks"] for r in map_results)
                map_exec_start = min(
                    map_exec_start,
                    min(r["started_at"] for r in map_results),
                )
                wave_logical = sum(r["published_logical"] for r in map_results)
                published_logical += wave_logical
                wave_cells = [[0.0] * reducers for _ in range(reducers)]
                for result in map_results:
                    for cell in result["cells"]:
                        row = observed_cells[cell["mapper"]]
                        wave_row = wave_cells[cell["mapper"]]
                        for reducer_id, logical in enumerate(cell["bytes"]):
                            row[reducer_id] += logical
                            wave_row[reducer_id] += logical
                samples[current.substrate] = StreamRateSample(
                    substrate=current.substrate,
                    logical_bytes=wave_logical,
                    publish_s=sum(r["publish_s"] for r in map_results),
                    chunks=sum(r["chunks"] for r in map_results),
                    instance_type=current.instance_type,
                )

                wave += 1
                if wave >= total_waves:
                    break
                if current.mode == "staged":
                    # A staged winner wants no inter-wave control points:
                    # route and submit everything left in one batch.
                    for later in range(wave, total_waves):
                        yield publish_route(later)
                    remaining_units = [
                        unit
                        for later in range(wave, total_waves)
                        for unit in units_by_wave[later]
                    ]
                    map_futures = yield self.executor.map(
                        online_wave_mapper,
                        wave_tasks(remaining_units, current.workers),
                        span=map_span,
                    )
                    wave = total_waves
                    map_results = yield self.executor.get_result(map_futures)
                    map_kernel_results.extend(map_results)
                    mapped_records += sum(r["records"] for r in map_results)
                    stream_chunks += sum(r["chunks"] for r in map_results)
                    map_exec_start = min(
                        map_exec_start,
                        min(r["started_at"] for r in map_results),
                    )
                    published_logical += sum(
                        r["published_logical"] for r in map_results
                    )
                    break

                # Refit from observed rates; re-select on what is left.
                remaining = max(1.0, total_logical - published_logical)
                fitted = fit_stream_profiles(profile, samples.values())
                decision = self._decide(
                    remaining, fitted, pinned_workers, max_workers
                )
                candidate = decision.chosen
                keep = next(
                    (
                        estimate
                        for estimate in decision.estimates
                        if estimate.feasible
                        and estimate.substrate == current.substrate
                        and estimate.mode == current.mode
                    ),
                    None,
                )
                switched = self._config_of(candidate) != self._config_of(current)
                if switched and keep is not None:
                    switched = candidate.score_usd < keep.score_usd * (
                        1.0 - self.switch_margin
                    )
                detail = ""
                if switched:
                    detail = (
                        f"{current.substrate}/{current.mode} "
                        f"W={current.workers} -> "
                        f"{candidate.substrate}/{candidate.mode} "
                        f"W={candidate.workers}"
                    )
                self.timeline.append(
                    DecisionPoint(
                        wave=wave, at_s=self.sim.now - started_at,
                        trigger="wave", decision=decision, switched=switched,
                        detail=detail,
                    )
                )
                if switched:
                    new_substrate = (
                        candidate.substrate != current.substrate
                        or candidate.shards != current.shards
                        or candidate.instance_type != current.instance_type
                    )
                    current = candidate
                    if new_substrate:
                        epoch += 1
                        base_table = None
                        if (
                            current.substrate == "sharded-relay"
                            and self.relay_cost.rebalance
                            and current.shards >= 2
                        ):
                            base_table = build_chunk_rebalance_assignments(
                                observed_cells, current.shards
                            )
                        stint = self._provision_stint(
                            current, out_bucket, out_prefix, epoch, base_table
                        )
                        stints.append(stint)
                        last_reroute_table = None
                elif (
                    stint.router is not None
                    and stint.fleet
                    and stint.provisioned is not None
                ):
                    # Same fleet, but a hot (mapper, reducer) cell may
                    # have emerged: project the wave's observed cells
                    # through the routing that will govern the next
                    # chunks and re-route at chunk grain when the
                    # hottest shard drifts well above its fair share.
                    # Installing at the next wave's chunk index is
                    # rendezvous-safe — no chunk >= wave exists yet.
                    shard_count = stint.provisioned.shard_count
                    wave_total = sum(sum(row) for row in wave_cells)
                    loads = [0.0] * shard_count
                    for mapper_id, row in enumerate(wave_cells):
                        for reducer_id, cell_bytes in enumerate(row):
                            if not cell_bytes:
                                continue
                            shard = stint.router.cell(
                                mapper_id, reducer_id, wave
                            )
                            if shard is None:
                                shard = mapper_id + reducer_id
                            if shard == PartitionLoadRouter.SPREAD:
                                share = cell_bytes / shard_count
                                for index in range(shard_count):
                                    loads[index] += share
                            else:
                                loads[shard % shard_count] += cell_bytes
                    imbalance = (
                        max(loads) * shard_count / wave_total
                        if wave_total > 0
                        else 1.0
                    )
                    if (
                        shard_count >= 2
                        and imbalance > 1.0 + self.reroute_threshold
                    ):
                        table = build_chunk_rebalance_assignments(
                            wave_cells, shard_count
                        )
                        if table != last_reroute_table:
                            stint.router = stint.router.with_chunk_epoch(
                                wave, table
                            )
                            stint.provisioned.set_router(stint.router)
                            last_reroute_table = table
                            self.chunk_reroutes += 1
                            self.timeline.append(
                                DecisionPoint(
                                    wave=wave,
                                    at_s=self.sim.now - started_at,
                                    trigger="hot-partition",
                                    decision=decision,
                                    switched=False,
                                    detail=(
                                        f"hot shard at {imbalance:.2f}x "
                                        "fair share -> chunk-grain "
                                        f"reroute across {shard_count} "
                                        "shards"
                                    ),
                                )
                            )

                yield publish_route(wave)
                map_futures = yield self.executor.map(
                    online_wave_mapper,
                    wave_tasks(units_by_wave[wave], current.workers),
                    span=map_span,
                )

            map_ended_at = self.sim.now
            self._record_wave(job, "map", "end")
            map_span.end()
            reduce_results = yield self.executor.get_result(reduce_futures)
            self._record_wave(job, "reduce", "end")
            reduce_span.end()
        finally:
            for s in stints:
                s.release(self.sim.now)

        runs, total_records = self._collect_runs(
            [{"records": mapped_records}], reduce_results, out_bucket
        )
        reduce_exec_start = min(r["started_at"] for r in reduce_results)
        overlap_s = max(
            0.0,
            min(map_ended_at, self.sim.now)
            - max(map_exec_start, reduce_exec_start),
        )
        provisioned_usd = sum(s.billed_usd(self.sim.now) for s in stints)
        final = self.timeline.final.decision.chosen
        store = self.executor.cloud.store
        dedup_bytes = (
            store.stats.dedup_bytes - cos_dedup_baseline
            + sum(s.dedup_bytes for s in stints)
        )
        if cas_enabled():
            # Stints own their substrate instances (terminated above, so
            # their content logs were captured at release); the COS
            # stints' chunk objects live in the shared store's log.
            chunk_entries = list(store.cas_entries(f"{out_prefix}/stream"))
            for s in stints:
                chunk_entries.extend(s.cas_entries)
            self.run_manifest = build_run_manifest(
                inputs={
                    "bucket": bucket,
                    "key": key,
                    "etag": meta.etag,
                    "logical_size": meta.logical_size,
                },
                decision={
                    "substrate": final.substrate,
                    "mode": "online",
                    "workers": reducers,
                    "boundaries": [_jsonable(b) for b in boundaries],
                },
                chunks=chunk_entries,
                outputs=[
                    {
                        "bucket": run.bucket,
                        "key": run.key,
                        "sha256": sha256_hex(store.peek(run.bucket, run.key)),
                        "logical": float(run.size_bytes),
                    }
                    for run in runs
                ],
            )
        else:
            self.run_manifest = None
        self.report = ExchangeReport(
            substrate=final.substrate,
            workers=reducers,
            predicted_s=self.timeline.points[0].decision.chosen.predicted_s,
            actual_s=self.sim.now - started_at,
            provisioned_usd=provisioned_usd,
            overlap_s=overlap_s,
            buffer_high_watermark_bytes=max(
                (r["buffer_high_watermark_bytes"] for r in reduce_results),
                default=0.0,
            ),
            partition_skew=partition_skew_of([run.size_bytes for run in runs]),
            extra={
                "mode": "online",
                "final_mode": final.mode,
                "substrate_switches": self.timeline.switches,
                "chunk_reroutes": self.chunk_reroutes,
                "decision_points": len(self.timeline),
                "stream_chunks": stream_chunks,
                "stints": len(stints),
                "dedup_bytes": dedup_bytes,
                "buffer_backpressure_waits": sum(
                    r["buffer_waits"] for r in reduce_results
                ),
                "buffer_wait_s": sum(
                    r["buffer_wait_s"] for r in reduce_results
                ),
                "predicted_partition_skew": partition_skew_of(
                    self.predicted_partition_bytes
                ),
                "relay_peak_fill": max(
                    (s.peak_fill for s in stints), default=0.0
                ),
                **kernels.kernel_report_extras(
                    map_kernel_results, reduce_results
                ),
            },
        )
        return ShuffleResult(
            runs=runs,
            workers=reducers,
            planned=None,
            boundaries=tuple(boundaries),
            total_records=total_records,
            duration_s=self.sim.now - started_at,
        )
