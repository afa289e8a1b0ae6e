"""The unified exchange-substrate interface of the shuffle operator.

The paper's headline comparison is *where the all-to-all happens*:
object storage, an in-memory cache cluster, or a VM relay.  Everything
else about the shuffle — sampling, range partitioning, the map/reduce
orchestration, the sorted-run artifact — is substrate-independent, so
the generic :class:`~repro.shuffle.operator.ShuffleSort` drives one
:class:`ExchangeBackend` and the substrates differ only in:

* **feasibility** (:meth:`ExchangeBackend.validate`) — provisioned
  substrates have finite memory; object storage does not;
* **planning** (:meth:`ExchangeBackend.plan`) — each substrate has its
  own analytic cost model picking the worker count;
* **the port route** (:meth:`ExchangeBackend.port_route`) — which
  :class:`~repro.shuffle.ports.ExchangePort` the shared worker stages
  open, and the substrate knobs its verbs need;
* **reporting** (:meth:`ExchangeBackend.report`) — every backend emits
  one uniform :class:`ExchangeReport` carrying the substrate decision
  inputs (predicted vs actual runtime, provisioned-infrastructure cost)
  plus substrate-specific extras (cache fill, relay backpressure, ...)
  reachable as plain attributes.

Fault handling and speculation are substrate-independent by design:
every worker talks to its substrate through clients bound to the
activation's *attempt id*
(:attr:`~repro.cloud.faas.context.FunctionContext.attempt_id`), so when
the platform kills an attempt — crash, timeout, or a lost speculative
race — the substrate reclaims that attempt's in-flight state and fences
the attempt out.  Object storage is idempotent by content (a retried
mapper overwrites the same keys); the cache and relay rely on the
attempt-scoped cancellation above.  All three therefore support
executor retries *and* speculative backup tasks
(:attr:`ExchangeBackend.supports_speculation`).

Backends: :class:`ObjectStoreExchange` (here),
:class:`~repro.shuffle.cacheoperator.CacheExchange`,
:class:`~repro.shuffle.relay.RelayExchange` and
:class:`~repro.shuffle.relay.ShardedRelayExchange`.  The execution mode
is a field of the backend, not a second class: built with a
:class:`~repro.shuffle.streaming.StreamConfig`, any backend runs
*streaming* — the reduce wave overlaps the map wave behind the
substrate's per-partition readiness protocol — and without one it runs
*staged*, behind a map barrier.
"""

from __future__ import annotations

import abc
import dataclasses
import typing as t

from repro.cloud.profiles import CloudProfile
from repro.obs.metrics import publish_exchange_report
from repro.shuffle.adaptive import streaming_chunk_count, streaming_chunk_overhead_s
from repro.shuffle.planner import (
    ShuffleCostModel,
    ShufflePlan,
    plan_shuffle,
    predict_streaming_shuffle_time,
)
from repro.shuffle.ports import objectstore_segments
from repro.shuffle.records import RecordCodec
from repro.shuffle.stages import shuffle_mapper, shuffle_reducer
from repro.shuffle.streaming import (
    StreamConfig,
    streaming_shuffle_mapper,
    streaming_shuffle_reducer,
)
from repro.storage import paths

#: Field names an ``extra`` entry may never shadow.
_COMMON_FIELDS = (
    "substrate",
    "workers",
    "predicted_s",
    "actual_s",
    "provisioned_usd",
    "overlap_s",
    "buffer_high_watermark_bytes",
    "partition_skew",
    "extra",
)


@dataclasses.dataclass(frozen=True)
class ExchangeReport:
    """Uniform per-sort execution report, identical across substrates.

    The common fields are exactly the inputs of the adaptive substrate
    decision — what the planner predicted, what actually happened, and
    what the provisioned infrastructure cost over the sort — so sweeps
    and the workflow engine can compare substrates without
    per-substrate special cases.  Substrate-specific metadata lives in
    ``extra`` and is reachable as plain attributes
    (``report.backpressure_waits``) for ergonomic call sites.

    Every constructed report also publishes into the process-wide
    metrics registry (:mod:`repro.obs.metrics`), so the report is a
    per-sort *view* and the registry holds the cross-run aggregate —
    one series namespace (``repro_exchange_*``) whichever construction
    path built the report.  Construction asserts that no ``extra`` key
    shadows a common field: shadowing would make ``as_dict()`` and the
    attribute passthrough silently disagree.
    """

    substrate: str
    workers: int
    #: Planner-predicted sort time; ``None`` when the caller pinned the
    #: worker count (no plan was computed).
    predicted_s: float | None
    #: Measured wall-clock of the sort.
    actual_s: float
    #: Provisioned-infrastructure dollars over ``actual_s`` — with the
    #: provider's minimum billed window applied, matching both what the
    #: cost meter actually charges and how ``choose_exchange_substrate``
    #: prices the same configuration; 0 for pay-as-you-go COS.
    provisioned_usd: float
    #: Wall-clock seconds the map and reduce waves ran concurrently — 0
    #: for a staged sort (the reduce wave starts after the map barrier),
    #: positive for the streaming execution mode.  Uniform so sweeps can
    #: report the streaming benefit without per-mode special cases.
    overlap_s: float = 0.0
    #: Peak logical bytes parked in reducer-side stream buffers (0 for
    #: staged sorts, which fetch everything in one batch).
    buffer_high_watermark_bytes: float = 0.0
    #: Max-over-mean reducer output bytes, measured on the sorted runs
    #: (1.0 is perfectly balanced).  Uniform across substrates — the
    #: same dataset and boundaries must report the same skew whichever
    #: substrate carried the exchange — so sweeps can contrast the
    #: skew-aware planner's straggler term with what actually happened.
    partition_skew: float = 1.0
    #: Substrate-specific metadata (fill fractions, request counters...).
    extra: dict[str, t.Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        shadowed = [key for key in self.extra if key in _COMMON_FIELDS]
        if shadowed:
            raise ValueError(
                f"exchange report extra keys shadow common fields: {shadowed}"
            )
        publish_exchange_report(self)

    def __getattr__(self, name: str) -> t.Any:
        # Convenience passthrough: substrate extras read like fields.
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.__dict__["extra"][name]
        except KeyError:
            raise AttributeError(
                f"{self.substrate!r} exchange report has no field {name!r}"
            ) from None

    def as_dict(self) -> dict[str, t.Any]:
        """Common fields + extras, flattened (extras never shadow)."""
        out: dict[str, t.Any] = {
            "substrate": self.substrate,
            "workers": self.workers,
            "predicted_s": self.predicted_s,
            "actual_s": self.actual_s,
            "provisioned_usd": self.provisioned_usd,
            "overlap_s": self.overlap_s,
            "buffer_high_watermark_bytes": self.buffer_high_watermark_bytes,
            "partition_skew": self.partition_skew,
        }
        for key, value in self.extra.items():
            out.setdefault(key, value)
        return out

    def describe(self) -> str:
        """Fixed-width field table — the uniform printer sweeps use.

        Common fields first (the substrate-decision inputs), extras
        after in insertion order, one ``name  value`` row each.
        """
        rows = list(self.as_dict().items())
        width = max(len(name) for name, _value in rows)
        lines = [f"exchange report ({self.substrate}):"]
        for name, value in rows:
            if isinstance(value, float):
                rendered = f"{value:.6g}"
            else:
                rendered = str(value)
            lines.append(f"  {name.ljust(width)}  {rendered}")
        return "\n".join(lines)


class ExchangeBackend(abc.ABC):
    """One intermediate-data substrate, as seen by the shuffle operator.

    The operator calls ``begin_sort`` → ``validate`` → ``plan`` →
    ``on_boundaries`` → ``mapper_task``\\* and ``reducer_task``\\*
    around ``on_map_done`` → ``report`` over each sort; a backend may serve
    several sequential sorts (a reused operator), so per-sort
    bookkeeping (stat baselines, peaks) belongs in ``validate``.  The
    ``cost`` attribute must expose the shared workload constants
    (``peek_bytes``, ``sample_bytes``, ``sample_keys``,
    ``partition_throughput``, ``sort_throughput``).

    ``stream`` picks the execution mode: ``None`` runs the exchange
    *staged* (map barrier before the reduce wave), a
    :class:`~repro.shuffle.streaming.StreamConfig` runs it *streaming*
    (pipelined waves, see :mod:`repro.shuffle.streaming`).  Planning,
    feasibility, billing and the report are the substrate's either way;
    the mode only changes the worker stages, the task payloads and the
    planner's completion-time curve.
    """

    #: Substrate name as it appears in sweeps and reports.
    name: t.ClassVar[str]
    #: Mode → prefix of the operator's simulation process names.
    process_labels: t.ClassVar[dict[str, str]]
    #: Mode → default output prefix of :meth:`ShuffleSort.sort`.
    out_prefixes: t.ClassVar[dict[str, str]]
    #: Whether speculative backup tasks are safe on this substrate.
    #: True for all built-ins since attempt-scoped cancellation fences
    #: losing attempts out of stateful substrates.
    supports_speculation: t.ClassVar[bool] = True

    def __init__(self, cost: t.Any, stream: StreamConfig | None = None):
        self.cost = cost
        #: Streaming knobs, or ``None`` for the staged execution mode.
        self.stream = stream

    @property
    def mode(self) -> str:
        """Execution mode: ``"staged"`` or ``"streaming"``."""
        return "staged" if self.stream is None else "streaming"

    @property
    def process_label(self) -> str:
        return self.process_labels[self.mode]

    @property
    def default_out_prefix(self) -> str:
        return self.out_prefixes[self.mode]

    def bind_executor(self, executor: t.Any) -> None:
        """Hook at operator construction, giving the backend a handle on
        the driving executor (and through it the simulated cloud).  The
        object-storage substrate uses it to read the store's dedup
        counters into its report; the default is a no-op."""

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        """Content-address log of this sort's exchange chunks under
        ``prefix`` — ``(key, sha256, logical_bytes)`` triples, one per
        dedup-eligible commit — feeding the verifiable
        :class:`~repro.shuffle.content.RunManifest`.  Backends without a
        content log contribute an empty chunk section (the manifest
        chain still covers inputs, decisions and outputs)."""
        return []

    def begin_sort(self, out_bucket: str, out_prefix: str) -> None:
        """Hook at sort start, before ``validate``, once the operator has
        resolved the output namespace.  Backends that scope shared-
        substrate state per exchange (the sharded fleet's router table is
        keyed by the sort's key-prefix namespace) capture the prefix
        here; the default is a no-op."""

    def validate(self, logical_size: float) -> None:
        """Raise :class:`~repro.errors.ShuffleError` when the shuffle
        cannot fit this substrate; no-op by default."""

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def staged_plan(
        self, logical_size: float, profile: CloudProfile, max_workers: int
    ) -> ShufflePlan:
        """Pick the worker count with this substrate's (staged) cost model."""

    def plan(
        self, logical_size: float, profile: CloudProfile, max_workers: int
    ) -> ShufflePlan:
        """Pick the worker count for the mode this backend runs in.

        A streaming backend transforms the staged curve point by point
        through :func:`~repro.shuffle.planner.predict_streaming_shuffle_time`
        (this configuration's chunk grain, the substrate's per-chunk
        readiness overhead) and picks the minimizing worker count from
        the transformed curve — so an auto-planned streaming sort sizes
        its wave for the mode it actually runs, and the report's
        ``predicted_s`` is comparable to its streaming ``actual_s``.
        """
        staged = self.staged_plan(logical_size, profile, max_workers)
        if self.stream is None:
            return staged
        overhead = streaming_chunk_overhead_s(profile, self.name)
        curve = tuple(
            predict_streaming_shuffle_time(
                point,
                streaming_chunk_count(
                    logical_size, point.workers, self.stream.chunk_bytes
                ),
                overhead,
            )
            for point in staged.curve
        )
        best = min(curve, key=lambda point: (point.total_s, point.workers))
        # replace() keeps subclass plans (RelayShufflePlan's shard count
        # and instance type) intact.
        return dataclasses.replace(
            staged, workers=best.workers, predicted_s=best.total_s, curve=curve
        )

    # ------------------------------------------------------------------
    # worker stages and task payloads
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def port_route(self, out_bucket: str) -> dict:
        """The :class:`~repro.shuffle.ports.ExchangePort` ``kind`` and
        the substrate route its workers open (bucket, cluster or relay
        id)."""

    def publish_route(self, mapper_id: int, out_bucket: str, out_prefix: str) -> dict:
        """Flat port fields of one staged mapper task.  The default is
        the key-value layout (one value per (mapper, reducer) under
        ``out_prefix``) the cache and relays share."""
        return {
            **self.port_route(out_bucket),
            "prefix": out_prefix,
            "mapper_id": mapper_id,
        }

    def collect_route(
        self,
        reducer_id: int,
        workers: int,
        map_results: list[dict],
        out_bucket: str,
        out_prefix: str,
    ) -> dict:
        """Flat port fields of one staged reducer task, which may route
        by the map results (key-value layout by default)."""
        return {
            **self.port_route(out_bucket),
            "prefix": out_prefix,
            "reducer_id": reducer_id,
            "mappers": workers,
        }

    def _stream_port(self, out_bucket: str, out_prefix: str) -> dict:
        """The port descriptor of a streaming worker (task field
        ``stream``): the route plus the stream's grain and bounds."""
        return {
            "prefix": f"{out_prefix}/stream",
            "chunk_bytes": self.stream.chunk_bytes,
            "buffer_bytes": self.stream.buffer_bytes,
            "poll_interval": self.stream.poll_interval_s,
            **self.port_route(out_bucket),
        }

    def mapper_stage(self) -> t.Callable:
        """The sim-aware generator function run by every mapper."""
        return shuffle_mapper if self.stream is None else streaming_shuffle_mapper

    def reducer_stage(self) -> t.Callable:
        """The sim-aware generator function run by every reducer."""
        return shuffle_reducer if self.stream is None else streaming_shuffle_reducer

    def mapper_task(
        self, base: dict, mapper_id: int, out_bucket: str, out_prefix: str
    ) -> dict:
        """Complete one mapper payload from the substrate-neutral base."""
        if self.stream is None:
            base.update(self.publish_route(mapper_id, out_bucket, out_prefix))
        else:
            base.update(
                mapper_id=mapper_id, stream=self._stream_port(out_bucket, out_prefix)
            )
        return base

    def reducer_task(
        self,
        reducer_id: int,
        workers: int,
        map_results: list[dict],
        out_bucket: str,
        out_prefix: str,
        codec: RecordCodec,
    ) -> dict:
        """Build one reducer payload.  Staged reducers may route by the
        map results; streaming reducers launch before any exist (they
        get an empty list)."""
        task = {
            "out_bucket": out_bucket,
            "output_key": paths.shuffle_output_key(out_prefix, reducer_id),
            "codec": codec,
            "sort_throughput": self.cost.sort_throughput,
        }
        if self.stream is None:
            task.update(
                self.collect_route(
                    reducer_id, workers, map_results, out_bucket, out_prefix
                )
            )
        else:
            task.update(
                reducer_id=reducer_id,
                mappers=workers,
                stream=self._stream_port(out_bucket, out_prefix),
            )
        return task

    # ------------------------------------------------------------------
    # hooks and reporting
    # ------------------------------------------------------------------
    def on_boundaries(
        self, boundaries: t.Sequence[t.Any], predicted_partition_bytes: t.Sequence[float]
    ) -> None:
        """Hook after boundary selection, before any exchange traffic.

        ``predicted_partition_bytes`` is the sample-based load estimate
        per partition (logical bytes).  The sharded relay fleet uses it
        to install load-aware shard routing; the default is a no-op.
        """

    def on_map_done(self, map_results: list[dict]) -> None:
        """Hook once the map wave finished (e.g. record peak fill)."""

    def provisioned_rate_usd_per_s(self) -> float:
        """Dollars per second of provisioned infrastructure (0 for COS)."""
        return 0.0

    def minimum_billed_s(self) -> float:
        """The provider's minimum billed window for this substrate's
        provisioned infrastructure (0 for pay-as-you-go)."""
        return 0.0

    def extra_report(self) -> dict[str, t.Any]:
        """Substrate-specific additions to the uniform report."""
        return {}

    def report(
        self,
        workers: int,
        plan: ShufflePlan | None,
        duration_s: float,
        overlap_s: float = 0.0,
        buffer_high_watermark_bytes: float = 0.0,
        partition_skew: float = 1.0,
        extra: dict[str, t.Any] | None = None,
    ) -> ExchangeReport:
        """The uniform per-sort report; backends customize via the
        hooks above rather than overriding this.  The operator passes
        the wave-overlap, buffer and partition-skew observations it
        alone can measure (overlap/buffers are zero for staged sorts);
        ``extra`` adds operator-side metadata on top of
        :meth:`extra_report` (operator keys win)."""
        billed_s = max(duration_s, self.minimum_billed_s())
        merged: dict[str, t.Any] = {"mode": self.mode}
        merged.update(self.extra_report())
        if extra:
            merged.update(extra)
        return ExchangeReport(
            substrate=self.name,
            workers=workers,
            predicted_s=plan.predicted_s if plan is not None else None,
            actual_s=duration_s,
            provisioned_usd=self.provisioned_rate_usd_per_s() * billed_s,
            overlap_s=overlap_s,
            buffer_high_watermark_bytes=buffer_high_watermark_bytes,
            partition_skew=partition_skew,
            extra=merged,
        )


class ObjectStoreExchange(ExchangeBackend):
    """The paper's serverless default: all-to-all through object storage.

    Mappers write (write-combined) partition objects, reducers range-GET
    their segments — pay-as-you-go requests, no provisioned capacity,
    but per-request latency and the account ops/s ceiling at high worker
    counts.  Streaming adds per-chunk manifests that reducers poll for.
    """

    name = "objectstore"
    process_labels = {"staged": "shuffle", "streaming": "streamshuffle"}
    out_prefixes = {"staged": "shuffle-out", "streaming": "streaming-shuffle"}

    def __init__(
        self,
        cost: ShuffleCostModel | None = None,
        stream: StreamConfig | None = None,
    ):
        super().__init__(cost if cost is not None else ShuffleCostModel(), stream)
        self._store = None
        self._dedup_baseline = (0, 0.0)

    def bind_executor(self, executor: t.Any) -> None:
        self._store = executor.cloud.store

    def validate(self, logical_size: float) -> None:
        # Per-sort bookkeeping: dedup counters are reported as deltas
        # over the sort, so a reused operator doesn't double-count.
        if self._store is not None:
            self._dedup_baseline = (
                self._store.stats.dedup_ops,
                self._store.stats.dedup_bytes,
            )

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        if self._store is None:
            return []
        return self._store.cas_entries(prefix)

    def extra_report(self) -> dict[str, t.Any]:
        if self._store is None:
            return {}
        base_ops, base_bytes = self._dedup_baseline
        return {
            "dedup_ops": self._store.stats.dedup_ops - base_ops,
            "dedup_bytes": self._store.stats.dedup_bytes - base_bytes,
        }

    def staged_plan(
        self, logical_size: float, profile: CloudProfile, max_workers: int
    ) -> ShufflePlan:
        return plan_shuffle(logical_size, profile, self.cost, max_workers=max_workers)

    def port_route(self, out_bucket: str) -> dict:
        return {"kind": "objectstore", "bucket": out_bucket}

    def publish_route(self, mapper_id: int, out_bucket: str, out_prefix: str) -> dict:
        return {
            "out_bucket": out_bucket,
            "out_key": paths.shuffle_map_output_key(out_prefix, mapper_id),
            "write_combining": self.cost.write_combining,
        }

    def collect_route(
        self,
        reducer_id: int,
        workers: int,
        map_results: list[dict],
        out_bucket: str,
        out_prefix: str,
    ) -> dict:
        return {
            "segments": objectstore_segments(reducer_id, map_results),
            "fetch_parallelism": self.cost.fetch_parallelism,
        }
