"""GroupBy through object storage — the other I/O-bound stage.

The paper names "GroupBy and OrderBy" as the all-to-all stages that
bottleneck serverless workflows.  :class:`ShuffleSort` covers OrderBy;
this module provides GroupBy on the same machinery: records are
range-partitioned *by group key* (so a group never spans reducers), and
each reducer applies a user aggregation per group.

The aggregation function must be picklable and has the signature
``aggregate(group_key, records: list[bytes]) -> list[bytes]`` — it
receives every record of one group and returns the output records for
that group (any number, in the input codec's format).
"""

from __future__ import annotations

import dataclasses
import time
import typing as t

from repro.errors import ShuffleError
from repro.shuffle import kernels
from repro.shuffle.operator import _split
from repro.shuffle.planner import ShuffleCostModel, plan_shuffle
from repro.shuffle.ports import ExchangePort, objectstore_segments
from repro.shuffle.records import RecordCodec
from repro.shuffle.sampler import choose_weighted_boundaries
from repro.shuffle.stages import shuffle_mapper, shuffle_sampler
from repro.sim import SimEvent
from repro.storage import paths

#: ``aggregate(group_key, records) -> list[records]``
AggregateFn = t.Callable[[t.Any, list[bytes]], list[bytes]]


class GroupKeyCodec(RecordCodec):
    """A codec view whose sort key is the *group* key.

    Record layout (split/join/alignment) is delegated to the base codec;
    only the key changes, so the shuffle partitions by group.
    """

    def __init__(
        self,
        base: RecordCodec,
        group_key_fn: t.Callable[[bytes], t.Any],
        key_spec: kernels.KeySpec | None = None,
    ):
        self.base = base
        self.group_key_fn = group_key_fn
        #: Optional vectorized encoding of the *group* key (must compute
        #: the same keys as ``group_key_fn`` on the full record).
        self.key_spec = key_spec

    def split(self, buffer: bytes) -> list[bytes]:
        return self.base.split(buffer)

    def join(self, records: t.Iterable[bytes]) -> bytes:
        return self.base.join(records)

    def key(self, record: bytes) -> t.Any:
        return self.group_key_fn(record)

    def extract_split(self, base, tail, is_first, at_end, global_start):
        return self.base.extract_split(base, tail, is_first, at_end, global_start)

    def sample_window(self, window, is_first, global_start):
        return self.base.sample_window(window, is_first, global_start)

    def vector_layout(self, buffer: bytes):
        return self.base.vector_layout(buffer)

    def vector_spec(self) -> kernels.KeySpec | None:
        return self.key_spec

    def align_window(self, window, is_first, global_start):
        return self.base.align_window(window, is_first, global_start)


def shuffle_group_reducer(ctx, task: dict) -> t.Generator:
    """Fetch one partition, group records by key, apply the aggregation.

    Task fields: ``out_bucket, segments, output_key, codec,
    aggregate_fn, sort_throughput, fetch_parallelism`` — the staged
    object-storage reducer's, plus the aggregation.
    """
    codec: RecordCodec = task["codec"]
    aggregate_fn: AggregateFn = task["aggregate_fn"]
    segments = yield from ExchangePort.open(ctx, task).collect_partitions()
    buffer = b"".join(segments)
    yield ctx.compute_bytes(len(buffer), task["sort_throughput"])

    kernel_started = time.perf_counter()
    groups, records_in, kernel = kernels.grouped_records(codec, buffer)
    output_records: list[bytes] = []
    for group_key, group_records in groups:
        output_records.extend(aggregate_fn(group_key, group_records))
    output = codec.join(output_records)
    kernel_s = time.perf_counter() - kernel_started
    yield ctx.storage.put(task["out_bucket"], task["output_key"], output)
    return {
        "groups": len(groups),
        "records_in": records_in,
        "records_out": len(output_records),
        "bytes": len(output),
        "output_key": task["output_key"],
        "kernel": kernel,
        "kernel_records": records_in,
        "kernel_s": kernel_s,
    }


@dataclasses.dataclass(frozen=True, slots=True)
class GroupByResult:
    """Outcome of a grouped aggregation."""

    outputs: tuple[dict, ...]
    workers: int
    total_groups: int
    records_in: int
    records_out: int
    duration_s: float


class ShuffleGroupBy:
    """Range-partitioned GroupBy over object storage.

    Parameters mirror :class:`~repro.shuffle.operator.ShuffleSort`, plus
    ``group_key_fn`` (picklable) extracting the grouping key from a
    record.
    """

    def __init__(
        self,
        executor,
        codec: RecordCodec,
        group_key_fn: t.Callable[[bytes], t.Any],
        cost: ShuffleCostModel | None = None,
    ):
        self.executor = executor
        self.sim = executor.sim
        self.codec = GroupKeyCodec(codec, group_key_fn)
        self.cost = cost if cost is not None else ShuffleCostModel()

    def group_by(
        self,
        bucket: str,
        key: str,
        aggregate_fn: AggregateFn,
        out_bucket: str | None = None,
        out_prefix: str = "groupby-out",
        workers: int | None = None,
        samplers: int = 8,
        max_workers: int = 256,
    ) -> SimEvent:
        """Group and aggregate ``bucket/key``; event → :class:`GroupByResult`."""
        return self.sim.process(
            self._group_by(
                bucket,
                key,
                aggregate_fn,
                out_bucket if out_bucket is not None else bucket,
                out_prefix,
                workers,
                samplers,
                max_workers,
            ),
            name=f"shuffle.group_by:{key}",
        ).completion

    def _group_by(
        self,
        bucket: str,
        key: str,
        aggregate_fn: AggregateFn,
        out_bucket: str,
        out_prefix: str,
        pinned_workers: int | None,
        samplers: int,
        max_workers: int,
    ) -> t.Generator:
        started_at = self.sim.now
        meta = yield self.executor.storage.head_object(bucket, key)
        if meta.size == 0:
            raise ShuffleError(f"cannot group empty object {bucket}/{key}")

        if pinned_workers is not None:
            workers = pinned_workers
        else:
            plan = plan_shuffle(
                meta.logical_size,
                self.executor.cloud.profile,
                self.cost,
                max_workers=max_workers,
            )
            workers = plan.workers

        # --- sample (by group key) -------------------------------------
        sampler_count = max(1, min(samplers, workers))
        from repro.shuffle.operator import _sample_window_bytes

        window = _sample_window_bytes(meta.size, sampler_count, self.cost.sample_bytes)
        sample_tasks = [
            {
                "bucket": bucket,
                "key": key,
                "start": start,
                "end": end,
                "object_size": meta.size,
                "sample_bytes": window,
                "sample_keys": self.cost.sample_keys,
                "codec": self.codec,
                "sampler_id": index,
            }
            for index, (start, end) in enumerate(_split(meta.size, sampler_count))
        ]
        sample_futures = yield self.executor.map(shuffle_sampler, sample_tasks)
        sample_results = yield self.executor.get_result(sample_futures)
        pooled = [k for result in sample_results for k in result["keys"]]
        if not pooled:
            raise ShuffleError(f"sampling found no records in {bucket}/{key}")
        boundaries = choose_weighted_boundaries(pooled, workers)

        # --- map ---------------------------------------------------------
        map_tasks = [
            {
                "bucket": bucket,
                "key": key,
                "start": start,
                "end": end,
                "object_size": meta.size,
                "peek_bytes": self.cost.peek_bytes,
                "boundaries": boundaries,
                "codec": self.codec,
                "out_bucket": out_bucket,
                "out_key": paths.shuffle_map_output_key(out_prefix, mapper_id),
                "partition_throughput": self.cost.partition_throughput,
                "write_combining": self.cost.write_combining,
            }
            for mapper_id, (start, end) in enumerate(_split(meta.size, workers))
        ]
        map_futures = yield self.executor.map(shuffle_mapper, map_tasks)
        map_results = yield self.executor.get_result(map_futures)

        # --- group-reduce ---------------------------------------------------
        reduce_tasks = [
            {
                "out_bucket": out_bucket,
                "segments": objectstore_segments(reducer_id, map_results),
                "output_key": paths.shuffle_output_key(out_prefix, reducer_id),
                "codec": self.codec,
                "aggregate_fn": aggregate_fn,
                "sort_throughput": self.cost.sort_throughput,
                "fetch_parallelism": self.cost.fetch_parallelism,
            }
            for reducer_id in range(workers)
        ]
        reduce_futures = yield self.executor.map(shuffle_group_reducer, reduce_tasks)
        reduce_results = yield self.executor.get_result(reduce_futures)

        records_in = sum(result["records_in"] for result in reduce_results)
        mapped = sum(result["records"] for result in map_results)
        if records_in != mapped:
            raise ShuffleError(
                f"groupby lost records: mapped {mapped}, reduced {records_in}"
            )
        return GroupByResult(
            outputs=tuple(reduce_results),
            workers=workers,
            total_groups=sum(result["groups"] for result in reduce_results),
            records_in=records_in,
            records_out=sum(result["records_out"] for result in reduce_results),
            duration_s=self.sim.now - started_at,
        )
