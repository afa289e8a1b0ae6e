"""Streaming exchange: backpressure-aware pipelined map→reduce shuffle.

Every substrate in :mod:`repro.shuffle` historically ran *staged*: the
full map wave had to finish before any reducer launched, so even the
fastest substrate paid a hard wave barrier.  This module removes the
barrier.  A backend built with a :class:`StreamConfig` (its ``mode`` is
then ``"streaming"``) makes :class:`~repro.shuffle.operator.ShuffleSort`
launch the reduce wave concurrently with the map wave; mappers cut
their split into chunks and publish each chunk's partition segments as
soon as they are produced, and reducers *subscribe* to their partition
across every mapper, fetching and pre-sorting chunks while upstream
mappers are still reading input.

The per-partition readiness protocol is substrate-shaped (the streaming
verbs of :class:`~repro.shuffle.ports.ExchangePort`):

* **object storage** — manifest polling.  A mapper PUTs one combined
  chunk object (write-combining, exactly like the staged mapper) plus
  one tiny immutable per-chunk manifest carrying the chunk's offset
  table, and an end-of-stream object with the final chunk count.
  Reducers poll for the next manifest (with gentle backoff) and
  range-GET their segment.  Every object's content is deterministic, so
  crash-retried and speculative mappers overwrite byte-identical data —
  the protocol stays idempotent without coordination.
* **cache** — memstore notification.  Readers park on the owning node's
  set notification (:meth:`~repro.cloud.memstore.service.CacheClient.get_wait`)
  instead of polling; mappers MSET one value per (mapper, reducer,
  chunk) plus a header announcing the chunk count.
* **relay / sharded fleet** — the relay's natural rendezvous semantics:
  :meth:`~repro.cloud.vm.relay.RelayClient.pull_wait` blocks until the
  key commits (attempt-fencing and cancellation included), so a reducer
  simply pulls chunk keys that do not exist yet.

Reducer-side flow control: each reducer owns a **bounded buffer** of
fetched-but-unsorted chunks.  When the buffer is full the reducer stops
fetching (a backpressure wait, counted and timed), resuming as its
sorter drains — on the relay substrate unfetched chunks additionally
occupy relay memory, so the pressure propagates to mappers through the
relay's own admission control.  The incremental sorter charges exactly
the staged reducer's sort CPU, just overlapped with the map wave; the
final merge of the pre-sorted chunk runs is folded into that pass, so
streaming's win is pure overlap and the sorted artifact is
**byte-identical** to the staged one (chunks are reassembled in
(mapper, chunk) order before the final stable sort — the same record
order the staged reducer sees).

Fault handling and speculation are inherited wholesale: streams are
never consumed destructively, every publish is an idempotent overwrite
of deterministic content, and all clients are attempt-scoped — a
crashed or cancelled worker's in-flight transfers are reclaimed and its
zombie requests fenced, exactly as on the staged paths (the chaos and
speculation-parity matrices cover streaming sorts too).
"""

from __future__ import annotations

import collections
import dataclasses
import time
import typing as t

from repro.shuffle import kernels
from repro.shuffle.ports import ExchangePort
from repro.shuffle.records import RecordCodec
from repro.shuffle.sampler import partition_index
from repro.shuffle.stages import read_split
from repro.sim import SimEvent


@dataclasses.dataclass(slots=True)
class StreamConfig:
    """Knobs of the streaming exchange (sizes in *logical* bytes)."""

    #: Target logical bytes per mapper chunk (the pipelining grain):
    #: smaller chunks overlap more but pay more per-chunk requests.
    chunk_bytes: float = 32 * (1 << 20)
    #: Reducer-side buffer bound on fetched-but-unsorted chunks;
    #: ``None`` disables backpressure (unbounded buffer).  A single
    #: chunk is always admitted, so a bound below the chunk size
    #: throttles without deadlocking.
    buffer_bytes: float | None = 256 * (1 << 20)
    #: Manifest poll cadence of the object-storage reducer (the other
    #: substrates push notifications and never poll).
    poll_interval_s: float = 0.2


# ----------------------------------------------------------------------
# worker stages (substrate-generic: the port carries the difference)
# ----------------------------------------------------------------------
def streaming_shuffle_mapper(ctx, task: dict) -> t.Generator:
    """Read one split, then partition and publish it chunk by chunk.

    Task fields: the staged mapper base (``bucket, key, start, end,
    object_size, peek_bytes, boundaries, codec, partition_throughput``)
    plus ``mapper_id`` and the ``stream`` port descriptor.  Chunks are
    contiguous record runs of ~``stream.chunk_bytes`` logical bytes, so
    concatenating a partition's chunk segments in order reproduces the
    staged mapper's partition segment byte for byte.
    """
    started_at = ctx.sim.now
    codec: RecordCodec = task["codec"]
    owned = yield from read_split(ctx, task, task["start"], task["end"])
    chunk_real = max(1, int(task["stream"]["chunk_bytes"] / ctx.logical_scale))
    boundaries = task["boundaries"]
    parts = len(boundaries) + 1
    port = ExchangePort.open(ctx, task["stream"])
    mapper_id = task["mapper_id"]
    partition_records = [0] * parts
    published_bytes = 0
    kernel_s = time.perf_counter()

    # Vectorized path: decode the split once, then partition each chunk
    # span through the same RecordView — identical chunk cuts and
    # per-chunk segments to the scalar greedy loop below.
    view = kernels.record_view(codec, owned)
    if view is not None and not view.can_partition(boundaries):
        view = None
    if view is not None:
        kernel = kernels.KERNEL_VECTORIZED
        spans = view.chunk_spans(chunk_real)
        kernel_s = time.perf_counter() - kernel_s
        total_records = view.count
        total_chunks = len(spans)
        yield from port.announce(mapper_id, total_chunks)
        for chunk_index, (span_lo, span_hi) in enumerate(spans):
            chunk_started = time.perf_counter()
            outcome = view.partition(boundaries, span_lo, span_hi)
            segments = outcome.segments()
            kernel_s += time.perf_counter() - chunk_started
            yield ctx.compute_bytes(
                view.span_bytes(span_lo, span_hi), task["partition_throughput"]
            )
            for reducer_id, count in enumerate(outcome.partition_records):
                partition_records[reducer_id] += count
            published_bytes += len(outcome.combined)
            yield from port.publish(mapper_id, chunk_index, segments)
    else:
        kernel = kernels.KERNEL_SCALAR
        records = codec.split(owned)
        chunks: list[list[bytes]] = []
        current: list[bytes] = []
        current_bytes = 0
        for record in records:
            current.append(record)
            current_bytes += len(record)
            if current_bytes >= chunk_real:
                chunks.append(current)
                current, current_bytes = [], 0
        if current:
            chunks.append(current)
        kernel_s = time.perf_counter() - kernel_s
        total_records = len(records)
        total_chunks = len(chunks)
        yield from port.announce(mapper_id, total_chunks)
        for chunk_index, chunk_records in enumerate(chunks):
            chunk_started = time.perf_counter()
            partitions: list[list[bytes]] = [[] for _ in range(parts)]
            for record in chunk_records:
                partitions[
                    partition_index(codec.key(record), boundaries)
                ].append(record)
            segments = [codec.join(bucket_records) for bucket_records in partitions]
            kernel_s += time.perf_counter() - chunk_started
            yield ctx.compute_bytes(
                sum(len(record) for record in chunk_records),
                task["partition_throughput"],
            )
            for reducer_id, bucket_records in enumerate(partitions):
                partition_records[reducer_id] += len(bucket_records)
            published_bytes += sum(len(segment) for segment in segments)
            yield from port.publish(mapper_id, chunk_index, segments)

    yield from port.finish(mapper_id, total_chunks)
    return {
        "records": total_records,
        "bytes": published_bytes,
        "chunks": total_chunks,
        "partition_records": partition_records,
        "started_at": started_at,
        "kernel": kernel,
        "kernel_records": total_records,
        "kernel_s": kernel_s,
    }


class _StreamBuffer:
    """The reducer's bounded chunk buffer: admission gate + drain queue.

    Fetchers call :meth:`wait_for_space` before pulling the next chunk
    (the backpressure point — counted and timed) and :meth:`arrived`
    when one lands; the sorter pops :attr:`queue` and calls
    :meth:`drained` after charging the chunk's sort CPU.  A bound below
    one chunk still admits single chunks, so progress is guaranteed.
    """

    def __init__(self, sim, limit: float | None):
        self.sim = sim
        # A non-positive bound means "unbounded" (a literal zero would
        # park every fetcher before the first chunk, with no sorter
        # drain ever able to wake them).
        self.limit = limit if limit is not None and limit > 0 else None
        self.used = 0.0
        self.high_watermark = 0.0
        self.waits = 0
        self.wait_s = 0.0
        self.queue: collections.deque[tuple[int, float]] = collections.deque()
        self._space: SimEvent | None = None
        self._work: SimEvent | None = None

    def _arm(self, attr: str) -> SimEvent:
        event = getattr(self, attr)
        if event is None or event.triggered:
            event = SimEvent(self.sim, name=f"streambuffer.{attr}")
            setattr(self, attr, event)
        return event

    def _fire(self, attr: str) -> None:
        event = getattr(self, attr)
        if event is not None and not event.triggered:
            event.succeed()

    def wait_for_space(self) -> t.Generator:
        while self.limit is not None and self.used >= self.limit:
            self.waits += 1
            started = self.sim.now
            yield self._arm("_space")
            self.wait_s += self.sim.now - started

    def arrived(self, real_len: int, logical: float) -> None:
        self.used += logical
        self.high_watermark = max(self.high_watermark, self.used)
        self.queue.append((real_len, logical))
        self._fire("_work")

    def drained(self, logical: float) -> None:
        self.used -= logical
        self._fire("_space")

    def notify_work(self) -> None:
        self._fire("_work")

    def work_event(self) -> SimEvent:
        return self._arm("_work")


def streaming_shuffle_reducer(ctx, task: dict) -> t.Generator:
    """Subscribe to one partition across all mappers; sort as chunks land.

    Task fields: ``reducer_id, mappers, out_bucket, output_key, codec,
    sort_throughput`` and the ``stream`` port descriptor.  One fetcher
    sub-process per mapper consumes that mapper's stream through the
    bounded buffer; one sorter sub-process drains it, charging the sort
    CPU incrementally (total identical to the staged reducer's single
    pass — the final merge of pre-sorted chunk runs is folded in).  All
    sub-processes register with the activation's cancel scope, so a
    killed attempt tears the whole pipeline down.
    """
    started_at = ctx.sim.now
    codec: RecordCodec = task["codec"]
    port = ExchangePort.open(ctx, task["stream"])
    reducer_id = task["reducer_id"]
    mappers = task["mappers"]
    buffer = _StreamBuffer(ctx.sim, task["stream"]["buffer_bytes"])
    chunks: dict[int, list[bytes]] = {m: [] for m in range(mappers)}
    finished = {"fetchers": 0}

    def consume_stream(mapper_id: int) -> t.Generator:
        chunk_index = 0
        while True:
            yield from buffer.wait_for_space()
            data = yield from port.next_chunk(mapper_id, reducer_id, chunk_index)
            if data is None:
                break
            chunks[mapper_id].append(data)
            buffer.arrived(len(data), len(data) * ctx.logical_scale)
            chunk_index += 1
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
                consume_stream(mapper_id), name=f"streamfetch-m{mapper_id}"
            )
        )
        for mapper_id in range(mappers)
    ]
    sort_process = ctx.track(ctx.sim.process(sorter(), name="streamsort"))
    yield ctx.sim.all_of(
        [process.completion for process in fetchers] + [sort_process.completion]
    )

    # Reassemble in (mapper, chunk) order — exactly the record order the
    # staged reducer sees — then the same stable sort: byte parity.
    payload = b"".join(
        segment for mapper_id in range(mappers) for segment in chunks[mapper_id]
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
