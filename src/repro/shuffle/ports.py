"""Worker-side exchange ports: one interface over every substrate.

A mapper or reducer never talks to object storage, the cache cluster or
the relay directly; it opens an :class:`ExchangePort` on a *descriptor*
(:meth:`ExchangePort.open`) and speaks one vocabulary:

* **staged verbs** — :meth:`~ExchangePort.publish_partitions` (a mapper's
  whole partitioned split, in one go) and
  :meth:`~ExchangePort.collect_partitions` (a reducer's range from every
  mapper, after the map barrier).  A staged worker's task *is* its
  descriptor: the route fields ride flat next to the stage fields, and
  the port is bound to that one mapper or reducer;
* **streaming verbs** — :meth:`~ExchangePort.announce` /
  :meth:`~ExchangePort.publish` / :meth:`~ExchangePort.finish` on the map
  side, :meth:`~ExchangePort.next_chunk` / :meth:`~ExchangePort.fetch_chunk`
  on the reduce side (chunk-grain readiness while mappers still run).
  Streaming workers open the port on their task's nested ``stream``
  descriptor and name the mapper, reducer and chunk per call.

The ports differ only in the client calls underneath:

* **object storage** (:class:`ObjectStorePort`) — a write-combined PUT
  per mapper (one PUT per partition when naive) and batched range-GETs
  over a NIC share; streaming adds immutable per-chunk manifests and an
  end-of-stream object that reducers poll for;
* **cache** (:class:`CachePort`) — ``mset`` / ``mget`` (plus per-key
  ``delete`` on cleanup); streaming parks readers on ``get_wait``;
* **relay / sharded fleet** (:class:`RelayPort`) — ``mpush`` /
  ``mpull`` (optionally consuming); streaming parks on ``pull_wait``.

Descriptors are plain dicts (they ride the pickled task payload):
``kind`` (object storage when absent — the paper's default substrate),
the substrate route and the verb knobs the backend set.  Staged object
storage reads ``out_bucket`` plus ``out_key``/``write_combining``
(mapper) or ``segments``/``fetch_parallelism`` (reducer); the key-value
ports read ``cluster_id`` or ``relay_id`` (with an optional
``relay_scope``), ``prefix``, and ``mapper_id`` or ``reducer_id``/
``mappers`` with ``cleanup``/``consume``; streaming descriptors carry
``prefix``, ``bucket`` (object storage), ``chunk_bytes``,
``buffer_bytes`` and ``poll_interval``.
"""

from __future__ import annotations

import typing as t

from repro.cloud.objectstore.errors import NoSuchKey
from repro.errors import ShuffleError
from repro.sim import SimEvent
from repro.storage.serializer import deserialize, serialize


# ----------------------------------------------------------------------
# key layout
# ----------------------------------------------------------------------
def partition_key(prefix: str, mapper_id: int, reducer_id: int) -> str:
    """Cache/relay key of mapper ``mapper_id``'s segment for reducer
    ``reducer_id`` (staged exchange)."""
    return f"{prefix}/m{mapper_id:05d}.r{reducer_id:05d}"


def stream_chunk_object_key(prefix: str, mapper_id: int, chunk: int) -> str:
    """COS object holding mapper ``mapper_id``'s combined chunk ``chunk``."""
    return f"{prefix}/m{mapper_id:05d}.c{chunk:05d}"


def stream_manifest_key(prefix: str, mapper_id: int, chunk: int) -> str:
    """COS object holding chunk ``chunk``'s offset table (immutable)."""
    return f"{prefix}/m{mapper_id:05d}.mf{chunk:05d}"


def stream_eos_key(prefix: str, mapper_id: int) -> str:
    """COS object announcing mapper ``mapper_id``'s final chunk count."""
    return f"{prefix}/m{mapper_id:05d}.eos"


def stream_header_key(prefix: str, mapper_id: int) -> str:
    """Relay/cache key announcing mapper ``mapper_id``'s chunk count."""
    return f"{prefix}/m{mapper_id:05d}.hdr"


def stream_segment_key(
    prefix: str, mapper_id: int, reducer_id: int, chunk: int
) -> str:
    """Relay/cache key of one (mapper, reducer, chunk) segment."""
    return f"{prefix}/m{mapper_id:05d}.r{reducer_id:05d}.c{chunk:05d}"


def objectstore_segments(
    reducer_id: int, map_results: t.Sequence[dict]
) -> list[tuple[str, int | None, int | None]]:
    """Where reducer ``reducer_id``'s range sits in every staged COS
    mapper's output: ``(key, start, end)`` into the write-combined
    object, or ``(key, None, None)`` for a naive per-partition object."""
    return [
        (result["out_key"], *result["offsets"][reducer_id])
        if "offsets" in result
        else (result["partition_keys"][reducer_id], None, None)
        for result in map_results
    ]


# ----------------------------------------------------------------------
# ports
# ----------------------------------------------------------------------
class ExchangePort:
    """One substrate, as a mapper or reducer sees it.

    Open one with :meth:`open`; every verb is a generator the worker
    drives with ``yield from``.
    """

    def __init__(self, ctx, descriptor: dict):
        self.ctx = ctx
        self.descriptor = descriptor
        self.prefix = descriptor.get("prefix")

    @staticmethod
    def open(ctx, descriptor: dict) -> "ExchangePort":
        """The port a descriptor names by its ``kind``.

        Staged object-storage tasks carry no ``kind``: the paper's
        default substrate needs no routing field, and every payload
        byte is charged at the experiment's logical scale.
        """
        kind = descriptor.get("kind", "objectstore")
        try:
            port_class = _PORTS[kind]
        except KeyError:
            raise ShuffleError(f"unknown exchange port kind {kind!r}") from None
        return port_class(ctx, descriptor)

    # -- staged (bound to one worker's task) ---------------------------
    def publish_partitions(self, outcome) -> t.Generator:
        """Publish the mapper's partitioned split
        (a :class:`~repro.shuffle.kernels.PartitionOutcome`); returns the
        map-result fields the driver needs to route the reducers."""
        raise NotImplementedError

    def collect_partitions(self) -> t.Generator:
        """The reducer's segments, in mapper order."""
        raise NotImplementedError

    # -- streaming: map side -------------------------------------------
    def announce(self, mapper_id: int, chunk_count: int) -> t.Generator:
        """Tell readers how many chunks the mapper will publish."""
        return
        yield  # pragma: no cover - generator marker

    def publish(
        self, mapper_id: int, chunk: int, segments: list[bytes]
    ) -> t.Generator:
        """Publish one chunk's per-reducer segments."""
        raise NotImplementedError

    def finish(self, mapper_id: int, chunk_count: int) -> t.Generator:
        """Close the mapper's stream."""
        return
        yield  # pragma: no cover - generator marker

    # -- streaming: reduce side ----------------------------------------
    def next_chunk(
        self, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        """The reducer's segment of chunk ``chunk``, or ``None`` past the
        mapper's last chunk."""
        raise NotImplementedError

    def fetch_chunk(
        self, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        """The reducer's segment of a chunk *known to exist eventually*
        (the online sort learns the chunk grid from a control record, so
        there is no end-of-stream handshake)."""
        raise NotImplementedError


class ObjectStorePort(ExchangePort):
    """Write-combined objects; manifest polling when streaming."""

    def __init__(self, ctx, descriptor: dict):
        super().__init__(ctx, descriptor)
        self.bucket = descriptor.get("bucket")
        #: Final chunk count per mapper, once the EOS object was read.
        self._eos: dict[int, int] = {}

    # -- staged --------------------------------------------------------
    def publish_partitions(self, outcome) -> t.Generator:
        bucket, out_key = self.descriptor["out_bucket"], self.descriptor["out_key"]
        if self.descriptor.get("write_combining", True):
            # One object holding every partition segment — the kernel's
            # gathered buffer *is* this object (zero extra joins).
            yield self.ctx.storage.put(bucket, out_key, outcome.combined, dedup=True)
            return {"offsets": outcome.offsets, "out_key": out_key}
        # Naive mode: one object per (mapper, partition) pair — W² PUTs
        # per map phase, the all-to-all the paper warns about.
        partition_keys = []
        for reducer_id in range(len(outcome.offsets)):
            key = f"{out_key}.p{reducer_id:05d}"
            partition_keys.append(key)
            yield self.ctx.storage.put(
                bucket, key, outcome.segment(reducer_id), dedup=True
            )
        return {"partition_keys": partition_keys, "out_key": out_key}

    def collect_partitions(self) -> t.Generator:
        bucket = self.descriptor["out_bucket"]
        segments = [
            (key, start, end)
            for key, start, end in self.descriptor["segments"]
            if start is None or end > start
        ]
        storage = self.ctx.storage
        parallelism = max(1, self.descriptor["fetch_parallelism"])
        # Split the instance NIC across the concurrent streams so batching
        # hides request latency without inventing bandwidth.
        fetch_storage = storage
        if parallelism > 1 and storage.connection_bandwidth is not None:
            fetch_storage = storage.bounded(
                storage.connection_bandwidth / parallelism
            )
        chunks: dict[int, bytes] = {}

        def fetch_one(index: int, key: str, seg_start, seg_end) -> t.Generator:
            if seg_start is None:
                chunks[index] = yield fetch_storage.get(bucket, key)
            else:
                chunks[index] = yield fetch_storage.get_range(
                    bucket, key, seg_start, seg_end
                )

        sim = self.ctx.sim
        for batch_start in range(0, len(segments), parallelism):
            batch = segments[batch_start : batch_start + parallelism]
            processes = [
                sim.process(
                    fetch_one(batch_start + offset, key, seg_start, seg_end),
                    name=f"reducer-fetch-{batch_start + offset}",
                )
                for offset, (key, seg_start, seg_end) in enumerate(batch)
            ]
            if processes:
                yield sim.all_of([process.completion for process in processes])
        return [chunks[index] for index in sorted(chunks)]

    # -- streaming -----------------------------------------------------
    def publish(
        self, mapper_id: int, chunk: int, segments: list[bytes]
    ) -> t.Generator:
        combined = b"".join(segments)
        offsets: list[tuple[int, int]] = []
        cursor = 0
        for segment in segments:
            offsets.append((cursor, cursor + len(segment)))
            cursor += len(segment)
        # Data first, then the manifest naming it: any manifest a
        # reducer can read points at a chunk object that already exists.
        yield self.ctx.storage.put(
            self.bucket, stream_chunk_object_key(self.prefix, mapper_id, chunk),
            combined, dedup=True,
        )
        payload = serialize(offsets)
        # Manifests are control-plane metadata: charge their real size,
        # not the experiment's logical scale-up.
        yield self.ctx.storage.put(
            self.bucket, stream_manifest_key(self.prefix, mapper_id, chunk),
            payload, logical_size=len(payload),
        )

    def finish(self, mapper_id: int, chunk_count: int) -> t.Generator:
        payload = serialize(chunk_count)
        yield self.ctx.storage.put(
            self.bucket, stream_eos_key(self.prefix, mapper_id),
            payload, logical_size=len(payload),
        )

    def _segment(
        self, manifest: bytes, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        start, end = deserialize(manifest)[reducer_id]
        if end <= start:
            return b""
        return (
            yield self.ctx.storage.get_range(
                self.bucket,
                stream_chunk_object_key(self.prefix, mapper_id, chunk),
                start,
                end,
            )
        )

    def next_chunk(
        self, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        poll_interval = self.descriptor["poll_interval"]
        delay = poll_interval
        while True:
            try:
                raw = yield self.ctx.storage.get(
                    self.bucket, stream_manifest_key(self.prefix, mapper_id, chunk)
                )
            except NoSuchKey:
                pass
            else:
                return (
                    yield from self._segment(raw, mapper_id, reducer_id, chunk)
                )
            if mapper_id not in self._eos:
                try:
                    raw = yield self.ctx.storage.get(
                        self.bucket, stream_eos_key(self.prefix, mapper_id)
                    )
                except NoSuchKey:
                    pass
                else:
                    self._eos[mapper_id] = deserialize(raw)
            count = self._eos.get(mapper_id)
            if count is not None:
                if chunk >= count:
                    return None
                # The manifest exists (it precedes EOS); re-read it now.
                continue
            yield self.ctx.sleep(delay)
            # Gentle backoff keeps W^2 pollers off the ops ceiling while
            # nothing is being produced; reset on progress (new call).
            delay = min(delay * 1.5, poll_interval * 4)

    def fetch_chunk(
        self, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        poll_interval = self.descriptor["poll_interval"]
        delay = poll_interval
        while True:
            try:
                raw = yield self.ctx.storage.get(
                    self.bucket, stream_manifest_key(self.prefix, mapper_id, chunk)
                )
            except NoSuchKey:
                yield self.ctx.sleep(delay)
                delay = min(delay * 1.5, poll_interval * 4)
                continue
            return (yield from self._segment(raw, mapper_id, reducer_id, chunk))


class _KeyValuePort(ExchangePort):
    """Shared port over a notifying key-value rendezvous.

    The cache and the relay speak the same protocol — one value per
    (mapper, reducer[, chunk]), a header key announcing a stream's chunk
    count, blocking reads parked on the server's publish notification —
    and differ only in the client verbs the subclasses bind.  Opening
    the port creates the (attempt-bound) client.
    """

    def __init__(self, ctx, descriptor: dict):
        super().__init__(ctx, descriptor)
        self.client = self._make_client()
        self._headers: dict[int, int] = {}

    # -- service verbs (subclass responsibility) -----------------------
    def _make_client(self):
        raise NotImplementedError

    def _put(self, key: str, data: bytes) -> SimEvent:
        raise NotImplementedError

    def _mput(self, items: list[tuple[str, bytes]]) -> SimEvent:
        raise NotImplementedError

    def _mget(self, keys: list[str]) -> t.Generator:
        raise NotImplementedError

    def _get_blocking(self, key: str) -> SimEvent:
        raise NotImplementedError

    # -- staged --------------------------------------------------------
    def publish_partitions(self, outcome) -> t.Generator:
        mapper_id = self.descriptor["mapper_id"]
        yield self._mput(
            [
                (partition_key(self.prefix, mapper_id, reducer_id), segment)
                for reducer_id, segment in enumerate(outcome.segments())
            ]
        )
        return {}

    def collect_partitions(self) -> t.Generator:
        reducer_id = self.descriptor["reducer_id"]
        keys = [
            partition_key(self.prefix, mapper_id, reducer_id)
            for mapper_id in range(self.descriptor["mappers"])
        ]
        return (yield from self._mget(keys))

    # -- streaming -----------------------------------------------------
    def announce(self, mapper_id: int, chunk_count: int) -> t.Generator:
        yield self._put(
            stream_header_key(self.prefix, mapper_id),
            chunk_count.to_bytes(8, "big"),
        )

    def publish(
        self, mapper_id: int, chunk: int, segments: list[bytes]
    ) -> t.Generator:
        yield self._mput(
            [
                (stream_segment_key(self.prefix, mapper_id, reducer_id, chunk),
                 data)
                for reducer_id, data in enumerate(segments)
            ]
        )

    def next_chunk(
        self, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        count = self._headers.get(mapper_id)
        if count is None:
            raw = yield self._get_blocking(
                stream_header_key(self.prefix, mapper_id)
            )
            count = int.from_bytes(raw, "big")
            self._headers[mapper_id] = count
        if chunk >= count:
            return None
        return (yield from self.fetch_chunk(mapper_id, reducer_id, chunk))

    def fetch_chunk(
        self, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        return (
            yield self._get_blocking(
                stream_segment_key(self.prefix, mapper_id, reducer_id, chunk)
            )
        )


class CachePort(_KeyValuePort):
    """The in-memory cache cluster: MSET/MGET, set-notification reads."""

    def _make_client(self):
        return self.ctx.kv(self.descriptor["cluster_id"])

    def _put(self, key: str, data: bytes) -> SimEvent:
        return self.client.set(key, data, logical_size=len(data))

    def _mput(self, items: list[tuple[str, bytes]]) -> SimEvent:
        return self.client.mset(items)

    def _mget(self, keys: list[str]) -> t.Generator:
        segments = yield self.client.mget(keys)
        if self.descriptor.get("cleanup", False):
            for key in keys:
                yield self.client.delete(key)
        return segments

    def _get_blocking(self, key: str) -> SimEvent:
        return self.client.get_wait(key)


class RelayPort(_KeyValuePort):
    """The VM relay (or sharded fleet): MPUSH/MPULL, rendezvous pulls.

    With ``consume`` the staged reducer's MPULL takes **read-leases**:
    the relay removes the entries only when the activation commits, so
    an attempt killed at any point before commit simply drops its lease
    and the retry finds every partition resident.
    """

    def _make_client(self):
        return self.ctx.relay(
            self.descriptor["relay_id"], scope=self.descriptor.get("relay_scope")
        )

    def _put(self, key: str, data: bytes) -> SimEvent:
        return self.client.push(key, data, logical_size=len(data))

    def _mput(self, items: list[tuple[str, bytes]]) -> SimEvent:
        return self.client.mpush(items)

    def _mget(self, keys: list[str]) -> t.Generator:
        return (
            yield self.client.mpull(
                keys, consume=self.descriptor.get("consume", False)
            )
        )

    def _get_blocking(self, key: str) -> SimEvent:
        return self.client.pull_wait(key)


_PORTS: dict[str, type[ExchangePort]] = {
    "objectstore": ObjectStorePort,
    "cache": CachePort,
    "relay": RelayPort,
}
