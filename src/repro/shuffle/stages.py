"""Worker-side stages of the shuffle, on every exchange substrate.

Three sim-aware functions executed through a
:class:`~repro.executor.FunctionExecutor` (or the VM-backed standalone
executor — they are substrate-portable):

* :func:`shuffle_sampler` — reads a window of its split and returns a
  key sample for boundary selection;
* :func:`shuffle_mapper` — reads its record-aligned split, partitions
  records by range, and publishes the partitions through its task's
  :class:`~repro.shuffle.ports.ExchangePort` (on object storage: **one
  combined object** plus an offset table returned to the driver — the
  write-combining I/O optimization, ``W`` PUTs per map phase instead of
  ``W²``);
* :func:`shuffle_reducer` — collects its range from every mapper through
  the port, sorts the records, and writes one sorted run to object
  storage (the encode stage reads runs from COS regardless of how the
  shuffle moved its bytes).

The streaming twins live in :mod:`repro.shuffle.streaming`.  All
payloads are plain picklable dicts, so the stages ride the normal
executor data path through object storage.
"""

from __future__ import annotations

import typing as t

from repro.shuffle import kernels
from repro.shuffle.ports import ExchangePort
from repro.shuffle.records import RecordCodec
from repro.shuffle.sampler import reservoir_sample


def read_split(ctx, task: dict, start: int, end: int) -> t.Generator:
    """The records split ``[start, end)`` of the input object owns.

    Reads the split plus ``peek_bytes`` of look-ahead (task fields
    ``bucket, key, object_size, peek_bytes, codec``) in one range-GET
    and lets the codec cut it at record boundaries.
    """
    object_size = task["object_size"]
    window_end = min(object_size, end + task["peek_bytes"])
    raw = yield ctx.storage.get_range(task["bucket"], task["key"], start, window_end)
    return task["codec"].extract_split(
        raw[: end - start],
        raw[end - start :],
        is_first=(start == 0),
        at_end=(end >= object_size),
        global_start=start,
    )


def _sample_windows(
    start: int, end: int, sample_bytes: int, strides: int
) -> list[tuple[int, int]]:
    """Byte windows of one sampler's split: ``strides`` spread slices.

    The sampling budget is split over ``strides`` windows placed at the
    starts of equal sub-spans of ``[start, end)`` — a single
    head-of-split window (``strides=1``, the old behaviour) only ever
    sees the *low-key head of each locally-ascending run* on
    ``sorted-runs`` inputs, biasing the weighted boundaries; spreading
    the same bytes restores uniform positional coverage.
    """
    span = end - start
    if strides <= 1 or span <= sample_bytes:
        return [(start, min(end, start + sample_bytes))]
    per_window = max(1, sample_bytes // strides)
    step, remainder = divmod(span, strides)
    windows: list[tuple[int, int]] = []
    cursor = start
    for index in range(strides):
        sub_end = cursor + step + (1 if index < remainder else 0)
        window_end = min(sub_end, cursor + per_window)
        if window_end > cursor:
            windows.append((cursor, window_end))
        cursor = sub_end
    return windows


def shuffle_sampler(ctx, task: dict) -> t.Generator:
    """Sample record keys from one input split.

    Task fields: ``bucket, key, start, end, object_size, sample_bytes,
    sample_keys, codec, seed``, and optional ``sample_strides`` (number
    of windows the sampling budget is spread over — see
    :func:`_sample_windows`).
    """
    codec: RecordCodec = task["codec"]
    strides = max(1, int(task.get("sample_strides", 1)))
    keys: list = []
    records_seen = 0
    for window_start, window_end in _sample_windows(
        task["start"], task["end"], task["sample_bytes"], strides
    ):
        window = yield ctx.storage.get_range(
            task["bucket"], task["key"], window_start, window_end
        )
        # Vectorized window decode when the codec supports it; the key
        # list is identical either way, so the reservoir draws — and
        # therefore the chosen boundaries — do not depend on the path.
        window_keys, window_records, _kernel = kernels.window_keys(
            codec, window, is_first=(window_start == 0), global_start=window_start
        )
        keys.extend(window_keys)
        records_seen += window_records
    rng = ctx.rng(f"sampler-{task.get('sampler_id', 0)}")
    sample = reservoir_sample(keys, task["sample_keys"], rng) if keys else []
    return {"keys": sample, "records_seen": records_seen}


def shuffle_mapper(ctx, task: dict) -> t.Generator:
    """Partition one record-aligned split and publish it.

    Task fields: ``bucket, key, start, end, object_size, peek_bytes,
    boundaries, codec, partition_throughput`` plus the flat port fields
    of its substrate (see :mod:`repro.shuffle.ports`).  Returns the
    record counts and kernel telemetry plus whatever the port reports
    back for routing the reducers (on object storage: the combined
    object's ``out_key`` and the offset table ``offsets[r] = (seg_start,
    seg_end)`` of reducer ``r``'s segment, or per-partition
    ``partition_keys`` when write-combining is off).
    """
    codec: RecordCodec = task["codec"]
    owned = yield from read_split(ctx, task, task["start"], task["end"])
    outcome = kernels.partition_buffer(codec, owned, task["boundaries"])
    yield ctx.compute_bytes(len(owned), task["partition_throughput"])
    published = yield from ExchangePort.open(ctx, task).publish_partitions(outcome)
    return {
        **published,
        "records": outcome.records,
        "partition_records": outcome.partition_records,
        "bytes": len(outcome.combined),
        "kernel": outcome.kernel,
        "kernel_records": outcome.records,
        "kernel_s": outcome.elapsed_s,
    }


def shuffle_reducer(ctx, task: dict) -> t.Generator:
    """Collect, sort and write one output partition.

    Task fields: ``out_bucket, output_key, codec, sort_throughput`` plus
    the flat port fields of its substrate (see
    :mod:`repro.shuffle.ports`), and an optional ``record_limit`` keeping
    only the first N sorted records (top-k queries truncate their final
    partition this way).
    """
    codec: RecordCodec = task["codec"]
    segments = yield from ExchangePort.open(ctx, task).collect_partitions()
    buffer = b"".join(segments)
    yield ctx.compute_bytes(len(buffer), task["sort_throughput"])
    outcome = kernels.sort_buffer(codec, buffer, task.get("record_limit"))
    yield ctx.storage.put(
        task["out_bucket"], task["output_key"], outcome.output, dedup=True
    )
    return {
        "records": outcome.records,
        "bytes": len(outcome.output),
        "output_key": task["output_key"],
        "kernel": outcome.kernel,
        "kernel_records": outcome.records,
        "kernel_s": outcome.elapsed_s,
    }
