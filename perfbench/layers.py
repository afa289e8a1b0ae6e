"""The traced run: host-clock spans and counters at each layer boundary.

Wrappers are installed from the benchmark's own files, around the
public functions of each layer, wherever callers resolve them: the
codebase binds names with from-imports, so every ``repro.*`` module
attribute that *is* the original function is replaced, not just the one
in the defining module.  Wrappers copy the original's name and module,
so the function still pickles by reference to the same bytes and the
simulation is unchanged (the benchmark checks that traced ops reproduce
the untraced simulated seconds and dollars exactly).

Spans stay in memory as ``(id, layer, start, end, parent)`` and are
written out once, at the end of the run.  A layer's self time is its
spans' durations minus the parts covered by child spans; the root span
of each op is ``bench.op``, so its self time is the host time no layer
span covers.  APIs that only spawn a simulation process (object-store
``put``/``get``/``get_range``, cache and relay requests) are counted,
not timed: their host cost lands in ``sim`` self time.
"""

from __future__ import annotations

import collections
import functools
import json
import statistics
import sys
import time

from repro.cas import content_hash, sha256_hex
from repro.cloud.memstore.service import CacheClient
from repro.cloud.objectstore.service import ObjectStore
from repro.cloud.vm.relay import PartitionRelay, RelayClient
from repro.core.pipelines import pipeline_for
from repro.methcomp.bed import parse_buffer, serialize_records
from repro.methcomp.codec.methcodec import decode_block, encode_block
from repro.methcomp.datagen import MethylomeGenerator, generate_skewed_bed_bytes
from repro.shuffle import kernels
from repro.sim.kernel import Simulator
from repro.sim.links import FairShareLink
from repro.workflows.dag import WorkflowDag
from repro.workflows.engine import WorkflowEngine
from repro.workflows.tracker import JobTracker

ROOT = "bench.op"

#: Per-layer metrics of the traced run: name → (unit, better).  Host
#: seconds and counts are per op, averaged over the traced ops.
METRICS: dict[str, tuple[str, str]] = {
    "methcomp.datagen.host_s": ("s/op", "lower"),
    "methcomp.datagen.mb": ("MB/op", "lower"),
    "methcomp.bed.host_s": ("s/op", "lower"),
    "methcomp.bed.records": ("count/op", "lower"),
    "methcomp.codec.encode_host_s": ("s/op", "lower"),
    "methcomp.codec.decode_host_s": ("s/op", "lower"),
    "methcomp.codec.records": ("count/op", "lower"),
    "methcomp.codec.ratio": ("ratio", "higher"),
    "shuffle.kernels.host_s": ("s/op", "lower"),
    "shuffle.kernels.records": ("count/op", "lower"),
    "shuffle.kernels.vectorized_share": ("ratio", "higher"),
    "cas.host_s": ("s/op", "lower"),
    "cas.mb_hashed": ("MB/op", "lower"),
    "sim.host_s_self": ("s/op", "lower"),
    "sim.steps": ("count/op", "lower"),
    "sim.max_same_instant_steps": ("count", "lower"),
    "sim.links.transfers": ("count/op", "lower"),
    "sim.links.transfer_host_s": ("s/op", "lower"),
    "sim.links.delivered_ratio": ("ratio", "lower"),
    "cloud.objectstore.requests": ("count/op", "lower"),
    "cloud.objectstore.get_calls": ("count/op", "lower"),
    "cloud.objectstore.get_hit_ratio": ("ratio", "higher"),
    "cloud.objectstore.unbilled_gets": ("count/op", "lower"),
    "cloud.objectstore.mb_out": ("MB/op", "lower"),
    "cloud.objectstore.dedup_ops": ("count/op", "higher"),
    "cloud.memstore.requests": ("count/op", "lower"),
    "cloud.memstore.dedup_hits": ("count/op", "higher"),
    "cloud.vm.relay.requests": ("count/op", "lower"),
    "cloud.vm.relay.rendezvous_waits": ("count/op", "lower"),
    "cloud.vm.relay.backpressure_waits": ("count/op", "lower"),
    "cloud.faas.invocations": ("count/op", "lower"),
    "cloud.faas.cold_start_ratio": ("ratio", "lower"),
    "workflows.host_s_self": ("s/op", "lower"),
    "bench.uncovered_host_s": ("s/op", "lower"),
    "bench.tracing_overhead": ("ratio", "lower"),
}


class SpanRecorder:
    """Nested host-clock spans with incremental self-time accounting."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: collections.Counter[str] = collections.Counter()
        # Open spans: [id, layer, start, seconds covered by children].
        self._stack: list[list] = []
        self._ids = 0

    def enter(self, layer: str) -> None:
        self._ids += 1
        self._stack.append([self._ids, layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, layer, start, covered = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - covered
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, layer, start, end, parent))

    def unwind(self) -> None:
        """Close spans left open by an op aborted mid-call."""
        while self._stack:
            self.exit()

    def write(self, path, origin: float) -> None:
        """Spans as JSON rows ``[id, layer, start_s, end_s, parent_id]``."""
        rows = [
            [span_id, layer, round(start - origin, 9), round(end - origin, 9), parent]
            for span_id, layer, start, end, parent in sorted(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"columns": ["id", "layer", "start_s", "end_s", "parent"],
                       "spans": rows}, handle)


class Counters:
    """Counts gathered by the wrappers during traced ops."""

    def __init__(self) -> None:
        self.count: collections.Counter[str] = collections.Counter()
        # Per link: bytes_delivered when first seen in the op, bytes requested.
        self.links: dict[FairShareLink, list[float]] = {}
        self.same_instant = 0
        self.last_now = -1.0
        self.max_same_instant = 0


def _wrap_timed(recorder: SpanRecorder, layer: str, original, after=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.enter(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.exit()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _wrap_counted(before, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        before(*args, **kwargs)
        return original(*args, **kwargs)

    return wrapper


class LayerTracer:
    """Installs and removes the layer wrappers; turns counts into metrics."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.counters = Counters()
        self._sites = self._patch_sites()
        self.ops = 0
        self.link_requested = 0.0
        self.link_delivered = 0.0
        self.cloud_counts: collections.Counter[str] = collections.Counter()
        self.ratios: list[float] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _patch_sites(self) -> list[tuple[object, str, object, object]]:
        """``(owner, attribute, original, wrapper)`` for every install site."""
        recorder, counters = self.recorder, self.counters
        count = counters.count

        def timed(layer, after=None):
            return lambda original: _wrap_timed(recorder, layer, original, after)

        def counted(before):
            return lambda original: _wrap_counted(before, original)

        def tally(key, measure):
            def after(args, result):
                count[key] += measure(args, result)
            return after

        def len_of_result(key):
            return tally(key, lambda _args, result: len(result))

        def len_of_first_arg(key):
            return tally(key, lambda args, _result: len(args[0]))

        datagen_bytes = len_of_result("datagen.bytes")

        def kernel_outcome(_args, outcome):
            count["kernels.records"] += outcome.records
            if outcome.kernel == kernels.KERNEL_VECTORIZED:
                count["kernels.vectorized"] += outcome.records

        def kernel_tuple(_args, result):
            _payload, records, kernel = result
            count["kernels.records"] += records
            if kernel == kernels.KERNEL_VECTORIZED:
                count["kernels.vectorized"] += records

        def transfer_call(link, nbytes, *_args, **_kwargs):
            entry = counters.links.get(link)
            if entry is None:
                entry = counters.links[link] = [link.bytes_delivered, 0.0]
            entry[1] += max(float(nbytes), 0.0)
            count["links.transfers"] += 1

        def get_call(*_args, **_kwargs):
            count["objectstore.get_calls"] += 1

        def cache_call(*_args, **_kwargs):
            count["memstore.requests"] += 1

        def relay_call(*_args, **_kwargs):
            count["relay.requests"] += 1

        original_step = Simulator.step

        def step(sim):
            advanced = original_step(sim)
            count["sim.steps"] += 1
            if sim.now == counters.last_now:
                counters.same_instant += 1
                if counters.same_instant > counters.max_same_instant:
                    counters.max_same_instant = counters.same_instant
            else:
                counters.last_now = sim.now
                counters.same_instant = 1
            return advanced

        functions = [
            (generate_skewed_bed_bytes, timed("methcomp.datagen", datagen_bytes)),
            (parse_buffer, timed("methcomp.bed", len_of_result("bed.records"))),
            (serialize_records, timed("methcomp.bed", len_of_first_arg("bed.records"))),
            (encode_block, timed("methcomp.codec.encode", len_of_first_arg("codec.records"))),
            (decode_block, timed("methcomp.codec.decode", len_of_result("codec.records"))),
            (kernels.partition_buffer, timed("shuffle.kernels", kernel_outcome)),
            (kernels.sort_buffer, timed("shuffle.kernels", kernel_outcome)),
            (kernels.window_keys, timed("shuffle.kernels", kernel_tuple)),
            (kernels.grouped_records, timed("shuffle.kernels", kernel_tuple)),
            (sha256_hex, timed("cas", len_of_first_arg("cas.bytes"))),
            (content_hash, timed("cas")),
            (pipeline_for, timed("workflows")),
        ]
        methods = [
            (MethylomeGenerator, "generate_bed_bytes", timed("methcomp.datagen", datagen_bytes)),
            (Simulator, "run", timed("sim")),
            (Simulator, "step", lambda _original: step),
            (FairShareLink, "transfer", lambda original: _wrap_timed(
                recorder, "sim.links", _wrap_counted(transfer_call, original))),
            (FairShareLink, "abort", timed("sim.links")),
            (ObjectStore, "get", counted(get_call)),
            (ObjectStore, "get_range", counted(get_call)),
            (WorkflowDag, "__init__", timed("workflows")),
            (WorkflowEngine, "__init__", timed("workflows")),
        ]
        methods += [
            (JobTracker, name, timed("workflows"))
            for name in ("stage_registered", "stage_started", "stage_finished",
                         "stage_failed", "cost_breakdown")
        ]
        methods += [
            (CacheClient, name, counted(cache_call))
            for name in ("set", "get", "get_wait", "delete", "exists", "mset", "mget")
        ]
        methods += [
            (RelayClient, name, counted(relay_call))
            for name in ("push", "pull", "pull_wait", "delete", "mpush", "mpull", "mdelete")
        ]

        sites = []
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for original, make in functions:
            wrapper = make(original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        sites.append((module, attribute, original, wrapper))
        for owner, attribute, make in methods:
            original = owner.__dict__[attribute]
            sites.append((owner, attribute, original, make(original)))
        return sites

    def install(self) -> None:
        for owner, attribute, _original, wrapper in self._sites:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _wrapper in reversed(self._sites):
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # one traced op
    # ------------------------------------------------------------------
    @staticmethod
    def cloud_counts_of(cloud) -> dict[str, float]:
        """Billing-side counters of one simulated region."""
        store = cloud.store.stats
        counts = {
            "objectstore.requests": store.total_requests,
            "objectstore.gets": store.gets,
            "objectstore.bytes_out": store.bytes_out,
            "objectstore.dedup_ops": store.dedup_ops,
            "memstore.dedup_hits": sum(
                cluster.stats_totals().get("dedup_hits", 0)
                for cluster in cloud.cache.clusters.values()
            ),
            "faas.invocations": cloud.faas.stats.invocations,
            "faas.cold_starts": cloud.faas.stats.cold_starts,
        }
        relays = [relay for relay in cloud.vms.relays.values()
                  if isinstance(relay, PartitionRelay)]
        for field in ("rendezvous_waits", "backpressure_waits"):
            counts[f"relay.{field}"] = sum(
                getattr(relay.stats, field) for relay in relays
            )
        return counts

    def begin_op(self) -> None:
        self.counters.links.clear()
        self.counters.last_now = -1.0
        self.counters.same_instant = 0
        self.recorder.enter(ROOT)

    def end_op(self, before: dict[str, float], cloud, completed: bool) -> None:
        self.recorder.unwind()
        self.ops += 1
        after = self.cloud_counts_of(cloud)
        for key, value in after.items():
            self.cloud_counts[key] += value - before.get(key, 0)
        if completed:
            for link, (delivered_before, requested) in self.counters.links.items():
                self.link_requested += requested
                self.link_delivered += link.bytes_delivered - delivered_before

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self, tracing_overhead: float) -> dict[str, tuple[float, str]]:
        """``(value, unit)`` per metric; ``tracing_overhead`` is measured
        by the runner, which alternates traced and untraced cycles."""
        ops = max(1, self.ops)
        count = self.counters.count
        self_s = self.recorder.self_s
        cloud = self.cloud_counts

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        values = {
            "methcomp.datagen.host_s": self_s["methcomp.datagen"] / ops,
            "methcomp.datagen.mb": count["datagen.bytes"] / 1e6 / ops,
            "methcomp.bed.host_s": self_s["methcomp.bed"] / ops,
            "methcomp.bed.records": count["bed.records"] / ops,
            "methcomp.codec.encode_host_s": self_s["methcomp.codec.encode"] / ops,
            "methcomp.codec.decode_host_s": self_s["methcomp.codec.decode"] / ops,
            "methcomp.codec.records": count["codec.records"] / ops,
            "methcomp.codec.ratio": statistics.fmean(self.ratios) if self.ratios else 0.0,
            "shuffle.kernels.host_s": self_s["shuffle.kernels"] / ops,
            "shuffle.kernels.records": count["kernels.records"] / ops,
            "shuffle.kernels.vectorized_share": share(
                count["kernels.vectorized"], count["kernels.records"]),
            "cas.host_s": self_s["cas"] / ops,
            "cas.mb_hashed": count["cas.bytes"] / 1e6 / ops,
            "sim.host_s_self": self_s["sim"] / ops,
            "sim.steps": count["sim.steps"] / ops,
            "sim.max_same_instant_steps": self.counters.max_same_instant,
            "sim.links.transfers": count["links.transfers"] / ops,
            "sim.links.transfer_host_s": self_s["sim.links"] / ops,
            "sim.links.delivered_ratio": share(self.link_delivered, self.link_requested),
            "cloud.objectstore.requests": cloud["objectstore.requests"] / ops,
            "cloud.objectstore.get_calls": count["objectstore.get_calls"] / ops,
            "cloud.objectstore.get_hit_ratio": share(
                cloud["objectstore.gets"], count["objectstore.get_calls"]),
            "cloud.objectstore.unbilled_gets": (
                count["objectstore.get_calls"] - cloud["objectstore.gets"]) / ops,
            "cloud.objectstore.mb_out": cloud["objectstore.bytes_out"] / 1e6 / ops,
            "cloud.objectstore.dedup_ops": cloud["objectstore.dedup_ops"] / ops,
            "cloud.memstore.requests": count["memstore.requests"] / ops,
            "cloud.memstore.dedup_hits": cloud["memstore.dedup_hits"] / ops,
            "cloud.vm.relay.requests": count["relay.requests"] / ops,
            "cloud.vm.relay.rendezvous_waits": cloud["relay.rendezvous_waits"] / ops,
            "cloud.vm.relay.backpressure_waits": cloud["relay.backpressure_waits"] / ops,
            "cloud.faas.invocations": cloud["faas.invocations"] / ops,
            "cloud.faas.cold_start_ratio": share(
                cloud["faas.cold_starts"], cloud["faas.invocations"]),
            "workflows.host_s_self": self_s["workflows"] / ops,
            "bench.uncovered_host_s": self_s[ROOT] / ops,
            "bench.tracing_overhead": tracing_overhead,
        }
        return {name: (values[name], unit) for name, (unit, _better) in METRICS.items()}
