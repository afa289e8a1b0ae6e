"""Stage-kind implementations for the METHCOMP pipelines.

These are the building blocks the declarative workflows (and the
Table 1 experiment) compose:

==================  ====================================================
``methylome_dataset``  generate a synthetic ENCFF988BSW-like bedMethyl
                       payload and upload it to object storage
``dataset_ref``        point at an existing object (pre-staged input)
``sort``               serverless sort over any exchange substrate, in
                       either execution mode: ``substrate=``
                       ``objectstore`` (default; Primula —
                       configuration **B**), ``cache`` (an in-memory
                       cache cluster — **C**, experiment S8),
                       ``relay`` (an in-memory relay on a provisioned
                       VM — **D**) or ``sharded-relay`` (a multi-relay
                       fleet lifting one NIC's ceiling — **E**, S8b);
                       ``mode=`` ``staged`` (default) or ``streaming``
                       (the reduce wave overlaps the map wave and
                       reducers consume partitions while mappers are
                       still producing — S10)
``shuffle_sort``       alias of ``sort`` presetting objectstore, staged
``cache_sort``         alias of ``sort`` presetting cache, staged
``relay_sort``         alias of ``sort`` presetting relay, staged
``sharded_relay_sort`` alias of ``sort`` presetting sharded-relay, staged
``streaming_sort``     alias of ``sort`` presetting streaming mode (the
                       substrate stays a param)
``vm_sort``            sort inside a provisioned VM — configuration **A**
``auto_sort``          adaptive sort: picks the exchange substrate at
                       DAG-execution time with
                       ``choose_exchange_substrate`` and runs ``sort``
                       with the chosen configuration, recording the
                       decision in the stage report; with
                       ``modes=("staged", "streaming")`` the execution
                       mode is a decision variable too, and with
                       ``online=True`` the decision keeps being re-made
                       *between chunks* of the running exchange
``online_sort``        mid-stream adaptive sort: runs
                       ``OnlineShuffleSort``, which re-fits calibration
                       from observed chunk rates after every wave and
                       may switch substrate/mode/workers mid-run,
                       recording a decision timeline (experiment S12)
``methcomp_encode``    embarrassingly parallel METHCOMP compression of
                       the sorted runs with cloud functions
``methcomp_verify``    decompress and check record conservation
==================  ====================================================

Every sort kind produces the same artifact shape (a list of sorted runs
in partition order), so the encode stage is substrate-agnostic —
exactly the property the paper's comparison relies on.
"""

from __future__ import annotations

import typing as t

from repro.cas import cas_enabled
from repro.core.calibration import WorkloadParams
from repro.errors import WorkflowError
from repro.executor.executor import FunctionExecutor
from repro.methcomp.bed import bed_sort_key
from repro.methcomp.datagen import MethylomeGenerator, generate_skewed_bed_bytes
from repro.methcomp.pipeline import bed_record_codec, decode_worker, encode_worker
from repro.cloud.vm.fleet import fleet_ready, provision_fleet
from repro.cloud.vm.relay import provision_relay, relay_ready
from repro.shuffle.adaptive import EXCHANGE_MODES, choose_exchange_substrate
from repro.shuffle.content import (
    LineageCache,
    lineage_cache_for,
    lineage_outputs_present,
)
from repro.shuffle.cacheplanner import required_cache_nodes
from repro.shuffle.online import OnlineShuffleSort
from repro.shuffle.operator import ShuffleSort, exchange_backend
from repro.shuffle.relayplanner import (
    required_relay_fleet,
    required_relay_instance,
)
from repro.shuffle.streaming import StreamConfig
from repro.storage import paths
from repro.workflows.engine import StageContext, register_stage_kind, stage_kind

#: Engine-level cache of function executors, one per memory size, so
#: consecutive stages share warm containers (Lithops runtime reuse).
_EXECUTOR_CACHE_ATTR = "_repro_executor_cache"


def _workload(context: StageContext) -> WorkloadParams:
    """Workload params attached to the engine (or library defaults)."""
    workload = getattr(context.engine, "workload", None)
    return workload if workload is not None else WorkloadParams()


def _function_executor(context: StageContext, memory_mb: int) -> FunctionExecutor:
    cache = getattr(context.engine, _EXECUTOR_CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(context.engine, _EXECUTOR_CACHE_ATTR, cache)
    if memory_mb not in cache:
        cache[memory_mb] = FunctionExecutor(
            context.cloud,
            runtime_memory_mb=memory_mb,
            bucket=context.bucket,
        )
    return cache[memory_mb]


def _single_input(inputs: dict[str, t.Any], stage: str) -> t.Any:
    if len(inputs) != 1:
        raise WorkflowError(
            f"stage {stage!r} expects exactly one upstream stage, "
            f"got {sorted(inputs)}"
        )
    return next(iter(inputs.values()))


# ----------------------------------------------------------------------
# provisioned-substrate lifecycle (shared by staged and streaming sorts)
# ----------------------------------------------------------------------
def _validated_provisioning(context: StageContext) -> str:
    provisioning = context.param("provisioning", "warm")
    if provisioning not in ("warm", "cold"):
        raise WorkflowError(
            f"stage {context.spec.name!r}: provisioning must be 'warm' or "
            f"'cold', got {provisioning!r}"
        )
    return provisioning


def _provision_cache_cluster(context: StageContext, logical_bytes) -> t.Generator:
    """Size and provision the stage's cache cluster (params:
    ``node_type``, ``nodes`` — 0 sizes to fit — and ``provisioning``)."""
    node_type = context.param("node_type", "cache.r5.large")
    nodes = int(context.param("nodes", 0))
    if nodes < 1:
        nodes = required_cache_nodes(
            logical_bytes, context.cloud.profile, node_type
        )
    if _validated_provisioning(context) == "cold":
        cluster = yield context.cloud.cache.provision(node_type, nodes)
    else:
        cluster = context.cloud.cache.provision_ready(node_type, nodes)
    return cluster


def _provision_relay_vm(context: StageContext, logical_bytes) -> t.Generator:
    """Size and provision the stage's relay VM (params:
    ``instance_type`` — omit to auto-size — and ``provisioning``)."""
    instance_type = context.param("instance_type")
    if not instance_type:
        instance_type = required_relay_instance(
            logical_bytes, context.cloud.profile
        )
    if _validated_provisioning(context) == "cold":
        relay = yield provision_relay(context.cloud.vms, instance_type)
    else:
        relay = relay_ready(context.cloud.vms, instance_type)
    return relay


def _provision_relay_shards(context: StageContext, logical_bytes) -> t.Generator:
    """Size and provision the stage's relay fleet (params:
    ``instance_type``, ``shards`` — 0 auto-sizes — and ``provisioning``)."""
    instance_type = context.param("instance_type")
    shards = int(context.param("shards", 2))
    if shards < 1 or not instance_type:
        auto_type, min_shards = required_relay_fleet(
            logical_bytes, context.cloud.profile,
            instance_type_name=instance_type or None,
        )
        instance_type = instance_type or auto_type
        shards = max(shards, min_shards) if shards >= 1 else min_shards
    if _validated_provisioning(context) == "cold":
        fleet = yield provision_fleet(context.cloud.vms, instance_type, shards)
    else:
        fleet = fleet_ready(context.cloud.vms, instance_type, shards)
    return fleet


def _release_substrate(provisioned, fleet: bool = False) -> None:
    """Stop a stage-scoped substrate's billing clocks (idempotent).

    Fleets terminate unconditionally: per-shard termination is
    idempotent, and a partially-down fleet must still stop the
    surviving shards' clocks.
    """
    if provisioned is None:
        return
    if fleet:
        provisioned.terminate()
    elif provisioned.state == "running":
        provisioned.terminate()


# ----------------------------------------------------------------------
# dataset stages
# ----------------------------------------------------------------------
def methylome_dataset(context: StageContext, inputs: dict) -> t.Generator:
    """Generate and upload the synthetic methylome.

    Params: ``size_gb`` (logical; real bytes are divided by the cloud's
    ``logical_scale``), ``seed``, ``key``, ``sorted`` (default False —
    raw pipeline input is unsorted, that is why the sort stage exists),
    ``distribution`` (``"uniform"`` default, or a skewed key law from
    :data:`repro.shuffle.skew.KEY_DISTRIBUTIONS`: ``"zipf"``,
    ``"heavy-dup"``, ``"sorted-runs"``, ``"late-hot"``) with its
    ``zipf_s`` / ``distinct_keys`` knobs.
    """
    size_gb = float(context.param("size_gb", required=True))
    seed = int(context.param("seed", 0))
    key = context.param("key", "input/methylome.bed")
    scale = context.cloud.logical_scale
    real_bytes = max(1, int(size_gb * (1 << 30) / scale))
    distribution = context.param("distribution", "uniform")
    if distribution == "uniform":
        generator = MethylomeGenerator(seed=seed)
        payload = generator.generate_bed_bytes(
            real_bytes, sorted_output=bool(context.param("sorted", False))
        )
    else:
        payload = generate_skewed_bed_bytes(
            real_bytes,
            seed=seed,
            distribution=distribution,
            zipf_s=float(context.param("zipf_s", 1.2)),
            distinct_keys=int(context.param("distinct_keys", 64)),
        )
    meta = yield context.cloud.store.put(context.bucket, key, payload)
    return {
        "bucket": context.bucket,
        "key": key,
        "real_bytes": meta.size,
        "logical_bytes": meta.logical_size,
        "records": payload.count(b"\n"),
    }


def dataset_ref(context: StageContext, inputs: dict) -> t.Generator:
    """Reference an existing object (pre-staged input data).

    Params: ``key``, optional ``bucket`` (defaults to the workflow
    bucket), optional ``records`` (for downstream verification).
    """
    bucket = context.param("bucket", context.bucket)
    key = context.param("key", required=True)
    meta = yield context.cloud.store.head(bucket, key)
    return {
        "bucket": bucket,
        "key": key,
        "real_bytes": meta.size,
        "logical_bytes": meta.logical_size,
        "records": context.param("records"),
    }


# ----------------------------------------------------------------------
# sort stages (the paper's two configurations and the exchange matrix)
# ----------------------------------------------------------------------
#: Substrate → provisioning helper of its stage-scoped infrastructure
#: (object storage is pay-as-you-go and needs none).
_PROVISIONERS: dict[str, t.Callable | None] = {
    "objectstore": None,
    "cache": _provision_cache_cluster,
    "relay": _provision_relay_vm,
    "sharded-relay": _provision_relay_shards,
}


def _result_fields(result) -> dict[str, t.Any]:
    """A sort artifact's leading fields: the sorted runs in partition
    order and the sort's shape."""
    return {
        "runs": [
            {
                "bucket": run.bucket,
                "key": run.key,
                "records": run.records,
                "bytes": run.size_bytes,
            }
            for run in result.runs
        ],
        "workers": result.workers,
        "records": result.total_records,
        "duration_s": result.duration_s,
        "planned_workers": result.planned.workers if result.planned else None,
    }


def _substrate_fields(substrate: str, report) -> dict[str, t.Any]:
    """A staged sort artifact's per-substrate report fields."""
    if substrate == "cache":
        return {
            "cache_nodes": report.nodes,
            "cache_node_type": report.node_type,
            "cache_peak_fill": report.peak_fill_fraction,
        }
    if substrate == "objectstore":
        return {}
    fields = {"relay_instance_type": report.instance_type}
    if substrate == "sharded-relay":
        fields["relay_shards"] = report.shards
    fields["relay_peak_fill"] = report.peak_fill_fraction
    fields["relay_backpressure_waits"] = report.backpressure_waits
    return fields


def sort(
    context: StageContext,
    inputs: dict,
    substrate: str | None = None,
    mode: str | None = None,
) -> t.Generator:
    """Serverless sort over any exchange substrate, in either mode.

    Params: ``substrate`` (``objectstore`` default — configuration B —
    or ``cache`` / ``relay`` / ``sharded-relay``: configurations C, D and
    E), ``mode`` (``staged`` default, or ``streaming``: the reduce wave
    launches concurrently with the map wave and reducers consume
    partitions through the substrate's readiness protocol behind
    bounded buffers), plus the generic ``workers`` (pin the count; omit
    to let the substrate's planner choose), ``memory_mb``, ``samplers``,
    ``max_workers``.

    Provisioned substrates take ``provisioning`` (``"warm"``
    pre-provisioned or ``"cold"`` on the clock) and their sizing:
    ``node_type``/``nodes`` (cache; 0 nodes sizes to fit),
    ``instance_type`` (relay; omit to auto-size) and ``shards``
    (sharded relay; default 2, 0 auto-sizes).  The infrastructure lives
    exactly as long as the stage and is billed into its cost either way.
    Staged cache sorts take ``cleanup`` and staged relay sorts
    ``consume`` (reducer-side deletion; the substrate is reclaimed at
    stage end regardless).  Streaming sorts take ``chunk_mb`` (logical
    chunk grain, default 32), ``buffer_mb`` (reducer buffer bound,
    default 256; 0 disables backpressure) and ``poll_interval`` (COS
    manifest polls, default 0.2 s).

    The artifact is the sorted runs plus the report's decision inputs:
    the substrate's fill and request fields for a staged sort, the
    streaming observables (measured ``overlap_s``, buffer high
    watermark, backpressure waits, chunk count) for a streaming one.
    """
    upstream = _single_input(inputs, context.spec.name)
    substrate = substrate or context.param("substrate", "objectstore")
    mode = mode or context.param("mode", "staged")
    if substrate not in _PROVISIONERS:
        raise WorkflowError(
            f"stage {context.spec.name!r}: unknown substrate {substrate!r}; "
            f"expected one of {sorted(_PROVISIONERS)}"
        )
    if mode not in EXCHANGE_MODES:
        raise WorkflowError(
            f"stage {context.spec.name!r}: unknown mode {mode!r}; "
            f"expected one of {list(EXCHANGE_MODES)}"
        )
    memory_mb = int(context.param("memory_mb", 2048))
    executor = _function_executor(context, memory_mb)
    workload = _workload(context)
    stream = None
    if mode == "streaming":
        buffer_mb = float(context.param("buffer_mb", 256.0))
        stream = StreamConfig(
            chunk_bytes=float(context.param("chunk_mb", 32.0)) * (1 << 20),
            buffer_bytes=buffer_mb * (1 << 20) if buffer_mb > 0 else None,
            poll_interval_s=float(context.param("poll_interval", 0.2)),
        )
    _validated_provisioning(context)  # fail fast before provisioning

    provision = _PROVISIONERS[substrate]
    provisioned = None
    if provision is not None:
        provisioned = yield from provision(context, upstream["logical_bytes"])
    backend = exchange_backend(substrate, provisioned, workload, stream)
    if substrate == "cache":
        backend.cost.cleanup = bool(context.param("cleanup", False))
    elif substrate != "objectstore":
        backend.cost.consume = bool(context.param("consume", False))
    operator = ShuffleSort(executor, bed_record_codec(), backend=backend)
    try:
        result = yield operator.sort(
            upstream["bucket"],
            upstream["key"],
            out_bucket=context.bucket,
            out_prefix=f"{context.spec.name}",
            workers=context.param("workers"),
            samplers=int(context.param("samplers", 8)),
            max_workers=int(context.param("max_workers", 256)),
        )
    finally:
        _release_substrate(provisioned, fleet=substrate == "sharded-relay")
    report = operator.report
    artifact = _result_fields(result)
    artifact["substrate"] = report.substrate
    if mode == "staged":
        artifact.update(predicted_s=report.predicted_s, actual_s=report.actual_s)
        artifact.update(_substrate_fields(substrate, report))
        return artifact
    artifact.update(
        mode=report.mode,
        predicted_s=report.predicted_s,
        actual_s=report.actual_s,
        overlap_s=report.overlap_s,
        buffer_high_watermark_bytes=report.buffer_high_watermark_bytes,
        buffer_backpressure_waits=report.buffer_backpressure_waits,
        stream_chunks=report.stream_chunks,
    )
    return artifact


def shuffle_sort(context: StageContext, inputs: dict) -> t.Generator:
    """Configuration B: ``sort`` through object storage, staged."""
    return sort(context, inputs, substrate="objectstore", mode="staged")


def cache_sort(context: StageContext, inputs: dict) -> t.Generator:
    """Configuration C: ``sort`` exchanging via a cache cluster, staged."""
    return sort(context, inputs, substrate="cache", mode="staged")


def relay_sort(context: StageContext, inputs: dict) -> t.Generator:
    """Configuration D: ``sort`` exchanging via a VM relay, staged."""
    return sort(context, inputs, substrate="relay", mode="staged")


def sharded_relay_sort(context: StageContext, inputs: dict) -> t.Generator:
    """Configuration E: ``sort`` via a sharded VM-relay fleet, staged."""
    return sort(context, inputs, substrate="sharded-relay", mode="staged")


def streaming_sort(context: StageContext, inputs: dict) -> t.Generator:
    """``sort`` in streaming mode on the ``substrate`` param's substrate."""
    return sort(context, inputs, mode="streaming")


# ----------------------------------------------------------------------
# warm-run lineage cache (adaptive sorts)
# ----------------------------------------------------------------------
def _plan_value(value: t.Any) -> t.Any:
    """Coerce a stage param into the canonical hash encoding's domain."""
    if isinstance(value, (type(None), bool, int, float, str, bytes)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plan_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plan_value(item) for key, item in value.items()}
    return repr(value)


def _lineage_lookup(context: StageContext, upstream: dict) -> t.Generator:
    """HEAD the input and look up (input, plan) in the lineage cache.

    The fingerprint covers the input's identity (etag + logical size)
    and the stage's *plan* — its full param dict — but deliberately not
    the stage name: two differently-named stages sorting the same input
    the same way are the same computation, and a hit returns the prior
    output manifest without provisioning anything.  Priced at exactly
    the one HEAD (control-plane cost); a hit whose outputs were deleted
    or overwritten degrades to a miss.

    Returns ``(fingerprint, artifact-or-None)``.
    """
    store = context.cloud.store
    meta = yield store.head(upstream["bucket"], upstream["key"])
    fingerprint = LineageCache.fingerprint(
        {
            "bucket": upstream["bucket"],
            "key": upstream["key"],
            "etag": meta.etag,
            "logical_size": meta.logical_size,
        },
        {name: _plan_value(value) for name, value in context.params.items()},
    )
    cache = lineage_cache_for(store)
    entry = cache.get(fingerprint)
    if entry is not None and lineage_outputs_present(store, entry.artifact):
        entry.hits += 1
        artifact = dict(entry.artifact)
        artifact["lineage"] = "hit"
        artifact["lineage_hits"] = entry.hits
        return fingerprint, artifact
    return fingerprint, None


def _lineage_store(
    context: StageContext, fingerprint: str | None, artifact: dict
) -> None:
    """Record a cold sort's artifact under its lineage fingerprint."""
    if fingerprint is None:
        return
    artifact["lineage"] = "miss"
    artifact["lineage_key"] = fingerprint[:16]
    lineage_cache_for(context.cloud.store).put(fingerprint, artifact)


def auto_sort(context: StageContext, inputs: dict) -> t.Generator:
    """Adaptive sort: choose the exchange substrate at execution time.

    Calls :func:`~repro.shuffle.adaptive.choose_exchange_substrate` on
    the upstream dataset's logical size, then runs the ``sort`` stage
    with the decision's configuration (substrate, mode, worker count,
    relay flavour, shard count) injected, so the stage executes exactly
    what was priced.  The decision — every substrate's priced
    estimate and the winner — is recorded in the stage artifact (and
    thereby the tracker report and Gantt label).

    Params: ``time_value_usd_per_hour`` (default 1.0 — the knob that
    trades latency against provisioned infrastructure), ``workers``
    (pin the count across all substrates; omit to let each plan its
    own), ``substrates`` (restrict the candidates), ``modes``
    (``("staged",)`` by default; add ``"streaming"`` to price the
    pipelined execution mode as a second decision variable — a
    streaming winner runs ``sort`` with ``mode="streaming"``),
    ``stream_chunk_mb``/``stream_buffer_mb`` (the streaming grain and
    reducer buffer bound, used both for pricing and execution),
    ``max_relay_shards`` (default 8), ``cache_node_type``,
    ``instance_type`` (pin the relay flavour), ``partition_skew``
    (expected max-over-mean partition bytes, default 1.0 — prices the
    straggler reducer in every candidate model, so a skewed workload
    may pick a different substrate/mode/configuration than a uniform
    one of the same size), plus the usual
    ``memory_mb``/``samplers``/``max_workers`` passed through to
    ``sort``.
    """
    if bool(context.param("online", False)):
        impl = stage_kind("online_sort")
        return (yield from impl(context, inputs))
    upstream = _single_input(inputs, context.spec.name)
    lineage_key = None
    if cas_enabled():
        lineage_key, cached = yield from _lineage_lookup(context, upstream)
        if cached is not None:
            return cached
    substrates = context.param("substrates")
    modes = context.param("modes")
    stream_chunk_mb = float(context.param("stream_chunk_mb", 32.0))
    workload = _workload(context)
    # Price with the same calibrated workload constants the dispatched
    # stage will execute with — a decision made for a faster imaginary
    # workload could pick the wrong substrate outright.
    decision = choose_exchange_substrate(
        upstream["logical_bytes"],
        context.cloud.profile,
        workers=context.param("workers"),
        cache_node_type=context.param("cache_node_type", "cache.r5.large"),
        relay_instance_type=context.param("instance_type") or None,
        time_value_usd_per_hour=float(
            context.param("time_value_usd_per_hour", 1.0)
        ),
        max_workers=int(context.param("max_workers", 256)),
        max_relay_shards=int(context.param("max_relay_shards", 8)),
        substrates=tuple(substrates) if substrates is not None else None,
        modes=tuple(modes) if modes is not None else ("staged",),
        stream_chunk_bytes=stream_chunk_mb * (1 << 20),
        partition_skew=float(context.param("partition_skew", 1.0)),
        shuffle_cost=workload.shuffle_cost_model(),
        cache_cost=workload.cache_shuffle_cost_model(),
        relay_cost=workload.relay_shuffle_cost_model(),
    )
    chosen = decision.chosen
    # Execute exactly the configuration the estimate priced.
    context.params["workers"] = chosen.workers
    context.params["substrate"] = chosen.substrate
    context.params["mode"] = chosen.mode
    if chosen.mode == "streaming":
        context.params["chunk_mb"] = stream_chunk_mb
        context.params["buffer_mb"] = float(
            context.param("stream_buffer_mb", 256.0)
        )
    if chosen.substrate == "cache":
        context.params["node_type"] = chosen.instance_type
        context.params["nodes"] = chosen.shards
    elif chosen.substrate == "relay":
        context.params["instance_type"] = chosen.instance_type
    elif chosen.substrate == "sharded-relay":
        context.params["instance_type"] = chosen.instance_type
        context.params["shards"] = chosen.shards
    artifact = yield from sort(context, inputs)
    artifact.update(
        substrate=chosen.substrate,
        substrate_mode=chosen.mode,
        substrate_workers=chosen.workers,
        substrate_predicted_s=chosen.predicted_s,
        substrate_provisioned_usd=chosen.provisioned_usd,
        substrate_score_usd=chosen.score_usd,
        substrate_decision=decision.describe(),
        # One-point "timeline" so static and online artifacts share a
        # shape (the online stage appends a point per re-selection).
        substrate_timeline=[decision.describe()],
        substrate_switches=0,
    )
    _lineage_store(context, lineage_key, artifact)
    return artifact


def online_sort(context: StageContext, inputs: dict) -> t.Generator:
    """Mid-stream adaptive sort: re-select the substrate *between chunks*.

    Runs :class:`~repro.shuffle.online.OnlineShuffleSort`: the exchange
    substrate, execution mode and worker count are re-chosen after
    every streaming wave from calibration refit on the waves' own
    observed chunk publish rates, and the relay fleet's routing is
    refined at chunk grain when a hot partition emerges mid-stream.

    Params mirror ``auto_sort`` (``time_value_usd_per_hour``,
    ``workers``, ``substrates``, ``modes`` — default
    ``("staged", "streaming")`` here, the online loop's natural set —
    ``stream_chunk_mb``/``stream_buffer_mb``, ``max_relay_shards``,
    ``cache_node_type``, ``instance_type``, ``partition_skew``,
    ``memory_mb``/``samplers``/``max_workers``) plus ``switch_margin``
    (hysteresis fraction a candidate must undercut the running
    configuration's refit score by; default 0.05).

    The artifact records the whole decision timeline:
    ``substrate_decision`` (the rendered timeline),
    ``substrate_timeline`` (one entry per decision point),
    ``substrate_switches`` and ``chunk_reroutes``.
    """
    upstream = _single_input(inputs, context.spec.name)
    lineage_key = None
    if cas_enabled():
        lineage_key, cached = yield from _lineage_lookup(context, upstream)
        if cached is not None:
            return cached
    memory_mb = int(context.param("memory_mb", 2048))
    executor = _function_executor(context, memory_mb)
    workload = _workload(context)
    substrates = context.param("substrates")
    modes = context.param("modes")
    buffer_mb = float(context.param("stream_buffer_mb", 256.0))
    stream = StreamConfig(
        chunk_bytes=float(context.param("stream_chunk_mb", 32.0)) * (1 << 20),
        buffer_bytes=buffer_mb * (1 << 20) if buffer_mb > 0 else None,
        poll_interval_s=float(context.param("poll_interval", 0.2)),
    )
    operator = OnlineShuffleSort(
        executor,
        bed_record_codec(),
        stream=stream,
        shuffle_cost=workload.shuffle_cost_model(),
        cache_cost=workload.cache_shuffle_cost_model(),
        relay_cost=workload.relay_shuffle_cost_model(),
        time_value_usd_per_hour=float(
            context.param("time_value_usd_per_hour", 1.0)
        ),
        substrates=tuple(substrates) if substrates is not None else None,
        modes=tuple(modes) if modes is not None else ("staged", "streaming"),
        cache_node_type=context.param("cache_node_type", "cache.r5.large"),
        relay_instance_type=context.param("instance_type") or None,
        max_relay_shards=int(context.param("max_relay_shards", 8)),
        partition_skew=float(context.param("partition_skew", 1.0)),
        switch_margin=float(context.param("switch_margin", 0.05)),
    )
    result = yield operator.sort(
        upstream["bucket"],
        upstream["key"],
        out_bucket=context.bucket,
        out_prefix=f"{context.spec.name}",
        workers=context.param("workers"),
        samplers=int(context.param("samplers", 8)),
        max_workers=int(context.param("max_workers", 256)),
    )
    report = operator.report
    timeline = operator.timeline
    final = timeline.final.decision.chosen
    artifact = {
        **_result_fields(result),
        "substrate": final.substrate,
        "substrate_mode": "online",
        "substrate_workers": final.workers,
        "predicted_s": report.predicted_s,
        "actual_s": report.actual_s,
        "substrate_predicted_s": final.predicted_s,
        "substrate_provisioned_usd": report.provisioned_usd,
        "substrate_score_usd": final.score_usd,
        "substrate_decision": timeline.describe(),
        "substrate_timeline": [point.describe() for point in timeline],
        "substrate_switches": timeline.switches,
        "chunk_reroutes": operator.chunk_reroutes,
        "overlap_s": report.overlap_s,
        "buffer_high_watermark_bytes": report.buffer_high_watermark_bytes,
        "buffer_backpressure_waits": report.buffer_backpressure_waits,
        "stream_chunks": report.stream_chunks,
    }
    _lineage_store(context, lineage_key, artifact)
    return artifact


def vm_sort(context: StageContext, inputs: dict) -> t.Generator:
    """Configuration A: sort inside a large-memory VM.

    Params: ``instance_type`` (default bx2-8x32), ``partitions`` (output
    runs; default 8), ``download_chunk_mb`` (range-GET granularity).

    The VM downloads the whole object with parallel ranged GETs, parses
    and sorts it in memory using all vCPUs, range-partitions the result
    and uploads the runs — then terminates.  Data still passes through
    object storage (the paper keeps COS as the data-passing mechanism in
    both pipelines); what changes is *where the all-to-all happens*.
    """
    upstream = _single_input(inputs, context.spec.name)
    instance_type = context.param("instance_type", "bx2-8x32")
    partitions = int(context.param("partitions", 8))
    # The chunk granularity is a *logical* size: scaled-down runs must
    # still spread the download over the same number of connections.
    chunk_logical = int(context.param("download_chunk_mb", 32)) * (1 << 20)
    chunk_real = max(1, int(chunk_logical / context.cloud.logical_scale))
    workload = _workload(context)
    bucket = context.bucket
    stage_name = context.spec.name

    vm = yield context.cloud.vms.provision(instance_type)

    def sort_task(vm_context) -> t.Generator:
        meta = yield vm_context.storage.head(upstream["bucket"], upstream["key"])
        size = meta.size

        # Parallel ranged download through the NIC-capped io slots.
        offsets = list(range(0, size, chunk_real)) or [0]
        chunks: dict[int, bytes] = {}

        def fetch(index: int, start: int) -> t.Generator:
            yield vm_context.io_slot().acquire()
            try:
                chunks[index] = yield vm_context.storage.get_range(
                    upstream["bucket"], upstream["key"], start,
                    min(size, start + chunk_real),
                )
            finally:
                vm_context.io_slot().release()

        fetchers = [
            vm_context.sim.process(fetch(index, start), name=f"vmfetch{index}")
            for index, start in enumerate(offsets)
        ]
        yield vm_context.sim.all_of([process.completion for process in fetchers])
        payload = b"".join(chunks[index] for index in sorted(chunks))

        # Parse + sort on all vCPUs (modeled CPU; real sort on real data).
        lines = payload.split(b"\n")[:-1]
        lines.sort(key=bed_sort_key)
        vcpus = vm.instance_type.vcpus
        total_cpu = (
            len(payload) * vm_context.logical_scale / workload.vm_sort_throughput
        )
        workers = [vm_context.compute(total_cpu / vcpus) for _ in range(vcpus)]
        yield vm_context.sim.all_of(workers)

        # Range partitioning = equal-count contiguous slices of the
        # sorted list; upload the runs in parallel.
        run_puts = []
        run_infos = []
        base, remainder = divmod(len(lines), partitions)
        cursor = 0
        for reducer_id in range(partitions):
            count = base + (1 if reducer_id < remainder else 0)
            body = b"".join(
                line + b"\n" for line in lines[cursor : cursor + count]
            )
            cursor += count
            key = paths.shuffle_output_key(stage_name, reducer_id)
            run_puts.append((bucket, key, body))
            run_infos.append(
                {
                    "bucket": bucket,
                    "key": key,
                    "records": count,
                    "bytes": len(body),
                }
            )
        yield vm_context.parallel_put(run_puts)
        return run_infos

    started = context.sim.now
    run_infos = yield vm.run(sort_task, name="sort")
    vm.terminate()
    return {
        "runs": run_infos,
        "workers": partitions,
        "records": sum(info["records"] for info in run_infos),
        "duration_s": context.sim.now - started,
        "vm_type": instance_type,
    }


# ----------------------------------------------------------------------
# encode / verify stages
# ----------------------------------------------------------------------
def methcomp_encode(context: StageContext, inputs: dict) -> t.Generator:
    """Compress each sorted run with the METHCOMP codec (cloud functions).

    Params: ``memory_mb`` (default 2048).  Parallelism equals the number
    of runs produced by the sort stage (the paper's second stage is
    embarrassingly parallel over partitions).
    """
    upstream = _single_input(inputs, context.spec.name)
    memory_mb = int(context.param("memory_mb", 2048))
    executor = _function_executor(context, memory_mb)
    workload = _workload(context)
    tasks = [
        {
            "bucket": run["bucket"],
            "key": run["key"],
            "out_bucket": context.bucket,
            "out_key": f"{context.spec.name}/block{index:05d}.mcmp",
            "throughput_bps": workload.encode_throughput,
        }
        for index, run in enumerate(upstream["runs"])
    ]
    futures = yield executor.map(encode_worker, tasks)
    results = yield executor.get_result(futures)
    raw_bytes = sum(result["raw_bytes"] for result in results)
    compressed_bytes = sum(result["compressed_bytes"] for result in results)
    return {
        "blocks": [
            {"bucket": context.bucket, "key": result["out_key"],
             "records": result["records"]}
            for result in results
        ],
        "records": sum(result["records"] for result in results),
        "raw_bytes": raw_bytes,
        "compressed_bytes": compressed_bytes,
        "ratio": (raw_bytes / compressed_bytes) if compressed_bytes else 0.0,
        "workers": len(tasks),
    }


def methcomp_verify(context: StageContext, inputs: dict) -> t.Generator:
    """Decompress every block and check record conservation.

    Params: ``memory_mb``.  Fails the workflow if records were lost.
    """
    upstream = _single_input(inputs, context.spec.name)
    memory_mb = int(context.param("memory_mb", 2048))
    executor = _function_executor(context, memory_mb)
    workload = _workload(context)
    tasks = [
        {
            "bucket": block["bucket"],
            "key": block["key"],
            "out_bucket": context.bucket,
            "out_key": f"{context.spec.name}/restored{index:05d}.bed",
            "throughput_bps": workload.decode_throughput,
        }
        for index, block in enumerate(upstream["blocks"])
    ]
    futures = yield executor.map(decode_worker, tasks)
    results = yield executor.get_result(futures)
    restored = sum(result["records"] for result in results)
    expected = upstream["records"]
    if restored != expected:
        raise WorkflowError(
            f"verification failed: restored {restored} records, "
            f"expected {expected}"
        )
    return {"verified": True, "records": restored}


def register_builtin_stage_kinds() -> None:
    """Idempotently register the METHCOMP stage kinds."""
    from repro.workflows.engine import registered_kinds

    builtin = {
        "methylome_dataset": methylome_dataset,
        "dataset_ref": dataset_ref,
        "sort": sort,
        "shuffle_sort": shuffle_sort,
        "cache_sort": cache_sort,
        "relay_sort": relay_sort,
        "sharded_relay_sort": sharded_relay_sort,
        "streaming_sort": streaming_sort,
        "auto_sort": auto_sort,
        "online_sort": online_sort,
        "vm_sort": vm_sort,
        "methcomp_encode": methcomp_encode,
        "methcomp_verify": methcomp_verify,
    }
    existing = set(registered_kinds())
    for kind, impl in builtin.items():
        if kind not in existing:
            register_stage_kind(kind, impl)


register_builtin_stage_kinds()
