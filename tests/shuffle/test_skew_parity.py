"""Skewed-workload parity across substrates and routing modes (PR 5).

The exchange contract under skew: a Zipf dataset produces *byte
identical* sorted artifacts on all four substrates, in both execution
modes, with either fleet routing — and every backend reports the same
measured ``partition_skew``, because skew is a property of the data and
the boundaries, not of where the bytes travelled.
"""

import random

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready
from repro.executor import FunctionExecutor
from repro.shuffle import (
    CacheExchange,
    FixedWidthCodec,
    ObjectStoreExchange,
    PartitionLoadRouter,
    RelayExchange,
    RelayShuffleCostModel,
    ShardedRelayExchange,
    ShuffleSort,
    SkewSpec,
    StreamConfig,
    build_rebalance_assignments,
    skewed_fixed_payload,
)

SEED = 29
WORKERS = 6
RECORDS = 2500
ZIPF = SkewSpec(distribution="zipf", zipf_s=1.5, distinct_keys=8)

STAGED = ("objectstore", "cache", "relay", "sharded-relay")
STREAMING = (
    "streaming-objectstore", "streaming-cache", "streaming-relay",
    "streaming-sharded-relay",
)

#: Several chunks per mapper and a reducer buffer far below the hot
#: partition's bytes: the bounded buffer must absorb the burst by
#: pacing fetchers, never by deadlocking.
TINY_STREAM = StreamConfig(
    chunk_bytes=4096.0, buffer_bytes=8192.0, poll_interval_s=0.05
)


def run_substrate(substrate, payload, rebalance=True):
    """One skewed sort on a fresh region; returns (runs, report, relay)."""
    cloud = Cloud.fresh(seed=SEED, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    executor = FunctionExecutor(cloud)
    codec = FixedWidthCodec(record_size=16, key_bytes=8)
    relay = None
    cost = RelayShuffleCostModel()
    cost.rebalance = rebalance
    if substrate == "objectstore":
        operator = ShuffleSort(executor, codec)
    elif substrate == "cache":
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
        operator = ShuffleSort(executor, codec, backend=CacheExchange(cluster))
    elif substrate == "relay":
        relay = relay_ready(cloud.vms, "bx2-8x32")
        operator = ShuffleSort(executor, codec, backend=RelayExchange(relay))
    elif substrate == "sharded-relay":
        relay = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
        operator = ShuffleSort(
            executor, codec, backend=ShardedRelayExchange(relay, cost)
        )
    elif substrate == "streaming-objectstore":
        operator = ShuffleSort(
            executor, codec, backend=ObjectStoreExchange(stream=TINY_STREAM)
        )
    elif substrate == "streaming-cache":
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
        operator = ShuffleSort(
            executor, codec, backend=CacheExchange(cluster, stream=TINY_STREAM)
        )
    elif substrate == "streaming-relay":
        relay = relay_ready(cloud.vms, "bx2-8x32")
        operator = ShuffleSort(
            executor, codec, backend=RelayExchange(relay, stream=TINY_STREAM)
        )
    else:  # streaming-sharded-relay
        relay = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
        operator = ShuffleSort(
            executor, codec,
            backend=ShardedRelayExchange(
                relay, cost=cost, stream=TINY_STREAM
            ),
        )

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=WORKERS))

    result = cloud.sim.run_process(driver())
    runs = [cloud.store.peek("data", run.key) for run in result.runs]
    return runs, operator.report, relay


@pytest.fixture(scope="module")
def zipf_payload():
    return skewed_fixed_payload(RECORDS, ZIPF, seed=SEED)


@pytest.fixture(scope="module")
def per_substrate(zipf_payload):
    return {
        substrate: run_substrate(substrate, zipf_payload)
        for substrate in STAGED + STREAMING
    }


class TestZipfCrossSubstrateParity:
    def test_all_substrates_and_modes_byte_identical(self, per_substrate):
        baseline, _report, _relay = per_substrate["objectstore"]
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        merged = b"".join(baseline)
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)
        assert len(keys) == RECORDS
        for substrate in STAGED + STREAMING:
            runs, _report, _relay = per_substrate[substrate]
            assert runs == baseline, f"{substrate} diverged under Zipf keys"

    def test_partition_skew_agrees_across_backends(self, per_substrate):
        """Skew is measured on the artifact, which is identical — every
        backend must therefore report the same number."""
        skews = {
            substrate: report.partition_skew
            for substrate, (_runs, report, _relay) in per_substrate.items()
        }
        baseline = skews["objectstore"]
        assert baseline > 1.5  # the workload is genuinely skewed
        for substrate, skew in skews.items():
            assert skew == pytest.approx(baseline), substrate

    def test_sampling_estimate_tracks_measured_skew(self, per_substrate):
        _runs, report, _relay = per_substrate["objectstore"]
        assert report.predicted_partition_skew == pytest.approx(
            report.partition_skew, rel=0.35
        )

    def test_hot_partition_burst_respects_bounded_buffers(self, per_substrate):
        """The hot partition's reducer receives far more than its buffer
        bound; the run completing at byte parity (above) proves no
        deadlock, and the watermark shows the buffer actually filled."""
        for substrate in STREAMING:
            _runs, report, _relay = per_substrate[substrate]
            assert report.buffer_high_watermark_bytes > 0.0
            assert report.mode == "streaming"

    def test_zero_residual_relay_reservations(self, per_substrate):
        for substrate in (
            "relay", "sharded-relay", "streaming-relay",
            "streaming-sharded-relay",
        ):
            _runs, _report, relay = per_substrate[substrate]
            assert relay.residual_reservation_bytes() == 0.0
            assert relay.active_flows == 0
            relay.check_memory_accounting()


class TestLoadAwareRouting:
    def test_crc_and_rebalanced_routing_byte_identical(self, zipf_payload):
        rebalanced, report_on, fleet_on = run_substrate(
            "sharded-relay", zipf_payload, rebalance=True
        )
        crc, report_off, fleet_off = run_substrate(
            "sharded-relay", zipf_payload, rebalance=False
        )
        assert rebalanced == crc
        assert report_on.rebalanced is True
        assert report_off.rebalanced is False
        # Routing moved bytes between shards, not out of the fleet.
        assert sum(report_on.shard_bytes) == pytest.approx(
            sum(report_off.shard_bytes)
        )
        assert fleet_on.residual_reservation_bytes() == 0.0
        assert fleet_off.residual_reservation_bytes() == 0.0

    def test_streaming_fleet_rebalances_too(self, zipf_payload):
        _runs, report, fleet = run_substrate(
            "streaming-sharded-relay", zipf_payload, rebalance=True
        )
        assert report.rebalanced is True
        assert fleet.residual_reservation_bytes() == 0.0

    def test_router_is_a_pure_function_of_the_key(self):
        assignments = build_rebalance_assignments([100.0, 50.0, 25.0], 3, 2)
        router = PartitionLoadRouter(assignments)
        staged_key = "prefix/m00001.r00002"
        stream_key = "prefix/m00001.r00002.c00007"
        assert router(staged_key) == router(staged_key)
        # Streaming chunk keys of the same (mapper, reducer) route to
        # the same shard as the staged key — the layout token is shared.
        assert router(stream_key) == router(staged_key)
        # Header keys carry no partition token: CRC fallback.
        assert router("prefix/m00001.hdr") is None
        # Out-of-matrix ids (another sort's wider grid): CRC fallback.
        assert router("prefix/m00009.r00000") is None
        assert router("prefix/m00000.r00009") is None
        # A prefix that *contains* an m.r token must not hijack the
        # routing: only the key's trailing layout token counts.
        assert router("job-m1.r2/m00002.r00001") == router(
            "other/m00002.r00001"
        )
        assert router("job-m1.r2/m00001.hdr") is None

    def test_rebalance_assignments_balance_planned_bytes(self):
        workers, shards = 4, 2
        predicted = [900.0, 60.0, 30.0, 10.0]
        assignments = build_rebalance_assignments(predicted, workers, shards)
        loads = [0.0] * shards
        for mapper_row in assignments:
            for reducer, shard in enumerate(mapper_row):
                loads[shard] += predicted[reducer] / workers
        assert max(loads) / sum(loads) == pytest.approx(0.5, abs=0.05)

    def test_rebalance_assignments_validate_input(self):
        from repro.errors import ShuffleError

        with pytest.raises(ShuffleError):
            build_rebalance_assignments([1.0, 2.0], 3, 2)
        with pytest.raises(ShuffleError):
            build_rebalance_assignments([1.0], 1, 0)
        with pytest.raises(ShuffleError):
            PartitionLoadRouter(())

    def test_reused_fleet_drops_previous_rebalance_map(self, zipf_payload):
        """A caller-owned fleet may serve several sorts; each sort's
        routing state must be its own (a W=6 map must not leak into a
        uniform follow-up sort)."""
        cloud = Cloud.fresh(seed=SEED, profile=ibm_us_east(deterministic=True))
        cloud.store.ensure_bucket("data")
        executor = FunctionExecutor(cloud)
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        fleet = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
        operator = ShuffleSort(executor, codec, backend=ShardedRelayExchange(fleet))

        def run_once(key, payload, prefix):
            def driver():
                yield cloud.store.put("data", key, payload)
                return (
                    yield operator.sort("data", key, out_prefix=prefix,
                                        workers=WORKERS)
                )

            cloud.sim.run_process(driver())
            return operator.report

        first = run_once("in1.bin", zipf_payload, "sort1")
        assert first.rebalanced is True
        uniform = random.Random(3).randbytes(16 * 500)
        second = run_once("in2.bin", uniform, "sort2")
        assert second.rebalanced is True  # fresh map for the new sort
        assert fleet.residual_reservation_bytes() == 0.0
        fleet.check_memory_accounting()
