"""Cross-substrate parity: the exchange moves bytes, never changes them.

For seeded random inputs, all four substrates (object storage, cache
cluster, VM relay, sharded relay fleet) must produce byte-identical
sorted runs — only
latency and cost may differ.  This is the invariant the S8 comparison
rests on: if the substrates disagreed on the artifact, their latency
numbers would not be comparable.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready
from repro.executor import FunctionExecutor
from repro.shuffle import (
    CacheExchange,
    FixedWidthCodec,
    LineRecordCodec,
    RelayExchange,
    ShardedRelayExchange,
    ShuffleSort,
)

SUBSTRATES = ("objectstore", "cache", "relay", "sharded-relay")


def make_fixed_payload(count, seed, record_size=16):
    rng = random.Random(seed)
    return b"".join(
        rng.getrandbits(64).to_bytes(8, "big") + bytes(record_size - 8)
        for _ in range(count)
    )


def make_line_payload(count, seed):
    rng = random.Random(seed)
    return b"".join(
        b"%016x\t%d\n" % (rng.getrandbits(64), rng.randrange(10**6))
        for _ in range(count)
    )


def run_substrate(substrate, codec, payload, workers, seed):
    """Run one sort on a fresh region; returns (runs_bytes, result)."""
    cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    executor = FunctionExecutor(cloud)
    if substrate == "objectstore":
        operator = ShuffleSort(executor, codec)
    elif substrate == "cache":
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
        operator = ShuffleSort(executor, codec, backend=CacheExchange(cluster))
    elif substrate == "sharded-relay":
        fleet = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
        operator = ShuffleSort(executor, codec, backend=ShardedRelayExchange(fleet))
    else:
        relay = relay_ready(cloud.vms, "bx2-8x32")
        operator = ShuffleSort(executor, codec, backend=RelayExchange(relay))

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=workers))

    result = cloud.sim.run_process(driver())
    runs = [cloud.store.peek("data", run.key) for run in result.runs]
    return runs, result


def test_conflicting_cost_and_backend_rejected():
    """cost belongs to the default substrate; a backend carries its own."""
    from repro.errors import ShuffleError
    from repro.shuffle import ObjectStoreExchange, ShuffleCostModel

    cloud = Cloud.fresh(seed=1, profile=ibm_us_east(deterministic=True))
    executor = FunctionExecutor(cloud)
    codec = FixedWidthCodec(record_size=16, key_bytes=8)
    with pytest.raises(ShuffleError, match="not both"):
        ShuffleSort(executor, codec, cost=ShuffleCostModel(),
                    backend=ObjectStoreExchange())


class TestExchangeParity:
    @given(
        seed=st.integers(0, 2**16),
        workers=st.sampled_from([1, 2, 3, 5, 8]),
        count=st.integers(200, 1200),
    )
    @settings(max_examples=8, deadline=None)
    def test_fixed_width_runs_byte_identical(self, seed, workers, count):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = make_fixed_payload(count, seed)
        per_substrate = {
            substrate: run_substrate(substrate, codec, payload, workers, seed)
            for substrate in SUBSTRATES
        }
        baseline_runs, baseline = per_substrate["objectstore"]
        merged = b"".join(baseline_runs)
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)
        assert baseline.total_records == count
        for substrate in ("cache", "relay", "sharded-relay"):
            runs, result = per_substrate[substrate]
            # Same partitioning, same per-run payloads, byte for byte.
            assert runs == baseline_runs, f"{substrate} diverged"
            assert result.total_records == baseline.total_records

    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(max_examples=4, deadline=None)
    def test_line_records_runs_byte_identical(self, seed, workers):
        codec = LineRecordCodec(key_fn=lambda record: record.split(b"\t")[0])
        payload = make_line_payload(600, seed)
        outputs = {
            substrate: run_substrate(substrate, codec, payload, workers, seed)[0]
            for substrate in SUBSTRATES
        }
        assert outputs["cache"] == outputs["objectstore"]
        assert outputs["relay"] == outputs["objectstore"]
        assert outputs["sharded-relay"] == outputs["objectstore"]

    def test_relay_shuffle_survives_injected_crashes(self):
        """Retried/speculative attempts must find their relay partitions
        still resident: with the default (no reducer-side consumption)
        the sort is idempotent under executor re-invocations."""
        cloud = Cloud.fresh(seed=13, profile=ibm_us_east(deterministic=True))
        cloud.store.ensure_bucket("data")
        cloud.faas.crash_probability = 0.25
        cloud.faas.crash_latest_s = 2.0
        relay = relay_ready(cloud.vms, "bx2-8x32")
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = make_fixed_payload(4000, seed=7)
        operator = ShuffleSort(
            FunctionExecutor(cloud, retries=4), codec, backend=RelayExchange(relay)
        )

        def driver():
            yield cloud.store.put("data", "input.bin", payload)
            return (yield operator.sort("data", "input.bin", workers=4))

        result = cloud.sim.run_process(driver())
        assert cloud.faas.stats.crashes > 0  # the injection actually bit
        merged = b"".join(cloud.store.peek("data", run.key) for run in result.runs)
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)
        assert result.total_records == 4000

    def test_reused_relay_reports_per_sort_deltas(self):
        """A caller-owned relay may serve several sorts; each report
        must cover only its own sort, not the relay's lifetime."""
        cloud = Cloud.fresh(seed=21, profile=ibm_us_east(deterministic=True))
        cloud.store.ensure_bucket("data")
        relay = relay_ready(cloud.vms, "bx2-8x32")
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        operator = ShuffleSort(
            FunctionExecutor(cloud), codec, backend=RelayExchange(relay)
        )

        def run_once(key, prefix):
            def driver():
                yield cloud.store.put("data", key, make_fixed_payload(1000, 5))
                return (yield operator.sort("data", key, out_prefix=prefix,
                                            workers=3))

            cloud.sim.run_process(driver())
            return operator.report

        first = run_once("in1.bin", "sort1")
        second = run_once("in2.bin", "sort2")
        # 3 mappers x 3 partitions each, per sort — not cumulative.
        assert first.pushes == 9
        assert second.pushes == 9
        assert second.pulls == 9

    def test_latency_and_cost_may_differ_but_bytes_do_not(self):
        """The comparison's contract in one example: different timing
        and billing, identical artifact."""
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = make_fixed_payload(3000, seed=11)
        runs = {}
        durations = {}
        for substrate in SUBSTRATES:
            substrate_runs, result = run_substrate(
                substrate, codec, payload, workers=4, seed=11
            )
            runs[substrate] = substrate_runs
            durations[substrate] = result.duration_s
        assert (
            runs["objectstore"] == runs["cache"] == runs["relay"]
            == runs["sharded-relay"]
        )
        # Substrate timings genuinely differ (they model different
        # hardware) — parity is about bytes, not clocks.
        assert len(set(durations.values())) > 1
