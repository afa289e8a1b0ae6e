"""Concurrent sorts on one shared relay fleet: routing, peaks, parity.

Before namespaced routers, two sharded sorts sharing a fleet would
clobber each other's rebalance maps (``set_router`` was fleet-global)
and reset each other's peak watermark (``reset_peak`` was relay-global).
These tests pin the fix: concurrent sorts each keep their own routing
and peak epoch, produce byte-identical artifacts to solo runs, and in
consume mode leave the shared fleet empty for the next job.
"""

import random

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm.fleet import fleet_ready
from repro.executor import FunctionExecutor
from repro.shuffle import (
    FixedWidthCodec,
    ShardedRelayExchange,
    ShuffleSort,
    SkewSpec,
    skewed_fixed_payload,
)
from repro.shuffle.relayplanner import RelayShuffleCostModel

RECORDS = 2000
WORKERS = 4
SPEC = SkewSpec(distribution="zipf", zipf_s=1.3, distinct_keys=16)


def payload_for(seed):
    return skewed_fixed_payload(RECORDS, SPEC, seed)


def codec():
    return FixedWidthCodec(record_size=16, key_bytes=8)


def solo_runs(payload, seed, consume=False):
    """One sort alone on its own fresh region; returns run bytes."""
    cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    fleet = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
    executor = FunctionExecutor(cloud)
    cost = RelayShuffleCostModel(consume=consume)
    operator = ShuffleSort(executor, codec(), backend=ShardedRelayExchange(fleet, cost))

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (
            yield operator.sort(
                "data", "input.bin", out_prefix="solo", workers=WORKERS
            )
        )

    result = cloud.sim.run_process(driver())
    return [cloud.store.peek(run.bucket, run.key) for run in result.runs]


@pytest.mark.parametrize("consume", [False, True])
def test_two_concurrent_sorts_keep_router_and_byte_parity(consume):
    """Two sorts race on one fleet; each must match its solo artifact."""
    payload_a = payload_for(101)
    payload_b = payload_for(202)
    cloud = Cloud.fresh(seed=9, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    fleet = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
    cost_a = RelayShuffleCostModel(consume=consume)
    cost_b = RelayShuffleCostModel(consume=consume)
    op_a = ShuffleSort(
        FunctionExecutor(cloud), codec(), backend=ShardedRelayExchange(fleet, cost_a)
    )
    op_b = ShuffleSort(
        FunctionExecutor(cloud), codec(), backend=ShardedRelayExchange(fleet, cost_b)
    )

    def driver():
        yield cloud.store.put("data", "a.bin", payload_a)
        yield cloud.store.put("data", "b.bin", payload_b)
        sort_a = op_a.sort("data", "a.bin", out_prefix="job-a", workers=WORKERS)
        sort_b = op_b.sort("data", "b.bin", out_prefix="job-b", workers=WORKERS)
        results = yield cloud.sim.all_of([sort_a, sort_b])
        return results

    result_a, result_b = cloud.sim.run_process(driver())
    runs_a = [cloud.store.peek(r.bucket, r.key) for r in result_a.runs]
    runs_b = [cloud.store.peek(r.bucket, r.key) for r in result_b.runs]

    # Byte parity with the solo artifacts: neither sort's rebalance map
    # nor peak epoch disturbed the other's.
    assert runs_a == solo_runs(payload_a, 101, consume=consume)
    assert runs_b == solo_runs(payload_b, 202, consume=consume)

    # Both sorts rebalanced (zipf data, 2 shards) under their own
    # namespaces, and both retired their routers on completion.
    assert op_a.backend.rebalance_assignments is not None
    assert op_b.backend.rebalance_assignments is not None
    assert fleet._routers == {}

    # Clean substrate for the next job.
    assert fleet.residual_reservation_bytes() == 0.0
    fleet.check_memory_accounting()
    if consume:
        # Consume mode: committed reducers drained every partition.
        assert fleet.key_count == 0


def test_concurrent_sorts_report_their_own_peaks():
    """Each sort's reported peak fill reflects its own epoch, not a
    relay-global watermark another job reset mid-flight."""
    payload_a = payload_for(11)
    payload_b = payload_for(22)
    cloud = Cloud.fresh(seed=3, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    fleet = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
    op_a = ShuffleSort(
        FunctionExecutor(cloud), codec(), backend=ShardedRelayExchange(fleet)
    )
    op_b = ShuffleSort(
        FunctionExecutor(cloud), codec(), backend=ShardedRelayExchange(fleet)
    )

    def driver():
        yield cloud.store.put("data", "a.bin", payload_a)
        yield cloud.store.put("data", "b.bin", payload_b)
        sort_a = op_a.sort("data", "a.bin", out_prefix="job-a", workers=WORKERS)
        # Stagger the second sort so it begins its epoch mid-first-sort;
        # pre-fix, its validate would have reset the global peak.
        yield cloud.sim.timeout(0.2)
        sort_b = op_b.sort("data", "b.bin", out_prefix="job-b", workers=WORKERS)
        yield cloud.sim.all_of([sort_a, sort_b])

    cloud.sim.run_process(driver())
    peak_a = op_a.report.extra["peak_fill_fraction"]
    peak_b = op_b.report.extra["peak_fill_fraction"]
    assert peak_a > 0.0
    assert peak_b > 0.0
    # The fleet-lifetime peak bounds both epochs from above.
    lifetime = max(
        shard.peak_used_logical / shard.capacity_bytes
        for shard in fleet.shards
    )
    assert peak_a <= lifetime + 1e-12
    assert peak_b <= lifetime + 1e-12
