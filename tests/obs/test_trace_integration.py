"""Tracing integration: real sorts, chaos, speculation — and parity.

The tentpole invariants pinned here:

* **attempt spans everywhere** — every executed activation gets one
  span, parented under the wave that submitted it, carrying exchange-op
  events, across all four substrates and both execution modes;
* **exactly-once end under chaos** — crash injection and speculative
  backups (whose losers are *cancelled* mid-flight) still end every
  span exactly once: ``tracer.validate()`` returns no problems;
* **zero-cost-off / byte parity** — the sorted artifact is
  byte-identical with tracing enabled and disabled, under chaos and
  under speculation: the tracer is interpreter-side bookkeeping,
  invisible to the simulation.
"""

import random

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready
from repro.executor import FunctionExecutor, SpeculationPolicy
from repro.shuffle import (
    FixedWidthCodec,
    ShardedRelayExchange,
    ShuffleSort,
    StreamConfig,
    exchange_backend,
)

CODEC = FixedWidthCodec(record_size=16, key_bytes=8)
RECORDS = 2000
WORKERS = 4
SEED = 13
STREAM = StreamConfig(
    chunk_bytes=4096.0, buffer_bytes=8192.0, poll_interval_s=0.05
)

SUBSTRATES = ("objectstore", "cache", "relay", "sharded-relay")

#: Exchange-op event prefixes each substrate's attempts must carry.
EXPECTED_EVENTS = {
    "objectstore": ("storage.",),
    "cache": ("cache.",),
    "relay": ("relay.",),
    "sharded-relay": ("relay.",),
}


def make_payload(count=RECORDS, seed=SEED, record_size=16):
    rng = random.Random(seed)
    return b"".join(
        rng.getrandbits(64).to_bytes(8, "big") + bytes(record_size - 8)
        for _ in range(count)
    )


def make_operator(cloud, substrate, mode, executor):
    provisioned = {
        "objectstore": lambda: None,
        "cache": lambda: cloud.cache.provision_ready("cache.r5.large", nodes=2),
        "relay": lambda: relay_ready(cloud.vms, "bx2-8x32"),
        "sharded-relay": lambda: fleet_ready(cloud.vms, "bx2-8x32", shards=2),
    }[substrate]()
    stream = STREAM if mode == "streaming" else None
    return ShuffleSort(
        executor, CODEC, backend=exchange_backend(substrate, provisioned, stream=stream)
    )


def run_sort(
    substrate,
    mode,
    payload,
    spans,
    crash_rate=0.0,
    speculation=None,
    seed=SEED,
):
    cloud = Cloud.fresh(
        seed=seed, profile=ibm_us_east(deterministic=True), spans=spans
    )
    cloud.store.ensure_bucket("data")
    if crash_rate:
        cloud.faas.crash_probability = crash_rate
        cloud.faas.crash_latest_s = 0.1
    executor = FunctionExecutor(cloud, retries=6, speculation=speculation)
    operator = make_operator(cloud, substrate, mode, executor)

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=WORKERS))

    result = cloud.sim.run_process(driver())
    runs = [cloud.store.peek("data", run.key) for run in result.runs]
    return runs, cloud


@pytest.mark.parametrize("mode", ("staged", "streaming"))
@pytest.mark.parametrize("substrate", SUBSTRATES)
class TestSpanTreePerSubstrate:
    def test_attempts_parent_under_waves_with_exchange_events(
        self, substrate, mode
    ):
        payload = make_payload()
        _runs, cloud = run_sort(substrate, mode, payload, spans=True)
        tracer = cloud.sim.tracer
        assert tracer.validate() == []
        by_id = {span.span_id: span for span in tracer.spans}
        sorts = [s for s in tracer.spans if s.category == "sort"]
        waves = [s for s in tracer.spans if s.category == "wave"]
        attempts = [s for s in tracer.spans if s.category == "attempt"]
        assert len(sorts) == 1
        assert len(waves) >= 3  # sample + map + reduce
        assert len(attempts) >= 2 * WORKERS
        for wave in waves:
            assert by_id[wave.parent_id].category == "sort"
        for attempt in attempts:
            assert by_id[attempt.parent_id].category == "wave"
            assert attempt.status == "ok"
            assert attempt.attributes.get("track", "").startswith("worker-")
        # The substrate's exchange ops appear as attempt span events.
        names = {
            name for span in attempts for _at, name, _attrs in span.events
        }
        for prefix in EXPECTED_EVENTS[substrate]:
            assert any(name.startswith(prefix) for name in names), (
                substrate, mode, sorted(names),
            )

    def test_tracing_off_records_nothing(self, substrate, mode):
        payload = make_payload()
        _runs, cloud = run_sort(substrate, mode, payload, spans=False)
        assert cloud.sim.tracer.spans == []
        assert cloud.sim.tracer.open_span_count == 0


@pytest.mark.parametrize("substrate", ("objectstore", "sharded-relay"))
class TestChaosLifecycle:
    def test_crashed_attempts_end_exactly_once(self, substrate):
        payload = make_payload()
        _runs, cloud = run_sort(
            substrate, "streaming", payload, spans=True, crash_rate=0.25
        )
        tracer = cloud.sim.tracer
        assert cloud.faas.stats.crashes > 0, "no crash injected"
        assert tracer.validate() == []
        outcomes = {
            span.status
            for span in tracer.spans
            if span.category == "attempt"
        }
        assert "crashed" in outcomes or "error" in outcomes or "ok" in outcomes
        # Every attempt span ended, whatever its outcome.
        assert tracer.open_span_count == 0

    def test_chaos_parity_traced_vs_untraced(self, substrate):
        payload = make_payload()
        traced, _cloud = run_sort(
            substrate, "streaming", payload, spans=True, crash_rate=0.25
        )
        untraced, _cloud = run_sort(
            substrate, "streaming", payload, spans=False, crash_rate=0.25
        )
        assert traced == untraced


class TestSpeculationLifecycle:
    POLICY = SpeculationPolicy(quantile=0.5, latency_multiplier=1.05)

    def heavy_tailed(self):
        profile = ibm_us_east()
        profile.faas.cold_start.mean = 1.5
        profile.faas.cold_start.sigma = 1.4
        return profile

    def run(self, spans):
        payload = make_payload()
        cloud = Cloud.fresh(seed=SEED, profile=self.heavy_tailed(), spans=spans)
        cloud.store.ensure_bucket("data")
        executor = FunctionExecutor(cloud, retries=6, speculation=self.POLICY)
        operator = ShuffleSort(
            executor,
            CODEC,
            backend=ShardedRelayExchange(fleet_ready(cloud.vms, "bx2-8x32", shards=2)),
        )

        def driver():
            yield cloud.store.put("data", "input.bin", payload)
            return (yield operator.sort("data", "input.bin", workers=WORKERS))

        result = cloud.sim.run_process(driver())
        runs = [cloud.store.peek("data", run.key) for run in result.runs]
        return runs, cloud

    def test_cancelled_backups_end_exactly_once(self):
        _runs, cloud = self.run(spans=True)
        tracer = cloud.sim.tracer
        assert cloud.faas.stats.cancellations > 0, "no backup was cancelled"
        assert tracer.validate() == []
        cancelled = [
            span
            for span in tracer.spans
            if span.category == "attempt" and span.status == "cancelled"
        ]
        assert cancelled, "cancelled attempts must keep their spans"
        # Primary and backup attempts of one call share a wave parent
        # and a worker track (the call's Perfetto lane).
        assert all(
            span.attributes.get("track", "").startswith("worker-")
            for span in cancelled
        )

    def test_speculation_parity_traced_vs_untraced(self):
        traced, _cloud = self.run(spans=True)
        untraced, _cloud = self.run(spans=False)
        assert traced == untraced


class TestRelayBackpressureEvent:
    def test_stall_event_lands_on_the_bound_attempt_span(self):
        """The admission-queue branch of ``_begin_push`` must record a
        ``relay.backpressure_stall`` event on the stalled attempt's span
        (regression: this branch evaluated ``fill_fraction`` wrongly and
        killed any push that queued, traced or not)."""
        cloud = Cloud.fresh(
            seed=3, profile=ibm_us_east(deterministic=True), spans=True
        )
        relay = relay_ready(cloud.vms, "bx2-2x8")
        filler = relay.client()
        chunk = relay.capacity_bytes * 0.7

        def fill():
            yield filler.push("resident", b"x", logical_size=chunk)

        cloud.sim.run_process(fill())
        span = cloud.sim.tracer.span("attempt", category="attempt")
        cloud.sim.tracer.bind_attempt("att-9", span)
        client = relay.client(attempt_id="att-9")
        pushed = []

        def pusher():
            yield client.push("new", b"y", logical_size=chunk)
            pushed.append(True)

        def freer():
            yield cloud.sim.timeout(5.0)  # pusher is queued by now
            yield filler.delete("resident")

        cloud.sim.process(pusher())
        cloud.sim.process(freer())
        cloud.sim.run()
        span.end()
        assert pushed == [True]
        names = [name for _at, name, _attrs in span.events]
        assert "relay.backpressure_stall" in names
        stall = next(
            attrs for _at, name, attrs in span.events
            if name == "relay.backpressure_stall"
        )
        assert 0.0 < stall["fill"] <= 1.0


class TestOnlineLifecycle:
    def test_decision_points_fold_into_the_sort_span(self):
        from repro.shuffle import OnlineShuffleSort, SkewSpec, skewed_fixed_payload

        payload = skewed_fixed_payload(
            3000,
            SkewSpec(
                distribution="late-hot",
                late_hot_fraction=0.25,
                late_hot_share=0.8,
            ),
            seed=2021,
        )
        cloud = Cloud.fresh(
            seed=2021, profile=ibm_us_east(deterministic=True), spans=True
        )
        cloud.store.ensure_bucket("data")
        operator = OnlineShuffleSort(
            FunctionExecutor(cloud),
            CODEC,
            stream=STREAM,
            modes=("streaming",),
        )

        def driver():
            yield cloud.store.put("data", "input.bin", payload)
            return (yield operator.sort("data", "input.bin", workers=WORKERS))

        cloud.sim.run_process(driver())
        tracer = cloud.sim.tracer
        assert tracer.validate() == []
        sort_span = next(s for s in tracer.spans if s.category == "sort")
        decisions = [
            (at_s, name, attrs)
            for at_s, name, attrs in sort_span.events
            if name.startswith("decision:")
        ]
        assert len(decisions) == len(operator.timeline.points)
        assert decisions[0][1] == "decision:initial"
        # Decision events carry the chosen configuration.
        assert all("substrate" in attrs for _at, _n, attrs in decisions)
