"""Content-addressed exchange: CAS core, dedup, manifests, lineage.

The invariant under test throughout: content addressing only ever
changes *timing and billing* — never artifact bytes.  Dedup'd runs stay
byte-identical to legacy runs, lineage hits return the exact prior
manifest, and the hash-chained :class:`RunManifest` re-derives offline
and fails loudly on any tampered section or mutated stored artifact.
"""

import pytest

from repro.cas import (
    cas_enabled,
    content_hash,
    output_digest,
    sha256_hex,
    stable_serialize,
)
from repro.cloud import Cloud, MB
from repro.cloud.profiles import ALLKEYS_LRU, ibm_us_east
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready
from repro.executor import FunctionExecutor
from repro.shuffle import (
    CacheExchange,
    FixedWidthCodec,
    RelayExchange,
    ShardedRelayExchange,
    ShuffleSort,
)
from repro.shuffle.content import (
    LineageCache,
    RunManifest,
    build_run_manifest,
    derive_chain,
    lineage_cache_for,
    verify_manifest,
    verify_manifest_file,
)

RECORD_A = (1).to_bytes(8, "big") + bytes(8)
RECORD_B = (2).to_bytes(8, "big") + bytes(8)


def make_dup_payload(pairs=100):
    """Alternating two-key payload: every equal input split is identical,
    so mapper outputs and per-reducer chunks duplicate across mappers."""
    return (RECORD_A + RECORD_B) * pairs


def run_sort(substrate, payload, *, workers=2, seed=7):
    """One staged sort on a fresh region; returns (runs_bytes, operator, cloud)."""
    cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    executor = FunctionExecutor(cloud)
    codec = FixedWidthCodec(record_size=16, key_bytes=8)
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
    return runs, operator, cloud, result


SUBSTRATES = ("objectstore", "cache", "relay", "sharded-relay")


class TestStableSerialize:
    def test_type_tags_disambiguate(self):
        assert stable_serialize("1") != stable_serialize(1)
        assert stable_serialize(b"1") != stable_serialize("1")
        assert stable_serialize(True) != stable_serialize(1)
        assert stable_serialize(1.0) != stable_serialize(1)
        assert stable_serialize(None) != stable_serialize("")

    def test_length_prefixes_prevent_concatenation_collisions(self):
        assert content_hash(["ab", "c"]) != content_hash(["a", "bc"])
        assert content_hash([["a"], "b"]) != content_hash(["a", ["b"]])
        assert content_hash({"ab": "c"}) != content_hash({"a": "bc"})

    def test_dict_order_insensitive(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_serialize(object())
        with pytest.raises(TypeError):
            content_hash({"x": {1, 2}})

    def test_cas_enabled_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_CAS", raising=False)
        assert cas_enabled()
        for value in ("0", "false", "no", "off", " OFF "):
            monkeypatch.setenv("REPRO_CAS", value)
            assert not cas_enabled()
        monkeypatch.setenv("REPRO_CAS", "1")
        assert cas_enabled()


class TestCosDedup:
    @pytest.fixture
    def cloud(self):
        cloud = Cloud.fresh(seed=3, profile=ibm_us_east(deterministic=True))
        cloud.store.ensure_bucket("data")
        cloud.store.ensure_bucket("other")
        return cloud

    def run(self, cloud, generator):
        return cloud.sim.run_process(generator)

    def test_second_identical_put_short_circuits(self, cloud):
        payload = b"x" * 4096

        def scenario():
            yield cloud.store.put("data", "k1", payload, dedup=True)
            yield cloud.store.put("data", "k2", payload, dedup=True)

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 1
        assert cloud.store.stats.dedup_bytes == pytest.approx(len(payload))
        # The dedup'd PUT still stores real bytes under its own key.
        assert cloud.store.peek("data", "k2") == payload
        assert cloud.store.peek("data", "k1") == payload

    def test_dedup_is_opt_in(self, cloud):
        payload = b"y" * 1024

        def scenario():
            yield cloud.store.put("data", "k1", payload, dedup=True)
            yield cloud.store.put("data", "k2", payload)  # legacy path

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 0

    def test_bucket_scopes_the_index(self, cloud):
        """Same bytes in another bucket are a different dedup domain —
        collision-shaped sharing across buckets must not alias."""
        payload = b"z" * 2048

        def scenario():
            yield cloud.store.put("data", "k", payload, dedup=True)
            yield cloud.store.put("other", "k", payload, dedup=True)

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 0

    def test_overwritten_referent_degrades_to_normal_put(self, cloud):
        """Byte-equality guard: if the indexed referent no longer holds
        the bytes, the PUT transfers instead of aliasing."""
        payload = b"a" * 1000

        def scenario():
            yield cloud.store.put("data", "k1", payload, dedup=True)
            yield cloud.store.put("data", "k1", b"b" * 1000)  # overwrite
            yield cloud.store.put("data", "k2", payload, dedup=True)

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 0
        assert cloud.store.peek("data", "k2") == payload

    def test_empty_payload_never_dedups(self, cloud):
        def scenario():
            yield cloud.store.put("data", "e1", b"", dedup=True)
            yield cloud.store.put("data", "e2", b"", dedup=True)

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 0

    def test_env_off_disables_dedup(self, cloud, monkeypatch):
        monkeypatch.setenv("REPRO_CAS", "off")
        payload = b"q" * 512

        def scenario():
            yield cloud.store.put("data", "k1", payload, dedup=True)
            yield cloud.store.put("data", "k2", payload, dedup=True)

        self.run(cloud, scenario())
        assert cloud.store.stats.dedup_ops == 0
        assert cloud.store.cas_entries("k") == []

    def test_cas_entries_prefix_filtering(self, cloud):
        """Prefix-sharing keys (``out/`` vs ``outlier/``) must separate
        under the slash-terminated prefixes the operators use."""

        def scenario():
            yield cloud.store.put("data", "out/a", b"1" * 64, dedup=True)
            yield cloud.store.put("data", "outlier/b", b"2" * 64, dedup=True)

        self.run(cloud, scenario())
        keys = [key for key, _sha, _logical in cloud.store.cas_entries("out/")]
        assert keys == ["out/a"]
        shas = dict(
            (key, sha) for key, sha, _logical in cloud.store.cas_entries("out")
        )
        assert shas == {
            "out/a": sha256_hex(b"1" * 64),
            "outlier/b": sha256_hex(b"2" * 64),
        }


class TestCacheDedupEviction:
    """Satellite: dedup refcounts vs LRU eviction.

    An evicting node tombstones content keys; a dedup'd write whose
    referent vanished between the residency check and the store must
    transparently re-send the bytes instead of raising, and the final
    values must be byte-correct.
    """

    @staticmethod
    def _tiny_cluster():
        profile = ibm_us_east(deterministic=True)
        profile.memstore.usable_memory_fraction = 1.0
        profile.memstore.catalog = {
            "tiny": type(next(iter(profile.memstore.catalog.values())))(
                name="tiny",
                memory_gb=1024 / (1 << 30),
                nic_bandwidth=100 * MB,
                hourly_usd=0.1,
            )
        }
        profile.memstore.eviction_policy = ALLKEYS_LRU
        cloud = Cloud.fresh(seed=5, profile=profile)
        return cloud, cloud.cache.provision_ready("tiny")

    def test_mset_dedups_resident_values(self):
        cloud, cluster = self._tiny_cluster()
        client = cluster.client()
        value = b"v" * 200

        def scenario():
            # Residency is checked against what the shard held *before*
            # the batch, so seed the content in its own batch first.
            yield client.mset([("seed", value)])
            yield client.mset([("a", value), ("b", value)])
            return (yield client.mget(["a", "b"]))

        assert cloud.sim.run_process(scenario()) == [value, value]
        totals = cluster.stats_totals()
        assert totals["dedup_hits"] == 2
        assert totals["dedup_bytes"] == pytest.approx(400.0)

    def test_evicted_referent_mid_batch_restores_and_keeps_bytes(self):
        """The race itself: the batch marks a value dedup'd while its
        referent is resident, fillers in the same batch evict it, and
        the store-time recheck re-sends the bytes."""
        cloud, cluster = self._tiny_cluster()
        client = cluster.client()
        dup = b"x" * 300
        filler_one = b"f" * 500
        filler_two = b"g" * 500

        def scenario():
            yield client.mset([("seed", dup)])
            # One batch on the single node: "a" and "b" pass the
            # residency check, then the fillers evict both referents
            # before "b" stores.
            yield client.mset(
                [("a", dup), ("f1", filler_one), ("f2", filler_two), ("b", dup)]
            )
            return (yield client.mget(["b"]))

        assert cloud.sim.run_process(scenario()) == [dup]
        totals = cluster.stats_totals()
        assert totals["dedup_hits"] == 1  # "a" rode as a reference
        assert totals["dedup_restores"] == 1  # "b" was re-sent
        assert totals["evictions"] >= 2
        # The evicted referents are tombstoned, not silently absent.
        assert cluster.nodes[0].was_evicted("seed")

    def test_dedup_respects_env_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAS", "0")
        cloud, cluster = self._tiny_cluster()
        client = cluster.client()
        value = b"v" * 100

        def scenario():
            yield client.mset([("a", value), ("b", value)])
            return (yield client.mget(["a", "b"]))

        assert cloud.sim.run_process(scenario()) == [value, value]
        assert cluster.stats_totals()["dedup_hits"] == 0
        assert cluster.cas_entries("") == []


def run_cold_warm(substrate, payload, *, seed=7):
    """The same sort twice on one cloud (distinct output prefixes).

    Returns ``(cold_runs, warm_runs, warm_dedup_bytes)``; the report is
    a per-sort delta, so the reused operator's second report covers the
    warm run alone.
    """
    cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    executor = FunctionExecutor(cloud)
    codec = FixedWidthCodec(record_size=16, key_bytes=8)
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
        cold = yield operator.sort(
            "data", "input.bin", workers=2, out_prefix="cold"
        )
        warm = yield operator.sort(
            "data", "input.bin", workers=2, out_prefix="warm"
        )
        return cold, warm

    cold, warm = cloud.sim.run_process(driver())
    cold_runs = [cloud.store.peek("data", run.key) for run in cold.runs]
    warm_runs = [cloud.store.peek("data", run.key) for run in warm.runs]
    return cold_runs, warm_runs, operator.report.extra.get("dedup_bytes", 0)


class TestSortDedupParity:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_warm_rerun_dedups_at_byte_parity(self, substrate, monkeypatch):
        payload = make_dup_payload(pairs=200)
        cold_on, warm_on, warm_dedup = run_cold_warm(substrate, payload)
        assert warm_dedup > 0
        assert cold_on == warm_on

        monkeypatch.setenv("REPRO_CAS", "off")
        cold_off, warm_off, off_dedup = run_cold_warm(substrate, payload)
        assert off_dedup == 0
        # The gate changes billing/wire accounting, never bytes.
        assert cold_on == cold_off
        assert warm_on == warm_off

    def test_dedup_counter_published(self):
        from repro.obs.metrics import reset_registry, registry

        reset_registry()
        run_cold_warm("objectstore", make_dup_payload(pairs=100))
        counter = registry().get("repro_dedup_bytes_total")
        assert counter is not None
        samples = dict(counter.samples())
        total = sum(
            value
            for key, value in samples.items()
            if ("substrate", "objectstore") in key
        )
        assert total > 0


class TestRunManifest:
    def test_chain_links_cover_prior_sections(self):
        chain = derive_chain({"k": 1}, {"d": 2}, [], [])
        assert chain["h0"] == content_hash({"k": 1})
        assert chain["h1"] == content_hash([chain["h0"], {"d": 2}])
        assert chain["manifest"] == content_hash(
            [chain["h0"], chain["h1"], chain["h2"], chain["h3"]]
        )

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_sort_emits_verifiable_manifest(self, substrate):
        payload = make_dup_payload(pairs=150)
        runs, operator, cloud, result = run_sort(substrate, payload)
        manifest = operator.run_manifest
        assert manifest is not None
        assert verify_manifest(manifest) == []
        assert verify_manifest(manifest, store=cloud.store) == []
        assert manifest.chunks, "exchange chunks must be content-logged"
        assert [entry["key"] for entry in manifest.outputs] == [
            run.key for run in result.runs
        ]
        for entry, data in zip(manifest.outputs, runs):
            assert entry["sha256"] == sha256_hex(data)

    def test_tampered_sections_fail_loudly(self):
        _runs, operator, cloud, _result = run_sort(
            "objectstore", make_dup_payload(pairs=100)
        )
        manifest = operator.run_manifest
        payload = manifest.to_dict()
        payload["chunks"][0]["sha256"] = "0" * 64
        problems = verify_manifest(payload)
        assert any("h2" in problem for problem in problems)

        payload = manifest.to_dict()
        payload["outputs"][0]["sha256"] = "f" * 64
        problems = verify_manifest(payload)
        assert any("h3" in problem for problem in problems)

        payload = manifest.to_dict()
        payload["chain"]["manifest"] = "0" * 64
        assert verify_manifest(payload)

    def test_mutated_stored_artifact_fails_store_verify(self):
        _runs, operator, cloud, result = run_sort(
            "objectstore", make_dup_payload(pairs=100)
        )
        manifest = operator.run_manifest
        victim = result.runs[0]

        def tamper():
            yield cloud.store.put(victim.bucket, victim.key, b"\x00" * 64)

        cloud.sim.run_process(tamper())
        # Offline chain still verifies — the manifest was not touched...
        assert verify_manifest(manifest) == []
        # ...but the store-backed check catches the mutated artifact.
        problems = verify_manifest(manifest, store=cloud.store)
        assert any("tampered" in problem for problem in problems)

    def test_json_round_trip_and_cli(self, tmp_path, capsys):
        from repro.experiments.cli import main

        _runs, operator, _cloud, _result = run_sort(
            "objectstore", make_dup_payload(pairs=100)
        )
        manifest = operator.run_manifest
        restored = RunManifest.from_json(manifest.to_json())
        assert verify_manifest(restored) == []

        path = tmp_path / "manifest.json"
        path.write_text(manifest.to_json(), encoding="utf-8")
        assert verify_manifest_file(str(path)) == []
        assert main(["replay-verify", "--manifest", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

        tampered = manifest.to_dict()
        tampered["decision"]["substrate"] = "tampered"
        bad = tmp_path / "tampered.json"
        import json

        bad.write_text(json.dumps(tampered), encoding="utf-8")
        assert main(["replay-verify", "--manifest", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_env_off_skips_manifest(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAS", "no")
        _runs, operator, _cloud, _result = run_sort(
            "objectstore", make_dup_payload(pairs=100)
        )
        assert operator.run_manifest is None


class TestLineageCache:
    @staticmethod
    def _run_auto(cloud, config, sort_params, name):
        from repro.workflows import WorkflowEngine
        from repro.workflows.dag import StageSpec, WorkflowDag

        dag = WorkflowDag(
            name,
            [
                StageSpec("ingest", "dataset_ref",
                          params={"key": "input/methylome.bed"}),
                StageSpec("sort", "auto_sort", after=("ingest",),
                          params=sort_params),
            ],
            bucket="pipeline",
        )
        engine = WorkflowEngine(cloud, dag)
        engine.workload = config.workload
        return engine.execute()

    @staticmethod
    def _fresh(config):
        from repro.core import stage_input
        from repro.sim import Simulator

        cloud = Cloud(Simulator(seed=7), config.make_profile())
        stage_input(cloud, config, "pipeline", "input/methylome.bed")
        return cloud

    def test_warm_rerun_hits_and_is_cheaper(self):
        from repro.core import ExperimentConfig

        config = ExperimentConfig(logical_scale=4096.0)
        cloud = self._fresh(config)
        params = {"workers": 4, "memory_mb": 2048}

        cold_marker = cloud.meter.snapshot()
        cold_start = cloud.sim.now
        cold = self._run_auto(cloud, config, params, "lineage-cold")
        cold_cost = cloud.meter.since(cold_marker).total_usd
        cold_latency = cloud.sim.now - cold_start
        assert cold.artifacts["sort"]["lineage"] == "miss"
        assert "lineage_key" in cold.artifacts["sort"]

        warm_marker = cloud.meter.snapshot()
        warm_start = cloud.sim.now
        warm = self._run_auto(cloud, config, params, "lineage-warm")
        warm_cost = cloud.meter.since(warm_marker).total_usd
        warm_latency = cloud.sim.now - warm_start

        artifact = warm.artifacts["sort"]
        assert artifact["lineage"] == "hit"
        assert artifact["lineage_hits"] == 1
        assert artifact["runs"] == cold.artifacts["sort"]["runs"]
        # The hit is priced at control-plane cost: one HEAD, no sort.
        assert warm_cost < cold_cost / 10
        assert warm_latency < cold_latency / 10

    def test_changed_plan_misses(self):
        from repro.core import ExperimentConfig

        config = ExperimentConfig(logical_scale=4096.0)
        cloud = self._fresh(config)
        first = self._run_auto(
            cloud, config, {"workers": 4, "memory_mb": 2048}, "plan-a"
        )
        second = self._run_auto(
            cloud, config, {"workers": 3, "memory_mb": 2048}, "plan-b"
        )
        assert first.artifacts["sort"]["lineage"] == "miss"
        assert second.artifacts["sort"]["lineage"] == "miss"
        assert len(lineage_cache_for(cloud.store)) == 2

    def test_deleted_output_degrades_to_miss(self):
        from repro.core import ExperimentConfig

        config = ExperimentConfig(logical_scale=4096.0)
        cloud = self._fresh(config)
        params = {"workers": 4, "memory_mb": 2048}
        cold = self._run_auto(cloud, config, params, "degrade-cold")
        victim = cold.artifacts["sort"]["runs"][0]

        def wipe():
            yield cloud.store.delete(victim["bucket"], victim["key"])

        cloud.sim.run_process(wipe())
        rerun = self._run_auto(cloud, config, params, "degrade-rerun")
        assert rerun.artifacts["sort"]["lineage"] == "miss"

    def test_env_off_skips_lineage(self, monkeypatch):
        from repro.core import ExperimentConfig

        monkeypatch.setenv("REPRO_CAS", "false")
        config = ExperimentConfig(logical_scale=4096.0)
        cloud = self._fresh(config)
        params = {"workers": 4, "memory_mb": 2048}
        first = self._run_auto(cloud, config, params, "off-a")
        second = self._run_auto(cloud, config, params, "off-b")
        assert "lineage" not in first.artifacts["sort"]
        assert "lineage" not in second.artifacts["sort"]

    def test_fingerprint_is_stable_data(self):
        fingerprint = LineageCache.fingerprint(
            {"bucket": "b", "key": "k", "etag": "e", "logical_size": 1.0},
            {"workers": 4},
        )
        assert len(fingerprint) == 64
        assert fingerprint == LineageCache.fingerprint(
            {"logical_size": 1.0, "etag": "e", "key": "k", "bucket": "b"},
            {"workers": 4},
        )
