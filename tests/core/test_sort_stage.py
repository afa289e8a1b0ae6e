"""The unified ``sort`` stage kind against its alias kinds.

``sort`` takes ``substrate=`` and ``mode=``; the older per-substrate
kinds are aliases presetting them.  On every one of the 8 reachable
(substrate, mode) cells the two spellings must run the identical sort —
equal artifacts key for key, simulated seconds included — and every
cell must produce the same sorted bytes.
"""

import hashlib

import pytest

from repro.cloud import Cloud
from repro.core import ExperimentConfig
from repro.core.experiment import stage_input
from repro.errors import WorkflowError
from repro.sim import Simulator
from repro.workflows.dag import StageSpec, WorkflowDag
from repro.workflows.engine import WorkflowEngine

CONFIG = ExperimentConfig(size_gb=0.25, logical_scale=8192.0)

#: (substrate, mode) → the alias kind (and extra params) spelling it.
CELLS = {
    ("objectstore", "staged"): ("shuffle_sort", {}),
    ("cache", "staged"): ("cache_sort", {}),
    ("relay", "staged"): ("relay_sort", {}),
    ("sharded-relay", "staged"): ("sharded_relay_sort", {}),
    ("objectstore", "streaming"): ("streaming_sort", {"substrate": "objectstore"}),
    ("cache", "streaming"): ("streaming_sort", {"substrate": "cache"}),
    ("relay", "streaming"): ("streaming_sort", {"substrate": "relay"}),
    ("sharded-relay", "streaming"): (
        "streaming_sort", {"substrate": "sharded-relay"}
    ),
}


def run_sort_stage(kind, params):
    cloud = Cloud(Simulator(seed=CONFIG.seed), CONFIG.make_profile())
    stage_input(cloud, CONFIG, "pipeline", "input/methylome.bed")
    dag = WorkflowDag(
        "sort-stage",
        [
            StageSpec("ingest", "dataset_ref", params={"key": "input/methylome.bed"}),
            StageSpec(
                "sort", kind, after=("ingest",),
                params={"workers": 4, "chunk_mb": 8.0, **params},
            ),
        ],
        bucket="pipeline",
    )
    engine = WorkflowEngine(cloud, dag)
    engine.workload = CONFIG.workload
    artifact = engine.execute().artifacts["sort"]
    digest = hashlib.sha256()
    for run in artifact["runs"]:
        digest.update(cloud.store.peek(run["bucket"], run["key"]))
    return artifact, digest.hexdigest()


@pytest.fixture(scope="module")
def cells():
    out = {}
    for (substrate, mode), (alias, alias_params) in CELLS.items():
        out[(substrate, mode)] = (
            run_sort_stage("sort", {"substrate": substrate, "mode": mode}),
            run_sort_stage(alias, alias_params),
        )
    return out


class TestSortStage:
    @pytest.mark.parametrize(
        "cell", list(CELLS), ids=[f"{s}-{m}" for s, m in CELLS]
    )
    def test_sort_equals_its_alias_key_for_key(self, cells, cell):
        (sort_artifact, _), (alias_artifact, _) = cells[cell]
        assert list(sort_artifact) == list(alias_artifact)
        for key in sort_artifact:
            assert sort_artifact[key] == alias_artifact[key], key
        assert sort_artifact["substrate"] == cell[0]
        if cell[1] == "streaming":
            assert sort_artifact["mode"] == "streaming"

    def test_every_cell_sorts_the_same_bytes(self, cells):
        digests = {
            digest
            for (_sort, digest), (_alias, alias_digest) in cells.values()
            for digest in (digest, alias_digest)
        }
        assert len(digests) == 1

    def test_alias_artifacts_keep_their_substrate_keys(self, cells):
        (cache, _), _ = cells[("cache", "staged")]
        assert {"cache_nodes", "cache_node_type", "cache_peak_fill"} <= set(cache)
        (fleet, _), _ = cells[("sharded-relay", "staged")]
        assert {"relay_shards", "relay_peak_fill"} <= set(fleet)
        (stream, _), _ = cells[("relay", "streaming")]
        assert {"overlap_s", "buffer_high_watermark_bytes", "stream_chunks"} <= set(
            stream
        )

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"substrate": "tape"}, "unknown substrate"),
            ({"mode": "batch"}, "unknown mode"),
        ],
    )
    def test_rejects_unknown_substrate_and_mode(self, params, match):
        with pytest.raises(WorkflowError, match=match):
            run_sort_stage("sort", params)
