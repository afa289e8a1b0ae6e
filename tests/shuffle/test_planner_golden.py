"""Bit-for-bit pins of the analytic planners and the substrate selector.

``data/planner_golden.json`` holds predictions recorded from the three
per-substrate planners (object storage, cache cluster, VM relay) before
they were folded into one prediction skeleton.  Every record is
recomputed here and compared with ``==``: JSON round-trips floats
exactly, so any change to a term, to the order the breakdown is summed
in, or to the curve search shows up as a failing record.  A deliberate
model change regenerates the data (``python
tests/shuffle/test_planner_golden.py``) and says why.
"""

from __future__ import annotations

import json
import pathlib
import types

import pytest

from repro.cloud.profiles import aws_us_east, ibm_us_east
from repro.shuffle import (
    CacheExchange,
    CacheShuffleCostModel,
    ObjectStoreExchange,
    RelayExchange,
    RelayShuffleCostModel,
    ShuffleCostModel,
    StreamConfig,
    choose_exchange_substrate,
    plan_cache_shuffle,
    plan_relay_shuffle,
    plan_shuffle,
    predict_cache_shuffle_time,
    predict_relay_shuffle_time,
    predict_shuffle_time,
)

DATA_PATH = pathlib.Path(__file__).parent / "data" / "planner_golden.json"
DATA = json.loads(DATA_PATH.read_text())
PROVIDERS = {"ibm": ibm_us_east, "aws": aws_us_east}
COSTS = {
    "default": {},
    "calibrated": {
        "partition_throughput": 115e6,
        "sort_throughput": 55e6,
        "expected_skew": 1.3,
    },
}


def _profile(case: dict):
    return PROVIDERS[case["provider"]](logical_scale=case.get("scale", 1.0))


def _candidates(case: dict):
    return None if case["candidates"] is None else tuple(case["candidates"])


def _case_id(case: dict) -> str:
    keys = ("substrate", "provider", "bytes", "workers", "skew", "chunk_bytes")
    return "-".join(str(case[key]) for key in keys if key in case)


def _point(case: dict) -> dict:
    profile = _profile(case)
    size, workers, skew = case["bytes"], case["workers"], case["skew"]
    extra = COSTS[case["cost"]]
    if case["substrate"] == "objectstore":
        cost = ShuffleCostModel(fetch_parallelism=case["fetch_parallelism"], **extra)
        point = predict_shuffle_time(size, workers, profile, cost, skew=skew)
    elif case["substrate"] == "cache":
        point = predict_cache_shuffle_time(
            size, workers, profile,
            profile.memstore.catalog[case["node_type"]], case["nodes"],
            CacheShuffleCostModel(**extra), skew=skew,
        )
    else:
        point = predict_relay_shuffle_time(
            size, workers, profile, profile.vm.catalog[case["instance_type"]],
            RelayShuffleCostModel(include_boot=case["include_boot"], **extra),
            shards=case["shards"], skew=skew,
        )
    # Key order matters too: total_s is the breakdown summed in order.
    assert list(point.breakdown) == DATA["breakdown_keys"]
    return {"point": [point.workers, point.total_s, *point.breakdown.values()]}


def _plan(case: dict) -> dict:
    profile = _profile(case)
    size, skew, candidates = case["bytes"], case["skew"], _candidates(case)
    out = {}
    if case["substrate"] == "objectstore":
        plan = plan_shuffle(
            size, profile, ShuffleCostModel(), candidates=candidates, skew=skew
        )
    elif case["substrate"] == "cache":
        plan = plan_cache_shuffle(
            size, profile, case["node_type"], case["nodes"],
            CacheShuffleCostModel(), candidates=candidates, skew=skew,
        )
    else:
        plan = plan_relay_shuffle(
            size, profile, case["instance_type"],
            RelayShuffleCostModel(include_boot=case["include_boot"]),
            candidates=candidates, shards=case["shards"], skew=skew,
        )
        out["chosen_shards"] = plan.shards
    # Free-W curves are 256 points long; only their argmin is recorded.
    curve = None if candidates is None else [point.total_s for point in plan.curve]
    return {**out, "workers": plan.workers, "predicted_s": plan.predicted_s,
            "curve_s": curve}


def _backend_plan(case: dict) -> dict:
    chunk = case["chunk_bytes"]
    stream = None if chunk is None else StreamConfig(chunk_bytes=chunk)
    # Planning reads only the provisioned substrate's shape.
    if case["substrate"] == "objectstore":
        backend = ObjectStoreExchange(stream=stream)
    elif case["substrate"] == "cache":
        cluster = types.SimpleNamespace(
            node_type=types.SimpleNamespace(name="cache.r5.large"),
            nodes=[None, None],
        )
        backend = CacheExchange(cluster, stream=stream)
    else:
        relay = types.SimpleNamespace(
            instance_type_name=case["instance_type"], shard_count=3
        )
        backend = RelayExchange(relay, stream=stream)
    plan = backend.plan(case["bytes"], _profile(case), 16)
    return {"workers": plan.workers, "predicted_s": plan.predicted_s,
            "curve_s": [point.total_s for point in plan.curve]}


def _decision(case: dict) -> dict:
    decision = choose_exchange_substrate(
        case["bytes"],
        _profile(case),
        workers=case["workers"],
        partition_skew=case["skew"],
        modes=("staged", "streaming"),
        stream_chunked_input=case["chunked_input"],
    )
    fields = DATA["estimate_fields"]
    return {
        "chosen": [decision.chosen.substrate, decision.chosen.mode],
        "estimates": [
            [getattr(estimate, field) for field in fields]
            for estimate in decision.estimates
        ],
    }


#: Section of the data file → what recomputes one record's outputs.
SECTIONS = {
    "points": _point,
    "plans": _plan,
    "backend_plans": _backend_plan,
    "decisions": _decision,
}


@pytest.mark.parametrize(
    ("section", "case"),
    [(section, case) for section in SECTIONS for case in DATA[section]],
    ids=lambda value: value if isinstance(value, str) else _case_id(value),
)
def test_matches_recorded_prediction(section, case):
    outputs = SECTIONS[section](case)
    assert outputs == {key: case[key] for key in outputs}


if __name__ == "__main__":
    # After a deliberate model change: rewrite every record's outputs
    # from the current code, one record per line (a changed prediction
    # then diffs as one line).
    lines = []
    for name, value in DATA.items():
        if name in SECTIONS:
            for case in value:
                case.update(SECTIONS[name](case))
            rows = ",\n".join(json.dumps(row, separators=(",", ":")) for row in value)
            lines.append(f'"{name}":[\n{rows}\n]')
        else:
            lines.append(f'"{name}":{json.dumps(value, separators=(",", ":"))}')
    DATA_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
