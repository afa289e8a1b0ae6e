"""Tests for the relay planner's shard dimension and fleet sizing."""

import pytest

from repro.cloud.profiles import GB, ibm_us_east
from repro.errors import ShuffleError
from repro.shuffle.planner import (
    RelayShuffleCostModel,
    RelayShufflePlan,
    plan_relay_shuffle,
    predict_relay_shuffle_time,
    required_relay_fleet,
)

PROFILE = ibm_us_east(deterministic=True)
SIZE = 3.5 * GB


class TestShardPrediction:
    def test_more_shards_never_predict_slower(self):
        for workers in (16, 64, 256):
            times = [
                predict_relay_shuffle_time(
                    SIZE, workers, PROFILE,
                    PROFILE.vm.catalog["bx2-8x32"],
                    RelayShuffleCostModel(),
                    shards=n,
                ).total_s
                for n in (1, 2, 4)
            ]
            assert times[0] >= times[1] >= times[2]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ShuffleError, match="shards"):
            predict_relay_shuffle_time(
                SIZE, 8, PROFILE, PROFILE.vm.catalog["bx2-8x32"],
                RelayShuffleCostModel(), shards=0,
            )


class TestJointShardSearch:
    def test_pinned_shards_round_trip_in_the_plan(self):
        plan = plan_relay_shuffle(SIZE, PROFILE, "bx2-8x32", shards=3)
        assert isinstance(plan, RelayShufflePlan)
        assert plan.shards == 3
        assert plan.instance_type == "bx2-8x32"

    def test_auto_search_buys_shards_only_when_the_nic_binds(self):
        """shards=None searches jointly with the worker count and keeps
        the smallest fleet within the convergence tolerance of the
        optimum — at NIC-saturating worker counts that is >1 shard,
        and it must never be slower than the single relay's plan."""
        auto = plan_relay_shuffle(
            SIZE, PROFILE, "bx2-8x32", shards=None, max_shards=4,
            candidates=(256,),
        )
        single = plan_relay_shuffle(
            SIZE, PROFILE, "bx2-8x32", shards=1, candidates=(256,),
        )
        assert auto.shards > 1
        assert auto.predicted_s < single.predicted_s

    def test_auto_search_stays_at_one_shard_when_workers_bind(self):
        """At low worker counts the workers' own NICs are the bottleneck
        and extra shards are within tolerance of useless — the search
        must collapse to the single relay."""
        plan = plan_relay_shuffle(
            SIZE, PROFILE, "bx2-8x32", shards=None, max_shards=4,
            candidates=(4,),
        )
        assert plan.shards == 1

    def test_bad_shard_bounds_rejected(self):
        with pytest.raises(ShuffleError, match="min_shards"):
            plan_relay_shuffle(
                SIZE, PROFILE, "bx2-8x32", shards=None,
                min_shards=5, max_shards=4,
            )


class TestRequiredRelayFleet:
    def test_small_data_fits_one_cheap_instance(self):
        name, shards = required_relay_fleet(SIZE, PROFILE)
        assert shards == 1
        assert name in PROFILE.vm.catalog

    def test_oversized_data_needs_a_fleet(self):
        name, shards = required_relay_fleet(1000 * GB, PROFILE, max_shards=8)
        assert shards > 1
        usable = PROFILE.vm.relay_usable_bytes(PROFILE.vm.catalog[name])
        assert shards * usable >= 1000 * GB * 1.3

    def test_pinned_flavour_sizes_its_own_shard_count(self):
        name, shards = required_relay_fleet(
            100 * GB, PROFILE, instance_type_name="bx2-8x32", max_shards=8,
        )
        assert name == "bx2-8x32"
        usable = PROFILE.vm.relay_usable_bytes(PROFILE.vm.catalog[name])
        assert shards == -(-int(100 * GB * 1.3) // int(usable))

    def test_beyond_max_shards_raises(self):
        with pytest.raises(ShuffleError, match="max_shards"):
            required_relay_fleet(
                1000 * GB, PROFILE, instance_type_name="bx2-2x8", max_shards=8,
            )
        with pytest.raises(ShuffleError, match="no fleet"):
            required_relay_fleet(100_000 * GB, PROFILE, max_shards=8)
