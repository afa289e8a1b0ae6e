"""The VM-relay exchange substrates and their load-aware shard routing.

Mappers PUSH their partitions to an in-memory rendezvous hosted on
provisioned VMs, reducers PULL their range; the relay side is per-run
scratch, reclaimed when its VMs terminate (reducer-side deletion is an
opt-in, ``consume``, for crash-free runs).  Two flavours share
everything but the hardware: the classic single relay
(:class:`~repro.cloud.vm.relay.PartitionRelay` — one fat NIC, Table 1's
provisioned-VM economics) and the sharded fleet
(:class:`~repro.cloud.vm.fleet.RelayFleet` — N instances aggregating N
NICs, for the worker counts and dataset sizes where one line rate
caps the exchange).  Sampling and the sorted-run artifact are identical
to the other substrates.

Task payloads carry the *relay id*; workers open a
:class:`~repro.shuffle.ports.RelayPort`, which resolves it through the
:meth:`~repro.cloud.faas.context.FunctionContext.relay` accessor, which
binds the client to the activation's **attempt id**.  That binding is
what makes the substrate safe under fault handling: a crashed or
cancelled mapper's in-flight MPUSH is aborted and its memory
reservation reclaimed immediately (no orphaned transfer races its
retried successor), a replacing MPUSH swaps old for new atomically (a
concurrent reducer never observes a missing key), and the loser of a
speculative race is fenced out of the relay entirely.  Retries and
speculation are therefore supported on the relay exactly as on object
storage.
"""

from __future__ import annotations

import re
import typing as t

from repro.cloud.profiles import CloudProfile
from repro.cloud.vm.fleet import RelayFleet
from repro.cloud.vm.relay import PartitionRelay
from repro.errors import ShuffleError
from repro.executor.partitioner import assign_balanced
from repro.shuffle.exchange import ExchangeBackend
from repro.shuffle.planner import ShufflePlan
from repro.shuffle.relayplanner import (
    SHARD_IMBALANCE_HEADROOM,
    RelayShuffleCostModel,
    plan_relay_shuffle,
)
from repro.shuffle.streaming import StreamConfig


#: Shuffle-layout key token shared by the staged keys
#: (``.../m00001.r00002``) and the streaming segment keys
#: (``.../m00001.r00002.c00003``); header/EOS keys carry no ``.r`` and
#: fall through to the fleet's CRC hash.  Anchored to the key *tail* so
#: a caller-supplied out_prefix that happens to contain an ``m1.r2``
#: substring cannot hijack the routing of every key under it.  The
#: chunk index is captured so :class:`PartitionLoadRouter` can route
#: *individual streaming chunks* (chunk epochs) at finer grain than the
#: (mapper, reducer) cell.
_RELAY_KEY_TOKEN = re.compile(r"m(\d+)\.r(\d+)(?:\.c(\d+))?$")


class PartitionLoadRouter:
    """Routes shuffle relay keys to fleet shards by planned load.

    ``assignments[mapper][reducer]`` is the shard index of that
    (mapper, reducer) segment — a pure lookup, so routing stays
    identical across mappers, reducers, retries and speculative
    attempts (the rendezvous requirement).  Keys outside the matrix, or
    without the shuffle's ``m.r`` token (stream headers), return
    ``None`` and fall back to the fleet's CRC hash.

    **Chunk epochs** refine streaming routes mid-run: an epoch ``(start_chunk,
    table)`` overrides the base table for every streaming key whose
    chunk index is ``>= start_chunk`` (later epochs shadow earlier
    ones).  Installing an epoch whose ``start_chunk`` has not been
    published yet preserves the rendezvous invariant — keys already
    written keep the routes they were written under, and every future
    key (including its retries and speculative twins) is governed by
    one immutable epoch table.  An epoch cell may be :data:`SPREAD`,
    meaning no single shard should own that hot (mapper, reducer) cell:
    its chunks fan out deterministically (``mapper + reducer + chunk``,
    reduced modulo the fleet size by the caller) across every shard NIC.
    """

    #: Sentinel shard index in an epoch table: spread this cell's
    #: future chunks across the whole fleet instead of pinning them.
    SPREAD = -1

    def __init__(
        self,
        assignments: t.Sequence[t.Sequence[int]],
        chunk_epochs: t.Sequence[
            tuple[int, t.Sequence[t.Sequence[int]]]
        ] = (),
    ):
        if not assignments:
            raise ShuffleError("rebalance assignments must not be empty")
        self.assignments: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in assignments
        )
        epochs: list[tuple[int, tuple[tuple[int, ...], ...]]] = []
        previous = -1
        for start_chunk, table in chunk_epochs:
            start_chunk = int(start_chunk)
            if start_chunk <= previous:
                raise ShuffleError(
                    "chunk epochs must have strictly increasing start "
                    f"chunks, got {start_chunk} after {previous}"
                )
            if not table:
                raise ShuffleError("chunk epoch table must not be empty")
            previous = start_chunk
            epochs.append(
                (start_chunk, tuple(tuple(row) for row in table))
            )
        self.chunk_epochs: tuple[
            tuple[int, tuple[tuple[int, ...], ...]], ...
        ] = tuple(epochs)

    def with_chunk_epoch(
        self, start_chunk: int, assignments: t.Sequence[t.Sequence[int]]
    ) -> "PartitionLoadRouter":
        """A new router whose routes change from ``start_chunk`` onward.

        The caller must guarantee no chunk ``>= start_chunk`` has been
        published yet (install at a chunk boundary); the returned router
        shares the base table and all earlier epochs, so already-written
        keys keep their routes.
        """
        return PartitionLoadRouter(
            self.assignments,
            self.chunk_epochs + ((int(start_chunk), assignments),),
        )

    def _table_for(
        self, chunk: int | None
    ) -> tuple[tuple[int, ...], ...]:
        if chunk is not None:
            for start_chunk, table in reversed(self.chunk_epochs):
                if chunk >= start_chunk:
                    return table
        return self.assignments

    def cell(
        self, mapper: int, reducer: int, chunk: int | None = None
    ) -> int | None:
        """The raw table cell governing ``(mapper, reducer)`` at ``chunk``.

        Returns the shard index, :data:`SPREAD`, or ``None`` when the
        indices fall outside the table — the load-projection hook the
        online control loop uses to ask "where would the *next* chunks
        of this cell go?" without formatting a relay key.
        """
        table = self._table_for(chunk)
        if mapper >= len(table):
            return None
        row = table[mapper]
        if reducer >= len(row):
            return None
        return row[reducer]

    def __call__(self, key: str) -> int | None:
        match = _RELAY_KEY_TOKEN.search(key)
        if match is None:
            return None
        mapper, reducer = int(match.group(1)), int(match.group(2))
        chunk = int(match.group(3)) if match.group(3) is not None else None
        shard = self.cell(mapper, reducer, chunk)
        if shard is None:
            return None
        if shard == self.SPREAD:
            # Deterministic pure function of the key's own indices, so
            # the spread keeps the rendezvous property.
            return mapper + reducer + (chunk if chunk is not None else 0)
        return shard


def build_rebalance_assignments(
    predicted_partition_bytes: t.Sequence[float], workers: int, shards: int
) -> tuple[tuple[int, ...], ...]:
    """LPT shard placement of every (mapper, reducer) segment.

    Input splits are byte-even, so mapper ``i``'s segment for reducer
    ``j`` is expected to carry ``predicted_partition_bytes[j] /
    workers`` — a hot partition's segments are individually heavy but
    *divisible across mappers*, which is exactly the freedom the
    balanced assignment exploits: the W² weighted segments are placed
    with :func:`~repro.executor.partitioner.assign_balanced`, spreading
    the hot partition's traffic over every shard NIC instead of letting
    the hash land it wherever.
    """
    if workers < 1:
        raise ShuffleError(f"workers must be >= 1, got {workers}")
    if shards < 1:
        raise ShuffleError(f"shards must be >= 1, got {shards}")
    if len(predicted_partition_bytes) != workers:
        raise ShuffleError(
            f"expected one predicted size per partition ({workers}), got "
            f"{len(predicted_partition_bytes)}"
        )
    weights = [
        predicted_partition_bytes[reducer] / workers
        for _mapper in range(workers)
        for reducer in range(workers)
    ]
    flat = assign_balanced(weights, shards)
    return tuple(
        tuple(flat[mapper * workers : (mapper + 1) * workers])
        for mapper in range(workers)
    )


def build_chunk_rebalance_assignments(
    observed_cell_bytes: t.Sequence[t.Sequence[float]],
    shards: int,
    spread_fraction: float = 0.5,
) -> tuple[tuple[int, ...], ...]:
    """LPT shard placement of (mapper, reducer) cells from *observed* bytes.

    Mid-stream counterpart of :func:`build_rebalance_assignments`:
    instead of spreading a partition's predicted bytes evenly over
    mappers, it places the cell-byte matrix actually observed so far
    (``observed_cell_bytes[mapper][reducer]`` = logical bytes that
    mapper published for that reducer).  A cell heavier than
    ``spread_fraction`` of a fair shard share gets
    :data:`PartitionLoadRouter.SPREAD` — pinning it anywhere would
    recreate the hot shard, so its future chunks round-robin across the
    fleet — and the remaining cells are LPT-balanced around it.  Meant
    to be installed as a chunk epoch
    (:meth:`PartitionLoadRouter.with_chunk_epoch`) when a hot partition
    emerges mid-stream.
    """
    if shards < 1:
        raise ShuffleError(f"shards must be >= 1, got {shards}")
    rows = [list(row) for row in observed_cell_bytes]
    if not rows or not rows[0]:
        raise ShuffleError("observed cell bytes must not be empty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ShuffleError("observed cell byte rows must have equal length")
    total = sum(sum(row) for row in rows)
    fair_share = total / shards
    spread = [
        [
            shards > 1 and total > 0 and cell > spread_fraction * fair_share
            for cell in row
        ]
        for row in rows
    ]
    weights = [
        0.0 if spread[mapper][reducer] else rows[mapper][reducer]
        for mapper in range(len(rows))
        for reducer in range(width)
    ]
    flat = assign_balanced(weights, shards)
    return tuple(
        tuple(
            PartitionLoadRouter.SPREAD
            if spread[mapper][reducer]
            else flat[mapper * width + reducer]
            for reducer in range(width)
        )
        for mapper in range(len(rows))
    )


class RelayExchange(ExchangeBackend):
    """Exchange partitions through VM-hosted in-memory relays.

    Accepts either a single :class:`~repro.cloud.vm.relay.PartitionRelay`
    or a sharded :class:`~repro.cloud.vm.fleet.RelayFleet` — the two
    expose the same façade (id-addressed clients, aggregate capacity,
    fleet-wide cancellation), so the worker stages and task payloads are
    shared verbatim; only the planner's shard count and the billing
    multiplier differ.
    """

    name = "relay"
    process_labels = {"staged": "relayshuffle", "streaming": "streamrelayshuffle"}
    out_prefixes = {"staged": "relay-shuffle", "streaming": "streaming-relay-shuffle"}

    def __init__(
        self,
        relay: PartitionRelay | RelayFleet,
        cost: RelayShuffleCostModel | None = None,
        stream: StreamConfig | None = None,
    ):
        super().__init__(
            cost if cost is not None else RelayShuffleCostModel(), stream
        )
        self.relay = relay
        self._stats_baseline: dict[str, float] = {}
        #: Tenant/job scope label stamped on every worker's relay client
        #: (``None`` outside a multi-tenant service): the lever behind
        #: :meth:`~repro.cloud.vm.relay.PartitionRelay.cancel_scope`.
        self.tenant: str | None = None
        #: This sort's key-prefix namespace (set by :meth:`begin_sort`);
        #: scopes router installs and clears on a *shared* fleet.
        self._namespace: str | None = None
        #: Open peak-tracking epoch of the current sort (``None`` between
        #: sorts); epoch-scoped so concurrent jobs on a shared relay
        #: never reset each other's high watermark.
        self._peak_token = None

    @property
    def shards(self) -> int:
        return self.relay.shard_count

    def begin_sort(self, out_bucket: str, out_prefix: str) -> None:
        self._namespace = out_prefix

    def validate(self, logical_size: float) -> None:
        self.relay.ensure_running()
        if isinstance(self.relay, RelayFleet):
            # Any relay exchange over a fleet starts from hash routing:
            # a rebalance map a *previous* sort installed (possibly for
            # a different worker grid and load profile) must never leak
            # into this one.  ShardedRelayExchange re-installs its own
            # map in on_boundaries, after sampling.  With a resolved
            # namespace only *this sort's* routing is cleared — other
            # exchanges running concurrently on a shared fleet keep
            # theirs; without one (legacy single-job callers) the global
            # router is cleared as before.
            self.relay.set_router(None, namespace=self._namespace)
        if logical_size > self.relay.capacity_bytes:
            raise ShuffleError(
                f"shuffle data ({logical_size:.0f} logical bytes) exceeds "
                f"relay capacity ({self.relay.capacity_bytes:.0f}) of "
                f"{self.shards} x {self.relay.instance_type_name}; "
                "provision a larger instance or more shards"
            )
        if self.shards > 1:
            # Admission is per shard, not aggregate: a key-hash split is
            # never perfectly even, so a fleet that only *just* fits in
            # total can still overflow (and backpressure-deadlock) its
            # hottest shard.  Fail fast instead, budgeting the same
            # imbalance margin required_relay_fleet sizes with — and,
            # when load-aware rebalancing is off, the workload's
            # expected partition skew on top (hash routing parks a hot
            # partition entirely on one shard).  This is a heuristic,
            # not a guarantee: realized imbalance is unbounded for very
            # small key grids (W=2 puts ~4 keys on the hash ring),
            # where a hot shard can exceed the margin — a wider margin
            # or more workers is the operator's lever.
            per_shard = logical_size / self.shards
            expected_hot = min(
                float(logical_size), per_shard * self._shard_skew_budget()
            )
            shard_capacity = min(
                shard.capacity_bytes for shard in self.relay.shards
            )
            if expected_hot * SHARD_IMBALANCE_HEADROOM > shard_capacity:
                raise ShuffleError(
                    f"shuffle data ({logical_size:.0f} logical bytes over "
                    f"{self.shards} shards, per-shard skew budget "
                    f"{self._shard_skew_budget():.2f}) leaves no imbalance "
                    f"headroom: each shard holds {shard_capacity:.0f} bytes "
                    f"but may receive up to "
                    f"~{expected_hot * SHARD_IMBALANCE_HEADROOM:.0f}"
                    "; provision larger instances or more shards"
                )
        # The relay may be reused across sorts (its lifecycle belongs to
        # the caller); report per-sort deltas, not lifetime totals.
        self._stats_baseline = self.relay.stats.as_dict()
        # Epoch-scoped peak: each sort measures its own high watermark
        # without resetting anyone else's (relay-global reset_peak would
        # clobber concurrent jobs sharing this relay/fleet).
        if self._peak_token is not None:
            self.relay.end_peak_epoch(self._peak_token)
        self._peak_token = self.relay.begin_peak_epoch()

    def _shard_skew_budget(self) -> float:
        """Max-over-mean factor each shard must budget at admission.

        Without load-aware rebalancing, hash routing can park a hot
        partition entirely on one shard, so admission budgets the
        workload's expected partition skew — the runtime twin of
        :func:`~repro.shuffle.relayplanner.required_relay_fleet`'s
        skew-aware sizing.
        """
        return max(1.0, self.cost.expected_skew)

    def staged_plan(
        self, logical_size: float, profile: CloudProfile, max_workers: int
    ) -> ShufflePlan:
        return plan_relay_shuffle(
            logical_size,
            profile,
            self.relay.instance_type_name,
            self.cost,
            max_workers=max_workers,
            shards=self.shards,
        )

    def port_route(self, out_bucket: str) -> dict:
        route = {"kind": "relay", "relay_id": self.relay.relay_id}
        if self.tenant is not None:
            route["relay_scope"] = self.tenant
        return route

    def collect_route(
        self,
        reducer_id: int,
        workers: int,
        map_results: list[dict],
        out_bucket: str,
        out_prefix: str,
    ) -> dict:
        route = super().collect_route(
            reducer_id, workers, map_results, out_bucket, out_prefix
        )
        route["consume"] = self.cost.consume
        return route

    def provisioned_rate_usd_per_s(self) -> float:
        profile = self.relay.service.profile
        instance = self.relay.instance_type
        volume_per_s = (
            profile.boot_volume_gb * profile.volume_gb_hour_usd / 3600.0
        )
        return self.shards * (instance.per_second_usd + volume_per_s)

    def minimum_billed_s(self) -> float:
        return self.relay.service.profile.minimum_billed_s

    def extra_report(self) -> dict:
        baseline = self._stats_baseline
        totals = self.relay.stats.as_dict()
        if self._peak_token is not None:
            peak_fill = self.relay.end_peak_epoch(self._peak_token)
            self._peak_token = None
        else:
            peak_fill = self.relay.peak_fill_fraction
        return {
            "relay_id": self.relay.relay_id,
            "instance_type": self.relay.instance_type_name,
            "shards": self.shards,
            "peak_fill_fraction": peak_fill,
            "pushes": int(totals["pushes"] - baseline.get("pushes", 0)),
            "pulls": int(totals["pulls"] - baseline.get("pulls", 0)),
            "backpressure_waits": int(
                totals["backpressure_waits"]
                - baseline.get("backpressure_waits", 0)
            ),
            "dedup_hits": int(
                totals["dedup_hits"] - baseline.get("dedup_hits", 0)
            ),
            "dedup_bytes": totals["dedup_bytes"] - baseline.get("dedup_bytes", 0.0),
        }

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        return self.relay.cas_entries(prefix)



class ShardedRelayExchange(RelayExchange):
    """Exchange partitions through a sharded multi-relay fleet.

    Same worker stages and payloads as :class:`RelayExchange` — the
    fleet routes keys to shards underneath the shared relay-id
    indirection — but planned and priced as N instances, and reported
    as its own substrate so sweeps can contrast it with the single
    relay's NIC ceiling.

    **Load-aware shard routing** (``cost.rebalance``, on by default):
    once the sampling pass has estimated each partition's bytes, the
    exchange installs a :class:`PartitionLoadRouter` on the fleet that
    places every (mapper, reducer) segment with a deterministic LPT
    assignment over those planned bytes, so a Zipf-hot partition's
    traffic is spread across the shard NICs instead of landing wherever
    CRC-32 happens to put it.  The assignment is recorded in the
    uniform report (``rebalanced``, ``hot_shard_share``,
    ``shard_bytes``) and kept on :attr:`rebalance_assignments` for
    inspection.
    """

    name = "sharded-relay"
    process_labels = {"staged": "fleetshuffle", "streaming": "streamfleetshuffle"}
    out_prefixes = {"staged": "fleet-shuffle", "streaming": "streaming-fleet-shuffle"}

    def __init__(
        self,
        fleet: RelayFleet,
        cost: RelayShuffleCostModel | None = None,
        stream: StreamConfig | None = None,
    ):
        if not isinstance(fleet, RelayFleet):
            raise ShuffleError(
                "ShardedRelayExchange needs a RelayFleet; wrap a single "
                "relay in a one-shard fleet or use RelayExchange"
            )
        super().__init__(fleet, cost, stream)
        self.fleet = fleet
        #: ``assignments[mapper][reducer]`` of the last rebalanced sort
        #: (``None`` while routing falls back to the CRC hash).
        self.rebalance_assignments: tuple[tuple[int, ...], ...] | None = None
        self._post_map_shard_bytes: tuple[float, ...] = ()

    def _shard_skew_budget(self) -> float:
        # Load-aware rebalancing spreads the hot partition's segments
        # across shards, so a rebalanced fleet only budgets the hash
        # imbalance margin; without it the base (skewed) budget applies.
        if self.cost.rebalance and self.shards >= 2:
            return 1.0
        return super()._shard_skew_budget()

    def validate(self, logical_size: float) -> None:
        # Per-sort routing state: the base validate already cleared the
        # fleet's router; no traffic flows before on_boundaries
        # installs this sort's map, so the window is safe.
        super().validate(logical_size)
        self.rebalance_assignments = None
        self._post_map_shard_bytes = ()

    def on_boundaries(
        self,
        boundaries: t.Sequence[t.Any],
        predicted_partition_bytes: t.Sequence[float],
    ) -> None:
        if not self.cost.rebalance or self.fleet.shard_count < 2:
            return
        workers = len(predicted_partition_bytes)
        self.rebalance_assignments = build_rebalance_assignments(
            predicted_partition_bytes, workers, self.fleet.shard_count
        )
        # Namespaced under this sort's key prefix, so concurrent sorts
        # on a shared fleet each keep their own rebalanced routing;
        # legacy single-job callers (no begin_sort) install globally.
        self.fleet.set_router(
            PartitionLoadRouter(self.rebalance_assignments),
            namespace=self._namespace,
        )

    def on_map_done(self, map_results: list[dict]) -> None:
        # Post-map-wave shard fill: the direct observable of routing
        # imbalance.  Every published partition byte is resident at
        # this point in both modes: staged reducers have not started
        # (consume-mode deletion happens in the reduce wave, after this
        # snapshot), and streaming reducers read via the rendezvous
        # pull_wait, which never consumes.
        self._post_map_shard_bytes = tuple(
            shard.entry_bytes for shard in self.fleet.shards
        )

    def extra_report(self) -> dict:
        out = super().extra_report()
        out["rebalanced"] = self.rebalance_assignments is not None
        total = sum(self._post_map_shard_bytes)
        out["hot_shard_share"] = (
            max(self._post_map_shard_bytes) / total if total > 0 else 0.0
        )
        out["shard_bytes"] = self._post_map_shard_bytes
        if self._namespace is not None and self.rebalance_assignments is not None:
            # The sort is over: retire its namespaced router so a
            # long-running shared fleet's router table stays bounded.
            # (Global routers are left for validate's legacy clear.)
            self.fleet.set_router(None, namespace=self._namespace)
        return out

