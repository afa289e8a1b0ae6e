"""Fluid-model bandwidth links with max-min fair sharing.

A :class:`FairShareLink` models a shared capacity (a VM NIC, an object
store's per-account aggregate pipe, a regional backbone) over which any
number of concurrent *flows* transfer bytes.  The model is the classical
fluid approximation: at any instant, bandwidth is divided among active
flows by max-min fairness, honouring an optional per-flow rate cap (used
to model per-connection limits of object storage).

The implementation is event-driven: rates change only when a flow starts
or finishes, so between those instants each flow drains linearly and the
kernel needs just one timer for the earliest completion.
"""

from __future__ import annotations

import itertools
import math
import typing as t

from repro.errors import SimulationError
from repro.sim.events import SimEvent

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: Residual bytes below this threshold count as "transfer complete".
_EPSILON_BYTES = 1e-6


class _Flow:
    __slots__ = ("flow_id", "remaining", "cap", "rate", "event", "started_at")

    def __init__(
        self,
        flow_id: int,
        nbytes: float,
        cap: float,
        event: SimEvent,
        started_at: float,
    ):
        self.flow_id = flow_id
        self.remaining = float(nbytes)
        self.cap = cap
        self.rate = 0.0
        self.event = event
        self.started_at = started_at


class FairShareLink:
    """Shared-capacity link dividing bandwidth max-min fairly among flows.

    Parameters
    ----------
    capacity:
        Total link capacity in bytes/second.  ``math.inf`` models an
        uncontended aggregate (flows then run at their per-flow caps).
    default_flow_cap:
        Per-flow rate ceiling in bytes/second applied when ``transfer``
        is not given an explicit cap.  ``math.inf`` disables the ceiling.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float,
        default_flow_cap: float = math.inf,
        name: str = "link",
    ):
        if capacity <= 0:
            raise SimulationError(f"{name}: link capacity must be positive")
        if default_flow_cap <= 0:
            raise SimulationError(f"{name}: per-flow cap must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.default_flow_cap = default_flow_cap
        self._flows: dict[int, _Flow] = {}
        self._flow_ids = itertools.count(1)
        self._last_update = sim.now
        self._timer_token = 0
        #: Total bytes ever delivered; exposed for tests and reports.
        self.bytes_delivered = 0.0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of in-progress transfers."""
        return len(self._flows)

    def transfer(self, nbytes: float, flow_cap: float | None = None) -> SimEvent:
        """Start a transfer of ``nbytes``; the event triggers at completion.

        The event's value is the transfer duration in seconds.
        """
        if nbytes < 0:
            raise SimulationError(f"{self.name}: cannot transfer {nbytes} bytes")
        cap = self.default_flow_cap if flow_cap is None else flow_cap
        if cap <= 0:
            raise SimulationError(f"{self.name}: per-flow cap must be positive")
        event = SimEvent(self.sim, name=f"{self.name}.transfer({nbytes:g}B)")
        if nbytes <= _EPSILON_BYTES:
            self.bytes_delivered += max(nbytes, 0.0)
            event.succeed(0.0)
            return event
        if math.isinf(self.capacity) and math.isinf(cap):
            raise SimulationError(
                f"{self.name}: transfer needs a finite capacity or flow cap"
            )
        self._advance()
        flow = _Flow(next(self._flow_ids), nbytes, cap, event, self.sim.now)
        self._flows[flow.flow_id] = flow
        self._rerate()
        self._reschedule()
        return event

    def abort(self, event: SimEvent) -> bool:
        """Abort the in-flight transfer identified by its completion event.

        The flow stops consuming link capacity immediately; its event is
        left untriggered (the aborting caller is unwinding and nobody
        else may wait on a transfer event).  Returns whether a flow was
        actually removed — ``False`` means the transfer had already
        completed (or never contended, e.g. zero-byte transfers).
        """
        for flow_id, flow in self._flows.items():
            if flow.event is event:
                self._advance()
                # Bytes already drained stay delivered (they crossed the
                # wire); only the undelivered remainder is cancelled.
                del self._flows[flow_id]
                self._rerate()
                self._reschedule()
                return True
        return False

    def utilization(self) -> float:
        """Current aggregate rate as a fraction of capacity (0..1)."""
        if math.isinf(self.capacity):
            return 0.0
        return sum(flow.rate for flow in self._flows.values()) / self.capacity

    # ------------------------------------------------------------------
    # fluid-model mechanics
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Drain all flows at their current rates up to ``sim.now``."""
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows.values():
                # A completion timer clamped up to the kernel's minimum
                # tick overshoots in time, never in bytes: a flow can
                # deliver at most what it still has to send.
                drained = min(flow.rate * elapsed, max(flow.remaining, 0.0))
                flow.remaining -= drained
                self.bytes_delivered += drained
        self._last_update = now

    def _rerate(self) -> None:
        """Recompute per-flow rates with capped max-min fairness.

        Water-filling: visit flows in ascending cap order, giving each
        ``min(cap, remaining_capacity / remaining_flows)``.
        """
        flows = sorted(self._flows.values(), key=lambda flow: flow.cap)
        remaining_capacity = self.capacity
        remaining_count = len(flows)
        for flow in flows:
            if math.isinf(remaining_capacity):
                fair_share = flow.cap
            else:
                fair_share = remaining_capacity / remaining_count
            flow.rate = min(flow.cap, fair_share)
            remaining_capacity -= flow.rate
            remaining_count -= 1

    def _reschedule(self) -> None:
        """Arm one timer for the earliest flow completion.

        The eta is clamped to a minimum tick well above the float
        resolution of the current timestamp: with sub-resolution etas,
        ``now + eta == now`` and the timer would re-fire forever at the
        same instant without draining anything.  The clamp trades a
        sub-microsecond overshoot for guaranteed progress.
        """
        self._timer_token += 1
        if not self._flows:
            return
        token = self._timer_token
        eta = min(
            flow.remaining / flow.rate
            for flow in self._flows.values()
            if flow.rate > 0
        )
        min_tick = max(1e-9, abs(self.sim.now) * 1e-12)
        self.sim.timeout(max(eta, min_tick)).add_callback(
            lambda _evt: self._on_timer(token)
        )

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # a newer re-rating superseded this timer
        self._advance()
        finished = [
            flow for flow in self._flows.values() if flow.remaining <= _EPSILON_BYTES
        ]
        for flow in finished:
            del self._flows[flow.flow_id]
        self._rerate()
        self._reschedule()
        for flow in finished:
            flow.event.succeed(self.sim.now - flow.started_at)
