"""Egress-port scheduling disciplines for fabric switches.

Section 3 (difference #3) observes that the de facto CFC switch
scheduler is *credit-agnostic* FIFO, which causes head-of-line blocking
when small latency-sensitive flits queue behind bulk transfers.

The switch stages flits for each egress port in an
:class:`EgressScheduler` built from per-class bounded queues (the
moral equivalent of virtual-output/VC queues in a real switch):

* :class:`FifoScheduler` — ONE shared queue in arrival order: the
  credit-agnostic baseline.  Under overload, small flits physically
  queue behind bulk flits (HoL blocking across channels);
* :class:`FairVcScheduler` — one queue per virtual channel, served by
  start-time fair queueing over bytes: a VC carrying 16 KB bursts
  cannot starve a VC carrying 64 B flits;
* :class:`PriorityScheduler` — one queue per priority level, higher
  ``packet.meta['prio']`` served first; this is what the DP#4 central
  arbiter programs for reserved flows.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Hashable, Optional, Tuple

from ..sim import Environment, Event, Store
from ..telemetry.causal import ARBITRATION, QUEUEING

__all__ = ["EgressScheduler", "FifoScheduler", "FairVcScheduler",
           "PriorityScheduler", "make_scheduler"]


class EgressScheduler:
    """Per-class bounded staging queues + a service-order policy.

    Subclasses define :meth:`_queue_id` (which queue a flit waits in)
    and :meth:`_key` (service order among queue heads; lower first,
    ties broken by arrival).  Queue capacity bounds switch buffering,
    so a congested class back-pressures its own ingress pipelines (and
    transitively upstream links) without blocking other classes —
    except for :class:`FifoScheduler`, whose single queue blocks
    everyone, which is precisely the paper's baseline pathology.
    """

    def __init__(self, env: Environment, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._queues: Dict[Hashable, Store] = {}
        self._seq = itertools.count()
        self._arrival: Optional[Event] = None
        self.enqueued = 0
        # Causal tracing (cached, one is-None branch when off).  The
        # switch stamps `site` at attach time; `_head_ts` remembers,
        # per queue, when its current head reached the head — the
        # boundary between time-in-queue (queueing) and time-at-head
        # losing grants (arbitration).  Maintained only on traced runs.
        tel = env.telemetry
        self._causal = tel.causal if tel is not None else None
        self.site = "sched"
        self._head_ts: Dict[Hashable, float] = {}

    def push(self, flit) -> Event:
        """Stage a flit; the event fires once its queue had space."""
        self.enqueued += 1
        entry = (self._key(flit), next(self._seq), flit)
        queue_id = self._queue_id(flit)
        queue = self._queues.get(queue_id)
        if queue is None:
            queue = Store(self.env, capacity=self.capacity)
            self._queues[queue_id] = queue
        put_event = queue.put(entry)
        put_event.callbacks.append(self._notify_arrival)
        if self._causal is not None:
            trace = flit.packet.trace

            def _staged(event, self=self, queue=queue, queue_id=queue_id,
                        flit=flit, trace=trace):
                now = event.env.now
                if len(queue.items) == 1:
                    self._head_ts[queue_id] = now
                if trace is not None:
                    flit.cspan = self._causal.begin(trace, now, QUEUEING,
                                                    self.site)

            put_event.callbacks.append(_staged)
        return put_event

    def pop(self) -> Generator[Event, None, object]:
        """Take the flit whose queue head has the lowest key."""
        while True:
            best_queue = None
            best_entry = None
            best_id = None
            for queue_id, queue in self._queues.items():
                if not queue.items:
                    continue
                head = queue.items[0]
                if best_entry is None or head[:2] < best_entry[:2]:
                    best_queue, best_entry = queue, head
                    best_id = queue_id
            if best_queue is not None:
                entry = yield best_queue.get()
                self._on_pop(entry)
                if self._causal is not None:
                    self._record_grant(best_id, entry[2])
                return entry[2]
            self._arrival = self.env.event()
            yield self._arrival
            self._arrival = None

    def _record_grant(self, queue_id: Hashable, flit) -> None:
        """Split a traced flit's scheduler time at the head boundary."""
        now = self.env.now
        head_since = min(self._head_ts.get(queue_id, now), now)
        self._head_ts[queue_id] = now    # the next head starts aging
        trace = flit.packet.trace
        if trace is None:
            return
        causal = self._causal
        if flit.cspan is not None:
            # Queue residency ends when the flit reached the head; the
            # analyzer clamps if the head estimate predates the enqueue
            # (possible only across same-instant callback orderings).
            causal.end(trace, head_since, flit.cspan)
            flit.cspan = None
        if now - head_since > 0.0:
            causal.interval(trace, head_since, now, ARBITRATION,
                            self.site)
        causal.mark(trace, now, "arb.grant", self.site)

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    #: Whether staged service order is immune to later pushes.  Only
    #: then may the switch's batched egress sweep pre-compute the order
    #: of a whole run: FIFO serves strictly by arrival, so a flit pushed
    #: while a batch is in flight always queues behind it.  Fair and
    #: priority disciplines can preempt staged entries (a lower virtual
    #: start time or a higher priority), so they must stay on the
    #: pop-one-at-a-time path.
    batchable = False

    def peek_ready(self) -> Optional[object]:
        """The flit ``pop`` would take next, without taking it."""
        raise NotImplementedError

    def plan_ready_run(self, limit: int) -> Optional[list]:
        """A same-size, same-VC head run ``pop`` would serve (or None).

        Pure inspection: nothing is removed.  The sweep retires the
        planned flits one at a time via :meth:`commit_head`, so queue
        occupancy — and therefore back-pressure on blocked pushes —
        evolves exactly as under the scalar loop.
        """
        raise NotImplementedError

    def commit_head(self) -> None:
        """Remove the head entry and re-open its staging slot."""
        raise NotImplementedError

    # -- policy hooks -----------------------------------------------------

    def _queue_id(self, flit) -> Hashable:
        raise NotImplementedError

    def _key(self, flit) -> Tuple:
        raise NotImplementedError

    def _on_pop(self, entry: Tuple) -> None:
        """Hook: called with the (key, seq, flit) entry entering service."""

    # -- internals -----------------------------------------------------------

    def _notify_arrival(self, _event: Event) -> None:
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()


class FifoScheduler(EgressScheduler):
    """Credit-agnostic single queue; the paper's baseline discipline."""

    batchable = True

    def _queue_id(self, flit) -> Hashable:
        return "all"

    def _key(self, flit) -> Tuple:
        return ()   # sequence number alone decides: pure FIFO

    def peek_ready(self) -> Optional[object]:
        queue = self._queues.get("all")
        if queue is None or len(queue.items) < 2 or queue._get_waiters:
            return None
        return queue.items[0][2]

    def plan_ready_run(self, limit: int) -> Optional[list]:
        """Plan the homogeneous head run, at most ``limit`` flits.

        Homogeneous means same ``size_bytes`` and same VC — the run
        then serializes at one per-flit rate and draws credits from one
        pool, which is what lets the caller compute the whole schedule
        in closed form.  Blocked pushes don't disqualify the sweep:
        entries stay staged until their :meth:`commit_head`, which
        serves waiters one slot at a time just like scalar pops would.
        The run also stops before the first causally traced flit: its
        waits, spans and grant are recorded by the scalar path.
        """
        items = self._queues["all"].items
        head = items[0][2]
        if head.packet.trace is not None:
            return None
        key = head.transport_key()
        n = 1
        stop = min(limit, len(items))
        while n < stop:
            flit = items[n][2]
            if flit.transport_key() != key or flit.packet.trace is not None:
                break
            n += 1
        if n < 2:
            return None
        return [entry[2] for entry in items[:n]]

    def commit_head(self) -> None:
        # FIFO `_on_pop` is a no-op, so dropping the entry leaves no
        # policy state behind.  Re-triggering the store serves exactly
        # one blocked push (one slot just opened) — the push event
        # fires at the same instant the scalar pop would have fired it.
        queue = self._queues["all"]
        queue.items.pop(0)
        queue._trigger()
        if self._causal is not None:
            # An untraced pop still restarts the next head's aging,
            # exactly as `_record_grant` does on the scalar path.
            self._head_ts["all"] = self.env.now


class FairVcScheduler(EgressScheduler):
    """Start-time fair queueing across virtual channels."""

    def __init__(self, env: Environment, capacity: int = 64,
                 weights: Dict[int, float] = None) -> None:
        super().__init__(env, capacity)
        self._vtime: Dict[int, float] = {}
        self._weights = dict(weights or {})
        self._virtual_clock = 0.0

    def _queue_id(self, flit) -> Hashable:
        return flit.vc

    def _key(self, flit) -> Tuple:
        vc = flit.vc
        weight = self._weights.get(vc, 1.0)
        # A newly active VC starts at the virtual time currently in
        # service: it neither replays its idle past nor waits behind a
        # busy VC's accumulated virtual time.
        start = max(self._vtime.get(vc, 0.0), self._virtual_clock)
        self._vtime[vc] = start + flit.size_bytes / weight
        return (start,)

    def _on_pop(self, entry: Tuple) -> None:
        key = entry[0]
        if key:
            self._virtual_clock = max(self._virtual_clock, key[0])


class PriorityScheduler(EgressScheduler):
    """Serves higher ``packet.meta['prio']`` first (arbiter-programmed)."""

    def _queue_id(self, flit) -> Hashable:
        return float(flit.packet.meta.get("prio", 0.0))

    def _key(self, flit) -> Tuple:
        return (-float(flit.packet.meta.get("prio", 0.0)),)


_SCHEDULERS = {
    "fifo": FifoScheduler,
    "fair": FairVcScheduler,
    "priority": PriorityScheduler,
}


def make_scheduler(name: str, env: Environment,
                   capacity: int = 64) -> EgressScheduler:
    """Factory used by switch/topology configuration strings."""
    try:
        cls = _SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(_SCHEDULERS)}")
    return cls(env, capacity=capacity)
