"""The fabric switch (FS): ports, crossbar, routing, egress scheduling.

Mirrors the component described in section 2.2: upstream ports (UPs)
toward fabric host adapters, downstream ports (DPs) toward devices and
memory, a non-blocking crossbar between them (the Omega testbed
design), per-egress staging queues with a pluggable service discipline,
and a routing table filled by the central fabric manager.

Timing model per forwarded flit:

* the flit leaves the ingress link buffer only once a switch buffer
  slot is free (holding the upstream credit otherwise — this is how
  congestion back-propagates, claim C7);
* it crosses the pipeline in ``port_latency_ns`` (the paper's
  "<100 ns non-blocking switch latency per port");
* it is staged at the egress scheduler, then serialized by the egress
  link at link bandwidth.

Because every stage is pipelined, throughput is set by link bandwidth,
not by the 90 ns latency.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Generator, List, Optional

try:
    import numpy as _np
except ImportError:      # pragma: no cover - numpy ships with the toolchain
    _np = None

from .. import params
from ..fabric.flit import Flit
from ..fabric.link import LinkLayer
from ..sim import Environment, Event, Resource
from ..telemetry.causal import QUEUEING
from .arbitration import EgressScheduler, make_scheduler
from .credits import CreditDomain
from .routing import PbrId, RoutingTable

__all__ = ["FabricSwitch", "PortRole", "SwitchPort"]


class PortRole(enum.Enum):
    UPSTREAM = "UP"        # toward host adapters
    DOWNSTREAM = "DP"      # toward devices / memory / other switches


@dataclasses.dataclass
class SwitchPort:
    """One attached port: the link pair and its egress scheduler."""

    index: int
    role: PortRole
    in_link: LinkLayer
    out_link: LinkLayer
    scheduler: EgressScheduler
    peer: str = ""
    flits_in: int = 0
    flits_out: int = 0
    pending: int = 0      # flits routed here but not yet on the wire
    buffer_site: str = "" # causal site label for ingress-buffer waits
    sweep_ok: bool = False  # static half of the egress-sweep predicate


class FabricSwitch:
    """A PBR-capable switch inside one fabric domain."""

    def __init__(self, env: Environment, name: str, domain: int = 0,
                 port_latency_ns: float = params.SWITCH_PORT_LATENCY_NS,
                 scheduler: str = "fair",
                 scheduler_capacity: int = 64,
                 ingress_buffer: int = 128,
                 adaptive_routing: bool = False) -> None:
        self.env = env
        self.name = name
        self.domain = domain
        self.port_latency_ns = port_latency_ns
        self.scheduler_kind = scheduler
        self.scheduler_capacity = scheduler_capacity
        self.ingress_buffer = ingress_buffer
        self.adaptive_routing = adaptive_routing
        self.table = RoutingTable(domain)
        self.ports: Dict[int, SwitchPort] = {}
        self.credit_domains: Dict[int, CreditDomain] = {}
        self.flits_forwarded = 0
        self._next_index = 0
        self._rr_counter = 0
        # Cached telemetry: the per-flit hooks below are one is-None
        # branch when observability is off.
        self._tel = tel = env.telemetry
        self._causal = tel.causal if tel is not None else None
        if tel is not None:
            registry = tel.registry
            self._m_forwarded = registry.counter(f"pcie.{name}.flits_forwarded")
            self._m_drops = registry.counter(f"pcie.{name}.drops")
            self._track = f"pcie.{name}"

    # -- construction ------------------------------------------------------

    def attach(self, in_link: LinkLayer, out_link: LinkLayer,
               role: PortRole = PortRole.DOWNSTREAM,
               peer: str = "",
               index: Optional[int] = None) -> SwitchPort:
        """Wire a link pair into the switch and start its pipelines."""
        if index is None:
            index = self._next_index
        if index in self.ports:
            raise ValueError(f"port {index} already attached on {self.name}")
        self._next_index = max(self._next_index, index + 1)
        port = SwitchPort(
            index=index, role=role, in_link=in_link, out_link=out_link,
            scheduler=make_scheduler(self.scheduler_kind, self.env,
                                     capacity=self.scheduler_capacity),
            peer=peer)
        if self._causal is not None:
            port.buffer_site = f"pcie.{self.name}.in{index}.buffer"
            port.scheduler.site = f"pcie.{self.name}.p{index}.egress"
        # Static half of the batched-egress predicate (see `_egress`):
        # nothing may be able to observe the per-flit intermediate
        # events the sweep elides, and the scheduler's service order
        # must be immune to pushes landing mid-batch.  Telemetry is no
        # bar: the sweep applies its counters at their scalar instants
        # and never spans a sampler tick (see `_gather_sweep`).
        port.sweep_ok = (
            _np is not None
            and self.env._batch
            and self.env._sanitizer is None
            and not self.adaptive_routing
            and port.scheduler.batchable
            and out_link.error_rate == 0.0
            and not out_link.control_lane_enabled)
        self.ports[index] = port
        if self._tel is not None:
            # The issue-shaped hierarchical names: queue_depth counts
            # flits routed to this egress but not yet on the wire.
            self._tel.add_probe(
                f"pcie.{self.name}.port{index}.queue_depth",
                lambda p=port: p.pending, track=self._track)
        self.env.process(self._ingress(port), name=f"{self.name}.in{index}",
                         daemon=True)
        self.env.process(self._egress(port), name=f"{self.name}.out{index}",
                         daemon=True)
        return port

    def add_credit_domain(self, egress_index: int,
                          domain: CreditDomain) -> None:
        """Constrain one egress port with a per-flow credit budget.

        Flows are named after the ingress port index (``"in<N>"``); they
        are registered lazily as traffic first crosses.
        """
        if egress_index not in self.ports:
            raise ValueError(f"no port {egress_index} on {self.name}")
        self.credit_domains[egress_index] = domain

    # -- data path -----------------------------------------------------------

    def _ingress(self, port: SwitchPort) -> Generator[Event, None, None]:
        slots = Resource(self.env, capacity=self.ingress_buffer)
        while True:
            flit: Flit = yield port.in_link.rx.get()
            request = slots.request()
            if self._causal is not None and flit.packet.trace is not None:
                # Waiting for switch buffering while still holding the
                # upstream credit — the C7 back-propagation stage.
                self._causal.wait(flit.packet.trace, request, QUEUEING,
                                  port.buffer_site)
            yield request
            # Credit returns upstream only once the flit found switch
            # buffering; a full switch therefore stalls the upstream
            # link and, transitively, switches further up.
            port.in_link.consume(flit)
            port.flits_in += 1
            self.env.process(self._forward(flit, port, slots, request),
                             name=f"{self.name}.fwd")

    def _forward(self, flit: Flit, ingress: SwitchPort,
                 slots: Resource, request) -> Generator[Event, None, None]:
        yield self.env.timeout(self.port_latency_ns)
        try:
            egress_index = self._route(flit)
        except KeyError:
            slots.release(request)
            if self._tel is not None:
                self._m_drops.inc(time=self.env.now)
                self._tel.instant("switch.drop", track=self._track,
                                  packet=repr(flit.packet))
            return
        egress = self.ports[egress_index]
        egress.pending += 1
        flit.flow = f"in{ingress.index}"
        domain = self.credit_domains.get(egress_index)
        if domain is not None:
            if flit.flow not in domain.flow_names():
                domain.register(flit.flow)
            yield domain.acquire(flit.flow, trace=flit.packet.trace)
        push = egress.scheduler.push(flit)
        if self._causal is not None and flit.packet.trace is not None:
            # Blocked at a full staging queue: still queueing, charged
            # to the egress scheduler's site.
            self._causal.wait(flit.packet.trace, push, QUEUEING,
                              egress.scheduler.site)
        yield push
        slots.release(request)

    def _route(self, flit: Flit) -> int:
        """Pick the egress port; adaptive mode takes the least loaded.

        All flits of one packet must take one path (reassembly is
        per-packet, but ordering within the packet matters), so the
        adaptive choice is made on the head flit and remembered.
        """
        dst = PbrId.from_global(flit.packet.dst)
        candidates = self.table.candidates(dst)
        if not self.adaptive_routing or len(candidates) == 1:
            return candidates[0]
        chosen = flit.packet.meta.get("_adaptive_path", {}).get(self.name)
        if chosen is not None:
            return chosen
        # Least in-flight load wins; ties rotate round-robin so equal
        # paths actually share (a head-of-list bias would starve one).
        self._rr_counter += 1
        rotation = self._rr_counter % len(candidates)
        rotated = candidates[rotation:] + candidates[:rotation]
        chosen = min(rotated,
                     key=lambda index: self.ports[index].pending)
        flit.packet.meta.setdefault("_adaptive_path", {})[self.name] = \
            chosen
        return chosen

    def _egress(self, port: SwitchPort) -> Generator[Event, None, None]:
        domain_lookup = self.credit_domains
        while True:
            if port.sweep_ok:
                domain = domain_lookup.get(port.index)
                planned = self._gather_sweep(port, domain)
                if planned is not None:
                    run, ends = planned
                    yield from self._transmit_sweep(port, run, ends, domain)
                    continue
            flit = yield from port.scheduler.pop()
            yield from port.out_link.transmit_direct(flit)
            port.pending -= 1
            port.flits_out += 1
            self.flits_forwarded += 1
            if self._tel is not None:
                self._m_forwarded.inc(time=self.env.now)
            domain = domain_lookup.get(port.index)
            if domain is not None and flit.flow is not None:
                domain.release(flit.flow)

    def _gather_sweep(self, port: SwitchPort,
                      domain: Optional[CreditDomain]) -> Optional[tuple]:
        """Runtime half of the egress-sweep predicate + the schedule.

        Returns ``(run, ends)`` — a homogeneous staged run and its
        serialization boundaries — only when the scalar loop could not
        have blocked anywhere inside it: a link credit per flit is
        already available (with nobody else waiting on the pool), the
        wire is idle, no allocator manages the link's credits, and — on
        credit-domain ports — no flow is currently stalled dry (the
        credit-constrained regime stays on the scalar path untouched).

        On observed runs the run is also cut so that every hook it
        schedules (the last one is the final delivery at ``ends[k] +
        prop``) lands strictly before the next sampler tick: probes,
        health tickers and control actions then only ever see state
        between sweeps, where it equals the scalar loop's.
        """
        first = port.scheduler.peek_ready()
        if first is None:
            return None
        out = port.out_link
        if out._managed:
            return None
        wire = out.phys._wire
        if wire.users or wire._waiters:
            return None
        pool = out._credit_pools[first.vc]
        if pool._get_waiters or pool._put_waiters:
            return None
        level = int(pool.level)
        if level < 2:
            return None
        if domain is not None and any(
                p._get_waiters for p in domain._pools.values()):
            return None
        run = port.scheduler.plan_ready_run(level)
        if run is None:
            return None
        ser_ns = out.phys.serialization_ns(first)
        ends = _np.cumsum([self.env.now] + [ser_ns] * len(run))
        if self._tel is not None:
            arrivals = ends[1:] + out.params.propagation_ns
            k = int(_np.searchsorted(arrivals, self._tel.next_sample_ns))
            if k < 2:
                return None
            if k < len(run):
                run = run[:k]
                ends = ends[:k + 1]
        return run, ends

    def _transmit_sweep(self, port: SwitchPort, run: list, ends,
                        domain: Optional[CreditDomain],
                        ) -> Generator[Event, None, None]:
        """Serialize a staged run with one closed-form schedule.

        Equivalent of k iterations of the scalar loop body (pop →
        ``transmit_direct`` → counters → domain release), which per
        flit costs 7 events: the pop StoreGet, the credit ContainerGet,
        the wire grant, the serialization Timeout, the ``_propagate``
        start hook, the propagation Timeout, and the propagation
        process completion.  The sweep spends one bulk credit get + one
        wire grant up front, then per serialization boundary one ledger
        hook (which applies the flit's counter side effects at its
        exact scalar service time), per flit one delivery hook, and one
        final Timeout.  Elisions are credited *in the same time bucket*
        where the scalar loop would have dispatched them, so a run cut
        short by the simulation horizon still counts events
        identically.  On credit-domain ports each flit's credit returns
        via :meth:`CreditDomain.release_at` at its scalar release time
        (one extra real hook per boundary, one fewer elision).  The
        telemetry counters the scalar loop bumps per flit (the out
        link's ``flits``/``bytes``, the switch's ``flits_forwarded``)
        ride the same ledger hooks, stamped with the same instants.
        """
        env = self.env
        out = port.out_link
        out._direct_used = True
        phys = out.phys
        scheduler = port.scheduler
        k = len(run)
        size = run[0].size_bytes
        # The scalar pop dequeues the head — and thereby re-opens one
        # staging slot — *before* taking the credit; keep that order so
        # a blocked push fires at the identical instant.
        scheduler.commit_head()
        yield out._credit_pools[run[0].vc].get(float(k))
        wire = phys._wire.request()
        yield wire
        prop = out.params.propagation_ns
        hook = env._schedule_hook_at
        deliver = out._deliver
        # Scalar T0 bucket: pop get + credit get + wire grant = 3; the
        # sweep paid two real events just above.
        env.credit_elided(1)
        # Scalar bucket at each inner boundary ends[i], i < k: the ser
        # Timeout, the propagate start hook, and the next flit's pop
        # get / credit get / wire grant = 5.  The ledger hook is 1 real
        # (+ the release_at hook on domain ports).
        tick_elided = 3 if domain is not None else 4
        observed = self._tel is not None

        def _retire(self=self, port=port, phys=phys, size=size, out=out,
                    env=env, observed=observed):
            # One flit's serialization ended: the scalar loop's side
            # effects, at the instant it applies them.
            phys.flits_sent += 1
            phys.bytes_sent += size
            port.pending -= 1
            port.flits_out += 1
            self.flits_forwarded += 1
            if observed:
                now = env.now
                out._m_flits.inc(time=now)
                out._m_bytes.inc(size, time=now)
                self._m_forwarded.inc(time=now)

        def _tick(event, retire=_retire, scheduler=scheduler, env=env,
                  n=tick_elided):
            retire()
            scheduler.commit_head()
            env.credit_elided(n)

        for i, flit in enumerate(run):
            t_end = float(ends[i + 1])

            # Scalar bucket at ends[i] + prop: propagation Timeout +
            # process completion = 2; the delivery hook is 1 real.
            def _arrive(event, flit=flit, deliver=deliver, env=env):
                deliver(flit)
                env.credit_elided(1)

            hook(t_end + prop, _arrive, True, None)
            if i + 1 < k:
                # Scalar order within the boundary bucket: the domain
                # release (and any credit refill it triggers) precedes
                # the next pop's dequeue, which precedes the next
                # credit get — hook insertion order reproduces it.
                if domain is not None and flit.flow is not None:
                    domain.release_at(flit.flow, t_end)
                hook(t_end, _tick, True, None)
        # Scalar bucket at ends[k]: the last ser Timeout + propagate
        # start hook = 2; the resuming Timeout here is 1 real.
        yield env.timeout_at(float(ends[k]))
        phys._wire.release(wire)
        _retire()
        last = run[-1]
        if domain is not None and last.flow is not None:
            domain.release(last.flow)
        env.credit_elided(1)

    # -- inspection -------------------------------------------------------------

    def port_count(self) -> int:
        return len(self.ports)

    def describe(self) -> str:
        lines = [f"switch {self.name} (domain {self.domain}, "
                 f"{len(self.ports)} ports, {self.scheduler_kind} scheduler)"]
        for index in sorted(self.ports):
            port = self.ports[index]
            lines.append(f"  port {index} [{port.role.value}] -> {port.peer} "
                         f"(in={port.flits_in}, out={port.flits_out})")
        return "\n".join(lines)
