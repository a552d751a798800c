"""Link layer: reliable flit transmission with credit-based flow control.

Implements what section 2.1 describes for the Flex Bus link layer:

* hop-by-hop **credit-based flow control** — the sender may only push a
  flit when it holds a credit for the receiver's buffer on that virtual
  channel;
* a **credit update protocol** — the receiver returns credits after a
  configurable update cadence (piggybacking delay);
* an **overcommitment scheme** — the receiver may grant more credits
  than buffer slots to improve utilization of bursty channels;
* **ack/retry reliability** — flits that fail CRC (injected error rate)
  are retransmitted;
* an optional **dedicated control lane** (design principle #4) — a thin
  reserved slice of bandwidth that arbiter traffic uses without taking
  data-path credits.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

try:
    import numpy as _np
except ImportError:      # pragma: no cover - numpy ships with the toolchain
    _np = None

from .. import params
from ..sim import Container, Environment, Event, SimRng, Store
from ..telemetry.causal import CREDIT_STALL, QUEUEING, SERIALIZATION, WIRE
from .flit import Channel, Flit
from .phys import PhysicalLayer

__all__ = ["LinkLayer"]

#: Events the scalar sender spends per flit beyond the rx StorePut
#: (which both paths pay): the tx-queue StoreGet, the credit
#: ContainerGet, the wire Request grant, the serialization Timeout,
#: the ``_propagate`` start hook, the propagation Timeout, and the
#: propagation process completion.  The vector path spends one initial
#: StoreGet + one bulk credit get + one wire grant + k delivery hooks
#: + one completion Timeout, so a k-flit batch elides
#: ``7k - (k + 4) = 6k - 4`` events; crediting them via
#: ``Environment.credit_elided`` keeps ``events_processed``
#: bit-identical to the scalar path (pinned by the batch-identity
#: tests).
_SCALAR_EVENTS_PER_FLIT = 7


class LinkLayer:
    """One unidirectional fabric link with CFC.

    The receiving component drains :attr:`rx` and must call
    :meth:`consume` for every flit it takes; that is what returns the
    credit to the sender (after the credit-update delay).
    """

    def __init__(self, env: Environment,
                 link_params: Optional[params.LinkParams] = None,
                 vcs: int = 2,
                 name: str = "link",
                 overcommit: float = 1.0,
                 credit_update_ns: float = params.CREDIT_UPDATE_INTERVAL_NS,
                 control_lane: bool = False,
                 error_rate: float = 0.0,
                 rng: Optional[SimRng] = None,
                 tx_queue_capacity: float = float("inf")) -> None:
        if vcs < 1:
            raise ValueError(f"need at least one VC, got {vcs}")
        if overcommit < 1.0:
            raise ValueError(f"overcommit must be >= 1.0, got {overcommit}")
        if not 0.0 <= error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got {error_rate}")
        if not credit_update_ns >= 0:    # NaN fails this too
            raise ValueError(f"link {name!r}: credit_update_ns must be "
                             f">= 0, got {credit_update_ns}")
        self.env = env
        self.params = link_params or params.LinkParams()
        self.name = name
        self.vcs = vcs
        self.credit_update_ns = credit_update_ns
        self.error_rate = error_rate
        self.rng = rng or SimRng(0)
        self.phys = PhysicalLayer(env, self.params, name=f"{name}.phys")

        initial = int(self.params.credits * overcommit)
        self._credit_pools: List[Container] = [
            Container(env, capacity=max(initial, self.params.credits) * 4,
                      init=initial)
            for _ in range(vcs)
        ]
        self._tx_queues: List[Store] = [
            Store(env, capacity=tx_queue_capacity) for _ in range(vcs)]
        self.rx: Store = Store(env)
        self.retransmissions = 0
        self.max_rx_occupancy = 0
        self._rx_occupancy = 0
        self._granted = [initial] * vcs

        # Telemetry is cached once; every hot-path hook below is a
        # single `is None` branch when observability is off.
        self._tel = tel = env.telemetry
        self._causal = tel.causal if tel is not None else None
        if self._causal is not None:
            # Sites are formatted once here, never per event.
            self._site_txq = f"link.{name}.txq"
            self._site_credit = f"link.{name}.credit"
            self._site_serialize = f"link.{name}.serialize"
            self._site_wire = f"link.{name}.wire"
        if tel is not None:
            registry = tel.registry
            self._m_flits = registry.counter(f"link.{name}.flits")
            self._m_bytes = registry.counter(f"link.{name}.bytes")
            self._m_retries = registry.counter(f"link.{name}.retries")
            tel.add_probe(f"link.{name}.rx_occupancy",
                          lambda: self._rx_occupancy,
                          track=f"link.{name}")
            for vc in range(vcs):
                pool = self._credit_pools[vc]
                queue = self._tx_queues[vc]
                tel.add_probe(f"link.{name}.vc{vc}.credits",
                              lambda p=pool: p.level,
                              track=f"link.{name}")
                tel.add_probe(f"link.{name}.vc{vc}.tx_backlog",
                              lambda q=queue: len(q),
                              track=f"link.{name}")

        # Vectorized transport: legal only when nothing can observe the
        # per-flit intermediate events.  The static part of the predicate
        # is evaluated once; `_managed` / `_direct_used` flip to True the
        # first time an allocator or a switch egress touches the credit
        # pools, which permanently routes this link back to the scalar
        # path (those callers share the pools / the wire and must see
        # per-flit interleaving).  Unlike the switch sweep it stays off
        # under telemetry: it applies its counters in one step at the
        # run's start, and moving them to their per-flit instants would
        # cost a ledger event per flit.
        self._managed = False
        self._direct_used = False
        self._vector_ok = (
            _np is not None
            and env._batch
            and env._sanitizer is None
            and self._tel is None
            and error_rate == 0.0
            and vcs == 1
            and not control_lane
            and tx_queue_capacity == float("inf"))
        # Credit returns only need the event chain to be unobservable —
        # the wire and tx queues are not involved, so multi-VC and
        # bounded-queue links still qualify.  Telemetry cannot tell the
        # paths apart: the hook lands in the same time bucket as the
        # scalar return's timeout, so a sampler tick falls on the same
        # side of both.
        self._fast_credit = env._batch and env._sanitizer is None

        self.control_lane_enabled = control_lane
        if control_lane:
            ctrl_bw = params.LinkParams(
                lanes=4, gt_per_s=self.params.gt_per_s
                * params.CONTROL_LANE_FRACTION * 4,
                flit_bytes=params.FLIT_BYTES_SMALL,
                propagation_ns=self.params.propagation_ns)
            self._control_phys = PhysicalLayer(env, ctrl_bw,
                                               name=f"{name}.ctrl")
            self._control_queue: Store = Store(env)
            env.process(self._control_sender(), name=f"{name}.ctrl-tx",
                        daemon=True)
        for vc in range(vcs):
            env.process(self._sender(vc), name=f"{name}.tx{vc}", daemon=True)

    # -- sending ----------------------------------------------------------

    def send(self, flit: Flit) -> Event:
        """Enqueue a flit for transmission; fires when queued (not sent)."""
        if self._causal is not None and flit.packet.trace is not None:
            # Residency in the tx queue, closed by the sender loop when
            # it dequeues the flit (HoL time behind earlier flits).
            flit.cspan = self._causal.begin(
                flit.packet.trace, self.env.now, QUEUEING, self._site_txq)
        if self.control_lane_enabled and flit.packet.channel is Channel.CONTROL:
            return self._control_queue.put(flit)
        if not 0 <= flit.vc < self.vcs:
            raise ValueError(f"flit VC {flit.vc} out of range")
        return self._tx_queues[flit.vc].put(flit)

    def tx_backlog(self, vc: int) -> int:
        return len(self._tx_queues[vc])

    def transmit_direct(self, flit: Flit) -> Generator[Event, None, None]:
        """Synchronously push one flit: credit, then wire.

        Used by switch egress pipelines so *their* scheduler — not the
        link's per-VC queues — decides wire order.  The caller blocks
        until the flit has been serialized (and so observes link-level
        backpressure directly); propagation overlaps with the next flit.
        """
        self._direct_used = True
        if self.control_lane_enabled and flit.packet.channel is Channel.CONTROL:
            yield from self._transmit_reliably(self._control_phys, flit)
            self.env.process(self._propagate(flit))
            return
        credit = self._credit_pools[flit.vc].get(1)
        if self._causal is not None and flit.packet.trace is not None:
            self._causal.wait(flit.packet.trace, credit, CREDIT_STALL,
                              self._site_credit)
        yield credit
        yield from self._transmit_reliably(self.phys, flit)
        self.env.process(self._propagate(flit))

    def _propagate(self, flit: Flit) -> Generator[Event, None, None]:
        wire = None
        if self._causal is not None and flit.packet.trace is not None:
            wire = self._causal.begin(flit.packet.trace, self.env.now,
                                      WIRE, self._site_wire)
        yield self.env.timeout(self.params.propagation_ns)
        if wire is not None:
            self._causal.end(flit.packet.trace, self.env.now, wire)
        self._deliver(flit)

    # -- credit management (exposed to allocators / the arbiter) ----------

    def credits_available(self, vc: int) -> float:
        return self._credit_pools[vc].level

    def credits_granted(self, vc: int) -> int:
        return self._granted[vc]

    def grant_credits(self, vc: int, n: int) -> None:
        """Give the sender ``n`` extra credits on ``vc`` (allocator API)."""
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        self._managed = True
        self._granted[vc] += n
        self._credit_pools[vc].put(n)

    def revoke_credits(self, vc: int, n: int) -> Event:
        """Take back ``n`` credits; completes once they are reclaimable."""
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        self._managed = True
        self._granted[vc] = max(0, self._granted[vc] - n)
        return self._credit_pools[vc].get(n)

    # -- receiving --------------------------------------------------------

    def consume(self, flit: Flit) -> None:
        """Receiver took ``flit`` out of its buffer: return the credit."""
        self._rx_occupancy -= 1
        if flit.packet.channel is Channel.CONTROL and self.control_lane_enabled:
            return  # control lane is credit-free
        if self._fast_credit:
            # One future hook + the ContainerPut replace the scalar
            # four-event credit-return process (start hook, timeout,
            # put, completion); the put lands at the identical time.
            # The two elided events are credited where the scalar path
            # would have dispatched them — the start hook here, the
            # process completion inside the delayed hook — so a run
            # that ends with credit returns still pending counts the
            # same events either way.
            env = self.env
            pool = self._credit_pools[flit.vc]

            def _put(event, env=env, pool=pool):
                pool.put(1)
                env.credit_elided(1)

            env._schedule_hook_at(env.now + self.credit_update_ns,
                                  _put, True, None)
            env.credit_elided(1)
            return
        self.env.process(self._return_credit(flit.vc),
                         name=f"{self.name}.credit-return")

    # -- internals ---------------------------------------------------------

    def _return_credit(self, vc: int) -> Generator[Event, None, None]:
        yield self.env.timeout(self.credit_update_ns)
        yield self._credit_pools[vc].put(1)

    def _gather_run(self, queue: Store, pool: Container,
                    first: Flit) -> Optional[List[Flit]]:
        """Pull the homogeneous same-size prefix of the tx backlog.

        Returns ``None`` unless at least one more flit of ``first``'s
        size is queued and a credit is available for every flit taken —
        the scalar path must not have been able to block on credits
        anywhere inside the run, or timings would differ.
        """
        items = queue.items
        key = first.transport_key()
        limit = min(len(items), int(pool.level) - 1)
        n = 0
        while n < limit and items[n].transport_key() == key:
            n += 1
        if n == 0:
            return None
        run = [first]
        run.extend(items[:n])
        del items[:n]
        return run

    def _transmit_vector(self, pool: Container,
                         run: List[Flit]) -> Generator[Event, None, None]:
        """Serialize a homogeneous run with one closed-form schedule.

        The scalar path's per-flit chain is deterministic here (no
        credit stalls, no wire contention, no retries), so serialization
        boundaries are the running sum ``now + i*ser_ns`` — computed
        with ``cumsum``, which accumulates sequentially and therefore
        reproduces the scalar path's chained additions bit-for-bit.
        Each delivery lands on its exact scalar timestamp via an
        absolute-time hook; one Timeout resumes the sender where the
        scalar loop would have finished the last serialization.
        """
        env = self.env
        phys = self.phys
        k = len(run)
        yield pool.get(float(k))
        wire = phys._wire.request()
        yield wire
        ser_ns = phys.serialization_ns(run[0])
        ends = _np.cumsum([env.now] + [ser_ns] * k)
        prop = self.params.propagation_ns
        deliver = self._deliver
        hook = env._schedule_hook_at
        for i, flit in enumerate(run):
            hook(float(ends[i + 1]) + prop,
                 lambda event, flit=flit: deliver(flit), True, None)
        phys.flits_sent += k
        phys.bytes_sent += k * run[0].size_bytes
        env.credit_elided(_SCALAR_EVENTS_PER_FLIT * k - (k + 4))
        yield env.timeout_at(float(ends[k]))
        phys._wire.release(wire)

    def _sender(self, vc: int) -> Generator[Event, None, None]:
        queue = self._tx_queues[vc]
        pool = self._credit_pools[vc]
        causal = self._causal
        wire = self.phys._wire
        while True:
            flit = yield queue.get()
            if (self._vector_ok and not self._managed
                    and not self._direct_used
                    and queue.items and pool.level >= 2.0
                    and not pool._get_waiters and not pool._put_waiters
                    and not wire.users and not wire._waiters):
                run = self._gather_run(queue, pool, flit)
                if run is not None:
                    yield from self._transmit_vector(pool, run)
                    continue
            if causal is not None and flit.cspan is not None:
                causal.end(flit.packet.trace, self.env.now, flit.cspan)
                flit.cspan = None
            credit = pool.get(1)
            if causal is not None and flit.packet.trace is not None:
                causal.wait(flit.packet.trace, credit, CREDIT_STALL,
                            self._site_credit)
            yield credit
            yield from self._transmit_reliably(self.phys, flit)
            self.env.process(self._propagate(flit))

    def _control_sender(self) -> Generator[Event, None, None]:
        causal = self._causal
        while True:
            flit = yield self._control_queue.get()
            if causal is not None and flit.cspan is not None:
                causal.end(flit.packet.trace, self.env.now, flit.cspan)
                flit.cspan = None
            yield from self._transmit_reliably(self._control_phys, flit)
            self.env.process(self._propagate(flit))

    def _transmit_reliably(self, phys: PhysicalLayer,
                           flit: Flit) -> Generator[Event, None, None]:
        serialize = None
        if self._causal is not None and flit.packet.trace is not None:
            # Retries included: NAK round-trips are serialization cost.
            serialize = self._causal.begin(
                flit.packet.trace, self.env.now, SERIALIZATION,
                self._site_serialize)
        while True:
            yield from phys.serialize(flit)
            if self.error_rate and self.rng.bernoulli(self.error_rate):
                self.retransmissions += 1
                if self._tel is not None:
                    self._m_retries.inc(time=self.env.now)
                # The NAK round-trip before the flit is re-serialized.
                yield self.env.timeout(2 * self.params.propagation_ns)
                continue
            if self._tel is not None:
                now = self.env.now
                self._m_flits.inc(time=now)
                self._m_bytes.inc(flit.size_bytes, time=now)
            if serialize is not None:
                self._causal.end(flit.packet.trace, self.env.now,
                                 serialize)
            return

    def _deliver(self, flit: Flit) -> None:
        self._rx_occupancy += 1
        self.max_rx_occupancy = max(    # fcc: allow[static-write-race]
            self.max_rx_occupancy, self._rx_occupancy)
        # (max-accumulate commutes with the preceding += — any
        # same-timestamp dispatch order lands on the same peak)
        self.rx.put(flit)
