"""Transaction layer: channel semantics over a pair of links.

A :class:`TransactionPort` is the bidirectional endpoint attached to a
component (host adapter, endpoint adapter, switch-internal management
port).  It provides:

* ``request`` — send a request packet and get an event that fires with
  the matching response (tag-correlated);
* ``post`` — fire-and-forget send (posted writes, responses);
* a server loop that hands inbound *requests* to a user handler while
  matching inbound *responses* to outstanding tags;
* per-channel send ordering (CXL.mem requests stay ordered; different
  channels do not block each other — they map to different VCs).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from ..sim import Environment, Event, SimulationError, Store
from ..telemetry.causal import QUEUEING
from .flit import (
    Channel,
    Flit,
    Packet,
    PacketKind,
    Reassembler,
    REQUEST_KINDS,
    TagAllocator,
    fragment,
)
from .link import LinkLayer

__all__ = ["TransactionPort", "DEFAULT_VC_MAP"]

#: Default channel -> virtual channel mapping.  Separating CXL.io bulk
#: traffic from CXL.mem cacheline traffic onto distinct VCs is what
#: prevents 16KB writes from head-of-line blocking 64B reads (section 3,
#: difference 3).
DEFAULT_VC_MAP: Dict[Channel, int] = {
    Channel.CXL_MEM: 0,
    Channel.CXL_CACHE: 0,
    Channel.CXL_IO: 1,
    Channel.CONTROL: 0,   # rides the control lane when enabled
}

RequestHandler = Callable[[Packet], Generator[Event, None, Optional[Packet]]]


class TransactionPort:
    """Endpoint of the fabric: sends/receives packets over two links."""

    def __init__(self, env: Environment, tx_link: LinkLayer,
                 rx_link: LinkLayer, port_id: int,
                 name: str = "port",
                 tag_capacity: int = 256,
                 vc_map: Optional[Dict[Channel, int]] = None) -> None:
        self.env = env
        self.tx_link = tx_link
        self.rx_link = rx_link
        self.port_id = port_id
        self.name = name
        self.vc_map = dict(vc_map or DEFAULT_VC_MAP)
        self.tags = TagAllocator(tag_capacity)
        self._pending: Dict[int, Event] = {}
        self._reassembler = Reassembler()
        self.inbound_requests: Store = Store(env)
        self._handler: Optional[RequestHandler] = None
        self.requests_sent = 0
        self.responses_received = 0
        self.orphan_responses = 0
        # Causal tracing: ports are where fabric transactions *root* —
        # a request arriving with no trace context asks the recorder
        # to sample one.  Cached like telemetry: one is-None branch
        # per request when tracing is off.
        tel = env.telemetry
        self._tel = tel
        self._causal = tel.causal if tel is not None else None
        if tel is not None:
            self._h_latency = tel.registry.histogram(
                f"port.{name}.request_ns")
        if self._causal is not None:
            self._site_tags = f"port.{name}.tags"
            self._route_prefix = f"{name}:"
        env.process(self._receiver(), name=f"{name}.rx", daemon=True)

    # -- sending -----------------------------------------------------------

    def request(self, packet: Packet) -> Generator[Event, None, Packet]:
        """Send a request; yields until the tagged response arrives.

        Usage: ``response = yield from port.request(packet)``.
        """
        if packet.kind not in REQUEST_KINDS:
            raise ValueError(f"{packet.kind} is not a request kind")
        causal = self._causal
        rooted = False
        if causal is not None and packet.trace is None:
            context = causal.sample_root()
            if context is not None:
                packet.trace = context
                rooted = True
                causal.txn_begin(context, self.env.now, packet.kind.value,
                                 self._route_prefix + packet.kind.value)
        issued = self.env.now
        tag_wait = None
        if causal is not None and packet.trace is not None \
                and not self.tags.available:
            tag_wait = causal.begin(packet.trace, self.env.now,
                                    QUEUEING, self._site_tags)
        while not self.tags.available:
            # Outstanding-request window full: wait for any completion.
            yield self.env.any_of(list(self._pending.values()))
        if tag_wait is not None:
            causal.end(packet.trace, self.env.now, tag_wait)
        packet.tag = self.tags.allocate()
        packet.src = self.port_id
        packet.birth_ns = self.env.now
        done = self.env.event()
        self._pending[packet.tag] = done
        yield from self._emit(packet)
        self.requests_sent += 1
        response = yield done
        now = self.env.now
        if self._tel is not None:
            self._h_latency.observe(now - issued, time=now)
        if rooted:
            causal.txn_end(packet.trace, now)
        return response

    def post(self, packet: Packet) -> Generator[Event, None, None]:
        """Send a packet without expecting a response."""
        packet.src = self.port_id
        if packet.birth_ns == 0.0:
            packet.birth_ns = self.env.now   # fcc: allow[static-write-race]
        # (guarded first-write: every server instance that could race
        # here at one timestamp would store the identical env.now, and
        # a packet is only ever posted by one process anyway)
        yield from self._emit(packet)

    def _emit(self, packet: Packet) -> Generator[Event, None, None]:
        vc = self.vc_map.get(packet.channel, 0)
        for flit in fragment(packet, self.tx_link.params.flit_bytes, vc=vc):
            yield self.tx_link.send(flit)

    # -- serving -----------------------------------------------------------

    def serve(self, handler: RequestHandler, concurrency: int = 1) -> None:
        """Install a request handler; responses it returns are sent back.

        The handler is a generator taking the request packet and
        returning an optional response packet.  ``concurrency`` models
        the device's internal parallelism (e.g. FAM media banks): that
        many requests are serviced simultaneously.
        """
        if self._handler is not None:
            raise SimulationError(f"{self.name} already has a handler")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self._handler = handler
        for i in range(concurrency):
            self.env.process(self._server(), name=f"{self.name}.server{i}",
                             daemon=True)

    def _server(self) -> Generator[Event, None, None]:
        while True:
            packet = yield self.inbound_requests.get()
            response = yield from self._handler(packet)
            if response is not None:
                yield from self.post(response)

    # -- receive path --------------------------------------------------------

    def _receiver(self) -> Generator[Event, None, None]:
        while True:
            flit: Flit = yield self.rx_link.rx.get()
            self.rx_link.consume(flit)
            packet = self._reassembler.push(flit)
            if packet is None:
                continue
            self._dispatch(packet)

    def _dispatch(self, packet: Packet) -> None:
        waiter = self._pending.pop(packet.tag, None) \
            if packet.kind not in REQUEST_KINDS else None
        if waiter is not None:
            self.tags.free(packet.tag)
            self.responses_received += 1
            if self._causal is not None and packet.trace is not None:
                self._causal.mark(packet.trace, self.env.now,
                                  "deliver", self.name)
            waiter.succeed(packet)
            return
        if packet.kind in REQUEST_KINDS:
            self.inbound_requests.put(packet)
            return
        # A response without a matching request: the completion of a
        # posted write (benign), or a stale tag.  Count and drop — a
        # receiver must never die, or its link backpressures the fabric.
        self.orphan_responses += 1
