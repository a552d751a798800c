"""Data movement as a managed service (design principle #1).

Three cooperating pieces:

* :class:`MovementOrchestrator` — the central control-plane module: it
  owns per-host remote-bandwidth budgets (lazily refilled
  :class:`TokenBucket` s), records the rack-scale traffic matrix the
  paper says memory fabrics create, and hosts one migration agent per
  memory domain;
* :class:`MigrationAgent` — the executor for delegated transactions in
  one memory domain, draining a priority queue so urgent moves pass
  bulk ones;
* :class:`SequentialPrefetcher` — the SW-assisted sync-path
  optimization: detects strided access and preloads the working set
  into the host hierarchy so synchronous loads hit caches.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, Generator, Optional, Tuple

from .. import params
from ..sim import Environment, Event, PriorityStore
from ..telemetry import span
from ..telemetry.causal import QUEUEING
from .etrans import ETrans, ETransHandle, ElasticTransactionEngine, _finish

__all__ = ["MovementOrchestrator", "MigrationAgent", "SequentialPrefetcher",
           "TokenBucket"]

#: Refill quantum of the bandwidth buckets (ns).
QUANTUM_NS = 100.0
#: Below this, integral float times step by 100.0 without rounding.
_EXACT_LIMIT = float(2 ** 53) - 2 * QUANTUM_NS


class TokenBucket:
    """One host's remote-bandwidth budget, refilled lazily.

    The budget refills at 100 ns quantum boundaries: each adds
    ``rate * 100.0 / 1000.0`` bytes, clipped at ``capacity``.  No
    kernel event marks a boundary.  The level is worked out when it is
    read, by replaying the boundaries passed since the last read in a
    plain loop, with the float expressions, in the order, of a process
    that woke every quantum and put the tokens into a ``Container``:
    ``space = capacity - level``; if ``space > 0``, ``level +=
    min(per_quantum, space)`` under the put guard ``level + amount <=
    capacity``.  A refill that fails the guard stalls, as a blocked put
    would, until a get makes room; the boundaries then restart one
    quantum after that get.  Boundaries step by repeated ``+= 100.0``
    from the attach time, so an off-grid attach replays exactly.

    A get that fits, with nobody waiting, is granted at once with one
    event.  Otherwise it waits in FIFO order, and only the head waiter
    arms a wake-up: one timeout at the first boundary where the
    replayed level covers it.  A grant or a retune re-arms; a wake-up
    armed before that carries an old generation number and is ignored.

    Same-timestamp rule: a boundary at exactly ``now`` counts as
    already refilled.  A refill process schedules its tick one quantum
    ahead, so that tick runs before every event scheduled within the
    last quantum.  That covers the chunk loop of
    :meth:`~repro.core.etrans.ElasticTransactionEngine.execute`, and
    heap migration, which goes from the heap loop through a lock grant
    to a new process.  The known limit is a get issued by an event
    scheduled more than one quantum ahead that lands exactly on a
    boundary: a refill process would have served it before that
    boundary's refill, this bucket serves it after.  The grant time is
    the same; the level after it can differ in the last float bit, or
    by the clipped part of the refill when the bucket was nearly full.
    """

    __slots__ = ("env", "capacity", "rate", "_level", "_next_tick",
                 "_stalled", "_waiters", "_generation")

    def __init__(self, env: Environment, capacity: float,
                 rate: float) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        _check_rate(rate)
        self.env = env
        self.capacity = capacity
        #: Refill rate in bytes per microsecond.
        self.rate = rate
        self._level = float(capacity)
        self._next_tick = env.now + QUANTUM_NS
        #: Tokens of a refill that failed the put guard, else None.
        self._stalled: Optional[float] = None
        self._waiters: Deque[Tuple[float, Event]] = deque()
        self._generation = 0

    @property
    def level(self) -> float:
        """Tokens available now (boundaries at ``now`` included)."""
        self._settle()
        return self._level

    def get(self, amount: float) -> Event:
        """An event that fires once ``amount`` tokens are taken."""
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        self._settle()
        waiters = self._waiters
        if not waiters and amount <= self._level:
            self._level -= amount
            if self._stalled is not None:
                self._unstall()
            return self.env.timeout(0.0)
        event = self.env.event()
        waiters.append((amount, event))
        if len(waiters) == 1:
            self._arm()
        return event

    def set_rate(self, rate: float) -> None:
        """Settle at the old rate, then refill at ``rate`` from the next
        boundary on."""
        _check_rate(rate)
        self._settle()
        self.rate = rate
        self._arm()

    def _settle(self) -> None:
        """Replay the boundaries up to ``now``; grant the waiters that fit."""
        now = self.env.now
        tick = self._next_tick
        if tick > now or self._stalled is not None:
            return
        capacity = self.capacity
        level = self._level
        per_quantum = self.rate * QUANTUM_NS / 1000.0
        waiters = self._waiters
        granted = False
        while tick <= now:
            space = capacity - level
            if space <= 0:
                # Full: nothing refills until a get, so later boundaries
                # up to now are no-ops.
                tick = _first_tick_after(tick, now)
                break
            amount = min(per_quantum, space)
            if level + amount > capacity:
                self._stalled = amount
                break
            level += amount
            while waiters and waiters[0][0] <= level:
                need, event = waiters.popleft()
                level -= need
                event.succeed()
                granted = True
            tick += QUANTUM_NS
        self._level = level
        self._next_tick = tick
        if granted:
            self._arm()

    def _unstall(self) -> None:
        """Land a stalled refill once a get has made room for it."""
        if self._level + self._stalled <= self.capacity:
            self._level += self._stalled
            self._stalled = None
            self._next_tick = self.env.now + QUANTUM_NS

    def _arm(self) -> None:
        """Schedule the head waiter's wake-up at the boundary that
        covers it (none if the refill stalls or fills up first)."""
        self._generation += 1
        waiters = self._waiters
        if not waiters or self._stalled is not None:
            return
        need = waiters[0][0]
        capacity = self.capacity
        level = self._level
        per_quantum = self.rate * QUANTUM_NS / 1000.0
        tick = self._next_tick
        while True:
            space = capacity - level
            if space <= 0:
                return
            amount = min(per_quantum, space)
            if level + amount > capacity:
                return
            level += amount
            if need <= level:
                break
            tick += QUANTUM_NS
        wake = self.env.timeout_at(tick, self._generation)
        wake.callbacks.append(self._wake)

    def _wake(self, event: Event) -> None:
        if event.value == self._generation:
            self._settle()


def _check_rate(rate: float) -> None:
    # A bucket that never refills would make the wake-up search endless.
    if not rate > 0:
        raise ValueError(f"refill rate must be > 0 bytes/us, got {rate}")


def _first_tick_after(tick: float, now: float) -> float:
    """The first of ``tick``, ``tick + 100.0``, ... (stepped by repeated
    addition) that is later than ``now``."""
    if tick == int(tick) and now < _EXACT_LIMIT:
        # Integral boundaries step exactly, so jump (at most to the
        # answer: rounding can only raise the quotient to it).
        tick += QUANTUM_NS * ((now - tick) // QUANTUM_NS)
    while tick <= now:
        tick += QUANTUM_NS
    return tick


class MigrationAgent:
    """Executes delegated elastic transactions for one memory domain."""

    def __init__(self, env: Environment, engine: ElasticTransactionEngine,
                 name: str = "agent") -> None:
        self.env = env
        self.engine = engine
        self.name = name
        self._queue = PriorityStore(env)
        self._seq = itertools.count()
        self.executed = 0
        #: Per-transaction pacing delay (ns) inserted before service;
        #: 0.0 (the default) yields no timeout at all, so an unpaced
        #: agent schedules exactly the events it always did.  Set via
        #: :meth:`MovementOrchestrator.set_pacing` (the actuator path).
        self.pacing_ns = 0.0
        tel = env.telemetry
        self._causal = tel.causal if tel is not None else None
        if self._causal is not None:
            self._site_queue = f"movement.{name}.queue"
        env.process(self._worker(), name=f"{name}.worker", daemon=True)

    def enqueue(self, trans: ETrans,
                handle: Optional[ETransHandle]) -> None:
        if self._causal is not None:
            trace = trans.attributes.get("trace")
            if trace is not None:
                # Residency in the agent's priority queue; closed by
                # the worker when the transaction enters service.
                trans.attributes["_cspan"] = self._causal.begin(
                    trace, self.env.now, QUEUEING, self._site_queue)
        self._queue.put((trans.priority, next(self._seq), trans, handle))

    def backlog(self) -> int:
        return len(self._queue)

    def _worker(self) -> Generator[Event, None, None]:
        while True:
            _, _, trans, handle = yield self._queue.get()
            if self.pacing_ns > 0.0:
                yield self.env.timeout(self.pacing_ns)
            if self._causal is not None:
                open_span = trans.attributes.pop("_cspan", None)
                if open_span is not None:
                    self._causal.end(trans.attributes["trace"],
                                     self.env.now, open_span)
            with span(self.env, "movement.execute", track=self.name,
                      prio=trans.priority, nbytes=trans.total_src_bytes):
                yield from self.engine.execute(trans)
            self.executed += 1
            _finish(trans, handle)


class MovementOrchestrator:
    """The central movement service over one cluster."""

    def __init__(self, env: Environment,
                 remote_bw_bytes_per_us: Optional[float] = None,
                 burst_bytes: int = 64 * 1024) -> None:
        self.env = env
        self.remote_bw_bytes_per_us = remote_bw_bytes_per_us
        self.burst_bytes = burst_bytes
        self.pacing_ns = 0.0
        self._agents: Dict[str, MigrationAgent] = {}
        self._engines: Dict[str, ElasticTransactionEngine] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        # (src region name, dst region name) -> bytes moved
        self.traffic_matrix: Dict[Tuple[str, str], int] = {}
        self.bytes_moved = 0
        self._tel = tel = env.telemetry
        if tel is not None:
            self._m_bytes_moved = tel.registry.counter("movement.bytes_moved")

    # -- registration ------------------------------------------------------

    def attach_host(self, host,
                    chunk_bytes: int = 4096) -> ElasticTransactionEngine:
        """Create the engine + agent for one host's memory domain."""
        if host.name in self._agents:
            raise ValueError(f"host {host.name!r} already attached")
        engine = ElasticTransactionEngine(self.env, host, self,
                                          chunk_bytes=chunk_bytes)
        self._engines[host.name] = engine
        agent = MigrationAgent(
            self.env, engine, name=f"{host.name}.agent")
        agent.pacing_ns = self.pacing_ns
        self._agents[host.name] = agent
        if self._tel is not None:
            self._tel.add_probe(f"movement.{host.name}.agent_backlog",
                                agent.backlog, track="movement")
        if self.remote_bw_bytes_per_us is not None:
            self._buckets[host.name] = TokenBucket(
                self.env, self.burst_bytes, self.remote_bw_bytes_per_us)
        return engine

    def engine(self, host_name: str) -> ElasticTransactionEngine:
        return self._engines[host_name]

    def agent(self, host_name: str) -> MigrationAgent:
        return self._agents[host_name]

    # -- the control plane ----------------------------------------------------

    def enqueue(self, host, trans: ETrans,
                handle: Optional[ETransHandle]) -> None:
        self._agents[host.name].enqueue(trans, handle)

    def admit(self, host, nbytes: int) -> Generator[Event, None, None]:
        """Throttle: spend bandwidth tokens before a chunk may move."""
        bucket = self._buckets.get(host.name)
        if bucket is None:
            return
            yield  # pragma: no cover - keeps this a generator
        yield bucket.get(min(nbytes, self.burst_bytes))

    def account(self, host, src_addr: int, dst_addr: int,
                nbytes: int) -> None:
        """Record one chunk in the rack traffic matrix."""
        src_region = self._region_name(host, src_addr)
        dst_region = self._region_name(host, dst_addr)
        key = (src_region, dst_region)
        self.traffic_matrix[key] = self.traffic_matrix.get(key, 0) + nbytes
        self.bytes_moved += nbytes
        if self._tel is not None:
            self._m_bytes_moved.inc(nbytes, time=self.env.now)

    def _region_name(self, host, addr: int) -> str:
        try:
            return host.address_map.resolve(addr).name
        except KeyError:
            return "unmapped"

    def set_pacing(self, pacing_ns: float) -> None:
        """Fan a per-transaction pacing delay out to every agent.

        The closed-loop throttle: a feedback rule that sees movement
        saturating a window's link budget slows the agents instead of
        rejecting work.  ``0.0`` removes the pacing (and with it any
        extra timeout events).
        """
        if pacing_ns < 0:
            raise ValueError(f"pacing_ns must be >= 0, got {pacing_ns}")
        self.pacing_ns = pacing_ns
        for agent in self._agents.values():
            agent.pacing_ns = pacing_ns

    def set_remote_bw(self, bytes_per_us: float) -> None:
        """Retune the token-bucket refill rate on a throttled service.

        Only valid when the orchestrator was constructed with a
        bandwidth budget (buckets exist per attached host).  Every
        bucket is settled at the old rate up to and including ``now``;
        the new rate refills from the next 100 ns boundary on, and a
        blocked head waiter's wake-up moves to match.
        """
        if bytes_per_us <= 0:
            raise ValueError(
                f"bytes_per_us must be > 0, got {bytes_per_us}")
        if not self._buckets:
            raise ValueError(
                "orchestrator has no bandwidth buckets to retune; "
                "construct it with remote_bw_bytes_per_us= to throttle")
        for bucket in self._buckets.values():
            bucket.set_rate(bytes_per_us)
        self.remote_bw_bytes_per_us = bytes_per_us

    def format_traffic_matrix(self) -> str:
        lines = ["traffic matrix (src region -> dst region, bytes):"]
        for (src, dst), nbytes in sorted(self.traffic_matrix.items()):
            lines.append(f"  {src:>16} -> {dst:<16} {nbytes:>12}")
        return "\n".join(lines)


class SequentialPrefetcher:
    """Stride-detecting software prefetcher over a host hierarchy.

    Call :meth:`observe` on the demand-access stream; once ``trigger``
    consecutive accesses with one stride are seen, the next ``depth``
    lines are fetched asynchronously so the synchronous path hits in
    cache (the paper's "preloading the application working set").
    """

    def __init__(self, env: Environment, host, depth: int = 8,
                 trigger: int = 3) -> None:
        if depth < 1 or trigger < 2:
            raise ValueError("depth must be >= 1 and trigger >= 2")
        self.env = env
        self.host = host
        self.depth = depth
        self.trigger = trigger
        self._last_addr: Optional[int] = None
        self._stride: Optional[int] = None
        self._run = 0
        self._issued_until: int = -1
        self.prefetches_issued = 0

    def observe(self, addr: int) -> None:
        if self._last_addr is not None:
            stride = addr - self._last_addr
            if stride != 0 and stride == self._stride:
                self._run += 1
            else:
                self._stride = stride if stride != 0 else None
                self._run = 1
        self._last_addr = addr
        if (self._stride is not None and self._run >= self.trigger
                and addr > self._issued_until - self.depth
                * abs(self._stride) // 2):
            self._launch(addr)

    def _launch(self, addr: int) -> None:
        for i in range(1, self.depth + 1):
            target = addr + i * self._stride
            if target < 0:
                break
            try:
                self.host.address_map.resolve(target)
            except KeyError:
                break
            self.prefetches_issued += 1
            self.env.process(self._prefetch(target),
                             name="prefetch")
        self._issued_until = addr + self.depth * self._stride

    def _prefetch(self, addr: int) -> Generator[Event, None, None]:
        yield from self.host.mem.access(addr, False)
