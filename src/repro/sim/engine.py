"""A small deterministic discrete-event simulation kernel.

The kernel follows the classic process-interaction style: model code is
written as generator functions that ``yield`` events; the environment
resumes a process when the event it waits on fires.  The design mirrors
SimPy's core (events, processes, an ordered event queue) but is written
from scratch so the repository has no external simulation dependency
and so that scheduling is fully deterministic: ties in time are broken
by priority and then by a monotonically increasing sequence number.

Time is a float in nanoseconds by convention (see ``repro.params``),
although the kernel itself is unit-agnostic.

Fast path
---------

Every experiment in the repository funnels through this module, so the
steady-state step — pop an event, run its single ``Process._resume``
callback, let the process yield the next ``Timeout`` — is aggressively
optimised:

* ``Timeout`` objects (and the internal ``_Hook`` events used to start
  processes, deliver interrupts and re-fire already-processed events)
  are recycled through per-environment free lists, together with their
  callback lists, so steady-state stepping allocates near-zero objects.
  Recycling is guarded by ``sys.getrefcount``: an event is only pooled
  when the kernel holds the last reference, so model code that keeps a
  processed event around (e.g. to re-yield it later) is always safe.
* Detaching a resume callback from an abandoned wait target is O(1):
  the process remembers the index of its callback and tombstones it
  (sets the slot to ``None``) instead of an O(n) ``list.remove``.
  Callback lists are never compacted before they fire, so indexes stay
  valid and callback order — and therefore scheduling order — is
  exactly what it would have been without the tombstone.
* ``Process._resume`` takes a monomorphic shortcut when the yielded
  event is a pending ``Timeout`` (the overwhelmingly common case),
  skipping the ``isinstance``/cross-environment checks of the general
  path.
* ``Environment.run`` inlines the dispatch loop with bound locals.
  It is the only dispatch loop.  ``Environment(batch=...)`` (default
  from ``REPRO_BATCH``) does not change it: the flag gates only the
  vectorized fabric paths (link flit transport, credit return, switch
  egress sweep), whose ``batch=False`` scalar reference they must
  match bit for bit.

None of this changes observable scheduling: pooled events consume the
same sequence numbers as freshly allocated ones, so the
``(time, priority, seq)`` order of a run is bit-identical to the
pre-fast-path kernel.  ``Environment.stats`` exposes kernel counters
(events processed, events/sec of wall-clock, peak queue depth) for the
perf-regression harness in ``benchmarks/run_all.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from os import environ
from sys import getrefcount
# Wall-clock is only read for Environment.stats busy-time counters; it
# never feeds back into scheduling.
from time import perf_counter   # fcc: allow[wall-clock]
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "run_proc",
    "total_events_processed",
    "batch_default",
    "set_batch_default",
]

# Scheduling priorities: URGENT fires before NORMAL at the same time.
URGENT = 0
NORMAL = 1

_INF = float("inf")

#: Upper bound on each free list; beyond this, events are left to the GC.
#: The per-environment default; override with Environment(pool_limit=...).
_POOL_LIMIT = 512

#: Process-wide default for Environment(batch=...): the vectorized fabric
#: paths are on unless REPRO_BATCH=0/off/false/no (their scalar reference).
_BATCH_DEFAULT = environ.get("REPRO_BATCH", "1").strip().lower() \
    not in ("0", "off", "false", "no")


def batch_default() -> bool:
    """The process-wide default for ``Environment(batch=...)``."""
    return _BATCH_DEFAULT


def set_batch_default(enabled: bool) -> None:
    """Set the process-wide ``batch`` default (existing envs unaffected)."""
    global _BATCH_DEFAULT
    _BATCH_DEFAULT = bool(enabled)

#: Process-wide count of events dispatched by every Environment, used by
#: the perf harness to attribute events/sec to experiments that build
#: several environments internally.
_total_events = 0


def total_events_processed() -> int:
    """Events dispatched by all environments since interpreter start."""
    return _total_events


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, running a dead env...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process sees this exception raised at its current
    ``yield`` statement and may catch it to implement preemption,
    timeout-and-retry, or failure handling.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An occurrence that processes can wait for.

    An event starts *pending*, becomes *triggered* when given a value
    (or an exception) and scheduled, and *processed* once its callbacks
    have run.  Callbacks receive the event itself.  A ``None`` entry in
    ``callbacks`` is a tombstone left by an O(1) detach and is skipped
    when the event fires.

    The first waiter to attach while ``callbacks`` is still empty is
    held in the ``_waiter`` slot instead of the list (saving a
    ``list.append`` on the hot path); it fires before the list, which
    is exactly attach order.
    """

    __slots__ = ("env", "callbacks", "_waiter", "_value", "_ok",
                 "_scheduled", "_processed")

    _PENDING = object()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Optional[Callable[["Event"], None]]]] = []
        self._waiter: Optional[Callable[["Event"], None]] = None
        self._value: Any = Event._PENDING
        self._ok = True
        self._scheduled = False
        self._processed = False
        san = env._sanitizer
        if san is not None:
            san.on_created(self)

    @property
    def triggered(self) -> bool:
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


#: Module-level alias of the pending sentinel for fast access in hot code.
_PENDING = Event._PENDING


class Timeout(Event):
    """An event that fires after a fixed delay.

    Instances created through :meth:`Environment.timeout` come from a
    free list and return to it once processed (refcount-guarded, see the
    module docstring); direct construction also works and is what the
    pool falls back to.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:   # also rejects NaN
            raise ValueError(f"delay must be >= 0, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)


class _Hook(Event):
    """Internal pooled event carrying a single pre-armed callback.

    Used for the three kernel-internal wakeups that the seed engine
    allocated a fresh ``Event`` (or ``Initialize``) for: starting a new
    process, re-firing an already-processed event for a late yielder,
    and delivering an interrupt.  Never exposed to model code.
    """

    __slots__ = ()


class Process(Event):
    """A running process; also an event that fires when the process ends.

    Created via :meth:`Environment.process`.  The wrapped generator
    yields events; when a yielded event fires, the generator is resumed
    with the event's value (or the event's exception is thrown in).
    """

    __slots__ = ("_generator", "_target", "name", "daemon", "_resume_cb",
                 "_cb_index", "_send", "_throw")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = "", daemon: bool = False) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Bound once: every attach/detach reuses the same bound method
        # instead of allocating a fresh one per wait; same for the
        # generator's send/throw, which the dispatch loops call per event.
        self._resume_cb = self._resume
        self._send = generator.send
        self._throw = generator.throw
        self._cb_index = -1
        self.name = name or getattr(generator, "__name__", "process")
        #: Daemon processes are perpetual service loops (port receivers,
        #: link senders, rebalance timers).  Idling forever is their
        #: normal end state, so the sanitizer's drain-time deadlock
        #: report skips them.
        self.daemon = daemon
        env._schedule_hook(self._resume_cb, URGENT, True, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (None if running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume.

        Interrupting a dead process is an error; interrupting a process
        that is about to be resumed is allowed and takes precedence.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        target = self._target
        if target is not None and target.callbacks is not None:
            self._detach(target)
        self.env._schedule_hook(self._resume_cb, URGENT, False, Interrupt(cause))

    def _detach(self, target: Event) -> None:
        """Detach our resume callback from ``target`` in O(1).

        Clears the waiter slot if we hold it, else tombstones our
        remembered index in the callback list; falls back to a scan if
        the index no longer points at us (e.g. already tombstoned).
        """
        cb = self._resume_cb
        if target._waiter is cb:
            target._waiter = None
            return
        cbs = target.callbacks
        i = self._cb_index
        if 0 <= i < len(cbs) and cbs[i] is cb:
            cbs[i] = None
            return
        try:
            cbs[cbs.index(cb)] = None
        except ValueError:
            pass

    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:
            # The process died between this wakeup being scheduled and
            # firing (e.g. a stale interrupt): drop it instead of
            # throwing into an exhausted generator.
            return
        env = self.env
        target = self._target
        if target is not None and target is not event:
            # We are being resumed by `event`; detach from the old target.
            if target.callbacks is not None:
                self._detach(target)
        self._target = None
        env._active_process = self
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                next_event = self._throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            if self._value is _PENDING:
                self._ok = True
                self._value = stop.value
                env._schedule(self, NORMAL)
            return
        except BaseException as exc:
            env._active_process = None
            if self._value is _PENDING:
                self._ok = False
                self._value = exc
                env._schedule(self, NORMAL)
            return
        env._active_process = None

        if next_event.__class__ is Timeout:
            # Fast path: a pending Timeout from this environment (the
            # common `yield env.timeout(...)` case) — attach directly,
            # skipping the isinstance / cross-env checks.
            cbs = next_event.callbacks
            if cbs is not None:
                if next_event._waiter is None and not cbs:
                    next_event._waiter = self._resume_cb
                else:
                    self._cb_index = len(cbs)
                    cbs.append(self._resume_cb)
                self._target = next_event
                return
        self._wait_slow(next_event)

    def _wait_slow(self, next_event: Any) -> None:
        """General wait path: validation, non-events, processed events."""
        if not isinstance(next_event, Event):
            error = SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}")
            try:
                self._generator.throw(error)
            except StopIteration as stop:
                failed_ok, failed_value = True, stop.value
            except BaseException as exc:
                failed_ok, failed_value = False, exc
            else:
                # The generator swallowed the error and yielded again;
                # refuse to continue a misbehaving process.
                self._generator.close()
                failed_ok, failed_value = False, error
            if self._value is _PENDING:
                self._ok = failed_ok
                self._value = failed_value
                self.env._schedule(self, NORMAL)
            return
        if next_event.env is not self.env:
            raise SimulationError("event belongs to a different environment")
        cbs = next_event.callbacks
        if cbs is None or next_event._processed:
            # Already processed (in sanitized runs dead events carry a
            # callback guard instead of None): resume immediately with
            # the stored value.
            self._target = self.env._schedule_hook(
                self._resume_cb, URGENT, next_event._ok, next_event._value)
        else:
            if next_event._waiter is None and not cbs:
                next_event._waiter = self._resume_cb
            else:
                self._cb_index = len(cbs)
                cbs.append(self._resume_cb)
            self._target = next_event


class _Condition(Event):
    """Base for AllOf / AnyOf composite events.

    An event counts as *fired* once its callbacks have been consumed
    (``callbacks is None``); note that a :class:`Timeout` carries its
    value from creation, so ``triggered`` alone cannot be used here.
    """

    __slots__ = ("events", "_unfired", "_fired", "_check_cb")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        if any(e.env is not env for e in self.events):
            raise SimulationError("events from different environments")
        self._unfired = 0
        self._fired = 0
        self._check_cb = self._check
        failed = None
        for event in self.events:
            if event.callbacks is None or event._processed:
                # Already processed (sanitized runs guard dead events'
                # callback slot instead of clearing it to None).
                if not event._ok and failed is None:
                    failed = event._value
                self._fired += 1
            else:
                self._unfired += 1
                event.callbacks.append(self._check_cb)
        if failed is not None:
            self.fail(failed)
        else:
            self._maybe_fire()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._unfired -= 1
        self._fired += 1
        self._maybe_fire()

    def _maybe_fire(self) -> None:
        if not self.triggered and self._satisfied():
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {e: e._value for e in self.events
                if e.callbacks is None or e._processed}

    def _satisfied(self) -> bool:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every constituent event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._unfired == 0


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._fired > 0 or not self.events


class Environment:
    """The simulation clock and event queue.

    The queue is a two-level calendar: a heap of *distinct* event times
    (``_times``) plus, per time, a bucket of two append-only FIFO lists
    — one per scheduling priority (``_buckets[t] = (urgent, normal)``).
    Scheduling an event at an already-pending time is a dict hit and a
    ``list.append``; the heap is only touched once per distinct
    timestamp.  Draining a bucket replays exactly the classic
    ``(time, priority, seq)`` order: bucket times ascend, all URGENT
    entries at a time fire before all NORMAL ones (URGENT arrivals are
    re-checked between events, so they preempt the rest of the NORMAL
    backlog at the same time), and within a priority the append order
    *is* the sequence order.  Entries are bare event references — no
    per-event tuple is allocated.
    """

    __slots__ = ("_now", "_times", "_buckets", "_bucket_pool",
                 "_active_process", "_timeout_pool", "_hook_pool",
                 "_last_time", "_last_normal",
                 "_pending", "_events_processed", "_peak_queue",
                 "_busy_seconds", "_sanitizer", "_telemetry",
                 "_batch", "_pool_limit", "_pool_hits", "_pool_misses",
                 "_elided")

    def __init__(self, initial_time: float = 0.0, *,
                 sanitize: bool = False,
                 telemetry: Any = None,
                 batch: Optional[bool] = None,
                 pool_limit: Optional[int] = None) -> None:
        self._now = float(initial_time)
        self._times: List[float] = []
        self._buckets: Dict[float, tuple] = {}
        self._bucket_pool: List[tuple] = []
        self._active_process: Optional[Process] = None
        self._timeout_pool: List[Timeout] = []
        self._hook_pool: List[_Hook] = []
        # One-entry bucket cache: synchronized models schedule many
        # events at the same future time back to back.  Caches the
        # NORMAL list directly — the only consumer is timeout().
        self._last_time: Optional[float] = None
        self._last_normal: Optional[list] = None
        self._pending = 0
        self._events_processed = 0
        self._peak_queue = 0
        self._busy_seconds = 0.0
        # Vectorized fabric paths (None: the process-wide default, see
        # set_batch_default / REPRO_BATCH).  The kernel itself ignores
        # it; the link and switch models read it through ``batch``.
        self._batch = _BATCH_DEFAULT if batch is None else bool(batch)
        if pool_limit is None:
            pool_limit = _POOL_LIMIT
        elif pool_limit < 0:
            raise ValueError(f"pool_limit must be >= 0, got {pool_limit}")
        self._pool_limit = int(pool_limit)
        self._pool_hits = 0
        self._pool_misses = 0
        # Events a vectorized fabric fast path elided but credited (see
        # credit_elided): counted into events_processed for bit-identity.
        self._elided = 0
        # Opt-in runtime sanitizers (credit conservation, event
        # lifecycle, write races, drain deadlocks).  `None` keeps every
        # hot-path hook to a single is-None test; see
        # repro.analysis.sanitizers for what `True` buys and costs.
        if sanitize:
            from ..analysis.sanitizers import RuntimeSanitizer
            self._sanitizer = RuntimeSanitizer(self)
        else:
            self._sanitizer = None
        # Opt-in observability (metrics, spans, timeline sampling).
        # `None` keeps every instrumented hot path to a single is-None
        # test; see repro.telemetry.  Accepts True (a fresh default
        # Telemetry) or a Telemetry instance.
        if telemetry:
            if telemetry is True:
                from ..telemetry import Telemetry
                telemetry = Telemetry()
            telemetry.bind(self)
            self._telemetry = telemetry
        else:
            self._telemetry = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def sanitize(self) -> bool:
        """Whether runtime sanitizers are attached (see ``sanitizer``)."""
        return self._sanitizer is not None

    @property
    def sanitizer(self):
        """The attached RuntimeSanitizer, or None on the fast path."""
        return self._sanitizer

    @property
    def telemetry(self):
        """The attached Telemetry hub, or None on the fast path."""
        return self._telemetry

    @property
    def batch(self) -> bool:
        """Whether the vectorized fabric paths are on."""
        return self._batch

    @property
    def stats(self) -> Dict[str, Any]:
        """Kernel counters: work done and how fast it was dispatched.

        ``events_per_sec`` is events over the wall-clock time spent
        inside :meth:`run`/:meth:`step` (simulated time never touches a
        wall clock); it is the perf-harness headline number.
        ``events_processed`` includes elided-but-credited events (see
        :meth:`credit_elided`) so it is bit-identical with ``batch`` on
        or off; ``events_elided`` says how many were credited.
        """
        busy = self._busy_seconds
        return {
            "events_processed": self._events_processed,
            "events_per_sec": self._events_processed / busy if busy > 0 else 0.0,
            "busy_seconds": busy,
            "peak_queue_depth": self._peak_queue,
            "pooled_timeouts": len(self._timeout_pool),
            "pooled_hooks": len(self._hook_pool),
            "batch": self._batch,
            "events_elided": self._elided,
            "pool_limit": self._pool_limit,
            "pool_hits": self._pool_hits,
            "pool_misses": self._pool_misses,
        }

    # -- scheduling ------------------------------------------------------

    def _bucket(self, time: float) -> tuple:
        """The (urgent, normal) bucket for ``time``, creating if absent."""
        bucket = self._buckets.get(time)
        if bucket is None:
            pool = self._bucket_pool
            bucket = pool.pop() if pool else ([], [])
            self._buckets[time] = bucket
            heappush(self._times, time)
        return bucket

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._bucket(self._now + delay)[priority].append(event)
        self._pending += 1

    def _schedule_hook(self, callback: Callable[[Event], None],
                       priority: int, ok: bool, value: Any) -> "_Hook":
        """Schedule a pooled single-callback wakeup at the current time.

        Takes the same slot in scheduling order as the fresh ``Event``
        (or ``Initialize``) the seed kernel allocated here, so event
        ordering is unchanged.
        """
        pool = self._hook_pool
        if pool:
            hook = pool.pop()
            hook._ok = ok
            hook._value = value
            hook._processed = False
            hook.callbacks.append(callback)
            self._pool_hits += 1
        else:
            hook = _Hook.__new__(_Hook)
            hook.env = self
            hook.callbacks = [callback]
            hook._waiter = None
            hook._ok = ok
            hook._value = value
            hook._processed = False
            hook._scheduled = True
            self._pool_misses += 1
        self._bucket(self._now)[priority].append(hook)
        self._pending += 1
        return hook

    def _schedule_hook_at(self, time: float,
                          callback: Callable[[Event], None],
                          ok: bool, value: Any) -> "_Hook":
        """A pooled single-callback wakeup at an absolute future time.

        The vectorized fabric paths use this to land completion sweeps
        on exact precomputed timestamps (``now + (t - now)`` does not
        round-trip under IEEE arithmetic, so a delay-based wakeup could
        miss the bucket the scalar path used).  Fires at NORMAL
        priority, exactly where the scalar path's Timeout would have.
        """
        pool = self._hook_pool
        if pool:
            hook = pool.pop()
            hook._ok = ok
            hook._value = value
            hook._processed = False
            hook.callbacks.append(callback)
            self._pool_hits += 1
        else:
            hook = _Hook.__new__(_Hook)
            hook.env = self
            hook.callbacks = [callback]
            hook._waiter = None
            hook._ok = ok
            hook._value = value
            hook._processed = False
            hook._scheduled = True
            self._pool_misses += 1
        self._bucket(time)[NORMAL].append(hook)
        self._pending += 1
        return hook

    def credit_elided(self, n: int) -> None:
        """Account ``n`` scalar-path events a vectorized path elided.

        The vectorized fabric paths collapse deterministic event chains
        (serialize → propagate → deliver per flit) into closed-form
        schedules; the chain length is known exactly, so crediting it
        keeps ``events_processed`` (and the process-wide total) bit-
        identical with ``batch`` on or off while the wall clock drops.
        """
        self._elided += n
        self._events_processed += n
        global _total_events
        _total_events += n

    # -- factories -------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` from the free list (allocates only when empty)."""
        if not delay >= 0:   # also rejects NaN
            raise ValueError(f"delay must be >= 0, got {delay}")
        if self._sanitizer is not None:
            # Sanitized path: full construction so the sanitizer sees
            # the event's whole lifecycle (recycling is disabled too).
            return Timeout(self, delay, value)
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout._value = value
            timeout._processed = False
            self._pool_hits += 1
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = []
            timeout._waiter = None
            timeout._ok = True
            timeout._value = value
            timeout._processed = False
            timeout._scheduled = True
            self._pool_misses += 1
        timeout.delay = delay
        time = self._now + delay
        if time == self._last_time:
            self._last_normal.append(timeout)   # NORMAL priority
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                pool = self._bucket_pool
                bucket = pool.pop() if pool else ([], [])
                self._buckets[time] = bucket
                heappush(self._times, time)
            self._last_time = time
            self._last_normal = bucket[1]
            bucket[1].append(timeout)
        self._pending += 1
        return timeout

    def timeout_at(self, time: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` firing exactly at absolute ``time``.

        ``timeout(time - now)`` schedules at ``now + (time - now)``,
        which under IEEE rounding is not always ``time``; this lands on
        the exact float, which the vectorized fabric paths need to
        resume precisely where the scalar event chain would have.
        """
        now = self._now
        if not time >= now:   # also rejects NaN
            raise ValueError(f"timeout_at({time}) is in the past "
                             f"(now={now})")
        if self._sanitizer is not None:
            # Sanitized path: full construction (no recycling) so the
            # sanitizer sees the whole lifecycle; scheduled by hand to
            # land on the exact absolute time.
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = []
            timeout._waiter = None
            timeout._ok = True
            timeout._value = value
            timeout._processed = False
            timeout._scheduled = True
            timeout.delay = time - now
            self._sanitizer.on_created(timeout)
            self._bucket(time)[NORMAL].append(timeout)
            self._pending += 1
            return timeout
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout._value = value
            timeout._processed = False
            self._pool_hits += 1
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.env = self
            timeout.callbacks = []
            timeout._waiter = None
            timeout._ok = True
            timeout._value = value
            timeout._processed = False
            timeout._scheduled = True
            self._pool_misses += 1
        timeout.delay = time - now
        self._bucket(time)[NORMAL].append(timeout)
        self._pending += 1
        return timeout

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "", daemon: bool = False) -> Process:
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution -------------------------------------------------------

    def _retire_bucket(self, time: float, bucket: tuple) -> None:
        """Drop a fully drained bucket and recycle its list pair."""
        del self._buckets[time]
        heappop(self._times)
        if time == self._last_time:
            self._last_time = None
            self._last_normal = None
        if len(self._bucket_pool) < 64:
            self._bucket_pool.append(bucket)

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if queue is empty.

        Sweeps any bucket a previous early-stopped run drained but did
        not retire, so the reported time always has a live event.
        """
        times = self._times
        buckets = self._buckets
        while times:
            time = times[0]
            bucket = buckets[time]
            if bucket[0] or bucket[1]:
                return time
            self._retire_bucket(time, bucket)
        return _INF

    def step(self) -> None:
        """Process the single next event.

        Semantically identical to one iteration of :meth:`run`'s inner
        loop, minus event recycling (stepping is a debug/test path; the
        free lists only fill from :meth:`run`).
        """
        if self.peek() == _INF:
            raise SimulationError("no scheduled events")
        t0 = perf_counter()
        time = self._times[0]
        bucket = self._buckets[time]
        urgent, normal = bucket
        event = urgent.pop(0) if urgent else normal.pop(0)
        if not urgent and not normal:
            self._retire_bucket(time, bucket)
        self._now = time
        self._pending -= 1
        callbacks = event.callbacks
        event.callbacks = None
        waiter = event._waiter
        if waiter is not None:
            event._waiter = None
            waiter(event)
            fired = True
        else:
            fired = False
        for callback in callbacks:
            if callback is not None:
                callback(event)
                fired = True
        event._processed = True
        if self._sanitizer is not None:
            self._sanitizer.on_processed(event)
        self._events_processed += 1
        global _total_events
        _total_events += 1
        self._busy_seconds += perf_counter() - t0
        if not fired and not event._ok and not isinstance(event, Process):
            # A failed event nobody waited for: surface the error.
            raise event._value

    def run(self, until: Optional[float] = None,
            until_event: Optional[Event] = None) -> Any:
        """Run until the queue drains, time ``until``, or ``until_event``.

        Returns the value of ``until_event`` if given and it fired.  If
        ``until`` is given the clock always lands exactly on ``until``
        when the run stops early — including when the queue drains
        first — so wall-clock-style bookkeeping against ``env.now`` is
        branch-independent.
        """
        if until is not None and not until >= self._now:  # also NaN
            raise ValueError(f"until={until} is in the past (now={self._now})")
        stop = until if until is not None else _INF
        times = self._times
        buckets = self._buckets
        timeout_pool = self._timeout_pool
        hook_pool = self._hook_pool
        timeout_cls = Timeout
        hook_cls = _Hook
        refcount = getrefcount
        pool_limit = self._pool_limit
        pending_sentinel = _PENDING
        san = self._sanitizer
        check_event = until_event is not None
        processed = 0
        done = False
        t0 = perf_counter()
        try:
            while times:
                time = times[0]
                if time > stop:
                    self._now = stop
                    break
                bucket = buckets[time]
                urgent = bucket[0]
                normal = bucket[1]
                self._now = time
                live = self._pending - processed
                if live > self._peak_queue:
                    # Peak depth is sampled at time-advance granularity.
                    self._peak_queue = live
                ui = 0
                ni = 0
                nlen = len(normal)
                try:
                    while True:
                        if check_event and \
                                until_event._value is not pending_sentinel:
                            done = True
                            break
                        # URGENT is re-checked every iteration so a
                        # just-scheduled urgent event preempts the
                        # remaining NORMAL backlog at this time.
                        if ui < len(urgent):
                            event = urgent[ui]
                            ui += 1
                        elif ni < nlen:
                            event = normal[ni]
                            ni += 1
                        else:
                            # The cursor caught up with the cached
                            # length: re-measure once in case dispatch
                            # appended same-time events, then stop.
                            nlen = len(normal)
                            if ni >= nlen:
                                break
                            event = normal[ni]
                            ni += 1
                        callbacks = event.callbacks
                        event.callbacks = None
                        processed += 1
                        waiter = event._waiter
                        if waiter is not None:
                            # Single waiter in the slot — the
                            # overwhelmingly common case.
                            event._waiter = None
                            waiter(event)
                            fired = True
                            if callbacks:
                                for callback in callbacks:
                                    if callback is not None:
                                        callback(event)
                        else:
                            fired = False
                            for callback in callbacks:
                                if callback is not None:
                                    callback(event)
                                    fired = True
                        event._processed = True
                        if not fired and not event._ok and \
                                not isinstance(event, Process):
                            # A failed event nobody waited for: surface
                            # the error.
                            raise event._value
                        if san is not None:
                            # Sanitized runs trade recycling for full
                            # lifecycle tracking (and dead-event
                            # callback guards); scheduling order is
                            # unaffected.
                            san.on_processed(event)
                            continue
                        # Recycle the event if the kernel holds the last
                        # references (the bucket slot, local `event`,
                        # and getrefcount's argument).
                        cls = event.__class__
                        if cls is timeout_cls:
                            if len(timeout_pool) < pool_limit and \
                                    refcount(event) == 3:
                                if callbacks:
                                    callbacks.clear()
                                event.callbacks = callbacks
                                timeout_pool.append(event)
                        elif cls is hook_cls:
                            if len(hook_pool) < pool_limit and \
                                    refcount(event) == 3:
                                if callbacks:
                                    callbacks.clear()
                                event.callbacks = callbacks
                                hook_pool.append(event)
                finally:
                    # On any exit — drained, until_event, or a raising
                    # callback — drop consumed slots so re-entry never
                    # re-fires a processed event.
                    if ui:
                        del urgent[:ui]
                    if ni:
                        del normal[:ni]
                if not urgent and not normal:
                    self._retire_bucket(time, bucket)
                if done:
                    break
        finally:
            self._busy_seconds += perf_counter() - t0
            self._events_processed += processed
            self._pending -= processed
            global _total_events
            _total_events += processed
        if san is not None and not times:
            # The queue drained: report blocked processes (deadlocks),
            # never-triggered events, and credit-conservation drift.
            san.on_drain()
        if until_event is not None:
            if until_event._value is not _PENDING:
                if not until_event._ok:
                    raise until_event._value
                return until_event._value
            if until is not None:
                # The queue drained (or `stop` was reached) before the
                # event fired; land on `until` and report via the
                # still-pending event rather than raising.
                if stop != _INF:
                    self._now = stop
                return None
            raise SimulationError("until_event never fired")
        if until is not None and stop != _INF:
            self._now = stop
        return None


def run_proc(env: Environment, gen: Generator,
             horizon: float = 5_000_000_000.0) -> Any:
    """Run one process to completion and return its value.

    The run-to-completion idiom shared by benchmarks, examples and
    tests: stops as soon as the process finishes (important when
    background traffic generators would otherwise run to the horizon),
    and raises if the horizon passes first.
    """
    proc = env.process(gen)
    env.run(until=env.now + horizon, until_event=proc)
    if not proc.triggered:
        raise RuntimeError("process did not finish within horizon")
    if not proc.ok:
        raise proc.value
    return proc.value
