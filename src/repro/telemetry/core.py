"""The telemetry hub: span tracing, instant events, probe registry.

One :class:`Telemetry` instance rides on one simulation environment
(``Environment(telemetry=...)``) and collects three kinds of signal:

* **metrics** — the :class:`~repro.telemetry.metrics.MetricRegistry`
  at :attr:`Telemetry.registry`;
* **events** — spans (``with span(env, "cfc.rebalance"): ...``) and
  instants, timestamped with sim time and assigned to per-component
  *tracks* that become Perfetto threads;
* **probes** — named zero-argument callables sampled periodically by
  :class:`~repro.telemetry.sampler.TimelineSampler` into gauges and
  Chrome counter events.

The off path is the whole design: ``span(env, ...)`` on a plain
environment returns a shared no-op context manager after a single
``is None`` test, and instrumented components cache ``env.telemetry``
once at construction so their hot paths cost one ``is None`` branch —
the same pattern as ``Environment(sanitize=True)``.

Event storage is a flat list of tuples (no dict per event); the
Chrome/Perfetto JSON is built once, at export time, by
:mod:`repro.telemetry.perfetto`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .metrics import MetricRegistry

__all__ = ["Telemetry", "span"]

#: Event tuples appended to ``Telemetry.events``:
#:   ("B", ts, tid, name, args-or-None)   span begin
#:   ("E", ts, tid)                       span end
#:   ("i", ts, tid, name, args-or-None)   instant
#:   ("C", ts, name, value)               counter sample (sampler)
_BEGIN, _END, _INSTANT, _COUNTER = "B", "E", "i", "C"

#: Track used when a span/instant names no component.
DEFAULT_TRACK = "main"


class _NullSpan:
    """Shared no-op context manager returned when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: records B on enter and E on exit at sim time."""

    __slots__ = ("_telemetry", "_name", "_tid", "_args")

    def __init__(self, telemetry: "Telemetry", name: str,
                 tid: int, args: Optional[Dict[str, Any]]) -> None:
        self._telemetry = telemetry
        self._name = name
        self._tid = tid
        self._args = args

    def __enter__(self) -> "_Span":
        tel = self._telemetry
        tel.events.append((_BEGIN, tel._env.now, self._tid,
                           self._name, self._args))
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        tel = self._telemetry
        tel.events.append((_END, tel._env.now, self._tid))
        return False


class Telemetry:
    """Metrics + events + probes for one environment.

    Construct one and hand it to ``Environment(telemetry=...)`` (or
    pass ``telemetry=True`` to get a default instance); read it back
    as ``env.telemetry``.  A Telemetry binds to exactly one
    environment — timestamps come from that environment's clock.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None,
                 causal=None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        #: Optional :class:`~repro.telemetry.causal.CausalRecorder`.
        #: Components cache it at construction next to the hub itself;
        #: None (the default) keeps causal hooks at one is-None branch.
        self.causal = causal
        self.events: List[Tuple] = []
        self._env = None
        self._tracks: Dict[str, int] = {}
        #: (metric name, track name, callable) in registration order.
        self._probes: List[Tuple[str, str, Callable[[], float]]] = []
        #: Ticker callables ``fn(now)`` invoked by the TimelineSampler
        #: after each probe sweep — the hook the streaming health
        #: monitor hangs its window closing on.  Tickers piggyback on
        #: the sampler's existing daemon process, so registering one
        #: adds zero kernel events: model schedules stay bit-identical
        #: with or without any ticker attached.
        self._tickers: List[Callable[[float], None]] = []
        #: Sim time of the next TimelineSampler tick (``+inf`` while
        #: no sampler runs); maintained by the running samplers.
        self.next_sample_ns = float("inf")
        self._samplers: List = []

    # -- wiring ----------------------------------------------------------

    def bind(self, env) -> None:
        """Attach to ``env`` (done by ``Environment.__init__``)."""
        if self._env is not None and self._env is not env:
            raise ValueError(
                "Telemetry is already bound to another Environment; "
                "build one Telemetry per environment")
        self._env = env

    @property
    def env(self):
        return self._env

    # -- tracks ----------------------------------------------------------

    def track(self, name: str) -> int:
        """The stable thread id for component track ``name``."""
        tid = self._tracks.get(name)
        if tid is None:
            tid = len(self._tracks) + 1
            self._tracks[name] = tid
        return tid

    def track_names(self) -> Dict[str, int]:
        return dict(self._tracks)

    # -- events ----------------------------------------------------------

    def span(self, name: str, track: Optional[str] = None,
             **args: Any) -> _Span:
        """A context manager recording a duration event on ``track``.

        The track defaults to the dotted prefix of ``name`` (the
        component), so ``cfc.rebalance`` lands on track ``cfc``.
        """
        if track is None:
            head, _, tail = name.rpartition(".")
            track = head or DEFAULT_TRACK
        return _Span(self, name, self.track(track), args or None)

    def instant(self, name: str, track: Optional[str] = None,
                ts: Optional[float] = None, **args: Any) -> None:
        """Record a zero-duration event at ``ts`` (default: now)."""
        if track is None:
            head, _, tail = name.rpartition(".")
            track = head or DEFAULT_TRACK
        if ts is None:
            ts = self._env.now
        self.events.append((_INSTANT, ts, self.track(track), name,
                            args or None))

    def counter_sample(self, name: str, ts: float, value: float) -> None:
        """Record one point of a counter timeline (the sampler path)."""
        self.events.append((_COUNTER, ts, name, value))

    # -- probes ----------------------------------------------------------

    def add_probe(self, name: str, fn: Callable[[], float],
                  track: Optional[str] = None) -> None:
        """Register a gauge probe the TimelineSampler will poll.

        ``fn`` must be a cheap, side-effect-free read of live state
        (a queue length, a pool level).  ``name`` doubles as the gauge
        metric name and the Perfetto counter-track name.
        """
        if track is None:
            head, _, tail = name.rpartition(".")
            track = head or DEFAULT_TRACK
        if any(name == existing for existing, _t, _f in self._probes):
            raise ValueError(
                f"probe {name!r} already registered; registered "
                f"probes: "
                f"{', '.join(sorted(n for n, _t, _f in self._probes))}")
        self._probes.append((name, track, fn))
        self.registry.gauge(name)

    @property
    def probes(self) -> List[Tuple[str, str, Callable[[], float]]]:
        return list(self._probes)

    # -- tickers ---------------------------------------------------------

    def add_ticker(self, fn: Callable[[float], None]) -> None:
        """Register ``fn(now)`` to run after each sampler probe sweep.

        Tickers are how streaming consumers (the health monitor,
        future feedback policies) observe sim time advancing without
        scheduling kernel events of their own: the TimelineSampler's
        daemon process already wakes every ``interval_ns``, and its
        events exist whether or not anything ticks — so the
        events_processed identity the telemetry tests pin is
        untouched.  Tickers must be pure observers of telemetry state
        (registry, causal recorder); touching model resources from one
        would break the bit-identity contract.
        """
        self._tickers.append(fn)

    # -- export ----------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Perfetto-loadable Chrome trace-event payload."""
        from .perfetto import to_chrome_trace
        return to_chrome_trace(self)


def span(env, name: str, track: Optional[str] = None, **args: Any):
    """``with span(env, "heap.migrate", oid=7): ...`` — or a no-op.

    The single entry point model code uses: when ``env`` carries no
    telemetry this returns a shared null context manager (one
    ``is None`` branch, zero allocation).
    """
    telemetry = env._telemetry
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.span(name, track, **args)
