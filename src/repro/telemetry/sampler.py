"""Periodic timeline sampling of live fabric state.

Instrumented components register *probes* (cheap reads of queue
depths, credit pool levels, heap bin occupancy) with their
environment's :class:`~repro.telemetry.core.Telemetry`; the
:class:`TimelineSampler` is a daemon process that polls every probe at
a configurable sim-time interval, updating the probe's gauge in the
metric registry and appending a Chrome counter event so the timeline
is visible in Perfetto.

The sampler is a *pure observer*: it never blocks on model resources,
acquires nothing, and only ever yields its own timeout — so model
event ordering (and therefore every workload result) is bit-identical
with or without it running; ``tests/test_telemetry.py`` pins this the
same way the sanitize-on/off identity test does.

The loop also publishes its pending wake-up on the telemetry hub as
``Telemetry.next_sample_ns`` (``+inf`` while no sampler runs).  The
switch's batched egress sweep reads it: a sweep starts only when its
whole closed-form schedule lands strictly before the next tick, so no
probe, ticker or control action ever sees a half-applied run.
"""

from __future__ import annotations

from typing import Generator

__all__ = ["TimelineSampler"]

#: Default sampling cadence (ns): fine enough to resolve credit
#: rebalance periods (1-10 us) without dominating small runs.
DEFAULT_INTERVAL_NS = 1_000.0


class TimelineSampler:
    """Samples every registered probe each ``interval_ns`` of sim time."""

    def __init__(self, env, interval_ns: float = DEFAULT_INTERVAL_NS,
                 telemetry=None) -> None:
        if not interval_ns > 0:     # NaN fails this too
            raise ValueError(f"interval_ns must be > 0, got {interval_ns}")
        telemetry = telemetry if telemetry is not None else env.telemetry
        if telemetry is None:
            raise ValueError(
                "TimelineSampler needs telemetry; construct the "
                "environment with Environment(telemetry=True) or pass "
                "telemetry= explicitly")
        self.env = env
        self.telemetry = telemetry
        self.interval_ns = interval_ns
        self.samples_taken = 0
        self._running = False
        self._due = float("inf")

    def start(self) -> "TimelineSampler":
        """Begin periodic sampling (idempotent); returns self.

        Start samplers before the model carries traffic: a switch
        sweep planned while no tick was pending may still be in flight
        when a sampler started mid-run first ticks.
        """
        if not self._running:
            self._running = True
            self.telemetry._samplers.append(self)
            # Published now, not at the loop's first step: the loop's
            # first timeout is scheduled at this same instant anyway.
            self._publish(self.env.now + self.interval_ns)
            self.env.process(self._loop(), name="telemetry.sampler",
                             daemon=True)
        return self

    def sample_once(self) -> None:
        """Poll every probe now (also usable without the loop)."""
        telemetry = self.telemetry
        registry = telemetry.registry
        now = self.env.now
        for name, _track, fn in telemetry._probes:
            value = fn()
            registry.gauge(name).set(value, time=now)
            telemetry.counter_sample(name, now, value)
        for ticker in telemetry._tickers:
            ticker(now)
        self.samples_taken += 1

    def _publish(self, due: float) -> None:
        self._due = due
        telemetry = self.telemetry
        telemetry.next_sample_ns = min(sampler._due
                                       for sampler in telemetry._samplers)

    def _loop(self) -> Generator:
        env = self.env
        timeout = env.timeout
        interval = self.interval_ns
        while True:
            # `now + interval` is the very float the timeout is
            # scheduled at, so the published tick is the real one.
            self._publish(env.now + interval)
            yield timeout(interval)
            self.sample_once()
