"""Deterministic discrete-event simulation kernel.

This package is the substrate every hardware model in the repository
runs on: a SimPy-style process/event engine (:mod:`repro.sim.engine`),
queueing primitives (:mod:`repro.sim.resources`), deterministic random
streams (:mod:`repro.sim.rng`) and tracing (:mod:`repro.sim.trace`).
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    run_proc,
    total_events_processed,
)
from .resources import Container, PriorityResource, PriorityStore, Resource, Store
from .rng import SimRng
from .trace import StatSeries

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Container",
    "PriorityResource",
    "PriorityStore",
    "Resource",
    "Store",
    "SimRng",
    "StatSeries",
    "run_proc",
    "total_events_processed",
]
