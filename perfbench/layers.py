"""Per-layer host cost from a profile taken outside the program.

A layer is a package of ``repro`` (``fabric``, ``pcie``, ...), except
that the kernel package ``sim`` is split into ``sim.engine`` and
``sim.resources``.  Two things are grouped by layer:

* self time (``tottime``).  A C builtin or a generated function has no
  file of its own, so its time goes to the layers of the functions that
  called it; NumPy's C functions and Python files make up ``numpy``.
* kernel scheduling calls: ``Environment.timeout``/``timeout_at``/
  ``process``/``event`` and the ``put``/``get``/``request``/``release``
  methods of the queueing resources, counted by the layer of the caller.
"""

from __future__ import annotations

import cProfile
import inspect
import pstats
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Set, Tuple

#: The layers reported by name; everything else is ``other``.
LAYERS = ("sim.engine", "sim.resources", "fabric", "pcie", "mem", "core",
          "topo", "telemetry", "control", "numpy")
#: Layers whose scheduling calls are reported (``<layer>.sched``).
SCHED_LAYERS = ("fabric", "pcie", "mem", "core")

FuncKey = Tuple[str, int, str]


def code_key(function: Callable) -> FuncKey:
    """The (file, first line, name) key pstats uses for ``function``."""
    code = inspect.unwrap(function).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Attribution:
    """Assigns each profile entry's self time to layers.

    An entry in a ``repro`` file belongs to that file's layer.  A C
    builtin or generated function (a dataclass ``__init__``) runs on
    behalf of its callers, so each caller's layer takes the time spent
    in it from that caller; chains of such code are followed upwards.
    """

    def __init__(self, stats: Dict[FuncKey, Any]) -> None:
        import repro
        self.stats = stats
        self.package_dir = str(Path(repro.__file__).resolve().parent)
        self._file_layers: Dict[str, str] = {}
        self._shares: Dict[FuncKey, Dict[str, float]] = {}

    def file_layer(self, filename: str) -> str:
        layer = self._file_layers.get(filename)
        if layer is None:
            layer = self._file_layers[filename] = self._classify(filename)
        return layer

    def _classify(self, filename: str) -> str:
        if "/numpy/" in filename:
            return "numpy"
        path = str(Path(filename).resolve())
        if not path.startswith(self.package_dir + "/"):
            return "other"
        parts = path[len(self.package_dir) + 1:].split("/")
        if len(parts) < 2:
            return "other"
        if parts[0] == "sim":
            name = "sim." + parts[1].rsplit(".", 1)[0]
            return name if name in LAYERS else "other"
        return parts[0] if parts[0] in LAYERS else "other"

    def own_layer(self, key: FuncKey) -> str:
        """The entry's own layer, or "" for code that has no file."""
        filename, _, name = key
        if filename == "~":             # a C builtin
            return "numpy" if "numpy" in name else ""
        if filename.startswith("<"):    # generated, e.g. dataclass __init__
            return ""
        return self.file_layer(filename)

    def shares(self, key: FuncKey) -> Dict[str, float]:
        """Fractions of ``key``'s time that belong to each layer."""
        cached = self._shares.get(key)
        if cached is not None:
            return cached
        layer = self.own_layer(key)
        if layer:
            self._shares[key] = {layer: 1.0}
            return self._shares[key]
        self._shares[key] = {"other": 1.0}     # guards call cycles
        callers = self.stats[key][4] if key in self.stats else {}
        if not callers:
            return self._shares[key]
        weights = {caller: tt for caller, (_, _, tt, _) in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = dict.fromkeys(weights, 1.0)
            total = float(len(weights))
        split: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, share in self.shares(caller).items():
                split[layer] = split.get(layer, 0.0) + share * weight / total
        self._shares[key] = split
        return split

    def layer(self, key: FuncKey) -> str:
        """The layer that owns most of ``key``'s time."""
        shares = self.shares(key)
        return max(shares, key=shares.__getitem__)


def code_keys(owner: Any, *names: str) -> Set[FuncKey]:
    """Code keys of the named functions of ``owner`` that exist.

    A function a later version removes simply drops out, so its counts
    read 0 instead of failing the benchmark.
    """
    return {code_key(getattr(owner, name)) for name in names
            if callable(getattr(owner, name, None))}


def scheduling_targets() -> Set[FuncKey]:
    """Code keys of the kernel's scheduling entry points."""
    from repro.sim import Environment
    return code_keys(Environment, "timeout", "timeout_at", "process",
                     "event") | resource_ops()


def resource_ops() -> Set[FuncKey]:
    """Code keys of put/get/request/release on every resource class."""
    from repro.sim import resources
    keys = set()
    for _, cls in inspect.getmembers(resources, inspect.isclass):
        if cls.__module__ != resources.__name__:
            continue
        keys |= code_keys(cls, *(name for name in
                                  ("put", "get", "request", "release")
                                  if name in vars(cls)))
    return keys


def calls_from(stats: Dict[FuncKey, Any], callees: Iterable[FuncKey],
               callers: Iterable[FuncKey]) -> int:
    """Calls made to any of ``callees`` directly from any of ``callers``."""
    callers = set(callers)
    total = 0
    for callee in callees:
        entry = stats.get(callee)
        if entry is None:
            continue
        for caller, (nc, _, _, _) in entry[4].items():
            if caller in callers:
                total += nc
    return total


def profile(fn: Callable[[], Any]) -> Tuple[Any, float, Dict[FuncKey, Any]]:
    """Run ``fn`` under cProfile; returns (result, wall s, raw stats)."""
    profiler = cProfile.Profile()
    t0 = perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = perf_counter() - t0
    return result, wall, pstats.Stats(profiler).stats


def by_layer(stats: Dict[FuncKey, Any]) -> Dict[str, float]:
    """``<layer>.self_s``, ``<layer>.sched`` and ``sim.resources.ops``."""
    attribution = Attribution(stats)
    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    for key, (_, _, tottime, _, _) in stats.items():
        for layer, share in attribution.shares(key).items():
            self_s[layer] += share * tottime
    sched = dict.fromkeys(LAYERS + ("other",), 0)
    for target in scheduling_targets():
        entry = stats.get(target)
        if entry is None:
            continue
        for caller, (nc, _, _, _) in entry[4].items():
            sched[attribution.layer(caller)] += nc
    metrics: Dict[str, float] = {f"{layer}.self_s": seconds
                                 for layer, seconds in self_s.items()}
    for layer in SCHED_LAYERS:
        metrics[f"{layer}.sched"] = sched[layer]
    metrics["sim.resources.ops"] = sum(
        stats[key][1] for key in resource_ops() if key in stats)
    return metrics


def daemon_ticks(stats: Dict[FuncKey, Any]) -> Dict[str, float]:
    """The core layer's polling daemons: ticks, and useful refills."""
    from repro.core import MovementOrchestrator
    from repro.core.heap import AccessProfiler, HeapRuntime
    from repro.sim import Container, Environment
    timeouts = code_keys(Environment, "timeout", "timeout_at")
    refill = code_keys(MovementOrchestrator, "_refill")
    ticks = calls_from(stats, timeouts, refill)
    puts = calls_from(stats, code_keys(Container, "put"), refill)
    return {"core.refill_ticks": ticks,
            "core.refill_puts": puts,
            "core.refill_useful_share": puts / ticks if ticks else 0.0,
            "core.heap_ticks": calls_from(
                stats, timeouts, code_keys(HeapRuntime, "_loop")
                | code_keys(AccessProfiler, "_decay_loop"))}
