"""The benchmark's three workloads, driven through the public API only.

Each workload has a set-up step and a run step.  ``setup(seed)`` does
everything that happens before the first simulated event (importing
``repro``, loading the experiment registry, building the model where
the benchmark builds it) and returns the run step.  The run step
simulates and returns one output document per simulation: the model
outputs that must not change when only the simulator's speed changes.

Kernel event counts are kept out of the output documents on purpose: a
change may reach the same outputs with fewer events.  They are reported
as per-layer counts instead.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import random
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: One simulation's model outputs, by simulation name.
Outputs = Dict[str, Dict[str, Any]]
#: The run step: given the active SimRecorder, returns the outputs and
#: named step wall times.
RunStep = Callable[["SimRecorder"], Tuple[Outputs, Dict[str, float]]]


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``, never an install."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no repro package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest(doc: Any) -> str:
    """A stable fingerprint of one output document (floats exact)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SimRecorder:
    """Per-environment final clock and kernel counters, from outside.

    For the length of a ``with`` block, ``Environment.__init__`` and
    ``Environment.run`` are wrapped so that each environment's clock,
    ``events_processed`` and ``events_elided`` are read after every
    return from ``run``.  Nothing is added to the event loop, and no
    environment is kept alive by the recorder.
    """

    def __init__(self) -> None:
        #: Per environment, in creation order: (now, events, elided),
        #: or None for an environment that never ran.
        self.finals: List[Optional[Tuple[float, int, int]]] = []
        self._slot: Dict[int, int] = {}

    def __enter__(self) -> "SimRecorder":
        from repro.sim import Environment
        self._saved = (Environment.__init__, Environment.run)
        init, run = self._saved
        finals, slot = self.finals, self._slot

        @functools.wraps(init)
        def recorded_init(env, *args, **kwargs):
            init(env, *args, **kwargs)
            # Registered at construction, so a new environment that
            # reuses a dead one's id() takes a fresh slot.
            slot[id(env)] = len(finals)
            finals.append(None)

        @functools.wraps(run)
        def recorded_run(env, *args, **kwargs):
            try:
                return run(env, *args, **kwargs)
            finally:
                stats = env.stats
                finals[slot[id(env)]] = (env.now,
                                         stats["events_processed"],
                                         stats["events_elided"])

        Environment.__init__ = recorded_init
        Environment.run = recorded_run
        return self

    def __exit__(self, *exc_info: Any) -> None:
        from repro.sim import Environment
        Environment.__init__, Environment.run = self._saved

    def ran(self) -> List[Tuple[float, int, int]]:
        return [final for final in self.finals if final is not None]

    @property
    def events(self) -> int:
        return sum(events for _, events, _ in self.ran())

    @property
    def elided(self) -> int:
        return sum(elided for _, _, elided in self.ran())


# --------------------------------------------------------------------------
# fabric_contention: the xswitch_starvation registry experiment
# --------------------------------------------------------------------------

def setup_fabric_contention(seed: int) -> RunStep:
    from repro.experiments import ExperimentSpec, run_experiment
    # The experiment's inputs are its registry defaults; the seed rides
    # in the spec and the experiment draws nothing from it.
    spec = ExperimentSpec(experiment="xswitch_starvation", seed=seed)
    spec.resolve()

    def run(recorder: SimRecorder) -> Tuple[Outputs, Dict[str, float]]:
        summary = run_experiment(spec)["outputs"]["summary"]
        clocks = [now for now, _, _ in recorder.ran()]
        cases = summary["cases"]
        if len(clocks) != len(cases):
            raise RuntimeError(
                f"xswitch_starvation ran {len(clocks)} environments "
                f"for {len(cases)} cases")
        shared = {"topology": summary["topology"],
                  "endpoints": summary["endpoints"]}
        return ({case: dict(shared, case=cases[case], final_ns=clock)
                 for case, clock in zip(cases, clocks)}, {})

    return run


def check_fabric_contention(outputs: Outputs) -> List[str]:
    cases = {name: doc["case"]["mean_ns"] for name, doc in outputs.items()}
    problems = []
    if sorted(cases) != ["fair congested", "fifo congested", "fifo quiet"]:
        problems.append(f"unexpected cases {sorted(cases)}")
    elif not (cases["fifo quiet"] < cases["fair congested"]
              < cases["fifo congested"]):
        problems.append(f"victim latency order broken: {cases}")
    return problems


# --------------------------------------------------------------------------
# tiered_memory: a unified heap over a local bin and a FAM bin
# --------------------------------------------------------------------------

#: The access trace: Zipf-popular objects, mixed reads and writes,
#: exponential think time.  3000 accesses at a 5 us mean think time is
#: ~15 ms of simulated time, ticked every 100 ns by the bandwidth
#: bucket's refill daemon.
TIERED_ACCESSES = 3000
TIERED_THINK_NS = 5_000.0
TIERED_WRITE_SHARE = 0.3
TIERED_ZIPF_S = 1.1
TIERED_OBJECTS = 64
TIERED_OBJECT_BYTES = 4096
TIERED_ACCESS_BYTES = 64
TIERED_LOCAL_BYTES = 96 * 1024
TIERED_REMOTE_BW_BYTES_PER_US = 2048.0


def tiered_trace(seed: int) -> List[Tuple[int, int, bool, float]]:
    """(object index, offset, is_write, think ns) per access."""
    rng = random.Random(seed)
    ranks = list(range(TIERED_OBJECTS))
    rng.shuffle(ranks)          # which objects are popular
    weights = [1.0 / (k + 1) ** TIERED_ZIPF_S for k in range(TIERED_OBJECTS)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    slots = TIERED_OBJECT_BYTES // TIERED_ACCESS_BYTES
    trace = []
    for _ in range(TIERED_ACCESSES):
        rank = min(bisect.bisect_left(cdf, rng.random()), TIERED_OBJECTS - 1)
        trace.append((ranks[rank],
                      rng.randrange(slots) * TIERED_ACCESS_BYTES,
                      rng.random() < TIERED_WRITE_SHARE,
                      rng.expovariate(1.0 / TIERED_THINK_NS)))
    return trace


def setup_tiered_memory(seed: int) -> RunStep:
    trace = tiered_trace(seed)
    from repro.core import MovementOrchestrator, UnifiedHeap
    from repro.core.heap import AccessProfiler, HeapRuntime
    from repro.experiments import names
    from repro.infra import ClusterSpec, build_cluster
    from repro.mem import CacheConfig
    from repro.sim import Environment, run_proc

    names()     # set-up loads the experiment registry in every workload
    env = Environment()
    # Small host caches, so placement rather than caching decides the
    # access cost.
    cluster = build_cluster(env, ClusterSpec(hosts=1, cache_configs=(
        CacheConfig(name="l1", size_bytes=4 * 1024, assoc=4,
                    read_ns=5.4, write_ns=5.4),
        CacheConfig(name="l2", size_bytes=16 * 1024, assoc=8,
                    read_ns=13.6, write_ns=12.5))))
    host = cluster.host(0)
    mover = MovementOrchestrator(
        env, remote_bw_bytes_per_us=TIERED_REMOTE_BW_BYTES_PER_US)
    # A 50 us decay epoch lets the hottest objects reach the promotion
    # threshold at this access rate.
    heap = UnifiedHeap(env, host, mover.attach_host(host),
                       profiler=AccessProfiler(env, epoch_ns=50_000.0))
    heap.add_bin("local", start=8 << 20, size=TIERED_LOCAL_BYTES,
                 tier="local", is_remote=False)
    heap.add_bin("fam0", start=host.remote_base("fam0"), size=32 << 20,
                 tier="cpuless-numa", is_remote=True)
    runtime = HeapRuntime(env, heap, local_bin="local",
                          interval_ns=10_000.0, promote_threshold=2.0,
                          demote_threshold=0.5)
    runtime.start()
    pointers = [heap.allocate(TIERED_OBJECT_BYTES,
                              prefer_tier="cpuless-numa")
                for _ in range(TIERED_OBJECTS)]
    latencies: List[float] = []

    def access_stream():
        for index, offset, is_write, think_ns in trace:
            pointer = pointers[index]
            start = env.now
            if is_write:
                yield from pointer.write(offset, TIERED_ACCESS_BYTES)
            else:
                yield from pointer.read(offset, TIERED_ACCESS_BYTES)
            latencies.append(env.now - start)
            yield env.timeout(think_ns)

    def run(recorder: SimRecorder) -> Tuple[Outputs, Dict[str, float]]:
        run_proc(env, access_stream(), horizon=1e12)
        ordered = sorted(latencies)
        placement: Dict[str, int] = {}
        for pointer in pointers:
            placement[pointer.tier] = placement.get(pointer.tier, 0) + 1
        doc = {
            "accesses": len(latencies),
            "writes": sum(1 for _, _, w, _ in trace if w),
            "latency_ns": {"sum": sum(latencies), "max": ordered[-1],
                           "p50": ordered[len(ordered) // 2],
                           "p99": ordered[(len(ordered) * 99) // 100]},
            "promotions": runtime.promotions,
            "demotions": runtime.demotions,
            "bytes_moved": mover.bytes_moved,
            "traffic": sorted([src, dst, n] for (src, dst), n
                              in mover.traffic_matrix.items()),
            "placement": placement,
            "final_ns": env.now,
        }
        return {"heap": doc}, {}

    return run


def check_tiered_memory(outputs: Outputs) -> List[str]:
    doc = outputs["heap"]
    problems = []
    if doc["accesses"] != TIERED_ACCESSES:
        problems.append(f"{doc['accesses']} of {TIERED_ACCESSES} "
                        f"accesses completed")
    moved = (doc["promotions"] + doc["demotions"]) * TIERED_OBJECT_BYTES
    if doc["bytes_moved"] != moved:
        problems.append(f"bytes_moved {doc['bytes_moved']} != "
                        f"{moved} for the migrations made")
    if doc["promotions"] < 1:
        problems.append("the heap runtime promoted nothing")
    local_cap = TIERED_LOCAL_BYTES // TIERED_OBJECT_BYTES
    if doc["placement"].get("local", 0) > local_cap:
        problems.append(f"{doc['placement']['local']} objects in a "
                        f"local bin that holds {local_cap}")
    return problems


# --------------------------------------------------------------------------
# observed_interleave: the `repro why` and `repro health` paths
# --------------------------------------------------------------------------

def setup_observed_interleave(seed: int) -> RunStep:
    from repro.control import FeedbackPolicy, default_feedback_policy
    from repro.experiments import get, run_scenario
    from repro.telemetry.health import run_health
    # The scenarios are fixed models; the seed selects nothing.
    for name in ("interleave", "starvation"):
        get(name, kind="scenario")
    feedback = FeedbackPolicy(default_feedback_policy("starvation"),
                              source="default")

    def run(recorder: SimRecorder) -> Tuple[Outputs, Dict[str, float]]:
        t0 = perf_counter()
        why = run_scenario("interleave", causal=True)
        attribution = why.attribution_report()
        t1 = perf_counter()
        health, health_report = run_health("interleave")
        rescue, rescue_report = run_health("starvation", feedback=feedback)
        return ({"why interleave": {"summary": why.summary,
                                    "attribution": attribution,
                                    "final_ns": why.env.now},
                 "health interleave": {"summary": health.summary,
                                       "health": health_report,
                                       "final_ns": health.env.now},
                 "health starvation feedback": {
                     "summary": rescue.summary,
                     "health": rescue_report,
                     "final_ns": rescue.env.now}},
                {"observed_s": t1 - t0})

    return run


def plain_interleave_s() -> float:
    """Wall seconds of the bare interleave scenario (telemetry off)."""
    from repro.experiments import run_scenario
    t0 = perf_counter()
    run_scenario("interleave", telemetry=False)
    return perf_counter() - t0


def check_observed_interleave(outputs: Outputs) -> List[str]:
    from repro.telemetry.attribution import validate_attribution
    from repro.telemetry.health import validate_health_report
    problems = []
    for name, doc in outputs.items():
        try:
            if "attribution" in doc:
                validate_attribution(doc["attribution"])
            else:
                validate_health_report(doc["health"])
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    actions = control_actions(outputs)
    if actions != 1:
        problems.append(f"feedback run took {actions} actions, expected 1")
    return problems


def control_actions(outputs: Outputs) -> int:
    """Control-plane actions logged in the workload's health documents."""
    total = 0
    for doc in outputs.values():
        control = doc.get("health", {}).get("control")
        if control:
            total += len(control["actions"])
    return total


#: name -> (set-up, output checks, whether the seed shapes the inputs)
WORKLOADS: Dict[str, Tuple[Callable[[int], RunStep],
                           Callable[[Outputs], List[str]], bool]] = {
    "fabric_contention": (setup_fabric_contention,
                          check_fabric_contention, False),
    "tiered_memory": (setup_tiered_memory, check_tiered_memory, True),
    "observed_interleave": (setup_observed_interleave,
                            check_observed_interleave, False),
}
