"""Bit-identity pins for the vectorized fabric fast paths.

``Environment(batch=True)`` turns on the link layer's vectorized flit
transport, the credit-return fast path, and the switch's batched
egress sweep; ``batch=False`` selects their scalar reference (the
kernel's dispatch loop is the same either way).  They all promise the
same thing: the observable simulation — every timestamp, every
counter, and ``events_processed`` itself (elided events are credited
in the time bucket where the scalar path would have dispatched them)
— is bit-identical to the scalar reference.  These tests run the same
models both ways and compare, including runs cut short by a
``run(until=...)`` horizon.  Observed runs (telemetry, causal tracing,
streaming health, closed-loop feedback) keep the credit-return fast
path and the egress sweep on, so the same pins hold for every trace,
metric, attribution and health document they produce.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import pytest

from repro import params
from repro.control import FeedbackPolicy, default_feedback_policy
from repro.fabric import Channel, Flit, LinkLayer, Packet, PacketKind
from repro.pcie import FabricManager, PortRole, Topology
from repro.pcie.arbitration import (EgressScheduler, FairVcScheduler,
                                    FifoScheduler, PriorityScheduler)
from repro.sim import Environment
from repro.sim.engine import batch_default, set_batch_default
from repro.telemetry import CausalRecorder, Telemetry, TimelineSampler
from repro.telemetry.health import run_health
from repro.telemetry.scenarios import (TELEMETRY_SCENARIOS,
                                       run_scenario_build)

np = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def _restore_batch_default():
    prev = batch_default()
    yield
    set_batch_default(prev)


# -- telemetry scenarios: summaries and event counts ---------------------


@pytest.mark.parametrize("name", sorted(TELEMETRY_SCENARIOS))
def test_scenario_bit_identical_batch_on_off(name):
    build = TELEMETRY_SCENARIOS[name]
    results = {}
    for batch in (False, True):
        set_batch_default(batch)
        res = run_scenario_build(name, build, telemetry=False)
        results[batch] = (res.summary, res.env._events_processed,
                          res.env.now, res.env.stats["events_elided"])
    assert results[True][:3] == results[False][:3]
    assert results[False][3] == 0   # scalar loop never elides


def test_interleave_fast_paths_actually_engage():
    # The identity guarantee is vacuous if the fast paths never fire:
    # the interleave scenario must take both the credit-return fast
    # path and the egress sweep (a sizeable slice of all its events).
    set_batch_default(True)
    res = run_scenario_build("interleave", TELEMETRY_SCENARIOS["interleave"],
                             telemetry=False)
    stats = res.env.stats
    assert stats["events_elided"] > stats["events_processed"] * 0.1


# -- observed scenarios: every document, batch on vs off -----------------

#: Observation modes: plain telemetry (no traced flits), causal tracing
#: (traced flits stay scalar inside the sweep's plan), and streaming
#: health, whose tickers close windows on the sampler tick.
OBSERVED_MODES = ("telemetry", "causal", "health")


@functools.lru_cache(maxsize=None)
def _observed(name, mode, batch, feedback=False):
    """JSON documents + kernel counters of one observed scenario run."""
    prev = batch_default()
    set_batch_default(batch)
    try:
        docs = {}
        if mode == "health":
            policy = None
            if feedback:
                policy = FeedbackPolicy(default_feedback_policy(name),
                                        source="default")
            res, report = run_health(name, feedback=policy)
            docs["health"] = report
        else:
            res = run_scenario_build(name, TELEMETRY_SCENARIOS[name],
                                     causal=mode == "causal")
        if mode != "telemetry":
            docs["why"] = res.attribution_report()
        docs["summary"] = res.summary
        docs["trace"] = res.chrome_trace()
        docs["metrics"] = res.metrics_snapshot()
        stats = res.env.stats
        return (json.dumps(docs, sort_keys=True),
                stats["events_processed"], stats["events_elided"])
    finally:
        set_batch_default(prev)


@pytest.mark.parametrize("mode", OBSERVED_MODES)
@pytest.mark.parametrize("name", sorted(TELEMETRY_SCENARIOS))
def test_observed_scenario_documents_bit_identical(name, mode):
    scalar = _observed(name, mode, False)
    batched = _observed(name, mode, True)
    assert batched[:2] == scalar[:2]
    assert scalar[2] == 0


def test_feedback_rescue_bit_identical_batch_on_off():
    # Control actions fire at window-close edges, i.e. on sampler
    # ticks, and mutate the model there: no sweep may straddle one.
    scalar = _observed("starvation", "health", False, feedback=True)
    batched = _observed("starvation", "health", True, feedback=True)
    assert batched[:2] == scalar[:2]
    assert '"control"' in scalar[0]


@pytest.mark.parametrize("mode", OBSERVED_MODES)
def test_observed_interleave_fast_paths_engage(mode):
    # Observing a run must not drop it to the scalar speed class: the
    # credit-return fast path and the egress sweep stay on.
    _docs, processed, elided = _observed("interleave", mode, True)
    assert elided > processed * 0.1


# -- link layer: vectorized transport ------------------------------------


def _run_link(batch, sizes):
    env = Environment(batch=batch)
    link = LinkLayer(env, vcs=1, name="l0")
    packet = Packet(kind=PacketKind.MEM_WR, channel=Channel.CXL_MEM,
                    src=0, dst=1, nbytes=64)
    deliveries = []

    def rx():
        for _ in range(len(sizes)):
            flit = yield link.rx.get()
            deliveries.append((env.now, flit.size_bytes))
            link.consume(flit)

    for i, size in enumerate(sizes):
        link.send(Flit(packet=packet, index=i, total=len(sizes),
                       size_bytes=size))
    env.process(rx())
    env.run()
    return deliveries, env._events_processed, env.now, \
        env.stats["events_elided"]


def test_link_homogeneous_run_vectorizes_bit_identically():
    sizes = [256] * 24
    scalar = _run_link(False, sizes)
    batched = _run_link(True, sizes)
    assert batched[:3] == scalar[:3]
    assert scalar[3] == 0
    assert batched[3] > 0           # the vector path engaged


def test_link_heterogeneous_flits_fall_back_to_scalar_path():
    # Alternating 64B/256B flits never form a homogeneous run, so the
    # sender must take the per-flit path — with the identical schedule.
    sizes = [64, 256] * 12
    scalar = _run_link(False, sizes)
    batched = _run_link(True, sizes)
    assert batched[:3] == scalar[:3]
    # Only the credit-return fast path elides here (2 events per
    # consume); the 6k-4 transport elisions must be absent.
    assert batched[3] == 2 * len(sizes)


def _run_observed_link(batch, credit_update_ns, interval_ns):
    # 40 mixed-size flits through a 32-credit link: the sender stalls
    # on credits, so every sampled credit level depends on when each
    # return lands.  All times are dyadic, so ticks hit returns exactly.
    env = Environment(batch=batch, telemetry=True)
    TimelineSampler(env, interval_ns=interval_ns).start()
    link = LinkLayer(env, vcs=1, name="l0",
                     credit_update_ns=credit_update_ns)
    packet = Packet(kind=PacketKind.MEM_WR, channel=Channel.CXL_MEM,
                    src=0, dst=1, nbytes=64)
    returns = []

    def rx():
        for _ in range(40):
            flit = yield link.rx.get()
            returns.append(env.now + credit_update_ns)
            link.consume(flit)

    for i in range(40):
        link.send(Flit(packet=packet, index=i, total=40,
                       size_bytes=64 if i % 2 else 256))
    env.process(rx())
    env.run(until=400.0)
    docs = json.dumps([env.telemetry.to_chrome_trace(),
                       env.telemetry.registry.snapshot()], sort_keys=True)
    return docs, env._events_processed, env.stats["events_elided"], returns


@pytest.mark.parametrize("credit_update_ns", [0.0, 8.0, 50.0])
def test_credit_return_fast_path_exact_under_sampler(credit_update_ns):
    # The fast path's hook and the scalar return's timeout land in the
    # same bucket, so a tick sharing the instant sees the same level.
    scalar = _run_observed_link(False, credit_update_ns, 0.5)
    batched = _run_observed_link(True, credit_update_ns, 0.5)
    assert batched[:2] == scalar[:2]
    assert scalar[2] == 0
    assert batched[2] == 2 * 40         # the fast path engaged
    ticks = {0.5 * n for n in range(1, 801)}
    assert ticks & set(scalar[3])       # ticks share return instants


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("credit_update_ns", [-50.0, math.nan])
def test_link_rejects_bad_credit_update_delay(batch, credit_update_ns):
    env = Environment(batch=batch)
    with pytest.raises(ValueError, match="'l0'.*credit_update_ns"):
        LinkLayer(env, vcs=1, name="l0",
                  credit_update_ns=credit_update_ns)


def test_link_transport_key_is_size_and_vc():
    packet = Packet(kind=PacketKind.MEM_RD, channel=Channel.CXL_MEM,
                    src=0, dst=1)
    a = Flit(packet=packet, index=0, total=2, size_bytes=256, vc=0)
    b = Flit(packet=packet, index=1, total=2, size_bytes=256, vc=1)
    assert a.transport_key() == (256, 0)
    assert a.transport_key() != b.transport_key()


# -- switch: batched egress sweep ----------------------------------------


def _run_switch(batch, until=None, scheduler="fifo", writes=12,
                sampler=None, trace_every=0):
    """The switch model; ``sampler=(start_ns, interval_ns)`` observes it.

    Observed runs start a TimelineSampler at ``start_ns`` and return
    the chrome trace and metrics snapshot (plus, with ``trace_every``,
    the causal records of one traced write in every ``trace_every``),
    then the delivery instants at the device (to show where ticks
    fall), after the plain fields.
    """
    causal = CausalRecorder(sample=trace_every) if trace_every else None
    env = Environment(batch=batch,
                      telemetry=Telemetry(causal=causal)
                      if sampler is not None else None)
    if sampler is not None:
        start_ns, interval_ns = sampler

        def start():
            yield env.timeout(start_ns)
            TimelineSampler(env, interval_ns=interval_ns).start()

        env.process(start())
    topo = Topology(env, scheduler=scheduler)
    topo.add_switch("sw0")
    topo.add_endpoint("src")
    topo.connect_endpoint("sw0", "src", role=PortRole.UPSTREAM)
    topo.add_endpoint("dev")
    topo.connect_endpoint("sw0", "dev",
                          link_params=params.LinkParams(lanes=4))
    FabricManager(topo).configure()

    def handler(request):
        yield env.timeout(params.FAM_ACCESS_NS)
        return None   # posted writes

    topo.port_of("dev").serve(handler, concurrency=4)
    dst = topo.endpoints["dev"].global_id

    def writer():
        port = topo.port_of("src")
        for _ in range(writes):
            packet = Packet(kind=PacketKind.IO_WR, channel=Channel.CXL_IO,
                            src=port.port_id, dst=dst, nbytes=8 * 1024)
            if causal is not None:
                packet.trace = causal.sample_root()
            yield from port.post(packet)

    arrivals = []
    dev_link = topo.switches["sw0"].ports[1].out_link
    deliver = dev_link._deliver

    def record(flit):
        arrivals.append(env.now)
        deliver(flit)

    dev_link._deliver = record
    env.process(writer())
    env.run(until=until)
    switch = topo.switches["sw0"]
    ports = sorted((i, p.flits_in, p.flits_out, p.pending)
                   for i, p in switch.ports.items())
    phys = [(p.out_link.phys.flits_sent, p.out_link.phys.bytes_sent)
            for _, p in sorted(switch.ports.items())]
    result = (env.now, env._events_processed, switch.flits_forwarded,
              ports, phys, env.stats["events_elided"])
    if sampler is None:
        return result
    docs = json.dumps([env.telemetry.to_chrome_trace(),
                       env.telemetry.registry.snapshot(),
                       list(causal.events) if causal is not None else None],
                      sort_keys=True)
    return result + (docs, arrivals)


def test_switch_fifo_sweep_bit_identical_and_engages():
    scalar = _run_switch(False)
    batched = _run_switch(True)
    assert batched[:5] == scalar[:5]
    assert scalar[5] == 0
    # 8KB posted writes stage long homogeneous runs at the FIFO
    # egress; the sweep must elide a large share of their events.
    assert batched[5] > batched[1] * 0.1


@pytest.mark.parametrize("until", [1_000.0, 2_500.0, 5_000.0, 9_999.5])
def test_switch_sweep_truncated_run_bit_identical(until):
    # A horizon landing mid-batch must leave counters, port state and
    # the event count exactly where the scalar loop leaves them:
    # elisions are credited per time bucket, never up front.
    scalar = _run_switch(False, until=until)
    batched = _run_switch(True, until=until)
    assert batched[:5] == scalar[:5]


#: The device link serializes a 68 B flit in 2.125 ns and propagates in
#: 5 ns; its deliveries land on 0.65625 + 2.125 n.  Starting a sampler
#: with an interval of 8 serialization times at that phase puts ticks
#: exactly on delivery instants, and 5 ns earlier on the serialization
#: boundaries themselves.
_SER_NS = 2.125
_TIE_PHASES = {"delivery": 0.65625, "boundary": 0.65625 - 5.0 + 3 * _SER_NS}


@pytest.mark.parametrize("phase", sorted(_TIE_PHASES))
@pytest.mark.parametrize("multiple", [1, 8])
def test_switch_sweep_sampler_ticks_on_sweep_boundaries(phase, multiple):
    start = _TIE_PHASES[phase]
    interval = multiple * _SER_NS
    sampler = (start, interval)
    scalar = _run_switch(False, until=4_000.0, sampler=sampler)
    batched = _run_switch(True, until=4_000.0, sampler=sampler)
    assert batched[:5] == scalar[:5]
    assert batched[6] == scalar[6]      # trace + metrics documents
    assert batched[5] > batched[1] * 0.1
    ticks, t = set(), start
    while t < 4_000.0:
        t += interval
        ticks.add(t)
    shift = 0.0 if phase == "delivery" else params.LINK_PROPAGATION_NS
    assert ticks & {a - shift for a in scalar[7]}   # real ties


@pytest.mark.parametrize("until", [1_000.0, 2_500.0, 3_000.5])
def test_switch_sweep_truncated_observed_run_bit_identical(until):
    # Counters (and their last_time) are applied by the per-boundary
    # ledger hooks, so a horizon landing mid-sweep leaves the metrics
    # snapshot where the scalar loop leaves it.
    sampler = (0.0, 100.0)
    scalar = _run_switch(False, until=until, sampler=sampler)
    batched = _run_switch(True, until=until, sampler=sampler)
    assert batched[:5] == scalar[:5]
    assert batched[6] == scalar[6]
    assert batched[5] > 0


def test_switch_sweep_leaves_traced_flits_to_scalar_path():
    # Every third write is traced, and its flits are homogeneous with
    # the untraced ones around them: the sweep must stop before each
    # traced flit so its waits, spans and grant are recorded as usual.
    sampler = (0.0, 1_000.0)
    scalar = _run_switch(False, until=4_000.0, sampler=sampler,
                         trace_every=3)
    batched = _run_switch(True, until=4_000.0, sampler=sampler,
                          trace_every=3)
    assert batched[:5] == scalar[:5]
    assert batched[6] == scalar[6]
    assert '"wire"' in scalar[6]         # traced flits crossed the wire
    assert batched[5] > batched[1] * 0.1


def test_switch_fair_scheduler_bit_identical_without_sweep():
    # FairVc service order can be preempted by later pushes, so it is
    # not batchable: the egress loop must stay scalar (only the
    # credit-return fast path elides) and stay bit-identical.
    scalar = _run_switch(False, scheduler="fair")
    batched = _run_switch(True, scheduler="fair")
    assert batched[:5] == scalar[:5]


def test_only_fifo_scheduler_is_batchable():
    assert FifoScheduler.batchable
    assert not EgressScheduler.batchable
    assert not FairVcScheduler.batchable
    assert not PriorityScheduler.batchable


def test_fifo_plan_is_pure_and_commit_head_pops():
    env = Environment()
    scheduler = FifoScheduler(env, capacity=8)
    packet = Packet(kind=PacketKind.MEM_WR, channel=Channel.CXL_MEM,
                    src=0, dst=1)
    for i in range(4):
        scheduler.push(Flit(packet=packet, index=i, total=4,
                            size_bytes=256))
    env.run()
    run = scheduler.plan_ready_run(3)
    assert [f.index for f in run] == [0, 1, 2]
    assert len(scheduler) == 4          # planning removed nothing
    scheduler.commit_head()
    assert len(scheduler) == 3
    assert scheduler.peek_ready().index == 1


def test_fifo_plan_stops_at_transport_key_change():
    env = Environment()
    scheduler = FifoScheduler(env, capacity=16)
    packet = Packet(kind=PacketKind.MEM_WR, channel=Channel.CXL_MEM,
                    src=0, dst=1)
    for i, size in enumerate([256, 256, 64, 256]):
        scheduler.push(Flit(packet=packet, index=i, total=4,
                            size_bytes=size))
    env.run()
    assert [f.size_bytes for f in scheduler.plan_ready_run(16)] \
        == [256, 256]
    env3 = Environment()
    mixed = FifoScheduler(env3, capacity=16)
    traced = Packet(kind=PacketKind.MEM_WR, channel=Channel.CXL_MEM,
                    src=0, dst=1)
    traced.trace = object()
    for i, pkt in enumerate([packet, packet, traced, packet]):
        mixed.push(Flit(packet=pkt, index=i, total=4, size_bytes=256))
    env3.run()
    # Traced flits stay on the scalar path: the run stops before one.
    assert [f.index for f in mixed.plan_ready_run(16)] == [0, 1]
    mixed.commit_head()
    mixed.commit_head()
    assert mixed.plan_ready_run(16) is None
    env2 = Environment()
    lone = FifoScheduler(env2, capacity=16)
    lone.push(Flit(packet=packet, index=0, total=1, size_bytes=256))
    env2.run()
    assert lone.peek_ready() is None    # a 1-flit "run" is not a run


# -- kernel primitives the fast paths lean on ----------------------------


def test_timeout_at_lands_on_exact_float():
    # now + (t - now) != t under IEEE-754 for this triple; timeout_at
    # must land on t exactly, not on the round-tripped sum.
    env = Environment()

    def proc():
        yield env.timeout(0.1)
        assert env.now + (0.3 - env.now) != 0.3
        yield env.timeout_at(0.3)
        assert env.now == 0.3

    env.process(proc())
    env.run()


def test_cumsum_reproduces_chained_additions():
    # The vectorized schedules rely on numpy's cumsum accumulating
    # strictly sequentially, exactly like the scalar loop's repeated
    # `now += ser_ns` — pin that (awkward floats on purpose).
    for start, step in [(0.30000000000000004, 0.1),
                        (171649.49999999953, 40.96),
                        (1.0 / 3.0, 2.0 / 7.0)]:
        ends = np.cumsum([start] + [step] * 16)
        acc = start
        for i in range(16):
            acc = acc + step
            assert float(ends[i + 1]) == acc


def test_event_pool_counters_exposed_and_bounded():
    env = Environment(pool_limit=4)

    def looper():
        for _ in range(50):
            yield env.timeout(1.0)

    for _ in range(8):
        env.process(looper())
    env.run()
    stats = env.stats
    assert stats["pool_limit"] == 4
    assert stats["pool_hits"] > 0
    assert stats["pool_misses"] > 0     # 8 concurrent > pool of 4
    assert stats["pooled_timeouts"] <= 4


# -- benchmark harness: BENCH numbering tolerates gaps -------------------


def test_next_bench_path_walks_numbering_gaps(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    if str(repo / "benchmarks") not in sys.path:
        sys.path.insert(0, str(repo / "benchmarks"))
    from run_all import next_bench_path

    assert next_bench_path(tmp_path).name == "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_3.json").write_text("{}")      # gap at 2
    assert next_bench_path(tmp_path).name == "BENCH_4.json"
    (tmp_path / "BENCH_4.json").write_text("{}")
    (tmp_path / "BENCH_5b.json").write_text("{}")     # non-numeric squatter
    assert next_bench_path(tmp_path).name == "BENCH_5.json"
    (tmp_path / "BENCH_5.json").write_text("{}")
    assert next_bench_path(tmp_path).name == "BENCH_6.json"
