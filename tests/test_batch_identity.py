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
``run(until=...)`` horizon.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import params
from repro.fabric import Channel, Flit, LinkLayer, Packet, PacketKind
from repro.pcie import FabricManager, PortRole, Topology
from repro.pcie.arbitration import (EgressScheduler, FairVcScheduler,
                                    FifoScheduler, PriorityScheduler)
from repro.sim import Environment
from repro.sim.engine import batch_default, set_batch_default
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


def test_link_transport_key_is_size_and_vc():
    packet = Packet(kind=PacketKind.MEM_RD, channel=Channel.CXL_MEM,
                    src=0, dst=1)
    a = Flit(packet=packet, index=0, total=2, size_bytes=256, vc=0)
    b = Flit(packet=packet, index=1, total=2, size_bytes=256, vc=1)
    assert a.transport_key() == (256, 0)
    assert a.transport_key() != b.transport_key()


# -- switch: batched egress sweep ----------------------------------------


def _run_switch(batch, until=None, scheduler="fifo", writes=12):
    env = Environment(batch=batch)
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
            yield from port.post(packet)

    env.process(writer())
    env.run(until=until)
    switch = topo.switches["sw0"]
    ports = sorted((i, p.flits_in, p.flits_out, p.pending)
                   for i, p in switch.ports.items())
    phys = [(p.out_link.phys.flits_sent, p.out_link.phys.bytes_sent)
            for _, p in sorted(switch.ports.items())]
    return (env.now, env._events_processed, switch.flits_forwarded,
            ports, phys, env.stats["events_elided"])


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
