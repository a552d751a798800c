"""Differential tests: the lazy bandwidth bucket against a refill process.

The reference model below is the token bucket the movement service used
before :class:`~repro.core.movement.TokenBucket`: a ``Container`` topped
up by a process that wakes every 100 ns.  The lazy bucket must grant
every get at the same simulated time and leave the same level behind,
bit for bit, while scheduling no event per quantum.
"""

import pytest

from repro.control import MovementActuator
from repro.core import ETrans, MovementOrchestrator
from repro.core.movement import QUANTUM_NS, TokenBucket
from repro.infra import ClusterSpec, build_cluster
from repro.sim import Container, Environment, SimRng, run_proc


class DaemonBucket:
    """Reference model: a ``Container`` refilled every 100 ns by a process."""

    def __init__(self, env, capacity, rate):
        self.env = env
        self.rate = rate
        self.container = Container(env, capacity=capacity, init=capacity)
        env.process(self._refill(), name="bw-refill", daemon=True)

    @property
    def level(self):
        return self.container.level

    def blocked(self):
        return [get.amount for get in self.container._get_waiters]

    def get(self, amount):
        return self.container.get(amount)

    def set_rate(self, rate):
        self.rate = rate

    def _refill(self):
        quantum_ns = 100.0
        while True:
            yield self.env.timeout(quantum_ns)
            per_quantum = self.rate * quantum_ns / 1000.0
            space = self.container.capacity - self.container.level
            if space > 0:
                yield self.container.put(min(per_quantum, space))


class LazyBucket(TokenBucket):
    """The bucket under test, with the reference model's inspection hook."""

    __slots__ = ()

    def blocked(self):
        return [amount for amount, _ in self._waiters]


def boundaries(attach, now):
    """(last boundary at or before ``now``, first one after), stepped
    from ``attach`` by repeated addition as the refill process does."""
    before, after = attach, attach + QUANTUM_NS
    while after <= now:
        before, after = after, after + QUANTUM_NS
    return before, after


class Traffic:
    """Seeded clients and one retuning controller over one bucket."""

    def __init__(self, model, seed, attach, capacity=65536,
                 rate=2048.0, clients=4, gets=30, retunes=6):
        self.rng = rng = SimRng(seed)
        self.env = env = Environment()
        self.attach = attach
        self.capacity = capacity
        self.grants = {}
        self.done = env.event()
        self.coverage = {"queued_behind_larger": 0, "boundary_landing": 0,
                         "retune_while_blocked": 0}

        def start():
            yield env.timeout_at(attach)
            self.bucket = model(env, capacity, rate)
            env.process(self._controller(retunes))
            yield env.all_of([
                env.process(self._client(client, gets, rng.random()))
                for client in range(clients)])
            self.done.succeed()

        env.process(start())

    def _client(self, client, gets, burstiness):
        env, rng = self.env, self.rng
        for index in range(gets):
            before, after = boundaries(self.attach, env.now)
            if rng.random() < 0.3 and before < env.now:
                # Land exactly on the next boundary, from an event
                # scheduled less than one quantum earlier.
                yield env.timeout_at(after)
                self.coverage["boundary_landing"] += 1
            elif rng.random() > burstiness:
                yield env.timeout(rng.expovariate(1.0 / 3_000.0))
            if rng.random() < 0.15:
                amount = self.capacity          # a whole burst
            else:
                amount = min(rng.choice((64, 512, 4096, 4096, 16384))
                             + rng.random() * rng.choice((0.0, 1.0)),
                             self.capacity)
            queued = self.bucket.blocked()
            if queued and queued[0] > amount:
                self.coverage["queued_behind_larger"] += 1
            yield self.bucket.get(amount)
            self.grants[(client, index)] = (env.now, self.bucket.level)

    def _controller(self, retunes):
        env, rng = self.env, self.rng
        for _ in range(retunes):
            yield env.timeout(rng.expovariate(1.0 / 40_000.0))
            if self.bucket.blocked():
                self.coverage["retune_while_blocked"] += 1
            self.bucket.set_rate(rng.uniform(300.0, 6000.0))

    def run(self):
        self.env.run(until=50_000_000.0, until_event=self.done)
        assert self.done.triggered
        return self.grants


@pytest.mark.parametrize("attach", [0.0, 12.345, 1_000_000.3])
@pytest.mark.parametrize("seed", range(6))
def test_lazy_bucket_matches_refill_process(seed, attach):
    reference = Traffic(DaemonBucket, seed, attach)
    lazy = Traffic(LazyBucket, seed, attach)
    expected = reference.run()
    assert lazy.run() == expected
    assert len(expected) == 4 * 30
    assert lazy.coverage == reference.coverage


def test_traffic_covers_the_hard_cases():
    totals = dict.fromkeys(("queued_behind_larger", "boundary_landing",
                            "retune_while_blocked"), 0)
    for seed in range(6):
        traffic = Traffic(LazyBucket, seed, 12.345)
        traffic.run()
        for key, count in traffic.coverage.items():
            totals[key] += count
    assert all(count > 0 for count in totals.values()), totals


@pytest.mark.parametrize("capacity,rate", [(50_000, 1234.5),
                                           (12_345, 777.7)])
def test_lazy_bucket_matches_with_odd_capacity(capacity, rate):
    expected = Traffic(DaemonBucket, 99, 0.1, capacity=capacity,
                       rate=rate).run()
    assert Traffic(LazyBucket, 99, 0.1, capacity=capacity,
                   rate=rate).run() == expected


def test_rate_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError, match="refill rate"):
        TokenBucket(env, 4096, 0.0)
    bucket = TokenBucket(env, 4096, 100.0)
    with pytest.raises(ValueError, match="refill rate"):
        bucket.set_rate(-1.0)
    assert bucket.rate == 100.0


def scripted(model, capacity, rate, gets):
    """Grant (time, level) per get of a fixed (issue time, amount) list."""
    env = Environment()
    bucket = model(env, capacity, rate)
    grants = {}

    def client(index, at, amount):
        yield env.timeout_at(at)
        yield bucket.get(amount)
        grants[index] = (env.now, bucket.level)

    for index, (at, amount) in enumerate(gets):
        env.process(client(index, at, amount))
    env.run(until=10_000.0)
    return grants


def test_refill_failing_the_put_guard_stalls_like_a_blocked_put():
    # Two gets leave 1201.9000000000005 tokens, and at 100 ns the
    # refill's ``level + space`` rounds past the capacity: the put
    # blocks until the get at 150 ns makes room, and the boundaries
    # restart one quantum later, at 250 ns.
    gets = [(0.0, 5007.4), (0.0, 6136.3), (150.0, 100.0), (160.0, 12300.0)]
    expected = scripted(DaemonBucket, 12345.6, 200_000.0, gets)
    assert expected[3][0] == 250.0
    assert scripted(LazyBucket, 12345.6, 200_000.0, gets) == expected


def landing_from_afar(model, drain, amount):
    """Level after a get issued by an event scheduled more than one
    quantum before the boundary it lands on (500 ns), with the bucket
    below capacity: ``drain`` tokens are taken 50 ns before."""
    env = Environment()
    bucket = model(env, 65536, 2048.0)
    seen = {}

    def drainer():
        yield env.timeout_at(450.0)
        yield bucket.get(drain)

    def late():
        yield env.timeout_at(500.0)         # scheduled at 0: 5 quanta ahead
        yield bucket.get(amount)
        seen["grant"] = (env.now, bucket.level)

    env.process(drainer())
    env.process(late())
    env.run(until=1_000.0)
    return seen["grant"]


@pytest.mark.parametrize("drain,amount", [
    (50.0, 300.0),                              # nearly full: clipped
    (65536 - 1700.8485913203785, 512.432767067905),     # rounding only
])
def test_landing_from_more_than_a_quantum_ahead_is_the_known_limit(
        drain, amount):
    # The refill process serves this get before the boundary's refill;
    # the lazy bucket, by the same-timestamp rule, after it.  The grant
    # time agrees; the level after it does not.
    level = 65536 - drain
    per_quantum = 2048.0 * QUANTUM_NS / 1000.0
    ref_time, ref_level = landing_from_afar(DaemonBucket, drain, amount)
    lazy_time, lazy_level = landing_from_afar(LazyBucket, drain, amount)
    assert ref_time == lazy_time == 500.0
    assert ref_level == (level - amount) + min(
        per_quantum, 65536 - (level - amount))
    assert lazy_level == min(level + per_quantum, 65536) - amount
    assert lazy_level != ref_level


# --------------------------------------------------------------------------
# the movement service: throttled transfers, retuning, a drained queue
# --------------------------------------------------------------------------

class DaemonOrchestrator(MovementOrchestrator):
    """The movement service over reference-model buckets."""

    def attach_host(self, host, chunk_bytes=4096):
        engine = super().attach_host(host, chunk_bytes)
        if host.name in self._buckets:
            self._buckets[host.name] = DaemonBucket(
                self.env, self.burst_bytes, self.remote_bw_bytes_per_us)
        return engine


def throttled_transfer(orchestrator_cls, retune_at=None, retune_to=None):
    """Grant (time, level) per chunk of one 256 KiB throttled transfer."""
    env = Environment()
    cluster = build_cluster(env, ClusterSpec(hosts=1))
    orch = orchestrator_cls(env, remote_bw_bytes_per_us=1000.0)
    host = cluster.host(0)
    engine = orch.attach_host(host)
    bucket = orch._buckets[host.name]
    grants = []
    admit = orch.admit

    def recorded_admit(host, nbytes):
        yield from admit(host, nbytes)
        grants.append((env.now, bucket.level))

    orch.admit = recorded_admit
    if retune_at is not None:
        actuator = MovementActuator(orch)

        def retune():
            yield env.timeout(retune_at)
            actuator.apply({"remote_bw_bytes_per_us": retune_to},
                           time=env.now)

        env.process(retune())
    trans = ETrans(src_list=[(0, 256 * 1024)],
                   dst_list=[(0x100000, 256 * 1024)], immediate=True)

    def go():
        yield engine.submit(trans).wait()
        return env.now

    end = run_proc(env, go())
    return env, end, grants


def test_throttled_transfer_matches_refill_process():
    _, ref_end, ref_grants = throttled_transfer(DaemonOrchestrator)
    _, end, grants = throttled_transfer(MovementOrchestrator)
    assert grants == ref_grants
    assert end == ref_end
    assert len(grants) == 64


def test_live_retune_follows_the_new_rate_from_the_next_boundary():
    retune_at, retune_to = 120_050.5, 4000.0
    _, ref_end, ref_grants = throttled_transfer(
        DaemonOrchestrator, retune_at, retune_to)
    _, end, grants = throttled_transfer(
        MovementOrchestrator, retune_at, retune_to)
    assert grants == ref_grants
    assert end == ref_end
    # Between any two grants the bucket gained exactly what the rate
    # schedule adds: 100 B per boundary up to the retune, 400 B per
    # boundary from the first one after it.
    def scheduled(ta, tb):
        k, total = int(ta // QUANTUM_NS) + 1, 0.0
        while k * QUANTUM_NS <= tb:
            total += 100.0 if k * QUANTUM_NS < retune_at else 400.0
            k += 1
        return total

    for (ta, la), (tb, lb) in zip(grants, grants[1:]):
        assert lb - la + 4096 == pytest.approx(scheduled(ta, tb))
    _, untuned_end, _ = throttled_transfer(MovementOrchestrator)
    assert end < untuned_end


def test_queue_drains_after_throttled_work():
    env, end, grants = throttled_transfer(MovementOrchestrator)
    assert len(grants) == 64
    horizon = end + 10 * QUANTUM_NS
    env.run(until=horizon)
    # No refill event is left: the kernel queue is empty, so an
    # unbounded run returns at once.
    assert env.peek() == float("inf")
    events = env.stats["events_processed"]
    env.run()
    assert env.now == horizon
    assert env.stats["events_processed"] == events
