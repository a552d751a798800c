"""Tests for the runtime sanitizers (``Environment(sanitize=True)``)."""

import pytest

from repro.analysis.sanitizers import RuntimeSanitizer, SanitizerError
from repro.experiments import ExperimentSpec, run_experiment, run_summary
from repro.experiments.runner import Profile, observe
from repro.pcie.credits import CreditDomain
from repro.sim import Environment, Event, Store


def drain(env):
    env.run()
    env.sanitizer.on_drain()
    return env.sanitizer


class TestWiring:
    def test_off_by_default(self):
        env = Environment()
        assert env.sanitize is False
        assert env.sanitizer is None

    def test_opt_in_attaches_a_sanitizer(self):
        env = Environment(sanitize=True)
        assert env.sanitize is True
        assert isinstance(env.sanitizer, RuntimeSanitizer)
        assert env.sanitizer.clean

    def test_assert_clean_raises_on_findings(self):
        env = Environment(sanitize=True)
        env.sanitizer.note("credit-leak", "synthetic")
        with pytest.raises(SanitizerError):
            env.sanitizer.assert_clean()

    def test_findings_dedupe_on_kind_and_message(self):
        env = Environment(sanitize=True)
        env.sanitizer.note("credit-leak", "same")
        env.sanitizer.note("credit-leak", "same")
        assert len(env.sanitizer.findings) == 1

    def test_json_shape(self):
        env = Environment(sanitize=True)
        env.sanitizer.note("write-race", "synthetic")
        payload = env.sanitizer.to_json()
        assert payload["schema"] == 1
        assert payload["tool"] == "fcc-sanitize"
        assert payload["count"] == 1
        assert set(payload["findings"][0]) == {"kind", "time", "message"}


class TestCreditConservation:
    def make_domain(self, env, budget=8):
        domain = CreditDomain(env, budget=budget, name="dom")
        domain.register("a")
        domain.register("b")
        return domain

    def run_traffic(self, env, domain, flow, n=5):
        def gen():
            for _ in range(n):
                yield domain.acquire(flow)
                yield env.timeout(10.0)
                domain.release(flow)
        env.process(gen(), name=f"traffic-{flow}")
        env.run()

    def test_clean_traffic_conserves(self):
        env = Environment(sanitize=True)
        domain = self.make_domain(env)
        self.run_traffic(env, domain, "a")
        domain.rebalance_now()
        assert domain.conservation_problems() == []
        assert env.sanitizer.clean

    def test_injected_leak_is_caught_at_rebalance(self):
        env = Environment(sanitize=True)
        domain = self.make_domain(env)
        self.run_traffic(env, domain, "a")
        domain._pools["a"].get(1)          # steal a credit behind its back
        domain.rebalance_now()
        kinds = {f.kind for f in env.sanitizer.findings}
        assert kinds == {"credit-leak"}
        assert any("leaked" in f.message
                   for f in env.sanitizer.findings)

    def test_injected_leak_is_caught_at_drain(self):
        env = Environment(sanitize=True)
        domain = self.make_domain(env)
        self.run_traffic(env, domain, "b")
        domain._pools["b"].get(2)
        env.sanitizer.on_drain()
        assert any(f.kind == "credit-leak" and "'b'" in f.message
                   for f in env.sanitizer.findings)

    def test_double_release_is_negative(self):
        env = Environment(sanitize=True)
        domain = self.make_domain(env)

        def gen():
            yield domain.acquire("a")
            yield env.timeout(5.0)
            domain.release("a")
            domain.release("a")            # released but never acquired
        env.process(gen(), name="doubler")
        env.run()
        assert any(f.kind == "credit-negative"
                   for f in env.sanitizer.findings)

    def test_sanitize_off_does_no_accounting(self):
        env = Environment()
        domain = self.make_domain(env)
        self.run_traffic(env, domain, "a")
        domain._pools["a"].get(1)
        domain.rebalance_now()
        assert domain.conservation_problems() == []


class TestEventLifecycle:
    def test_stale_event_reported_at_drain(self):
        env = Environment(sanitize=True)
        orphan = Event(env)
        orphan.callbacks.append(lambda e: None)   # waited on, never fired
        san = drain(env)
        assert any(f.kind == "stale-event" for f in san.findings)

    def test_triggered_events_are_not_stale(self):
        env = Environment(sanitize=True)
        done = Event(env)

        def gen():
            yield env.timeout(1.0)
            done.succeed()
        env.process(gen(), name="ok")

        def waiter():
            yield done
        env.process(waiter(), name="waiter")
        assert drain(env).clean

    def test_dead_event_callback_reported(self):
        env = Environment(sanitize=True)
        store = Store(env)
        put = store.put("x")
        env.run()
        assert put.processed
        put.callbacks.append(lambda e: None)      # can never fire
        assert any(f.kind == "dead-event-callback"
                   for f in env.sanitizer.findings)


class TestDeadlockReport:
    def test_blocked_process_named_with_its_resource(self):
        env = Environment(sanitize=True)
        store = Store(env)

        def stuck():
            yield store.get()
        env.process(stuck(), name="stuck")
        san = drain(env)
        deadlocks = [f for f in san.findings if f.kind == "deadlock"]
        assert len(deadlocks) == 1
        assert "'stuck'" in deadlocks[0].message
        assert "StoreGet" in deadlocks[0].message

    def test_daemons_are_exempt(self):
        env = Environment(sanitize=True)
        store = Store(env)

        def service():
            while True:
                yield store.get()
        env.process(service(), name="svc", daemon=True)

        def client():
            yield env.timeout(5.0)
            yield store.put("x")
        env.process(client(), name="client")
        assert drain(env).clean

    def test_on_drain_is_idempotent(self):
        env = Environment(sanitize=True)
        store = Store(env)

        def stuck():
            yield store.get()
        env.process(stuck(), name="stuck")
        san = drain(env)
        san.on_drain()
        assert len([f for f in san.findings
                    if f.kind == "deadlock"]) == 1


class TestWriteRace:
    def test_same_time_writers_flagged(self):
        env = Environment(sanitize=True)
        store = Store(env)

        def writer(tag):
            yield env.timeout(1.0)
            yield store.put(tag)
        env.process(writer("a"), name="w-a")
        env.process(writer("b"), name="w-b")
        env.run()
        races = [f for f in env.sanitizer.findings
                 if f.kind == "write-race"]
        assert races and "w-a" in races[0].message \
            and "w-b" in races[0].message

    def test_different_times_are_fine(self):
        env = Environment(sanitize=True)
        store = Store(env)

        def writer(tag, when):
            yield env.timeout(when)
            yield store.put(tag)
        env.process(writer("a", 1.0), name="w-a")
        env.process(writer("b", 2.0), name="w-b")
        env.run()
        assert env.sanitizer.clean


# -- canonical sanitized workloads -----------------------------------------
#
# Representative slices of three experiments, each on its own
# ``Environment(sanitize=True)`` and closed with an explicit drain
# audit: the Table 2 walk through the full cache/fabric stack, a
# contended CreditDomain audited at every rebalance, and reservation
# traffic through the DP#4 FabricArbiter.


def _run_t2():
    from repro.infra import ClusterSpec, build_cluster

    env = Environment(sanitize=True)
    cluster = build_cluster(env, ClusterSpec(hosts=1))
    host = cluster.host(0)
    base = host.remote_base("fam0")
    latencies = {}

    def measure():
        cases = [("local_read", 0x40000, False),
                 ("local_write", 0x80000, True),
                 ("remote_read", base + 0x40000, False),
                 ("remote_write", base + 0x80000, True)]
        for label, addr, is_write in cases:
            start = env.now
            yield from host.mem.access(addr, is_write)
            latencies[label] = env.now - start

    proc = env.process(measure(), name="t2-measure")
    env.run(until=10_000_000, until_event=proc)
    sanitizer = env.sanitizer
    sanitizer.on_drain()
    return sanitizer, {"experiment": "t2", "latencies_ns": latencies,
                       "events": env.stats["events_processed"]}


def _run_credits():
    from repro.pcie.credits import RampUpPolicy

    env = Environment(sanitize=True)
    domain = CreditDomain(env, budget=32, policy=RampUpPolicy(),
                          rebalance_ns=1_000.0, name="sanity-egress")
    for flow in ("hot", "bursty", "quiet"):
        domain.register(flow)
    domain.start()
    done = {"hot": 0, "bursty": 0, "quiet": 0}

    def traffic(flow, hold_ns, gap_ns, count):
        for _ in range(count):
            yield domain.acquire(flow)
            yield env.timeout(hold_ns)
            domain.release(flow)
            done[flow] += 1
            if gap_ns:
                yield env.timeout(gap_ns)

    env.process(traffic("hot", 40.0, 0.0, 400), name="hot")
    env.process(traffic("bursty", 60.0, 900.0, 40), name="bursty")
    env.process(traffic("quiet", 50.0, 4_000.0, 10), name="quiet")
    env.run(until=60_000.0)
    domain.rebalance_now()
    sanitizer = env.sanitizer
    sanitizer.on_drain()
    return sanitizer, {"experiment": "credits", "completed": dict(done),
                       "grants": {f: domain.granted(f)
                                  for f in domain.flow_names()},
                       "events": env.stats["events_processed"]}


def _run_arbiter():
    from repro.core import UniFabric
    from repro.infra import ClusterSpec, build_cluster
    from repro.sim import run_proc

    env = Environment(sanitize=True)
    cluster = build_cluster(env, ClusterSpec(hosts=1, control_lane=True))
    uni = UniFabric(env, cluster, with_arbiter=True)
    domain = CreditDomain(env, budget=24, name="egress0")
    for flow in ("a", "b"):
        domain.register(flow)
    uni.arbiter.manage("egress0", domain)
    client = uni.arbiter_client("host0")
    replies = []

    def control():
        replies.append((yield from client.reserve("egress0", "a", 8)))
        replies.append((yield from client.reserve("egress0", "b", 4)))
        replies.append((yield from client.query("egress0")))
        replies.append((yield from client.reclaim("egress0", "a")))

    run_proc(env, control())
    sanitizer = env.sanitizer
    sanitizer.on_drain()
    return sanitizer, {"experiment": "arbiter",
                       "control_messages": uni.arbiter.control_messages,
                       "grants": replies[2].get("grants", {}),
                       "events": env.stats["events_processed"]}


CANONICAL_RUNNERS = {"t2": _run_t2, "credits": _run_credits,
                     "arbiter": _run_arbiter}


class TestDeterminismAndRunners:
    def _trace(self, sanitize):
        env = Environment(sanitize=sanitize)
        store = Store(env)
        log = []

        def producer():
            for i in range(50):
                yield env.timeout(3.0)
                yield store.put(i)

        def consumer():
            while True:
                item = yield store.get()
                log.append((env.now, item))
                yield env.timeout(1.0)
        env.process(producer(), name="prod")
        env.process(consumer(), name="cons", daemon=True)
        env.run(until=500.0)
        return log, env.stats["events_processed"]

    def test_sanitize_does_not_change_scheduling(self):
        plain, plain_events = self._trace(False)
        checked, checked_events = self._trace(True)
        assert plain == checked
        assert plain_events == checked_events

    @pytest.mark.parametrize("name", sorted(CANONICAL_RUNNERS))
    def test_canonical_runners_are_clean(self, name):
        sanitizer, summary = CANONICAL_RUNNERS[name]()
        assert sanitizer.clean, sanitizer.report()
        assert summary["experiment"] == name
        assert summary["events"] > 0

    def test_unknown_runner_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            with observe(Profile(sanitize=True)):
                run_experiment(ExperimentSpec(experiment="nope"))

    @pytest.mark.parametrize("name", ["control_loop", "interleave",
                                      "starvation", "t2"])
    def test_sanitize_profile_changes_nothing(self, name):
        # Every environment the experiment builds, nested run_health
        # scopes included, is sanitized, and none computes differently.
        runs = {}
        for sanitize in (False, True):
            with observe(Profile(sanitize=sanitize)) as run:
                summary = run_summary(name)
            runs[sanitize] = (summary,
                              [env.stats["events_processed"]
                               for env in run.envs],
                              [env.sanitize for env in run.envs])
        assert runs[True][:2] == runs[False][:2]
        assert all(runs[True][2]) and not any(runs[False][2])
