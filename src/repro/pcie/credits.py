"""Per-flow credit budgeting at a contended switch egress port.

Models the CFC issues the paper calls out in section 3 (difference #3).
A :class:`CreditDomain` owns the finite credit budget of one hot egress
port (e.g. the downstream port toward a FAM chassis) and divides it
among the *flows* (source ports) crossing it.  How it divides is the
pluggable :class:`CreditPolicy`:

* :class:`RampUpPolicy` — the de facto scheme: exponential ramp-up by
  observed utilization.  A consistently busy flow grabs most of the
  budget; a quiet flow decays to the floor and stalls when it bursts.
* :class:`StaticEqualPolicy` — fixed equal shares (no adaptation).
* :class:`ReservationPolicy` — the DP#4 arbiter's scheme: flows hold
  explicit reservations (guaranteed minimum), and the slack is divided
  equally; rebalance is immediate on reserve/reclaim, not periodic.
* :class:`WeightedSharePolicy` — fixed proportional shares by per-flow
  weight; the shape the closed-loop control plane installs when a
  health window shows a flow starving (see :mod:`repro.control`).

The domain is also a *runtime-reconfigurable* surface:
:meth:`CreditDomain.set_policy` swaps the policy mid-run and applies
its targets immediately (without resetting the demand counters the
periodic rebalancer reads), and :meth:`CreditDomain.set_rebalance_ns`
retunes the rebalance cadence — both are what
:class:`repro.control.CreditActuator` drives.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from .. import params
from ..sim import Container, Environment, Event
from ..telemetry.causal import CREDIT_STALL

__all__ = ["CreditDomain", "CreditPolicy", "RampUpPolicy",
           "StaticEqualPolicy", "ReservationPolicy",
           "WeightedSharePolicy"]


class CreditPolicy:
    """Decides each flow's credit target given observed demand."""

    #: smallest share any registered flow may hold
    floor = 1

    def targets(self, domain: "CreditDomain") -> Dict[str, int]:
        raise NotImplementedError


class StaticEqualPolicy(CreditPolicy):
    """Equal fixed shares, remainder to the earliest-registered flows."""

    def targets(self, domain: "CreditDomain") -> Dict[str, int]:
        flows = domain.flow_names()
        if not flows:
            return {}
        share, remainder = divmod(domain.budget, len(flows))
        return {name: max(self.floor, share + (1 if i < remainder else 0))
                for i, name in enumerate(flows)}


class RampUpPolicy(CreditPolicy):
    """Exponential ramp-up by utilization (the vanilla CFC scheme).

    A flow that used more than ``hot_threshold`` of its current grant
    since the last rebalance doubles its target; one below
    ``cold_threshold`` halves.  Targets are then scaled into the budget.
    The pathology (claim C5): a steadily hot flow compounds its share,
    and a quiet flow is left at the floor — when it finally bursts it
    stalls for whole rebalance periods.
    """

    def __init__(self, ramp: float = params.CREDIT_RAMP_FACTOR,
                 hot_threshold: float = 0.75,
                 cold_threshold: float = 0.25) -> None:
        self.ramp = ramp
        self.hot_threshold = hot_threshold
        self.cold_threshold = cold_threshold

    def targets(self, domain: "CreditDomain") -> Dict[str, int]:
        desired: Dict[str, float] = {}
        for name in domain.flow_names():
            grant = domain.granted(name)
            used = domain.consumed_since_rebalance(name)
            utilization = used / grant if grant else 1.0
            if utilization >= self.hot_threshold:
                desired[name] = max(self.floor, grant * self.ramp)
            elif utilization <= self.cold_threshold:
                desired[name] = max(self.floor, grant / self.ramp)
            else:
                desired[name] = max(self.floor, grant)
        total = sum(desired.values())
        if total <= 0:
            return StaticEqualPolicy().targets(domain)
        scale = domain.budget / total
        targets = {name: max(self.floor, int(value * scale))
                   for name, value in desired.items()}
        return targets


class ReservationPolicy(CreditPolicy):
    """Explicit reservations with equal division of the slack (DP#4)."""

    def __init__(self) -> None:
        self.reservations: Dict[str, int] = {}

    def reserve(self, flow: str, credits: int) -> None:
        if credits < 0:
            raise ValueError(f"negative reservation {credits}")
        self.reservations[flow] = credits

    def reclaim(self, flow: str) -> None:
        self.reservations.pop(flow, None)

    def targets(self, domain: "CreditDomain") -> Dict[str, int]:
        flows = domain.flow_names()
        if not flows:
            return {}
        reserved = {name: self.reservations.get(name, 0) for name in flows}
        committed = sum(reserved.values())
        slack = max(0, domain.budget - committed
                    - self.floor * sum(1 for n in flows if not reserved[n]))
        unreserved = [n for n in flows if not reserved[n]]
        extra, remainder = (divmod(slack, len(unreserved))
                            if unreserved else (0, 0))
        targets = {}
        for i, name in enumerate(flows):
            if reserved[name]:
                targets[name] = reserved[name]
            else:
                bump = extra + (1 if unreserved.index(name) < remainder else 0)
                targets[name] = self.floor + bump
        return targets


class WeightedSharePolicy(CreditPolicy):
    """Fixed proportional shares by explicit per-flow weight.

    The budget is apportioned by largest remainder, so integer grants
    sum to the budget exactly regardless of float weights; flows the
    weight map does not name get weight zero (they keep only the
    floor).  This is the target shape a feedback rule installs: equal
    weights for hot and quiet undo RampUpPolicy's compounding without
    hand-picking credit counts.
    """

    def __init__(self, weights: Dict[str, float]) -> None:
        if not weights:
            raise ValueError("weights must name at least one flow")
        for flow, weight in weights.items():
            if not isinstance(weight, (int, float)) \
                    or isinstance(weight, bool) or weight <= 0:
                raise ValueError(
                    f"weight for flow {flow!r} must be a number > 0, "
                    f"got {weight!r}")
        self.weights = {flow: float(weight)
                        for flow, weight in weights.items()}

    def targets(self, domain: "CreditDomain") -> Dict[str, int]:
        flows = domain.flow_names()
        if not flows:
            return {}
        weights = {name: self.weights.get(name, 0.0) for name in flows}
        total = sum(weights.values())
        if total <= 0:
            return StaticEqualPolicy().targets(domain)
        exact = {name: domain.budget * weights[name] / total
                 for name in flows}
        targets = {name: int(exact[name]) for name in flows}
        leftover = domain.budget - sum(targets.values())
        order = sorted(range(len(flows)),
                       key=lambda i: (-(exact[flows[i]]
                                        - targets[flows[i]]), i))
        for i in order[:leftover]:
            targets[flows[i]] += 1
        return {name: max(self.floor, targets[name]) for name in flows}


class CreditDomain:
    """The credit budget of one contended egress port, divided by flows.

    A flow acquires one credit per flit before the flit may enter the
    egress stage and releases it once the flit has been serialized
    downstream.  A periodic rebalancer moves grants between flows
    according to the policy.
    """

    def __init__(self, env: Environment, budget: int,
                 policy: Optional[CreditPolicy] = None,
                 rebalance_ns: float = params.CREDIT_RAMP_INTERVAL_NS,
                 name: str = "creditdom") -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.env = env
        self.budget = budget
        self.policy = policy or StaticEqualPolicy()
        self.set_rebalance_ns(rebalance_ns)
        self.name = name
        self._pools: Dict[str, Container] = {}
        self._granted: Dict[str, int] = {}
        self._order: List[str] = []
        self._consumed: Dict[str, int] = {}
        self._running = False
        # Conservation accounting, live only under Environment(
        # sanitize=True): per flow, credits held by flits in flight,
        # credits owed to lazy retirement after a shrink, and acquire
        # events not yet granted (reconciled at audit time, since a
        # blocked get leaves the pool the instant a put serves it).
        self._san = env.sanitizer
        self._in_flight: Dict[str, int] = {}
        self._retire_debt: Dict[str, int] = {}
        self._pending_gets: Dict[str, List[Event]] = {}
        if self._san is not None:
            self._san.register_credit_domain(self)
        # Telemetry: credit occupancy per flow is probed by the
        # TimelineSampler; stalls (an acquire that blocks) and
        # rebalances are recorded as they happen.
        self._tel = tel = env.telemetry
        if tel is not None:
            self._track = f"credits.{name}"
            self._m_stalls = tel.registry.counter(f"credits.{name}.stalls")
        # Causal tracing: a blocked acquire is the credit_stall the
        # starvation scenario attributes victim latency to.  Per-flow
        # site strings are built once, at register time.
        self._causal = tel.causal if tel is not None else None
        self._causal_sites: Dict[str, str] = {}

    # -- flow registry -----------------------------------------------------

    def register(self, flow: str) -> None:
        if flow in self._pools:
            raise ValueError(f"flow {flow!r} already registered")
        self._pools[flow] = Container(self.env, capacity=self.budget * 4,
                                      init=0)
        self._granted[flow] = 0
        self._consumed[flow] = 0
        self._in_flight[flow] = 0
        self._retire_debt[flow] = 0
        self._pending_gets[flow] = []
        self._order.append(flow)
        if self._causal is not None:
            self._causal_sites[flow] = f"credits.{self.name}.{flow}"
        if self._tel is not None:
            pool = self._pools[flow]
            self._tel.add_probe(f"credits.{self.name}.{flow}.available",
                                lambda p=pool: p.level, track=self._track)
            self._tel.add_probe(f"credits.{self.name}.{flow}.granted",
                                lambda f=flow: self._granted[f],
                                track=self._track)
        self._apply_targets(self.policy.targets(self))

    def flow_names(self) -> List[str]:
        return list(self._order)

    def granted(self, flow: str) -> int:
        return self._granted[flow]

    def available(self, flow: str) -> float:
        return self._pools[flow].level

    def consumed_since_rebalance(self, flow: str) -> int:
        return self._consumed[flow]

    # -- data path ----------------------------------------------------------

    def acquire(self, flow: str, trace=None) -> Event:
        """Take one credit for ``flow`` (blocks while its pool is dry).

        ``trace`` is an optional causal
        :class:`~repro.telemetry.causal.TraceContext`; a blocked
        acquire then records a ``credit_stall`` interval closing the
        instant the credit is granted.
        """
        self._consumed[flow] += 1
        event = self._pools[flow].get(1)
        if self._tel is not None and not event.triggered:
            # The flow stalled dry — the starvation signature the §3
            # timeline scenarios visualize.
            self._m_stalls.inc(time=self.env.now)
            self._tel.instant("credits.stall", track=self._track, flow=flow)
        if self._causal is not None and trace is not None:
            self._causal.wait(trace, event, CREDIT_STALL,
                              self._causal_sites[flow])
        if self._san is not None:
            if event.triggered:
                self._in_flight[flow] += 1
            else:
                self._pending_gets[flow].append(event)
        return event

    def release(self, flow: str) -> None:
        """Return one credit (flit left the egress stage)."""
        target = self._granted[flow]
        pool = self._pools[flow]
        if self._san is not None:
            self._reconcile(flow)
            self._in_flight[flow] -= 1
            if self._in_flight[flow] < 0:
                self._san.note(
                    "credit-negative",
                    f"credit domain {self.name!r}: flow {flow!r} "
                    "released a credit it never acquired (double "
                    "release or conjured credit)")
            elif pool.level >= target:
                # A retiring release (grant shrank while this credit
                # was out): settle one unit of the lazy-shrink debt.
                if self._retire_debt[flow] > 0:
                    self._retire_debt[flow] -= 1
        # If the flow's grant shrank since this credit was taken, the
        # returned credit is retired instead of refilled.
        if pool.level < target:
            pool.put(1)

    def release_at(self, flow: str, time: float) -> None:
        """Schedule :meth:`release` of one credit at absolute ``time``.

        The switch's batched egress sweep retires a whole flit run on a
        closed-form schedule, but each flit's credit must still return
        at the instant the scalar path would have released it (the end
        of its serialization) — later acquires may be blocked on it.
        Costs one pooled hook per flit; the acquire path, where the
        credit constraint actually bites, is untouched.
        """
        self.env._schedule_hook_at(
            time, lambda event: self.release(flow), True, None)

    # -- control plane --------------------------------------------------------

    def start(self) -> None:
        """Begin periodic rebalancing (idempotent)."""
        if not self._running:
            self._running = True
            self.env.process(self._rebalancer(), name=f"{self.name}.rebal",
                             daemon=True)

    def set_policy(self, policy: CreditPolicy) -> None:
        """Swap the allocation policy mid-run and apply it immediately.

        Unlike :meth:`rebalance_now` the per-flow consumed counters
        survive: the in-progress rebalance period's demand
        observations still reach the next periodic pass, so a runtime
        policy swap never erases evidence the old policy gathered.
        Blocked acquires are served the instant a grown pool is
        refilled (same sim time, deterministic order).
        """
        self.policy = policy
        self._apply_targets(policy.targets(self))
        if self._tel is not None:
            self._tel.instant("cfc.set_policy", track=self._track,
                              policy=type(policy).__name__,
                              grants=dict(self._granted))
        if self._san is not None:
            self._san.check_credit_domain(self)

    def set_rebalance_ns(self, rebalance_ns: float) -> None:
        """Retune the rebalance cadence; the running loop picks the
        new period up at its next wakeup (it re-reads the attribute).
        """
        if not rebalance_ns > 0:     # NaN fails this too
            raise ValueError(
                f"rebalance_ns must be > 0, got {rebalance_ns}")
        self.rebalance_ns = rebalance_ns

    def rebalance_now(self) -> None:
        """Apply policy targets immediately (the arbiter path)."""
        self._apply_targets(self.policy.targets(self))
        for flow in self._consumed:
            self._consumed[flow] = 0
        if self._tel is not None:
            self._tel.instant("cfc.rebalance", track=self._track,
                              grants=dict(self._granted))
        if self._san is not None:
            self._san.check_credit_domain(self)

    def _rebalancer(self) -> Generator[Event, None, None]:
        while True:
            yield self.env.timeout(self.rebalance_ns)
            self.rebalance_now()

    def _apply_targets(self, targets: Dict[str, int]) -> None:
        for flow, target in targets.items():
            current = self._granted[flow]
            if target > current:
                self._pools[flow].put(target - current)
            elif target < current:
                # Shrinking is lazy: outstanding credits retire on
                # release (see `release`), idle ones are drained now.
                drain = min(self._pools[flow].level, current - target)
                if drain > 0:
                    self._pools[flow].get(drain)
                if self._san is not None:
                    # Whatever could not be drained is owed by credits
                    # currently in flight; they retire on release.
                    self._retire_debt[flow] += \
                        int(current - target - drain)
            self._granted[flow] = target

    # -- conservation audit (sanitize=True) ---------------------------------

    def _reconcile(self, flow: str) -> None:
        """Move granted-while-blocked acquires into the in-flight count.

        A blocked ``get`` leaves the pool inside whatever put served
        it, so its credit is counted the moment the event shows
        triggered — exactly when the pool level dropped.
        """
        pending = self._pending_gets[flow]
        if pending:
            still_blocked = [e for e in pending if not e.triggered]
            self._in_flight[flow] += len(pending) - len(still_blocked)
            pending[:] = still_blocked

    def conservation_problems(self) -> List[str]:
        """Audit ``available + in_flight == granted + retire_debt``.

        Returns one human-readable problem per violating flow; empty
        when the domain conserves credits.  Only meaningful under
        ``Environment(sanitize=True)`` (the accounting is idle
        otherwise).
        """
        problems: List[str] = []
        if self._san is None:
            return problems
        for flow in self._order:
            self._reconcile(flow)
            available = int(self._pools[flow].level)
            in_flight = self._in_flight[flow]
            granted = self._granted[flow]
            debt = self._retire_debt[flow]
            if in_flight < 0:
                problems.append(
                    f"flow {flow!r} has negative in-flight credits "
                    f"({in_flight}): more releases than acquires")
                continue
            if available + in_flight != granted + debt:
                direction = ("leaked" if available + in_flight
                             < granted + debt else "conjured")
                problems.append(
                    f"flow {flow!r} {direction} "
                    f"{abs(granted + debt - available - in_flight)} "
                    f"credit(s): available={available} + "
                    f"in_flight={in_flight} != granted={granted} + "
                    f"retire_debt={debt}")
        return problems
