"""Run one :class:`ExperimentSpec` and produce its result document.

The result is schema-stable JSON: the resolved parameters (defaults
filled in), the seed, and one entry per requested output.

Every observed run is a run scope, :func:`observe`: while it is open,
each ``Environment()`` built, at any depth, gets the scope's
:class:`Profile` attached and is recorded.  Experiments build plain
environments; whoever opens the scope chooses what is observed.
Without feedback, observation changes no summary and no
``events_processed`` (pinned by tests).
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Dict, Iterator, List, Optional

from ..sim.engine import set_observer
from ..telemetry.causal import CausalRecorder
from ..telemetry.core import Telemetry
from ..telemetry.health import HealthMonitor
from ..telemetry.sampler import DEFAULT_INTERVAL_NS, TimelineSampler
from ..telemetry.scenarios import ScenarioResult
from .registry import (
    OUTPUT_ATTRIBUTION,
    OUTPUT_METRICS,
    ExperimentError,
    get,
)
from .spec import ExperimentSpec

__all__ = ["Profile", "Run", "RunContext", "control_plane", "observe",
           "run_experiment", "run_summary", "render"]

RESULT_SCHEMA = 1
RESULT_TOOL = "repro-experiments"


class RunContext:
    """What a run function sees: params + seed.

    Parameters are exposed both as attributes (``ctx.hosts``) and via
    ``ctx["hosts"]``; the seed rides along for experiments that drive
    a :class:`~repro.sim.rng.SimRng`.
    """

    __slots__ = ("params", "seed")

    def __init__(self, params: Dict[str, Any], seed: int) -> None:
        self.params = params
        self.seed = seed

    def __getitem__(self, name: str) -> Any:
        return self.params[name]

    def __getattr__(self, name: str) -> Any:
        try:
            return self.params[name]
        except KeyError:
            raise AttributeError(name) from None


@dataclasses.dataclass(frozen=True)
class Profile:
    """What a run scope attaches to every environment built inside it.

    ``telemetry``: a Telemetry hub and a TimelineSampler ticking every
    ``interval_ns``; ``causal``: a causal recorder keeping one root in
    ``causal_sample``; ``window_ns``: a HealthMonitor judging windows
    that wide against ``slo`` (None: the built-in spec); ``feedback``:
    a ControlPlane running that policy; ``sanitize``: the runtime
    sanitizers.  Values are checked here, before anything runs.
    """

    telemetry: bool = False
    causal: bool = False
    causal_sample: int = 1
    interval_ns: float = DEFAULT_INTERVAL_NS
    window_ns: Optional[float] = None
    slo: Any = None
    feedback: Any = None
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.causal and not self.telemetry:
            raise ValueError("causal tracing needs telemetry=True")
        if self.window_ns is not None and not self.causal:
            raise ValueError("a health window needs causal tracing")
        if self.feedback is not None and self.window_ns is None:
            raise ValueError("a feedback policy needs a health window")
        sample = self.causal_sample
        if not (isinstance(sample, int) and sample >= 1):
            raise ValueError(
                f"causal_sample must be an integer >= 1, got {sample!r}")
        window, interval = self.window_ns, self.interval_ns
        for label, value in (("window_ns", window),
                             ("interval_ns", interval)):
            # NaN fails this too.
            if value is not None and not 0.0 < value < float("inf"):
                raise ValueError(
                    f"{label} must be finite and > 0, got {value}")
        if window is not None:
            remainder = window % interval
            if min(remainder, abs(interval - remainder)) > 1e-9 \
                    or window < interval:
                raise ValueError(
                    f"window_ns ({window}) must be a positive multiple "
                    f"of interval_ns ({interval}) so window edges land "
                    "on sampler ticks")


class Run:
    """An open run scope: its profile and the environments built in it.

    The innermost scope is the kernel's construction hook (see
    :func:`repro.sim.engine.set_observer`); it records each environment
    in itself and in every scope around it.
    """

    def __init__(self, profile: Profile, name: str,
                 outer: Optional["Run"]) -> None:
        self.profile = profile
        self.name = name
        self.outer = outer
        self.observed: List[ScenarioResult] = []

    def settings(self, sanitize: bool, telemetry: Any):
        profile = self.profile
        if profile.telemetry and not telemetry:
            causal = CausalRecorder(sample=profile.causal_sample) \
                if profile.causal else None
            telemetry = Telemetry(causal=causal)
        return sanitize or profile.sanitize, telemetry

    def attach(self, env: Any) -> None:
        profile = self.profile
        observed = ScenarioResult(self.name, env, env.telemetry)
        if profile.telemetry:
            if profile.window_ns is not None:
                observed.monitor = HealthMonitor(
                    env.telemetry, self.name, window_ns=profile.window_ns,
                    spec=profile.slo)
                if profile.feedback is not None:
                    from ..control import ControlPlane
                    observed.plane = ControlPlane(profile.feedback) \
                        .attach(observed.monitor)
            TimelineSampler(env, interval_ns=profile.interval_ns).start()
        run: Optional[Run] = self
        while run is not None:
            run.observed.append(observed)
            run = run.outer

    @property
    def envs(self) -> List[Any]:
        return [observed.env for observed in self.observed]

    def only(self) -> ScenarioResult:
        """The run's one environment; trace/metrics/why/health need one."""
        if len(self.observed) != 1:
            raise ExperimentError(
                f"{self.name!r} built {len(self.observed)} environments; "
                "its telemetry documents describe exactly one")
        return self.observed[0]

    def result(self, summary: Dict[str, Any]) -> ScenarioResult:
        """The run's one environment, with ``summary`` filled in."""
        result = self.only()
        result.summary = summary
        return result

    def audit(self) -> List[Any]:
        """Drain-audit every sanitized environment; their sanitizers."""
        sanitizers = [env.sanitizer for env in self.envs
                      if env.sanitizer is not None]
        for sanitizer in sanitizers:
            sanitizer.on_drain()
        return sanitizers


#: The innermost open run scope.
_ACTIVE: Optional[Run] = None


@contextlib.contextmanager
def observe(profile: Profile = Profile(), name: str = "run") \
        -> Iterator[Run]:
    """Attach ``profile`` to every environment built inside the block.

    ``name`` labels the health monitor (and picks its built-in SLO
    spec) and the ScenarioResult.  A nested scope keeps the outer
    ``sanitize``, so a sanitized run audits the runs inside it too.
    """
    global _ACTIVE
    outer = _ACTIVE
    if outer is not None and outer.profile.sanitize:
        profile = dataclasses.replace(profile, sanitize=True)
    run = Run(profile, name, outer)
    previous = set_observer(run)
    _ACTIVE = run
    try:
        yield run
        for observed in run.observed:
            if observed.monitor is not None:
                observed.monitor.finalize(observed.env.now)
    finally:
        _ACTIVE = outer
        set_observer(previous)


def control_plane(env: Any):
    """The feedback plane the open run scope attached to ``env``, or None.

    A model registers its actuators there for the profile's rules.
    """
    if _ACTIVE is not None:
        for observed in _ACTIVE.observed:
            if observed.env is env:
                return observed.plane
    return None


def run_experiment(spec: ExperimentSpec) -> Dict[str, Any]:
    """Run a validated spec; returns the schema-stable result dict.

    Parameters named ``interval_ns``/``causal_sample`` set the run's
    profile; telemetry is attached for ``metrics``/``attribution``.
    """
    defn = spec.resolve()
    params = defn.resolve_params(spec.params)
    want_metrics = OUTPUT_METRICS in spec.outputs
    want_attribution = OUTPUT_ATTRIBUTION in spec.outputs
    try:
        profile = Profile(
            telemetry=want_metrics or want_attribution,
            causal=want_attribution,
            causal_sample=params.get("causal_sample", 1),
            interval_ns=params.get("interval_ns", DEFAULT_INTERVAL_NS))
    except ValueError as exc:
        raise ExperimentError(str(exc)) from None
    with observe(profile, name=defn.name) as run:
        summary = defn.run(RunContext(params, spec.seed))
    outputs: Dict[str, Any] = {"summary": summary}
    if profile.telemetry:
        result = run.result(summary)
        if want_metrics:
            outputs[OUTPUT_METRICS] = result.metrics_snapshot()
        if want_attribution:
            outputs[OUTPUT_ATTRIBUTION] = result.attribution_report()
    return {"schema": RESULT_SCHEMA,
            "tool": RESULT_TOOL,
            "experiment": defn.name,
            "params": params,
            "seed": spec.seed,
            "outputs": outputs}


def run_summary(name: str, seed: int = 0, **params: Any) \
        -> Dict[str, Any]:
    """Convenience: run one experiment, return just its summary."""
    spec = ExperimentSpec(experiment=name, params=params, seed=seed)
    return run_experiment(spec)["outputs"]["summary"]


def render(name: str, summary: Optional[Dict[str, Any]] = None,
           **params: Any) -> None:
    """Print an experiment's human table (running it if needed)."""
    defn = get(name)
    resolved = defn.resolve_params(params)
    if summary is None:
        summary = run_summary(name, **params)
    if defn.render is None:
        import json
        print(json.dumps(summary, indent=2))
        return
    defn.render(summary, resolved)
