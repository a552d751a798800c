"""Observed scenario runs behind ``repro trace``/``metrics``/``why``.

The scenarios are registry experiments of ``kind="scenario"`` (see
:mod:`repro.experiments.defs.scenarios`).  :func:`run_scenario` runs
one in a run scope (:func:`repro.experiments.runner.observe`) and
returns a :class:`ScenarioResult`; with ``telemetry=False`` the
identical model runs bare.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from ..sim import Environment
from .attribution import build_report
from .causal import CausalRecorder
from .core import Telemetry
from .sampler import DEFAULT_INTERVAL_NS

__all__ = ["ScenarioResult", "run_scenario", "scenario_names"]


@dataclasses.dataclass
class ScenarioResult:
    """One environment of an observed run: what the run scope attached
    to it (telemetry, health monitor, feedback plane) and the summary."""

    name: str
    env: Environment
    telemetry: Optional[Telemetry]
    summary: Optional[Dict[str, Any]] = None
    monitor: Any = None
    plane: Any = None

    def chrome_trace(self) -> Dict[str, Any]:
        if self.telemetry is None:
            raise ValueError(f"scenario {self.name!r} ran without telemetry")
        return self.telemetry.to_chrome_trace()

    def metrics_snapshot(self) -> Dict[str, Any]:
        if self.telemetry is None:
            raise ValueError(f"scenario {self.name!r} ran without telemetry")
        snapshot = self.telemetry.registry.snapshot()
        snapshot["scenario"] = self.name
        snapshot["summary"] = self.summary
        return snapshot

    @property
    def causal(self) -> Optional[CausalRecorder]:
        return self.telemetry.causal if self.telemetry is not None else None

    def attribution_report(self,
                           max_transactions: int = 32) -> Dict[str, Any]:
        """The ``repro why`` payload: critical paths + latency buckets."""
        if self.causal is None:
            raise ValueError(
                f"scenario {self.name!r} ran without causal tracing; "
                f"re-run with causal=True")
        return build_report(self.name, self.causal, summary=self.summary,
                            max_transactions=max_transactions)


def scenario_names() -> List[str]:
    from ..experiments import registry
    return registry.names(kind="scenario")


def run_scenario(name: str,
                 interval_ns: float = DEFAULT_INTERVAL_NS,
                 telemetry: bool = True,
                 causal: bool = False,
                 causal_sample: int = 1) -> ScenarioResult:
    """Run one registered scenario observed; ValueError on bad input.

    Names resolve through the experiment registry (scenario-kind
    entries), so anything registered there — including out-of-tree
    additions — is reachable from ``repro trace``/``metrics``/``why``.
    With ``causal=True`` a causal recorder rides along (one
    transaction root per ``causal_sample`` candidates); recording never
    touches the event queue, so summaries stay bit-identical.
    """
    from ..experiments import registry
    from ..experiments.runner import Profile, RunContext, observe
    profile = Profile(telemetry=telemetry, causal=causal,
                      causal_sample=causal_sample, interval_ns=interval_ns)
    defn = registry.get(name, kind="scenario")
    with observe(profile, name=name) as run:
        summary = defn.run(RunContext(defn.defaults(), 0))
    return run.result(summary)
