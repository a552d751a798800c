"""repro.experiments: declarative experiment specs, registry, sweeps.

The pieces:

* :mod:`~repro.experiments.registry` — every runnable experiment
  (benchmark builders and telemetry scenarios) registered by name with
  a typed parameter schema;
* :mod:`~repro.experiments.spec` — :class:`ExperimentSpec`, the JSON
  description of one invocation (experiment + params + seed + outputs);
* :mod:`~repro.experiments.runner` — run a spec, get a schema-stable
  result document;
* :mod:`~repro.experiments.sweep` — the deterministic multiprocess
  parameter-sweep driver behind ``repro sweep``.
"""

from __future__ import annotations

from .format import fmt_row, print_table
from .registry import (
    ALL_OUTPUTS,
    ExperimentDef,
    ExperimentError,
    Param,
    UnknownExperimentError,
    describe,
    experiment,
    get,
    names,
    register,
)
from ..telemetry.scenarios import run_scenario
from .runner import RunContext, render, run_experiment, run_summary
from .spec import ExperimentSpec, SpecError
from .sweep import (
    SweepConflictError,
    SweepSpec,
    load_sweep_spec,
    run_sweep,
    validate_sweep_report,
)

__all__ = [
    "ALL_OUTPUTS",
    "ExperimentDef",
    "ExperimentError",
    "ExperimentSpec",
    "Param",
    "RunContext",
    "SpecError",
    "SweepConflictError",
    "SweepSpec",
    "UnknownExperimentError",
    "describe",
    "experiment",
    "fmt_row",
    "get",
    "load_sweep_spec",
    "names",
    "print_table",
    "register",
    "render",
    "run_experiment",
    "run_summary",
    "run_scenario",
    "run_sweep",
    "validate_sweep_report",
]
