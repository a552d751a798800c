"""The benchmark of record: host cost of the simulator on three workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload runs again and again, each repetition in
a fresh process, for about ``S`` seconds, and the end-to-end metrics are
the medians over the repetitions: ``wall_s`` (host seconds to simulate,
untraced), ``setup_s`` (host seconds from process start to the first
simulated event) and ``peak_rss_mb``.  The two timings are taken at
reference speed: each repetition also times a fixed calibration kernel
(see ``worker.py``) just before set-up and just after the run, and its
timings are scaled by ``CALIBRATION_REF_S`` over the mean of the two, so
that the host's drifting speed cancels out.  With ``--trace 1`` one untraced
and one profiled repetition give the per-layer metrics (see
``layers.py``).  Either way every simulation's model outputs are
fingerprinted and checked against ``reference.json``; the share that
differ is printed as ``failed_ops_share`` and counted in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SRC, WORKLOADS  # noqa: E402

#: Every run must end well inside three minutes.
DEADLINE_S = 170.0
#: Set-up is sampled at least this often per run (extra set-up-only
#: processes fill in when the workload repeats fewer times).
MIN_SETUP_SAMPLES = 7
#: Reference speed: the calibration kernel's nominal seconds.  Timings
#: are reported as if every repetition had run at this speed.
CALIBRATION_REF_S = 0.2


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in config[kind]}


class BenchError(Exception):
    """A repetition failed; the run prints no result."""


class Runner:
    """Starts worker processes for one workload, within the deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.t0 = perf_counter()

    def elapsed(self) -> float:
        return perf_counter() - self.t0

    def rep(self, mode: str) -> Dict[str, Any]:
        budget = DEADLINE_S - self.elapsed()
        if budget <= 0:
            raise BenchError("out of time before the next repetition")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), self.workload,
                 str(self.seed), mode],
                capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} repetition overran the "
                             f"{DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} repetition exited "
                             f"{proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    pinned = json.loads((HERE / "reference.json").read_text())[workload]
    return pinned.get("*", pinned.get(str(seed)))


def count_failures(reps: List[Dict[str, Any]],
                   expected: Optional[Dict[str, str]]) -> int:
    """Simulations whose outputs differ from the reference.

    Without a pinned reference for this seed, the first repetition is
    the reference: every repetition must then reproduce it exactly.  A
    repetition that breaks an output check fails all its simulations.
    """
    expected = expected or reps[0]["digests"]
    failed = 0
    for rep in reps:
        if rep["problems"] or set(rep["digests"]) != set(expected):
            failed += len(rep["digests"])
            continue
        failed += sum(digest != expected[sim]
                      for sim, digest in rep["digests"].items())
    return failed


def at_reference_speed(seconds: float, rep: Dict[str, Any]) -> float:
    """``seconds`` measured in ``rep``, scaled to the reference speed."""
    return seconds * CALIBRATION_REF_S / rep["calibration_s"]


def untraced(runner: Runner, seconds: float) -> Dict[str, Any]:
    reps: List[Dict[str, Any]] = []
    last = 0.0
    # Stop when the next repetition would end past `seconds` by more
    # than half its own length.
    while not reps or runner.elapsed() + 0.5 * last < seconds:
        start = runner.elapsed()
        reps.append(runner.rep("run"))
        last = runner.elapsed() - start
    probes = list(reps)
    while len(probes) < MIN_SETUP_SAMPLES:
        probes.append(runner.rep("setup"))
    for name, sampled in (("wall_s", reps), ("setup_s", probes)):
        print(f"  {name:<12} {len(sampled)} samples, host s / calibration "
              f"s: " + " ".join(f"{rep[name]:.4f}/{rep['calibration_s']:.4f}"
                                for rep in sampled))
    values = {
        "wall_s": statistics.median(at_reference_speed(rep["wall_s"], rep)
                                    for rep in reps),
        "setup_s": statistics.median(at_reference_speed(rep["setup_s"], rep)
                                     for rep in probes),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in reps),
    }
    return {"reps": reps,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in metric_units("end_to_end").items()}}


def traced(runner: Runner) -> Dict[str, Any]:
    observed = runner.workload == "observed_interleave"
    plain = runner.rep("plain" if observed else "run")
    profiled = runner.rep("trace")
    values = dict(profiled["layers"])
    values["run_s"] = plain["wall_s"]
    values["calibration_s"] = plain["calibration_s"]
    values["sim.engine.events"] = plain["events"]
    values["sim.engine.events_per_s"] = plain["events"] / plain["wall_s"]
    values["sim.engine.elided"] = plain["elided"]
    if observed:
        observed_s = plain["steps"]["observed_s"]
        plain_s = plain["steps"]["plain_s"]
    else:
        # No telemetry runs here: the observed run is the plain run.
        observed_s = plain_s = plain["wall_s"]
    values["telemetry.observed_s"] = observed_s
    values["telemetry.plain_s"] = plain_s
    values["telemetry.observe_over_plain"] = observed_s / plain_s
    values["control.actions"] = plain["control_actions"]
    untraced_s = plain["setup_s"] + plain["wall_s"]
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = profiled["traced_s"]
    values["trace_overhead"] = profiled["traced_s"] / untraced_s
    units = metric_units("per_layer")
    for name in sorted(units):
        print(f"  {name:<30} {values[name]} {units[name]}")
    return {"reps": [plain, profiled],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    try:
        run = traced(runner) if args.trace else untraced(runner,
                                                         args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reps = run["reps"]
    expected = reference_digests(args.workload, args.seed)
    attempted = sum(len(rep["digests"]) for rep in reps)
    failed = count_failures(reps, expected)
    for rep in reps:
        for problem in rep["problems"]:
            print(f"  output check failed: {problem}")
    for sim, digest in sorted(reps[0]["digests"].items()):
        print(f"  digest {sim}: {digest}")
    if not args.trace:
        for name, metric in sorted(run["metrics"].items()):
            print(f"  {name:<12} {metric['value']:.4f} {metric['unit']} "
                  f"(median)")
    print(f"  failed_ops_share {failed / attempted} ({failed} of "
          f"{attempted} simulations differ from the "
          f"{'pinned' if expected else 'first repetition'} reference)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
