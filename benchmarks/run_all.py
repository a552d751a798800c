#!/usr/bin/env python
"""Perf-regression harness: run the experiment suite and record it.

Runs the kernel microbenchmark plus the headline experiments (Table 2
hierarchy, C2 PCIe interference, A1 movement ablation), checks that the
paper-shape invariants still hold (remote/local latency ~10x, PCIe
contention grows with hosts, managed movement beats naive sync), and
writes ``BENCH_<n>.json`` in the repository root with wall-clock,
events and events/sec per experiment — the perf trajectory later PRs
append to.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py           # full + BENCH_<n>.json
    PYTHONPATH=src python benchmarks/run_all.py --smoke   # quick CI pass, no file

The harness intentionally asserts only *shape* invariants (ordering and
coarse magnitude), not exact latencies: exact bit-identity for fixed
seeds is covered by ``tests/test_determinism.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Tuple

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent / "src"))

from repro.experiments import (ExperimentSpec, run_experiment,  # noqa: E402
                               run_summary)
from repro.sim import Environment, total_events_processed  # noqa: E402
from repro.sim.engine import batch_default, set_batch_default  # noqa: E402

#: Seed-engine events/sec on this microbenchmark (200 procs x 2000
#: steps), recorded when the fast path landed.  Machine-dependent, so
#: the speedup is reported for trend-keeping, not asserted.
SEED_KERNEL_EVENTS_PER_SEC = 490_000.0


def _timed(fn: Callable) -> Tuple[object, float, int]:
    """Run ``fn`` and return (result, wall seconds, kernel events)."""
    events0 = total_events_processed()
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    return result, wall, total_events_processed() - events0


def kernel_microbench(procs: int, steps: int) -> dict:
    """The canonical hot-path shape: N processes ticking in lockstep."""
    env = Environment()

    def looper():
        timeout = env.timeout
        for _ in range(steps):
            yield timeout(1.0)

    for _ in range(procs):
        env.process(looper())
    env.run()
    return env.stats


def next_bench_path(root: Path) -> Path:
    taken = []
    for existing in root.glob("BENCH_*.json"):
        suffix = existing.stem.split("_", 1)[1]
        if suffix.isdigit():
            taken.append(int(suffix))
    n = max(taken) + 1 if taken else 1
    # Walk past any non-numeric squatters (BENCH_2b.json) so an
    # existing file is never overwritten.
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    return root / f"BENCH_{n}.json"


def git_sha(root: Path) -> Optional[str]:
    """The current commit, so a BENCH file is traceable to the tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, check=True,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha or None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, no BENCH file (CI gate)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: next BENCH_<n>.json)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker count recorded in the BENCH "
                             "metadata (the harness itself is serial; "
                             "pass the value used for any companion "
                             "`repro sweep` runs)")
    parser.add_argument("--no-batch", action="store_true",
                        help="run the whole suite with the vectorized "
                             "fabric paths disabled (their scalar "
                             "reference)")
    args = parser.parse_args(argv)
    if args.no_batch:
        set_batch_default(False)

    experiments = []
    failures: List[str] = []

    def check(name: str, ok: bool) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    def record(name: str, wall: float, events: int, detail) -> None:
        rate = events / wall if wall > 0 else 0.0
        experiments.append({
            "name": name,
            "wall_s": round(wall, 4),
            "events": events,
            "events_per_sec": round(rate, 1),
            "detail": detail,
        })
        print(f"{name}: {wall:.3f}s wall, {events:,} events, "
              f"{rate:,.0f} events/sec")

    # -- kernel microbenchmark -------------------------------------------
    procs, steps = (50, 200) if args.smoke else (200, 2000)
    # Best-of-5: this container's CPU clock drifts by ~1.5x between
    # runs; more rounds make the recorded peak less of a lottery.
    rounds = 1 if args.smoke else 5
    best = None
    for _ in range(rounds):
        stats, wall, events = _timed(lambda: kernel_microbench(procs, steps))
        rate = events / wall
        if best is None or rate > best[0]:
            best = (rate, wall, events, stats)
    rate, wall, events, stats = best
    speedup = rate / SEED_KERNEL_EVENTS_PER_SEC
    record("kernel_microbench", wall, events, {
        "procs": procs,
        "steps": steps,
        "best_of": rounds,
        "peak_queue_depth": stats["peak_queue_depth"],
        "pooled_timeouts": stats["pooled_timeouts"],
        "batch": stats["batch"],
        "events_elided": stats["events_elided"],
        "pool_limit": stats["pool_limit"],
        "pool_hits": stats["pool_hits"],
        "pool_misses": stats["pool_misses"],
        "seed_events_per_sec_recorded": SEED_KERNEL_EVENTS_PER_SEC,
        "speedup_vs_seed": round(speedup, 2),
    })
    check("kernel_pool_filled", stats["pooled_timeouts"] > 0)

    # -- batch on/off: bit-identity -------------------------------------
    # The same kernel microbench and one fabric-heavy experiment, run
    # with the vectorized fabric paths off and on.  Event counts and the
    # experiment's full result document must be identical (the
    # documents carry no wall clocks, so byte-comparison is exact).
    identity_name = "pcie_interleave"
    identity_params = ({"reads": 6, "bulk_writes": 10} if args.smoke
                       else {})
    identity_spec = ExperimentSpec(experiment=identity_name,
                                   params=identity_params)
    prev_batch = batch_default()
    try:
        kernel = {}
        docs = {}
        for mode in (False, True):
            set_batch_default(mode)
            kernel[mode] = _timed(lambda: kernel_microbench(procs, steps))
            docs[mode] = _timed(lambda: run_experiment(identity_spec))
    finally:
        set_batch_default(prev_batch)
    _, _, events_off = kernel[False]
    _, wall_on, events_on = kernel[True]
    doc_off, _, dev_off = docs[False]
    doc_on, _, dev_on = docs[True]
    record("batch_dispatch_smoke", wall_on, events_on, {
        "identity_experiment": identity_name,
        "identity_model_events_scalar": dev_off,
        "identity_model_events_batched": dev_on,
    })
    check("batch_kernel_events_identical", events_on == events_off)
    check("batch_model_events_identical", dev_on == dev_off)
    check("batch_experiment_doc_identical",
          json.dumps(doc_on, sort_keys=True)
          == json.dumps(doc_off, sort_keys=True))

    # -- T2: memory-hierarchy latency matrix -----------------------------
    rows, wall, events = _timed(
        lambda: run_summary("table2_hierarchy")["rows"])
    by_key = {(r["level"], r["op"]): r["latency_ns"] for r in rows}
    ratio = by_key[("remote", "read")] / by_key[("local", "read")]
    record("t2_hierarchy", wall, events, {
        "remote_read_ns": by_key[("remote", "read")],
        "local_read_ns": by_key[("local", "read")],
        "remote_local_ratio": round(ratio, 2),
    })
    check("t2_remote_local_ratio_about_10x", 5.0 <= ratio <= 30.0)
    check("t2_l1_fastest", by_key[("l1", "read")] < by_key[("local", "read")])

    # -- C2: PCIe interference sweep -------------------------------------
    rows, wall, events = _timed(
        lambda: run_summary("pcie_interference")["rows"])
    added = {r["hosts"]: r["added_ns"] for r in rows}
    record("c2_pcie_interference", wall, events,
           {"added_ns_by_hosts": {str(k): v for k, v in added.items()}})
    check("c2_no_interference_alone", added[1] == 0.0)
    check("c2_contention_monotonic",
          all(added[a] <= added[b]
              for a, b in zip(sorted(added), sorted(added)[1:])))
    check("c2_added_at_16_hosts_in_range", 300.0 <= added[16] <= 3000.0)

    # -- A1: data-movement ablation --------------------------------------
    results, wall, events = _timed(
        lambda: run_summary("dp1_movement")["modes"])
    record("a1_movement_ablation", wall, events, results)
    check("a1_managed_beats_naive", results["managed"] < results["naive-sync"])
    check("a1_prefetch_beats_naive",
          results["prefetch"] < results["naive-sync"])

    # -- telemetry: off-path overhead ------------------------------------
    # The same instrumented scenario, telemetry absent vs. attached.
    # The off path must stay within benchmark noise of the fast path
    # (every hook is one is-None branch); the on path is reported for
    # the trend, not asserted — it pays for real event recording.
    from repro.telemetry.scenarios import run_scenario
    t_rounds = 2 if args.smoke else 5
    scenario = "interleave"
    off_best = on_best = None
    off_events = on_events = 0
    for _ in range(t_rounds):
        res_off, wall_off, ev_off = _timed(
            lambda: run_scenario(scenario, telemetry=False))
        res_on, wall_on, ev_on = _timed(
            lambda: run_scenario(scenario, telemetry=True))
        if off_best is None or wall_off < off_best:
            off_best, off_events = wall_off, ev_off
        if on_best is None or wall_on < on_best:
            on_best, on_events = wall_on, ev_on
    on_ratio = on_best / off_best if off_best > 0 else 0.0
    # Deterministic: the same in every round.
    elided_off = res_off.env.stats["events_elided"]
    elided_on = res_on.env.stats["events_elided"]
    record("telemetry_overhead", off_best, off_events, {
        "scenario": scenario,
        "best_of": t_rounds,
        "off_wall_s": round(off_best, 4),
        "on_wall_s": round(on_best, 4),
        "on_vs_off": round(on_ratio, 3),
        "model_events_off": off_events,
        "model_events_on": on_events,
        "events_elided_off": elided_off,
        "events_elided_on": elided_on,
    })
    check("telemetry_off_within_noise_of_fast_path", on_ratio < 3.0)
    # Observing the run must not switch the vectorized paths off.
    check("telemetry_on_keeps_fast_paths", elided_on >= 0.9 * elided_off)

    # -- causal tracing: on-path overhead --------------------------------
    # Telemetry-on is the baseline here: causal tracing rides on top of
    # it, so the interesting ratios are full tracing (every transaction
    # rooted) and 1/16 sampling over the telemetry-on wall clock.  The
    # generous bound just catches pathological blowups; the precise
    # no-perturbation property (bit-identical schedules) is pinned by
    # tests, not wall clocks.
    full_best = sampled_best = None
    roots_full = roots_sampled = 0
    for _ in range(t_rounds):
        result, wall_full, _ = _timed(
            lambda: run_scenario(scenario, causal=True))
        if full_best is None or wall_full < full_best:
            full_best, roots_full = wall_full, result.causal.started
        result, wall_sampled, _ = _timed(
            lambda: run_scenario(scenario, causal=True, causal_sample=16))
        if sampled_best is None or wall_sampled < sampled_best:
            sampled_best = wall_sampled
            roots_sampled = result.causal.started
    full_ratio = full_best / on_best if on_best > 0 else 0.0
    sampled_ratio = sampled_best / on_best if on_best > 0 else 0.0
    record("causal_overhead", full_best, on_events, {
        "scenario": scenario,
        "best_of": t_rounds,
        "telemetry_on_wall_s": round(on_best, 4),
        "causal_full_wall_s": round(full_best, 4),
        "causal_sampled_wall_s": round(sampled_best, 4),
        "full_vs_telemetry_on": round(full_ratio, 3),
        "sampled_vs_telemetry_on": round(sampled_ratio, 3),
        "sample": 16,
        "roots_full": roots_full,
        "roots_sampled": roots_sampled,
    })
    check("causal_full_tracing_bounded", full_ratio < 3.0)
    check("causal_sampling_reduces_roots", roots_sampled < roots_full)

    # -- streaming health: overhead + schedule identity -------------------
    # Baseline: the causal run plus the offline `repro why` report —
    # the post-hoc equivalent of everything the streaming monitor
    # computes.  Streaming the same analysis window-by-window (windowed
    # series, incremental attribution, SLO/anomaly passes) must cost at
    # most 5% more wall clock, and the monitored run must process
    # exactly as many kernel events as the causal run it observes.
    from repro.telemetry.health import run_health
    health_scenario = "starvation"
    base_best = health_best = None
    base_events = health_events = 0
    health_windows = health_alerts = 0
    for _ in range(t_rounds):
        result, wall_base, ev_base = _timed(
            lambda: run_scenario(health_scenario, causal=True))
        _, wall_report, _ = _timed(result.attribution_report)
        wall_base += wall_report
        if base_best is None or wall_base < base_best:
            base_best, base_events = wall_base, ev_base
        (result, report), wall_health, ev_health = _timed(
            lambda: run_health(health_scenario))
        if health_best is None or wall_health < health_best:
            health_best, health_events = wall_health, ev_health
            health_windows = len(report["windows"])
            health_alerts = sum(len(alert["episodes"])
                                for slo in report["slos"]
                                for alert in slo["alerts"])
    health_ratio = health_best / base_best if base_best > 0 else 0.0
    record("health_overhead", health_best, health_events, {
        "scenario": health_scenario,
        "best_of": t_rounds,
        "baseline": "causal run + offline attribution report",
        "baseline_wall_s": round(base_best, 4),
        "health_wall_s": round(health_best, 4),
        "health_vs_baseline": round(health_ratio, 3),
        "model_events_baseline": base_events,
        "model_events_health": health_events,
        "windows": health_windows,
        "alert_episodes": health_alerts,
    })
    check("health_overhead_bounded", health_ratio <= 1.05)
    check("health_model_events_identical",
          health_events == base_events)
    check("health_alert_fired", health_alerts >= 1)

    # -- report ----------------------------------------------------------
    payload = {
        "schema": 1,
        "python_version": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "workers": args.workers,
        "batch": batch_default(),
        "git_sha": git_sha(_HERE.parent),
        "smoke": args.smoke,
        "experiments": experiments,
        "invariant_failures": failures,
    }
    if args.smoke:
        print("smoke run: BENCH file not written")
    else:
        out = args.out or next_bench_path(_HERE.parent)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    if failures:
        print(f"FAILED invariants: {', '.join(failures)}")
        return 1
    print("all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
