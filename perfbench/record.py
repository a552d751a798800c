"""Record the benchmark's references: output digests and a baseline.

``python3 perfbench/record.py pin [--seeds N]`` runs every workload once
per seed and writes ``reference.json``: the output digest of each
simulation.  Workloads whose inputs do not depend on the seed are
pinned once, under ``"*"``; ``tiered_memory`` is pinned for seeds
``0 .. N-1``.  Pin only from a commit whose outputs are known good.

``python3 perfbench/record.py baseline [--runs N] [--seconds S]`` runs
``run.py`` N times per workload listed in ``BENCHMARK.json``, each with
another seed, plus one traced run, prints each end-to-end metric's
median and quartiles with the spread (Q3 - Q1) / median, and writes
``BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def worker(workload: str, seed: int, mode: str) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         mode], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pin(seeds: int) -> None:
    reference: Dict[str, Dict[str, Dict[str, str]]] = {}
    for workload, (_, _, seeded) in WORKLOADS.items():
        pinned = {}
        for seed in (range(seeds) if seeded else [0]):
            rep = worker(workload, seed, "run")
            if rep["problems"]:
                raise SystemExit(f"{workload} seed {seed}: output checks "
                                 f"failed: {rep['problems']}")
            pinned[str(seed) if seeded else "*"] = rep["digests"]
        reference[workload] = pinned
        print(f"pinned {workload}: {len(pinned)} seed(s)")
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")


def bench(workload: str, seed: int, seconds: int,
          trace: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs differ:\n"
                         f"{proc.stdout}")
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def baseline(runs: int, seconds: int, first_seed: int) -> None:
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    document: Dict[str, Any] = {"runs": runs, "seconds": seconds,
                                "seeds": [first_seed,
                                          first_seed + runs - 1],
                                "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        samples: Dict[str, List[float]] = {name: [] for name in bounds}
        for seed in range(first_seed, first_seed + runs):
            result = bench(workload, seed, seconds, 0)
            for name in bounds:
                samples[name].append(result["metrics"][name]["value"])
            print(f"{workload:<20} seed {seed:<3} " + "  ".join(
                f"{name} {values[-1]:.4f}"
                for name, values in samples.items()), flush=True)
        entry: Dict[str, Any] = {}
        for name, values in samples.items():
            entry[name] = dict(summarize(values), values=values)
            print(f"{workload:<20} {name:<12} median "
                  f"{entry[name]['median']:.4f}  spread "
                  f"{entry[name]['spread']:.4f}  (bound {bounds[name]})")
        traced = bench(workload, first_seed, seconds, 1)
        entry["per_layer"] = {name: metric["value"] for name, metric
                              in traced["metrics"].items()}
        document["workloads"][workload] = entry
    (HERE / "BASELINE.json").write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pin_cmd = sub.add_parser("pin", help="write reference.json")
    pin_cmd.add_argument("--seeds", type=int, default=64)
    base_cmd = sub.add_parser("baseline", help="write BASELINE.json")
    base_cmd.add_argument("--runs", type=int, default=10)
    base_cmd.add_argument("--seconds", type=int, default=None,
                          help="default: run_seconds from BENCHMARK.json")
    base_cmd.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.command == "pin":
        pin(args.seeds)
    else:
        seconds = args.seconds or json.loads(
            (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
        baseline(args.runs, seconds, args.first_seed)


if __name__ == "__main__":
    main()
