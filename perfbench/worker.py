"""One measured repetition of one workload, in a fresh process.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED MODE`` with MODE one of

* ``setup``  — set up only; reports ``setup_s`` and ``calibration_s``;
* ``run``    — set up and run untraced; reports ``setup_s``, ``wall_s``,
  ``calibration_s``, ``peak_rss_mb``, kernel counters and the output
  digests;
* ``plain``  — ``run``, then time the bare interleave scenario too;
* ``trace``  — set up and run under cProfile; reports the per-layer
  metrics, the traced set-up and run time and the output digests.

The result is one JSON object on the last line of standard output.
``run.py`` starts this script; it is not meant to be run by hand.
"""

import gc
from time import perf_counter

#: The calibration kernel: generated functions, compiled, run and freed,
#: in small batches so that it adds nothing to the peak resident memory.
CALIBRATION_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n"
    f"    d = {{'a': x, 'b': y, 'c': [x, y, {i}]}}\n"
    f"    s = 0\n"
    f"    for k in range(x % 7 + 3):\n"
    f"        s += d['c'][k % 3] * k\n"
    f"    return s + len(d)\n" for i in range(100))
CALIBRATION_BATCHES = 15


def calibrate() -> float:
    """Seconds for one fixed compile-and-run of generated Python code.

    The kernel uses the interpreter only, never ``repro``, so no change
    to the program can move it; what moves it is how fast the host runs
    Python at the moment.  Garbage collection is off while it runs, so
    the size of the program's live heap cannot move it either.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(CALIBRATION_BATCHES):
            namespace: dict = {}
            exec(compile(CALIBRATION_SOURCE, "<calibration>", "exec"),
                 namespace)
            for i in range(100):
                namespace[f"f{i}"](i)
        return perf_counter() - t0
    finally:
        gc.enable()


CALIBRATION_BEFORE = calibrate()
T0 = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main(name: str, seed: int, mode: str) -> dict:
    workloads.use_source_tree()
    setup, check, _ = workloads.WORKLOADS[name]
    if mode == "trace":
        # The profile covers set-up too, imports included: that cost is
        # part of each layer's host time.
        import layers

        def setup_and_run():
            with workloads.SimRecorder() as recorder:
                return setup(seed)(recorder)

        (outputs, _), traced_s, stats = layers.profile(setup_and_run)
        return {"traced_s": traced_s,
                "digests": digests(outputs),
                "problems": check(outputs),
                "layers": dict(layers.by_layer(stats),
                               **layers.daemon_ticks(stats))}
    with workloads.SimRecorder() as recorder:
        run = setup(seed)
        setup_s = perf_counter() - T0
        if mode == "setup":
            return {"setup_s": setup_s,
                    "calibration_s": (CALIBRATION_BEFORE + calibrate()) / 2}
        t0 = perf_counter()
        outputs, steps = run(recorder)
        wall = perf_counter() - t0
    # Read before anything else runs in this process.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_s = (CALIBRATION_BEFORE + calibrate()) / 2
    if mode == "plain":
        steps["plain_s"] = workloads.plain_interleave_s()
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "events": recorder.events,
        "elided": recorder.elided,
        "steps": steps,
        "digests": digests(outputs),
        "problems": check(outputs),
        "control_actions": workloads.control_actions(outputs),
    }


def digests(outputs: workloads.Outputs) -> dict:
    return {sim: workloads.digest(doc) for sim, doc in outputs.items()}


if __name__ == "__main__":
    workload, seed_text, run_mode = sys.argv[1:4]
    print(json.dumps(main(workload, int(seed_text), run_mode)))
