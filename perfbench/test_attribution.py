"""Self-checks of the benchmark's own measuring.

Run with ``python3 -m pytest perfbench -q`` from the repository root.

The attribution check wraps a public ``fabric`` method with extra busy
work done by ``fabric`` code and asserts that the profiler pass puts
the added time on the ``fabric`` layer and on no other layer.  The
source tree is not patched: the wrapper is installed and removed here.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

workloads.use_source_tree()

#: Busy fragmentations per consumed flit.  The t2 scenario consumes ~200
#: flits, so this adds about a second of fabric self time.
BUSY_REPEATS = 2000


def profile_t2():
    from repro.experiments import run_scenario
    _, _, stats = layers.profile(
        lambda: run_scenario("t2", telemetry=False))
    return layers.by_layer(stats)


def test_busy_work_in_fabric_is_attributed_to_fabric(monkeypatch):
    from repro.fabric.flit import fragment
    from repro.fabric.link import LinkLayer

    base = profile_t2()
    consume = LinkLayer.consume

    def busy_consume(self, flit):
        for _ in range(BUSY_REPEATS):
            fragment(flit.packet, flit_bytes=1)
        return consume(self, flit)

    monkeypatch.setattr(LinkLayer, "consume", busy_consume)
    busy = profile_t2()

    added = {name: busy[name] - base[name] for name in base
             if name.endswith(".self_s")}
    assert added["fabric.self_s"] > 0.3, added
    for name, delta in added.items():
        if name not in ("fabric.self_s", "other.self_s"):
            assert abs(delta) < 0.1 * added["fabric.self_s"], (name, added)
    # The busy work schedules nothing, so no scheduling count moves.
    for name in base:
        if not name.endswith(".self_s"):
            assert busy[name] == base[name], name


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "tiered_memory", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
