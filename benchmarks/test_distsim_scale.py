"""Scale-out event-engine sweep: 256–4096 ranks (Fig-12 regime).

Sweeps banded synthetic workloads whose task counts grow with the rank
count.  The 256- and 1024-rank cells must reproduce the makespan,
kernel, message and event counts frozen in
``tests/golden/distsim_traces.json`` (captured from the per-message heap
loop this engine replaced); the 4096-rank cell must simply complete
(the CI scale-out gate).  Host throughput is reported here but gated
elsewhere — ``sim_events_per_s`` of the end-to-end benchmark
(``BENCHMARK.json``).

Writes ``benchmarks/results/BENCH_distsim_scale.json``.
"""

import json
import os
import pathlib

from repro.analysis import format_table
from repro.cluster import DistributedSimulator, H100_CLUSTER, banded_block_dag
from repro.core.executor import EstimateBackend

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent.parent / "tests" / "golden"
     / "distsim_traces.json").read_text(encoding="utf-8"))["cells"]

#: (ranks, nb, bandwidth): DAG size grows with the grid so every cell
#: keeps meaningful per-rank work (roughly Fig. 12's weak-ish scaling).
CELLS = ((256, 64, 8), (1024, 128, 8), (4096, 192, 10))
POLICIES = ("trojan", "serial")
#: best-of-N walls, so the reported events/s do not ride on one noisy
#: scheduler quantum
REPEATS = int(os.environ.get("REPRO_SCALE_REPEATS", "3"))


def _run_best(dag, ranks, policy):
    best = None
    for _ in range(REPEATS):
        res = DistributedSimulator(dag, EstimateBackend(), H100_CLUSTER,
                                   ranks, policy).run()
        if best is None or res.events.wall_s < best.events.wall_s:
            best = res
    return best


def test_distsim_scaleout(emit, benchmark):
    rows, cells = [], []
    for ranks, nb, bw in CELLS:
        dag = banded_block_dag(nb, bw)
        for policy in POLICIES:
            res = _run_best(dag, ranks, policy)
            ev = res.events
            golden = GOLDEN.get(f"banded{nb}x{bw}/{ranks}/{policy}/none")
            if golden is not None:
                assert res.makespan == golden["summary"]["time_s"]
                assert res.total_kernels == golden["summary"]["kernels"]
                assert res.messages == golden["summary"]["messages"]
                assert ev.events == golden["events"]
            else:
                # beyond the heap loop's reach when the goldens were cut
                assert ranks == 4096
            cells.append({
                "ranks": ranks, "nb": nb, "bandwidth": bw,
                "policy": policy, "tasks": dag.n_tasks,
                "events": ev.events, "cohorts": ev.cohorts,
                "max_cohort": ev.max_cohort, "peak_depth": ev.peak_depth,
                "wall_s": round(ev.wall_s, 4),
                "events_per_sec": round(ev.events_per_sec, 1),
                "makespan_ms": res.makespan * 1e3,
                "messages": res.messages,
                "golden": golden is not None,
            })
            rows.append([ranks, policy, dag.n_tasks, ev.events,
                         round(ev.wall_s, 3), f"{ev.events_per_sec:,.0f}",
                         "yes" if golden is not None else "-"])

    # the 4096-rank cells completed if we got here; pin that the sweep
    # actually contained them, and that the golden cells were all found
    assert sum(c["ranks"] == 4096 for c in cells) == len(POLICIES)
    assert sum(c["golden"] for c in cells) == 2 * len(POLICIES)

    emit("distsim_scale", format_table(
        ["ranks", "policy", "tasks", "events", "wall (s)", "events/s",
         "golden"],
        rows, title="distsim scale-out: calendar-queue event engine"))
    (RESULTS_DIR / "BENCH_distsim_scale.json").write_text(
        json.dumps({"cells": cells}, indent=1), encoding="utf-8")

    dag256 = banded_block_dag(64, 8)
    benchmark(lambda: DistributedSimulator(
        dag256, EstimateBackend(), H100_CLUSTER, 256, "trojan").run())
