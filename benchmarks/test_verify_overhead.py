"""Static-verification overhead microbench.

The ``repro verify`` gate is only viable if proving a schedule safe is
much cheaper than producing it — the acceptance bar is that the full
:func:`~repro.verify.schedule.verify_schedule` battery (cycles,
completeness, dependencies, hazards, capacity) over the trojan schedule
of a poisson2d(24) block-8 DAG adds less than 10% on top of the
scheduling time itself.  The whole-plan certifier
(:mod:`repro.verify.plan` — vector-clock races, wait cycles, liveness,
memory high-water marks over an 8-rank owner-compute plan) is held to
the same ≤10%-of-scheduling-time bar.

Writes ``benchmarks/results/BENCH_verify.json`` for the CI artifact.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time

from repro.analysis import format_table
from repro.core import build_block_dag, make_scheduler
from repro.core.executor import EstimateBackend
from repro.gpusim import GPUCostModel, RTX5090
from repro.matrices import poisson2d
from repro.sparse import uniform_partition
from repro.symbolic import block_fill
from repro.cluster import ProcessGrid
from repro.verify.plan import PlanSpec, verify_plan
from repro.verify.schedule import verify_schedule

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _best_of(fn, reps=3):
    best = math.inf
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_verify_overhead(emit, benchmark):
    nx = max(12, int(round(24 * math.sqrt(BENCH_SCALE))))
    a = poisson2d(nx)
    part = uniform_partition(a.nrows, 8)
    dag = build_block_dag(block_fill(a, part), part)
    gpu = RTX5090
    model = GPUCostModel(gpu)

    sched_s, result = _best_of(
        lambda: make_scheduler("trojan", dag, EstimateBackend(),
                               model).run())

    def run_verify():
        report = verify_schedule(dag, result.batches, gpu=gpu)
        assert report.ok, report.describe()
        return report

    verify_s, report = _best_of(run_verify)
    overhead = verify_s / sched_s

    def run_plan_verify():
        plan_report = verify_plan(
            PlanSpec.from_dag(dag, ProcessGrid(8), gpu=gpu))
        assert plan_report.ok, plan_report.describe()
        return plan_report

    plan_s, plan_report = _best_of(run_plan_verify)
    plan_overhead = plan_s / sched_s

    emit("verify_overhead", format_table(
        ["config", "tasks", "batches", "schedule (ms)", "verify (ms)",
         "overhead", "plan (ms)", "plan overhead"],
        [[f"poisson2d({nx}) b8 trojan", dag.n_tasks,
          len(result.batches), sched_s * 1e3, verify_s * 1e3,
          f"{overhead:.1%}", plan_s * 1e3, f"{plan_overhead:.1%}"]],
        title="Static schedule verification cost vs scheduling alone",
    ))

    summary = {
        "matrix": f"poisson2d({nx})",
        "block_size": 8,
        "n_tasks": dag.n_tasks,
        "n_batches": len(result.batches),
        "checks": list(report.checks),
        "schedule_seconds": sched_s,
        "verify_seconds": verify_s,
        "overhead": overhead,
        "plan_checks": list(plan_report.checks),
        "plan_seconds": plan_s,
        "plan_overhead": plan_overhead,
        "bench_scale": BENCH_SCALE,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_verify.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")

    # the bar binds only at full scale: tiny DAGs have too little
    # scheduling work for the ratio to be meaningful
    if BENCH_SCALE >= 1.0 and dag.n_tasks >= 1000:
        assert overhead < 0.10, \
            f"verification costs {overhead:.1%} of scheduling time " \
            f"({verify_s * 1e3:.1f} ms vs {sched_s * 1e3:.1f} ms)"
        assert plan_overhead < 0.10, \
            f"plan certification costs {plan_overhead:.1%} of " \
            f"scheduling time ({plan_s * 1e3:.1f} ms vs " \
            f"{sched_s * 1e3:.1f} ms)"

    benchmark.pedantic(run_verify, rounds=3, iterations=1)
