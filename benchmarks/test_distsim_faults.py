"""Makespan inflation under injected faults (cluster chaos study).

Sweeps the lossy-link drop probability (0 → 10%) over the distributed
simulator for the Trojan Horse and stream-based per-process schedulers,
plus one straggler and one rank-death cell each, on the c-71 analogue
with 4 GPUs.  Every cell must pass the TraceVerifier and reproduce its
trace digest on a re-run with the same seed — the same gate CI's
``chaos`` job enforces on the CLI path.

Writes ``benchmarks/results/BENCH_distsim.json`` for the CI artifact.
"""

import json
import os
import pathlib

from repro.analysis import format_table
from repro.cluster import (
    DistributedSimulator,
    FaultSpec,
    H100_CLUSTER,
    LinkFaults,
    RankDeath,
    Straggler,
)
from repro.core.executor import ReplayBackend
from repro.verify.trace import verify_trace

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

DROP_RATES = (0.0, 0.02, 0.05, 0.10)
POLICIES = ("trojan", "streams")
SEED = 42
NPROCS = 4


def _simulate(dag, backend, policy, spec):
    res = DistributedSimulator(dag, backend, H100_CLUSTER, NPROCS, policy,
                               record_trace=True, faults=spec).run()
    report = verify_trace(res.trace)
    assert not report.violations, report.violations[:3]
    return res


def test_distsim_fault_inflation(runs, emit, benchmark):
    _, run = runs("c-71", "pangulu")
    dag, backend = run.dag, ReplayBackend(run.stats)

    lossless = {p: DistributedSimulator(dag, backend, H100_CLUSTER, NPROCS,
                                        p).run() for p in POLICIES}
    # inflation baseline is the fault loop's own empty-spec cell: the
    # lossless loop counts predecessors at send time and so breaks
    # simultaneous-ready ties differently (DESIGN.md §2 "Fault
    # injection"), which is noise we don't want in the ratios
    base = {p: _simulate(dag, backend, p, FaultSpec(seed=SEED)).makespan
            for p in POLICIES}

    rows, cells = [], []
    for policy in POLICIES:
        mk0 = base[policy]
        for drop in DROP_RATES:
            spec = FaultSpec(seed=SEED, link=LinkFaults(drop_prob=drop))
            res = _simulate(dag, backend, policy, spec)
            res2 = _simulate(dag, backend, policy, spec)
            digest = res.trace.digest()
            assert digest == res2.trace.digest()
            cells.append({
                "policy": policy, "fault": f"drop={drop:g}",
                "makespan_s": res.makespan,
                "inflation": res.makespan / mk0,
                "digest": digest[:16],
                **res.faults.as_dict()})

        mk = mk0
        scenarios = {
            "straggler x4": FaultSpec(
                seed=SEED, stragglers=(Straggler(rank=1, factor=4.0),)),
            "rank death": FaultSpec(
                seed=SEED, deaths=(RankDeath(rank=2, time=mk * 0.35),),
                checkpoint_interval=mk * 0.2, recovery_delay=mk * 0.05),
        }
        for label, spec in scenarios.items():
            res = _simulate(dag, backend, policy, spec)
            cells.append({
                "policy": policy, "fault": label,
                "makespan_s": res.makespan,
                "inflation": res.makespan / mk0,
                "digest": res.trace.digest()[:16],
                **res.faults.as_dict()})

    for c in cells:
        rows.append([c["policy"], c["fault"], f"{c['makespan_s']:.3e}",
                     f"{c['inflation']:.3f}", c["drops"], c["retransmits"],
                     c["reexecuted"]])
    text = format_table(
        ["policy", "fault", "makespan", "inflation", "drops",
         "retransmits", "reexec"],
        rows, title="distsim makespan inflation under faults "
                    "(c-71, 4 GPUs, seed 42)")
    emit("distsim_faults", text)

    summary = {
        "matrix": "c-71", "nprocs": NPROCS, "seed": SEED,
        "bench_scale": BENCH_SCALE,
        "baseline_makespan_s": {p: base[p] for p in POLICIES},
        "lossless_loop_makespan_s": {p: lossless[p].makespan
                                     for p in POLICIES},
        "cells": cells,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_distsim.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")

    # inflation is monotone-ish in drop rate: the worst lossy cell costs
    # at least as much as lossless for each policy
    for policy in POLICIES:
        drops = [c for c in cells
                 if c["policy"] == policy and c["fault"].startswith("drop")]
        assert drops[-1]["makespan_s"] >= drops[0]["makespan_s"] * 0.999

    benchmark(lambda: DistributedSimulator(
        dag, backend, H100_CLUSTER, NPROCS, "trojan",
        faults=FaultSpec(seed=SEED, link=LinkFaults(drop_prob=0.02))).run())
