"""worker_pool — the real multiprocess engine, whole lifecycles.

``ParallelExecutor`` on two pinned workers over a 3-D Poisson problem
under the inflated Collector budget of ``benchmarks/test_parallel.py``:
construct → ``factorize()`` → a few ``solve(b)`` → close, L/U and x
bit-compared with the in-process engine.  Same front-end and kernels as
cold_direct, but the coordinator (spawn, plan record + certify,
per-batch dispatch and barrier) and ``verify`` dominate: barrier
elision or plan caching must show here, a kernel change should barely.
Three processes on two cores, so freeing the coordinator can save more
than its own share.
"""

from __future__ import annotations

import dataclasses
import os
import resource
from time import perf_counter

import numpy as np

from repro.cluster.grid import ProcessGrid
from repro.core.executor import record_batch_plan
from repro.gpusim import RTX5090, GPUCostModel
from repro.matrices.generators import poisson3d
from repro.parallel import ParallelExecutor, WorkerCrashError
from repro.solvers import PanguLUSolver
from repro.verify.plan import PlanSpec, verify_plan
from repro.verify.schedule import verify_schedule

import pipeline
from common import Ops, bits_equal, residual_ok, seeded, trace_quality
from spans import span
from stats import median

#: Collector budget scaled to the multiprocess regime (batches of
#: hundreds of tasks, so the per-batch worker round-trip amortises)
POOL_GPU = dataclasses.replace(RTX5090, max_blocks_per_sm=64,
                               shared_mem_per_sm_kb=800.0)
#: a pool that makes no progress for this long is a failed operation
WORKER_TIMEOUT_S = 60.0
SHM_DIR = "/dev/shm"


def _shm_segments() -> int:
    return len(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else 0


def _executor(state: dict, size: dict, workers: int) -> ParallelExecutor:
    return ParallelExecutor(
        state["a"], workers=workers, pin_blas=1,
        block_size=size["block_size"], analysis_cache=None, gpu=POOL_GPU,
        worker_timeout=WORKER_TIMEOUT_S)


def _lifecycle(state: dict, size: dict, ops, rec=None, workers=None,
               solves=None):
    """One construct → factorize → solves → close; returns the samples
    and the finished executor (for its public phase timings)."""
    ref = state["ref"]
    segments = _shm_segments()
    factor_s, solve_s, close_s, ex = None, [], None, None
    try:
        t0 = perf_counter()
        with span(rec, "parallel.factorize"):
            ex = _executor(state, size, workers or size["workers"])
            res = ex.factorize()
            if rec:
                ph = ex.phase_seconds
                rec.aggregate("parallel.front",
                              ph["reorder"] + ph["symbolic"])
                rec.aggregate("parallel.plan", ph["plan"])
                rec.aggregate("parallel.spawn", ph["spawn"])
                rec.aggregate("parallel.numeric", ph["numeric"])
        factor_s = perf_counter() - t0
        ops.done(bits_equal(res.L, ref.L) and bits_equal(res.U, ref.U),
                 "pool factorize: L/U not bit-equal to in-process engine")
        for b, x_ref in zip(state["rhs"][:solves], state["x_ref"]):
            t0 = perf_counter()
            with span(rec, "parallel.solve"):
                x = ex.solve(b)
            solve_s.append(perf_counter() - t0)
            ops.done(bits_equal(x, x_ref) and residual_ok(state["a"], b, x),
                     "pool solve: x not bit-equal to in-process engine")
    except WorkerCrashError as exc:
        ops.done(False, f"pool lifecycle: {exc!r}")
    finally:
        if ex is not None:
            t0 = perf_counter()
            with span(rec, "parallel.close"):
                ex.close()
            close_s = perf_counter() - t0
    leaked = _shm_segments() - segments
    ops.done(leaked == 0, f"pool close: {leaked} /dev/shm segments leaked")
    return factor_s, solve_s, close_s, leaked, ex


def setup(size: dict, seed: int) -> dict:
    t0 = perf_counter()
    a = seeded(poisson3d(size["nx"]), seed)
    rng = np.random.default_rng(seed)
    rhs = [rng.standard_normal(a.nrows) for _ in range(size["solves"])]
    gen_s = perf_counter() - t0
    ref = PanguLUSolver(a, scheduler="trojan", gpu=POOL_GPU,
                        block_size=size["block_size"],
                        analysis_cache=None).factorize()
    state = {"a": a, "rhs": rhs, "ref": ref, "gen_s": gen_s,
             "x_ref": [ref.solve(b, batch_solve=True) for b in rhs]}
    warmup = Ops()
    _lifecycle(state, size, warmup, solves=1)  # untimed warm-up lifecycle
    if warmup.failed:
        raise RuntimeError(f"warm-up lifecycle failed: {warmup.failures}")
    return state


def run(state: dict, size: dict, ops) -> dict:
    factor, solve, walls = [], [], 0.0
    for _ in range(size["reps"]["lifecycles"]):
        factor_s, solve_s, close_s, _, _ = _lifecycle(state, size, ops)
        if factor_s is not None:
            factor.append(factor_s)
            solve.extend(solve_s)
            walls += factor_s + sum(solve_s) + close_s
    if not (factor and solve):
        return {}  # every lifecycle crashed; ops says so
    state["untraced_wall"] = walls
    return {"pool_factor_s": (median(factor), len(factor)),
            "pool_solve_ms": (1e3 * median(solve), len(solve))}


def traced(state: dict, size: dict, ops, rec) -> dict:
    wall, leaked, ex = 0.0, 0, None
    for n in range(size["reps"]["lifecycles"]):
        rec.op = f"lifecycle{n}"
        factor_s, solve_s, close_s, leak, ex = _lifecycle(state, size, ops,
                                                          rec)
        wall += (factor_s or 0.0) + sum(solve_s) + (close_s or 0.0)
        leaked += leak
    rec.op = None
    extras = trace_quality(rec, wall, state["untraced_wall"])
    if ops.failed:
        return extras  # a crashed pool left nothing to take apart
    res = ex.result
    batches = res.batch_plan.batches
    n_life = size["reps"]["lifecycles"]

    # the same batch plan replayed in this process: what the numeric
    # phase costs with no dispatch, no barrier and no second core
    engine = PanguLUSolver(
        state["a"], scheduler="trojan", gpu=POOL_GPU,
        block_size=size["block_size"],
        analysis_cache=None).prepare_engine()[2]
    by_type = pipeline.replay_batches(engine, batches, by_type=True)
    L2, U2 = engine.extract_factors()
    ops.require(bits_equal(L2, res.L) and bits_equal(U2, res.U),
                "pool: in-process replay of the batch plan not bit-equal")
    replay_s = pipeline.replay_batches(engine, batches, by_type=False)["all"]
    numeric_s = rec.totals()["parallel.numeric"] / n_life

    # one single-worker lifecycle: pure coordination overhead
    w1_ops = Ops()
    w1_factor_s, _, _, leak, ex1 = _lifecycle(state, size, w1_ops,
                                              workers=1)
    ops.require(not w1_ops.failed, f"pool w1: {w1_ops.failures}")
    leaked += leak

    extras.update({f"kernels.{k}_s": v * n_life for k, v in by_type.items()})
    extras.update(_plan_phase(rec, engine.dag, state["ref"], n_life,
                              len(state["rhs"]), size["workers"], ops))
    extras.update({
        "kernels.busy_s": replay_s * n_life,
        "kernels.tasks": engine.dag.n_tasks * n_life,
        "parallel.batches": len(batches),
        "parallel.barrier_us": 1e6 * (numeric_s - replay_s) / len(batches),
        "parallel.w1_factor_s": w1_factor_s,
        "parallel.coord_overhead_s": (ex1.phase_seconds["numeric"]
                                      - replay_s),
        "parallel.messages": res.messages,
        "parallel.comm_bytes": res.comm_bytes,
        "parallel.worker_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "parallel.shm_leaked": leaked,
        "matrices.gen_s": state["gen_s"],
    })
    return extras


def _plan_phase(rec, dag, ref, n_life: int, n_solves: int, workers: int,
                ops) -> dict:
    """The coordinator's plan phase rebuilt from ``core`` and ``verify``
    calls: record the batch plan, conflict-scan it, build the PlanSpec
    and certify it — once per factorisation, and twice (L and U solve
    DAGs) per pool solve."""
    model = GPUCostModel(POOL_GPU)
    grid = ProcessGrid(workers)
    violations = 0

    def step(name, times, fn):
        """Run ``fn`` once; book its time ``times`` over, as often as
        the pool's lifecycles ran it."""
        t0 = perf_counter()
        out = fn()
        rec.aggregate(name, (perf_counter() - t0) * times)
        return out

    def check(dag, solve: bool, times: int) -> float:
        nonlocal violations
        t0 = perf_counter()
        plan = step("core.sched", times, lambda: record_batch_plan(
            dag, model, scheduler="trojan", solve=solve))
        report = step("verify.schedule", times, lambda: verify_schedule(
            dag, plan.batches, gpu=POOL_GPU))
        spec = step("verify.plan_build", times,
                    lambda: PlanSpec.from_execution(dag, grid, plan.batches))
        cert = step("verify.plan_certify", times, lambda: verify_plan(spec))
        violations += len(report.violations) + len(cert.violations)
        rec.count("core.sched_tasks", dag.n_tasks * times)
        rec.count("core.batches", len(plan.batches) * times)
        return perf_counter() - t0

    check(dag, solve=False, times=n_life)
    solve_s = sum(check(ctx.dag_for(1), solve=True,
                        times=n_life * n_solves)
                  for ctx in ref.solve_contexts())
    ops.require(violations == 0, f"pool plans: {violations} violations")
    totals = rec.totals()
    verify_s = sum(totals[k] for k in ("verify.schedule",
                                       "verify.plan_build",
                                       "verify.plan_certify"))
    return {"verify.violations": violations,
            "verify.share_of_sched": verify_s / totals["core.sched"],
            "parallel.solve_plan_ms": 1e3 * solve_s}


def teardown(state: dict) -> None:
    state.clear()
