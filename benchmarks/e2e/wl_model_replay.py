"""model_replay — the researcher's workflow behind Figures 9–12.

Set-up factorises three analogues × {superlu, pangulu} once to record
exact per-task stats.  Part A replays the Trojan schedule of every run
against two GPU models (``resimulate``); part B runs the cluster
simulator on synthetic banded DAGs (lossless, and under the benchmark's
own copy of the chaos fault spec) and on the recorded real DAGs at 16
H100 ranks.  ``core``'s admission loop and ``cluster``'s event engine
do all the work, kernels none: the same admission loop warm_newton
drives through ``NumericBackend`` runs here through ``ReplayBackend``,
and the same event loop runs lossless and faulty.

The recorded matrices keep their canonical generator seeds so every
simulated statistic (``th_speedup_geomean``, event and message counts,
makespans) is identical across seeds and commits; ``--seed`` seeds the
fault injection.
"""

from __future__ import annotations

from time import perf_counter

from repro.cluster import (
    DistributedSimulator,
    FaultSpec,
    H100_CLUSTER,
    ProcessGrid,
    banded_block_dag,
)
from repro.core import make_scheduler
from repro.core.executor import EstimateBackend, ReplayBackend
from repro.core.fusion import merge_schur_tasks
from repro.gpusim import H100_SXM, RTX5090, GPUCostModel, KernelLaunch
from repro.solvers import PanguLUSolver, SuperLUSolver, resimulate
from repro.verify.plan import PlanSpec, verify_plan

from common import TimedBackend, analogue, trace_quality
from config import HERE
from stats import geomean, median

RECORDED = ("cage12", "Lin", "audikw_1")  # cage band, 3-D grid, 3-D FEM
PANGULU_BLOCK = 16
REPLAY_GPUS = (RTX5090, H100_SXM)
SYNTHETIC_POLICIES = ("trojan", "serial", "streams")
FAULTY_POLICIES = ("trojan", "serial")
REALDAG_POLICIES = ("serial", "trojan")
FAULTS = HERE / "faults_chaos.json"


def setup(size: dict, seed: int) -> dict:
    t0 = perf_counter()
    mats = {name: analogue(name, size["scale"], 0) for name in RECORDED}
    gen_s = perf_counter() - t0
    runs = []
    for name, a in mats.items():
        runs.append((name, "superlu", SuperLUSolver(
            a, scheduler="trojan", analysis_cache=None).factorize()))
        runs.append((name, "pangulu", PanguLUSolver(
            a, scheduler="trojan", block_size=PANGULU_BLOCK,
            analysis_cache=None).factorize()))
    synthetic = [(ranks, banded_block_dag(nb, bw))
                 for ranks, nb, bw in size["synthetic"]]
    faults = FaultSpec.from_json(FAULTS)
    return {"runs": runs, "synthetic": synthetic, "gen_s": gen_s,
            "faults": faults.with_seed(faults.seed + seed)}


def _sim_cells(state: dict, size: dict) -> list:
    """One part-B sweep: ``(class, label, make_simulator)``."""
    cells = []
    for ranks, dag in state["synthetic"]:
        for policy in SYNTHETIC_POLICIES:
            cells.append(("lossless", f"banded/{ranks}/{policy}",
                          lambda d=dag, r=ranks, p=policy:
                          DistributedSimulator(d, EstimateBackend(),
                                               H100_CLUSTER, r, p)))
    for ranks, dag in state["synthetic"][:size["faulty_cells"]]:
        for policy in FAULTY_POLICIES:
            cells.append(("faulty", f"chaos/{ranks}/{policy}",
                          lambda d=dag, r=ranks, p=policy:
                          DistributedSimulator(d, EstimateBackend(),
                                               H100_CLUSTER, r, p,
                                               faults=state["faults"])))
    for name, kind, run in state["runs"]:
        for policy in REALDAG_POLICIES:
            cells.append(("realdag", f"{name}/{kind}/{policy}",
                          lambda r=run, p=policy:
                          DistributedSimulator(r.dag, ReplayBackend(r.stats),
                                               H100_CLUSTER, size["ranks"],
                                               p)))
    return cells


def _speedup(makespans: dict, state: dict) -> float:
    """Geomean over the recorded runs of makespan(serial)/makespan(trojan)
    at ``ranks`` H100 ranks — simulated time, so exact."""
    return geomean([makespans[f"{name}/{kind}/serial"]
                    / makespans[f"{name}/{kind}/trojan"]
                    for name, kind, _ in state["runs"]])


def run(state: dict, size: dict, ops) -> dict:
    first: dict = {}

    def same(label, *values) -> bool:
        """Simulated statistics must repeat exactly across repeats."""
        return first.setdefault(label, values) == values

    replay, timed_wall = [], 0.0
    for _ in range(size["reps"]["replays"]):
        tasks = 0
        t0 = perf_counter()
        for name, kind, result in state["runs"]:
            for gpu in REPLAY_GPUS:
                r = resimulate(result, "trojan", gpu,
                               merge_schur=kind == "superlu")
                tasks += r.task_count
                ops.done(same(f"replay/{name}/{kind}/{gpu.name}",
                              r.kernel_count, r.total_time),
                         f"replay {name}/{kind}/{gpu.name}: not repeatable")
        dt = perf_counter() - t0
        timed_wall += dt
        replay.append(tasks / dt)
    sims = []
    cells = _sim_cells(state, size)
    for _ in range(size["reps"]["sims"]):
        events, wall, makespans = 0, 0.0, {}
        for _, label, make in cells:
            sim = make()
            t0 = perf_counter()
            res = sim.run()
            wall += perf_counter() - t0
            events += res.events.events
            makespans[label] = res.makespan
            ops.done(same(f"sim/{label}", res.events.events, res.messages,
                          res.makespan),
                     f"simulate {label}: not repeatable")
        timed_wall += wall
        sims.append(events / wall)
        ops.require(same("speedup", _speedup(makespans, state)),
                    "th_speedup_geomean not repeatable")
    state["untraced"] = first
    state["untraced_wall"] = timed_wall
    return {
        "sched_tasks_per_s": (median(replay), len(replay)),
        "sim_events_per_s": (median(sims), len(sims)),
        "th_speedup_geomean": (first["speedup"][0], 1),
    }


def traced(state: dict, size: dict, ops, rec) -> dict:
    ref = state["untraced"]
    wall = 0.0
    for n in range(size["reps"]["replays"]):
        for name, kind, result in state["runs"]:
            for gpu in REPLAY_GPUS:
                rec.op = f"replay{n}/{name}/{kind}/{gpu.name}"
                t0 = perf_counter()
                r = _traced_resimulate(rec, result, gpu, kind == "superlu")
                wall += perf_counter() - t0
                ops.require(
                    (r.kernel_count, r.total_time)
                    == ref[f"replay/{name}/{kind}/{gpu.name}"],
                    f"replay {name}/{kind}/{gpu.name}: traced path differs")
    cells = _sim_cells(state, size)
    sweep = {"events": 0, "cohorts": 0, "messages": 0, "makespan": 0.0,
             "retransmits": 0, "reexecuted": 0}
    by_class = {c: [0, 0.0] for c in ("lossless", "faulty", "realdag")}
    for n in range(size["reps"]["sims"]):
        for cls, label, make in cells:
            rec.op = f"sim{n}/{label}"
            sim = make()
            t0 = perf_counter()
            with rec.span(f"cluster.sim_{cls}"):
                res = sim.run()
            dt = perf_counter() - t0
            wall += dt
            by_class[cls][0] += res.events.events
            by_class[cls][1] += dt
            ops.require((res.events.events, res.messages, res.makespan)
                        == ref[f"sim/{label}"],
                        f"simulate {label}: traced run differs")
            if n == 0:
                sweep["events"] += res.events.events
                sweep["cohorts"] += res.events.cohorts
                sweep["messages"] += res.messages
                sweep["makespan"] += res.makespan
                if res.faults is not None:
                    sweep["retransmits"] += res.faults.retransmits
                    sweep["reexecuted"] += res.faults.reexecuted
    rec.op = None
    extras = trace_quality(rec, wall, state["untraced_wall"])
    extras.update({
        "cluster.events": sweep["events"],
        "cluster.cohorts": sweep["cohorts"],
        "cluster.messages": sweep["messages"],
        "cluster.makespan_ms": 1e3 * sweep["makespan"],
        "cluster.retransmits": sweep["retransmits"],
        "cluster.reexecuted_tasks": sweep["reexecuted"],
        "matrices.gen_s": state["gen_s"],
    })
    for cls, (events, seconds) in by_class.items():
        extras[f"cluster.events_per_s_{cls}"] = events / seconds
    extras.update(_single_gpu_baseline(state))
    grid = ProcessGrid(size["ranks"])
    for _, _, result in state["runs"]:
        with rec.span("cluster.certify"):
            cert = verify_plan(PlanSpec.from_dag(result.dag, grid,
                                                 gpu=H100_CLUSTER.gpu))
        ops.require(cert.ok, f"plan certification: {cert.violations[:1]}")
    extras["gpusim.launch_time_us"] = _launch_time_us()
    return extras


def _traced_resimulate(rec, result, gpu, merge_schur: bool):
    """``resimulate(result, "trojan", gpu, merge_schur=...)`` from its
    parts, with the admission loop's own time separated from the
    backend's."""
    dag, stats = result.dag, result.stats
    if merge_schur:
        with rec.span("core.fusion"):
            fusion = merge_schur_tasks(dag)
            dag, stats = fusion.dag, fusion.fuse_stats(stats)
    timed = TimedBackend(ReplayBackend(stats))
    with rec.span("core.replay"):
        schedule = make_scheduler("trojan", dag, timed,
                                  GPUCostModel(gpu)).run()
        rec.aggregate("core.replay_backend", timed.seconds)
    rec.count("core.sched_tasks", schedule.task_count)
    rec.count("core.batches", schedule.kernel_count)
    rec.count("core.kernel_launches", timed.calls)
    return schedule


def _single_gpu_baseline(state: dict) -> dict:
    """The serial (one kernel per task) policy on one H100: its host
    scheduling rate, and the simulated single-GPU Trojan speed-up."""
    tasks, seconds, ratios = 0, 0.0, []
    for _, kind, result in state["runs"]:
        t0 = perf_counter()
        serial = resimulate(result, "serial", H100_SXM)
        seconds += perf_counter() - t0
        tasks += serial.task_count
        trojan = resimulate(result, "trojan", H100_SXM,
                            merge_schur=kind == "superlu")
        ratios.append(serial.total_time / trojan.total_time)
    return {"core.baseline_tasks_per_s": tasks / seconds,
            "core.th_speedup_1gpu": geomean(ratios)}


def _launch_time_us(repeats: int = 20000) -> float:
    model = GPUCostModel(H100_SXM)
    launch = KernelLaunch(cuda_blocks=96, flops=1 << 20, bytes=1 << 18,
                          shared_mem_bytes=1 << 14, n_tasks=12)
    t0 = perf_counter()
    for _ in range(repeats):
        model.launch_time(launch)
    return 1e6 * (perf_counter() - t0) / repeats


def teardown(state: dict) -> None:
    state.clear()
