"""Discrete-event simulation of distributed numeric factorisation.

One simulated process per GPU; tiles owned 2-D block-cyclically; an edge
of the task DAG whose producer and consumer live on different ranks
becomes a message (producer's output tile, latency+bandwidth cost).  Each
process runs its own scheduler — the paper's integration point: baseline
per-task execution, the four-stream ablation, or the full Trojan Horse
Aggregate/Batch pipeline.

Contention-free network, zero software overhead on message handling, and
eager sends (a tile ships the moment its producer finishes) — the
standard simplifications for strong-scaling studies, recorded in
DESIGN.md §3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.eventarena import EventLoopStats
from repro.cluster.faults import FaultSpec, FaultStats
from repro.cluster.grid import ProcessGrid
from repro.cluster.network import ClusterSpec
from repro.core.dag import TaskDAG
from repro.core.executor import ExecutionBackend
from repro.verify.trace import DistTrace

POLICIES = ("serial", "streams", "trojan", "dmdas")
"""Per-process scheduling policies supported by the simulator."""


@dataclass
class DistributedResult:
    """Outcome of one distributed factorisation simulation."""

    cluster: str
    policy: str
    nprocs: int
    makespan: float
    total_tasks: int
    total_kernels: int
    total_flops: int
    per_proc_kernels: list[int]
    per_proc_busy: list[float]
    messages: int
    comm_bytes: int
    timeline: list[tuple[int, float, float, list[int]]] | None = None
    #: Verifier-ready communication trace (``record_trace=True`` runs);
    #: feed it to :class:`repro.verify.trace.TraceVerifier`.
    trace: DistTrace | None = None
    #: Fault accounting (``faults=FaultSpec(...)`` runs only).
    faults: FaultStats | None = None
    #: Event-loop counters (events processed, cohort sizes, peak queue
    #: depth, events/sec).
    events: EventLoopStats | None = None

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")

    @property
    def gflops(self) -> float:
        """Aggregate cluster throughput."""
        return (self.total_flops / self.makespan / 1e9
                if self.makespan > 0 else 0.0)

    @property
    def load_balance(self) -> float:
        """mean/max busy-time ratio (1.0 = perfectly balanced).

        An empty ``per_proc_busy`` (a result that has not run yet) is
        vacuously balanced: 1.0, rather than a zero-size reduction error.
        """
        busy = np.asarray(self.per_proc_busy, dtype=np.float64)
        if busy.size == 0:
            return 1.0
        return float(busy.mean() / busy.max()) if busy.max() > 0 else 1.0

    def summary(self) -> dict:
        """Compact dict for benchmark tables.

        Fault-injected runs also carry the fault counters (drops,
        retransmits, re-executed tasks, …) so CI can assert on them.
        """
        out = {
            "cluster": self.cluster,
            "policy": self.policy,
            "gpus": self.nprocs,
            "time_s": self.makespan,
            "gflops": self.gflops,
            "kernels": self.total_kernels,
            "messages": self.messages,
            "comm_MB": self.comm_bytes / 1e6,
            "balance": round(self.load_balance, 3),
        }
        if self.faults is not None:
            out.update(self.faults.as_dict())
        if self.events is not None:
            out["events"] = self.events.as_dict()
        return out


class DistributedSimulator:
    """Event-driven cluster-level factorisation simulation.

    Parameters
    ----------
    dag:
        Task DAG whose tasks carry tile metadata (``nnz`` sizes the
        messages).
    backend:
        Shared execution backend (replay/estimate; numeric also works —
        tasks execute exactly once across all processes).
    cluster:
        Hardware description (GPU + links).
    nprocs:
        Number of processes/GPUs.
    policy:
        Per-process scheduler (see :data:`POLICIES`).
    grid:
        Optional explicit :class:`ProcessGrid`.
    faults:
        Optional :class:`~repro.cluster.faults.FaultSpec`; when given,
        the run injects lossy links, stragglers and rank deaths,
        deterministically from the spec's seed, via the extended event
        loop (:func:`repro.cluster.engine.run_arena_faulty`).
    """

    def __init__(self, dag: TaskDAG, backend: ExecutionBackend,
                 cluster: ClusterSpec, nprocs: int, policy: str = "serial",
                 grid: ProcessGrid | None = None,
                 record_timeline: bool = False,
                 record_trace: bool = False,
                 msg_scale: float = 1.0,
                 faults: FaultSpec | None = None,
                 certify: bool = False):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if msg_scale <= 0:
            raise ValueError("msg_scale must be positive")
        if faults is not None:
            faults.validate(nprocs)
        self.faults = faults
        self.dag = dag
        self.backend = backend
        self.cluster = cluster
        self.nprocs = nprocs
        self.policy = policy
        self.grid = grid or ProcessGrid(nprocs)
        self.record_timeline = record_timeline
        #: record per-task start/done times and the cross-rank send log
        #: into a :class:`~repro.verify.trace.DistTrace` for static
        #: verification (small bookkeeping overhead, off by default)
        self.record_trace = record_trace
        #: message-size multiplier; work-extrapolated studies (Table 7 /
        #: Figure 12 regimes) scale tile bytes quadratically in the linear
        #: tile-scale factor (DESIGN.md §3)
        self.msg_scale = msg_scale
        #: opt-in static precondition: certify the whole plan (races,
        #: wait cycles, liveness, memory high-water marks) with
        #: :mod:`repro.verify.plan` before the first event fires
        self.certify = certify

    def run(self) -> DistributedResult:
        """Simulate the whole factorisation; returns cluster-level stats.

        Fault-free runs use the lean lossless loop; a
        :class:`FaultSpec` switches to the extended loop with per-edge
        delivery tracking, retransmit timers and death/recovery events.
        """
        # lazy import: repro.cluster.engine imports DistributedResult
        from repro.cluster.engine import run_arena, run_arena_faulty

        if self.certify:
            # lazy import: repro.verify.plan imports repro.cluster
            from repro.verify.plan import PlanSpec, verify_plan

            verify_plan(
                PlanSpec.from_dag(
                    self.dag, self.grid, faults=self.faults,
                    gpu=self.cluster.gpu, msg_scale=self.msg_scale),
                subject="distsim-plan").raise_if_violations()
        if self.faults is not None:
            return run_arena_faulty(self)
        return run_arena(self)
