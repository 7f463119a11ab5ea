"""CPU reference solvers for the Table-7 comparison.

Two cost profiles over the same verified numeric engine:

* ``"superlu_cpu"`` — supernodal right-looking CPU factorisation
  (SuperLU_DIST v9.1.0 run CPU-only);
* ``"mumps"`` — multifrontal CPU factorisation (MUMPS v5.6.0), modelled
  with wider panels and higher per-core efficiency, which is why it often
  leads the CPU columns of Table 7.

CPU execution pays only a sub-µs dispatch per task and keeps decent
per-core efficiency on tiny kernels, so it is never launch-bound — the
reason the paper's CPU baselines beat the pre-Trojan-Horse GPU paths.
The makespan is Brent's bound over the task DAG:
``max(total_core_seconds / (cores · 0.9), weighted critical path)``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.dag import TaskDAG
from repro.gpusim.specs import CPUSpec, XEON_6462C
from repro.kernels.tilekernels import KernelStats
from repro.ordering import compute_ordering
from repro.solvers.engine import NumericBackend, NumericEngine
from repro.sparse import CSRMatrix, permute_symmetric, triangular_solve
from repro.symbolic import find_supernodes, symbolic_fill

CPU_PROFILES = {
    # (panel width, per-core efficiency on solver kernels)
    "superlu_cpu": (32, 0.25),
    "mumps": (48, 0.40),
}
"""Supported CPU solver profiles."""


def cpu_makespan(dag: TaskDAG, stats: Mapping[int, KernelStats],
                 cpu: CPUSpec, efficiency: float) -> float:
    """Simulated CPU numeric-phase seconds from recorded per-task stats.

    Per-core rates: ``fp64_gflops / cores × efficiency`` for compute,
    ``mem_bw / cores`` for traffic; each task additionally costs
    ``task_overhead_us`` of dispatch.  Brent's bound combines the work and
    span terms.
    """
    core_rate = cpu.fp64_gflops / cpu.cores * efficiency * 1e9
    core_bw = cpu.mem_bw_gbs / cpu.cores * 1e9
    task_times = np.zeros(dag.n_tasks)
    for tid, s in stats.items():
        task_times[tid] = (cpu.task_overhead_us * 1e-6
                           + max(s.flops / core_rate, s.bytes / core_bw))
    work = float(task_times.sum()) / (cpu.cores * 0.9)
    # span: longest weighted path through the DAG (reverse topo DP)
    span = np.zeros(dag.n_tasks)
    order = []
    pred = dag.pred_count.copy()
    stack = dag.initial_ready()
    while stack:
        t = stack.pop()
        order.append(t)
        for s in dag.successors[t]:
            pred[s] -= 1
            if pred[s] == 0:
                stack.append(s)
    for t in reversed(order):
        best = 0.0
        for s in dag.successors[t]:
            if span[s] > best:
                best = span[s]
        span[t] = task_times[t] + best
    return max(work, float(span.max()) if span.size else 0.0)


@dataclass
class CPUSolverResult:
    """Outcome of a CPU factorisation (Table-7 row ingredients)."""

    solver: str
    cpu: str
    L: CSRMatrix
    U: CSRMatrix
    perm: np.ndarray
    numeric_seconds: float
    total_flops: int
    phase_seconds: dict[str, float]
    dag: TaskDAG
    stats: Mapping[int, KernelStats]

    @property
    def gflops(self) -> float:
        """Achieved numeric-phase throughput."""
        return (self.total_flops / self.numeric_seconds / 1e9
                if self.numeric_seconds else 0.0)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` with the computed factors."""
        b = np.asarray(b, dtype=np.float64)
        pb = b[self.perm]
        y = triangular_solve(self.L, pb, lower=True)
        z = triangular_solve(self.U, y, lower=False)
        x = np.empty_like(z)
        x[self.perm] = z
        return x


class CPUSolver:
    """CPU sparse direct solver under a :class:`CPUSpec` cost model.

    Parameters
    ----------
    a:
        System matrix.
    profile:
        ``"superlu_cpu"`` or ``"mumps"`` (see :data:`CPU_PROFILES`).
    cpu:
        Hardware description (default: the paper's Xeon 6462C).
    ordering:
        Fill-reducing ordering name.
    """

    def __init__(self, a: CSRMatrix, profile: str = "superlu_cpu",
                 cpu: CPUSpec = XEON_6462C, ordering: str = "mindeg"):
        if profile not in CPU_PROFILES:
            raise ValueError(
                f"unknown CPU profile {profile!r}; choose from {sorted(CPU_PROFILES)}"
            )
        self.a = a
        self.profile = profile
        self.cpu = cpu
        self.ordering = ordering
        self.result: CPUSolverResult | None = None

    def factorize(self) -> CPUSolverResult:
        """Factorise and attach the simulated CPU numeric time."""
        panel, eff = CPU_PROFILES[self.profile]
        t0 = time.perf_counter()
        perm = compute_ordering(self.a, self.ordering)
        permuted = permute_symmetric(self.a, perm)
        t1 = time.perf_counter()
        fill = symbolic_fill(permuted)
        part = find_supernodes(fill, max_size=panel, relax=2)
        engine = NumericEngine(permuted, part, sparse_tiles=False, fill=fill)
        t2 = time.perf_counter()
        backend = NumericBackend(engine)
        dag = engine.dag
        pred = dag.pred_count.copy()
        stack = dag.initial_ready()
        total_flops = 0
        while stack:
            tid = stack.pop()
            stats = backend.run_task(dag.tasks[tid], False)
            total_flops += stats.flops
            for s in dag.successors[tid]:
                pred[s] -= 1
                if pred[s] == 0:
                    stack.append(s)
        numeric_seconds = cpu_makespan(dag, backend.stats, self.cpu, eff)
        L, U = engine.extract_factors()
        t3 = time.perf_counter()
        self.result = CPUSolverResult(
            solver=self.profile,
            cpu=self.cpu.name,
            L=L, U=U, perm=perm,
            numeric_seconds=numeric_seconds,
            total_flops=total_flops,
            phase_seconds={
                "reorder": t1 - t0,
                "symbolic": t2 - t1,
                "numeric": t3 - t2,
            },
            dag=dag,
            stats=backend.stats,
        )
        return self.result

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (factorises on first use)."""
        if self.result is None:
            self.factorize()
        return self.result.solve(b)
