"""Schur-task fusion — the SuperLU_DIST integration detail (§3.5.1).

SuperLU's tiny supernodes explode the task count, and "the bottleneck
arises at the task aggregation stage on the CPU.  To overcome this
challenge, we aggregate all vectors of matrix U in advance, therefore all
Schur complement tasks in one supernode can be done in a relative larger
GEMM."  This module implements that transform on the task DAG: all
SSSSM(k, i, ·) updates sharing a step and a target row panel fuse into
one task whose dependencies/successors are the unions of its members'.

Fusion is a *scheduling-level* rewrite — numerically a fused task simply
executes its members, so factors are unchanged (tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dag import TaskDAG
from repro.core.task import Task, TaskType
from repro.kernels.tilekernels import KernelStats


@dataclass
class FusionResult:
    """A fused DAG plus the member map back to the original tasks.

    Attributes
    ----------
    dag:
        The fused task DAG (new dense task ids).
    members:
        ``members[new_tid]`` lists the original task ids the new task
        executes (singleton for unfused tasks).
    """

    dag: TaskDAG
    members: list[list[int]]

    def fuse_stats(self, stats: dict[int, KernelStats]) -> dict[int, KernelStats]:
        """Aggregate recorded per-task stats onto the fused ids."""
        out = {}
        for new_tid, group in enumerate(self.members):
            picked = [stats[t] for t in group]
            out[new_tid] = KernelStats(flops=sum(s.flops for s in picked),
                                       bytes=sum(s.bytes for s in picked))
        return out


def schur_groups(dag: TaskDAG) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Schur-fusion grouping as arrays, without building a fused DAG.

    Returns ``(new_id, indptr, member_ids)``: ``new_id[tid]`` is the
    fused id of original task ``tid`` (groups numbered by first
    appearance, exactly as :func:`merge_schur_tasks` numbers its tasks),
    and ``member_ids[indptr[g]:indptr[g + 1]]`` are group ``g``'s
    original task ids, ascending.  The warm refactorise path uses this to
    expand a recorded fused schedule back to the tasks it executes.
    """
    arrays = dag.task_arrays()
    n = dag.n_tasks
    nb = dag.part.nblocks
    # SSSSM tasks group by (step k, target row i); every other task is
    # alone in its group
    key = np.where(arrays.type_code == int(TaskType.SSSSM),
                   arrays.k * nb + arrays.i,
                   nb * nb + np.arange(n, dtype=np.int64))
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size, dtype=np.int64)
    new_id = rank[inverse]
    indptr = np.zeros(first.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(new_id, minlength=first.size), out=indptr[1:])
    return new_id, indptr, np.argsort(new_id, kind="stable")


def merge_schur_tasks(dag: TaskDAG) -> FusionResult:
    """Fuse SSSSM tasks per (step k, target row i) group.

    Non-SSSSM tasks are kept one-to-one.  Duplicate edges created by the
    union are collapsed, so predecessor counts stay consistent.
    """
    new_id, indptr, member_ids = schur_groups(dag)
    members = [member_ids[a:b].tolist()
               for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    new_tasks: list[Task] = []
    for g, group in enumerate(members):
        task = dag.tasks[group[0]]
        fused = Task(
            tid=g, type=task.type, k=task.k, i=task.i, j=task.j,
            rows=task.rows, cols=task.cols, nnz=task.nnz,
            sparse=task.sparse, atomic=task.atomic,
            flops_est=task.flops_est, bytes_est=task.bytes_est,
            owner=task.owner,
        )
        for tid in group[1:]:
            task = dag.tasks[tid]
            fused.cols += task.cols
            fused.nnz += task.nnz
            fused.flops_est += task.flops_est
            fused.bytes_est += task.bytes_est
            fused.j = min(fused.j, task.j)
        new_tasks.append(fused)

    n = len(new_tasks)
    succ_sets: list[set[int]] = [set() for _ in range(n)]
    for t in range(dag.n_tasks):
        a = int(new_id[t])
        for s in dag.successors[t]:
            b = int(new_id[s])
            if a != b:
                succ_sets[a].add(b)
    successors = [sorted(s) for s in succ_sets]
    pred_count = np.zeros(n, dtype=np.int64)
    for a in range(n):
        for b in successors[a]:
            pred_count[b] += 1
    fused_dag = TaskDAG(tasks=new_tasks, pred_count=pred_count,
                        successors=successors, part=dag.part)
    return FusionResult(dag=fused_dag, members=members)


class FusedBackend:
    """Execution backend that runs a fused task's members in sequence."""

    def __init__(self, inner, fusion: FusionResult, original: TaskDAG):
        self._inner = inner
        self._fusion = fusion
        self._orig = original

    def run_task(self, task: Task, atomic: bool) -> KernelStats:
        """Execute every member of the fused task; sum the stats."""
        flops = 0
        nbytes = 0
        for tid in self._fusion.members[task.tid]:
            s = self._inner.run_task(self._orig.tasks[tid], atomic)
            flops += s.flops
            nbytes += s.bytes
        return KernelStats(flops=flops, bytes=nbytes)
