"""Real multiprocess DAG execution over shared-memory tile pools.

The single-process engines execute the Trojan-Horse batch schedule as
stacked kernels in one address space; this package executes the *same*
schedule on N spawned worker processes over a
:class:`~repro.parallel.shmem.SharedTileArena` — the pooled tile
storage re-homed onto ``multiprocessing.shared_memory`` segments — with
a coordinator (:class:`~repro.parallel.executor.ParallelExecutor`)
slicing each batch by owner-compute rank into one program per worker,
and the workers stepping through the batches in lockstep on a shared
barrier.  Every dispatched plan is
conflict-scanned (``verify.effects``) and, by default, certified by
``PlanVerifier`` first; results are bit-identical to the single-process
engine for any worker count.
"""

from repro.parallel.executor import (
    ParallelExecutor,
    ParallelFactorization,
    WorkerCrashError,
    elidable_barriers,
    message_accounting,
)
from repro.parallel.shmem import (
    SharedArenaSpec,
    SharedRhsPool,
    SharedRhsSpec,
    SharedTileArena,
)
from repro.parallel.worker import TaskColumns, WorkerProgram, worker_main

__all__ = [
    "ParallelExecutor",
    "ParallelFactorization",
    "SharedArenaSpec",
    "SharedRhsPool",
    "SharedRhsSpec",
    "SharedTileArena",
    "TaskColumns",
    "WorkerCrashError",
    "WorkerProgram",
    "elidable_barriers",
    "message_accounting",
    "worker_main",
]
