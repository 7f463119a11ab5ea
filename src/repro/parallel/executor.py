"""Coordinator of the real multiprocess DAG execution.

:class:`ParallelExecutor` turns the Trojan-Horse batch schedule into
actual parallel wall-clock work: the scheduler's emitted batch sequence
(recorded backend-independently via
:func:`repro.core.executor.record_batch_plan`) is executed by N spawned
worker processes over a :class:`~repro.parallel.shmem.SharedTileArena`.
The coordinator stays off the numeric critical path: the pool is
spawned before the front-end runs (interpreter start-up and imports
overlap reorder/symbolic/plan), each phase ships every worker its whole
program once, the workers step through the batches in lockstep on one
shared :class:`multiprocessing.Barrier`, and the coordinator only
watches liveness and a per-worker progress counter until the one stats
message per worker comes back.  Within a batch, tasks are sliced by
owner-compute rank
(:meth:`~repro.cluster.grid.ProcessGrid.owner_array` of the output
tile) — the same assignment ``DistributedSimulator`` and
``PlanSpec.from_dag`` use — so atomic same-target SSSSMs co-locate on
one worker and stay in batch order, and the static message accounting
of the simulator transfers verbatim to the real run.

Safety is proved, not assumed, before anything is dispatched: every
phase plan — DAG, owner ranks, and the per-rank sequences of concurrent
batch slices the workers will actually execute
(:meth:`~repro.verify.plan.PlanSpec.from_batches`) — is certified once
by :class:`~repro.verify.plan.PlanVerifier`: completeness, dependency
order across batches, same-batch tile hazards, Collector budgets,
cross-rank races and liveness.  A plan with any finding is refused.

Differential contract (pinned by ``tests/test_parallel.py``): L/U and
solve vectors are bit-identical to the single-process engine for any
worker count, per-task stats match ``NumericBackend``'s exactly, and
``messages``/``comm_bytes`` equal ``DistributedSimulator``'s fault-free
accounting on the same plan.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.cluster.grid import ProcessGrid
from repro.core.dag import TaskDAG
from repro.core.executor import BatchPlan, record_batch_plan
from repro.gpusim.costmodel import GPUCostModel
from repro.gpusim.specs import GPUSpec, RTX5090
from repro.kernels.batched import batch_kernels_enabled, pinned_blas_env
from repro.kernels.tilekernels import KernelStats
from repro.parallel.shmem import SharedRhsPool, SharedTileArena
from repro.parallel.worker import TaskColumns, WorkerProgram, worker_main
from repro.solvers import SOLVER_REGISTRY
from repro.solvers.sptrsv import SpTRSVContext
from repro.sparse import CSRMatrix
from repro.verify.hazards import batch_atomic_flags
from repro.verify.plan import PlanSpec, verify_plan


#: Seconds between liveness/progress polls while awaiting workers.
LIVENESS_POLL_S = 0.2


class WorkerCrashError(RuntimeError):
    """A worker died, errored, or stalled; by the time this leaves
    ``factorize()``/``solve()`` the coordinator has reaped the pool and
    unlinked every owned shared segment.

    Attributes
    ----------
    worker:
        Worker id (-1 when no single worker is implicated, e.g. a
        collective timeout).
    phase, batch:
        The phase id and the batch index in flight (-1 when none was:
        the pool was still booting, or between phases).  For ``"died"``
        and ``"timeout"`` it is read from the pool's progress counters
        — the furthest batch any worker had started; for ``"error"``
        the failing worker reports its own.
    exitcode:
        The dead process's exit code (negative = killed by that signal),
        ``None`` for protocol errors and timeouts.
    kind:
        ``"died"``, ``"error"`` (worker raised and reported), or
        ``"timeout"``.
    """

    def __init__(self, worker: int, phase: int, batch: int,
                 exitcode=None, kind: str = "died", detail: str = ""):
        self.worker = worker
        self.phase = phase
        self.batch = batch
        self.exitcode = exitcode
        self.kind = kind
        msg = (f"worker {worker} {kind} (phase {phase}, batch {batch}, "
               f"exitcode={exitcode})")
        if detail:
            msg += "\n" + detail
        super().__init__(msg)


def _cross_owner_edges(dag: TaskDAG, owner: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """``(producer, consumer)`` task ids of the DAG edges whose two
    ends run on different owners."""
    indptr, succ = dag.successor_csr()
    prod = np.repeat(np.arange(dag.n_tasks, dtype=np.int64),
                     np.diff(indptr))
    cross = owner[prod] != owner[succ]
    return prod[cross], succ[cross]


def message_accounting(dag: TaskDAG, owner: np.ndarray,
                       msg_scale: float = 1.0) -> tuple[int, int]:
    """Static cross-owner traffic of a DAG under an ownership map.

    Exactly the fault-free numbers ``DistributedSimulator`` reports: one
    message per cross-rank DAG edge, ``int(8 * nnz * msg_scale)`` bytes
    per message (per-producer truncation).  A pure function of
    ``(dag, owner, msg_scale)`` — the real executor and the simulator
    agree by construction, which the differential suite pins.
    """
    prod, _ = _cross_owner_edges(dag, owner)
    out_bytes = np.floor(
        8.0 * dag.task_arrays().nnz * float(msg_scale)).astype(np.int64)
    return int(prod.size), int(out_bytes[prod].sum())


def elidable_barriers(dag: TaskDAG, owner: np.ndarray, batches: list) -> int:
    """How many of a batch sequence's barriers could be dropped together.

    The barrier between batches ``b`` and ``b + 1`` exists to deliver
    cross-owner DAG edges: an edge whose producer sits in batch ``p``
    and consumer in batch ``c`` needs *one* of the barriers ``p .. c-1``
    kept (every other ordering the certificate relies on is program
    order on one worker).  The fewest barriers that serve every such
    edge is the classic interval-stabbing greedy — keep a barrier only
    when some pending edge's consumer is in the very next batch; the
    rest are elidable.  The count is recorded, not acted on.
    """
    nb = len(batches)
    if nb < 2:
        return 0
    bidx = np.empty(dag.n_tasks, dtype=np.int64)
    bidx[np.concatenate(batches)] = np.repeat(
        np.arange(nb, dtype=np.int64), [len(b) for b in batches])
    prod, cons = _cross_owner_edges(dag, owner)
    # earliest cross-owner consumer batch per producer batch
    first_use = np.full(nb, nb, dtype=np.int64)
    np.minimum.at(first_use, bidx[prod], bidx[cons])
    kept = 0
    due = nb  # earliest consumer batch among edges no kept barrier serves
    for b, use in enumerate(first_use[:-1].tolist()):
        due = min(due, use)
        if due == b + 1:
            kept += 1
            due = nb
    return nb - 1 - kept


@dataclass
class _PhasePlan:
    """One recorded and certified plan, sliced into per-worker programs
    — dispatchable any number of times."""

    dag: TaskDAG
    batch_plan: BatchPlan
    owner: np.ndarray
    spec: PlanSpec
    programs: list[WorkerProgram]
    messages: int
    comm_bytes: int


@dataclass
class ParallelFactorization:
    """Everything a multiprocess factorisation produces.

    ``L``/``U``/``stats`` carry the bit-identity contract against the
    single-process engine; ``batch_plan`` and ``plan`` (the certified
    :class:`~repro.verify.plan.PlanSpec`) are the dispatch artifacts;
    ``messages``/``comm_bytes`` are
    the owner-compute traffic the plan implies.  ``barriers`` is the
    number of lockstep barriers each worker passed (one between each
    pair of consecutive batches) and ``elidable_barriers`` how many of
    them could be dropped together (:func:`elidable_barriers`).
    ``phase_seconds`` keys: ``spawn``, ``reorder``, ``symbolic``,
    ``plan``, ``boot_wait`` (the first phase blocked on workers still
    importing) and ``numeric`` (dispatch to last result).
    """

    solver: str
    scheduler: str
    workers: int
    grid: ProcessGrid
    L: CSRMatrix
    U: CSRMatrix
    perm: np.ndarray
    stats: dict[int, KernelStats]
    dag: TaskDAG
    batch_plan: BatchPlan
    plan: PlanSpec
    messages: int
    comm_bytes: int
    fill_nnz: int
    phase_seconds: dict[str, float] = field(default_factory=dict)
    barriers: int = 0
    elidable_barriers: int = 0


class ParallelExecutor:
    """Coordinator/worker engine over shared-memory tile pools.

    Use as a context manager (workers and shared segments are reaped on
    exit)::

        with ParallelExecutor(a, solver="pangulu", workers=4) as ex:
            res = ex.factorize()
            x = ex.solve(b)

    Parameters
    ----------
    a:
        System matrix.
    solver:
        Substrate key in :data:`~repro.solvers.SOLVER_REGISTRY`.  For
        ``superlu`` the §3.5.1 Schur-fusion rewrite is disabled unless
        explicitly requested — fused tasks bypass the batched kernel
        groups the workers execute.
    workers:
        Worker-process count; also the rank count of the owner-compute
        :class:`~repro.cluster.grid.ProcessGrid`.
    scheduler, solve_scheduler:
        Batch-composition policies for the factor and solve phases.
    msg_scale:
        Message-size multiplier for the traffic accounting (matching
        ``DistributedSimulator``).
    log_dir:
        When set, each worker appends a line-buffered log to
        ``<log_dir>/worker<id>.log`` (the CI failure artifact).
    worker_timeout:
        Seconds without progress — no message and no worker starting a
        new batch — before the pool is declared hung.
    pin_blas:
        When set, workers are spawned under
        :func:`~repro.kernels.batched.pinned_blas_env` with this thread
        count (benchmarks pin to 1: N workers each fanning a threaded
        GEMM oversubscribes the host).  Default ``None`` inherits the
        coordinator's environment unchanged, so coordinator and workers
        run identically-configured kernels.
    """

    def __init__(self, a: CSRMatrix, solver: str = "pangulu",
                 workers: int = 2, *, ordering: str = "mindeg",
                 gpu: GPUSpec = RTX5090, scheduler: str = "trojan",
                 solve_scheduler: str = "trojan",
                 batch_kernels: bool | None = None,
                 msg_scale: float = 1.0, log_dir=None,
                 worker_timeout: float = 300.0, pin_blas: int | None = None,
                 **solver_kwargs):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if solver not in SOLVER_REGISTRY:
            raise ValueError(f"unknown solver {solver!r}")
        if solver == "superlu":
            solver_kwargs.setdefault("merge_schur", False)
        self.solver_name = solver
        self.workers = int(workers)
        self.gpu = gpu
        self.scheduler = scheduler
        self.solve_scheduler = solve_scheduler
        self.batch_kernels = batch_kernels
        self.msg_scale = float(msg_scale)
        self.log_dir = log_dir
        self.worker_timeout = float(worker_timeout)
        self.pin_blas = pin_blas
        self.solver_kwargs = dict(solver_kwargs)
        self._solver = SOLVER_REGISTRY[solver](
            a, ordering=ordering, gpu=gpu, scheduler=scheduler,
            batch_kernels=batch_kernels, **solver_kwargs)
        self.grid = ProcessGrid(self.workers)
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None
        self._barrier = None
        self._progress = None
        self._online = False
        self._shared: list = []
        self._solve_ctx: tuple | None = None
        self._solve_plans: dict[tuple[bool, int], _PhasePlan] = {}
        self._phase_counter = 0
        self.result: ParallelFactorization | None = None
        self.solve_messages = 0
        self.solve_comm_bytes = 0
        self.phase_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------
    # worker-pool lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        """Spawn the worker pool (idempotent; ``factorize`` calls it
        first, so the workers boot under the front-end)."""
        if self._procs:
            return
        t0 = time.perf_counter()
        self._result_q = self._ctx.Queue()
        self._barrier = self._ctx.Barrier(self.workers)
        self._progress = self._ctx.RawArray("q", [-1] * self.workers)
        self._online = False
        env = (pinned_blas_env(self.pin_blas) if self.pin_blas
               else contextlib.nullcontext())
        with env:
            for wid in range(self.workers):
                log_path = None
                if self.log_dir:
                    os.makedirs(self.log_dir, exist_ok=True)
                    log_path = os.path.join(self.log_dir,
                                            f"worker{wid}.log")
                q = self._ctx.Queue()
                proc = self._ctx.Process(
                    target=worker_main,
                    args=(wid, q, self._result_q, self._barrier,
                          self._progress, log_path),
                    daemon=True, name=f"repro-parallel-{wid}")
                proc.start()
                self._procs.append(proc)
                self._task_qs.append(q)
        self.phase_seconds["spawn"] = time.perf_counter() - t0

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker pool (chaos tests SIGKILL one)."""
        return [p.pid for p in self._procs]

    def close(self) -> None:
        """Graceful shutdown: drain workers, release every shared segment."""
        if self._procs:
            for q in self._task_qs:
                try:
                    q.put(("exit",))
                except (OSError, ValueError):
                    pass
            deadline = time.monotonic() + 10.0
            for proc in self._procs:
                proc.join(timeout=max(0.1, deadline - time.monotonic()))
            # a worker that returned has read its "exit", the last thing
            # put on its queue: nothing is left for the feeder to write
            self._kill_pool(
                drained=all(p.exitcode == 0 for p in self._procs))
        self._release_shared()

    def _kill_pool(self, drained: bool = False) -> None:
        """Stop the workers and drop the pool's queues and barrier.

        With ``drained`` queues (a graceful shutdown) the feeder threads
        are joined, so the queues' named semaphores are gone when this
        returns; after a crash a feeder may be blocked writing to a
        worker that will never read, so it is abandoned and the names
        go when it notices the close, on its own thread.
        """
        # SIGKILL, not SIGTERM: it needs no lock (a dead worker may hold
        # the barrier's), frees peers parked at the barrier, and reaches
        # a stopped process
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for q in self._task_qs:
            if drained:
                q.close()
                q.join_thread()
            else:
                q.cancel_join_thread()
                q.close()
        if self._result_q is not None:
            self._result_q.cancel_join_thread()
            self._result_q.close()
        self._procs = []
        self._task_qs = []
        self._result_q = None
        # dropping the barrier unlinks its named semaphores
        self._barrier = None
        self._progress = None

    def _release_shared(self) -> None:
        while self._shared:
            pool = self._shared.pop()
            try:
                pool.close()
            except Exception:
                pass
            try:
                pool.unlink()
            except Exception:
                pass
        self._solve_ctx = None
        self._solve_plans = {}

    def _reap(self) -> None:
        """Crash path: tear the pool down and unlink every segment."""
        self._kill_pool()
        self._release_shared()

    @contextlib.contextmanager
    def _reaping(self) -> Iterator[None]:
        """Reap the pool if the body raises: with the workers spawned
        first, a refused plan or a front-end error has a live pool to
        clean up even outside a ``with`` block."""
        try:
            yield
        except BaseException:
            self._reap()
            raise

    # ------------------------------------------------------------------
    # coordinator protocol
    # ------------------------------------------------------------------
    def _await(self, want: str, expected: int, phase: int) -> list:
        """Collect ``expected`` messages of kind ``want``, polling worker
        liveness and the progress counters; a death, a reported error or
        ``worker_timeout`` seconds in which no worker started a new
        batch raises the structured :class:`WorkerCrashError`."""
        got: list = []
        seen = list(self._progress)
        deadline = time.monotonic() + self.worker_timeout
        while len(got) < expected:
            try:
                msg = self._result_q.get(timeout=LIVENESS_POLL_S)
            except queue_mod.Empty:
                # raise from outside this handler: chained to Empty, the
                # error would pin the queue (and its named semaphores)
                # for as long as a caller holds it
                msg = None
            if msg is None:
                progress = list(self._progress)
                for wid, proc in enumerate(self._procs):
                    if not proc.is_alive():
                        raise WorkerCrashError(wid, phase, max(progress),
                                               exitcode=proc.exitcode,
                                               kind="died")
                if progress != seen:
                    seen = progress
                    deadline = time.monotonic() + self.worker_timeout
                elif time.monotonic() > deadline:
                    raise WorkerCrashError(-1, phase, max(progress),
                                           kind="timeout")
            elif msg[0] == "error":
                _, wid, pid, bidx, detail = msg
                raise WorkerCrashError(wid, pid, bidx, kind="error",
                                       detail=detail)
            elif msg[0] == want:
                got.append(msg)
        return got

    def _run_phase(self, payload: dict, pp: _PhasePlan
                   ) -> tuple[np.ndarray, np.ndarray, float]:
        """Ship every worker its program, await the stats; returns
        per-task ``(flops, bytes)`` and the dispatch-to-last-result
        seconds (the wait for a still-booting pool is booked as
        ``boot_wait``, not here)."""
        if not self._online:
            t0 = time.perf_counter()
            self._await("online", self.workers, phase=0)
            self.phase_seconds["boot_wait"] = time.perf_counter() - t0
            self._online = True
        t0 = time.perf_counter()
        self._phase_counter += 1
        pid = self._phase_counter
        self._progress[:] = [-1] * self.workers
        # indexed, not iterated: a queue bound to a local would be pinned
        # (named semaphores and all) by the traceback of a crash error
        for wid, program in enumerate(pp.programs):
            self._task_qs[wid].put(("phase", pid, payload, program))
        flops = np.zeros(pp.dag.n_tasks, dtype=np.int64)
        nbytes = np.zeros(pp.dag.n_tasks, dtype=np.int64)
        for _, wid, _, wflops, wbytes in self._await("stats", self.workers,
                                                     pid):
            tids = pp.programs[wid].tids
            flops[tids] = wflops
            nbytes[tids] = wbytes
        return flops, nbytes, time.perf_counter() - t0

    def _programs(self, dag: TaskDAG, batches: list,
                  owner: np.ndarray) -> list[WorkerProgram]:
        """Slice every batch by owner rank into one program per worker.

        Atomic flags are computed over the *whole* batch (the same
        shared hazard kernel the single-process Executor uses), then
        sliced — same-target groups land on one worker by owner-compute,
        so the slice order preserves the batch's serial-apply order.
        """
        target = dag.task_arrays().target
        flat = np.concatenate(batches)
        atomic = np.concatenate([batch_atomic_flags(target[tids])
                                 for tids in batches])
        bidx = np.repeat(np.arange(len(batches)), [len(b) for b in batches])
        programs = []
        for r in range(self.workers):
            sel = np.flatnonzero(owner[flat] == r)
            programs.append(WorkerProgram(
                tids=flat[sel], atomic=atomic[sel],
                bounds=np.searchsorted(bidx[sel],
                                       np.arange(len(batches) + 1))))
        return programs

    def _checked_plan(self, dag: TaskDAG, subject: str,
                      solve: bool) -> _PhasePlan:
        """Record one plan and certify it once; refuse to dispatch a plan
        with any finding."""
        model = GPUCostModel(self.gpu)
        if solve:
            plan = record_batch_plan(dag, model,
                                     scheduler=self.solve_scheduler,
                                     solve=True)
        else:
            plan = record_batch_plan(dag, model,
                                     scheduler=self._solver.scheduler,
                                     **self._solver.sched_kwargs)
        spec = PlanSpec.from_batches(dag, self.grid, plan.batches,
                                     gpu=self.gpu, msg_scale=self.msg_scale)
        cert = verify_plan(spec, subject=subject)
        if not cert.ok:
            raise RuntimeError(
                f"refusing to dispatch {subject}: "
                + "; ".join(str(v) for v in cert.violations))
        owner = spec.rank
        messages, comm_bytes = message_accounting(dag, owner, self.msg_scale)
        return _PhasePlan(
            dag=dag, batch_plan=plan, owner=owner, spec=spec,
            programs=self._programs(dag, plan.batches, owner),
            messages=messages, comm_bytes=comm_bytes)

    # ------------------------------------------------------------------
    # factorisation
    # ------------------------------------------------------------------
    def factorize(self) -> ParallelFactorization:
        """Factor ``a`` across the worker pool; returns the result whose
        ``L``/``U``/``stats`` are bit-identical to the single-process
        engine's under the same solver configuration."""
        with self._reaping():
            self.start()
            t0 = time.perf_counter()
            perm, _, engine = self._solver.prepare_engine(
                arena_factory=SharedTileArena)
            arena = engine.arena
            self._shared.append(arena)
            dag = engine.dag
            pp = self._checked_plan(
                dag, f"parallel/{self.solver_name}/factor", solve=False)
            t1 = time.perf_counter()
            payload = {
                "kind": "factor",
                "arena": arena.spec(),
                "columns": TaskColumns.from_arrays(dag.task_arrays()),
                "sparse_tiles": engine.sparse_tiles,
                "batch_kernels": engine.batch_kernels,
            }
            flops, nbytes, numeric_s = self._run_phase(payload, pp)
            L, U = engine.extract_factors()
        stats = {
            tid: KernelStats(flops=f, bytes=b)
            for tid, f, b in zip(range(dag.n_tasks), flops.tolist(),
                                 nbytes.tolist())
        }
        self.phase_seconds.update(self._solver._front_seconds)
        self.phase_seconds["plan"] = t1 - t0 - sum(
            self._solver._front_seconds.values())
        self.phase_seconds["numeric"] = numeric_s
        batches = pp.batch_plan.batches
        self.result = ParallelFactorization(
            solver=self.solver_name, scheduler=self._solver.scheduler,
            workers=self.workers, grid=self.grid,
            L=L, U=U, perm=perm, stats=stats, dag=dag,
            batch_plan=pp.batch_plan, plan=pp.spec,
            messages=pp.messages, comm_bytes=pp.comm_bytes,
            fill_nnz=engine.fill.nnz_lu,
            phase_seconds=dict(self.phase_seconds),
            barriers=len(batches) - 1,
            elidable_barriers=elidable_barriers(dag, pp.owner, batches),
        )
        return self.result

    # ------------------------------------------------------------------
    # solve phase
    # ------------------------------------------------------------------
    def _solve_contexts(self) -> tuple:
        """Shared-arena (L, U) SpTRSV contexts, built once per factor —
        mirrors :meth:`FactorizationResult.solve_contexts` exactly so
        the solve bits match the single-process DAG path."""
        if self._solve_ctx is None:
            res = self.result
            part = res.dag.part
            lctx = SpTRSVContext(res.L, part, lower=True,
                                 unit_diagonal=True,
                                 arena_factory=SharedTileArena)
            uctx = SpTRSVContext(res.U, part, lower=False,
                                 arena_factory=SharedTileArena)
            self._shared.append(lctx.arena)
            self._shared.append(uctx.arena)
            self._solve_ctx = (lctx, uctx)
        return self._solve_ctx

    def _solve_one(self, ctx: SpTRSVContext, b: np.ndarray) -> np.ndarray:
        """One triangular solve phase across the pool.  Cross-owner
        x-block deliveries are the shared RHS pool itself: an UPDATE on
        one worker reads the block another worker's DIAG solved.  The
        checked plan is kept per (triangle, RHS width): later solves of
        the same shape dispatch it without re-recording or
        re-certifying."""
        b2 = b.reshape(b.shape[0], -1) if b.ndim == 2 else b[:, None]
        key = (ctx.lower, b2.shape[1])
        pp = self._solve_plans.get(key)
        if pp is None:
            tri = "L" if ctx.lower else "U"
            pp = self._solve_plans[key] = self._checked_plan(
                ctx.dag_for(b2.shape[1]),
                f"parallel/{self.solver_name}/solve-{tri}", solve=True)
        rhs = SharedRhsPool(ctx.part, b2)
        try:
            batch_sel = (batch_kernels_enabled()
                         if self.batch_kernels is None
                         else bool(self.batch_kernels))
            payload = {
                "kind": "solve",
                "arena": ctx.arena.spec(),
                "rhs": rhs.spec(),
                "columns": TaskColumns.from_arrays(pp.dag.task_arrays()),
                "sparse_tiles": ctx.sparse_tiles,
                "batch_kernels": batch_sel,
                "lower": ctx.lower,
                "unit_diagonal": ctx.unit_diagonal,
            }
            self._run_phase(payload, pp)
            self.solve_messages += pp.messages
            self.solve_comm_bytes += pp.comm_bytes
            x2 = rhs.gather()
            return x2[:, 0] if b.ndim == 1 else x2
        finally:
            rhs.close()
            rhs.unlink()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` across the pool (factorises on first use).

        Applies the same permutation handling as
        :meth:`FactorizationResult.solve` with ``batch_solve=True``, so
        the returned vector is bit-identical to the single-process DAG
        solve path for any worker count.
        """
        if self.result is None:
            self.factorize()
        b = np.asarray(b, dtype=np.float64)
        if b.ndim > 2 or b.shape[0] != self.result.L.nrows:
            raise ValueError("right-hand side shape does not match matrix")
        with self._reaping():
            self.start()
            lctx, uctx = self._solve_contexts()
            perm = self.result.perm
            pb = b[perm] if b.ndim == 1 else b[perm, :]
            y = self._solve_one(lctx, pb)
            z = self._solve_one(uctx, y)
        x = np.empty_like(z)
        x[perm] = z
        return x
