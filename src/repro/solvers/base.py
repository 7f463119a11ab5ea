"""Shared front-end machinery for the solver substrates."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.analysis_cache import DEFAULT_ANALYSIS_CACHE, AnalysisCache
from repro.core.baselines import make_scheduler
from repro.core.dag import _gather_csr
from repro.core.executor import BatchRecord
from repro.core.scheduler import ScheduleResult
from repro.gpusim.costmodel import GPUCostModel, KernelLaunch
from repro.gpusim.specs import GPUSpec, RTX5090
from repro.ordering import compute_ordering
from repro.solvers.engine import (
    FactorizationResult,
    KernelGroups,
    LazyKernelStats,
    NumericBackend,
    NumericEngine,
    execute_kernel_groups,
    index_kernel_groups,
)
from repro.sparse import CSRMatrix, permute_symmetric
from repro.sparse.blocking import Partition
from repro.verify.hazards import batch_atomic_flags


def require_finite(a: CSRMatrix) -> None:
    """Raise ``ValueError`` naming the first NaN/Inf entry of ``a``.

    Non-finite values must be refused up front: factor extraction keeps
    entries with ``abs(x) > tol``, which is false for NaN, so a NaN
    entry would not fail the factorisation but silently truncate the
    factors and only surface as a zero pivot at ``solve()``.
    """
    # screened by a sum, which allocates nothing: an up-front boolean
    # mask raised the warm_newton workload's peak RSS by ~3 MB.  An
    # overflowing sum of finite values falls through to the exact scan.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(a.data.sum()):
            return
    finite = np.isfinite(a.data)
    if finite.all():
        return
    q = int(np.argmin(finite))
    row = int(np.searchsorted(a.indptr, q, side="right")) - 1
    raise ValueError(f"matrix entry ({row}, {int(a.indices[q])}) is "
                     f"{float(a.data[q])}: values must be finite")


@dataclass(frozen=True)
class WarmPlan:
    """A recorded schedule compiled for replay on new tile values.

    Batch composition is a function of the pattern, the solver
    configuration and the :class:`GPUSpec` only, so a same-pattern
    refactorise need not re-run the scheduler: it executes the recorded
    launches' kernel groups (:class:`KernelGroups`, indexed once for the
    whole schedule) and recomputes just the value-dependent half of each
    :class:`BatchRecord` — ``flops``/``bytes`` → launch time →
    ``t_start``/``t_end``.  Holds integer arrays and the recorded
    records' static fields only; no solver, engine or DAG reference.

    Attributes
    ----------
    groups:
        Kernel groups of every launch, in launch order, over ``tids``.
    tids:
        Executed task ids (fused Schur tasks expanded to their members,
        in order), concatenated launch by launch.
    atomic:
        Per-task accounting flag, broadcast from the schedule-level
        launch (a fused task's members inherit its flag) — *not* the
        member-level conflict mask the groups were indexed with.
    starts:
        Offset of each launch's first task in ``tids``.
    task_ids, types, cuda_blocks, shared_mem:
        The static half of each launch's :class:`BatchRecord` (shared,
        read-only, with the schedule they were compiled from).
    scheduler, device, task_count, sched_overhead, counts_by_type:
        The value-independent :class:`ScheduleResult` fields.
    """

    groups: KernelGroups
    tids: np.ndarray
    atomic: np.ndarray
    starts: np.ndarray
    task_ids: list
    types: list
    cuda_blocks: list
    shared_mem: list
    scheduler: str
    device: str
    task_count: int
    sched_overhead: float
    counts_by_type: dict


def forms_chain(schedule: ScheduleResult) -> bool:
    """Whether the recorded launches run back to back on one timeline
    (each starts when the previous one ends) — true for every policy
    but ``streams``, whose launches overlap and whose clock therefore
    cannot be rebuilt from per-launch durations alone."""
    t = 0.0
    for batch in schedule.batches:
        if batch.t_start != t:
            return False
        t = batch.t_end
    return schedule.kernel_time == t


def compile_warm_plan(schedule: ScheduleResult, engine: NumericEngine,
                      members=None) -> WarmPlan:
    """Index a recorded chain schedule for replay on ``engine``'s arena.

    ``members`` is the ``(indptr, ids)`` expansion of schedule-level
    task ids to the engine DAG's tasks when the schedule ran on a fused
    DAG (:func:`repro.core.fusion.schur_groups`); ``None`` when they are
    the same ids.  Two masks come out of the expansion, and they differ:
    the *conflict* mask (members that truly share a target tile with
    another member of their launch — these must apply serially, in
    order, or a stacked scatter drops updates) is computed on the
    expanded ids, while the *accounting* flag is the one the scheduler
    computed per schedule-level task and every member inherits.
    """
    arrays = engine.dag.task_arrays()
    sizes = np.fromiter((b.n_tasks for b in schedule.batches),
                        dtype=np.int64, count=len(schedule.batches))
    tids = np.fromiter((t for b in schedule.batches for t in b.task_ids),
                       dtype=np.int64, count=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    launch = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    span = int(arrays.target.max(initial=0)) + 1

    def shared_target(target, launch):
        """Flag entries whose target tile recurs within their launch."""
        return batch_atomic_flags(
            np.where(target >= 0, launch * span + target, -1))

    if members is None:
        conflict = atomic = shared_target(arrays.target[tids], launch)
    else:
        tids, width = _gather_csr(*members, tids)
        first = np.cumsum(width) - width
        target = arrays.target[tids]
        # a fused Schur task's target is its row's lowest column
        atomic = np.repeat(
            shared_target(np.minimum.reduceat(target, first), launch), width)
        conflict = shared_target(target, np.repeat(launch, width))
        starts = first[starts]
    groups = index_kernel_groups(
        engine.arena, arrays, tids, conflict | atomic,
        offsets=np.append(starts, tids.size),
        batch_kernels=engine.batch_kernels)
    return WarmPlan(
        groups=groups, tids=tids, atomic=atomic, starts=starts,
        task_ids=[b.task_ids for b in schedule.batches],
        types=[b.types for b in schedule.batches],
        cuda_blocks=[b.cuda_blocks for b in schedule.batches],
        shared_mem=np.add.reduceat(arrays.shared_mem[tids], starts).tolist(),
        scheduler=schedule.scheduler, device=schedule.device,
        task_count=schedule.task_count,
        sched_overhead=schedule.sched_overhead,
        counts_by_type=schedule.counts_by_type,
    )


# verify: effects(arena)
def replay_warm_plan(plan: WarmPlan, engine: NumericEngine,
                     model: GPUCostModel
                     ) -> tuple[ScheduleResult, LazyKernelStats]:
    """Execute a compiled plan on the engine's (re-stamped) arena.

    Runs every launch's kernel groups, then rebuilds the timeline with
    the scheduler's own arithmetic (``t_end = t_start + launch_time``,
    launch after launch), so the returned schedule and per-task stats
    are bit-identical to a scheduler run over the same values.
    """
    flops, nbytes = execute_kernel_groups(
        engine.arena, plan.groups, plan.atomic,
        sparse_tiles=engine.sparse_tiles)
    stats = LazyKernelStats()
    stats.record_arrays(plan.tids, flops, nbytes)
    batches: list[BatchRecord] = []
    t = 0.0
    for task_ids, types, blocks, shmem, f, b in zip(
            plan.task_ids, plan.types, plan.cuda_blocks, plan.shared_mem,
            np.add.reduceat(flops, plan.starts).tolist(),
            np.add.reduceat(nbytes, plan.starts).tolist()):
        t_end = t + model.launch_time(KernelLaunch(
            cuda_blocks=blocks, flops=f, bytes=b,
            shared_mem_bytes=shmem, n_tasks=len(task_ids)))
        batches.append(BatchRecord(
            t_start=t, t_end=t_end, task_ids=task_ids,
            n_tasks=len(task_ids), cuda_blocks=blocks, flops=f,
            bytes=b, types=types))
        t = t_end
    schedule = ScheduleResult(
        scheduler=plan.scheduler, device=plan.device, batches=batches,
        kernel_count=len(batches), task_count=plan.task_count,
        kernel_time=t, sched_overhead=plan.sched_overhead,
        total_flops=sum(b.flops for b in batches),
        counts_by_type=dict(plan.counts_by_type),
    )
    return schedule, stats


class BlockSolverBase:
    """Template for the GPU solver substrates.

    Subclasses define :meth:`_build_partition` (supernodal vs uniform) and
    the defaults (`tile sparsity`, baseline scheduler name).

    Parameters
    ----------
    a:
        The system matrix.
    ordering:
        Fill-reducing ordering name (see
        :data:`repro.ordering.ORDERING_METHODS`).
    gpu:
        Simulated device (default RTX 5090, the paper's Figure-8 card).
    scheduler:
        Scheduling policy: the substrate's baseline, ``"trojan"`` for the
        paper's strategy, ``"streams"``/``"levelbatch"`` for ablations.
    analysis_cache:
        Pattern-keyed memo for the symbolic analysis.  ``"default"``
        (the default) shares the process-wide
        :data:`~repro.core.analysis_cache.DEFAULT_ANALYSIS_CACHE`;
        pass an :class:`~repro.core.analysis_cache.AnalysisCache` for an
        isolated cache, or ``None`` to disable caching entirely.
    batch_kernels:
        Batched kernel groups in the numeric launches (stacked GEMMs and
        multi-RHS triangular solves; see
        :meth:`repro.solvers.engine.NumericEngine.run_batch_tasks`).
        ``None`` (default) reads the ``REPRO_BATCH_KERNELS`` environment
        knob (on unless ``0``); the factors and recorded stats are
        bit-identical either way.
    """

    solver_name = "block-lu"
    sparse_tiles = False
    default_scheduler = "serial"

    def __init__(self, a: CSRMatrix, ordering: str = "mindeg",
                 gpu: GPUSpec = RTX5090, scheduler: str | None = None,
                 analysis_cache: "AnalysisCache | str | None" = "default",
                 batch_kernels: bool | None = None,
                 **sched_kwargs):
        self.a = a
        self.ordering = ordering
        self.gpu = gpu
        self.scheduler = scheduler or self.default_scheduler
        self.analysis_cache = (DEFAULT_ANALYSIS_CACHE
                               if analysis_cache == "default"
                               else analysis_cache)
        self.batch_kernels = batch_kernels
        self.sched_kwargs = sched_kwargs
        self.result: FactorizationResult | None = None
        # warm path: the configuration the resident ``result.schedule``
        # was recorded under, and its compiled replay plan (built lazily
        # by the first refactorize(), never inside factorize())
        self._plan_config = None
        self._plan: WarmPlan | None = None

    # ------------------------------------------------------------------
    def _build_partition(self, permuted: CSRMatrix):
        """Return ``(partition, fill_or_None)``.

        Substrates that already ran the element-level symbolic analysis
        (the supernodal one) hand the fill to the engine so it is not
        recomputed.
        """
        raise NotImplementedError

    def _cached_fill(self, permuted: CSRMatrix):
        """Element-level fill of the permuted matrix, via the cache.

        Substrates whose partition derives from the fill (the supernodal
        one) call this before the engine exists, so repeated patterns
        skip even the pre-partition analysis.
        """
        from repro.symbolic import symbolic_fill

        if self.analysis_cache is None:
            return symbolic_fill(permuted)
        return self.analysis_cache.fill_for(
            permuted, lambda: symbolic_fill(permuted)
        )

    def _make_scheduler(self, dag, backend, model):
        """Instantiate the scheduling policy (hook for substrates with
        policies outside the generic factory, e.g. PaStiX's dmdas)."""
        return make_scheduler(self.scheduler, dag, backend, model,
                              **self.sched_kwargs)

    def _prepare_schedule(self, engine, backend):
        """Optionally rewrite the DAG before scheduling (hook for the
        SuperLU §3.5.1 Schur-fusion integration).  Returns the DAG and
        backend the scheduler should use."""
        return engine.dag, backend

    def _schedule_members(self, engine):
        """``(indptr, ids)`` expansion of schedule-level task ids to the
        engine DAG's tasks when :meth:`_prepare_schedule` rewrote the
        DAG; ``None`` when the scheduler ran on the engine DAG itself."""
        return None

    def _schedule_config(self, engine) -> tuple:
        """Everything besides the pattern that fixes batch composition
        and launch timing; a compiled plan is only replayed while this
        compares equal to the value its schedule was recorded under."""
        return (self.scheduler, self.gpu, dict(self.sched_kwargs),
                engine.batch_kernels)

    def _run_numeric(self, engine, replay: bool):
        """Execute the numeric tasks on the engine's stamped arena and
        return ``(schedule, stats)``.

        With ``replay`` (a refactorise), a chain schedule recorded under
        the current configuration is compiled once and replayed —
        re-stamp → replay → extract, no scheduler.  Everything else
        (``factorize()``, the ``streams`` policy, the first step after
        ``gpu``/``scheduler``/… changed) runs the scheduler and becomes
        the schedule the next refactorise compiles.
        """
        config = self._schedule_config(engine)
        model = GPUCostModel(self.gpu)
        if replay and config == self._plan_config:
            if self._plan is None and forms_chain(self.result.schedule):
                self._plan = compile_warm_plan(
                    self.result.schedule, engine,
                    self._schedule_members(engine))
            if self._plan is not None:
                return replay_warm_plan(self._plan, engine, model)
        backend = NumericBackend(engine)
        sched_dag, sched_backend = self._prepare_schedule(engine, backend)
        schedule = self._make_scheduler(sched_dag, sched_backend, model).run()
        self._plan_config, self._plan = config, None
        return schedule, backend.stats

    # ------------------------------------------------------------------
    def prepare_engine(self, arena_factory=None
                       ) -> tuple[np.ndarray, CSRMatrix, NumericEngine]:
        """Run the reorder + symbolic front-end and build the engine.

        Returns ``(perm, permuted, engine)`` and records them on the
        solver.  :meth:`factorize` calls this and then schedules the
        numeric phase in-process; ``repro.parallel`` calls it with
        ``arena_factory=SharedTileArena`` so the same front-end feeds a
        multiprocess numeric phase on shared tiles.
        """
        require_finite(self.a)
        t0 = time.perf_counter()
        perm = compute_ordering(self.a, self.ordering)
        permuted = permute_symmetric(self.a, perm)
        t1 = time.perf_counter()
        part, fill = self._build_partition(permuted)
        engine = NumericEngine(permuted, part, sparse_tiles=self.sparse_tiles,
                               fill=fill, cache=self.analysis_cache,
                               batch_kernels=self.batch_kernels,
                               arena_factory=arena_factory)
        self._engine = engine
        self._perm = perm
        self._front_seconds = {"reorder": t1 - t0,
                               "symbolic": time.perf_counter() - t1}
        return perm, permuted, engine

    def factorize(self) -> FactorizationResult:
        """Run all three phases (Figure 1) and return the result.

        Reordering and symbolic run on the "CPU" (measured wall-clock);
        the numeric phase executes real tile arithmetic while the
        scheduler records the simulated GPU timeline.
        """
        perm, _, engine = self.prepare_engine()
        t2 = time.perf_counter()
        schedule, stats = self._run_numeric(engine, replay=False)
        L, U = engine.extract_factors()
        t3 = time.perf_counter()
        self.result = FactorizationResult(
            solver=self.solver_name,
            scheduler=self.scheduler,
            L=L, U=U, perm=perm,
            schedule=schedule,
            dag=engine.dag,
            stats=stats,
            fill_nnz=engine.fill.nnz_lu,
            phase_seconds={
                "reorder": self._front_seconds["reorder"],
                "symbolic": self._front_seconds["symbolic"],
                "numeric": t3 - t2,
            },
        )
        return self.result

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (factorises on first use)."""
        if self.result is None:
            self.factorize()
        return self.result.solve(b)

    def refactorize(self, a_new: CSRMatrix) -> FactorizationResult:
        """Numeric-only refactorisation for a same-pattern matrix.

        Reuses the ordering, symbolic analysis, tile allocation, task
        DAG *and schedule* of the previous :meth:`factorize` call — the
        KLU-style fast path circuit simulators rely on (values change
        every Newton step, structure never does).  The recorded launches
        are compiled into a :class:`WarmPlan` on the first call and
        replayed as pre-grouped stacked kernels from then on; factors,
        stats and the simulated schedule are bit-identical to a fresh
        :meth:`factorize` of ``a_new``.
        """
        if self.result is None:
            raise RuntimeError("call factorize() before refactorize()")
        require_finite(a_new)
        t0 = time.perf_counter()
        permuted = permute_symmetric(a_new, self._perm)
        engine = self._engine
        engine.reset_values(permuted)
        schedule, stats = self._run_numeric(engine, replay=True)
        L, U = engine.extract_factors()
        t1 = time.perf_counter()
        self.a = a_new
        self.result = FactorizationResult(
            solver=self.solver_name,
            scheduler=self.scheduler,
            L=L, U=U, perm=self._perm,
            schedule=schedule,
            dag=engine.dag,
            stats=stats,
            fill_nnz=engine.fill.nnz_lu,
            phase_seconds={"reorder": 0.0, "symbolic": 0.0,
                           "numeric": t1 - t0},
        )
        return self.result
