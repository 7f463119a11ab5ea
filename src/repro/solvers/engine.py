"""The shared block-LU numeric engine.

Both solver substrates are expressed as block LU over a partition: tiles
live in dense scratch (the paper's kernels also stage sparse tiles
densely), the task DAG comes from the block-level symbolic fill, and the
four tile kernels perform the arithmetic.  The engine exposes an
:class:`~repro.core.executor.ExecutionBackend`, so any scheduler from
:mod:`repro.core` can drive it — and because the arithmetic per task is
fixed, every schedule produces the same factors up to floating-point
reassociation of commuting Schur updates.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.dag import TaskDAG, build_block_dag
from repro.core.executor import ReplayBackend
from repro.core.scheduler import ScheduleResult
from repro.core.baselines import make_scheduler
from repro.core.task import Task, TaskType
from repro.gpusim.costmodel import GPUCostModel
from repro.gpusim.specs import GPUSpec
from repro.kernels.batched import (
    batch_kernels_enabled,
    batch_solve_enabled,
    batched_geesm,
    batched_ssssm,
    batched_ssssm_products,
    batched_tstrf,
)
from repro.kernels.tilekernels import (
    KernelStats,
    geesm_kernel,
    getrf_kernel,
    ssssm_kernel,
    tstrf_kernel,
)
from repro.solvers.tilepool import TileArena, TileViews
from repro.sparse import COOMatrix, CSRMatrix, triangular_solve
from repro.sparse.blocking import Partition, split_tiles
from repro.symbolic import block_fill, symbolic_fill


#: Kernel-group opcodes.  0–3 are one per-task kernel call of that
#: :class:`TaskType` (GETRF always; everything on the oracle path);
#: the stacked forms follow in execution order within a launch.
_OP_TSTRF = 4      #: stacked multi-RHS triangular solve, row panels
_OP_GEESM = 5      #: stacked multi-RHS triangular solve, column panels
_OP_SSSSM = 6      #: stacked conflict-free Schur update
_OP_PRODUCTS = 7   #: stacked Schur products awaiting the serial apply
_OP_APPLY = 8      #: ordered serial apply of a launch's products


@dataclass(frozen=True)
class KernelGroups:
    """Flat index form of the kernel groups of one or many launches.

    The pure-index half of :func:`run_batch_on_arena`: everything a
    launch needs that depends only on the pattern (which tasks share a
    stacked kernel, which pool slots they read and write, which Schur
    updates must apply serially and in what order) and nothing that
    depends on tile values.  Groups are stored launch by launch in
    execution order; the structure holds integer arrays only — no
    arena, engine or DAG reference — so it can outlive a run and be
    replayed on every same-pattern refactorise.

    Attributes
    ----------
    n_tasks:
        Number of tasks indexed (the length of the stat arrays
        :func:`execute_kernel_groups` returns).
    op:
        Per-group opcode (see the ``_OP_*`` constants).
    pool_t, pool_a, pool_b:
        Per-group shape-class pool of the written tile and of the two
        read operands (diagonal tile for the triangular solves; L and U
        panels for Schur updates).
    offsets:
        ``offsets[g]:offsets[g + 1]`` is group ``g``'s slice of the
        per-member arrays.
    pos:
        Per-member position in the indexed task list.
    slot_t, slot_a, slot_b:
        Per-member pool slots of the three tiles.  Members of an apply
        group carry their target's *pool id* in ``slot_a`` (a launch's
        serial list spans shape classes).
    """

    n_tasks: int
    op: np.ndarray
    pool_t: np.ndarray
    pool_a: np.ndarray
    pool_b: np.ndarray
    offsets: np.ndarray
    pos: np.ndarray
    slot_t: np.ndarray
    slot_a: np.ndarray
    slot_b: np.ndarray


def index_kernel_groups(arena, arrays, tids: np.ndarray, serial: np.ndarray,
                        *, offsets: np.ndarray | None = None,
                        batch_kernels: bool = True) -> KernelGroups:
    """Partition launches into kernel groups — no tile value is read.

    ``tids`` concatenates the launches' task ids (``offsets`` are the
    launch boundaries; ``None`` means one launch) and ``serial`` marks
    the Schur updates that must go through the ordered serial apply:
    every one sharing a target tile with another member of its launch,
    plus any whose accounting reads the target's post-update state.
    Within a launch, GETRF tasks (and every task of a
    single-task launch, or all of them with ``batch_kernels`` off) stay
    per-task calls in launch order; TSTRF, GEESM and conflict-free SSSSM
    tasks group by exact shape class (target pool, first-operand pool —
    which pins all three tile shapes); serial SSSSMs group the same way
    for their products and then form one apply group in launch order.
    All launches are grouped in one stable sort, so indexing a whole
    schedule costs a handful of array passes, not one per launch.
    """
    tids = np.asarray(tids, dtype=np.int64)
    n = tids.size
    code = arrays.type_code[tids].astype(np.int64)
    kk = arrays.k[tids]
    ii = arrays.i[tids]
    jj = arrays.j[tids]
    schur = code == int(TaskType.SSSSM)
    # written tile (i, j) for every type; operands (k, k) for the panel
    # solves, L(i, k) and U(k, j) for Schur updates
    tcls, tslot = arena.locate(ii, jj)
    acls, aslot = arena.locate(np.where(schur, ii, kk), kk)
    bcls, bslot = arena.locate(kk, np.where(schur, jj, kk))
    flat = np.arange(n, dtype=np.int64)
    if offsets is None:
        launch = np.zeros(n, dtype=np.int64)
        alone = n == 1
    else:
        sizes = np.diff(offsets)
        launch = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        alone = sizes[launch] == 1
    if batch_kernels:
        per_task = (code == int(TaskType.GETRF)) | alone
    else:
        per_task = np.ones(n, dtype=bool)
    rank = np.where(per_task, 0,
                    np.where(schur & serial, _OP_PRODUCTS, code + 3))
    npools = len(arena.pools)
    # per-task entries get a unique key (one group each, launch order)
    shape_key = np.where(per_task, flat, tcls * npools + acls)
    apply_of = np.flatnonzero(rank == _OP_PRODUCTS)
    if apply_of.size:
        # serial members appear twice: in their products group and in
        # their launch's apply group (pool id rides in slot_a)
        launch = np.concatenate([launch, launch[apply_of]])
        rank = np.concatenate(
            [rank, np.full(apply_of.size, _OP_APPLY, dtype=np.int64)])
        shape_key = np.concatenate(
            [shape_key, np.zeros(apply_of.size, dtype=np.int64)])
        flat = np.concatenate([flat, apply_of])
        aslot = np.concatenate([aslot, tcls[apply_of]])
    span = max(n, npools * npools) + 1
    sort_key = (launch * (_OP_APPLY + 1) + rank) * span + shape_key
    order = np.argsort(sort_key, kind="stable")
    sort_key = sort_key[order]
    starts = np.flatnonzero(np.diff(sort_key, prepend=-1))
    pos = flat[order]
    first = pos[starts]
    rank = rank[order][starts]
    return KernelGroups(
        n_tasks=n,
        op=np.where(rank == 0, code[first], rank),
        pool_t=tcls[first], pool_a=acls[first], pool_b=bcls[first],
        offsets=np.append(starts, order.size),
        pos=pos, slot_t=tslot[pos], slot_a=aslot[order], slot_b=bslot[pos],
    )


# verify: effects(arena)
def execute_kernel_groups(arena, groups: KernelGroups, atomic: np.ndarray,
                          *, sparse_tiles: bool = False
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Run indexed kernel groups on the arena's current tile values.

    The value-dependent half of :func:`run_batch_on_arena`.  ``atomic``
    is the per-task *accounting* flag (atomic traffic counts the target
    once more); which updates apply serially was already decided by the
    index step, and the two need not coincide — a fused Schur launch
    replayed member by member has conflicts its launch-level flags do
    not mark.  Returns per-task ``(flops, bytes)`` int64 arrays in the
    indexed task order.
    """
    flops = np.zeros(groups.n_tasks, dtype=np.int64)
    nbytes = np.zeros(groups.n_tasks, dtype=np.int64)
    sp = sparse_tiles
    getrf, tstrf, geesm, ssssm = (int(TaskType.GETRF), int(TaskType.TSTRF),
                                  int(TaskType.GEESM), int(TaskType.SSSSM))
    pools = arena.pools
    pos_of, slot_t, slot_a, slot_b = (groups.pos, groups.slot_t,
                                      groups.slot_a, groups.slot_b)
    bounds = groups.offsets.tolist()
    products: dict = {}
    for op, pt, pa, pb, lo, hi in zip(
            groups.op.tolist(), groups.pool_t.tolist(),
            groups.pool_a.tolist(), groups.pool_b.tolist(),
            bounds, bounds[1:]):
        pos = pos_of[lo:hi]
        if op <= ssssm:
            tile = pools[pt][slot_t[lo]]
            if op == getrf:
                s = getrf_kernel(tile, sparse=sp)
            elif op == tstrf:
                s = tstrf_kernel(tile, pools[pa][slot_a[lo]], sparse=sp)
            elif op == geesm:
                s = geesm_kernel(tile, pools[pa][slot_a[lo]], sparse=sp)
            else:
                s = ssssm_kernel(tile, pools[pa][slot_a[lo]],
                                 pools[pb][slot_b[lo]], sparse=sp,
                                 atomic=bool(atomic[pos[0]]))
            flops[pos] = s.flops
            nbytes[pos] = s.bytes
        elif op == _OP_APPLY:
            # ordered serial apply: replays the per-task launch order
            # bit for bit, including the intermediate-state nonzero
            # counts the byte accounting reads
            after = np.empty(hi - lo, dtype=np.int64)
            for at, (q, c, s) in enumerate(zip(pos.tolist(),
                                               slot_a[lo:hi].tolist(),
                                               slot_t[lo:hi].tolist())):
                view = pools[c][s]
                view -= products.pop(q)
                after[at] = np.count_nonzero(view)
            nbytes[pos] = 8 * (nbytes[pos] + after * (int(sp) + atomic[pos]))
        elif op == _OP_PRODUCTS:
            p, f, base = batched_ssssm_products(
                pools[pa][slot_a[lo:hi]], pools[pb][slot_b[lo:hi]], sp)
            flops[pos] = f
            nbytes[pos] = base  # words; the apply group finishes them
            products.update(zip(pos.tolist(), p))
        else:
            pool = pools[pt]
            slots = slot_t[lo:hi]
            stack = pool[slots]
            if op == _OP_SSSSM:
                f, b = batched_ssssm(stack, pools[pa][slot_a[lo:hi]],
                                     pools[pb][slot_b[lo:hi]], sp)
            elif op == _OP_TSTRF:
                f, b = batched_tstrf(stack, pools[pa][slot_a[lo:hi]], sp)
            else:
                f, b = batched_geesm(stack, pools[pa][slot_a[lo:hi]], sp)
            pool[slots] = stack
            flops[pos] = f
            nbytes[pos] = b
    return flops, nbytes


# verify: effects(arena)
def run_batch_on_arena(arena, tids: np.ndarray, atomic: np.ndarray, arrays,
                       *, sparse_tiles: bool = False,
                       batch_kernels: bool = True
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Execute one launch's factorisation tasks on a tile arena.

    The free-function form of :meth:`NumericEngine.run_batch_tasks`: it
    needs only the arena (any :class:`~repro.solvers.tilepool.TileArena`,
    including a shared-memory one attached in a worker process), the
    batch's task ids, their atomic flags, and the task coordinate
    columns (``type_code``/``k``/``i``/``j``) — no engine, DAG or
    backend.  ``repro.parallel`` workers call this directly so the
    multiprocess path executes the *identical* kernel-group code the
    single-process engine runs.

    It is the composition of :func:`index_kernel_groups` (partition the
    batch by task type and tile shape class) and
    :func:`execute_kernel_groups` (run the groups): TSTRF and GEESM
    groups become one stacked multi-RHS triangular solve (each slice
    against its own diagonal tile); conflict-free SSSSM groups become
    one stacked ``np.matmul``; atomic (same-target) SSSSMs get their
    products from a stacked matmul too, applied serially in batch order
    because their byte accounting depends on the intermediate target
    state; only GETRF tasks run through the per-task kernel.  The warm
    refactorise path runs the same two steps — the index step once per
    pattern, the execution step every Newton step.  Returns per-task
    ``(flops, bytes)`` int64 arrays aligned with ``tids``.

    Safe because co-batched tasks are mutually independent (no DAG
    edges within a ready set), so they touch pairwise-disjoint tiles
    except for same-target SSSSMs — whose ordered serial apply replays
    exactly the per-task execution.  Stack slices run the identical 2-D
    kernel cores, so factors and stats are bit-identical to the
    per-task path — and, for the same reason, identical for *any*
    partition of a batch across processes that keeps same-target
    SSSSMs together and in batch order.
    """
    atomic = np.asarray(atomic, dtype=bool)
    groups = index_kernel_groups(arena, arrays, tids, atomic,
                                 batch_kernels=batch_kernels)
    return execute_kernel_groups(arena, groups, atomic,
                                 sparse_tiles=sparse_tiles)


class NumericEngine:
    """Tile storage plus numeric task execution for one factorisation.

    Parameters
    ----------
    a:
        The (already permuted) matrix to factorise.
    part:
        Tile partition (uniform for PanguLU, supernodal for SuperLU).
    sparse_tiles:
        Sparse kernel accounting (PanguLU) vs dense (SuperLU).
    owner_of:
        Optional tile-ownership function for distributed runs.
    cache:
        Optional :class:`~repro.core.analysis_cache.AnalysisCache`.
        When given (and the run is single-process), the element fill,
        block fill, tile-nnz split and task DAG are looked up by the
        sparsity-pattern digest — repeated-pattern factorisations skip
        the whole symbolic analysis.  Distributed runs (``owner_of``)
        bypass the cache because tile ownership is baked into the DAG.
    batch_kernels:
        Execute conflict-free same-type task groups as stacked batched
        kernels (:mod:`repro.kernels.batched`) instead of one Python
        call per task.  ``None`` (default) reads the
        ``REPRO_BATCH_KERNELS`` environment knob (on unless ``0``).
        The per-task path stays available as the differential-testing
        oracle; both paths produce bit-identical factors and stats.
    arena_factory:
        Optional callable ``(part, bfill) -> TileArena`` used to build
        the tile storage; ``repro.parallel`` passes
        :class:`~repro.parallel.shmem.SharedTileArena` so tiles land in
        shared memory visible to worker processes.
    """

    def __init__(self, a: CSRMatrix, part: Partition,
                 sparse_tiles: bool = False, owner_of=None, fill=None,
                 cache=None, batch_kernels: bool | None = None,
                 arena_factory=None):
        if a.nrows != a.ncols:
            raise ValueError("LU factorisation requires a square matrix")
        if part.n != a.nrows:
            raise ValueError("partition does not cover the matrix")
        self.a = a
        self.part = part
        self.sparse_tiles = sparse_tiles
        use_cache = cache if owner_of is None else None
        if fill is not None:
            self.fill = fill
        elif use_cache is not None:
            self.fill = use_cache.fill_for(a, lambda: symbolic_fill(a))
        else:
            self.fill = symbolic_fill(a)

        def _block_analysis():
            bfill = block_fill(a, part)
            fill_tiles = split_tiles(self.fill.filled, part)
            tile_nnz = {key: t.nnz for key, t in fill_tiles.items()}
            dag = build_block_dag(
                bfill, part, tile_nnz,
                sparse_tiles=sparse_tiles, owner_of=owner_of,
            )
            return bfill, tile_nnz, dag

        if use_cache is not None:
            self.bfill, self.tile_nnz, self.dag = use_cache.block_analysis_for(
                a, part, sparse_tiles, _block_analysis
            )
        else:
            self.bfill, self.tile_nnz, self.dag = _block_analysis()
        self.batch_kernels = (
            batch_kernels_enabled() if batch_kernels is None
            else bool(batch_kernels)
        )
        make_arena = TileArena if arena_factory is None else arena_factory
        self.arena = make_arena(part, self.bfill)
        self.tiles = TileViews(self.arena)
        self.arena.stamp(a)

    def reset_values(self, a: CSRMatrix) -> None:
        """Re-stamp tile values for a matrix with the *same* pattern.

        The circuit-simulation workflow: device models change every
        Newton iteration but the structure (and therefore ordering,
        symbolic fill, task DAG and schedule) is fixed — re-stamping and
        re-running the numeric tasks is all that is needed.
        """
        if a.shape != self.a.shape:
            raise ValueError("refactorisation requires the same dimensions")
        if not (np.array_equal(a.indptr, self.a.indptr)
                and np.array_equal(a.indices, self.a.indices)):
            raise ValueError(
                "refactorisation requires an identical sparsity pattern"
            )
        self.a = a
        self.arena.stamp(a)

    # ------------------------------------------------------------------
    # ExecutionBackend protocol
    # ------------------------------------------------------------------
    def run_task(self, task: Task, atomic: bool) -> KernelStats:
        """Execute one task's arithmetic on the tile storage."""
        sp = self.sparse_tiles
        if task.type == TaskType.GETRF:
            return getrf_kernel(self.tiles[(task.k, task.k)], sparse=sp)
        if task.type == TaskType.TSTRF:
            return tstrf_kernel(self.tiles[(task.i, task.k)],
                                self.tiles[(task.k, task.k)], sparse=sp)
        if task.type == TaskType.GEESM:
            return geesm_kernel(self.tiles[(task.k, task.j)],
                                self.tiles[(task.k, task.k)], sparse=sp)
        return ssssm_kernel(self.tiles[(task.i, task.j)],
                            self.tiles[(task.i, task.k)],
                            self.tiles[(task.k, task.j)],
                            sparse=sp, atomic=atomic)

    def run_batch_tasks(self, tids: np.ndarray, atomic: np.ndarray,
                        arrays) -> tuple[np.ndarray, np.ndarray]:
        """Execute one launch's tasks with batched kernel groups.

        Delegates to :func:`run_batch_on_arena` — the module-level form
        shared with the multiprocess workers — so both paths are one
        code path by construction.
        """
        return run_batch_on_arena(
            self.arena, tids, atomic, arrays,
            sparse_tiles=self.sparse_tiles,
            batch_kernels=self.batch_kernels,
        )

    # ------------------------------------------------------------------
    # factor extraction
    # ------------------------------------------------------------------
    def extract_factors(self, tol: float = 0.0) -> tuple[CSRMatrix, CSRMatrix]:
        """Assemble global ``L`` (unit diagonal stored) and ``U`` from the
        factored tiles, dropping numerically-zero scratch entries."""
        n = self.part.n
        bounds = self.part.boundaries
        arena = self.arena
        l_rows, l_cols, l_vals = [], [], []
        u_rows, u_cols, u_vals = [], [], []
        # one nonzero scan per shape pool; entries below the diagonal
        # (whole tiles, or the strict lower triangle of diagonal tiles)
        # belong to L, the rest to U
        for pool, pool_bi, pool_bj in zip(arena.pools, arena.pool_bi,
                                          arena.pool_bj):
            slot, rr, cc = np.nonzero(np.abs(pool) > tol)
            bi = pool_bi[slot]
            bj = pool_bj[slot]
            rows = rr + bounds[bi]
            cols = cc + bounds[bj]
            vals = pool[slot, rr, cc]
            lower = (bi > bj) | ((bi == bj) & (rr > cc))
            l_rows.append(rows[lower]); l_cols.append(cols[lower])
            l_vals.append(vals[lower])
            upper = ~lower
            u_rows.append(rows[upper]); u_cols.append(cols[upper])
            u_vals.append(vals[upper])
        diag = np.arange(n, dtype=np.int64)
        l_rows.append(diag); l_cols.append(diag)
        l_vals.append(np.ones(n))
        L = COOMatrix((n, n), np.concatenate(l_rows), np.concatenate(l_cols),
                      np.concatenate(l_vals)).to_csr()
        U = COOMatrix(
            (n, n),
            np.concatenate(u_rows) if u_rows else np.empty(0, np.int64),
            np.concatenate(u_cols) if u_cols else np.empty(0, np.int64),
            np.concatenate(u_vals) if u_vals else np.empty(0),
        ).to_csr()
        return L, U

    # ------------------------------------------------------------------
    # solve phase
    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, scheduler: str = "trojan",
              batch_kernels: bool | None = None) -> np.ndarray:
        """Solve the *permuted* system ``L U x = b`` from the factored
        tiles through the batched SpTRSV task DAGs.

        The numeric tasks must have run (the tiles hold ``L\\U``).  This
        is the engine-level entry of the Trojan-batched solve phase;
        callers holding a :class:`FactorizationResult` should use its
        :meth:`~FactorizationResult.solve`, which also applies the
        fill-reducing permutation and honours ``REPRO_BATCH_SOLVE``.
        """
        from repro.solvers.sptrsv import SpTRSVContext

        L, U = self.extract_factors()
        lctx = SpTRSVContext(L, self.part, lower=True, unit_diagonal=True,
                             sparse_tiles=self.sparse_tiles)
        uctx = SpTRSVContext(U, self.part, lower=False,
                             sparse_tiles=self.sparse_tiles)
        y = lctx.solve(b, scheduler=scheduler,
                       batch_kernels=batch_kernels).x
        return uctx.solve(y, scheduler=scheduler,
                          batch_kernels=batch_kernels).x


class LazyKernelStats(Mapping):
    """Read-only ``{tid: KernelStats}`` that materialises on first read.

    Launches record raw per-task ``(tids, flops, bytes)`` arrays; turning
    20k+ of those rows into :class:`KernelStats` objects happens in bulk
    on the first item access, iteration, ``len`` or comparison — never
    on the numeric hot path, and not at all for a refactorise whose
    stats nobody reads.  Compares equal to a plain dict with the same
    items.
    """

    def __init__(self):
        self._stats: dict[int, KernelStats] = {}
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def record(self, tid: int, stats: KernelStats) -> None:
        """Store one task's stats (the per-task execution path)."""
        self._stats[tid] = stats

    def record_arrays(self, tids: np.ndarray, flops: np.ndarray,
                      nbytes: np.ndarray) -> None:
        """Buffer one launch's (or one replay's) per-task stat arrays;
        the arrays are kept, not copied."""
        self._pending.append((tids, flops, nbytes))

    @property
    def materialized(self) -> bool:
        """Whether every recorded row has been turned into an object."""
        return not self._pending

    def _dict(self) -> dict[int, KernelStats]:
        if self._pending:
            stats = self._stats
            for tids, flops, nbytes in self._pending:
                for tid, f, b in zip(tids.tolist(), flops.tolist(),
                                     nbytes.tolist()):
                    stats[tid] = KernelStats(flops=f, bytes=b)
            self._pending.clear()
        return self._stats

    def __getitem__(self, tid: int) -> KernelStats:
        return self._dict()[tid]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    # the dict's own views: the Mapping mixins would route every element
    # through ``__getitem__``, and replay backends iterate 20k+ of them
    def keys(self):
        return self._dict().keys()

    def values(self):
        return self._dict().values()

    def items(self):
        return self._dict().items()


class NumericBackend:
    """Backend wrapper that records exact per-task stats while executing.

    The recorded stats power :class:`~repro.core.executor.ReplayBackend`
    so scheduler/GPU sweeps never repeat the arithmetic.
    """

    def __init__(self, engine: NumericEngine):
        self._engine = engine
        self.stats = LazyKernelStats()

    def run_task(self, task: Task, atomic: bool) -> KernelStats:
        """Execute numerically and memoise the exact stats."""
        stats = self._engine.run_task(task, atomic)
        self.stats.record(task.tid, stats)
        return stats

    def run_batch_tasks(self, tids: np.ndarray, atomic: np.ndarray,
                        arrays) -> tuple[int, int]:
        """Execute one launch via the engine's batched kernel groups,
        buffering per-task stats, and return the launch totals."""
        flops, nbytes = self._engine.run_batch_tasks(tids, atomic, arrays)
        self.stats.record_arrays(np.asarray(tids, dtype=np.int64).copy(),
                                 flops, nbytes)
        return int(flops.sum()), int(nbytes.sum())


@dataclass
class FactorizationResult:
    """Everything a factorisation run produces.

    Attributes
    ----------
    solver, scheduler:
        Human-readable provenance.
    L, U:
        Global factors (L has an explicit unit diagonal).
    perm:
        Fill-reducing permutation applied before factorisation
        (new ← old), needed by :meth:`solve`.
    schedule:
        The simulated schedule (kernel counts, timeline, GFLOPS).
    dag:
        The task DAG (replayable against other schedulers/GPUs).
    stats:
        Exact per-task work recorded during numeric execution — a plain
        dict, or the engine's :class:`LazyKernelStats`, which builds its
        per-task objects on first read.
    fill_nnz:
        Predicted nnz(L+U) from the symbolic phase.
    phase_seconds:
        Wall-clock time of the reorder/symbolic/numeric phases of *this
        process* (Figure-2 style measurement; the numeric entry is real
        compute time, not the simulated GPU time).
    """

    solver: str
    scheduler: str
    L: CSRMatrix
    U: CSRMatrix
    perm: np.ndarray
    schedule: ScheduleResult
    dag: TaskDAG
    stats: Mapping[int, KernelStats]
    fill_nnz: int
    phase_seconds: dict[str, float]
    #: cached (L, U) SpTRSV contexts for the batched solve path
    _solve_ctx: "tuple | None" = field(default=None, repr=False,
                                       compare=False)

    def solve(self, b: np.ndarray, refine: int = 0,
              a: "CSRMatrix | None" = None,
              batch_solve: bool | None = None,
              solve_scheduler: str = "trojan") -> np.ndarray:
        """Solve ``A x = b`` with the computed factors.

        Applies the symmetric permutation: ``PAPᵀ = LU`` means
        ``x = Pᵀ (U⁻¹ L⁻¹ P b)``.

        Parameters
        ----------
        refine:
            Number of iterative-refinement sweeps (``x += A⁻¹(b − Ax)``),
            the standard accuracy recovery step for statically-pivoted
            factorisations.  Requires ``a``.
        a:
            The original (unpermuted) matrix, needed only for refinement
            residuals.
        batch_solve:
            Run the substitutions through the batched SpTRSV task DAGs
            (:mod:`repro.solvers.sptrsv`) instead of the per-column CSR
            recurrence.  ``None`` (default) reads the
            ``REPRO_BATCH_SOLVE`` environment knob (off unless set).
        solve_scheduler:
            DAG-path scheduling policy (``trojan``, ``levelset``,
            ``levelbatch``, ``serial``); ignored on the CSR path.
        """
        refine = int(refine)
        if refine < 0:
            raise ValueError(f"refine must be >= 0, got {refine}")
        if refine and a is None:
            raise ValueError("iterative refinement needs the original matrix")
        use_dag = (batch_solve_enabled() if batch_solve is None
                   else bool(batch_solve))
        if use_dag:
            def sub(rhs):
                return self._substitute_dag(rhs, solve_scheduler)
        else:
            sub = self._substitute
        b = np.asarray(b, dtype=np.float64)
        x = sub(b)
        for _ in range(refine):
            from repro.sparse import matvec

            r = b - matvec(a, x)
            x = x + sub(r)
        return x

    def solve_per_column_oracle(self, b: np.ndarray, refine: int = 0,
                                a: "CSRMatrix | None" = None) -> np.ndarray:
        """Differential oracle for :meth:`solve` with ``batch_solve=True``.

        Runs the identical permutation handling and refinement loop, but
        substitutes through the tiled per-column serial path
        (:meth:`~repro.solvers.sptrsv.SpTRSVContext.solve_per_column`).
        The DAG path is bit-identical to this under every scheduler and
        batch composition — the solve-phase battery pins it.
        """
        refine = int(refine)
        if refine < 0:
            raise ValueError(f"refine must be >= 0, got {refine}")
        if refine and a is None:
            raise ValueError("iterative refinement needs the original matrix")
        b = np.asarray(b, dtype=np.float64)
        x = self._substitute_oracle(b)
        for _ in range(refine):
            from repro.sparse import matvec

            r = b - matvec(a, x)
            x = x + self._substitute_oracle(r)
        return x

    def solve_contexts(self):
        """The lazily-built ``(L, U)`` SpTRSV contexts (tile stamping and
        triangularity validation happen once per factorisation)."""
        if self._solve_ctx is None:
            from repro.solvers.sptrsv import SpTRSVContext

            part = self.dag.part
            self._solve_ctx = (
                SpTRSVContext(self.L, part, lower=True, unit_diagonal=True),
                SpTRSVContext(self.U, part, lower=False),
            )
        return self._solve_ctx

    def _substitute(self, b: np.ndarray) -> np.ndarray:
        pb = b[self.perm] if b.ndim == 1 else b[self.perm, :]
        y = triangular_solve(self.L, pb, lower=True)
        z = triangular_solve(self.U, y, lower=False)
        x = np.empty_like(z)
        x[self.perm] = z
        return x

    def _substitute_dag(self, b: np.ndarray, scheduler: str) -> np.ndarray:
        lctx, uctx = self.solve_contexts()
        pb = b[self.perm] if b.ndim == 1 else b[self.perm, :]
        y = lctx.solve(pb, scheduler=scheduler).x
        z = uctx.solve(y, scheduler=scheduler).x
        x = np.empty_like(z)
        x[self.perm] = z
        return x

    def _substitute_oracle(self, b: np.ndarray) -> np.ndarray:
        lctx, uctx = self.solve_contexts()
        pb = b[self.perm] if b.ndim == 1 else b[self.perm, :]
        y = lctx.solve_per_column(pb)
        z = uctx.solve_per_column(y)
        x = np.empty_like(z)
        x[self.perm] = z
        return x

    def residuals(self, a: CSRMatrix, b: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
        """Per-column relative residuals ‖Ax − b‖₂ / ‖b‖₂ (original A).

        Returns one value per right-hand-side column (a 0-D array for
        1-D ``b``).  Convention for a zero column: when ``‖b‖₂ == 0``
        the relative residual is undefined, so the *absolute* norm
        ‖Ax‖₂ is reported for that column instead — 0.0 iff the solve
        returned the exact null solution, never a spurious ``inf``.
        """
        from repro.sparse import matvec

        b = np.asarray(b, dtype=np.float64)
        r = matvec(a, x) - b
        norm_r = np.linalg.norm(r, axis=0)
        norm_b = np.linalg.norm(b, axis=0)
        return np.where(norm_b > 0, norm_r / np.where(norm_b > 0, norm_b, 1.0),
                        norm_r)

    def residual(self, a: CSRMatrix, b: np.ndarray, x: np.ndarray) -> float:
        """Scalar residual summary against the *original* A.

        For 1-D ``b`` this is the relative residual ‖Ax − b‖₂ / ‖b‖₂;
        for 2-D ``b`` it is the **maximum** of the per-column relative
        residuals (:meth:`residuals`) — a Frobenius-collapsed scalar
        would let one bad column hide behind many good ones.  The
        zero-``b`` convention of :meth:`residuals` applies (absolute
        norm for zero columns).
        """
        return float(np.max(self.residuals(a, b, x)))


def scale_stats(stats: dict[int, KernelStats],
                flop_factor: float,
                byte_factor: float | None = None) -> dict[int, KernelStats]:
    """Extrapolate recorded per-task work to a larger problem scale.

    The analogues factorised here use tiles ~8× smaller per dimension than
    the paper's (block 64 vs 512, supernode 32 vs 256), so per-task work
    is ~512× smaller.  Benches that study the *compute-dominated* regime
    (Table 7) replay schedules against stats scaled by that documented
    factor: the DAG, batch composition and task counts stay real; only the
    per-task flop/byte magnitudes are extrapolated (DESIGN.md §3).

    Parameters
    ----------
    stats:
        Recorded per-task stats.
    flop_factor:
        Multiplier on flops (cubic in the linear tile-scale deficit).
    byte_factor:
        Multiplier on bytes; defaults to ``flop_factor ** (2/3)``
        (quadratic in the linear scale).
    """
    if flop_factor <= 0:
        raise ValueError("flop_factor must be positive")
    bf = flop_factor ** (2.0 / 3.0) if byte_factor is None else byte_factor
    return {
        tid: KernelStats(flops=int(s.flops * flop_factor),
                         bytes=int(s.bytes * bf))
        for tid, s in stats.items()
    }


def resimulate(result: FactorizationResult, scheduler: str,
               gpu: GPUSpec, stats: dict[int, KernelStats] | None = None,
               merge_schur: bool = False, **kwargs) -> ScheduleResult:
    """Re-run only the *schedule* of a finished factorisation.

    Uses the recorded exact per-task stats, so sweeping schedulers and
    GPU models costs microseconds per task instead of repeating the
    numerics — the benches for Figures 9–12 are built on this.

    Parameters
    ----------
    stats:
        Optional replacement per-task stats (e.g. from
        :func:`scale_stats`); defaults to the run's recorded stats.
    merge_schur:
        Apply the §3.5.1 Schur-fusion rewrite before scheduling (the
        SuperLU + Trojan Horse integration).
    """
    from repro.core.fusion import merge_schur_tasks

    model = GPUCostModel(gpu)
    use_stats = stats if stats is not None else result.stats
    dag = result.dag
    if merge_schur:
        fusion = merge_schur_tasks(dag)
        dag = fusion.dag
        use_stats = fusion.fuse_stats(use_stats)
    backend = ReplayBackend(use_stats)
    sched = make_scheduler(scheduler, dag, backend, model, **kwargs)
    return sched.run()
