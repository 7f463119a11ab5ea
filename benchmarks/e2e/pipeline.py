"""The direct-solve pipeline rebuilt from each layer's public functions.

``solver.factorize()`` / ``refactorize()`` / ``result.solve()`` are one
call each to their user; the traced run needs to see the layers inside
them.  These functions perform the same steps in the same order with
the same arguments — ordering, permutation, symbolic fill, partition,
block fill, tile split, DAG build, arena + engine, scheduler over a
timing wrapper, factor extraction, triangular solves — each under a
span, so the workloads can assert the rebuilt factors and solutions are
bit-identical to the untraced API's.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core import AnalysisCache, build_block_dag, make_scheduler
from repro.core.fusion import FusedBackend, merge_schur_tasks
from repro.gpusim import RTX5090, GPUCostModel
from repro.kernels.batched import batch_solve_enabled
from repro.ordering import compute_ordering
from repro.solvers import NumericBackend, NumericEngine, TileArena
from repro.solvers.engine import FactorizationResult, run_batch_on_arena
from repro.sparse import (
    matvec,
    permute_symmetric,
    split_tiles,
    triangular_solve,
    uniform_partition,
)
from repro.symbolic import block_fill, find_supernodes, symbolic_fill
from repro.verify.hazards import batch_atomic_flags

from common import TimedBackend

#: the constructor defaults of PanguLUSolver / SuperLUSolver
PANGULU_BLOCK = 64
SUPERLU_MAX_SUPERNODE = 32
SUPERLU_RELAX = 1
ORDERING = "mindeg"
TASK_TYPE_NAMES = ("getrf", "tstrf", "geesm", "ssssm")


@dataclass
class Session:
    """A factorised matrix held open for refactorise/solve."""

    kind: str
    gpu: object
    a: object
    perm: np.ndarray
    engine: NumericEngine
    fusion: object
    result: FactorizationResult


def _span_arena(rec):
    """A ``TileArena`` whose (re-)stamping shows up as its own span."""

    class SpanArena(TileArena):
        def stamp(self, a):
            with rec.span("solvers.arena_stamp"):
                super().stamp(a)

    return SpanArena


def _numeric(rec, session: Session) -> FactorizationResult:
    """Schedule the numeric tasks and extract the factors."""
    engine = session.engine
    backend = NumericBackend(engine)
    fused = session.fusion is not None
    if fused:
        dag = session.fusion.dag
        timed = TimedBackend(FusedBackend(backend, session.fusion,
                                          engine.dag))
    else:
        dag = engine.dag
        timed = TimedBackend(backend)
    with rec.span("core.sched"):
        schedule = make_scheduler("trojan", dag, timed,
                                  GPUCostModel(session.gpu)).run()
        rec.aggregate("kernels.busy", timed.seconds)
    if fused:
        rec.count("kernels.fused_s", timed.seconds)
    rec.count("core.sched_tasks", schedule.task_count)
    rec.count("core.batches", schedule.kernel_count)
    rec.count("core.kernel_launches", timed.calls)
    rec.count("kernels.tasks", engine.dag.n_tasks)
    rec.count("kernels.flops", schedule.total_flops)
    rec.count("kernels.bytes_computed",
              sum(b.bytes for b in schedule.batches))
    with rec.span("solvers.extract"):
        L, U = engine.extract_factors()
    return FactorizationResult(
        solver=session.kind, scheduler="trojan", L=L, U=U,
        perm=session.perm, schedule=schedule, dag=engine.dag,
        stats=backend.stats, fill_nnz=engine.fill.nnz_lu,
        phase_seconds={})


def traced_factorize(rec, a, kind: str, *, block_size: int = PANGULU_BLOCK,
                     gpu=RTX5090) -> Session:
    """``Solver(a, scheduler="trojan", ...).factorize()``, layer by layer."""
    sparse_tiles = kind == "pangulu"
    with rec.span("ordering.compute"):
        perm = compute_ordering(a, ORDERING)
    rec.count("ordering.calls")
    rec.count("ordering.nnz", a.nnz)
    with rec.span("sparse.permute"):
        permuted = permute_symmetric(a, perm)
    with rec.span("symbolic.fill"):
        fill = symbolic_fill(permuted)
    rec.count("symbolic.fill_nnz", fill.nnz_lu)
    if kind == "superlu":
        with rec.span("symbolic.supernodes"):
            part = find_supernodes(fill, max_size=SUPERLU_MAX_SUPERNODE,
                                   relax=SUPERLU_RELAX)
    else:
        part = uniform_partition(permuted.nrows, block_size)
    with rec.span("symbolic.blockfill"):
        bfill = block_fill(permuted, part)
    with rec.span("sparse.split_tiles"):
        tile_nnz = {key: t.nnz
                    for key, t in split_tiles(fill.filled, part).items()}
    with rec.span("core.dag_build"):
        dag = build_block_dag(bfill, part, tile_nnz,
                              sparse_tiles=sparse_tiles, owner_of=None)
    rec.count("core.dag_tasks", dag.n_tasks)
    rec.count("core.dag_edges", int(dag.pred_count.sum()))
    # The engine recomputes nothing it finds in its cache, so handing it
    # a pre-filled one makes it adopt the products built above.
    cache = AnalysisCache()
    cache.fill_for(permuted, lambda: fill)
    cache.block_analysis_for(permuted, part, sparse_tiles,
                             lambda: (bfill, tile_nnz, dag))
    with rec.span("solvers.engine_init"):
        engine = NumericEngine(permuted, part, sparse_tiles=sparse_tiles,
                               fill=fill, cache=cache,
                               arena_factory=_span_arena(rec))
    fusion = None
    if kind == "superlu":
        with rec.span("core.fusion"):
            fusion = merge_schur_tasks(engine.dag)
    session = Session(kind=kind, gpu=gpu, a=a, perm=perm, engine=engine,
                      fusion=fusion, result=None)
    session.result = _numeric(rec, session)
    return session


def traced_refactorize(rec, session: Session, a_new) -> None:
    """``solver.refactorize(a_new)``: re-stamp, re-run numerics."""
    with rec.span("sparse.permute"):
        permuted = permute_symmetric(a_new, session.perm)
    with rec.span("solvers.reset_values"):
        session.engine.reset_values(permuted)
    if session.fusion is not None:
        with rec.span("core.fusion"):
            session.fusion = merge_schur_tasks(session.engine.dag)
    session.a = a_new
    session.result = _numeric(rec, session)


def substitute(rec, result: FactorizationResult, b: np.ndarray,
               dag_path: bool | None = None):
    """``x = Pᵀ U⁻¹ L⁻¹ P b`` through the batched SpTRSV DAGs or the CSR
    recurrence (default: whichever ``REPRO_BATCH_SOLVE`` selects)."""
    perm = result.perm
    pb = b[perm] if b.ndim == 1 else b[perm, :]
    cols = 1 if b.ndim == 1 else b.shape[1]
    if batch_solve_enabled() if dag_path is None else dag_path:
        lctx, uctx = result.solve_contexts()
        with rec.span("solvers.sptrsv_solve"):
            y = lctx.solve(pb, scheduler="trojan")
            z = uctx.solve(y.x, scheduler="trojan")
        rec.count("solvers.sptrsv_tasks",
                  y.schedule.task_count + z.schedule.task_count)
        z = z.x
    else:
        with rec.span("sparse.trisolve"):
            y = triangular_solve(result.L, pb, lower=True)
            z = triangular_solve(result.U, y, lower=False)
        rec.count("sparse.trisolve_cols", 2 * cols)
    x = np.empty_like(z)
    x[perm] = z
    return x


def traced_solve(rec, session: Session, b, refine: int = 0):
    """``result.solve(b, refine=refine, a=a)`` on the default solve path
    (whichever ``REPRO_BATCH_SOLVE``'s default selects)."""
    b = np.asarray(b, dtype=np.float64)
    x = substitute(rec, session.result, b)
    for _ in range(refine):
        with rec.span("sparse.matvec"):
            r = b - matvec(session.a, x)
        x = x + substitute(rec, session.result, r)
    return x


def replay_batches(engine: NumericEngine, batches, by_type: bool) -> dict:
    """Re-run recorded batches on the engine's re-stamped arena through
    ``run_batch_on_arena`` and return seconds (``"all"``, or one entry
    per task type with ``by_type``).  Leaves the arena factored again;
    the caller compares the extracted factors with the original run's.
    """
    engine.reset_values(engine.a)
    arrays = engine.dag.task_arrays()
    seconds = dict.fromkeys(TASK_TYPE_NAMES if by_type else ("all",), 0.0)
    for tids in batches:
        tids = np.asarray(tids, dtype=np.int64)
        atomic = batch_atomic_flags(arrays.target[tids])
        if by_type:
            code = arrays.type_code[tids]
            groups = [(TASK_TYPE_NAMES[c], code == c)
                      for c in np.unique(code)]
        else:
            groups = [("all", slice(None))]
        for name, sel in groups:
            t0 = perf_counter()
            run_batch_on_arena(engine.arena, tids[sel], atomic[sel], arrays,
                               sparse_tiles=engine.sparse_tiles,
                               batch_kernels=engine.batch_kernels)
            seconds[name] += perf_counter() - t0
    return seconds


def recorded_batches(session: Session) -> list:
    """The factorisation's batch sequence as original-DAG task ids
    (fused Schur tasks expanded to their members, in order)."""
    out = []
    for batch in session.result.schedule.batches:
        ids = batch.task_ids
        if session.fusion is not None:
            ids = [t for f in ids for t in session.fusion.members[f]]
        out.append(np.asarray(ids, dtype=np.int64))
    return out
