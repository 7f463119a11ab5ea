"""The worker-process loop of the multiprocess executor.

Workers are deliberately dumb: they attach shared pools described by a
phase message, then execute the program of task-id slices that message
carries, via the *same* module-level batch functions the single-process
engines call (:func:`repro.solvers.engine.run_batch_on_arena`,
:func:`repro.solvers.sptrsv.run_solve_batch`).  All scheduling,
admission, conflict analysis and certification happen on the
coordinator; all factor/RHS data stays in shared memory.  The only
queue traffic is one program of task ids in and one per-task
``(flops, bytes)`` stats message out *per phase*.

Protocol (one task queue per worker, one shared result queue, one
:class:`multiprocessing.Barrier` and one progress array shared by the
whole pool):

==========================================  ================================
coordinator → worker                        worker → coordinator
==========================================  ================================
(spawn)                                     ``("online", wid)``
``("phase", pid, payload, program)``        ``("stats", wid, pid,
                                            flops, bytes)``
``("exit",)``                               ``("bye", wid)``
any failure                                 ``("error", wid, pid, bidx,
                                            traceback-text)``
==========================================  ================================

A phase payload is a dict: ``kind`` (``"factor"``/``"solve"``),
``arena`` (:class:`~repro.parallel.shmem.SharedArenaSpec`), ``columns``
(:class:`TaskColumns`), kernel knobs, and for solve phases ``rhs``
(:class:`~repro.parallel.shmem.SharedRhsSpec`) plus the triangle flags.
Factor-arena attachments are cached by segment names, so the L- and
U-solve phases following a factorisation reattach nothing.

The :class:`WorkerProgram` is this worker's owner slice of *every*
batch of the phase, in batch order.  Workers step through the batches
in lockstep: run the slice (possibly empty), then wait on the pool's
barrier before the next — the barrier is what delivers a cross-owner
DAG edge, so batch ``b + 1`` on any worker starts only after batch
``b`` finished on all.  (The last batch needs none: the coordinator
collects every worker's stats before it reads the result.)  Before
each batch a worker stores its index in ``progress[wid]``, which
the coordinator reads without any message: its no-progress timeout and
the batch reported by a :class:`~repro.parallel.WorkerCrashError` both
come from there.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass

import numpy as np

from repro.parallel.shmem import SharedRhsPool, SharedTileArena
from repro.solvers.engine import run_batch_on_arena
from repro.solvers.sptrsv import run_solve_batch


@dataclass(frozen=True)
class TaskColumns:
    """The task-coordinate columns a batch launch reads — a picklable
    slice of :class:`~repro.core.dag.TaskArrays` (no DAG, no estimates,
    no successor structure crosses the queue)."""

    type_code: np.ndarray
    k: np.ndarray
    i: np.ndarray
    j: np.ndarray

    @classmethod
    def from_arrays(cls, arrays) -> "TaskColumns":
        return cls(type_code=arrays.type_code, k=arrays.k,
                   i=arrays.i, j=arrays.j)


@dataclass(frozen=True)
class WorkerProgram:
    """One worker's share of a phase: its owner slice of every batch,
    concatenated in batch order.  Batch ``b`` is
    ``tids[bounds[b]:bounds[b + 1]]`` (empty when the worker owns
    nothing in it) with the matching ``atomic`` flags."""

    tids: np.ndarray
    atomic: np.ndarray
    bounds: np.ndarray


def _run_slice(payload: dict, tids: np.ndarray, atomic: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Execute one batch slice against the phase's attached storage."""
    cols = payload["columns"]
    if payload["kind"] == "factor":
        return run_batch_on_arena(
            payload["_arena"], tids, atomic, cols,
            sparse_tiles=payload["sparse_tiles"],
            batch_kernels=payload["batch_kernels"],
        )
    return run_solve_batch(
        payload["_arena"], payload["_rhs"], tids, atomic, cols,
        lower=payload["lower"], unit_diagonal=payload["unit_diagonal"],
        sparse_tiles=payload["sparse_tiles"],
        batch_kernels=payload["batch_kernels"],
    )


def worker_main(wid: int, task_q, result_q, barrier, progress,
                log_path=None) -> None:
    """Entry point of one worker process (module-level: spawn-safe)."""
    log = open(log_path, "a", buffering=1) if log_path else None

    def say(msg: str) -> None:
        if log is not None:
            log.write(f"[worker {wid} pid={os.getpid()}] {msg}\n")

    arenas: dict[tuple[str, ...], SharedTileArena] = {}
    rhs: SharedRhsPool | None = None
    rhs_names: tuple[str, ...] | None = None
    phase_id = -1
    cur_batch = -1
    say("online")
    result_q.put(("online", wid))
    try:
        while True:
            msg = task_q.get()
            cmd = msg[0]
            if cmd == "exit":
                say("exit")
                result_q.put(("bye", wid))
                return
            try:
                if cmd != "phase":
                    raise RuntimeError(f"unknown command {cmd!r}")
                _, phase_id, payload, program = msg
                cur_batch = -1
                spec = payload["arena"]
                arena = arenas.get(spec.names)
                if arena is None:
                    arena = SharedTileArena.attach(spec)
                    arenas[spec.names] = arena
                payload["_arena"] = arena
                rspec = payload.get("rhs")
                if rspec is not None:
                    if rhs is not None and rhs_names != rspec.names:
                        rhs.close()
                        rhs = None
                    if rhs is None:
                        rhs = SharedRhsPool.attach(rspec)
                        rhs_names = rspec.names
                    payload["_rhs"] = rhs
                say(f"phase {phase_id} kind={payload['kind']} "
                    f"segments={len(spec.names)} "
                    f"batches={program.bounds.size - 1}")
                flops = np.zeros(program.tids.size, dtype=np.int64)
                nbytes = np.zeros(program.tids.size, dtype=np.int64)
                bounds = program.bounds.tolist()
                for cur_batch in range(len(bounds) - 1):
                    if cur_batch:
                        barrier.wait()
                    progress[wid] = cur_batch
                    lo, hi = bounds[cur_batch], bounds[cur_batch + 1]
                    if hi > lo:
                        flops[lo:hi], nbytes[lo:hi] = _run_slice(
                            payload, program.tids[lo:hi],
                            program.atomic[lo:hi])
                result_q.put(("stats", wid, phase_id, flops, nbytes))
            except Exception:
                detail = traceback.format_exc()
                say(detail)
                result_q.put(("error", wid, phase_id, cur_batch, detail))
    finally:
        for arena in arenas.values():
            arena.close()
        if rhs is not None:
            rhs.close()
        if log is not None:
            log.close()
