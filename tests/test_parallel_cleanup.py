"""Shared-memory hygiene of the multiprocess executor.

The failure mode that matters: ``/dev/shm`` entries surviving a crashed
run — tile segments and the named semaphores behind the pool's queues
and lockstep barrier (``sem.mp-*``).  Names leak silently (the memory
stays reserved until reboot), so CI runs a suite-level leak check *and*
this file kills, stalls and breaks workers outright — between phases
and in the middle of one, with a peer parked at the barrier — and
asserts the coordinator reaps every process and entry while raising a
structured, actionable error.

Every check is by name, never by a census of ``/dev/shm``: other
processes on the host create and remove entries there at any time.
The pools name their segments ``repro_<creator pid>_<n>``, so no
``repro_<this pid>_*`` may outlive a test, and the pool's own
semaphores are named by the locks this process created.
"""

import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.matrices.generators import poisson2d
from repro.parallel import ParallelExecutor, WorkerCrashError

SHM_DIR = Path("/dev/shm")
#: every shared segment this process creates starts with this
OWN_PREFIX = f"repro_{os.getpid()}_"


def present() -> set:
    """Names currently in ``/dev/shm``."""
    if not SHM_DIR.exists():
        pytest.skip("no /dev/shm on this platform")
    return set(os.listdir(SHM_DIR))


def own_segments() -> set:
    """This process's shared-memory segments still in ``/dev/shm``."""
    return {name for name in present() if name.startswith(OWN_PREFIX)}


def pool_semaphores(ex) -> set:
    """``/dev/shm`` names of the semaphores behind the pool's own task
    and result queues and its lockstep barrier.  ``_semlock.name`` is a
    CPython detail, which is why it is read here and nowhere in the
    product."""
    cond = ex._barrier._cond
    locks = [cond._lock, cond._sleeping_count, cond._woken_count,
             cond._wait_semaphore]
    for q in [*ex._task_qs, ex._result_q]:
        locks += [q._rlock, q._wlock, q._sem]
    names = {"sem." + lock._semlock.name.lstrip("/")
             for lock in locks if lock is not None}
    assert names and names <= present()  # they really are named entries
    return names


def leaked(created: set, patience: float = 2.0) -> set:
    """Whichever of ``created``, or of this process's segments, still
    exists once they are all gone or ``patience`` runs out.  A closed
    queue's semaphores go when its feeder thread has seen the close —
    promptly, but on another thread."""
    deadline = time.monotonic() + patience
    while True:
        left = (created & present()) | own_segments()
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.01)


@pytest.fixture()
def problem():
    a = poisson2d(12)
    rng = np.random.default_rng(5)
    return a, rng.standard_normal(a.nrows)


class TestCleanShutdown:
    def test_full_run_leaves_no_segments(self, problem):
        a, b = problem
        with ParallelExecutor(a, workers=2, block_size=24) as ex:
            ex.factorize()
            ex.solve(b)
            sems = pool_semaphores(ex)
            assert own_segments()  # arenas really are in shm
        assert leaked(sems) == set()

    def test_close_is_idempotent(self, problem):
        a, _ = problem
        ex = ParallelExecutor(a, workers=2, block_size=24)
        ex.factorize()
        sems = pool_semaphores(ex)
        ex.close()
        ex.close()
        assert leaked(sems) == set()


class TestEarlyFailure:
    def test_refused_plan_reaps_pool_without_context_manager(
            self, problem, monkeypatch):
        # the pool is spawned before the plan is checked, so a refusal
        # happens with live workers and nobody's ``with`` to reap them
        import repro.parallel.executor as pex

        a, _ = problem
        real = pex.record_batch_plan

        def racy(dag, model, **kwargs):
            plan = real(dag, model, **kwargs)
            return pex.BatchPlan(scheduler=plan.scheduler,
                                 device=plan.device,
                                 batches=[np.concatenate(plan.batches)],
                                 n_tasks=plan.n_tasks)

        monkeypatch.setattr(pex, "record_batch_plan", racy)
        ex = ParallelExecutor(a, workers=2, block_size=24)
        ex.start()
        sems = pool_semaphores(ex)
        with pytest.raises(RuntimeError, match="refusing to dispatch"):
            ex.factorize()
        assert ex.worker_pids() == []
        assert leaked(sems) == set()


class TestWorkerKill:
    def test_sigkill_reaps_arena_and_raises_structured(self, problem):
        a, _ = problem
        ex = ParallelExecutor(a, workers=2, block_size=24)
        sems = set()
        try:
            ex.start()
            sems = pool_semaphores(ex)
            victim = ex.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            with pytest.raises(WorkerCrashError) as exc_info:
                ex.factorize()
            err = exc_info.value
            assert err.kind == "died"
            assert err.worker == 0
            assert err.exitcode == -signal.SIGKILL
            # the reap already unlinked the factor arena
            assert leaked(sems) == set()
            assert ex.worker_pids() == []
        finally:
            ex.close()
        assert leaked(sems) == set()

    def test_sigkill_mid_solve_reaps_everything(self, problem):
        a, b = problem
        ex = ParallelExecutor(a, workers=2, block_size=24)
        sems = set()
        try:
            ex.factorize()
            sems = pool_semaphores(ex)
            # factor arena + pool live; kill between phases so the solve
            # dispatch (phase message or batch await) hits the corpse
            os.kill(ex.worker_pids()[1], signal.SIGKILL)
            with pytest.raises(WorkerCrashError) as exc_info:
                ex.solve(b)
            assert exc_info.value.kind == "died"
            assert exc_info.value.exitcode == -signal.SIGKILL
            assert leaked(sems) == set()
        finally:
            ex.close()
        assert leaked(sems) == set()


def pool_gone(pids) -> bool:
    """True once none of ``pids`` names a live process."""
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        return False
    return True


class TestMidPhaseFailure:
    """Failures *inside* a phase: the peer is parked at the lockstep
    barrier, which only the coordinator's reap can release."""

    def test_sigkill_with_peer_parked_at_barrier(self, problem):
        a, b = problem
        ex = ParallelExecutor(a, workers=2, block_size=24,
                              worker_timeout=120.0)
        sems = set()
        try:
            ex.factorize()
            sems = pool_semaphores(ex)
            pids = ex.worker_pids()
            # freeze the victim before the solve is dispatched: its peer
            # runs batch 0 and parks at the barrier, the phase cannot
            # complete, and the kill is guaranteed to land mid-phase
            os.kill(pids[1], signal.SIGSTOP)
            dispatched = ex._phase_counter + 1

            def kill_once_dispatched():
                while ex._phase_counter < dispatched:
                    time.sleep(0.005)
                time.sleep(0.3)
                os.kill(pids[1], signal.SIGKILL)

            killer = threading.Thread(target=kill_once_dispatched,
                                      daemon=True)
            killer.start()
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashError) as exc_info:
                ex.solve(b)
            waited = time.monotonic() - t0
            killer.join(timeout=5.0)
            assert not killer.is_alive()
            err = exc_info.value
            assert err.kind == "died"
            assert err.worker == 1
            assert err.exitcode == -signal.SIGKILL
            assert err.phase == dispatched
            assert err.batch == 0  # the batch the parked peer had begun
            # noticed by the liveness poll, not by worker_timeout
            assert waited < 30.0
            assert ex.worker_pids() == []
            assert pool_gone(pids)
            assert leaked(sems) == set()
        finally:
            ex.close()
        assert leaked(sems) == set()

    def test_error_in_slice_reports_batch_while_peer_waits(self, problem,
                                                           monkeypatch):
        import repro.parallel.executor as pex

        a, _ = problem
        with ParallelExecutor(a, workers=2, block_size=24) as clean:
            res = clean.factorize()
        arrays = res.dag.task_arrays()
        owner = res.grid.owner_array(arrays.i, arrays.j)
        # a task of worker 1 in a late batch gets an out-of-range tile
        # row in the columns the *workers* see (the coordinator's plan,
        # conflict scan and certificate read the DAG and stay valid)
        bidx, victim = next(
            (b, int(t)) for b, tids in enumerate(res.batch_plan.batches)
            if b >= 2 for t in tids if owner[t] == 1)
        real = pex.TaskColumns.from_arrays

        def corrupt(arr):
            cols = real(arr)
            bad_i = cols.i.copy()
            bad_i[victim] = 10 ** 6
            return pex.TaskColumns(type_code=cols.type_code, k=cols.k,
                                   i=bad_i, j=cols.j)

        monkeypatch.setattr(pex.TaskColumns, "from_arrays",
                            staticmethod(corrupt))
        ex = ParallelExecutor(a, workers=2, block_size=24)
        pids = []
        try:
            ex.start()
            sems = pool_semaphores(ex)
            pids = ex.worker_pids()
            with pytest.raises(WorkerCrashError) as exc_info:
                ex.factorize()
            err = exc_info.value
            assert err.kind == "error"
            assert err.worker == 1
            assert err.batch == bidx
            assert "Traceback" in str(err)
            assert ex.worker_pids() == []
            assert pool_gone(pids)
            assert leaked(sems) == set()
        finally:
            ex.close()


class TestNoProgressTimeout:
    """``worker_timeout`` bounds the time *without progress*, not the
    length of a phase."""

    def test_stalled_pool_times_out_naming_the_batch(self, problem):
        a, b = problem
        ex = ParallelExecutor(a, workers=2, block_size=24,
                              worker_timeout=0.5)
        sems = set()
        try:
            ex.factorize()
            sems = pool_semaphores(ex)
            pids = ex.worker_pids()
            os.kill(pids[0], signal.SIGSTOP)  # alive, but going nowhere
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashError) as exc_info:
                ex.solve(b)
            assert time.monotonic() - t0 < 30.0
            err = exc_info.value
            assert err.kind == "timeout"
            assert err.phase == 2
            assert err.batch == 0
            assert err.exitcode is None
            # the reap reaches even a stopped process
            assert ex.worker_pids() == []
            assert pool_gone(pids)
            assert leaked(sems) == set()
        finally:
            ex.close()

    def test_progress_extends_the_deadline(self, problem):
        a, _ = problem
        ex = ParallelExecutor(a, workers=1, block_size=24,
                              worker_timeout=0.6)
        try:
            ex.start()
            ex._await("online", 1, phase=0)

            def slow_but_advancing():
                # 1.6 s in total, never 0.6 s without a new batch
                for batch in range(8):
                    ex._progress[0] = batch
                    time.sleep(0.2)
                ex._result_q.put(("stats", 0, 1, None, None))

            phase = threading.Thread(target=slow_but_advancing, daemon=True)
            phase.start()
            t0 = time.monotonic()
            got = ex._await("stats", 1, phase=1)
            assert time.monotonic() - t0 > 0.6
            assert [m[0] for m in got] == ["stats"]
            phase.join(timeout=5.0)
            assert not phase.is_alive()
            # ...and with the counter frozen the same wait does expire
            with pytest.raises(WorkerCrashError) as exc_info:
                ex._await("stats", 1, phase=1)
            assert exc_info.value.kind == "timeout"
            assert exc_info.value.batch == 7
        finally:
            ex.close()


class TestReleaseCost:
    """Closing a pool must not cost a heap-wide collection: every pool
    solve closes two RHS pools on each side, and a full ``gc.collect``
    takes time proportional to everything alive in the process."""

    def test_close_collects_only_when_a_cycle_pins_the_segment(
            self, monkeypatch):
        import gc

        import repro.parallel.shmem as shmem
        from repro.sparse.blocking import uniform_partition

        calls = []

        class CountingGC:
            @staticmethod
            def collect(*args):
                calls.append(args)
                return gc.collect(*args)

        monkeypatch.setattr(shmem, "gc", CountingGC)
        part = uniform_partition(48, 16)

        pool = shmem.SharedRhsPool(part, np.ones((48, 2)))
        assert set(pool.names) <= own_segments()
        pool.close()
        pool.unlink()
        assert calls == []
        assert leaked(set(pool.names), patience=0) == set()

        # an exported buffer caught in a reference cycle outlives
        # ``pools = []``: that is the one case the collection is for
        pool = shmem.SharedRhsPool(part, np.ones((48, 2)))
        cycle = [pool._segments[0].buf[:8]]
        cycle.append(cycle)
        del cycle
        pool.close()
        pool.unlink()
        assert len(calls) == 1
        assert all(shm._mmap is None for shm in pool._segments)
        assert leaked(set(pool.names), patience=0) == set()

    def test_graceful_close_joins_the_queue_feeders(self, problem):
        # no patience here: after a drained shutdown the queues'
        # semaphores are gone when ``close()`` returns
        a, b = problem
        for _ in range(3):
            ex = ParallelExecutor(a, workers=2, block_size=24)
            ex.factorize()
            ex.solve(b)
            sems = pool_semaphores(ex)
            ex.close()
            assert leaked(sems, patience=0) == set()
            assert [t.name for t in threading.enumerate()
                    if t.name == "QueueFeederThread"] == []
