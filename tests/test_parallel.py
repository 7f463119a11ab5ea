"""Differential tests for the real multiprocess executor.

Three oracles triangulate ``repro.parallel``:

1. the single-process engine — L, U, per-task :class:`KernelStats` and
   solve vectors must be **bit-identical** for any worker count, across
   two solver substrates;
2. ``DistributedSimulator`` — the executor's owner-compute message and
   byte accounting must equal the simulator's fault-free numbers on the
   same DAG, grid and stats;
3. ``PlanVerifier`` — every dispatched plan certifies race-free, and a
   deliberately racy batch sequence is refused before anything runs.

The CI gate matrix runs this file once per worker count with
``REPRO_PARALLEL_WORKERS`` restricting the parametrisation to that cell.
"""

import os

import numpy as np
import pytest

from repro.cluster import DistributedSimulator, H100_CLUSTER
from repro.core.executor import ReplayBackend
from repro.matrices.generators import poisson2d
from repro.parallel import (
    ParallelExecutor,
    SharedRhsPool,
    SharedTileArena,
    WorkerCrashError,
    message_accounting,
)
from repro.solvers import SOLVER_REGISTRY
from repro.solvers.sptrsv import RhsPool
from repro.solvers.tilepool import TileArena
from repro.sparse.blocking import uniform_partition
from repro.verify.plan import verify_plan

#: (solver, kwargs) differential configurations.  superlu pins
#: merge_schur=False: the fusion rewrite happens downstream of the DAG
#: the parallel engine schedules, so both sides must stay unfused.
CONFIGS = [
    ("pangulu", {"block_size": 24}),
    ("superlu", {"max_supernode": 16, "merge_schur": False}),
]


def worker_counts() -> list[int]:
    """Worker counts under test; one CI matrix cell per count."""
    env = os.environ.get("REPRO_PARALLEL_WORKERS")
    return [int(env)] if env else [1, 2, 4]


@pytest.fixture(scope="module")
def problem():
    a = poisson2d(12)
    rng = np.random.default_rng(7)
    return a, rng.standard_normal(a.nrows)


@pytest.fixture(scope="module", params=CONFIGS,
                ids=[solver for solver, _ in CONFIGS])
def config(request):
    return request.param


@pytest.fixture(scope="module")
def reference(problem, config):
    """The single-process engine under the identical configuration."""
    a, b = problem
    solver, kwargs = config
    res = SOLVER_REGISTRY[solver](a, scheduler="trojan",
                                  **kwargs).factorize()
    x = res.solve(b, batch_solve=True, solve_scheduler="trojan")
    return res, x


@pytest.fixture(scope="module")
def runs(problem, config):
    """One multiprocess factorize+solve per worker count."""
    a, b = problem
    solver, kwargs = config
    out = {}
    for w in worker_counts():
        with ParallelExecutor(a, solver=solver, workers=w,
                              **kwargs) as ex:
            res = ex.factorize()
            x = ex.solve(b)
        out[w] = (res, x)
    return out


class TestBitIdentity:
    """Oracle 1: the single-process engine, to the bit."""

    def test_factors(self, reference, runs):
        ref, _ = reference
        for w, (res, _) in runs.items():
            assert np.array_equal(res.L.data, ref.L.data), w
            assert np.array_equal(res.L.indices, ref.L.indices), w
            assert np.array_equal(res.U.data, ref.U.data), w
            assert np.array_equal(res.U.indices, ref.U.indices), w
            assert np.array_equal(res.perm, ref.perm), w

    def test_per_task_stats(self, reference, runs):
        ref, _ = reference
        for w, (res, _) in runs.items():
            assert res.stats == ref.stats, w

    def test_solve_vectors(self, reference, runs):
        _, xr = reference
        for w, (_, x) in runs.items():
            assert np.array_equal(x, xr), w

    def test_multi_rhs_solve(self, problem, config, reference):
        a, _ = problem
        solver, kwargs = config
        rng = np.random.default_rng(11)
        b2 = rng.standard_normal((a.nrows, 3))
        ref, _ = reference
        xr = ref.solve(b2, batch_solve=True, solve_scheduler="trojan")
        with ParallelExecutor(a, solver=solver, workers=2, **kwargs) as ex:
            x = ex.solve(b2)
        assert np.array_equal(x, xr)


class TestSimulatorOracle:
    """Oracle 2: DistributedSimulator's fault-free traffic accounting."""

    def test_messages_and_bytes_match_distsim(self, runs):
        for w, (res, _) in runs.items():
            sim = DistributedSimulator(res.dag, ReplayBackend(res.stats),
                                       H100_CLUSTER, w, "trojan",
                                       grid=res.grid).run()
            assert res.messages == sim.messages, w
            assert res.comm_bytes == sim.comm_bytes, w

    def test_single_worker_is_message_free(self, runs):
        res, _ = runs[min(runs)]
        if res.workers == 1:
            assert res.messages == 0 and res.comm_bytes == 0

    def test_accounting_is_pure(self, runs):
        for w, (res, _) in runs.items():
            arrays = res.dag.task_arrays()
            owner = res.grid.owner_array(arrays.i, arrays.j)
            assert message_accounting(res.dag, owner) == (
                res.messages, res.comm_bytes)


class TestPlanCertification:
    """Oracle 3: PlanVerifier certifies what actually dispatched."""

    def test_every_run_carries_a_certified_plan(self, runs):
        for w, (res, _) in runs.items():
            assert res.plan is not None, w
            assert res.plan.nprocs == w
            report = verify_plan(res.plan, subject=f"recheck-w{w}")
            assert report.ok, report.violations

    def test_plan_order_is_the_batch_order(self, runs):
        for _, (res, _) in runs.items():
            arrays = res.dag.task_arrays()
            owner = res.grid.owner_array(arrays.i, arrays.j)
            flat = np.concatenate(res.batch_plan.batches)
            for r, order in enumerate(res.plan.order):
                assert np.array_equal(order, flat[owner[flat] == r])

    def test_each_phase_is_certified_exactly_once(self, problem,
                                                   monkeypatch):
        # one certifier: a single PlanVerifier pass per phase plan, no
        # second verifier beside it
        from repro.verify.plan import PlanVerifier

        a, b = problem
        calls = []
        real = PlanVerifier.verify

        def counting(self, subject="plan", hazards=True):
            calls.append(subject)
            return real(self, subject=subject, hazards=hazards)

        monkeypatch.setattr(PlanVerifier, "verify", counting)
        with ParallelExecutor(a, workers=2, block_size=24) as ex:
            ex.factorize()
            ex.solve(b)
        assert sorted(calls) == ["parallel/pangulu/factor",
                                 "parallel/pangulu/solve-L",
                                 "parallel/pangulu/solve-U"]

    def test_racy_batches_refused_before_dispatch(self, problem,
                                                  monkeypatch):
        # collapse the whole DAG into one "batch": dependent tasks
        # side by side, which certification must refuse to dispatch
        import repro.parallel.executor as pex

        a, _ = problem
        real = pex.record_batch_plan

        def racy(dag, model, **kwargs):
            plan = real(dag, model, **kwargs)
            flat = np.concatenate(plan.batches)
            return pex.BatchPlan(scheduler=plan.scheduler,
                                 device=plan.device, batches=[flat],
                                 n_tasks=plan.n_tasks)

        monkeypatch.setattr(pex, "record_batch_plan", racy)
        with ParallelExecutor(a, workers=2, block_size=24) as ex:
            with pytest.raises(RuntimeError, match="refusing to dispatch"):
                ex.factorize()


class TestSharedPools:
    """SharedTileArena/SharedRhsPool re-homing semantics."""

    def test_arena_attach_sees_creator_data(self, problem):
        a, _ = problem
        part = uniform_partition(a.nrows, 24)
        plain = TileArena(part, np.ones((part.nblocks,) * 2, dtype=bool))
        shared = SharedTileArena(part, np.ones((part.nblocks,) * 2,
                                               dtype=bool))
        try:
            shared.stamp(a)
            plain.stamp(a)
            attached = SharedTileArena.attach(shared.spec())
            try:
                for pool_a, pool_b in zip(plain.pools, attached.pools):
                    assert np.array_equal(pool_a, pool_b)
                # writes through one mapping are visible through the other
                attached.pools[0][...] = 3.25
                assert np.all(shared.pools[0] == 3.25)
            finally:
                attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_rhs_gather_round_trips(self, problem):
        a, _ = problem
        part = uniform_partition(a.nrows, 24)
        rng = np.random.default_rng(3)
        b2 = rng.standard_normal((part.n, 2))
        shared = SharedRhsPool(part, b2)
        plain = RhsPool(part, b2)
        try:
            attached = SharedRhsPool.attach(shared.spec())
            try:
                assert np.array_equal(attached.gather(), plain.gather())
                assert np.array_equal(attached.gather(), b2)
            finally:
                attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_only_creator_may_unlink(self, problem):
        a, _ = problem
        part = uniform_partition(a.nrows, 24)
        shared = SharedTileArena(part, np.ones((part.nblocks,) * 2,
                                               dtype=bool))
        try:
            attached = SharedTileArena.attach(shared.spec())
            with pytest.raises(RuntimeError, match="creating side"):
                attached.unlink()
            attached.close()
        finally:
            shared.close()
            shared.unlink()


class TestCoordinator:
    def test_rejects_bad_arguments(self, problem):
        a, _ = problem
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(a, workers=0)
        with pytest.raises(ValueError, match="solver"):
            ParallelExecutor(a, solver="magma")

    def test_worker_error_reported_structured(self, problem):
        a, _ = problem
        ex = ParallelExecutor(a, workers=1, block_size=24)
        try:
            ex.start()
            ex._task_qs[0].put(("frobnicate",))
            with pytest.raises(WorkerCrashError) as exc_info:
                ex._await("done", 1, phase=0)
            assert exc_info.value.kind == "error"
            assert "frobnicate" in str(exc_info.value)
        finally:
            ex.close()

    def test_solve_before_factorize_factorizes(self, problem):
        a, b = problem
        with ParallelExecutor(a, workers=2, block_size=24) as ex:
            x = ex.solve(b)
            assert ex.result is not None
        ref = SOLVER_REGISTRY["pangulu"](a, scheduler="trojan",
                                         block_size=24).factorize()
        assert np.array_equal(
            x, ref.solve(b, batch_solve=True, solve_scheduler="trojan"))

    def test_solve_plans_checked_once_per_shape(self, problem, monkeypatch):
        # record + certify once per (triangle, RHS width); later
        # solves of the same shape only dispatch
        import repro.parallel.executor as pex

        a, b = problem
        calls = []
        real = pex.verify_plan
        monkeypatch.setattr(
            pex, "verify_plan",
            lambda spec, subject="plan": (calls.append(subject),
                                          real(spec, subject=subject))[1])
        rng = np.random.default_rng(2)
        with ParallelExecutor(a, workers=2, block_size=24) as ex:
            ex.factorize()
            xs = [ex.solve(b)]
            per_solve = ex.solve_messages
            xs += [ex.solve(b), ex.solve(b)]
            # traffic is still accounted per solve, not per plan
            assert per_solve > 0 and ex.solve_messages == 3 * per_solve
            ex.solve(rng.standard_normal((a.nrows, 2)))
            xs.append(ex.solve(b))
        assert all(np.array_equal(x, xs[0]) for x in xs)
        assert sorted(calls) == sorted(
            ["parallel/pangulu/factor"]
            + ["parallel/pangulu/solve-L", "parallel/pangulu/solve-U"] * 2)


def _fewest_barriers(dag, owner, batches):
    """Reference for ``elidable_barriers``: stab every cross-owner
    edge's batch interval with as few barriers as possible (classic
    greedy by right endpoint), one Python step per edge."""
    where = np.empty(dag.n_tasks, dtype=np.int64)
    for b, tids in enumerate(batches):
        where[tids] = b
    spans = sorted(
        {(int(where[t]), int(where[s]))
         for t in range(dag.n_tasks) for s in dag.successors[t]
         if owner[t] != owner[s]}, key=lambda span: span[1])
    kept, last = 0, -1
    for lo, hi in spans:
        if not lo <= last < hi:
            last = hi - 1
            kept += 1
    return kept


class TestPhaseAccounting:
    def test_phase_seconds_keys(self, runs):
        for w, (res, _) in runs.items():
            assert {"spawn", "reorder", "symbolic", "plan", "boot_wait",
                    "numeric"} <= set(res.phase_seconds), w
            assert all(v >= 0.0 for v in res.phase_seconds.values())

    def test_barrier_counts(self, runs):
        from repro.parallel import elidable_barriers

        for w, (res, _) in runs.items():
            batches = res.batch_plan.batches
            arrays = res.dag.task_arrays()
            owner = res.grid.owner_array(arrays.i, arrays.j)
            assert res.barriers == len(batches) - 1
            assert res.elidable_barriers == elidable_barriers(
                res.dag, owner, batches)
            assert res.elidable_barriers == res.barriers - _fewest_barriers(
                res.dag, owner, batches)
            if w == 1:
                assert res.elidable_barriers == res.barriers
