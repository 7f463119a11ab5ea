"""Tests for value-only refactorisation (the circuit fast path)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arena import ScheduleArena
from repro.core.executor import BatchRecord
from repro.core.scheduler import ScheduleResult
from repro.core.task import TaskType
from repro.gpusim import GPUCostModel, H100_SXM, RTX5090
from repro.matrices import cage_like, circuit_like, poisson2d
from repro.serve import BackgroundServer, SolverClient
from repro.solvers import (
    NumericEngine,
    PaStiXSolver,
    PanguLUSolver,
    SuperLUSolver,
    base,
    pastix,
    superlu,
)
from repro.solvers.base import compile_warm_plan, replay_warm_plan
from repro.sparse import CSRMatrix, matvec, uniform_partition
from repro.verify.hazards import batch_atomic_flags


def _same_pattern_new_values(a: CSRMatrix, rng) -> CSRMatrix:
    out = a.copy()
    rows = np.repeat(np.arange(a.nrows), a.row_lengths())
    off = rows != a.indices
    out.data[off] = rng.standard_normal(int(off.sum())) * 0.5
    # keep the diagonal dominant so the pivot-free path stays valid
    offsum = np.bincount(rows[off], weights=np.abs(out.data[off]),
                         minlength=a.nrows)
    out.data[~off] = 2.0 * offsum[rows[~off]] + 1.0
    return out


class TestRefactorize:
    def test_correct_factors_and_solve(self, rng):
        a = circuit_like(120, seed=3)
        solver = PanguLUSolver(a, block_size=16, scheduler="trojan")
        solver.factorize()
        a2 = _same_pattern_new_values(a, rng)
        result = solver.refactorize(a2)
        x_true = rng.standard_normal(a2.nrows)
        b = matvec(a2, x_true)
        x = result.solve(b)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-10

    def test_matches_full_factorize(self, rng):
        a = poisson2d(10)
        a2 = _same_pattern_new_values(a, rng)
        fast = PanguLUSolver(a, block_size=16)
        fast.factorize()
        r_fast = fast.refactorize(a2)
        r_full = PanguLUSolver(a2, block_size=16).factorize()
        assert np.allclose(r_fast.L.to_dense(), r_full.L.to_dense())
        assert np.allclose(r_fast.U.to_dense(), r_full.U.to_dense())

    def test_skips_reorder_and_symbolic(self, rng):
        a = circuit_like(100, seed=5)
        solver = PanguLUSolver(a, block_size=16)
        solver.factorize()
        r = solver.refactorize(_same_pattern_new_values(a, rng))
        assert r.phase_seconds["reorder"] == 0.0
        assert r.phase_seconds["symbolic"] == 0.0

    def test_requires_prior_factorize(self):
        solver = PanguLUSolver(poisson2d(8), block_size=16)
        with pytest.raises(RuntimeError):
            solver.refactorize(poisson2d(8))

    def test_rejects_different_pattern(self):
        solver = PanguLUSolver(poisson2d(8), block_size=16)
        solver.factorize()
        with pytest.raises(ValueError):
            solver.refactorize(circuit_like(64, seed=1))

    def test_rejects_different_size(self):
        solver = PanguLUSolver(poisson2d(8), block_size=16)
        solver.factorize()
        with pytest.raises(ValueError):
            solver.refactorize(poisson2d(9))

    def test_superlu_fused_refactorize(self, rng):
        a = circuit_like(90, seed=7)
        solver = SuperLUSolver(a, max_supernode=8, scheduler="trojan")
        solver.factorize()
        a2 = _same_pattern_new_values(a, rng)
        r = solver.refactorize(a2)
        b = rng.standard_normal(a2.nrows)
        x = r.solve(b)
        assert r.residual(a2, b, x) < 1e-10

    def test_repeated_refactorisations(self, rng):
        a = circuit_like(80, seed=9)
        solver = PanguLUSolver(a, block_size=16)
        solver.factorize()
        for step in range(3):
            a = _same_pattern_new_values(a, rng)
            r = solver.refactorize(a)
            b = rng.standard_normal(a.nrows)
            assert r.residual(a, b, r.solve(b)) < 1e-10


# ----------------------------------------------------------------------
# the warm path: refactorise ≡ fresh factorise, to the bit
# ----------------------------------------------------------------------
SCHEDULE_FIELDS = ("scheduler", "device", "kernel_count", "task_count",
                   "kernel_time", "sched_overhead", "total_flops",
                   "counts_by_type")
BATCH_FIELDS = ("task_ids", "n_tasks", "types", "cuda_blocks", "flops",
                "bytes", "t_start", "t_end")


def _assert_same_csr(x, y):
    assert np.array_equal(x.indptr, y.indptr)
    assert np.array_equal(x.indices, y.indices)
    assert np.array_equal(x.data, y.data)


def _assert_same_result(warm, fresh):
    """L/U bits, per-task stats and every ScheduleResult field."""
    _assert_same_csr(warm.L, fresh.L)
    _assert_same_csr(warm.U, fresh.U)
    assert warm.stats == fresh.stats
    for name in SCHEDULE_FIELDS:
        assert getattr(warm.schedule, name) == getattr(fresh.schedule, name), \
            name
    assert len(warm.schedule.batches) == len(fresh.schedule.batches)
    for got, want in zip(warm.schedule.batches, fresh.schedule.batches):
        for name in BATCH_FIELDS:
            assert getattr(got, name) == getattr(want, name), name


def _perturbed(a: CSRMatrix, rng) -> CSRMatrix:
    """A Newton step's Jacobian: same pattern, values moved by ~1%."""
    return CSRMatrix(a.shape, a.indptr, a.indices,
                     a.data * (1.0 + 0.01 * rng.standard_normal(a.nnz)))


CIRCUIT = circuit_like(96, seed=3)
CAGE = cage_like(96, bandwidth=8, seed=12)

#: substrate cells of the differential test: (id, class, matrix, kwargs)
SUBSTRATES = [
    ("pangulu16", PanguLUSolver, CIRCUIT, {"block_size": 16}),
    ("pangulu32", PanguLUSolver, CIRCUIT, {"block_size": 32}),
    ("superlu-fused", SuperLUSolver, CAGE, {"max_supernode": 8}),
    ("superlu-unfused", SuperLUSolver, CAGE,
     {"max_supernode": 8, "merge_schur": False}),
    ("pastix", PaStiXSolver, CAGE, {"max_supernode": 8}),
]
CHAIN_POLICIES = ("trojan", "serial", "levelbatch")
CELLS = [pytest.param(cls, a, kw, policy, id=f"{name}-{policy}")
         for name, cls, a, kw in SUBSTRATES
         for policy in CHAIN_POLICIES + (("dmdas",) if cls is PaStiXSolver
                                         else ())]


class TestWarmPathBitIdentity:
    @pytest.mark.parametrize("batch_kernels", [True, False],
                             ids=["batched", "per-task"])
    @pytest.mark.parametrize("cls, a, kwargs, policy", CELLS)
    def test_refactorize_equals_fresh_factorize(self, cls, a, kwargs,
                                                policy, batch_kernels, rng):
        kwargs = dict(kwargs, scheduler=policy, batch_kernels=batch_kernels)
        solver = cls(a, **kwargs)
        solver.factorize()
        for _ in range(3):
            a = _perturbed(a, rng)
            warm = solver.refactorize(a)
            _assert_same_result(warm, cls(a, **kwargs).factorize())
        assert solver._plan is not None, "chain policy must replay"

    @pytest.mark.parametrize("cls, a, kwargs", [s[1:] for s in SUBSTRATES[:3]],
                             ids=[s[0] for s in SUBSTRATES[:3]])
    def test_streams_keeps_its_scheduler_path(self, cls, a, kwargs, rng):
        kwargs = dict(kwargs, scheduler="streams")
        solver = cls(a, **kwargs)
        solver.factorize()
        for _ in range(2):
            a = _perturbed(a, rng)
            warm = solver.refactorize(a)
            _assert_same_result(warm, cls(a, **kwargs).factorize())
        assert solver._plan is None  # overlapping launches: not a chain

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 0.3),
           fused=st.booleans())
    def test_random_same_pattern_values(self, warm_sessions, seed, spread,
                                        fused):
        solver, kwargs = warm_sessions[fused]
        a = CAGE if fused else CIRCUIT
        rng = np.random.default_rng(seed)
        a2 = CSRMatrix(a.shape, a.indptr, a.indices,
                       a.data * (1.0 + spread * rng.uniform(-1, 1, a.nnz)))
        _assert_same_result(solver.refactorize(a2),
                            type(solver)(a2, **kwargs).factorize())


@pytest.fixture(scope="module")
def warm_sessions():
    """One resident session per substrate, so the hypothesis examples
    are steady-state replays of one compiled plan."""
    sessions = {}
    for fused, (cls, a, kwargs) in enumerate([
            (PanguLUSolver, CIRCUIT, {"block_size": 16}),
            (SuperLUSolver, CAGE, {"max_supernode": 8})]):
        kwargs = dict(kwargs, scheduler="trojan")
        solver = cls(a, **kwargs)
        solver.factorize()
        sessions[bool(fused)] = (solver, kwargs)
    return sessions


class TestTwoMasks:
    """The execution order and the byte accounting need different masks.

    Hand-built launches over fake fused groups on a dense 5x5-tile
    engine.  Launch 0: groups X = (k=0, i=4, j∈{2,3,4}) and
    Y = (k=1, i=4, j∈{3,4}) — launch-level targets (4,2) and (4,3)
    differ, so no member carries the accounting flag, yet members on
    (4,3) and (4,4) truly collide.  Launch 1: groups with the *same*
    lowest column — every member is flagged, only the (3,2) pair
    collides.
    """

    GROUPS = [[(0, 4, 2), (0, 4, 3), (0, 4, 4)], [(1, 4, 3), (1, 4, 4)],
              [(0, 3, 2), (0, 3, 3)], [(1, 3, 2), (1, 3, 4)]]
    LAUNCHES = [[0, 1], [2, 3]]

    def _engine(self, sparse_tiles):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
        if sparse_tiles:  # value-dependent nonzero counts in the bytes
            dense[rng.random((10, 10)) < 0.3] = 0.0
            dense += 10.0 * np.eye(10)
        engine = NumericEngine(CSRMatrix.from_dense(np.ones((10, 10))),
                               uniform_partition(10, 2),
                               sparse_tiles=sparse_tiles,
                               batch_kernels=True)
        engine.reset_values(CSRMatrix(engine.a.shape, engine.a.indptr,
                                      engine.a.indices, dense.ravel()))
        return engine

    @pytest.mark.parametrize("sparse_tiles", [False, True],
                             ids=["dense", "sparse"])
    def test_hand_built_launches_match_per_task_oracle(self, sparse_tiles):
        engine = self._engine(sparse_tiles)
        oracle = self._engine(sparse_tiles)
        arrays = engine.dag.task_arrays()
        tid_of = {(int(k), int(i), int(j)): tid for tid, (c, k, i, j)
                  in enumerate(zip(arrays.type_code, arrays.k, arrays.i,
                                   arrays.j)) if c == int(TaskType.SSSSM)}
        groups = [[tid_of[key] for key in group] for group in self.GROUPS]
        members = (np.cumsum([0] + [len(g) for g in groups]),
                   np.asarray([t for g in groups for t in g]))
        schedule = ScheduleResult(
            scheduler="trojan", device=RTX5090.name,
            batches=[BatchRecord(
                t_start=0.0, t_end=0.0, task_ids=list(ids),
                n_tasks=len(ids), cuda_blocks=4, flops=0, bytes=0,
                types={"SSSSM": len(ids)}) for ids in self.LAUNCHES],
            kernel_count=2, task_count=4, kernel_time=0.0,
            sched_overhead=0.0, total_flops=0, counts_by_type={"SSSSM": 4})
        plan = compile_warm_plan(schedule, engine, members)
        # launch 0 carries no accounting flag yet 4 of its members
        # collide; launch 1 carries the flag on all 4 members, of which
        # only 2 collide — the serial list is the union of the two masks
        assert plan.atomic.tolist() == [False] * 5 + [True] * 4
        applied = plan.groups.op == 8
        assert np.diff(plan.groups.offsets)[applied].tolist() == [4, 4]

        result, stats = replay_warm_plan(plan, engine, GPUCostModel(RTX5090))
        expect = {}
        for ids in self.LAUNCHES:
            target = np.asarray([min(arrays.target[t] for t in groups[g])
                                 for g in ids])
            for g, flag in zip(ids, batch_atomic_flags(target)):
                for tid in groups[g]:
                    expect[tid] = oracle.run_task(oracle.dag.tasks[tid],
                                                  bool(flag))
        assert dict(stats) == expect
        for key in engine.tiles:
            assert np.array_equal(engine.tiles[key], oracle.tiles[key]), key
        for batch, ids in zip(result.batches, self.LAUNCHES):
            tids = [t for g in ids for t in groups[g]]
            assert batch.bytes == sum(expect[t].bytes for t in tids)
            assert batch.flops == sum(expect[t].flops for t in tids)


class TestWarmPathRobustness:
    @pytest.mark.parametrize("cls, a, kwargs", [s[1:] for s in SUBSTRATES[:3]],
                             ids=[s[0] for s in SUBSTRATES[:3]])
    def test_failed_step_does_not_poison_the_plan(self, cls, a, kwargs, rng):
        kwargs = dict(kwargs, scheduler="trojan")
        solver = cls(a, **kwargs)
        solver.factorize()
        good = solver.refactorize(_perturbed(a, rng))
        rows = np.repeat(np.arange(a.nrows), a.row_lengths())
        singular = CSRMatrix(a.shape, a.indptr, a.indices,
                             np.where(rows == a.indices, 0.0, a.data))
        with pytest.raises(ZeroDivisionError) as fresh:
            cls(singular, **kwargs).factorize()
        with pytest.raises(ZeroDivisionError) as warm:
            solver.refactorize(singular)
        assert str(warm.value) == str(fresh.value)
        assert solver.result is good  # the previous factors survive
        a3 = _perturbed(a, rng)
        _assert_same_result(solver.refactorize(a3),
                            cls(a3, **kwargs).factorize())

    def test_mutated_gpu_or_scheduler_recompiles(self, rng):
        a = CAGE
        solver = SuperLUSolver(a, max_supernode=8, scheduler="trojan")
        solver.factorize()
        solver.refactorize(_perturbed(a, rng))
        stale = solver._plan
        for change in ({"gpu": H100_SXM}, {"scheduler": "levelbatch"},
                       {"merge_schur": False, "scheduler": "trojan"}):
            for name, value in change.items():
                setattr(solver, name, value)
            config = {"gpu": solver.gpu, "scheduler": solver.scheduler,
                      "merge_schur": solver.merge_schur}
            for _ in range(2):  # scheduler run, then the recompiled plan
                a = _perturbed(a, rng)
                _assert_same_result(
                    solver.refactorize(a),
                    SuperLUSolver(a, max_supernode=8, **config).factorize())
            assert solver._plan is not None and solver._plan is not stale
            stale = solver._plan

    def test_steady_state_never_schedules(self, rng, monkeypatch):
        calls = []

        def counting(target, name):
            original = getattr(target, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(target, name, wrapper)

        for solver in (
                SuperLUSolver(CAGE, max_supernode=8, scheduler="trojan"),
                PanguLUSolver(CIRCUIT, block_size=16, scheduler="trojan"),
                PaStiXSolver(CAGE, max_supernode=8)):
            solver.factorize()
            solver.refactorize(_perturbed(solver.a, rng))  # compiles
            with monkeypatch.context() as monkeypatch:
                counting(base, "make_scheduler")
                counting(superlu, "merge_schur_tasks")
                counting(ScheduleArena, "__init__")
                counting(pastix.DmdasScheduler, "run")
                for _ in range(2):
                    solver.refactorize(_perturbed(solver.a, rng))
            assert calls == []

    def test_refactorize_then_solve_never_builds_stats(self, rng):
        a = _perturbed(CIRCUIT, rng)
        solver = PanguLUSolver(CIRCUIT, block_size=16, scheduler="trojan")
        assert not solver.factorize().stats.materialized
        result = solver.refactorize(a)
        b = rng.standard_normal(a.nrows)
        assert result.residual(a, b, result.solve(b)) < 1e-10
        assert not result.stats.materialized
        fresh = PanguLUSolver(a, block_size=16, scheduler="trojan").factorize()
        assert result.stats == dict(fresh.stats) and result.stats.materialized
        assert len(result.stats) == solver._engine.dag.n_tasks
        # a plain dict is still a valid ``stats`` (external pipelines
        # construct results from one)
        plain = dataclasses.replace(result, stats=dict(result.stats))
        assert plain.stats == result.stats


class TestServedWarmPath:
    def test_refactorize_reply_and_solve_match_in_process(self, rng):
        a = CAGE
        steps = [_perturbed(a, rng) for _ in range(3)]
        b = rng.standard_normal(a.nrows)
        local = SuperLUSolver(a, scheduler="trojan")
        local.factorize()
        with BackgroundServer(batch_window=0.01) as bg:
            with SolverClient(bg.host, bg.port) as client:
                session = client.factorize(a, solver="superlu",
                                           scheduler="trojan")["session"]
                for a_k in steps:
                    reply = client.refactorize(session, data=a_k.data)
                    want = local.refactorize(a_k)
                    assert reply["fast_path"] is True
                    assert reply["fill_nnz"] == want.fill_nnz
                    assert reply["schedule"] == {
                        "tasks": want.schedule.task_count,
                        "kernels": want.schedule.kernel_count,
                        "sim_time_ms": want.schedule.total_time * 1e3,
                        "gflops": want.schedule.gflops}
                    x = client.solve(session, b, refine=1)
                    assert np.array_equal(x, want.solve(b, refine=1, a=a_k))
