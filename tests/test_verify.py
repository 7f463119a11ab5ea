"""verify_schedule: adversarial schedules caught with the right codes.

A real block DAG (poisson 16², block 8) scheduled by the trojan policy
is the clean baseline; every test then breaks it in one specific way and
asserts the verifier reports exactly that violation class.  Small
synthetic DAGs cover the hazard matrix precisely (atomic SSSSM pair
legal, GETRF+SSSSM pair illegal, read-vs-write illegal).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import build_block_dag, make_scheduler
from repro.core.dag import TaskDAG
from repro.core.executor import EstimateBackend
from repro.core.staticanalysis import validate_schedule
from repro.core.task import Task, TaskType
from repro.gpusim import GPUCostModel, RTX5090
from repro.matrices import poisson2d
from repro.sparse import uniform_partition
from repro.symbolic import block_fill
from repro.verify import report as rep
from repro.verify.hazards import batch_atomic_flags
from repro.verify.schedule import verify_schedule


@pytest.fixture(scope="module")
def dag():
    a = poisson2d(16)
    part = uniform_partition(a.nrows, 8)
    return build_block_dag(block_fill(a, part), part)


@pytest.fixture(scope="module")
def batches(dag):
    result = make_scheduler("trojan", dag, EstimateBackend(),
                            GPUCostModel(RTX5090)).run()
    return [sorted(int(t) for t in b.task_ids) for b in result.batches]


def _synthetic_dag(tasks, edges=()):
    """A hand-built DAG over an 8×8 tile grid."""
    successors = [[] for _ in tasks]
    pred_count = np.zeros(len(tasks), dtype=np.int64)
    for u, v in edges:
        successors[u].append(v)
        pred_count[v] += 1
    return TaskDAG(tasks=tasks, pred_count=pred_count,
                   successors=successors,
                   part=uniform_partition(8 * 16, 16))


def _task(tid, ttype, k, i, j):
    return Task(tid=tid, type=ttype, k=k, i=i, j=j,
                rows=16, cols=16, nnz=256, flops_est=10, bytes_est=80)


class TestCleanSchedules:
    def test_trojan_schedule_verifies(self, dag, batches):
        report = verify_schedule(dag, batches, gpu=RTX5090)
        assert report.ok, report.describe()
        assert set(report.checks) == {"cycles", "completeness",
                                      "dependencies", "hazards", "capacity"}

    def test_timed_records_verify(self, dag):
        result = make_scheduler("trojan", dag, EstimateBackend(),
                                GPUCostModel(RTX5090)).run()
        assert verify_schedule(dag, result.batches, gpu=RTX5090).ok


class TestAdversarialSchedules:
    def test_reversed_dependency(self, dag, batches):
        report = verify_schedule(dag, batches[::-1])
        assert rep.DEP_ORDER in report.codes()
        v = report.by_code(rep.DEP_ORDER)[0]
        assert len(v.task_ids) == 2 and len(v.batch_ids) == 2

    def test_dropped_task(self, dag, batches):
        report = verify_schedule(dag, batches[:-1])
        assert rep.TASK_MISSING in report.codes()
        missing = report.by_code(rep.TASK_MISSING)[0]
        assert set(missing.task_ids) == set(batches[-1])

    def test_duplicate_task(self, dag, batches):
        report = verify_schedule(dag, batches + [batches[0]])
        assert rep.TASK_DUPLICATE in report.codes()

    def test_unknown_task(self, dag, batches):
        report = verify_schedule(dag, batches + [[dag.n_tasks + 7]])
        assert rep.TASK_UNKNOWN in report.codes()

    def test_write_conflict_pair(self, dag, batches):
        from repro.verify.cases import MUTATIONS
        mutated = MUTATIONS["co_schedule_write_conflict"](batches, dag)
        report = verify_schedule(dag, mutated)
        assert rep.HAZARD_WW in report.codes()

    def test_over_budget_batch(self, dag, batches):
        merged = [[t for b in batches for t in b]]
        report = verify_schedule(dag, merged, gpu=RTX5090)
        assert rep.CAPACITY_BLOCKS in report.codes()

    def test_all_violations_reported_at_once(self, dag, batches):
        # drop a batch AND reverse: both violation classes in one report
        report = validate_schedule(dag, batches[:-1][::-1], strict=False)
        assert rep.TASK_MISSING in report.codes()
        assert rep.DEP_ORDER in report.codes()
        assert len(report.violations) > 1

    def test_strict_raises_with_legacy_messages(self, dag, batches):
        with pytest.raises(AssertionError, match="never executed"):
            validate_schedule(dag, batches[:-1])
        with pytest.raises(AssertionError, match="twice"):
            validate_schedule(dag, batches + [batches[0]])
        with pytest.raises(AssertionError, match="before"):
            validate_schedule(dag, batches[::-1])


class TestHazardMatrix:
    def test_atomic_ssssm_pair_is_legal(self):
        # two Schur updates accumulating into one tile: the batched
        # kernels flag them atomic and apply serially — not a race
        tasks = [_task(0, TaskType.SSSSM, 0, 3, 4),
                 _task(1, TaskType.SSSSM, 1, 3, 4)]
        report = verify_schedule(_synthetic_dag(tasks), [[0, 1]])
        assert report.ok, report.describe()

    def test_getrf_ssssm_same_tile_is_ww(self):
        tasks = [_task(0, TaskType.GETRF, 2, 2, 2),
                 _task(1, TaskType.SSSSM, 0, 2, 2)]
        report = verify_schedule(_synthetic_dag(tasks), [[0, 1]])
        assert rep.HAZARD_WW in report.codes()
        assert set(report.by_code(rep.HAZARD_WW)[0].task_ids) == {0, 1}

    def test_read_of_batchmate_write_is_rw(self):
        # TSTRF rewrites tile (1,0) while an SSSSM in the same batch
        # reads it as its L panel
        tasks = [_task(0, TaskType.TSTRF, 0, 1, 0),
                 _task(1, TaskType.SSSSM, 0, 1, 2)]
        report = verify_schedule(_synthetic_dag(tasks), [[0, 1]])
        assert rep.HAZARD_RW in report.codes()
        v = report.by_code(rep.HAZARD_RW)[0]
        assert set(v.task_ids) == {0, 1}

    def test_separate_batches_are_legal(self):
        tasks = [_task(0, TaskType.TSTRF, 0, 1, 0),
                 _task(1, TaskType.SSSSM, 0, 1, 2)]
        dag = _synthetic_dag(tasks, edges=[(0, 1)])
        assert verify_schedule(dag, [[0], [1]]).ok

    def test_hazards_flag_disables_tile_checks(self):
        tasks = [_task(0, TaskType.GETRF, 2, 2, 2),
                 _task(1, TaskType.SSSSM, 0, 2, 2)]
        dag = _synthetic_dag(tasks)
        report = verify_schedule(dag, [[0, 1]], hazards=False)
        assert report.ok
        assert "hazards" not in report.checks


class TestStructuralChecks:
    def test_cycle_detected(self):
        tasks = [_task(0, TaskType.GETRF, 0, 0, 0),
                 _task(1, TaskType.TSTRF, 0, 1, 0)]
        dag = _synthetic_dag(tasks, edges=[(0, 1), (1, 0)])
        report = verify_schedule(dag, [[0], [1]])
        assert rep.DAG_CYCLE in report.codes()

    def test_empty_dag_empty_schedule(self):
        dag = _synthetic_dag([])
        assert verify_schedule(dag, []).ok

    def test_empty_dag_nonempty_schedule(self):
        dag = _synthetic_dag([])
        report = verify_schedule(dag, [[0]])
        assert rep.TASK_UNKNOWN in report.codes()

    def test_capacity_singleton_exempt(self):
        # one oversized task alone is the Collector's own escape hatch
        tiny = SimpleNamespace(max_resident_blocks=4,
                               shared_mem_total_bytes=10**9)
        tasks = [_task(0, TaskType.GETRF, 0, 0, 0),
                 _task(1, TaskType.TSTRF, 0, 1, 0)]
        dag = _synthetic_dag(tasks, edges=[(0, 1)])
        assert verify_schedule(dag, [[0], [1]], gpu=tiny).ok
        merged = verify_schedule(dag, [[0, 1]], gpu=tiny)
        assert rep.CAPACITY_BLOCKS in merged.codes()


class TestHazardKernel:
    def test_flags_duplicates_only(self):
        target = np.asarray([5, -1, 5, 7, -1, 3])
        flags = batch_atomic_flags(target)
        assert flags.tolist() == [True, False, True, False, False, False]

    def test_out_buffer_reused(self):
        scratch = np.ones(16, dtype=bool)
        target = np.asarray([2, 2, -1])
        flags = batch_atomic_flags(target, out=scratch)
        assert flags.shape == (3,)
        assert flags.tolist() == [True, True, False]
        assert flags.base is scratch
