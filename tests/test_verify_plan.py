"""Whole-plan static certification (``repro.verify.plan``).

Covers the four analysis passes on hand-written plans, the
owner-compute clean path on real factorisation DAGs, the shared
effect-footprint layer's bit-identity with the executor's hazard
targets, the golden plan case files under ``tests/golden/plans``, and
the static/dynamic twin contract: every dynamic adversarial catch is
either caught statically or documented ``DYNAMIC_ONLY``.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.cluster import FaultSpec, ProcessGrid
from repro.core import build_block_dag
from repro.matrices import poisson2d
from repro.sparse import uniform_partition
from repro.symbolic import block_fill
from repro.verify import report as rep
from repro.verify.cases import load_case, run_case_file
from repro.verify.effects import atomic_write_targets, effect_footprints
from repro.verify.plan import (
    DYNAMIC_ONLY,
    STATIC_TWIN,
    PlanSpec,
    PlanVerifier,
    verify_plan,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
PLAN_CASES = sorted((GOLDEN_DIR / "plans").glob("*.json"))
ADVERSARIAL = sorted((GOLDEN_DIR / "adversarial").glob("*.json"))


@pytest.fixture(scope="module")
def dag():
    a = poisson2d(16)
    part = uniform_partition(a.nrows, 8)
    return build_block_dag(block_fill(a, part), part)


def plan_of(tasks, edges, nprocs=2, nb=2, **kw):
    return PlanSpec.from_dict({
        "nprocs": nprocs, "nb": nb, "tasks": tasks, "edges": edges, **kw})


# ---------------------------------------------------------------------
# effect layer: one definition shared with the executor
# ---------------------------------------------------------------------
class TestEffectLayer:
    def test_targets_bit_identical_to_task_arrays(self, dag):
        arrays = dag.task_arrays()
        recomputed = atomic_write_targets(
            arrays.type_code, arrays.i, arrays.j, dag.part.nblocks)
        np.testing.assert_array_equal(arrays.target, recomputed)

    def test_footprints_cover_every_task(self, dag):
        fp = effect_footprints(dag)
        assert fp.write_tile.shape == (dag.n_tasks,)
        assert fp.read_owner.shape == fp.read_tile.shape
        # every read endpoint is a real task and a real tile
        assert (fp.read_owner >= 0).all()
        assert (fp.read_owner < dag.n_tasks).all()
        assert (fp.read_tile >= 0).all()
        assert (fp.read_tile < fp.ntiles).all()


# ---------------------------------------------------------------------
# clean path: owner-compute plans of real DAGs certify clean
# ---------------------------------------------------------------------
class TestCleanPlans:
    @pytest.mark.parametrize("nprocs", [1, 4, 8])
    def test_owner_compute_is_clean(self, dag, nprocs):
        plan = PlanSpec.from_dag(dag, ProcessGrid(nprocs))
        report = verify_plan(plan)
        assert report.ok, report.describe()

    @pytest.mark.parametrize(
        "fixture",
        sorted((pathlib.Path(__file__).parent / "faults").glob("*.json")),
        ids=lambda p: p.stem)
    def test_fault_fixtures_certify_clean(self, dag, fixture):
        plan = PlanSpec.from_dag(
            dag, ProcessGrid(8), faults=FaultSpec.from_json(fixture),
            mem_budget_bytes=64e9)
        report = verify_plan(plan)
        assert report.ok, report.describe()
        assert "memory" in report.checks

    def test_empty_plan(self):
        plan = plan_of([], [], nprocs=1, nb=1)
        assert verify_plan(plan).ok


# ---------------------------------------------------------------------
# race pass: vector-clock happens-before
# ---------------------------------------------------------------------
class TestRaces:
    def test_cross_rank_ww_unordered(self):
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 1}],
            [])
        assert rep.PLAN_RACE_WW in verify_plan(plan).codes()

    def test_message_edge_orders_the_pair(self):
        # same write pair, but now a DAG edge (a message) orders them
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 1}],
            [[0, 1]])
        assert rep.PLAN_RACE_WW not in verify_plan(plan).codes()

    def test_transitive_ordering_via_third_rank(self):
        # 0 -> relay on rank 2 -> 1: ordered only transitively, which
        # per-edge reasoning would miss but vector clocks carry
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 1},
             {"type": "TSTRF", "i": 1, "j": 0, "k": 0, "rank": 2}],
            [[0, 2], [2, 1]], nprocs=3)
        assert verify_plan(plan).ok

    def test_cross_rank_rw_unordered(self):
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "TSTRF", "i": 1, "j": 0, "k": 0, "rank": 1}],
            [])
        assert rep.PLAN_RACE_RW in verify_plan(plan).codes()

    def test_same_rank_program_order_suffices(self):
        # no DAG edge, but both tasks on one rank: program order is HB
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "TSTRF", "i": 1, "j": 0, "k": 0, "rank": 0}],
            [])
        assert verify_plan(plan).ok

    def test_atomic_escape_not_honored_cross_rank(self):
        # two SSSSMs into one tile: atomic on one device, but the
        # serial-apply guarantee does not span ranks
        plan = plan_of(
            [{"type": "SSSSM", "i": 1, "j": 1, "k": 0, "rank": 0},
             {"type": "SSSSM", "i": 1, "j": 1, "k": 0, "rank": 1}],
            [])
        assert rep.PLAN_RACE_WW in verify_plan(plan).codes()


# ---------------------------------------------------------------------
# liveness pass: wait cycles, orphans, dead ranks
# ---------------------------------------------------------------------
class TestLiveness:
    def test_cross_rank_wait_cycle(self):
        plan = plan_of(
            [{"type": "TSTRF", "i": 1, "j": 0, "k": 0, "rank": 0},
             {"type": "GETRF", "i": 1, "j": 1, "k": 1, "rank": 0},
             {"type": "TSTRF", "i": 2, "j": 1, "k": 1, "rank": 1},
             {"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 1}],
            [[3, 0], [1, 2]], nb=3,
            order=[[0, 1], [2, 3]])
        report = verify_plan(plan)
        assert report.codes() == {rep.PLAN_WAIT_CYCLE}

    def test_same_edges_different_order_is_clean(self):
        # identical DAG; swapping rank 1's program order breaks the cycle
        plan = plan_of(
            [{"type": "TSTRF", "i": 1, "j": 0, "k": 0, "rank": 0},
             {"type": "GETRF", "i": 1, "j": 1, "k": 1, "rank": 0},
             {"type": "TSTRF", "i": 2, "j": 1, "k": 1, "rank": 1},
             {"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 1}],
            [[3, 0], [1, 2]], nb=3,
            order=[[0, 1], [3, 2]])
        assert verify_plan(plan).ok

    def test_orphaned_send_and_missing_task(self):
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "TSTRF", "i": 1, "j": 0, "k": 0, "rank": 1}],
            [[0, 1]], order=[[0], []])
        codes = verify_plan(plan).codes()
        assert rep.PLAN_ORPHAN_SEND in codes
        assert rep.TASK_MISSING in codes

    def test_orphaned_recv(self):
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "TSTRF", "i": 1, "j": 0, "k": 0, "rank": 1}],
            [[0, 1]], order=[[], [1]])
        assert rep.PLAN_ORPHAN_RECV in verify_plan(plan).codes()

    def test_dead_rank_without_checkpointing(self):
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "TSTRF", "i": 1, "j": 0, "k": 0, "rank": 1}],
            [[0, 1]],
            faults={"deaths": [{"rank": 1, "time": 1e-3}],
                    "checkpoint_interval": None})
        assert rep.PLAN_DEAD_SEND in verify_plan(plan).codes()
        assert plan.checkpointing is False

    def test_dead_rank_with_checkpointing_is_clean(self):
        # same death, but checkpoint re-homing recovers the rank
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "TSTRF", "i": 1, "j": 0, "k": 0, "rank": 1}],
            [[0, 1]],
            faults={"deaths": [{"rank": 1, "time": 1e-3}],
                    "checkpoint_interval": 1e-4})
        assert verify_plan(plan).ok
        assert plan.checkpointing is True

    def test_duplicate_and_unknown_ids(self):
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0}],
            [], order=[[0, 0, 7], []])
        codes = verify_plan(plan).codes()
        assert rep.TASK_DUPLICATE in codes
        assert rep.TASK_UNKNOWN in codes


# ---------------------------------------------------------------------
# effects + memory passes
# ---------------------------------------------------------------------
class TestEffectsAndMemory:
    def test_effect_edge_on_disjoint_footprints(self):
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "GETRF", "i": 2, "j": 2, "k": 2, "rank": 0}],
            [[0, 1]], nprocs=1, nb=3)
        assert rep.PLAN_EFFECT_EDGE in verify_plan(plan).codes()

    def test_justified_edge_is_clean(self):
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "rank": 0},
             {"type": "TSTRF", "i": 1, "j": 0, "k": 0, "rank": 0}],
            [[0, 1]], nprocs=1)
        assert verify_plan(plan).ok

    def test_hwm_counts_received_tiles(self):
        # rank 1 owns 500 B of factors (fits) but the received remote
        # panel (800 B) pushes the worst-case high-water mark to 1300 B
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "nnz": 100,
              "rank": 0},
             {"type": "TSTRF", "i": 1, "j": 0, "k": 0, "nnz": 50,
              "rank": 1}],
            [[0, 1]], mem_budget_bytes=1000)
        report = verify_plan(plan)
        assert report.codes() == {rep.PLAN_MEM_HWM}
        [v] = report.by_code(rep.PLAN_MEM_HWM)
        assert v.rank == 1

    def test_received_tiles_deduplicated_per_rank(self):
        # two consumers of one remote tile on the same rank hold ONE
        # resident copy, so 500 + 800 stays within a 1400 B budget
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "nnz": 100,
              "rank": 0},
             {"type": "TSTRF", "i": 1, "j": 0, "k": 0, "nnz": 25,
              "rank": 1},
             {"type": "GEESM", "i": 0, "j": 1, "k": 0, "nnz": 25,
              "rank": 1}],
            [[0, 1], [0, 2]], mem_budget_bytes=1400)
        assert verify_plan(plan).ok

    def test_no_budget_skips_memory_pass(self):
        plan = plan_of(
            [{"type": "GETRF", "i": 0, "j": 0, "k": 0, "nnz": 10**9,
              "rank": 0}], [])
        report = verify_plan(plan)
        assert report.ok
        assert "memory" not in report.checks


# ---------------------------------------------------------------------
# golden plan cases + the static/dynamic twin contract
# ---------------------------------------------------------------------
class TestGoldenPlans:
    def test_plan_case_files_exist(self):
        assert len(PLAN_CASES) >= 4

    @pytest.mark.parametrize("path", PLAN_CASES, ids=lambda p: p.stem)
    def test_case_reports_exactly_expected_codes(self, path):
        report, expected, missed = run_case_file(path)
        assert not missed, f"{path.name} missed {missed}"
        assert report.codes() == set(expected), report.describe()

    def test_twin_map_covers_dynamic_codes(self):
        """Every trace-kind adversarial expectation is either caught
        statically (its STATIC_TWIN code is exercised by a plan golden)
        or documented DYNAMIC_ONLY."""
        plan_codes = set()
        for path in PLAN_CASES:
            plan_codes.update(load_case(path)["expect"])
        for path in ADVERSARIAL:
            case = load_case(path)
            if case.get("kind") != "trace":
                continue
            for code in case["expect"]:
                assert code in DYNAMIC_ONLY or code in STATIC_TWIN, \
                    f"{path.name}: {code} has no static twin and is " \
                    "not documented DYNAMIC_ONLY"
                if code in STATIC_TWIN:
                    assert STATIC_TWIN[code] in plan_codes, \
                        f"twin {STATIC_TWIN[code]} of {code} is not " \
                        "exercised by any golden plan"

    def test_dynamic_only_is_disjoint_from_twins(self):
        assert not DYNAMIC_ONLY & set(STATIC_TWIN)


# ---------------------------------------------------------------------
# simulator precondition wiring
# ---------------------------------------------------------------------
class TestCertifyPrecondition:
    def test_certified_simulation_runs(self):
        from repro.cluster import H100_CLUSTER, banded_block_dag
        from repro.core.executor import EstimateBackend

        sim_dag = banded_block_dag(12, 3)
        res = __import__("repro.cluster.distsim", fromlist=["x"]) \
            .DistributedSimulator(
                sim_dag, EstimateBackend(), H100_CLUSTER, 4, "trojan",
                certify=True).run()
        assert res.summary()["time_s"] > 0

    def test_certify_rejects_undersized_budget(self):
        """A cluster whose per-rank budget cannot hold the plan fails
        the precondition before any event fires."""
        import dataclasses

        from repro.cluster import H100_CLUSTER, banded_block_dag
        from repro.cluster.distsim import DistributedSimulator
        from repro.core.executor import EstimateBackend

        tiny_gpu = dataclasses.replace(
            H100_CLUSTER.gpu, memory_gb=1e-6)
        tiny = dataclasses.replace(H100_CLUSTER, gpu=tiny_gpu)
        sim_dag = banded_block_dag(12, 3)
        sim = DistributedSimulator(
            sim_dag, EstimateBackend(), tiny, 4, "trojan", certify=True)
        with pytest.raises(AssertionError, match="PLAN_MEM_HWM"):
            sim.run()


# ---------------------------------------------------------------------
# JSON round-trip details
# ---------------------------------------------------------------------
class TestPlanSpecParsing:
    def test_rank_defaults_to_grid_owner(self):
        plan = PlanSpec.from_dict({
            "nprocs": 4, "nb": 2, "grid": {"pr": 2, "pc": 2},
            "tasks": [{"type": "GETRF", "i": 1, "j": 1, "k": 1}],
            "edges": []})
        assert plan.rank[0] == ProcessGrid(4, 2, 2).owner(1, 1)

    def test_golden_files_are_valid_json_plans(self):
        for path in PLAN_CASES:
            case = json.loads(path.read_text(encoding="utf-8"))
            assert case["kind"] == "plan"
            assert case["expect"], path.name
            PlanSpec.from_dict(case["plan"])  # must parse

    def test_order_must_match_nprocs(self):
        with pytest.raises(ValueError):
            plan_of([{"type": "GETRF", "i": 0, "j": 0, "k": 0,
                      "rank": 0}], [], order=[[0]])


# ---------------------------------------------------------------------
# golden plan from a *real* multiprocess execution
# ---------------------------------------------------------------------
class TestExecutionGolden:
    """The plan the ParallelExecutor actually dispatched, round-tripped
    through the golden JSON format, must still certify clean — tying the
    static format to the real engine rather than hand-written fixtures."""

    @pytest.fixture(scope="class")
    def executed(self):
        from repro.parallel import ParallelExecutor

        a = poisson2d(12)
        with ParallelExecutor(a, workers=4, block_size=24) as ex:
            res = ex.factorize()
        return res

    def test_dispatched_plan_certifies_clean(self, executed):
        report = verify_plan(executed.plan, subject="executed")
        assert report.ok, report.describe()

    def test_round_trip_certifies_clean(self, executed):
        payload = json.loads(json.dumps(executed.plan.to_dict()))
        back = PlanSpec.from_dict(payload)
        assert verify_plan(back, subject="round-trip").ok
        assert back.nprocs == executed.plan.nprocs
        np.testing.assert_array_equal(back.type_code,
                                      executed.plan.type_code)
        np.testing.assert_array_equal(back.rank, executed.plan.rank)
        for mine, theirs in zip(back.order, executed.plan.order):
            np.testing.assert_array_equal(mine, theirs)

    def test_execution_order_covers_every_task_once(self, executed):
        # the execution order is the scheduler's, not from_dag's
        # level-schedule linearisation; it must still be a permutation
        # of the DAG (and certify — asserted above) on the same ranks
        canonical = PlanSpec.from_dag(executed.dag, executed.grid)
        assert verify_plan(canonical).ok
        np.testing.assert_array_equal(canonical.rank, executed.plan.rank)
        flat = np.concatenate(executed.plan.order)
        assert np.array_equal(np.sort(flat),
                              np.arange(executed.dag.n_tasks))

    def test_from_execution_rejects_partial_cover(self, executed):
        from repro.verify.plan import PlanSpec as PS

        batches = [b for b in executed.batch_plan.batches[:-1]]
        with pytest.raises(ValueError, match="exactly once"):
            PS.from_execution(executed.dag, executed.grid, batches)


# ---------------------------------------------------------------------
# the two happens-before gears certify identically
# ---------------------------------------------------------------------
class _ExactVerifier(PlanVerifier):
    """The reference: hint removed, exact Kahn-peel engine forced."""

    def __init__(self, plan):
        super().__init__(dataclasses.replace(plan, lvl=None))

    def _order_level_monotone(self, lvl) -> bool:
        return False


def _golden_plan_payloads():
    """Every golden JSON that ``PlanSpec.from_dict`` loads: all of
    ``plans/`` and whichever ``adversarial/`` cases carry a plan-shaped
    body (schedule mutations and raw traces do not parse as plans)."""
    out = []
    for path in PLAN_CASES + ADVERSARIAL:
        case = json.loads(path.read_text(encoding="utf-8"))
        body = case.get("plan") or case.get("trace")
        try:
            PlanSpec.from_dict(body)
        except (KeyError, TypeError, ValueError):
            continue
        out.append(pytest.param(body, id=f"{path.parent.name}-{path.stem}"))
    return out


def _swap_dependent(dag, batches):
    """Swap the first two batches joined by a DAG edge."""
    where = np.empty(dag.n_tasks, dtype=np.int64)
    for b, tids in enumerate(batches):
        where[tids] = b
    indptr, succ = dag.successor_csr()
    prod = np.repeat(np.arange(dag.n_tasks), np.diff(indptr))
    e = int(np.argmin(where[succ] - where[prod]))
    lo, hi = int(where[prod[e]]), int(where[succ[e]])
    out = list(batches)
    out[lo], out[hi] = out[hi], out[lo]
    return out


class TestGearsAgree:
    """The sweep gear is an optimisation, never a second opinion: for
    clean and racy plans alike its report equals the exact engine's,
    code for code and task id for task id."""

    #: (solver, kwargs) — the substrates the parallel engine dispatches
    SUBSTRATES = [("pangulu", {"block_size": 24}),
                  ("superlu", {"max_supernode": 16, "merge_schur": False})]

    @staticmethod
    def assert_same_report(plan, expect_gear=None):
        fast = PlanVerifier(plan)
        got = fast.verify()
        exact = _ExactVerifier(plan)
        want = exact.verify()
        assert exact.gear == "exact"
        if expect_gear is not None:
            assert fast.gear == expect_gear
        assert got.checks == want.checks
        assert got.violations == want.violations
        return got

    @pytest.fixture(scope="class", params=SUBSTRATES,
                    ids=[s for s, _ in SUBSTRATES])
    def dags(self, request):
        """Factor, L-solve and U-solve DAGs of one substrate, each with
        the batch sequence the parallel coordinator would record."""
        from repro.core.executor import record_batch_plan
        from repro.gpusim import RTX5090, GPUCostModel
        from repro.solvers import SOLVER_REGISTRY

        solver, kwargs = request.param
        res = SOLVER_REGISTRY[solver](poisson2d(12), scheduler="trojan",
                                      **kwargs).factorize()
        model = GPUCostModel(RTX5090)
        out = [(res.dag, record_batch_plan(res.dag, model).batches)]
        for ctx in res.solve_contexts():
            sdag = ctx.dag_for(1)
            out.append((sdag, record_batch_plan(sdag, model,
                                                solve=True).batches))
        return out

    @pytest.mark.parametrize("payload", _golden_plan_payloads())
    def test_golden_plans(self, payload):
        self.assert_same_report(PlanSpec.from_dict(payload))

    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_execution_plans_take_the_sweep_gear(self, dags, nprocs):
        for sdag, batches in dags:
            plan = PlanSpec.from_execution(sdag, ProcessGrid(nprocs),
                                           batches)
            report = self.assert_same_report(plan, expect_gear="sweep")
            assert report.ok, report.describe()

    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_racy_mutations(self, dags, nprocs):
        grid = ProcessGrid(nprocs)
        for sdag, batches in dags:
            swapped = PlanSpec.from_execution(
                sdag, grid, _swap_dependent(sdag, batches))
            collapsed = PlanSpec.from_execution(
                sdag, grid, [np.concatenate(batches)])
            clean = PlanSpec.from_execution(sdag, grid, batches)
            busiest = int(np.argmax([o.size for o in clean.order]))
            clean.order[busiest] = clean.order[busiest][::-1].copy()
            for plan in (swapped, collapsed, clean):
                self.assert_same_report(plan)
            if nprocs > 1 and len(batches) > 1:
                # every cross-rank message dropped: hint and orders stay
                # well-formed, so the races are *found* on the sweep
                # gear and confirmed on the exact one
                full = PlanSpec.from_execution(sdag, grid, batches)
                local = full.rank[full.edges[:, 0]] \
                    == full.rank[full.edges[:, 1]]
                silent = dataclasses.replace(full, edges=full.edges[local])
                report = self.assert_same_report(silent,
                                                 expect_gear="sweep")
                assert rep.PLAN_RACE_RW in report.codes()

    def test_bad_hint_is_recomputed_not_trusted(self, dags):
        sdag, batches = dags[0]
        plan = PlanSpec.from_execution(sdag, ProcessGrid(2), batches)
        prod, cons = plan.edges[0]
        bad = plan.lvl.copy()
        bad[cons] = bad[prod]  # one edge no longer increases the hint
        hinted = PlanVerifier(dataclasses.replace(plan, lvl=bad))
        lvl = hinted._dag_levels()
        assert not np.array_equal(lvl, bad)
        assert (lvl[plan.edges[:, 1]] > lvl[plan.edges[:, 0]]).all()
        report = self.assert_same_report(
            dataclasses.replace(plan, lvl=bad))
        assert report.ok, report.describe()
