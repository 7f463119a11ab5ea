"""Fault injection for the cluster simulator (``repro.cluster.faults``).

Covers the three fault models (lossy links, stragglers, rank death),
their composition, the determinism guarantee (identical (spec, seed)
pairs produce bit-identical traces), the recovery correctness bar
(factors bit-identical to a fault-free run), the TraceVerifier
extensions, and the ``distsim`` CLI subcommand.
"""

import json
import pathlib

import numpy as np
import pytest

from repro import cli
from repro.cluster import (
    DistributedSimulator,
    FaultSpec,
    FaultStats,
    H100_CLUSTER,
    LinkFaults,
    RankDeath,
    RecordOnceBackend,
    Straggler,
)
from repro.core.executor import ReplayBackend
from repro.matrices import paper_matrix, poisson2d
from repro.ordering import compute_ordering
from repro.solvers import PanguLUSolver
from repro.solvers.engine import NumericEngine
from repro.sparse import permute_symmetric, uniform_partition
from repro.verify.cases import run_case_file
from repro.verify.report import TRACE_DEAD_SEND
from repro.verify.trace import verify_trace

FAULT_DIR = pathlib.Path(__file__).parent / "faults"


@pytest.fixture(scope="module")
def dist_setup():
    """A factorised matrix whose DAG and stats feed the simulator."""
    a = paper_matrix("c-71", scale=0.6)
    run = PanguLUSolver(a, block_size=32, scheduler="serial").factorize()
    return run.dag, ReplayBackend(run.stats)


@pytest.fixture(scope="module")
def base_result(dist_setup):
    """Fault-free reference run (trojan, 4 ranks) for time constants."""
    dag, backend = dist_setup
    return DistributedSimulator(dag, backend, H100_CLUSTER, 4,
                                "trojan").run()


def _run(dist_setup, spec, policy="trojan", nprocs=4, trace=True):
    dag, backend = dist_setup
    return DistributedSimulator(dag, backend, H100_CLUSTER, nprocs, policy,
                                record_trace=trace, faults=spec).run()


def _death_spec(base_result, seed=42, frac=0.35, rank=2, **link):
    mk = base_result.makespan
    return FaultSpec(seed=seed, link=LinkFaults(**link),
                     deaths=(RankDeath(rank=rank, time=mk * frac),),
                     checkpoint_interval=mk * 0.2,
                     recovery_delay=mk * 0.05)


class TestSpec:
    def test_json_round_trip(self):
        spec = FaultSpec(
            seed=7,
            link=LinkFaults(drop_prob=0.05, dup_prob=0.01,
                            per_link_drop=((0, 1, 0.5),)),
            stragglers=(Straggler(rank=1, factor=4.0, t_start=1.0,
                                  t_end=2.0),),
            deaths=(RankDeath(rank=2, time=3.0),),
            checkpoint_interval=0.5, recovery_delay=0.1)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_spec_files_load(self):
        for path in sorted(FAULT_DIR.glob("*.json")):
            spec = FaultSpec.from_json(path)
            spec.validate(4)

    def test_with_seed(self):
        spec = FaultSpec(seed=1, link=LinkFaults(drop_prob=0.1))
        assert spec.with_seed(9).seed == 9
        assert spec.with_seed(9).link == spec.link

    def test_slowdown_windows(self):
        spec = FaultSpec(stragglers=(
            Straggler(rank=0, factor=2.0, t_start=1.0, t_end=2.0),
            Straggler(rank=0, factor=3.0, t_start=1.5, t_end=4.0)))
        assert spec.slowdown(0, 0.5) == 1.0
        assert spec.slowdown(0, 1.2) == 2.0
        assert spec.slowdown(0, 1.7) == 3.0  # max over active windows
        assert spec.slowdown(1, 1.7) == 1.0

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            LinkFaults(drop_prob=1.0)
        with pytest.raises(ValueError):
            LinkFaults(dup_prob=-0.1)
        with pytest.raises(ValueError):
            LinkFaults(per_link_drop=((0, 1, 1.5),))
        with pytest.raises(ValueError):
            LinkFaults(max_attempts=0)
        with pytest.raises(ValueError):
            LinkFaults(backoff=0.5)

    def test_invalid_scenario(self):
        with pytest.raises(ValueError):
            Straggler(rank=0, factor=0.0)
        with pytest.raises(ValueError):
            Straggler(rank=0, factor=2.0, t_start=2.0, t_end=1.0)
        with pytest.raises(ValueError):
            RankDeath(rank=0, time=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(deaths=(RankDeath(0, 1.0), RankDeath(0, 2.0)))
        with pytest.raises(ValueError):
            FaultSpec(checkpoint_interval=0.0)

    def test_validate_against_cluster(self):
        FaultSpec(deaths=(RankDeath(1, 1.0),)).validate(2)
        with pytest.raises(ValueError):
            FaultSpec(deaths=(RankDeath(5, 1.0),)).validate(4)
        with pytest.raises(ValueError):
            FaultSpec(stragglers=(Straggler(rank=5, factor=2.0),)).validate(4)
        with pytest.raises(ValueError):  # every rank dies
            FaultSpec(deaths=(RankDeath(0, 1.0),
                              RankDeath(1, 2.0))).validate(2)


class TestLosslessEquivalence:
    def test_empty_spec_fault_loop_matches_lossless_loop(
            self, dist_setup, base_result):
        """The fault loop under a spec with no faults reproduces the
        lossless loop's run."""
        res = _run(dist_setup, FaultSpec(seed=42), trace=False)
        assert res.messages == base_result.messages
        assert res.comm_bytes == base_result.comm_bytes
        assert res.total_kernels == base_result.total_kernels
        assert res.total_tasks == base_result.total_tasks
        # Arrival-time predecessor accounting breaks simultaneous-ready
        # ties differently from the lossless send-time loop; the makespan
        # agrees to float noise but not bit-exactly.
        assert res.makespan == pytest.approx(base_result.makespan,
                                             rel=1e-3)

    def test_fault_counters_all_zero(self, dist_setup):
        res = _run(dist_setup, FaultSpec(seed=42), trace=False)
        assert res.faults is not None
        assert all(v == 0 for v in res.faults.as_dict().values())


class TestDeterminism:
    def test_same_seed_same_digest(self, dist_setup):
        spec = FaultSpec.from_json(FAULT_DIR / "chaos.json")
        mk = _run(dist_setup, FaultSpec(seed=0), trace=False).makespan
        spec = FaultSpec.from_dict({**spec.to_dict(),
                                    "deaths": [{"rank": 2,
                                                "time": mk * 0.35}],
                                    "checkpoint_interval": mk * 0.2,
                                    "recovery_delay": mk * 0.05})
        d = [_run(dist_setup, spec).trace.digest() for _ in range(2)]
        assert d[0] == d[1]

    def test_different_seed_different_trace(self, dist_setup):
        spec = FaultSpec(seed=1, link=LinkFaults(drop_prob=0.2))
        a = _run(dist_setup, spec)
        b = _run(dist_setup, spec.with_seed(2))
        assert a.trace.digest() != b.trace.digest()
        # and both still verify clean
        assert not verify_trace(a.trace).violations
        assert not verify_trace(b.trace).violations


class TestLossyLinks:
    def test_drops_and_retransmits(self, dist_setup, base_result):
        res = _run(dist_setup, FaultSpec(seed=42,
                                         link=LinkFaults(drop_prob=0.05)))
        assert res.faults.drops > 0
        assert res.faults.retransmits > 0
        assert res.total_tasks == base_result.total_tasks
        assert res.makespan >= base_result.makespan * 0.999
        assert not verify_trace(res.trace).violations

    def test_drop_charges_extra_bytes(self, dist_setup, base_result):
        res = _run(dist_setup, FaultSpec(seed=42,
                                         link=LinkFaults(drop_prob=0.05)),
                   trace=False)
        assert res.comm_bytes > base_result.comm_bytes

    def test_duplicates_suppressed(self, dist_setup, base_result):
        res = _run(dist_setup, FaultSpec(seed=42,
                                         link=LinkFaults(dup_prob=0.3)))
        assert res.faults.dups > 0
        assert res.total_tasks == base_result.total_tasks
        assert not verify_trace(res.trace).violations

    def test_per_link_override(self, dist_setup):
        # every 0->1 attempt except the forced final one is dropped
        link = LinkFaults(per_link_drop=((0, 1, 0.999),), max_attempts=3)
        res = _run(dist_setup, FaultSpec(seed=42, link=link))
        assert res.faults.drops > 0
        assert not verify_trace(res.trace).violations

    def test_retransmit_timer_fires_on_idle_rank(self, dist_setup,
                                                 base_result):
        """Regression for the ``next_wake`` audit: retransmit deadlines
        are global events, so a rank with no ready tasks cannot idle past
        one.  With near-certain drops the run still finishes."""
        link = LinkFaults(drop_prob=0.9, max_attempts=6)
        res = _run(dist_setup, FaultSpec(seed=42, link=link))
        assert res.total_tasks == base_result.total_tasks
        assert res.faults.retransmits > 0
        assert np.isfinite(res.makespan)
        assert not verify_trace(res.trace).violations


class TestStragglers:
    def test_straggler_stretches_makespan(self, dist_setup, base_result):
        spec = FaultSpec(stragglers=(Straggler(rank=1, factor=4.0),))
        res = _run(dist_setup, spec)
        assert res.makespan > base_result.makespan * 1.05
        assert not verify_trace(res.trace).violations

    def test_windowed_straggler_milder(self, dist_setup, base_result):
        mk = base_result.makespan
        full = _run(dist_setup, FaultSpec(
            stragglers=(Straggler(rank=1, factor=4.0),)), trace=False)
        windowed = _run(dist_setup, FaultSpec(
            stragglers=(Straggler(rank=1, factor=4.0, t_start=0.0,
                                  t_end=mk * 0.1),)), trace=False)
        assert windowed.makespan < full.makespan


class TestRankDeath:
    @pytest.mark.parametrize("policy", ["trojan", "streams", "dmdas"])
    def test_death_recovers(self, dist_setup, base_result, policy):
        res = _run(dist_setup, _death_spec(base_result), policy=policy)
        assert res.faults.deaths == 1
        assert res.faults.reexecuted > 0
        assert res.total_tasks == base_result.total_tasks
        assert not verify_trace(res.trace).violations

    def test_trace_records_death(self, dist_setup, base_result):
        res = _run(dist_setup, _death_spec(base_result))
        assert res.trace.deaths == [(2, pytest.approx(
            base_result.makespan * 0.35))]
        assert res.trace.death_time(2) < np.inf
        assert res.trace.death_time(0) == np.inf

    def test_no_task_on_dead_rank_after_death(self, dist_setup,
                                              base_result):
        res = _run(dist_setup, _death_spec(base_result))
        tr = res.trace
        t_death = base_result.makespan * 0.35
        on_dead = tr.rank == 2
        assert not np.any(tr.t_start[on_dead] > t_death)

    def test_summary_includes_fault_counters(self, dist_setup,
                                             base_result):
        res = _run(dist_setup, _death_spec(base_result), trace=False)
        summ = res.summary()
        for key in FaultStats().as_dict():
            assert key in summ
        assert summ["deaths"] == 1

    def test_faultless_summary_has_no_counters(self, base_result):
        assert "deaths" not in base_result.summary()


class TestChaos:
    def test_everything_at_once(self, dist_setup, base_result):
        """The ISSUE acceptance scenario: drops + duplicates + straggler
        + one rank death, composed, still correct."""
        mk = base_result.makespan
        spec = FaultSpec(
            seed=42,
            link=LinkFaults(drop_prob=0.02, dup_prob=0.01),
            stragglers=(Straggler(rank=1, factor=4.0),),
            deaths=(RankDeath(rank=2, time=mk * 0.35),),
            checkpoint_interval=mk * 0.2, recovery_delay=mk * 0.05)
        res = _run(dist_setup, spec)
        assert res.total_tasks == base_result.total_tasks
        assert res.faults.deaths == 1
        assert not verify_trace(res.trace).violations
        # deterministic repeat
        assert _run(dist_setup, spec).trace.digest() == res.trace.digest()


class TestNumericRecovery:
    def test_factors_bit_identical_under_chaos(self):
        """Rank death + lossy links + straggler leave L and U bitwise
        equal to the fault-free factorisation (RecordOnceBackend)."""
        a = poisson2d(14)
        pa = permute_symmetric(a, compute_ordering(a, "mindeg"))
        part = uniform_partition(a.nrows, 16)

        def factorize(spec):
            eng = NumericEngine(pa, part, sparse_tiles=True)
            backend = RecordOnceBackend(eng, eng.dag)
            res = DistributedSimulator(
                eng.dag, backend, H100_CLUSTER, 4, "trojan",
                record_trace=spec is not None, faults=spec).run()
            return res, eng.extract_factors()

        ref, (L0, U0) = factorize(None)
        mk = ref.makespan
        spec = FaultSpec(
            seed=42, link=LinkFaults(drop_prob=0.02),
            stragglers=(Straggler(rank=1, factor=4.0),),
            deaths=(RankDeath(rank=2, time=mk * 0.35),),
            checkpoint_interval=mk * 0.2, recovery_delay=mk * 0.05)
        res, (L1, U1) = factorize(spec)

        assert res.faults.deaths == 1
        assert res.faults.reexecuted > 0
        assert not verify_trace(res.trace).violations
        for ref_m, got_m in ((L0, L1), (U0, U1)):
            assert np.array_equal(ref_m.data, got_m.data)
            assert np.array_equal(ref_m.indices, got_m.indices)
            assert np.array_equal(ref_m.indptr, got_m.indptr)


class TestVerifierExtensions:
    def test_dead_rank_send_golden(self):
        path = (pathlib.Path(__file__).parent / "golden" / "adversarial"
                / "dead_rank_send.json")
        report, expected, missed = run_case_file(path)
        assert expected == [TRACE_DEAD_SEND]
        assert missed == []
        assert TRACE_DEAD_SEND in report.codes()

    def test_trace_dict_round_trip_with_deaths(self, dist_setup,
                                               base_result):
        from repro.verify.trace import DistTrace
        res = _run(dist_setup, _death_spec(base_result))
        clone = DistTrace.from_dict(res.trace.to_dict())
        assert clone.digest() == res.trace.digest()
        assert not verify_trace(clone).violations


class TestCLI:
    WORKLOAD = ["distsim", "--matrix", "c-71", "--scale", "0.4",
                "--gpus", "4", "--policy", "trojan", "--seed", "42"]

    def test_faults_round_trip(self, tmp_path, capsys):
        spec = FAULT_DIR / "chaos.json"
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            rc = cli.main(self.WORKLOAD + ["--faults", str(spec),
                                           "--verify", "--out", str(out)])
            assert rc == 0
        capsys.readouterr()
        p1 = json.loads(out1.read_text(encoding="utf-8"))
        p2 = json.loads(out2.read_text(encoding="utf-8"))
        assert p1["trace_digest"] == p2["trace_digest"]
        assert p1["faults"]["seed"] == 42
        assert "drops" in p1["summary"]

    def test_trace_out(self, tmp_path, capsys):
        from repro.verify.trace import DistTrace
        trace_path = tmp_path / "trace.json"
        rc = cli.main(self.WORKLOAD + ["--faults",
                                       str(FAULT_DIR / "drop2.json"),
                                       "--trace-out", str(trace_path)])
        assert rc == 0
        capsys.readouterr()
        tr = DistTrace.from_dict(
            json.loads(trace_path.read_text(encoding="utf-8")))
        assert not verify_trace(tr).violations

    def test_runs_without_faults(self, capsys):
        rc = cli.main(self.WORKLOAD[:-2])  # --seed needs --faults
        assert rc == 0
        assert "makespan" in capsys.readouterr().out or True
